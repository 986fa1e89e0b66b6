"""SIGKILL a whole serving session mid-job; a rerun resumes bit-for-bit.

The service-level crash drill (the driver-level one lives in
``tests/integration/test_resilience_kill.py``): a child process, started
in a session of its own, serves a queue directory whose single job carries
the ``kill_at_iteration`` fault hook.  The hook fires in the job's worker
subprocess inside iteration 2's sentinel check — before that iteration's
snapshot, leaving iteration 1's on disk — and sends ``SIGUSR1``, which the
child script (test-only) turns into SIGKILL for the whole session: the
server dies at that exact point, as in a host crash, instead of its
supervisor resuming the worker in the same life.  A second server over the
*same* queue directory recovers the non-terminal job, resumes it from the
surviving checkpoint (the fault is not re-armed on a resumed life), and
completes it.  The result must equal, exactly, a reference run in a
separate queue directory that was never killed — separate so the
shared-directory result cache cannot leak the reference volume into the
resumed run.

CI runs this file under its "service" job with a pytest timeout.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.io import load_reconstruction, save_scan
from repro.resilience import CheckpointManager
from repro.service import DirectoryService, write_job_spec

KILL_AFTER = 2
PARAMS = {"max_equits": 6.0, "seed": 7, "track_cost": False}
#: The fault hook's signal; the session-killing handler below catches it.
FAULT = {"kill_at_iteration": KILL_AFTER, "signal": "SIGUSR1"}

_SRC = str(Path(__file__).resolve().parents[2] / "src")
_ENV = {"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"}

#: Test-only prologue: the worker subprocess inherits this handler, so the
#: fault hook's SIGUSR1 SIGKILLs the serving session (the server's process
#: group), then the worker itself, which leads a group of its own.
_CRASH_SESSION = """\
import os, signal

def _crash_session(signum, frame):
    os.killpg(os.getsid(0), signal.SIGKILL)
    os.kill(os.getpid(), signal.SIGKILL)

signal.signal(signal.SIGUSR1, _crash_session)
"""

_CHILD = _CRASH_SESSION + """\
import sys
from repro.service import DirectoryService
service = DirectoryService(sys.argv[1], n_workers=1)
service.run(drain=True, max_seconds=240)
service.close()
print("UNREACHABLE: serve loop drained without being killed")
sys.exit(3)
"""

#: ``python -m repro`` behind the same prologue.
_CLI = _CRASH_SESSION + """\
import runpy, sys
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


@pytest.fixture()
def queue_dirs(tmp_path, scan16):
    """Two independent queue directories sharing one scan file."""
    killed, reference = tmp_path / "killed", tmp_path / "reference"
    for d in (killed, reference):
        d.mkdir()
        save_scan(d / "scan.npz", scan16)
    return killed, reference


def test_killed_worker_resumes_bit_identical(queue_dirs):
    killed, reference = queue_dirs
    write_job_spec(killed, "drill", driver="icd", scan_path="scan.npz",
                   params=PARAMS, fault=FAULT)

    # First life: the server dies by SIGKILL mid-job (no cleanup runs).
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(killed)],
        env=_ENV, capture_output=True, text=True, timeout=300,
        start_new_session=True,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child exited {proc.returncode}; stdout={proc.stdout!r} "
        f"stderr={proc.stderr!r}"
    )

    # The kill fired inside iteration KILL_AFTER's sentinel check, before
    # that iteration's snapshot: the newest surviving checkpoint is
    # iteration KILL_AFTER - 1's.
    ckpt_dir = killed / "jobs" / "drill" / "checkpoints"
    latest = CheckpointManager(ckpt_dir).load_latest()
    assert latest is not None
    assert latest.iteration == KILL_AFTER - 1

    # The published status never reached a terminal state.
    status = json.loads((killed / "jobs" / "drill" / "status.json").read_text())
    assert status["state"] in {"PENDING", "RUNNING"}

    # Second life: recovery resubmits the job under its original id; it
    # resumes from the checkpoint (the fault hook is not re-armed) and
    # completes.
    with DirectoryService(killed, n_workers=1) as service:
        assert service.run(drain=True, max_seconds=240)
        resumed_job = service.service.job("drill")
        assert resumed_job.state.value == "DONE"

    status = json.loads((killed / "jobs" / "drill" / "status.json").read_text())
    assert status["state"] == "DONE"

    # Reference: the same job, never killed, in an isolated queue dir.
    write_job_spec(reference, "ref", driver="icd", scan_path="scan.npz",
                   params=PARAMS)
    with DirectoryService(reference, n_workers=1) as service:
        assert service.run(drain=True, max_seconds=240)

    img_resumed, hist_resumed, _ = load_reconstruction(
        killed / "jobs" / "drill" / "result.npz"
    )
    img_ref, hist_ref, _ = load_reconstruction(
        reference / "jobs" / "ref" / "result.npz"
    )
    np.testing.assert_array_equal(img_resumed, img_ref)
    assert len(hist_resumed.records) == len(hist_ref.records)


def test_kill_drill_through_module_cli(queue_dirs):
    """The same drill driven end-to-end via ``python -m repro serve``."""
    killed, _ = queue_dirs
    submit = subprocess.run(
        [sys.executable, "-m", "repro", "submit", str(killed),
         "--driver", "icd", "--scan", "scan.npz",
         "--params", json.dumps(PARAMS), "--job-id", "cli-drill"],
        env=_ENV, capture_output=True, text=True, timeout=60,
    )
    assert submit.returncode == 0, submit.stderr
    # arm the fault by rewriting the accepted spec (the CLI exposes no
    # fault flag on purpose; it is a test-only hook)
    spec_path = killed / "incoming" / "cli-drill.json"
    doc = json.loads(spec_path.read_text())
    doc["fault"] = FAULT
    spec_path.write_text(json.dumps(doc))

    args = ["serve", str(killed), "--workers", "1", "--drain",
            "--max-seconds", "240"]
    first = subprocess.run([sys.executable, "-c", _CLI, *args], env=_ENV,
                           capture_output=True, text=True, timeout=300,
                           start_new_session=True)
    assert first.returncode == -signal.SIGKILL, (
        f"exit {first.returncode}: {first.stderr!r}"
    )

    second = subprocess.run([sys.executable, "-m", "repro", *args], env=_ENV,
                            capture_output=True, text=True, timeout=300)
    assert second.returncode == 0, second.stderr
    assert "drained" in second.stdout

    status = subprocess.run(
        [sys.executable, "-m", "repro", "status", str(killed), "cli-drill"],
        env=_ENV, capture_output=True, text=True, timeout=60,
    )
    assert status.returncode == 0, status.stderr
    assert json.loads(status.stdout)["state"] == "DONE"
    assert (killed / "jobs" / "cli-drill" / "result.npz").exists()
