"""Service fault-domain hardening (PR 9).

Three fault domains, each with its own recovery contract:

* **liveness** — a worker subprocess that goes *silent* (SIGSTOP, wedged)
  is detected within ``heartbeat_timeout_s``, SIGKILLed, and its job
  resumes from the newest checkpoint bit-identically; a job that outlives
  ``job_deadline_s`` is killed and fails typed;
* **disk faults** — checkpoint writes degrade (retry, suppress, re-probe,
  recover) instead of failing an otherwise-healthy job; only the *result*
  write is terminal, and it fails typed with the errno;
* **verdict durability** — a worker whose pipe tore at the end persists
  its verdict to a file; the parent consumes it instead of re-running a
  finished job.

Fault injection is the ``.disk-fault`` sentinel file (root-proof: chmod is
a no-op for uid 0) plus the drivers' ``kill_at_iteration`` hook with an
optional signal override.
"""

from __future__ import annotations

import errno
import json

import numpy as np
import pytest

from repro.core.convergence import RunHistory
from repro.io import save_reconstruction
from repro.resilience import FaultInjector
from repro.service import (
    JobFailedError,
    JobSpec,
    JobState,
    ReconstructionService,
)
from repro.service.faults import (
    CHECKPOINT_RETRY_POLICY,
    DISK_FAULT_SENTINEL,
    DegradableWriter,
    DegradingCheckpointManager,
    RetryPolicy,
    arm_disk_fault,
    check_disk_fault,
    disarm_disk_fault,
    next_backoff,
)
from repro.service.runner import run_job
from repro.service.worker import worker_result_path, worker_verdict_path


def icd_spec(scan, *, seed=0, equits=1.0, job_id=None, fault=None):
    return JobSpec(
        driver="icd",
        scan=scan,
        params={"max_equits": equits, "seed": seed, "track_cost": False},
        job_id=job_id,
        fault=fault,
    )


def reference_image(scan, tmp_path, *, seed=0, equits=1.0):
    """Uninterrupted single-process reconstruction of the same spec."""
    result = run_job(
        icd_spec(scan, seed=seed, equits=equits),
        checkpoint_dir=tmp_path / "reference-ckpts",
    )
    return np.array(result.image, copy=True)


# ----------------------------------------------------------------------
# Backoff + DegradableWriter units
# ----------------------------------------------------------------------
class TestBackoff:
    def test_backoff_stays_within_base_and_cap(self):
        import random

        rng = random.Random(0)
        delay = 0.05
        for _ in range(50):
            delay = next_backoff(delay, base_s=0.05, cap_s=1.0, rng=rng)
            assert 0.05 <= delay <= 1.0

    def test_backoff_is_decorrelated_not_fixed(self):
        import random

        rng = random.Random(7)
        delays = set()
        delay = 0.05
        for _ in range(20):
            delay = next_backoff(delay, base_s=0.05, cap_s=10.0, rng=rng)
            delays.add(round(delay, 6))
        # Jitter: successive delays spread out instead of repeating.
        assert len(delays) > 10

    def test_backoff_cap_below_base_clamps(self):
        assert next_backoff(5.0, base_s=1.0, cap_s=0.5) == 0.5

    def test_retry_policy_validates(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)


class TestDegradableWriter:
    def _writer(self, **kwargs):
        events = {"degraded": [], "recovered": 0}
        writer = DegradableWriter(
            "test",
            policy=RetryPolicy(attempts=3, base_s=0.001, cap_s=0.002),
            on_degrade=lambda exc: events["degraded"].append(exc),
            on_recover=lambda: events.__setitem__(
                "recovered", events["recovered"] + 1
            ),
            sleep=lambda _s: None,  # no real sleeping in unit tests
            **kwargs,
        )
        return writer, events

    def test_healthy_write_passes_value_through(self):
        writer, events = self._writer()
        ok, value = writer.attempt(lambda: 42)
        assert ok and value == 42
        assert not writer.degraded and not events["degraded"]

    def test_persistent_failure_retries_then_degrades(self):
        writer, events = self._writer()
        calls = []

        def fail():
            calls.append(1)
            raise OSError(errno.ENOSPC, "full")

        ok, value = writer.attempt(fail)
        assert not ok and value is None
        assert len(calls) == 3  # the whole retry budget was spent
        assert writer.degraded
        assert len(events["degraded"]) == 1
        assert events["degraded"][0].errno == errno.ENOSPC
        assert writer.failed_writes == 3  # one per raw attempt
        assert writer.degradations == 1

    def test_degraded_writes_suppressed_and_reprobed(self):
        writer, events = self._writer(reprobe_every=3)
        state = {"healthy": False}

        def write():
            if not state["healthy"]:
                raise OSError(errno.EIO, "io error")
            return "ok"

        writer.attempt(write)  # degrade
        assert writer.degraded
        # Calls 1 and 2 after degradation are suppressed without touching
        # the disk; call 3 probes (and fails again).
        probes_before = writer.failed_writes
        writer.attempt(write)
        writer.attempt(write)
        assert writer.failed_writes == probes_before
        assert writer.suppressed_writes == 2
        writer.attempt(write)  # the probe — still failing
        assert writer.failed_writes == probes_before + 1
        # Fault clears; the next probe recovers.
        state["healthy"] = True
        writer.attempt(write)
        writer.attempt(write)
        ok, value = writer.attempt(write)  # probe slot
        assert ok and value == "ok"
        assert not writer.degraded
        assert events["recovered"] == 1 and writer.recoveries == 1

    def test_stats_snapshot(self):
        writer, _ = self._writer()
        writer.attempt(lambda: 1)
        stats = writer.stats()
        assert stats["degraded"] is False and stats["failed_writes"] == 0


# ----------------------------------------------------------------------
# Sentinel-file fault injection + the degrading checkpoint manager
# ----------------------------------------------------------------------
class TestDiskFaultSentinel:
    def test_clean_directory_is_a_no_op(self, tmp_path):
        check_disk_fault(tmp_path)  # must not raise

    def test_armed_directory_raises_enospc_by_default(self, tmp_path):
        sentinel = arm_disk_fault(tmp_path)
        assert sentinel.name == DISK_FAULT_SENTINEL
        with pytest.raises(OSError) as exc_info:
            check_disk_fault(tmp_path)
        assert exc_info.value.errno == errno.ENOSPC
        disarm_disk_fault(tmp_path)
        check_disk_fault(tmp_path)

    def test_custom_errno_name(self, tmp_path):
        arm_disk_fault(tmp_path, errno_name="EIO")
        with pytest.raises(OSError) as exc_info:
            check_disk_fault(tmp_path)
        assert exc_info.value.errno == errno.EIO

    def test_disarm_is_idempotent(self, tmp_path):
        disarm_disk_fault(tmp_path / "never-armed")

    def test_counted_fault_clears_itself(self, tmp_path):
        sentinel = arm_disk_fault(tmp_path, errno_name="EIO", failures=3)
        for _ in range(3):
            with pytest.raises(OSError) as exc_info:
                check_disk_fault(tmp_path)
            assert exc_info.value.errno == errno.EIO
        assert not sentinel.exists()
        check_disk_fault(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_counted_fault_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="failures"):
            arm_disk_fault(tmp_path, failures=0)


class _FaultLog:
    """Duck-typed recorder capturing ``note_fault`` transitions."""

    def __init__(self):
        self.faults = []

    def note_fault(self, kind, **detail):
        self.faults.append((kind, detail))


class TestDegradingCheckpointManager:
    def test_save_degrades_and_recovers(self, tmp_path, scan16):
        log = _FaultLog()
        manager = DegradingCheckpointManager(
            tmp_path / "ckpts", recorder=log, reprobe_every=1
        )
        state = {
            "driver": "icd",
            "iteration": 1,
            "total_updates": 10,
            "x": np.zeros(4),
            "e": np.zeros(4),
            "rng_state": {"state": 1},
            "history": RunHistory(),
        }
        from repro.resilience import Checkpoint

        arm_disk_fault(manager.directory)
        assert manager.save(Checkpoint(**state)) is None
        kinds = [k for k, _ in log.faults]
        assert kinds == ["CHECKPOINT_DEGRADED"]
        assert log.faults[0][1]["errno"] == errno.ENOSPC
        # Fault clears: the next save probes, recovers, and persists.
        disarm_disk_fault(manager.directory)
        state["iteration"] = 2
        saved = manager.save(Checkpoint(**state))
        assert saved is not None and saved.exists()
        kinds = [k for k, _ in log.faults]
        assert kinds == ["CHECKPOINT_DEGRADED", "CHECKPOINT_RECOVERED"]

    def test_recorder_without_note_fault_gets_counters(self, tmp_path):
        from repro.observability import MetricsRecorder
        from repro.resilience import Checkpoint

        rec = MetricsRecorder()
        manager = DegradingCheckpointManager(tmp_path / "ckpts", recorder=rec)
        arm_disk_fault(manager.directory)
        assert (
            manager.save(
                Checkpoint(
                    driver="icd",
                    iteration=1,
                    total_updates=1,
                    x=np.zeros(2),
                    e=np.zeros(2),
                    rng_state={"s": 1},
                    history=RunHistory(),
                )
            )
            is None
        )
        assert rec.counters.get("checkpoint.degraded", 0) == 1


# ----------------------------------------------------------------------
# Service-level disk-fault degradation (the ENOSPC acceptance drill)
# ----------------------------------------------------------------------
class TestServiceCheckpointDegradation:
    def test_enospc_mid_job_degrades_then_recovers(self, tmp_path, scan16):
        """ENOSPC on the checkpoint dir mid-job: the job still completes
        (bit-identically), the degradation is observable, and checkpointing
        resumes once the fault clears."""
        job_id = "enospc-drill"
        ckpt_root = tmp_path / "ckpts"
        ckpt_dir = ckpt_root / job_id / "checkpoints"
        # Exactly one save's retry budget fails, counted down by whichever
        # process writes: the first save degrades and the next recovers,
        # however the worker and this process are scheduled.
        arm_disk_fault(ckpt_dir, failures=CHECKPOINT_RETRY_POLICY.attempts)

        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, equits=3.0, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
            health = svc.health()

        assert job.state is JobState.DONE
        kinds = [e.kind for e in job.events]
        assert "CHECKPOINT_DEGRADED" in kinds
        assert "CHECKPOINT_RECOVERED" in kinds
        assert counters["service.checkpoint_writes_failed"] >= 1
        # Recovery means real snapshots landed after the fault cleared.
        assert any(ckpt_dir.glob("ckpt-*.ckpt"))
        # A finished job no longer degrades health.
        assert health["status"] == "ok"
        assert np.array_equal(
            np.asarray(result.image),
            reference_image(scan16, tmp_path, equits=3.0),
        )

    def test_degraded_event_carries_errno(self, tmp_path, scan16):
        job_id = "enospc-errno"
        ckpt_root = tmp_path / "ckpts"
        ckpt_dir = ckpt_root / job_id / "checkpoints"
        arm_disk_fault(ckpt_dir, failures=CHECKPOINT_RETRY_POLICY.attempts)

        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, equits=3.0, job_id=job_id))
            svc.result(job_id, timeout=120)
            degraded = [
                e for e in svc.job(job_id).events if e.kind == "CHECKPOINT_DEGRADED"
            ]
        assert degraded and degraded[0].detail["errno"] == errno.ENOSPC


# ----------------------------------------------------------------------
# Heartbeat supervision (the SIGSTOP regression) + deadlines
# ----------------------------------------------------------------------
class TestHeartbeatSupervision:
    def test_sigstopped_worker_is_killed_and_job_resumes(self, tmp_path, scan16):
        """The PR-9 tentpole regression: without heartbeat supervision a
        SIGSTOPped worker parks the job forever (this test hangs pre-fix);
        with it, the silent worker is killed within ``heartbeat_timeout_s``
        and the job resumes from its newest checkpoint bit-identically."""
        import signal

        with ReconstructionService(n_workers=1, heartbeat_timeout_s=1.0) as svc:
            job_id = svc.submit(
                icd_spec(
                    scan16,
                    equits=3.0,
                    fault={"kill_at_iteration": 2, "signal": int(signal.SIGSTOP)},
                )
            )
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.DONE
        hung = [e for e in job.events if e.kind == "WORKER_HUNG"]
        assert hung, [e.kind for e in job.events]
        assert hung[0].detail["reason"] == "heartbeat_timeout"
        assert counters["service.workers_hung"] == 1
        # No crash was recorded — the kill was the supervisor's, and it is
        # tallied separately so operators can tune the timeout.
        assert counters.get("service.worker_crashes", 0) == 0
        assert np.array_equal(
            np.asarray(result.image),
            reference_image(scan16, tmp_path, equits=3.0),
        )

    def test_healthy_worker_under_supervision_is_not_killed(self, scan16):
        """No false positives: a normally-beating worker finishes clean."""
        with ReconstructionService(n_workers=1, heartbeat_timeout_s=0.5) as svc:
            job_id = svc.submit(icd_spec(scan16, equits=2.0))
            svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.DONE
        assert not any(e.kind == "WORKER_HUNG" for e in job.events)
        assert counters.get("service.workers_hung", 0) == 0

    def test_supervision_knobs_validate(self):
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            ReconstructionService(heartbeat_timeout_s=0.0, start=False)
        with pytest.raises(ValueError, match="job_deadline_s"):
            ReconstructionService(job_deadline_s=-1.0, start=False)


class TestJobDeadline:
    def test_process_job_over_deadline_is_killed_and_fails(self, scan16):
        with ReconstructionService(
            n_workers=1,
            job_deadline_s=0.3,
            max_restarts=0,
        ) as svc:
            job_id = svc.submit(icd_spec(scan16, equits=5000.0))
            with pytest.raises(JobFailedError, match="deadline"):
                svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.FAILED
        hung = [e for e in job.events if e.kind == "WORKER_HUNG"]
        assert hung and hung[0].detail["reason"] == "deadline"
        assert counters["service.workers_hung"] >= 1


# ----------------------------------------------------------------------
# Terminal result-persist faults
# ----------------------------------------------------------------------
class TestResultPersistFault:
    def test_unwritable_result_dir_fails_typed(self, tmp_path, scan16):
        """Checkpoint faults degrade; a result fault is the one terminal
        disk failure — FAILED with the errno, after the worker's retries."""
        job_id = "result-fault"
        ckpt_root = tmp_path / "ckpts"
        # The sentinel lives in the job dir (the result container's home),
        # NOT the checkpoints/ subdir — checkpointing stays healthy.
        arm_disk_fault(ckpt_root / job_id)
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, job_id=job_id))
            with pytest.raises(JobFailedError, match="ResultPersistError"):
                svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.FAILED
        assert f"errno={errno.ENOSPC}" in job.error
        # A typed failure verdict, not a crash: no restart was burned.
        assert counters.get("service.worker_crashes", 0) == 0


# ----------------------------------------------------------------------
# Verdict-file durability (pipe-loss fallback)
# ----------------------------------------------------------------------
class TestVerdictFile:
    def _scheduler(self, tmp_path):
        svc = ReconstructionService(n_workers=1, checkpoint_root=tmp_path, start=False)
        return svc, svc.scheduler

    def test_consume_round_trip_deletes_and_counts(self, tmp_path):
        svc, sched = self._scheduler(tmp_path)
        with svc:
            ckpt_dir = sched.checkpoint_dir_for("j1")
            path = worker_verdict_path(ckpt_dir)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"kind": "done", "payload": {"a": 1}}))
            assert sched._consume_verdict(ckpt_dir) == ("done", {"a": 1})
            assert not path.exists()
            assert svc.rec.counters["service.worker_verdict_files"] == 1
            assert sched._consume_verdict(ckpt_dir) is None

    def test_corrupt_verdict_is_dropped_and_deleted(self, tmp_path):
        svc, sched = self._scheduler(tmp_path)
        with svc:
            ckpt_dir = sched.checkpoint_dir_for("j2")
            path = worker_verdict_path(ckpt_dir)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{not json")
            assert sched._consume_verdict(ckpt_dir) is None
            assert not path.exists()  # a torn file must not wedge respawns

    def test_preseeded_done_verdict_skips_the_run(self, tmp_path, scan16):
        """A finished-but-pipe-lost life's verdict file makes the next
        spawn loop load the persisted result instead of re-running."""
        job_id = "verdict-done"
        ckpt_root = tmp_path / "ckpts"
        job_dir = ckpt_root / job_id
        job_dir.mkdir(parents=True)
        image = np.full((16, 16), 7.0)
        save_reconstruction(
            worker_result_path(job_dir / "checkpoints"), image, None, metadata={}
        )
        worker_verdict_path(job_dir / "checkpoints").write_text(
            json.dumps({"kind": "done", "payload": {}})
        )
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)
            counters = dict(svc.rec.counters)
        assert job.state is JobState.DONE
        assert np.array_equal(np.asarray(result.image), image)
        assert counters["service.worker_verdict_files"] == 1
        assert job.iteration == 0  # nothing actually ran


# ----------------------------------------------------------------------
# Corrupt-checkpoint resume at the service level (satellite 3)
# ----------------------------------------------------------------------
class TestCorruptCheckpointResume:
    def test_truncated_newest_checkpoint_falls_back_bit_identical(
        self, tmp_path, scan16
    ):
        """Kill a worker, truncate its newest snapshot, restart the
        service: the job resumes from the next-newest checkpoint and still
        finishes bit-identically to an uninterrupted run."""
        job_id = "corrupt-resume"
        ckpt_root = tmp_path / "ckpts"
        ckpt_dir = ckpt_root / job_id / "checkpoints"

        # Life 1: SIGKILL at iteration 3 with no restart budget — the job
        # fails, leaving checkpoints for iterations 1 and 2 behind.
        with ReconstructionService(
            n_workers=1,
            max_restarts=0,
            checkpoint_root=ckpt_root,
        ) as svc:
            svc.submit(
                icd_spec(
                    scan16, equits=4.0, job_id=job_id, fault={"kill_at_iteration": 3}
                )
            )
            with pytest.raises(JobFailedError, match="worker process died"):
                svc.result(job_id, timeout=120)
        snapshots = sorted(ckpt_dir.glob("ckpt-*.ckpt"))
        assert len(snapshots) >= 2

        # The newest snapshot is torn (disk-level trouble mid-crash).
        FaultInjector.truncate_file(snapshots[-1])

        # Life 2: fresh service, same checkpoint root, clean resubmission.
        with ReconstructionService(n_workers=1, checkpoint_root=ckpt_root) as svc:
            svc.submit(icd_spec(scan16, equits=4.0, job_id=job_id))
            result = svc.result(job_id, timeout=120)
            job = svc.job(job_id)

        assert job.state is JobState.DONE
        # Resumed from the *next-newest* snapshot (iteration 1), so the
        # first checkpoint this life records is iteration 2 — not 1 (a
        # fresh start) and not 3 (the torn snapshot trusted blindly).
        checkpointed = [
            e.detail["iteration"] for e in job.events if e.kind == "CHECKPOINTED"
        ]
        assert checkpointed and min(checkpointed) == 2
        assert np.array_equal(
            np.asarray(result.image),
            reference_image(scan16, tmp_path, equits=4.0),
        )
