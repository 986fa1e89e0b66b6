"""File/directory job intake: the persistence layer behind ``repro serve``.

A *queue directory* gives the in-process service a crash-safe, on-disk
protocol that plain shell tools (and the ``repro submit/status/cancel``
subcommands) can speak:

.. code-block:: text

    <queue_dir>/
      incoming/<job_id>.json    # dropped-off job specs, picked up by serve
      cache/                    # persistent content-addressed result cache
      jobs/<job_id>/
        spec.json               # the accepted spec (moved from incoming/)
        status.json             # atomic status snapshot (serve loop writes)
        result.npz              # the reconstruction, once DONE
        checkpoints/            # the job's resumable snapshots
        cancel                  # drop this file to request cancellation

A spec file names the driver, a scan file (``repro.io.save_scan`` format),
driver params, and a priority::

    {"driver": "psv_icd", "scan": "scan.npz",
     "params": {"max_equits": 4.0, "sv_side": 8}, "priority": 5}

Crash recovery: on startup every ``jobs/<id>`` whose status is missing or
non-terminal is resubmitted **with its original job id**, so its
checkpoint directory is found and the job resumes from its last snapshot —
a SIGKILL'd server rerun with the same queue directory completes every
in-flight job bit-identically to an uninterrupted run.

Bad specs never crash the serve loop.  A spec that cannot be submitted
(unknown keys, unparseable JSON, an unreadable scan file) is *quarantined*:
a terminal FAILED ``status.json`` naming the error is published for it and
the loop moves on — and because FAILED is terminal, recovery skips it on
every later restart instead of re-raising forever.  A spec rejected by
admission control (the queue is full) is not an error at all: it stays
accepted and is resubmitted on a later poll, once the backlog drains.
Cancel sentinels are consumed once their job is terminal (renamed
``cancel.done``), so a finished job is not re-cancelled on every poll.

Only the serve loop writes ``status.json`` (single-writer, temp-file +
``os.replace``), so readers never observe a torn snapshot.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Any

from repro.io import load_scan, save_reconstruction
from repro.observability import MetricsRecorder
from repro.service.faults import check_disk_fault
from repro.service.jobs import TERMINAL_STATES, Job, JobSpec, JobState, JobStateError
from repro.service.queue import AdmissionError, QueueClosedError
from repro.service.service import ReconstructionService

__all__ = [
    "DirectoryService",
    "write_job_spec",
    "read_status",
    "request_cancel",
]

_SPEC_KEYS = frozenset({"driver", "scan", "params", "priority", "fault"})


# ----------------------------------------------------------------------
# Client-side helpers (used by ``repro submit/status/cancel``)
# ----------------------------------------------------------------------
def write_job_spec(
    queue_dir: str | Path,
    job_id: str,
    *,
    driver: str,
    scan_path: str | Path,
    params: dict[str, Any] | None = None,
    priority: int = 0,
    fault: dict[str, Any] | None = None,
) -> Path:
    """Drop a job spec into ``incoming/`` for the server to pick up."""
    queue_dir = Path(queue_dir)
    incoming = queue_dir / "incoming"
    incoming.mkdir(parents=True, exist_ok=True)
    doc = {
        "driver": driver,
        "scan": str(scan_path),
        "params": dict(params or {}),
        "priority": int(priority),
    }
    if fault:
        doc["fault"] = dict(fault)
    final = incoming / f"{job_id}.json"
    tmp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, final)
    return final


def read_status(queue_dir: str | Path, job_id: str) -> dict[str, Any] | None:
    """The last published status snapshot for ``job_id``, or None."""
    path = Path(queue_dir) / "jobs" / job_id / "status.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


def request_cancel(queue_dir: str | Path, job_id: str) -> Path:
    """Drop the ``cancel`` sentinel file for ``job_id``."""
    job_dir = Path(queue_dir) / "jobs" / job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    sentinel = job_dir / "cancel"
    sentinel.touch()
    return sentinel


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class DirectoryService:
    """Serve reconstructions out of a queue directory.

    Wraps a :class:`~repro.service.service.ReconstructionService` whose
    checkpoints and result cache live *inside* the queue directory, and
    runs the intake loop: pick up ``incoming/`` specs, honour ``cancel``
    sentinels, publish ``status.json``, persist results.
    """

    def __init__(
        self,
        queue_dir: str | Path,
        *,
        n_workers: int = 2,
        heartbeat_timeout_s: float | None = None,
        job_deadline_s: float | None = None,
        job_ttl_s: float | None = None,
        max_queue_depth: int | None = None,
        checkpoint_every: int = 1,
        metrics: MetricsRecorder | None = None,
        poll_s: float = 0.05,
    ) -> None:
        self.queue_dir = Path(queue_dir)
        self.incoming = self.queue_dir / "incoming"
        self.jobs_dir = self.queue_dir / "jobs"
        for d in (self.incoming, self.jobs_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.poll_s = float(poll_s)
        self.service = ReconstructionService(
            n_workers=n_workers,
            heartbeat_timeout_s=heartbeat_timeout_s,
            job_deadline_s=job_deadline_s,
            job_ttl_s=job_ttl_s,
            max_queue_depth=max_queue_depth,
            checkpoint_root=self.jobs_dir,
            cache_dir=self.queue_dir / "cache",
            checkpoint_every=checkpoint_every,
            metrics=metrics,
            start=True,
        )
        #: status/result writes that failed with OSError (retried next poll)
        self.status_write_failures = 0
        self.result_write_failures = 0
        self._persisted: set[str] = set()
        self._deferred: dict[str, Path] = {}  # admission-rejected, retry next poll
        self._recover()

    # -- crash recovery --------------------------------------------------
    def _recover(self) -> None:
        """Resubmit every job a previous life left non-terminal.

        Quarantined specs carry a terminal FAILED status, so a restart
        skips them like any other finished job instead of retrying (and
        re-failing on) them forever.
        """
        for spec_path in sorted(self.jobs_dir.glob("*/spec.json")):
            job_id = spec_path.parent.name
            status = read_status(self.queue_dir, job_id)
            if status is not None and status.get("state") in {s.value for s in TERMINAL_STATES}:
                continue
            self._submit_accepted(spec_path, job_id)

    # -- intake ----------------------------------------------------------
    def _submit_spec_file(self, spec_path: Path, job_id: str) -> None:
        doc = json.loads(spec_path.read_text())
        unknown = set(doc) - _SPEC_KEYS
        if unknown:
            raise ValueError(f"{spec_path}: unknown spec keys {sorted(unknown)}")
        scan_path = Path(doc["scan"])
        if not scan_path.is_absolute():
            scan_path = self.queue_dir / scan_path
        spec = JobSpec(
            driver=doc["driver"],
            scan=load_scan(scan_path),
            params=dict(doc.get("params", {})),
            priority=int(doc.get("priority", 0)),
            job_id=job_id,
            fault=doc.get("fault"),
        )
        self.service.submit(spec)
        self._publish_status(self.service.job(job_id))

    def _submit_accepted(self, spec_path: Path, job_id: str) -> str:
        """Submit an accepted spec without ever crashing the serve loop.

        Returns the outcome: ``"submitted"`` (now pending), ``"deferred"``
        (queue full — retried on a later poll), ``"quarantined"`` (the spec
        is unrunnable — published as terminal FAILED), or ``"skipped"``
        (duplicate id of a currently-active job, which owns the status).
        """
        try:
            self._submit_spec_file(spec_path, job_id)
            return "submitted"
        except (AdmissionError, QueueClosedError):
            # Queue full *or* closed: the spec stays accepted and is retried
            # later — a closing service must not quarantine valid work that a
            # restarted one (same queue dir) would run fine.
            self._deferred[job_id] = spec_path
            return "deferred"
        except JobStateError:
            return "skipped"
        except Exception as exc:
            self._quarantine(job_id, exc)
            return "quarantined"

    def _quarantine(self, job_id: str, exc: Exception) -> None:
        """Publish a terminal FAILED status for an unrunnable accepted spec."""
        self._write_status(
            job_id,
            {
                "job_id": job_id,
                "state": JobState.FAILED.value,
                "error": f"{type(exc).__name__}: {exc}",
                "quarantined": True,
                "updated_at": time.time(),
            },
        )

    def poll_incoming(self) -> list[str]:
        """Accept all pending ``incoming/`` specs; returns newly-pending ids.

        Specs previously deferred by admission control are retried first
        (they were accepted earlier); then new arrivals are accepted.  A
        spec that fails to submit is quarantined or re-deferred — the poll
        itself never raises.
        """
        accepted = []
        for job_id, spec_path in sorted(self._deferred.items()):
            del self._deferred[job_id]
            if self._submit_accepted(spec_path, job_id) == "submitted":
                accepted.append(job_id)
        for path in sorted(self.incoming.glob("*.json")):
            job_id = path.stem
            job_dir = self.jobs_dir / job_id
            job_dir.mkdir(parents=True, exist_ok=True)
            spec_path = job_dir / "spec.json"
            os.replace(path, spec_path)  # accept before submit: crash-safe
            if self._submit_accepted(spec_path, job_id) == "submitted":
                accepted.append(job_id)
        return accepted

    def poll_cancels(self) -> None:
        """Honour every pending ``cancel`` sentinel.

        ``request_cancel`` on a terminal job is a no-op returning False (it
        never raises), and once the job is terminal the sentinel is
        consumed — renamed ``cancel.done`` — so later polls stop
        re-cancelling finished jobs.
        """
        for sentinel in self.jobs_dir.glob("*/cancel"):
            job_id = sentinel.parent.name
            try:
                job = self.service.job(job_id)
            except KeyError:
                continue  # unknown or never-submitted job; leave the file as a record
            job.request_cancel()
            if job.terminal:
                os.replace(sentinel, sentinel.with_name("cancel.done"))

    # -- publishing -------------------------------------------------------
    def _write_status(self, job_id: str, snap: dict[str, Any]) -> bool:
        """Atomically publish one status snapshot; False on a disk fault.

        A failed write leaves the previous snapshot in place (readers see
        stale-but-whole state) and is retried on the next publish round —
        the intake loop is its own retry schedule, so no backoff here.
        """
        final = self.jobs_dir / job_id / "status.json"
        tmp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
        try:
            final.parent.mkdir(parents=True, exist_ok=True)
            check_disk_fault(final.parent)
            tmp.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, final)
        except OSError:
            self.status_write_failures += 1
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            return False
        return True

    def _publish_status(self, job: Job) -> None:
        snap = job.snapshot()
        snap["updated_at"] = time.time()
        self._write_status(job.job_id, snap)

    def publish(self) -> None:
        """Write every job's current status; persist newly finished results."""
        for job in self.service.jobs:
            self._publish_status(job)
            if (
                job.state is JobState.DONE
                and job.job_id not in self._persisted
                and job.result is not None
            ):
                try:
                    check_disk_fault(self.jobs_dir / job.job_id)
                    save_reconstruction(
                        self.jobs_dir / job.job_id / "result.npz",
                        job.result.image,
                        getattr(job.result, "history", None),
                        metadata={
                            "job_id": job.job_id,
                            "driver": job.spec.driver,
                            "from_cache": job.from_cache,
                        },
                    )
                except OSError:
                    # The in-memory result is intact; not marking the job
                    # persisted makes the next publish round the retry.
                    self.result_write_failures += 1
                else:
                    self._persisted.add(job.job_id)

    # -- the loop ---------------------------------------------------------
    def step(self) -> None:
        """One intake round: accept, cancel, publish."""
        self.poll_incoming()
        self.poll_cancels()
        self.publish()

    def run(
        self,
        *,
        drain: bool = False,
        max_seconds: float | None = None,
    ) -> bool:
        """Serve until stopped.

        With ``drain=True`` the loop exits once every known job is terminal
        and ``incoming/`` is empty (True = fully drained).  ``max_seconds``
        bounds the loop either way (False on timeout).
        """
        deadline = None if max_seconds is None else time.monotonic() + max_seconds
        while True:
            self.step()
            if drain:
                jobs = self.service.jobs
                if (
                    not any(self.incoming.glob("*.json"))
                    and not self._deferred
                    and all(j.terminal for j in jobs)
                ):
                    self.publish()
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self.poll_s)

    def close(self) -> None:
        """Publish final statuses and stop the workers."""
        self.publish()
        self.service.close()

    def __enter__(self) -> "DirectoryService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
