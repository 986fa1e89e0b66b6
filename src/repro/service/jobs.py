"""Job model: specs, the lifecycle state machine, typed service errors.

A *job* is one reconstruction request flowing through the service: a
:class:`JobSpec` (driver + scan + driver parameters + priority) wrapped in a
:class:`Job` that tracks the lifecycle

    PENDING ──▶ RUNNING ──▶ DONE
       │           ├──────▶ FAILED
       │           └──────▶ CANCELLED
       ├──────────────────▶ DONE        (duplicate served from the ResultCache)
       ├──────────────────▶ FAILED      (spec rejected at run dispatch)
       └──────────────────▶ CANCELLED   (cancelled before a worker picked it up)

Every transition is validated against that machine (anything else raises the
typed :class:`JobStateError`) and appended to the job's event log; each
checkpoint snapshot the resilience layer writes while the job runs is
recorded as a ``CHECKPOINTED`` event, so a job's history shows exactly how
far a killed worker will be able to resume it from.

All mutating methods are thread-safe: workers, the submitting thread, and
status readers share jobs freely.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ct.sinogram import ScanData

__all__ = [
    "DRIVERS",
    "ServiceError",
    "JobStateError",
    "JobFailedError",
    "JobCancelledError",
    "JobDeadlineError",
    "ResultPersistError",
    "UnknownJobError",
    "EvictedJobError",
    "JobState",
    "TERMINAL_STATES",
    "JobEvent",
    "JobSpec",
    "Job",
]

#: Reconstruction drivers a job may request.  ``multires`` is the
#: coarse-to-fine pyramid (repro.multires), which runs one of the other
#: three per level (``base_driver`` param, default ``icd``).
DRIVERS = ("icd", "psv_icd", "gpu_icd", "multires")


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base class for reconstruction-service failures."""


class JobStateError(ServiceError):
    """An invalid lifecycle transition was attempted."""


class JobFailedError(ServiceError):
    """The job terminated in FAILED; raised by ``result()`` waiters."""


class JobCancelledError(ServiceError):
    """The job was cancelled.

    Raised *inside* a running driver at the next iteration boundary (the
    worker subprocess checks the job's shared cancel flag there) and by
    ``result()`` waiters of a CANCELLED job.
    """


class JobDeadlineError(ServiceError):
    """The job exceeded its wall-clock budget (``job_deadline_s``).

    The job's worker subprocess is SIGKILLed at the deadline, and once
    its restart budget is spent the job files FAILED with this error's
    message in the detail.
    """


class ResultPersistError(ServiceError):
    """The finished result could not be written to disk.

    Checkpoint, cache, and status writes *degrade* under disk faults —
    the job keeps computing and completes.  The result container is the
    one irreplaceable artifact: when its write still fails after the
    retry budget, the job files FAILED with the errno in the detail.
    """

    def __init__(self, message: str, *, errno: int | None = None) -> None:
        super().__init__(message)
        self.errno = errno


class UnknownJobError(ServiceError, KeyError):
    """No job with the given id is known to the service."""


class EvictedJobError(UnknownJobError):
    """The job existed but its terminal record was evicted by the TTL reaper.

    A tombstone distinguishes "never heard of it" (plain
    :class:`UnknownJobError`, HTTP 404) from "finished and aged out"
    (this error, HTTP 410) for long-lived gateways that bound their job
    registry with ``job_ttl_s``.
    """


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class JobState(str, enum.Enum):
    """Lifecycle states of a reconstruction job."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


#: States a job can never leave.
TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED})

_VALID_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    # PENDING -> DONE is the cache-hit fast path; PENDING -> FAILED a spec
    # rejected at dispatch; PENDING -> CANCELLED a cancel before pickup.
    JobState.PENDING: frozenset(
        {JobState.RUNNING, JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.RUNNING: frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's event log."""

    kind: str  # SUBMITTED | RUNNING | CHECKPOINTED | DONE | FAILED | CANCELLED
    #            | DEDUPED | WORKER_CRASHED (process worker died; job resumed)
    #            | WORKER_HUNG (silent/over-deadline worker killed; job resumed)
    #            | CHECKPOINT_DEGRADED / CHECKPOINT_RECOVERED (disk-fault
    #              degradation of the checkpoint write path)
    at: float  # service-clock timestamp
    detail: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@dataclass
class JobSpec:
    """What to reconstruct and how.

    Attributes
    ----------
    driver:
        One of :data:`DRIVERS`.
    scan:
        The measurements to reconstruct.
    params:
        Keyword arguments forwarded to the driver (``max_equits``, ``seed``,
        ``sv_side``, ``kernel``, ``backend`` ...).  For ``gpu_icd``, keys
        naming :class:`~repro.core.gpu_icd.GPUICDParams` fields are folded
        into a ``params=`` object automatically.  Values must be
        JSON-serialisable — they are part of the result-cache key.
    priority:
        Scheduling priority; **higher runs earlier**.  Jobs of equal
        priority run in submission (FIFO) order.
    job_id:
        Optional stable identifier (a fresh one is assigned when omitted).
        Stability matters for crash recovery: a resubmitted job with the
        same id finds its previous checkpoint directory and resumes.
    fault:
        Test-only fault-injection hook (mirrors the drivers' public
        ``fault_injection=``): ``{"kill_at_iteration": N}`` SIGKILLs the
        worker process after iteration ``N``; an optional ``"signal"`` key
        (an int or a name like ``"SIGSTOP"``) sends that signal instead —
        ``SIGSTOP`` produces an alive-but-hung worker for heartbeat
        drills.  The fault arms only on a job's *first* life (a job
        resuming from checkpoints never re-arms it), so kill-and-resume
        drills terminate.
    """

    driver: str
    scan: ScanData
    params: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    job_id: str | None = None
    fault: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.driver not in DRIVERS:
            raise ValueError(f"unknown driver {self.driver!r}; use one of {DRIVERS}")
        if not isinstance(self.scan, ScanData):
            raise TypeError(f"scan must be ScanData, got {type(self.scan).__name__}")
        self.priority = int(self.priority)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
class Job:
    """One submission's live state inside the service.

    Workers mutate it through :meth:`transition` / :meth:`note_iteration` /
    :meth:`note_checkpoint`; any thread may read :meth:`snapshot` or block
    on :meth:`wait`.
    """

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        *,
        seq: int = 0,
        cache_key: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.seq = int(seq)  # FIFO tiebreak within a priority class
        self.cache_key = cache_key
        self._clock = clock
        self._lock = threading.Lock()
        self._terminal = threading.Event()
        self._cancel = threading.Event()

        self.state = JobState.PENDING
        self.events: list[JobEvent] = []
        self.error: str | None = None
        self.result = None  # ICDResult-shaped object once DONE
        self.metrics = None  # JobMetrics from the worker's "done" verdict
        self.from_cache = False
        self.submitted_at: float = clock()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: progress of the most recent run segment
        self.iteration = 0
        self.last_iteration_s: float | None = None
        self.checkpoints = 0
        self.record_event("SUBMITTED", priority=spec.priority)

    # -- lifecycle ------------------------------------------------------
    def transition(self, new_state: JobState, *, error: str | None = None, **detail) -> None:
        """Move to ``new_state``; anything off the state machine raises."""
        with self._lock:
            if new_state not in _VALID_TRANSITIONS[self.state]:
                raise JobStateError(
                    f"job {self.job_id}: invalid transition "
                    f"{self.state.value} -> {new_state.value}"
                )
            self.state = new_state
            now = self._clock()
            if new_state is JobState.RUNNING:
                self.started_at = now
            if new_state in TERMINAL_STATES:
                self.finished_at = now
            if error is not None:
                self.error = error
                detail = {**detail, "error": error}
            self.events.append(JobEvent(kind=new_state.value, at=now, detail=detail))
        if new_state in TERMINAL_STATES:
            self._terminal.set()

    def record_event(self, kind: str, **detail) -> None:
        """Append a non-transition event (SUBMITTED, CHECKPOINTED, DEDUPED...)."""
        with self._lock:
            self.events.append(JobEvent(kind=kind, at=self._clock(), detail=detail))

    # -- progress (relayed from the job's worker subprocess) ------------
    def note_iteration(self, iteration: int, duration_s: float | None) -> None:
        """Record that outer iteration ``iteration`` just completed."""
        with self._lock:
            self.iteration = int(iteration)
            self.last_iteration_s = duration_s

    def note_checkpoint(self, iteration: int) -> None:
        """Record one checkpoint snapshot (the CHECKPOINTED lifecycle event)."""
        with self._lock:
            self.checkpoints += 1
            self.events.append(
                JobEvent(
                    kind="CHECKPOINTED",
                    at=self._clock(),
                    detail={"iteration": int(iteration)},
                )
            )

    # -- cancellation ---------------------------------------------------
    def request_cancel(self) -> bool:
        """Ask for cancellation; False if the job already finished.

        A PENDING job is cancelled when a worker next touches it; a RUNNING
        job stops cooperatively at its next iteration boundary.
        """
        if self.state in TERMINAL_STATES:
            return False
        self._cancel.set()
        return True

    @property
    def cancel_requested(self) -> bool:
        """Whether :meth:`request_cancel` has been called."""
        return self._cancel.is_set()

    # -- waiting / reading ----------------------------------------------
    @property
    def terminal(self) -> bool:
        """Whether the job reached DONE / FAILED / CANCELLED."""
        return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        return self._terminal.wait(timeout)

    @property
    def equits(self) -> float:
        """Cumulative equits of the completed result (0.0 until DONE)."""
        result = self.result
        if result is not None and getattr(result, "history", None) is not None:
            return result.history.equits
        return 0.0

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready status snapshot (what ``status.json`` persists)."""
        with self._lock:
            return {
                "job_id": self.job_id,
                "driver": self.spec.driver,
                "priority": self.spec.priority,
                "state": self.state.value,
                "iteration": self.iteration,
                "checkpoints": self.checkpoints,
                "from_cache": self.from_cache,
                "cache_key": self.cache_key,
                "error": self.error,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "cancel_requested": self._cancel.is_set(),
                "equits": self.equits,
            }
