"""Disk-fault graceful degradation: writers that retry, then suppress.

The serving stack writes to disk in four places — checkpoint saves, the
worker's result container, the result cache's disk tier, and the intake's
``status.json`` mirrors — and before this module the first ``ENOSPC`` /
``EIO`` / ``EROFS`` on any of them failed an otherwise-healthy
reconstruction.  That inverts the durability hierarchy: checkpoints and
cache entries exist to *protect* the computation, so losing them should
cost redundancy, never the job.

:class:`DegradableWriter` encodes the policy every degradable write path
shares:

* **healthy** — attempt the write; on :class:`OSError` retry up to
  ``RetryPolicy.attempts`` times with capped decorrelated-jitter backoff
  (:func:`next_backoff`, the same helper the load generator's 429 path
  uses so backpressured clients don't wake in lockstep);
* **degraded** — after persistent failure, flip to best-effort-suspended:
  subsequent writes are suppressed (cheap, no syscalls) except for a
  periodic re-probe, so a cleared fault (space freed, volume remounted)
  re-enables the write path without operator action;
* **hooks** — ``on_degrade(exc)`` / ``on_recover()`` fire exactly once
  per transition, which is how the scheduler learns to file
  ``CHECKPOINT_DEGRADED`` / ``CHECKPOINT_RECOVERED`` job events and bump
  the ``service.checkpoint_writes_failed`` counter.

Only an unwritable *result* is terminal — the result is the job's one
irreplaceable artifact, and the worker surfaces that as
:class:`~repro.service.jobs.ResultPersistError` → FAILED with the errno
in the detail.

Fault injection: tests and the chaos harness run as whatever user the CI
container provides (often root, which ignores permission bits), so
``chmod``-based fault injection is unreliable.  Instead every degradable
path calls :func:`check_disk_fault` before touching the filesystem: a
``.disk-fault`` sentinel file in the target directory makes the write
raise the ``OSError`` named inside it (default ``ENOSPC``).  The sentinel
crosses ``fork`` boundaries for free and clears by deleting the file.
"""

from __future__ import annotations

import errno as errno_mod
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.resilience import Checkpoint, CheckpointManager

__all__ = [
    "next_backoff",
    "RetryPolicy",
    "DegradableWriter",
    "DegradingCheckpointManager",
    "DISK_FAULT_SENTINEL",
    "check_disk_fault",
    "arm_disk_fault",
    "disarm_disk_fault",
]


def next_backoff(
    prev_s: float,
    *,
    base_s: float,
    cap_s: float,
    rng: random.Random | None = None,
) -> float:
    """Decorrelated-jitter backoff: ``min(cap, uniform(base, prev * 3))``.

    Seed ``prev_s`` with ``base_s`` on the first retry.  Unlike plain
    exponential backoff the delays are sampled, not computed, so a herd
    of clients (or writers) that failed at the same instant spreads out
    instead of retrying in lockstep.
    """
    if base_s < 0 or cap_s < 0:
        raise ValueError(f"backoff bounds must be >= 0, got {base_s}/{cap_s}")
    pick = (rng or random).uniform
    lo = min(base_s, cap_s)
    hi = max(lo, prev_s * 3.0)
    return min(cap_s, pick(lo, hi))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a healthy :class:`DegradableWriter` tries before degrading."""

    #: Total attempts (first try + retries) while healthy.
    attempts: int = 3
    #: First-retry backoff seed, seconds.
    base_s: float = 0.05
    #: Backoff ceiling, seconds — keeps a worker's iteration cadence sane.
    cap_s: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


#: The retry budget of a :class:`DegradingCheckpointManager` save.
CHECKPOINT_RETRY_POLICY = RetryPolicy(attempts=2, base_s=0.02, cap_s=0.25)


class DegradableWriter:
    """Retry-then-suppress wrapper for best-effort disk writes.

    Not thread-safe: each instance belongs to one writer (a worker's
    checkpoint manager, the cache's disk tier under the cache lock, ...).

    Parameters
    ----------
    name:
        Label for diagnostics (``checkpoint:<job>``, ``cache-disk``, ...).
    policy:
        Retry budget while healthy.
    reprobe_every:
        While degraded, one real write attempt is made every this many
        calls (the rest are suppressed without syscalls).  The default of
        1 probes on every call — the write itself is the probe, which is
        the right trade for checkpoint-cadence callers.
    on_degrade / on_recover:
        Transition hooks; ``on_degrade`` receives the final ``OSError``.
    sleep / rng:
        Injectable for tests (real campaigns keep the defaults).
    """

    def __init__(
        self,
        name: str,
        *,
        policy: RetryPolicy | None = None,
        reprobe_every: int = 1,
        on_degrade: Callable[[OSError], None] | None = None,
        on_recover: Callable[[], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        self.name = name
        self.policy = policy or RetryPolicy()
        self.reprobe_every = max(1, int(reprobe_every))
        self.on_degrade = on_degrade
        self.on_recover = on_recover
        self._sleep = sleep
        self._rng = rng or random.Random()
        self.degraded = False
        self.last_error: OSError | None = None
        #: Individual OS-level write attempts that raised.
        self.failed_writes = 0
        #: Calls answered without touching the disk while degraded.
        self.suppressed_writes = 0
        self.degradations = 0
        self.recoveries = 0
        self._degraded_calls = 0

    def attempt(self, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Run ``fn`` under the degradation policy.

        Returns ``(True, value)`` when the write landed and
        ``(False, None)`` when it was suppressed or exhausted its
        retries — the caller carries on either way; only the *result*
        writer escalates a persistent failure into a typed error.
        """
        if self.degraded:
            self._degraded_calls += 1
            if self._degraded_calls % self.reprobe_every != 0:
                self.suppressed_writes += 1
                return False, None
            try:
                value = fn()
            except OSError as exc:
                self.failed_writes += 1
                self.suppressed_writes += 1
                self.last_error = exc
                return False, None
            self.degraded = False
            self._degraded_calls = 0
            self.recoveries += 1
            if self.on_recover is not None:
                self.on_recover()
            return True, value

        delay = self.policy.base_s
        for attempt in range(self.policy.attempts):
            try:
                return True, fn()
            except OSError as exc:
                self.failed_writes += 1
                self.last_error = exc
                if attempt + 1 < self.policy.attempts:
                    delay = next_backoff(
                        delay,
                        base_s=self.policy.base_s,
                        cap_s=self.policy.cap_s,
                        rng=self._rng,
                    )
                    self._sleep(delay)
        self.degraded = True
        self.degradations += 1
        self._degraded_calls = 0
        if self.on_degrade is not None:
            self.on_degrade(self.last_error)
        return False, None

    def stats(self) -> dict[str, Any]:
        """Counters snapshot for reports and chaos invariants."""
        return {
            "name": self.name,
            "degraded": self.degraded,
            "failed_writes": self.failed_writes,
            "suppressed_writes": self.suppressed_writes,
            "degradations": self.degradations,
            "recoveries": self.recoveries,
            "last_error": str(self.last_error) if self.last_error else None,
        }


class DegradingCheckpointManager(CheckpointManager):
    """A :class:`~repro.resilience.CheckpointManager` whose saves degrade.

    :meth:`save` returns the written path, or ``None`` when the save was
    suppressed — the driver hooks mark the enclosing ``checkpoint_save``
    span ``suppressed`` so progress recorders don't count a checkpoint
    that never hit the disk.  Loads are untouched: reading back existing
    checkpoints still works (and still skips corrupt files) while the
    write path is degraded.

    ``recorder`` is notified on transitions.  A recorder with a
    ``note_fault(kind, **detail)`` method (the service-side progress /
    relay recorders) gets ``CHECKPOINT_DEGRADED`` /
    ``CHECKPOINT_RECOVERED`` events; a plain
    :class:`~repro.observability.MetricsRecorder` gets
    ``checkpoint.degraded`` / ``checkpoint.recovered`` counters instead.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        keep: int = 3,
        recorder: Any = None,
        policy: RetryPolicy | None = None,
        reprobe_every: int = 1,
    ) -> None:
        super().__init__(directory, keep=keep)
        self._recorder = recorder
        self.writer = DegradableWriter(
            f"checkpoint:{Path(directory).parent.name or directory}",
            policy=policy or CHECKPOINT_RETRY_POLICY,
            reprobe_every=reprobe_every,
            on_degrade=self._on_degrade,
            on_recover=self._on_recover,
        )

    def save(self, checkpoint: Checkpoint) -> Path | None:  # type: ignore[override]
        def write() -> Path:
            check_disk_fault(self.directory)
            return CheckpointManager.save(self, checkpoint)

        ok, path = self.writer.attempt(write)
        return path if ok else None

    def _note(self, kind: str, **detail: Any) -> None:
        rec = self._recorder
        if rec is None:
            return
        note = getattr(rec, "note_fault", None)
        if note is not None:
            note(kind, **detail)
        else:
            count = getattr(rec, "count", None)
            if count is not None:
                count(f"checkpoint.{kind.rsplit('_', 1)[-1].lower()}", 1)

    def _on_degrade(self, exc: OSError | None) -> None:
        self._note(
            "CHECKPOINT_DEGRADED",
            errno=getattr(exc, "errno", None),
            error=str(exc) if exc is not None else "",
        )

    def _on_recover(self) -> None:
        self._note("CHECKPOINT_RECOVERED")


#: Basename of the fault-injection sentinel honoured by degradable writers.
DISK_FAULT_SENTINEL = ".disk-fault"


def check_disk_fault(directory: str | Path) -> None:
    """Raise the injected :class:`OSError` if ``directory`` carries one.

    A ``.disk-fault`` sentinel file names the errno to raise (``ENOSPC``
    when empty or unreadable), optionally followed by how many failures
    remain: each check that raises decrements it, and the one that brings
    it to zero removes the sentinel.  The count lives in the file, so it is
    consumed by whichever process does the writing — exact for one writer
    per directory.  Production directories never contain a sentinel, so
    the healthy-path cost is a single ``stat`` that fails.
    """
    sentinel = Path(directory) / DISK_FAULT_SENTINEL
    try:
        fields = sentinel.read_text().split()
    except FileNotFoundError:
        return
    except OSError:
        fields = []
    name = fields[0] if fields else "ENOSPC"
    if len(fields) > 1:
        remaining = int(fields[1]) - 1
        if remaining > 0:
            sentinel.write_text(f"{name} {remaining}")
        else:
            sentinel.unlink(missing_ok=True)
    code = getattr(errno_mod, name, errno_mod.ENOSPC)
    raise OSError(code, f"{os.strerror(code)} [injected: {sentinel}]")


def arm_disk_fault(
    directory: str | Path, errno_name: str = "ENOSPC", *, failures: int | None = None
) -> Path:
    """Plant a disk-fault sentinel in ``directory`` (created if missing).

    By default the fault persists until :func:`disarm_disk_fault`; with
    ``failures=N`` the next ``N`` writes fail and the sentinel then clears
    itself, with no cross-process timing involved.
    """
    if failures is not None and failures < 1:
        raise ValueError(f"failures must be >= 1, got {failures}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sentinel = directory / DISK_FAULT_SENTINEL
    sentinel.write_text(errno_name if failures is None else f"{errno_name} {failures}")
    return sentinel


def disarm_disk_fault(directory: str | Path) -> None:
    """Clear a planted disk-fault sentinel; idempotent."""
    (Path(directory) / DISK_FAULT_SENTINEL).unlink(missing_ok=True)
