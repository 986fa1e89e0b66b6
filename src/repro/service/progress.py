"""What the parent learns about a running job: progress events and metrics.

A job runs in a worker subprocess (:mod:`repro.service.worker`), where the
drivers' ``iteration`` spans and the resilience layer's ``checkpoint_save``
spans (DESIGN.md §9) become pipe messages.  The scheduler turns each into
a :class:`ProgressEvent` for the job's subscribers, and the worker's final
``"done"`` verdict into the job's :class:`JobMetrics` — so a job's counters
and per-span timing remain inspectable after completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProgressEvent", "JobMetrics"]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification delivered to a job's subscriber."""

    job_id: str
    kind: str  # "iteration" | "checkpoint"
    iteration: int
    duration_s: float | None = None


@dataclass(frozen=True)
class JobMetrics:
    """A finished job's metrics, as its worker's ``"done"`` verdict carried them.

    ``counters`` is the worker recorder's counter snapshot;
    :meth:`span_totals` answers like
    :meth:`~repro.observability.MetricsRecorder.span_totals` — closed
    spans aggregated by name as ``{name: {count, total_s}}``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    totals: dict[str, dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_verdict(cls, payload) -> "JobMetrics":
        """Read a ``"done"`` verdict payload (a missing part reads as empty)."""
        doc = payload if isinstance(payload, dict) else {}
        return cls(dict(doc.get("counters", {})), dict(doc.get("span_totals", {})))

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Closed spans aggregated by name: ``{name: {count, total_s}}``."""
        return {name: dict(agg) for name, agg in self.totals.items()}
