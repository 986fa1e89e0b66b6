"""Traced run: replay each job in-process and attribute its latency to layers.

The gateway reports only a job's queue and run timestamps.  To see inside
the run, each distinct spec a traced job carried is replayed here through
:func:`repro.service.runner.run_job` — the function a forked worker runs —
with the layers' public entry points wrapped in spans on the job's
:class:`~repro.observability.MetricsRecorder` (the drivers add their own
``iteration``/``sweep``/``bookkeeping``/``extract``/``update``/``merge``
spans to the same recorder).  A layer's time is the self time of its
spans, so the layers partition the replay exactly; what the replay does
outside any span is the unattributed residual.

Per traced job the leaves follow the gateway's timeline: ``http.submit_s``
(POST sent until the job is registered) + ``queue.wait_s`` +
``worker.overhead_s`` (gateway run time minus the replay) + the replay's
layers + ``http.post_tail_s`` (the POST answer still in flight after the
job finished, as for a cache hit) + ``http.result_fetch_s`` (a second fetch
of the finished result, standing in for the result GET); the residual is
client latency minus their sum.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Span name -> layer whose time it counts as.  Spans of the drivers'
#: loops count as the driver's own loop time.
SPAN_LAYER = {
    "fbp.init": "fbp.init_s",
    "voxel_update.context": "voxel_update.context_s",
    "voxel_update.initial_error": "voxel_update.initial_error_s",
    "supervoxel.grid_build": "supervoxel.grid_build_s",
    "system_matrix.build": "system_matrix.coarse_build_s",
    "multires.resample": "multires.resample_s",
    "sweep": "kernels.sweep_s",
    "extract": "gpu.extract_s",
    "update": "gpu.update_s",
    "merge": "gpu.merge_s",
    "bookkeeping": "driver.bookkeeping_s",
    "iteration": "driver.loop_s",
    "kernel_batch": "driver.loop_s",
    "wave": "driver.loop_s",
    "multires_level": "driver.loop_s",
    "checkpoint_save": "checkpoint.save_s",
    "checkpoint.save": "checkpoint.save_s",
    "io.result_save": "io.result_save_s",
}
#: The replay's root span; its self time is unattributed.
ROOT = "job"


class LayerTracer:
    """Wraps layer entry points with spans on the current job's recorder."""

    def __init__(self) -> None:
        self.rec = None

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.rec.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        import repro.core.gpu_icd as gpu_icd
        import repro.core.icd as icd
        import repro.core.kernels as kernels
        import repro.multires.pyramid as pyramid
        import repro.multires.resample as resample
        from repro.core.voxel_update import SliceUpdater
        from repro.resilience import CheckpointManager

        tracer = self

        class TimedGrid(gpu_icd.SuperVoxelGrid):
            def __init__(self, *args, **kwargs):
                with tracer.rec.span("supervoxel.grid_build"):
                    super().__init__(*args, **kwargs)
                tracer.rec.count("supervoxel.n_svs", self.n_svs)

        class TimedKernelContext(kernels.KernelContext):
            def __init__(self, *args, **kwargs):
                with tracer.rec.span("voxel_update.context"):
                    super().__init__(*args, **kwargs)

        save = CheckpointManager.save

        def timed_save(manager, checkpoint):
            with tracer.rec.span("checkpoint.save"):
                path = save(manager, checkpoint)
            tracer.rec.count("checkpoint.count")
            tracer.rec.count("checkpoint.bytes", Path(path).stat().st_size)
            return path

        patches = [
            (icd, "initial_image", self._span("fbp.init", icd.initial_image)),
            (gpu_icd, "initial_image", self._span("fbp.init", gpu_icd.initial_image)),
            (SliceUpdater, "__post_init__",
             self._span("voxel_update.context", SliceUpdater.__post_init__)),
            (SliceUpdater, "initial_error",
             self._span("voxel_update.initial_error", SliceUpdater.initial_error)),
            (kernels, "KernelContext", TimedKernelContext),
            (gpu_icd, "SuperVoxelGrid", TimedGrid),
            (resample, "build_system_matrix",
             self._span("system_matrix.build", resample.build_system_matrix)),
            (pyramid, "restrict_scan", self._span("multires.resample", pyramid.restrict_scan)),
            (pyramid, "prolong_image", self._span("multires.resample", pyramid.prolong_image)),
            (CheckpointManager, "save", timed_save),
        ]
        originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, value in patches:
                setattr(owner, name, value)
            yield self
        finally:
            for owner, name, value in originals:
                setattr(owner, name, value)


def _walk(rec):
    stack = list(rec.roots)
    while stack:
        span = stack.pop()
        stack.extend(span.children)
        yield span


def _self_times(rec) -> dict[str, float]:
    """Self time per span name (duration minus direct children)."""
    out: dict[str, float] = {}
    for span in _walk(rec):
        own = span.duration - sum(c.duration for c in span.children)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


@dataclass
class Replay:
    """One spec replayed in-process.

    ``layers`` partition the replay (leaf self times, see :data:`SPAN_LAYER`);
    ``counts`` are the reported per-layer numbers that are not leaves.
    """

    total_s: float
    layers: dict[str, float]
    counts: dict[str, float]
    unknown_spans: list[str] = field(default_factory=list)


def replay(spec, workdir: Path, tracer: LayerTracer) -> Replay:
    """Run ``spec`` as a forked worker would, with every layer spanned.

    A forked worker starts from the gateway parent's caches: the fine
    system matrix only.  The neighborhood and coarse-level system caches
    are cleared first so the replay rebuilds them where a worker does.
    """
    from repro.core.prior import shared_neighborhood
    from repro.io import save_reconstruction
    from repro.multires.resample import clear_coarse_system_cache
    from repro.observability import MetricsRecorder
    from repro.service.runner import run_job

    shared_neighborhood.cache_clear()
    clear_coarse_system_cache()
    rec = MetricsRecorder()
    tracer.rec = rec
    result_path = workdir / "result-worker.npz"
    with rec.span(ROOT):
        result = run_job(spec, checkpoint_dir=workdir / "checkpoints", metrics=rec)
        with rec.span("io.result_save"):
            save_reconstruction(
                result_path, result.image, getattr(result, "history", None),
                metadata={"job_id": "replay", "driver": spec.driver},
            )
    tracer.rec = None
    root = rec.roots[0]
    self_times = _self_times(rec)
    layers: dict[str, float] = {}
    for name, seconds in self_times.items():
        if name in SPAN_LAYER:
            layer = SPAN_LAYER[name]
            layers[layer] = layers.get(layer, 0.0) + seconds
    unknown = sorted(set(self_times) - set(SPAN_LAYER) - {ROOT})

    c = rec.counters
    totals = rec.span_totals()

    def per_kernel(what: str) -> float:  # summed over kernel flavors
        return sum(v for k, v in c.items() if k.startswith("kernel.") and k.endswith("." + what))

    # The GPU driver's voxel updates run inside its ``update`` spans.
    kernel_s = layers.get("kernels.sweep_s", 0.0) + layers.get("gpu.update_s", 0.0)
    counts = {
        "kernels.sweep_s": kernel_s,
        "kernels.updates": per_kernel("updates"),
        "kernels.skipped": per_kernel("skipped"),
        "kernels.waves": per_kernel("waves"),
        "gpu.batches": c.get("gpu.batches", 0),
        "gpu.skipped_launches": c.get("gpu.skipped_launches", 0),
        "checkpoint.count": c.get("checkpoint.count", 0),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "supervoxel.n_svs": c.get("supervoxel.n_svs", 0),
        "driver.iterations": totals.get("iteration", {}).get("count", 0),
        "driver.equits": result.history.records[-1].equits if result.history.records else 0.0,
        "io.result_bytes": result_path.stat().st_size,
    }
    counts["kernels.updates_per_s"] = counts["kernels.updates"] / kernel_s if kernel_s else 0.0
    levels = getattr(result, "levels", None)
    if levels:
        level_spans = [s for s in _walk(rec) if s.name == "multires_level"]
        last = max(s.meta["level"] for s in level_spans)
        counts["multires.coarse_s"] = sum(s.duration for s in level_spans if s.meta["level"] != last)
        counts["multires.fine_s"] = sum(s.duration for s in level_spans if s.meta["level"] == last)
        counts["multires.fine_equits"] = levels[-1].equits
    return Replay(root.duration, layers, counts, unknown)


@dataclass
class Attribution:
    """One traced job's latency split into leaf layers."""

    latency_s: float
    leaves: dict[str, float]

    @property
    def residual_s(self) -> float:
        return self.latency_s - sum(self.leaves.values())


def attribute(record, rep: Replay | None) -> Attribution:
    """Split a traced job's client latency into its leaf layers.

    Timestamps come from the gateway's status snapshot, on the same wall
    clock as ``record.sent_at``.  A cache hit never starts: its queue time
    runs to ``finished_at``.
    """
    st = record.status
    started = st["started_at"] if st["started_at"] is not None else st["finished_at"]
    leaves = {
        "http.submit_s": st["submitted_at"] - record.sent_at,
        "queue.wait_s": started - st["submitted_at"],
        "http.post_tail_s": max(0.0, record.answered_at - st["finished_at"]),
        "http.result_fetch_s": record.fetch_s,
    }
    if rep is not None:
        leaves["worker.overhead_s"] = (st["finished_at"] - started) - rep.total_s
        leaves.update(rep.layers)
    return Attribution(record.latency_s, leaves)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def time_cache_key(spec) -> float:
    """Time of the result-cache key the gateway computes at POST."""
    from repro.service.cache import cache_key

    t = time.perf_counter()
    cache_key(spec.driver, spec.scan, spec.params)
    return time.perf_counter() - t
