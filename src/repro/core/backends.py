"""Execution backends: actually-parallel PSV-ICD / GPU-ICD waves.

The drivers in :mod:`repro.core.psv_icd` / :mod:`repro.core.gpu_icd`
default to a deterministic *inline* emulation of concurrency (bulk-
synchronous waves executed sequentially).  This module provides real
wall-clock-parallel execution of a wave/batch, with **snapshot isolation**
semantics:

* every SV in a wave receives the same snapshot of the image ``x`` and the
  error sinogram ``e`` (what concurrent cores observe at wave start);
* each worker processes its SV privately and returns *deltas* (per-voxel
  image deltas and the SVB error delta);
* all deltas merge at the wave barrier, in ascending SV index (so the
  merge — and therefore the iterates — is independent of scheduling).

These semantics keep the central invariant ``e == y - Ax`` exact even when
two SVs of one wave share a boundary voxel (both deltas apply to ``x`` and
both error deltas apply to ``e``, so the correspondence is preserved), at
the cost of slightly different iterates from the inline emulation (which
lets later SVs of a wave see earlier SVs' image updates).  Both are valid
models of the racy 16-core execution; the inline one is the default
because it needs no pool and its iterates predate the backends.

Backends
--------
* :class:`SerialBackend` — snapshot semantics, one worker (the reference
  for the process backend's results).
* :class:`ProcessBackend` — ``ProcessPoolExecutor`` over persistent
  shared-memory arenas (see below).

How the hot path stays hot
--------------------------
The first backend generation submitted one future per SV and republished
the snapshots to a fresh shared-memory segment every wave; at realistic
sizes the dispatch/pickle/attach overhead swamped the compute and the
"parallel" backends lost to inline.  The current design removes every
per-SV and per-wave fixed cost:

* **whole-wave batching** — a wave is split into contiguous *shards*, one
  per worker.  One future per shard: dispatch and pickling are
  O(workers), not O(SVs).  :func:`make_wave_tasks` remains the single
  seed-truth source, so shard composition cannot change the iterates.
* **persistent snapshot arena** — one ``x``/``e`` arena sized to the
  volume is created at first use and *reused* for every subsequent wave:
  the parent memcpys the wave snapshot in; workers attach once per
  segment name and cache the mapping.  No per-wave create/unlink, no
  per-task attach.
* **shared-memory result transport** — workers write each SV's new voxel
  values and SVB delta into a preassigned span of a result arena (offsets
  are computed in the parent; parent and worker grids are deterministic
  and therefore identical) and return only per-SV stats tuples, so
  results are not pickled either.
* **one snapshot copy per shard** — a shard shares a single private
  ``x`` copy; after each SV the touched entries are restored from the
  snapshot (``process_supervoxel`` writes ``x`` only at ``sv.voxels``),
  which is bit-identical to a fresh copy at O(sv) instead of O(n_voxels).
* **fused numba waves by default** — whenever numba is importable and the
  tasks carry ``kernel="numba"`` (what ``kernel="auto"`` resolves to), a
  shard runs as one ``prange``-parallel compiled call
  (:func:`repro.core.kernels.run_wave_fused`) in both backends, serial
  and workers alike.

Both backends are context managers with idempotent :meth:`close`; the
process backend accepts a per-wave ``wave_timeout`` and recovers from
worker crashes by recomputing the failed shards inline (bit-identical,
because tasks carry their own seeds and workers only ever see the shared
snapshot).  It keeps an explicit registry of every shared-memory segment
it creates and closes+unlinks them all in :meth:`close` (with a
``weakref.finalize`` backstop), so crashed workers cannot leak
``/dev/shm`` segments.

Instrumentation: ``run_wave(tasks, x, e, metrics=...)`` accepts a
:class:`~repro.observability.MetricsRecorder` and wraps the three wave
phases in the same ``extract`` / ``update`` / ``merge`` spans the inline
drivers emit, so profiles of inline and backend runs line up one-to-one.

Seeding: per-SV streams derive from ``np.random.SeedSequence(entropy=
base_seed, spawn_key=(sv_index,))`` — the spawn-key construction NumPy
guarantees collision-free — replacing an older affine scheme
(``base_seed * 1_000_003 + sv_index``) whose (base_seed, sv) pairs could
collide.  Backend iterates changed at that switch; no test pinned them.

Fault injection: the process backend accepts a ``fault_injection`` spec —
``(mode, sv_indices, stall_seconds)`` with mode ``"crash"`` or ``"stall"``,
as built by :meth:`repro.resilience.FaultInjector.worker_fault` — that
makes workers die or stall on the listed SVs, so the inline-fallback and
pool-rebuild recovery paths are provably exercised by tests rather than
trusted on faith.
"""

from __future__ import annotations

import concurrent.futures
import gc
import pickle
import time
import weakref
from dataclasses import dataclass
from multiprocessing import get_start_method, shared_memory

import numpy as np

from repro.core import kernels
from repro.core.prior import Prior, shared_neighborhood
from repro.core.supervoxel import SuperVoxelGrid
from repro.core.sv_engine import SVUpdateStats, process_supervoxel
from repro.core.voxel_update import SliceUpdater
from repro.ct.sinogram import ScanData
from repro.ct.system_matrix import SystemMatrix
from repro.observability import as_recorder
from repro.utils import check_positive, resolve_rng

__all__ = [
    "SVWaveTask",
    "SVWaveResult",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "make_backend",
    "wave_task_seed",
    "make_wave_tasks",
    "run_wave",
]

#: Backend names accepted by the drivers' ``backend=`` argument.  "inline"
#: is the drivers' built-in emulation (no backend object is constructed).
BACKENDS = ("inline", "serial", "process")


def wave_task_seed(base_seed: int, sv_index: int) -> np.random.SeedSequence:
    """Collision-free per-(base_seed, SV) stream for one wave task.

    ``SeedSequence`` spawn keys guarantee distinct streams for distinct
    ``(entropy, spawn_key)`` pairs — unlike the previous affine scheme
    ``base_seed * 1_000_003 + sv_index``, where e.g. ``(0, 1_000_003)`` and
    ``(1, 0)`` produced the same integer seed.  Keying by SV index (rather
    than position in the wave) keeps an SV's stream stable however the wave
    is composed.
    """
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(sv_index),))


def make_wave_tasks(
    base_seed: int,
    sv_indices,
    *,
    zero_skip: bool = True,
    stale_width: int = 1,
    kernel: str = "python",
) -> "list[SVWaveTask]":
    """Build one wave's tasks with :func:`wave_task_seed`-derived streams.

    The single place a wave turns ``(base_seed, sv_indices)`` into seeded
    :class:`SVWaveTask` objects — the drivers, :func:`run_wave`, and the
    tests all derive per-SV streams through here, so the seeding scheme
    cannot drift between call sites.  Shard composition downstream (how a
    backend splits the wave across workers) cannot change the iterates
    because every task already carries its own stream.
    """
    return [
        SVWaveTask(
            sv_index=int(s),
            seed=wave_task_seed(base_seed, int(s)),
            zero_skip=zero_skip,
            stale_width=stale_width,
            kernel=kernel,
        )
        for s in sv_indices
    ]


@dataclass(frozen=True)
class SVWaveTask:
    """One SV's work item within a wave."""

    sv_index: int
    seed: int | np.random.SeedSequence
    zero_skip: bool = True
    stale_width: int = 1
    kernel: str = "python"  # already resolved (see kernels.resolve_kernel)


@dataclass
class SVWaveResult:
    """Deltas produced by one SV, ready to merge at the wave barrier."""

    sv_index: int
    voxel_indices: np.ndarray  # flat image indices the SV touched
    voxel_values: np.ndarray  # their new values (snapshot + delta)
    svb_delta: np.ndarray  # flat SVB delta (new - original)
    stats: SVUpdateStats


def _fused_results(
    tasks: "list[SVWaveTask]",
    updater: SliceUpdater,
    grid: SuperVoxelGrid,
    x_snapshot: np.ndarray,
    e_snapshot: np.ndarray,
) -> "list[SVWaveResult]":
    """All-numba shard via :func:`repro.core.kernels.run_wave_fused`.

    Visit orders are drawn here from each task's seed, exactly as
    :func:`process_supervoxel` would, so the fused wave consumes the same
    RNG streams and produces the same iterates as per-task execution.
    """
    ctx = updater.context()
    svs = [grid.svs[t.sv_index] for t in tasks]
    orders = [resolve_rng(t.seed).permutation(sv.n_voxels) for t, sv in zip(tasks, svs)]
    out = kernels.run_wave_fused(
        ctx,
        grid,
        [t.sv_index for t in tasks],
        orders,
        x_snapshot,
        e_snapshot,
        zero_skip_flags=[t.zero_skip for t in tasks],
        stale_widths=[t.stale_width for t in tasks],
    )
    results = []
    for t, sv, (xvals, svb_delta, updates, skipped, tad) in zip(tasks, svs, out):
        results.append(
            SVWaveResult(
                sv_index=t.sv_index,
                voxel_indices=sv.voxels,
                voxel_values=xvals,
                svb_delta=svb_delta,
                stats=SVUpdateStats(
                    sv_index=sv.index,
                    updates=updates,
                    skipped=skipped,
                    total_abs_delta=tad,
                ),
            )
        )
    return results


def _run_task_list(
    tasks: "list[SVWaveTask]",
    updater: SliceUpdater,
    grid: SuperVoxelGrid,
    x_snapshot: np.ndarray,
    e_snapshot: np.ndarray,
) -> "list[SVWaveResult]":
    """Process a shard of wave tasks against one shared snapshot pair.

    The single compute loop every backend funnels through — the serial
    path, process workers, and the inline-fallback recovery all call this,
    so they cannot drift numerically.

    One private ``x`` copy serves the whole shard: ``process_supervoxel``
    writes ``x`` only at ``sv.voxels``, so restoring those entries from
    the snapshot after each SV re-establishes the exact snapshot state —
    bit-identical to a fresh copy per SV, at O(sv) instead of
    O(n_voxels).  When every task resolved to the numba kernel, the whole
    shard runs as one ``prange``-parallel fused call instead.
    """
    if not tasks:
        return []
    if kernels.HAVE_NUMBA and all(t.kernel == "numba" for t in tasks):
        return _fused_results(tasks, updater, grid, x_snapshot, e_snapshot)
    results: list[SVWaveResult] = []
    x_local = x_snapshot.copy()
    for task in tasks:
        sv = grid.svs[task.sv_index]
        svb = sv.extract(e_snapshot)
        orig = svb.copy()
        stats = process_supervoxel(
            sv,
            updater,
            x_local,
            svb,
            rng=task.seed,
            zero_skip=task.zero_skip,
            stale_width=task.stale_width,
            kernel=task.kernel,
        )
        np.subtract(svb, orig, out=orig)  # orig becomes the SVB delta
        results.append(
            SVWaveResult(
                sv_index=task.sv_index,
                voxel_indices=sv.voxels,
                voxel_values=x_local[sv.voxels],
                svb_delta=orig,
                stats=stats,
            )
        )
        x_local[sv.voxels] = x_snapshot[sv.voxels]
    return results


def _merge(
    results: "list[SVWaveResult]",
    grid: SuperVoxelGrid,
    x: np.ndarray,
    e: np.ndarray,
    x_snapshot: np.ndarray,
) -> "list[SVUpdateStats]":
    """Apply all wave deltas to the shared state (the wave barrier).

    ``results`` must already be in merge order (ascending SV index): shared
    boundary voxels accumulate several float deltas, so the order is part
    of the cross-backend bit-identity contract.  Both scatters use plain
    fancy ``+=``: an SV's own voxel indices are unique, and so are its
    valid gather indices (checked at grid construction), which makes the
    in-place add bit-identical to ``np.add.at`` without its slow
    unbuffered loop.
    """
    stats = []
    for res in results:
        sv = grid.svs[res.sv_index]
        # Image: apply this SV's deltas relative to the snapshot (boundary
        # voxels shared between wave SVs accumulate both deltas).
        x[res.voxel_indices] += res.voxel_values - x_snapshot[res.voxel_indices]
        # Error sinogram: add the SVB delta back through the gather map.
        e[sv.valid_gather] += res.svb_delta[sv.valid_mask]
        stats.append(res.stats)
    return stats


def _future_result(fut, deadline):
    """``(ok, value)`` from a future; a failure's traceback is dropped.

    Failure exceptions (``BrokenProcessPool``, timeouts) keep their
    traceback — and with it every frame they propagated through, callers
    included (a finished frame keeps its ``f_back``) — alive for as long
    as anything references the exception.  A broken pool shares one
    exception object across all its futures, and the executor's manager
    thread holds it while it joins the dead workers, so a traceback left
    on it would pin the caller's result-arena views past :meth:`close`
    (turning the segments' ``close()`` into ``BufferError``).
    """
    try:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        return True, fut.result(timeout=remaining)
    except Exception as exc:
        exc.__traceback__ = None
        fut.cancel()
        return False, None


class SerialBackend:
    """Snapshot-isolation wave execution on the calling thread."""

    name = "serial"

    def __init__(self, updater: SliceUpdater, grid: SuperVoxelGrid) -> None:
        self.updater = updater
        self.grid = grid
        self._closed = False

    # ------------------------------------------------------------------
    def run_wave(
        self, tasks: "list[SVWaveTask]", x: np.ndarray, e: np.ndarray, *, metrics=None
    ) -> "list[SVUpdateStats]":
        """Process ``tasks`` against a common snapshot; merge; return stats.

        ``metrics`` optionally receives the inline drivers' wave phases:
        ``extract`` (snapshotting), ``update`` (worker execution), ``merge``
        (the barrier).  Stats come back in ascending SV index.
        """
        self._check_open()
        rec = as_recorder(metrics)
        with rec.span("extract"):
            x_snapshot = x.copy()
            e_snapshot = e.copy()
        with rec.span("update"):
            results = _run_task_list(tasks, self.updater, self.grid, x_snapshot, e_snapshot)
        # Deterministic merge order regardless of completion order.
        results.sort(key=lambda r: r.sv_index)
        with rec.span("merge"):
            return _merge(results, self.grid, x, e, x_snapshot)

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release resources (idempotent; nothing to release here)."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Process backend: per-worker state built once via an initializer; wave
# snapshots and results travel through persistent POSIX shared memory.
# ----------------------------------------------------------------------
_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class _SnapshotHandle:
    """Where a wave's snapshots live in shared memory (ships per shard).

    The payload a shard pickles is this handle, the result-arena handle,
    and the shard's tasks + result offsets — a few hundred bytes per SV —
    never the snapshot or result arrays themselves.
    """

    shm_name: str
    n_x: int
    n_e: int


@dataclass(frozen=True)
class _ResultHandle:
    """Where a wave's outputs go: one float64 scratch arena, parent-sized."""

    shm_name: str
    n_floats: int


def _shard_tasks(tasks, n_workers: int):
    """Split a wave into one contiguous shard per worker.

    Dispatch cost is O(workers).  Sharding never affects iterates — each
    task carries its own seed and all shards read the same snapshot.
    """
    if not tasks:
        return []
    size = -(-len(tasks) // n_workers)
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


class _SnapshotArena:
    """The persistent x/e snapshot buffer, backed by one shared segment."""

    def __init__(self, n_x: int, n_e: int, shm: shared_memory.SharedMemory):
        self.n_x = int(n_x)
        self.n_e = int(n_e)
        self.shm = shm
        buf = np.frombuffer(shm.buf, dtype=np.float64, count=n_x + n_e)
        self.x = buf[:n_x]
        self.e = buf[n_x:]

    def fill(self, x: np.ndarray, e: np.ndarray) -> None:
        np.copyto(self.x, x)
        np.copyto(self.e, e)

    def release(self) -> None:
        """Drop the numpy views so the backing segment can close cleanly."""
        self.x = self.e = None


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    The parent owns every segment's lifecycle (it creates them, keeps a
    registry, and closes+unlinks them in ``close()``); CPython < 3.13 has
    no ``track=False``, and attaching registers unconditionally
    (bpo-39959).  With forked workers the tracker process is *shared*, so
    a worker-side ``unregister`` after attach would delete the parent's
    registration and make every later un/register for the name a tracker
    error.  Suppressing registration during the attach leaves exactly one
    owner — the parent — whichever start method is in use.  Workers are
    single-threaded, so the temporary patch cannot leak into a concurrent
    register call.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _register(rname, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _release_segments(segments: dict) -> None:
    """Close and unlink every registered segment (idempotent, never raises).

    The explicit unlink is the leak bookkeeping: even if a lingering numpy
    view makes ``close()`` raise ``BufferError``, the ``unlink`` still
    removes the ``/dev/shm`` entry, so crashed workers or dropped backends
    cannot strand segments on disk.  A ``BufferError`` usually means views
    are pinned by an uncollected reference cycle (a failed wave's
    exception traceback); one garbage-collection pass frees them, so the
    mapping itself closes too instead of lingering until ``__del__``.
    """
    pending = list(segments.values())
    segments.clear()
    retry = []
    for shm in pending:
        try:
            shm.close()
        except BufferError:
            retry.append(shm)
        except Exception:
            pass
    if retry:
        gc.collect()
        for shm in retry:
            try:
                shm.close()
            except Exception:
                pass
    for shm in pending:
        try:
            shm.unlink()
        except Exception:
            pass


def _worker_init(state) -> None:
    """Build (or adopt) the per-worker slice state once at pool start.

    ``state`` is ``("direct", updater, grid, fault_injection)`` under the
    fork start method — the parent's prebuilt objects are inherited
    copy-on-write, so pool start is free even when the system matrix is
    hundreds of MB — or ``("rebuild", scan, system, prior, sv_side,
    overlap, positivity, fault_injection)`` for spawn-style pools, where
    the worker rebuilds from picklable parts.  Both paths yield identical
    state: the grid build is deterministic.
    """
    if state[0] == "direct":
        _, updater, grid, fault_injection = state
    else:
        _, scan, system, prior, sv_side, overlap, positivity, fault_injection = state
        neighborhood = shared_neighborhood(system.geometry.n_pixels)
        updater = SliceUpdater(system, scan, prior, neighborhood, positivity=positivity)
        grid = SuperVoxelGrid(system, sv_side, overlap=overlap)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        updater=updater, grid=grid, fault_injection=fault_injection, segments={}
    )


def _maybe_inject_fault(sv_index: int) -> None:
    """Test-only fault hook: crash or stall the worker on selected SVs.

    Checked for each task of a shard before the shard runs.
    """
    injection = _WORKER_STATE.get("fault_injection")
    if not injection:
        return
    mode, svs, seconds = injection
    if sv_index in svs:
        if mode == "crash":
            import os

            os._exit(1)
        elif mode == "stall":
            time.sleep(seconds)


def _worker_view(name: str, n_floats: int) -> np.ndarray:
    """Float64 view of a segment, attaching (once, cached) by name.

    Segment names are never reused by the parent, so a cached attachment
    can never go stale; superseded result arenas stay mapped until the
    worker exits (a bounded handful of generations — the arena only grows).
    """
    segments = _WORKER_STATE.setdefault("segments", {})
    shm = segments.get(name)
    if shm is None:
        shm = _attach_untracked(name)
        segments[name] = shm
    return np.frombuffer(shm.buf, dtype=np.float64, count=n_floats)


def _worker_run_shard(tasks, spans, snap: _SnapshotHandle, res: _ResultHandle):
    """Process one shard of a wave inside a worker process.

    Reads the x/e snapshot from the persistent snapshot arena, runs the
    shard through the same :func:`_run_task_list` loop the parent uses,
    and writes each SV's new voxel values and SVB delta into its
    preassigned ``(vox_off, delta_off)`` span of the result arena.
    Returns only per-SV ``(sv_index, updates, skipped, total_abs_delta)``
    tuples — the arrays travel through shared memory, not pickle.
    """
    buf = _worker_view(snap.shm_name, snap.n_x + snap.n_e)
    out = _worker_view(res.shm_name, res.n_floats)
    for task in tasks:
        _maybe_inject_fault(task.sv_index)
    results = _run_task_list(
        tasks,
        _WORKER_STATE["updater"],
        _WORKER_STATE["grid"],
        buf[: snap.n_x],
        buf[snap.n_x :],
    )
    stats_out = []
    for result, (vox_off, delta_off) in zip(results, spans):
        out[vox_off : vox_off + result.voxel_values.size] = result.voxel_values
        out[delta_off : delta_off + result.svb_delta.size] = result.svb_delta
        s = result.stats
        stats_out.append((result.sv_index, s.updates, s.skipped, s.total_abs_delta))
    return stats_out


class ProcessBackend:
    """Snapshot-isolation wave execution on a process pool.

    Workers adopt the parent's slice state for free under fork (or rebuild
    it once from picklable parts under spawn).  Snapshots live in a
    *persistent* shared-memory arena created at first use and reused for
    every wave — per wave the parent only memcpys ``x``/``e`` in; workers
    attach once per segment and cache the mapping.  The wave is dispatched
    as one shard per worker; workers write voxel values and SVB deltas
    into a shared result arena at parent-assigned offsets and return only
    stats, so neither snapshots nor results are ever pickled.

    Robustness: a worker crash (the pool breaks) or a wave running past
    ``wave_timeout`` seconds degrades to inline recomputation of the
    affected shards in the parent — bit-identical to a clean run — and the
    broken pool is replaced before the next wave; its workers are killed
    and the result arena retired, so a stalled-but-alive straggler can
    never write stale results into a later wave.  :meth:`close` is
    idempotent, unlinks every shared segment the backend ever created
    (with a ``weakref.finalize`` backstop for unclosed backends), and the
    class is a context manager, so a dying pool cannot wedge a
    reconstruction or leak ``/dev/shm`` entries.

    Parameters
    ----------
    scan, system, prior:
        The slice state workers rebuild under spawn (must be picklable).
    sv_side, overlap, positivity:
        Grid/updater parameters; must match the driver's grid.
    n_workers:
        Pool size.
    wave_timeout:
        Optional per-wave wall-clock budget in seconds.
    updater, grid:
        Optional prebuilt local mirror (used for merging and inline
        fallback); built from the other arguments when omitted.
    fault_injection:
        Optional ``(mode, sv_indices, stall_seconds)`` worker-fault spec
        (see :meth:`repro.resilience.FaultInjector.worker_fault`); affected
        SVs kill (crash) or sleep (stall) their worker process.
    """

    name = "process"

    def __init__(
        self,
        scan: ScanData,
        system: SystemMatrix,
        prior: Prior,
        *,
        sv_side: int,
        overlap: int = 1,
        positivity: bool = True,
        n_workers: int = 2,
        wave_timeout: float | None = None,
        updater: SliceUpdater | None = None,
        grid: SuperVoxelGrid | None = None,
        fault_injection: tuple | None = None,
    ) -> None:
        check_positive("n_workers", n_workers)
        if wave_timeout is not None:
            check_positive("wave_timeout", wave_timeout)
        if updater is None:
            neighborhood = shared_neighborhood(system.geometry.n_pixels)
            updater = SliceUpdater(system, scan, prior, neighborhood, positivity=positivity)
        # Local mirror for merging and inline fallback (the grid is
        # deterministic, so the workers' build matches it exactly).
        self.updater = updater
        self.grid = grid if grid is not None else SuperVoxelGrid(system, sv_side, overlap=overlap)
        self.n_workers = int(n_workers)
        self.wave_timeout = wave_timeout
        #: tasks recomputed inline after worker crashes / wave timeouts.
        self.inline_fallbacks = 0
        #: pools discarded after a crash or timeout.
        self.pools_rebuilt = 0
        #: pickled bytes per task of the last wave (tasks + arena handles,
        #: amortised over the shard — never the arrays).
        self.last_task_payload_bytes = 0
        self._closed = False
        if get_start_method() == "fork":
            # Fork inherits the parent's objects copy-on-write: zero-copy
            # worker init even with a multi-hundred-MB system matrix.
            self._initargs = (("direct", self.updater, self.grid, fault_injection),)
        else:
            self._initargs = (
                ("rebuild", scan, system, prior, sv_side, overlap, positivity, fault_injection),
            )
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: already-unlinked mappings whose close() is deferred until the
        #: views pinning them die (see _drop_segment).
        self._retired: dict[str, shared_memory.SharedMemory] = {}
        self._arena: _SnapshotArena | None = None
        self._result_shm: shared_memory.SharedMemory | None = None
        self._result_view: np.ndarray | None = None
        self._result_capacity = 0
        # GC backstop: an un-closed backend still unlinks its segments.
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)
        self._retired_finalizer = weakref.finalize(self, _release_segments, self._retired)
        self._make_pool()

    # -- pool / arena plumbing ------------------------------------------
    def _make_pool(self) -> None:
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_worker_init,
            initargs=self._initargs,
        )

    def _discard_pool(self) -> None:
        """Drop a broken/stuck pool; its workers must not outlive it.

        ``shutdown(wait=False)`` does not stop a stalled-but-alive worker
        (the usual cause of a wave timeout).  Left running, it would
        eventually finish its shard and write into the persistent result
        arena — same segment name, and typically the same offsets for a
        same-shape wave — while a later wave's results are in flight,
        silently corrupting iterates.  So the discarded pool's worker
        processes are killed outright (a no-op for a crashed pool's
        already-dead workers), and the result arena is retired besides:
        SIGKILL delivery is asynchronous, and a fresh segment name
        guarantees that any straggler's late write lands in the unlinked
        old mapping, never in floats a future wave reads.  The snapshot
        arena stays — stragglers only ever *read* it, and the inline
        fallback still needs the current wave's snapshot.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            self.pools_rebuilt += 1
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                try:
                    proc.kill()
                except Exception:
                    pass
            self._retire_result_arena()

    def _retire_result_arena(self) -> None:
        """Unlink the result arena so the next wave allocates a fresh name.

        Views handed out for the current wave stay valid (a still-exported
        mapping is parked in ``_retired`` and closed at backend close).
        """
        if self._result_shm is not None:
            self._result_view = None
            self._drop_segment(self._result_shm)
            self._result_shm = None
            self._result_capacity = 0

    def _new_segment(self, n_bytes: int) -> shared_memory.SharedMemory:
        shm = shared_memory.SharedMemory(create=True, size=max(1, n_bytes))
        self._segments[shm.name] = shm
        return shm

    def _drop_segment(self, shm: shared_memory.SharedMemory) -> None:
        self._segments.pop(shm.name, None)
        try:
            shm.close()
        except BufferError:
            # Live views into the old mapping (e.g. result views pinned by
            # a failed wave's exception traceback) make close() fail;
            # unlink below still removes the /dev/shm entry now, and
            # the retired mapping is closed at backend close once the views
            # are dead — parking it also keeps SharedMemory.__del__ from
            # raising the same BufferError at an arbitrary GC point.
            self._retired[shm.name] = shm
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass

    def segment_names(self) -> tuple[str, ...]:
        """Names of the live shared-memory segments this backend owns."""
        return tuple(self._segments)

    def _snapshot_arena(self, n_x: int, n_e: int) -> _SnapshotArena:
        """The persistent snapshot arena for this volume size (reused)."""
        arena = self._arena
        if arena is not None and (arena.n_x != n_x or arena.n_e != n_e):
            arena.release()
            self._drop_segment(arena.shm)
            arena = None
        if arena is None:
            shm = self._new_segment((n_x + n_e) * 8)
            arena = self._arena = _SnapshotArena(n_x, n_e, shm)
        return arena

    def _ensure_result(self, n_floats: int) -> np.ndarray:
        """Grow-only result arena; a fresh name whenever it must grow."""
        if self._result_shm is None or self._result_capacity < n_floats:
            if self._result_shm is not None:
                self._result_view = None
                self._drop_segment(self._result_shm)
            self._result_capacity = max(1, n_floats)
            self._result_shm = self._new_segment(self._result_capacity * 8)
            self._result_view = np.frombuffer(
                self._result_shm.buf, dtype=np.float64, count=self._result_capacity
            )
        return self._result_view

    # ------------------------------------------------------------------
    def run_wave(
        self, tasks: "list[SVWaveTask]", x: np.ndarray, e: np.ndarray, *, metrics=None
    ) -> "list[SVUpdateStats]":
        """Process ``tasks`` in worker processes; merge; return stats."""
        self._check_open()
        rec = as_recorder(metrics)
        with rec.span("extract"):
            arena = self._snapshot_arena(x.size, e.size)
            arena.fill(x, e)
        with rec.span("update"):
            results = self._collect(self._dispatch(tasks, arena), arena, rec)
        results.sort(key=lambda r: r.sv_index)
        with rec.span("merge"):
            return _merge(results, self.grid, x, e, arena.x)

    def _dispatch(self, tasks, arena: _SnapshotArena):
        """Submit one shard per worker; plan result-arena spans up front.

        Offsets computed here are valid worker-side because parent and
        workers hold identical (deterministic) grids.
        """
        if self._pool is None:  # previous wave broke the pool
            self._make_pool()
        spans = []
        offset = 0
        for t in tasks:
            sv = self.grid.svs[t.sv_index]
            spans.append((offset, offset + sv.n_voxels))
            offset += sv.n_voxels + sv.svb_cells
        self._ensure_result(offset)
        snap_handle = _SnapshotHandle(arena.shm.name, arena.n_x, arena.n_e)
        res_handle = _ResultHandle(self._result_shm.name, self._result_capacity)
        pair_shards = _shard_tasks(list(zip(tasks, spans)), self.n_workers)
        futures = []
        for pairs in pair_shards:
            shard_tasks = [p[0] for p in pairs]
            shard_spans = [p[1] for p in pairs]
            fut = self._pool.submit(
                _worker_run_shard, shard_tasks, shard_spans, snap_handle, res_handle
            )
            futures.append((fut, shard_tasks, shard_spans))
        if futures:
            first_tasks, first_spans = futures[0][1], futures[0][2]
            payload = len(pickle.dumps((first_tasks, first_spans, snap_handle, res_handle)))
            self.last_task_payload_bytes = max(1, payload // len(first_tasks))
        deadline = (
            None if self.wave_timeout is None else time.monotonic() + self.wave_timeout
        )
        return futures, deadline

    def _collect(self, dispatched, arena: _SnapshotArena, rec) -> "list[SVWaveResult]":
        futures, deadline = dispatched
        out = self._result_view
        results: list[SVWaveResult] = []
        failed = []
        for fut, shard_tasks, shard_spans in futures:
            ok, stats = _future_result(fut, deadline)
            if not ok:
                # Worker crash (BrokenProcessPool), timeout, or a poisoned
                # shard.  The pool may be unusable either way: discard it
                # and recompute the shard inline from the same snapshot.
                failed.append(shard_tasks)
                continue
            for task, (vox_off, delta_off), (sv_index, updates, skipped, tad) in zip(
                shard_tasks, shard_spans, stats
            ):
                sv = self.grid.svs[sv_index]
                results.append(
                    SVWaveResult(
                        sv_index=sv_index,
                        voxel_indices=sv.voxels,
                        voxel_values=out[vox_off : vox_off + sv.n_voxels],
                        svb_delta=out[delta_off : delta_off + sv.svb_cells],
                        stats=SVUpdateStats(
                            sv_index=sv_index,
                            updates=updates,
                            skipped=skipped,
                            total_abs_delta=tad,
                        ),
                    )
                )
        if failed:
            self._discard_pool()
            n = sum(len(s) for s in failed)
            self.inline_fallbacks += n
            rec.count("backend.inline_fallbacks", n)
            rec.count("backend.pool_rebuilds", 1)
            for shard_tasks in failed:
                results.extend(
                    _run_task_list(shard_tasks, self.updater, self.grid, arena.x, arena.e)
                )
        return results

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessBackend is closed")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut the pool down and unlink every owned segment (idempotent)."""
        if not self._closed:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
            if self._arena is not None:
                self._arena.release()
                self._arena = None
            self._result_view = None
            self._result_shm = None
            _release_segments(self._segments)
            _release_segments(self._retired)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def make_backend(
    name: str,
    *,
    updater: SliceUpdater,
    grid: SuperVoxelGrid,
    scan: ScanData | None = None,
    system: SystemMatrix | None = None,
    prior: Prior | None = None,
    positivity: bool = True,
    n_workers: int = 4,
    wave_timeout: float | None = None,
    fault_injection: tuple | None = None,
):
    """Build an execution backend by name ("serial" / "process").

    The drivers call this with their own updater/grid so both backends merge
    through the exact same local state; ``scan``/``system``/``prior`` are
    required for "process" (workers rebuild from them under spawn).
    ``fault_injection`` (a :meth:`repro.resilience.FaultInjector.worker_fault`
    spec) is only meaningful for the process backend — the serial backend
    has no workers to fault, so passing one raises.
    """
    if name == "serial":
        if fault_injection is not None:
            raise ValueError("backend='serial' has no workers to fault-inject")
        return SerialBackend(updater, grid)
    if name == "process":
        if scan is None or system is None or prior is None:
            raise ValueError("backend='process' needs scan, system and prior")
        return ProcessBackend(
            scan,
            system,
            prior,
            sv_side=grid.sv_side,
            overlap=grid.overlap,
            positivity=positivity,
            n_workers=n_workers,
            wave_timeout=wave_timeout,
            updater=updater,
            grid=grid,
            fault_injection=fault_injection,
        )
    raise ValueError(f"unknown backend {name!r}; use one of {BACKENDS}")


def run_wave(
    backend,
    sv_indices,
    x: np.ndarray,
    e: np.ndarray,
    *,
    base_seed: int = 0,
    zero_skip: bool = True,
    stale_width: int = 1,
    kernel: str = "python",
    metrics=None,
) -> "list[SVUpdateStats]":
    """Convenience wrapper: build tasks (stable per-SV seeds) and run them."""
    tasks = make_wave_tasks(
        base_seed, sv_indices, zero_skip=zero_skip, stale_width=stale_width, kernel=kernel
    )
    return backend.run_wave(tasks, x, e, metrics=metrics)
