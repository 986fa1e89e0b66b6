"""Tests for the real-parallel execution backends."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import HAVE_NUMBA, Neighborhood, SliceUpdater, SuperVoxelGrid
from repro.core.backends import (
    ProcessBackend,
    SerialBackend,
    SVWaveTask,
    make_backend,
    make_wave_tasks,
    run_wave,
    wave_task_seed,
)
from repro.core.icd import default_prior, initial_image
from repro.observability import MetricsRecorder

KERNEL_MATRIX = [
    "python",
    "vectorized",
    pytest.param("numba", marks=pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")),
]


@pytest.fixture(scope="module")
def state(system32, scan32):
    nb = Neighborhood(system32.geometry.n_pixels)
    updater = SliceUpdater(system32, scan32, default_prior(), nb)
    grid = SuperVoxelGrid(system32, sv_side=8, overlap=1)
    return updater, grid


def fresh(scan32, updater):
    x = initial_image(scan32).ravel().copy()
    e = updater.initial_error(x)
    return x, e


class TestSerialBackend:
    def test_consistency_invariant(self, state, scan32, system32):
        """e == y - Ax holds after a wave even with overlapping SVs."""
        updater, grid = state
        backend = SerialBackend(updater, grid)
        x, e = fresh(scan32, updater)
        run_wave(backend, [0, 1, 4, 5], x, e)  # adjacent SVs share boundaries
        e_true = (scan32.sinogram - system32.forward(x)).ravel()
        np.testing.assert_allclose(e, e_true, atol=1e-8)

    def test_stats_returned(self, state, scan32):
        updater, grid = state
        backend = SerialBackend(updater, grid)
        x, e = fresh(scan32, updater)
        stats = run_wave(backend, [2, 3], x, e, zero_skip=False)
        assert len(stats) == 2
        assert all(s.updates == grid.svs[s.sv_index].n_voxels for s in stats)

    def test_progress_with_checkerboard_waves(self, state, scan32, system32, geom32):
        """Waves of non-adjacent (checkerboard) SVs decrease the MAP cost.

        Snapshot isolation means shared-boundary voxels of *adjacent* SVs
        would receive both deltas and overshoot — exactly why GPU-ICD
        checkerboards — so the progress guarantee is tested on
        checkerboard waves.
        """
        from repro.core import map_cost
        from repro.core.icd import default_prior

        updater, grid = state
        backend = SerialBackend(updater, grid)
        x, e = fresh(scan32, updater)
        n = geom32.n_pixels
        cost0 = map_cost(x.reshape(n, n), scan32, system32, default_prior(),
                         updater.neighborhood)
        for sweep in range(2):
            for group in grid.checkerboard_groups():
                run_wave(backend, group, x, e, base_seed=sweep)
        cost1 = map_cost(x.reshape(n, n), scan32, system32, default_prior(),
                         updater.neighborhood)
        assert cost1 < cost0


class TestProcessBackend:
    def test_matches_serial(self, state, scan32, system32):
        updater, grid = state
        backend = ProcessBackend(
            scan32, system32, default_prior(), sv_side=8, n_workers=2
        )
        try:
            xs, es = fresh(scan32, updater)
            serial = SerialBackend(updater, grid)
            run_wave(serial, [1, 6, 10], xs, es)
            xp, ep = fresh(scan32, updater)
            run_wave(backend, [1, 6, 10], xp, ep)
            np.testing.assert_allclose(xs, xp, atol=1e-12)
            np.testing.assert_allclose(es, ep, atol=1e-12)
        finally:
            backend.close()

    def test_invalid_workers(self, scan32, system32):
        with pytest.raises(ValueError):
            ProcessBackend(scan32, system32, default_prior(), sv_side=8, n_workers=0)


class TestCrossBackendEquivalence:
    """Serial == Process, bit-identical, for every kernel flavor."""

    WAVE = [0, 3, 5, 9, 12]

    @pytest.mark.parametrize("kernel", KERNEL_MATRIX)
    def test_matrix(self, state, scan32, system32, kernel):
        updater, grid = state
        reference = None
        for name in ("serial", "process"):
            backend = make_backend(
                name,
                updater=updater,
                grid=grid,
                scan=scan32,
                system=system32,
                prior=default_prior(),
                n_workers=2,
            )
            with backend:
                x, e = fresh(scan32, updater)
                run_wave(backend, self.WAVE, x, e, base_seed=11, kernel=kernel)
            if reference is None:
                reference = (x, e)
            else:
                np.testing.assert_array_equal(reference[0], x, err_msg=name)
                np.testing.assert_array_equal(reference[1], e, err_msg=name)

    def test_thread_stress_vectorized(self, state, scan32, system32):
        """Threads sharing one updater replay the sequential iterates exactly.

        Regression test for the shared-KernelContext race: the vectorized
        kernel's scratch buffers were shared across threads, so concurrent
        wide waves silently corrupted theta1/theta2.  Scratch is now
        per-thread and the lazy context build is locked.  Two serial
        backends share one fresh updater (context not yet built) and run
        repeated wide waves on their own ``x``/``e`` from a thread pool;
        both must end bit-identical to a sequential run.
        """
        _, grid = state
        all_svs = list(range(grid.n_svs))

        def sweeps(backend, start=None):
            x, e = fresh(scan32, backend.updater)
            if start is not None:
                start.wait()
            for sweep in range(3):
                run_wave(backend, all_svs, x, e, base_seed=sweep, kernel="vectorized")
            return x, e

        nb = Neighborhood(system32.geometry.n_pixels)
        with SerialBackend(SliceUpdater(system32, scan32, default_prior(), nb), grid) as ref:
            xs, es = sweeps(ref)
        shared = SliceUpdater(system32, scan32, default_prior(), nb)
        start = threading.Barrier(2)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(sweeps, SerialBackend(shared, grid), start) for _ in range(2)
            ]
            outputs = [f.result() for f in futures]
        for xt, et in outputs:
            np.testing.assert_array_equal(xs, xt)
            np.testing.assert_array_equal(es, et)


class TestLifecycle:
    def test_close_idempotent(self, scan32, system32):
        backend = ProcessBackend(scan32, system32, default_prior(), sv_side=8, n_workers=2)
        backend.close()
        backend.close()  # second close is a no-op, not an error
        assert backend.closed

    def test_context_manager(self, state, scan32, system32):
        updater, grid = state
        with ProcessBackend(
            scan32, system32, default_prior(), sv_side=8, n_workers=2,
            updater=updater, grid=grid,
        ) as backend:
            x, e = fresh(scan32, updater)
            run_wave(backend, [0], x, e)
        assert backend.closed

    def test_run_after_close_raises(self, state, scan32):
        updater, grid = state
        backend = SerialBackend(updater, grid)
        backend.close()
        x, e = fresh(scan32, updater)
        with pytest.raises(RuntimeError):
            run_wave(backend, [0], x, e)

    def test_process_close_idempotent(self, state, scan32, system32):
        backend = ProcessBackend(scan32, system32, default_prior(), sv_side=8, n_workers=2)
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError):
            run_wave(backend, [0], *fresh(scan32, state[0]))

    def test_invalid_backend_name(self, state):
        updater, grid = state
        with pytest.raises(ValueError):
            make_backend("gpu", updater=updater, grid=grid)

    def test_process_requires_slice_state(self, state):
        updater, grid = state
        with pytest.raises(ValueError):
            make_backend("process", updater=updater, grid=grid)


class TestMetricsInstrumentation:
    def test_wave_phases_recorded(self, state, scan32):
        """Backends fire the same extract/update/merge spans as the drivers."""
        updater, grid = state
        rec = MetricsRecorder()
        with SerialBackend(updater, grid) as backend:
            x, e = fresh(scan32, updater)
            run_wave(backend, [0, 3], x, e, metrics=rec)
        totals = rec.span_totals()
        assert {"extract", "update", "merge"} <= set(totals)
        assert totals["extract"]["count"] == 1
        assert totals["update"]["count"] == 1
        assert totals["merge"]["count"] == 1

    def test_metrics_do_not_change_iterates(self, state, scan32):
        updater, grid = state
        with SerialBackend(updater, grid) as backend:
            x0, e0 = fresh(scan32, updater)
            run_wave(backend, [1, 4], x0, e0)
            x1, e1 = fresh(scan32, updater)
            run_wave(backend, [1, 4], x1, e1, metrics=MetricsRecorder())
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(e0, e1)


class TestSharedMemoryTransport:
    def test_per_task_payload_is_small(self, state, scan32, system32):
        """Tasks ship a segment name + offsets, never the snapshots."""
        updater, grid = state
        x, e = fresh(scan32, updater)
        snapshot_bytes = x.nbytes + e.nbytes
        assert snapshot_bytes > 8_000  # the snapshots are genuinely big ...
        backend = ProcessBackend(scan32, system32, default_prior(), sv_side=8, n_workers=2)
        try:
            run_wave(backend, [0, 3, 5], x, e)
            assert 0 < backend.last_task_payload_bytes < 2_048  # ... the payload is not
        finally:
            backend.close()

    def test_process_arenas_persist_across_waves(self, state, scan32, system32):
        """Three same-shape waves reuse the same segments: no churn."""
        updater, grid = state
        backend = ProcessBackend(scan32, system32, default_prior(), sv_side=8, n_workers=2)
        with backend:
            x, e = fresh(scan32, updater)
            run_wave(backend, [0, 3], x, e, base_seed=1)
            names_first = set(backend.segment_names())
            assert names_first  # snapshot + result arenas are live
            for seed in (2, 3):
                run_wave(backend, [0, 3], x, e, base_seed=seed)
            assert set(backend.segment_names()) == names_first


class TestFaultTolerance:
    def test_worker_crash_falls_back_inline(self, state, scan32, system32):
        """A crashing worker degrades to inline recomputation, bit-identical."""
        updater, grid = state
        xs, es = fresh(scan32, updater)
        with SerialBackend(updater, grid) as serial:
            run_wave(serial, [1, 6, 10], xs, es, base_seed=4)

        backend = ProcessBackend(
            scan32,
            system32,
            default_prior(),
            sv_side=8,
            n_workers=2,
            fault_injection=("crash", (6,), 0.0),
        )
        try:
            xp, ep = fresh(scan32, updater)
            run_wave(backend, [1, 6, 10], xp, ep, base_seed=4)
            np.testing.assert_array_equal(xs, xp)
            np.testing.assert_array_equal(es, ep)
            assert backend.inline_fallbacks >= 1
            assert backend.pools_rebuilt >= 1
        finally:
            backend.close()

    def test_wave_timeout_falls_back_inline(self, state, scan32, system32):
        """A stalled worker trips the wave timeout; iterates are unchanged."""
        updater, grid = state
        xs, es = fresh(scan32, updater)
        with SerialBackend(updater, grid) as serial:
            run_wave(serial, [2, 7], xs, es, base_seed=9)

        backend = ProcessBackend(
            scan32,
            system32,
            default_prior(),
            sv_side=8,
            n_workers=2,
            wave_timeout=0.5,
            fault_injection=("stall", (7,), 5.0),
        )
        try:
            xp, ep = fresh(scan32, updater)
            run_wave(backend, [2, 7], xp, ep, base_seed=9)
            np.testing.assert_array_equal(xs, xp)
            np.testing.assert_array_equal(es, ep)
            assert backend.inline_fallbacks >= 1
        finally:
            backend.close()

    def test_stalled_worker_cannot_corrupt_later_waves(self, state, scan32, system32):
        """A timed-out wave kills its workers and retires the result arena.

        ``shutdown(wait=False)`` alone leaves a stalled-but-alive worker
        running; it would wake mid-way through a later wave and write its
        stale shard into the reused result arena at the very offsets the
        new wave occupies.  After the timeout the old result arena must be
        gone from the segment registry (fresh name on the next dispatch),
        and every wave after the stall must stay bit-identical to serial.
        """
        updater, grid = state
        waves = [[1, 6], [2, 7], [0, 3], [5, 9]]  # only wave 1 holds SV 7
        xs, es = fresh(scan32, updater)
        with SerialBackend(updater, grid) as serial:
            for seed, wave in enumerate(waves, start=9):
                run_wave(serial, wave, xs, es, base_seed=seed)

        backend = ProcessBackend(
            scan32,
            system32,
            default_prior(),
            sv_side=8,
            n_workers=2,
            wave_timeout=0.5,
            fault_injection=("stall", (7,), 5.0),
        )
        try:
            xp, ep = fresh(scan32, updater)
            run_wave(backend, waves[0], xp, ep, base_seed=9)  # clean: arenas live
            names_before = set(backend.segment_names())
            run_wave(backend, waves[1], xp, ep, base_seed=10)  # stalls, times out
            assert backend.inline_fallbacks >= 1
            retired = names_before - set(backend.segment_names())
            assert len(retired) == 1  # the result arena, not the snapshot arena
            for seed, wave in enumerate(waves[2:], start=11):
                run_wave(backend, wave, xp, ep, base_seed=seed)
            np.testing.assert_array_equal(xs, xp)
            np.testing.assert_array_equal(es, ep)
        finally:
            backend.close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs POSIX shm mount")
class TestShmBookkeeping:
    def test_no_leaked_segments_after_worker_crash(self, state, scan32, system32):
        """A crashed worker must not strand /dev/shm segments after close.

        The crash aborts the wave mid-flight (pool breaks, inline fallback
        recomputes), which is exactly when segment lifetimes are easiest to
        get wrong — the explicit unlink bookkeeping must still clear every
        registered segment.
        """
        updater, grid = state
        backend = ProcessBackend(
            scan32, system32, default_prior(), sv_side=8, n_workers=2,
            fault_injection=("crash", (6,), 0.0),
        )
        x, e = fresh(scan32, updater)
        run_wave(backend, [1, 6, 10], x, e, base_seed=4)
        assert backend.inline_fallbacks >= 1  # the crash actually happened
        names = backend.segment_names()
        assert names
        assert all(os.path.exists(f"/dev/shm/{n}") for n in names)
        backend.close()
        assert backend.segment_names() == ()
        leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_segments_released_on_clean_close(self, state, scan32, system32):
        updater, grid = state
        backend = ProcessBackend(scan32, system32, default_prior(), sv_side=8, n_workers=2)
        x, e = fresh(scan32, updater)
        run_wave(backend, [0, 3], x, e)
        names = backend.segment_names()
        backend.close()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)


class TestDriverIntegration:
    """The backend path of the PSV/GPU drivers: both backends bit-identical."""

    def test_psv_backends_bit_identical(self, scan32, system32):
        from repro.core import psv_icd_reconstruct

        kw = dict(
            sv_side=8, n_cores=4, max_equits=1.0, track_cost=False, seed=3,
            kernel="vectorized",
        )
        images = {}
        for backend in ("serial", "process"):
            res = psv_icd_reconstruct(scan32, system32, backend=backend, n_workers=2, **kw)
            images[backend] = res.image
        np.testing.assert_array_equal(images["serial"], images["process"])

    def test_gpu_backends_bit_identical(self, scan32, system32):
        from repro.core import GPUICDParams, gpu_icd_reconstruct

        kw = dict(
            params=GPUICDParams(sv_side=16, batch_size=2),
            max_equits=1.0, track_cost=False, seed=3, kernel="vectorized",
        )
        ser = gpu_icd_reconstruct(scan32, system32, backend="serial", **kw)
        prc = gpu_icd_reconstruct(scan32, system32, backend="process", n_workers=2, **kw)
        np.testing.assert_array_equal(ser.image, prc.image)

    def test_unknown_backend_rejected(self, scan32, system32):
        from repro.core import psv_icd_reconstruct

        with pytest.raises(ValueError):
            psv_icd_reconstruct(scan32, system32, backend="cuda")

    def test_thread_backend_rejected(self, scan32, system32):
        """There is no thread backend; the error lists the valid names."""
        from repro.core import GPUICDParams, gpu_icd_reconstruct, psv_icd_reconstruct

        with pytest.raises(ValueError, match="'inline', 'serial', 'process'"):
            psv_icd_reconstruct(scan32, system32, backend="thread")
        with pytest.raises(ValueError, match="'inline', 'serial', 'process'"):
            gpu_icd_reconstruct(
                scan32, system32, params=GPUICDParams(sv_side=16), backend="thread"
            )

    def test_backend_spans_fire_in_driver(self, scan32, system32):
        from repro.core import psv_icd_reconstruct

        rec = MetricsRecorder()
        psv_icd_reconstruct(
            scan32, system32, sv_side=8, max_equits=0.5, track_cost=False,
            backend="serial", metrics=rec,
        )
        totals = rec.span_totals()
        assert {"iteration", "wave", "extract", "update", "merge"} <= set(totals)


class TestTaskSeeding:
    def test_per_sv_seeds_stable(self, state, scan32):
        """The same wave replays identically (seeds derive from SV ids)."""
        updater, grid = state
        backend = SerialBackend(updater, grid)
        imgs = []
        for _ in range(2):
            x, e = fresh(scan32, updater)
            run_wave(backend, [2, 7], x, e, base_seed=5)
            imgs.append(x)
        np.testing.assert_array_equal(imgs[0], imgs[1])

    def test_task_dataclass(self):
        t = SVWaveTask(sv_index=3, seed=1)
        assert t.zero_skip is True
        assert t.stale_width == 1

    def test_seed_scheme_collision_free(self):
        """Regression: the old affine scheme collided across (seed, sv) pairs.

        ``base_seed * 1_000_003 + sv_index`` gave (0, 1_000_003) and (1, 0)
        the same integer seed, i.e. identical visit orders.  The
        SeedSequence spawn-key derivation keeps the streams distinct.
        """
        a = np.random.default_rng(wave_task_seed(0, 1_000_003))
        b = np.random.default_rng(wave_task_seed(1, 0))
        assert not np.array_equal(
            a.integers(0, 2**63, size=16), b.integers(0, 2**63, size=16)
        )

    def test_seed_stable_across_wave_composition(self):
        """An SV's stream depends on (base_seed, sv), not on wave position."""
        first = np.random.default_rng(wave_task_seed(7, 42)).integers(0, 2**63, 4)
        again = np.random.default_rng(wave_task_seed(7, 42)).integers(0, 2**63, 4)
        np.testing.assert_array_equal(first, again)

    def test_make_wave_tasks_single_source_of_truth(self):
        """The shared task builder derives every seed via wave_task_seed."""
        tasks = make_wave_tasks(9, [3, 1, 8], stale_width=5, kernel="vectorized")
        assert [t.sv_index for t in tasks] == [3, 1, 8]
        assert all(t.stale_width == 5 and t.kernel == "vectorized" for t in tasks)
        for t in tasks:
            expected = np.random.default_rng(wave_task_seed(9, t.sv_index))
            got = np.random.default_rng(t.seed)
            np.testing.assert_array_equal(
                got.integers(0, 2**63, 4), expected.integers(0, 2**63, 4)
            )
