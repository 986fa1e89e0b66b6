"""Kernel-layer tests: cross-kernel bit-equality, selection, float32 storage.

The kernel layer's contract is strong — ``vectorized`` and ``numba`` must
reproduce the ``python`` oracle's iterates *bit-for-bit* (same visit order,
same zero-skip decisions, same IEEE-754 operation sequence) — so these
tests assert exact ``np.array_equal``, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GPUICDParams,
    Neighborhood,
    QGGMRFPrior,
    QuadraticPrior,
    SliceUpdater,
    SuperVoxelGrid,
    gpu_icd_reconstruct,
    icd_reconstruct,
    psv_icd_reconstruct,
    rmse_hu,
    shared_neighborhood,
)
from repro.core.icd import default_prior
from repro.core.kernels import (
    HAVE_NUMBA,
    KERNELS,
    KernelContext,
    _solve_inline,
    _solve_wave,
    numba_supports_prior,
    resolve_kernel,
)
from repro.ct import (
    ParallelBeamGeometry,
    SystemMatrix,
    build_system_matrix,
    shepp_logan,
    simulate_scan,
)

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")

#: Kernels to test against the oracle; numba rides along when importable.
FAST_KERNELS = ["vectorized"] + (["numba"] if HAVE_NUMBA else [])


class TestResolveKernel:
    def test_auto_without_numba(self):
        prior = QGGMRFPrior(sigma=1.0)
        expected = "numba" if HAVE_NUMBA else "vectorized"
        assert resolve_kernel("auto", prior) == expected
        assert resolve_kernel(None, prior) == expected

    def test_auto_generic_prior_falls_back(self):
        class Custom(QGGMRFPrior):
            pass

        prior = Custom(sigma=1.0)
        assert not numba_supports_prior(prior)
        assert resolve_kernel("auto", prior) == "vectorized"

    def test_explicit_names_pass_through(self):
        prior = QuadraticPrior(sigma=1.0)
        assert resolve_kernel("python", prior) == "python"
        assert resolve_kernel("vectorized", prior) == "vectorized"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("cuda", QuadraticPrior(sigma=1.0))

    @pytest.mark.skipif(HAVE_NUMBA, reason="exercises the numba-absent error")
    def test_numba_missing_raises(self):
        with pytest.raises(RuntimeError, match="repro\\[fast\\]"):
            resolve_kernel("numba", QGGMRFPrior(sigma=1.0))

    @needs_numba
    def test_numba_generic_prior_rejected(self):
        class Custom(QGGMRFPrior):
            pass

        with pytest.raises(ValueError, match="vectorized"):
            resolve_kernel("numba", Custom(sigma=1.0))

    def test_kernel_names(self):
        assert KERNELS == ("python", "vectorized", "numba")


class TestSharedNeighborhood:
    def test_cached_by_size(self):
        assert shared_neighborhood(32) is shared_neighborhood(32)
        assert shared_neighborhood(32) is not shared_neighborhood(16)

    def test_matches_fresh_instance(self):
        fresh = Neighborhood(16)
        shared = shared_neighborhood(16)
        np.testing.assert_array_equal(shared.indices, fresh.indices)
        np.testing.assert_array_equal(shared.weights, fresh.weights)


# ----------------------------------------------------------------------
# Driver-level bit-equality: every kernel, every driver, both stale modes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", FAST_KERNELS)
class TestKernelEquivalence:
    def test_sequential_icd(self, scan32, system32, kernel):
        ref = icd_reconstruct(
            scan32, system32, max_equits=2, seed=0, track_cost=False, kernel="python"
        )
        res = icd_reconstruct(
            scan32, system32, max_equits=2, seed=0, track_cost=False, kernel=kernel
        )
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)
        assert [r.updates for r in res.history.records] == [
            r.updates for r in ref.history.records
        ]

    def test_sequential_icd_zero_init(self, scan32, system32, kernel):
        """Zero init exercises the zero-skip path hard (mostly-skipped sweeps)."""
        ref = icd_reconstruct(
            scan32, system32, max_equits=2, seed=3, init="zero",
            track_cost=False, kernel="python",
        )
        res = icd_reconstruct(
            scan32, system32, max_equits=2, seed=3, init="zero",
            track_cost=False, kernel=kernel,
        )
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_psv_icd(self, scan32, system32, kernel):
        kwargs = dict(max_equits=2, seed=0, track_cost=False, sv_side=8, n_cores=4)
        ref = psv_icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = psv_icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)

    def test_gpu_icd_stale_waves(self, scan32, system32, kernel):
        """stale_width > 1 runs the bulk-synchronous wave variant."""
        params = GPUICDParams(sv_side=8, threadblocks_per_sv=4, batch_size=4)
        kwargs = dict(max_equits=2, seed=0, track_cost=False, params=params)
        ref = gpu_icd_reconstruct(scan32, system32, kernel="python", **kwargs)
        res = gpu_icd_reconstruct(scan32, system32, kernel=kernel, **kwargs)
        assert np.array_equal(res.image, ref.image)
        assert np.array_equal(res.error_sinogram, ref.error_sinogram)
        assert res.trace.total_updates == ref.trace.total_updates


# ----------------------------------------------------------------------
# Whole-wave kernel oracle matrix: prior x init x positivity x wave width.
# ----------------------------------------------------------------------
class _GenericQGGMRF(QGGMRFPrior):
    """Exact-type dispatch sends a subclass down the generic scalar-ratio path."""


_SIGMA = default_prior().sigma
WAVE_PRIORS = {
    "qggmrf": QGGMRFPrior(sigma=_SIGMA),
    "quadratic": QuadraticPrior(sigma=_SIGMA),
    "generic": _GenericQGGMRF(sigma=_SIGMA),
}


def assert_gpu_icd_matches_oracle(scan, system, kernel, **kwargs):
    kwargs = dict(max_equits=2, seed=0, track_cost=False, **kwargs)
    ref = gpu_icd_reconstruct(scan, system, kernel="python", **kwargs)
    res = gpu_icd_reconstruct(scan, system, kernel=kernel, **kwargs)
    assert np.array_equal(res.image, ref.image)
    assert np.array_equal(res.error_sinogram, ref.error_sinogram)
    assert res.trace.total_updates == ref.trace.total_updates


@pytest.fixture(scope="module")
def clipped_scan():
    """A detector covering only the slice's centre: corner voxels have empty footprints."""
    geom = ParallelBeamGeometry(n_pixels=16, n_views=6, n_channels=4, channel_spacing=0.5)
    system = build_system_matrix(geom)
    assert np.any(np.diff(system.matrix.indptr) == 0), "geometry no longer empties a footprint"
    return simulate_scan(shepp_logan(16), system, dose=1e5, seed=7), system


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("width", [2, 40, 5000])
@pytest.mark.parametrize("positivity", [True, False])
@pytest.mark.parametrize("init", ["fbp", "zero"])
@pytest.mark.parametrize("prior", list(WAVE_PRIORS))
def test_wave_kernel_oracle_matrix(scan32, system32, prior, init, positivity, width, kernel):
    params = GPUICDParams(sv_side=8, threadblocks_per_sv=width, batch_size=4)
    assert_gpu_icd_matches_oracle(
        scan32, system32, kernel, params=params, prior=WAVE_PRIORS[prior],
        init=init, positivity=positivity,
    )


@pytest.mark.parametrize("kernel", FAST_KERNELS)
@pytest.mark.parametrize("init", ["fbp", "zero"])
def test_wave_kernel_oracle_empty_footprints(clipped_scan, kernel, init):
    scan, system = clipped_scan
    params = GPUICDParams(sv_side=5, threadblocks_per_sv=8, batch_size=4)
    assert_gpu_icd_matches_oracle(scan, system, kernel, params=params, init=init)


def test_wave_solve_matches_scalar_solve(scan16, system16):
    """The (k, 8) solve against the scalar one on hostile inputs: signed
    zeros, zero weights, denom <= 0 (u stays v) and negative proposals."""
    rng = np.random.default_rng(0)
    k = 64
    v = rng.normal(0.0, 0.02, k)
    v[:8] = [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5]
    xs = v[:, None] + rng.normal(0.0, 0.02, (k, 8))
    xs[:3] = -0.0
    xs[3] = -1.0  # all-zero weights: every s2 term is -0.0, the sum +0.0
    xs[4:6, :4] = v[4:6, None]
    ws = np.tile(shared_neighborhood(16).weights, (k, 1))
    ws[::3, 5:] = 0.0
    ws[:4] = 0.0
    th1 = rng.normal(0.0, 1.0, k)
    th1[:4] = [0.0, -0.0, 0.0, 0.0]
    t2 = rng.uniform(0.0, 2.0, k)
    t2[:4] = [0.0, -1.0, 0.5, 1.0]
    t2[10:14] = -1e6
    for prior in WAVE_PRIORS.values():
        for positivity in (True, False):
            updater = SliceUpdater(
                system16, scan16, prior, shared_neighborhood(16), positivity=positivity
            )
            ctx = KernelContext(updater)
            got = _solve_wave(ctx, v, -th1, t2, xs, ws)
            want = [
                _solve_inline(ctx, v[i], th1[i], t2[i], xs[i].tolist(), ws[i].tolist())
                for i in range(k)
            ]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(got[10:14], v[10:14])


def test_gpu_icd_wave_path_skips_fast_pack(scan32, system32, monkeypatch):
    """The wave path runs off per-SV tables: no whole-image _FastPack."""
    import repro.core.gpu_icd as gpu_icd_module

    built = []

    class RecordingUpdater(SliceUpdater):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(gpu_icd_module, "SliceUpdater", RecordingUpdater)
    params = GPUICDParams(sv_side=8, threadblocks_per_sv=40, batch_size=4)
    gpu_icd_reconstruct(
        scan32, system32, max_equits=1, track_cost=False, kernel="vectorized", params=params
    )
    (updater,) = built
    ctx = updater.context()
    assert ctx._fast is None
    assert ctx._views is None


# ----------------------------------------------------------------------
# Backend waves: tasks carry the kernel; results stay bit-equal.
# ----------------------------------------------------------------------
def assert_serial_wave_matches_oracle(scan32, system32, kernel, stale_width):
    from repro.core.backends import SerialBackend, run_wave

    updater = SliceUpdater(
        system32, scan32, default_prior(), shared_neighborhood(32)
    )
    grid = SuperVoxelGrid(system32, 8)
    backend = SerialBackend(updater, grid)
    x0 = np.asarray(scan32.ground_truth, dtype=np.float64).ravel().copy()
    e0 = updater.initial_error(x0)
    sv_indices = list(range(min(6, grid.n_svs)))

    states = {}
    for k in ["python", kernel]:
        x = x0.copy()
        e = e0.copy()
        stats = run_wave(
            backend, sv_indices, x, e,
            base_seed=5, zero_skip=True, stale_width=stale_width, kernel=k,
        )
        states[k] = (x, e, [(s.updates, s.skipped, s.total_abs_delta) for s in stats])
    assert np.array_equal(states[kernel][0], states["python"][0])
    assert np.array_equal(states[kernel][1], states["python"][1])
    assert states[kernel][2] == states["python"][2]


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_serial_backend_wave_equivalence(scan32, system32, kernel):
    assert_serial_wave_matches_oracle(scan32, system32, kernel, stale_width=4)


@pytest.mark.parametrize("kernel", FAST_KERNELS)
def test_serial_backend_wave_equivalence_stale40(scan32, system32, kernel):
    """The GPUICDParams default width: one wave covers most of an SV."""
    assert_serial_wave_matches_oracle(scan32, system32, kernel, stale_width=40)


# ----------------------------------------------------------------------
# Property-based equivalence on small random scans.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dose=st.sampled_from([1e4, 1e5, 1e6]),
    init=st.sampled_from(["fbp", "zero"]),
)
@settings(max_examples=6, deadline=None)
def test_kernels_identical_on_random_scans(system16, phantom16, seed, dose, init):
    """All kernels produce identical images + error sinograms after 2 equits."""
    scan = simulate_scan(phantom16, system16, dose=dose, seed=seed)
    results = {
        kernel: icd_reconstruct(
            scan, system16, max_equits=2, seed=seed, init=init,
            track_cost=False, kernel=kernel,
        )
        for kernel in ["python", *FAST_KERNELS]
    }
    ref = results["python"]
    for kernel in FAST_KERNELS:
        res = results[kernel]
        assert np.array_equal(res.image, ref.image), kernel
        assert np.array_equal(res.error_sinogram, ref.error_sinogram), kernel


# ----------------------------------------------------------------------
# float32 hot-path storage.
# ----------------------------------------------------------------------
class TestFloat32Storage:
    def test_storage_follows_matrix_dtype(self, scan32, system32):
        prior = QGGMRFPrior(sigma=1.0)
        nb = shared_neighborhood(32)
        upd32 = SliceUpdater(system32, scan32, prior, nb)
        assert system32.matrix.data.dtype == np.float32
        assert upd32.wa.dtype == np.float32
        assert upd32.a_data.dtype == np.float32
        # theta2 always accumulates (and stays) in float64.
        assert upd32.theta2.dtype == np.float64

        system64 = SystemMatrix(system32.geometry, system32.matrix.astype(np.float64))
        upd64 = SliceUpdater(system64, scan32, prior, nb)
        assert upd64.wa.dtype == np.float64
        assert upd64.a_data.dtype == np.float64

    def test_rmse_vs_golden_unchanged(self, scan32, system32, golden32):
        """float32 wa/a_data storage moves RMSE vs golden by far under 0.1 HU."""
        system64 = SystemMatrix(system32.geometry, system32.matrix.astype(np.float64))
        kwargs = dict(max_equits=4, seed=0, track_cost=False)
        res32 = icd_reconstruct(scan32, system32, **kwargs)
        res64 = icd_reconstruct(scan32, system64, **kwargs)
        r32 = rmse_hu(res32.image, golden32)
        r64 = rmse_hu(res64.image, golden32)
        assert abs(r32 - r64) < 0.1
        # And the two images themselves agree to well under 0.1 HU RMSE.
        assert rmse_hu(res32.image, res64.image) < 0.1
