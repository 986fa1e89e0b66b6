"""Tests for SuperVoxels, SVBs, and checkerboard grouping."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import SliceUpdater, SuperVoxelGrid, shared_neighborhood
from repro.core.icd import default_prior
from repro.core.supervoxel import member_entries
from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
from repro.ct.geometry import ParallelBeamGeometry


@pytest.fixture(scope="module")
def grid(system32):
    return SuperVoxelGrid(system32, sv_side=8, overlap=1)


class TestGridStructure:
    def test_tile_count(self, grid, geom32):
        assert grid.shape == (4, 4)
        assert grid.n_svs == 16

    def test_all_voxels_covered(self, grid, geom32):
        covered = np.zeros(geom32.n_voxels, dtype=bool)
        for sv in grid.svs:
            covered[sv.voxels] = True
        assert covered.all()

    def test_overlap_shares_boundary_voxels(self, system32):
        with_overlap = SuperVoxelGrid(system32, sv_side=8, overlap=1)
        without = SuperVoxelGrid(system32, sv_side=8, overlap=0)
        n_with = sum(sv.n_voxels for sv in with_overlap.svs)
        n_without = sum(sv.n_voxels for sv in without.svs)
        assert n_without == system32.geometry.n_voxels  # exact partition
        assert n_with > n_without  # shared boundaries double-count

    def test_invalid_parameters(self, system32):
        with pytest.raises(ValueError):
            SuperVoxelGrid(system32, sv_side=0)
        with pytest.raises(ValueError):
            SuperVoxelGrid(system32, sv_side=4, overlap=4)
        with pytest.raises(ValueError):
            SuperVoxelGrid(system32, sv_side=4, overlap=-1)

    def test_uneven_tiling(self, system32):
        grid = SuperVoxelGrid(system32, sv_side=7, overlap=0)
        assert grid.shape == (5, 5)
        covered = np.zeros(system32.geometry.n_voxels, dtype=bool)
        for sv in grid.svs:
            covered[sv.voxels] = True
        assert covered.all()


class TestBands:
    def test_band_contains_all_member_footprints(self, grid, system32, geom32):
        """Every stored A entry of every member falls inside the SV's band."""
        n_chan = geom32.n_channels
        for sv in grid.svs[:4]:
            for j in sv.voxels[::7]:
                rows, _ = system32.column(int(j))
                views = rows // n_chan
                chans = rows % n_chan
                assert np.all(chans >= sv.band_lo[views])
                assert np.all(chans < sv.band_lo[views] + sv.width)

    def test_svb_indices_consistent(self, grid, geom32):
        """Member footprint indices address valid SVB cells mapping back to
        the right global sinogram positions."""
        sv = grid.svs[5]
        for m in range(0, sv.n_voxels, 11):
            idx = sv.member_footprint(m)
            assert np.all(idx >= 0)
            assert np.all(idx < sv.svb_cells)
            # Round-trip through the gather map.
            assert np.all(sv.gather_idx[idx] >= 0)

    def test_band_width_reasonable(self, grid):
        for sv in grid.svs:
            assert 1 <= sv.width <= grid.geometry.n_channels


class TestExtractWriteback:
    def test_extract_roundtrip(self, grid, geom32, rng):
        sino = rng.random(geom32.n_views * geom32.n_channels)
        sv = grid.svs[0]
        svb = sv.extract(sino)
        valid = sv.gather_idx >= 0
        np.testing.assert_array_equal(svb[valid], sino[sv.gather_idx[valid]])
        assert np.all(svb[~valid] == 0)

    def test_writeback_applies_delta(self, grid, geom32, rng):
        sino = rng.random(geom32.n_views * geom32.n_channels)
        sv = grid.svs[3]
        orig = sv.extract(sino)
        new = orig.copy()
        new += 0.5  # uniform delta on the whole SVB
        target = sino.copy()
        sv.accumulate_delta(new, orig, target)
        valid_idx = sv.gather_idx[sv.gather_idx >= 0]
        np.testing.assert_allclose(target[valid_idx], sino[valid_idx] + 0.5)
        untouched = np.setdiff1d(np.arange(sino.size), valid_idx)
        np.testing.assert_array_equal(target[untouched], sino[untouched])

    def test_writeback_zero_delta_is_noop(self, grid, geom32, rng):
        sino = rng.random(geom32.n_views * geom32.n_channels)
        sv = grid.svs[2]
        svb = sv.extract(sino)
        target = sino.copy()
        sv.accumulate_delta(svb, svb.copy(), target)
        np.testing.assert_array_equal(target, sino)


class TestCheckerboard:
    def test_four_groups_partition(self, grid):
        groups = grid.checkerboard_groups()
        assert len(groups) == 4
        all_ids = sorted(i for g in groups for i in g)
        assert all_ids == list(range(grid.n_svs))

    def test_same_group_svs_share_no_voxels(self, grid):
        """The correctness property §3.2 needs: concurrent SVs never share
        (boundary) voxels."""
        groups = grid.checkerboard_groups()
        for group in groups:
            seen = {}
            for sv_id in group:
                vox = set(grid.svs[sv_id].voxels.tolist())
                for other_id, other_vox in seen.items():
                    assert not (vox & other_vox), (sv_id, other_id)
                seen[sv_id] = vox

    def test_same_group_svs_not_adjacent(self, grid):
        groups = grid.checkerboard_groups()
        adjacency = set(grid.adjacent_pairs())
        adjacency |= {(b, a) for a, b in adjacency}
        for group in groups:
            for a in group:
                for b in group:
                    if a != b:
                        assert (a, b) not in adjacency

    def test_mean_svb_cells_positive(self, grid):
        assert grid.mean_svb_cells() > 0


# ----------------------------------------------------------------------
# Bit-identity of the array-op table builders against their per-voxel
# definitions.  The reference functions below are the original loops; the
# production code must reproduce every field in value *and* dtype.
# ----------------------------------------------------------------------
SV_FIELDS = (
    "voxels", "band_lo", "band_width", "width",
    "gather_idx", "svb_indices", "member_offsets",
)


def reference_build_sv(grid, bi, bj):
    """The per-voxel SuperVoxel definition (one min/max.at pair per member)."""
    n = grid.geometry.n_pixels
    s = grid.sv_side
    r0 = max(bi * s - grid.overlap, 0)
    r1 = min((bi + 1) * s + grid.overlap, n)
    c0 = max(bj * s - grid.overlap, 0)
    c1 = min((bj + 1) * s + grid.overlap, n)
    rows, cols = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
    voxels = (rows * n + cols).ravel().astype(np.int64)

    n_views = grid.geometry.n_views
    n_chan = grid.geometry.n_channels
    indptr = grid.system.matrix.indptr
    all_rows = grid.system.matrix.indices

    band_lo = np.full(n_views, n_chan, dtype=np.int64)
    band_hi = np.zeros(n_views, dtype=np.int64)
    member_rows = []
    for j in voxels:
        r = all_rows[indptr[j] : indptr[j + 1]]
        member_rows.append(r)
        v = r // n_chan
        c = r % n_chan
        np.minimum.at(band_lo, v, c)
        np.maximum.at(band_hi, v, c + 1)
    empty = band_lo > band_hi
    band_lo[empty] = 0
    band_hi[empty] = 0
    band_width = band_hi - band_lo
    width = max(int(band_width.max()) if band_width.size else 0, 1)

    chan = band_lo[:, None] + np.arange(width)[None, :]
    valid = chan < n_chan
    gather = np.where(valid, np.arange(n_views)[:, None] * n_chan + chan, -1)
    gather_idx = gather.ravel().astype(np.int64)

    offsets = np.zeros(len(member_rows) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([r.size for r in member_rows])
    svb_indices = np.empty(int(offsets[-1]), dtype=np.int64)
    for m, r in enumerate(member_rows):
        v = r // n_chan
        c = r % n_chan
        svb_indices[offsets[m] : offsets[m + 1]] = v * width + (c - band_lo[v])
    return {
        "voxels": voxels,
        "band_lo": band_lo,
        "band_width": band_width,
        "width": width,
        "gather_idx": gather_idx,
        "svb_indices": svb_indices,
        "member_offsets": offsets,
    }


def reference_pads(ctx, sv):
    """The per-member definition of ``_SVPrep.build_pads``'s wave tables."""
    lens = np.diff(sv.member_offsets)
    lmax = max(int(lens.max()) if lens.size else 1, 1)
    pads = {
        "idx_pad": np.zeros((sv.n_voxels, lmax), dtype=np.int64),
        "wa_pad": np.zeros((sv.n_voxels, lmax), dtype=np.float64),
        "a_pad": np.zeros((sv.n_voxels, lmax), dtype=np.float64),
        "filled": np.zeros((sv.n_voxels, lmax), dtype=bool),
        "nonempty": np.zeros(sv.n_voxels, dtype=bool),
        "nb_gather": np.zeros((sv.n_voxels, 9), dtype=np.int64),
        "nb_w": np.zeros((sv.n_voxels, 8), dtype=np.float64),
        "theta2": np.zeros(sv.n_voxels, dtype=np.float64),
    }
    fast = ctx.fast
    for m in range(sv.n_voxels):
        j = int(sv.voxels[m])
        pads["nb_gather"][m] = [j, *ctx.nb_idx_lists[j]]
        pads["nb_w"][m] = ctx.nb_w_lists[j]
        pads["theta2"][m] = ctx.theta2_list[j]
        fp = sv.svb_indices[sv.member_offsets[m] : sv.member_offsets[m + 1]]
        pads["idx_pad"][m, : fp.size] = fp
        pads["wa_pad"][m, : fp.size] = fast.wa_views[int(sv.voxels[m])]
        pads["a_pad"][m, : fp.size] = fast.a_views[int(sv.voxels[m])]
        pads["filled"][m, : fp.size] = True
        pads["nonempty"][m] = fp.size > 0
    return pads


def assert_same_array(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert np.array_equal(got, want), what


def assert_grid_matches_reference(grid):
    n_tiles = grid.shape[1]
    for sv in grid.svs:
        bi, bj = divmod(sv.index, n_tiles)
        assert sv.grid_pos == (bi, bj)
        ref = reference_build_sv(grid, bi, bj)
        for name in SV_FIELDS:
            got = getattr(sv, name)
            if name == "width":
                assert type(got) is int and got == ref[name], (sv.index, name)
            else:
                assert_same_array(got, ref[name], (sv.index, name))


@pytest.fixture(scope="module")
def system64():
    return build_system_matrix(scaled_geometry(64))


@pytest.fixture(scope="module")
def clipped_system():
    """A detector covering only the slice's centre: outer SVs miss whole views."""
    geom = ParallelBeamGeometry(n_pixels=16, n_views=12, n_channels=8, channel_spacing=0.5)
    return build_system_matrix(geom)


class TestArrayBuildersMatchPerVoxelDefinition:
    @pytest.mark.parametrize("overlap", [0, 1, 2])
    @pytest.mark.parametrize("sv_side", [5, 13, 33])
    @pytest.mark.parametrize("n_pixels", [16, 64])
    def test_grid_fields(self, n_pixels, sv_side, overlap, system16, system64):
        system = {16: system16, 64: system64}[n_pixels]
        assert_grid_matches_reference(SuperVoxelGrid(system, sv_side, overlap=overlap))

    @pytest.mark.parametrize("overlap", [0, 1])
    def test_clipped_detector_empty_views(self, clipped_system, overlap):
        grid = SuperVoxelGrid(clipped_system, 5, overlap=overlap)
        empty = [sv for sv in grid.svs if np.any(sv.band_width == 0)]
        assert empty, "geometry no longer clips any SV's views"
        for sv in empty:
            assert np.all(sv.band_lo[sv.band_width == 0] == 0)
        assert_grid_matches_reference(grid)

    def test_member_entries_with_empty_columns(self):
        matrix = sp.csc_matrix(np.array([[1.0, 0, 2, 0], [3, 0, 0, 4], [0, 0, 5, 6]]))
        columns = np.array([3, 1, 0, 2, 1], dtype=np.int64)
        positions, offsets = member_entries(matrix.indptr, columns)
        want = [np.arange(matrix.indptr[j], matrix.indptr[j + 1]) for j in columns]
        assert_same_array(offsets, np.cumsum([0] + [w.size for w in want]), "offsets")
        assert np.array_equal(positions, np.concatenate(want))

    @pytest.mark.parametrize(
        "n_pixels, sv_side, overlap", [(16, 5, 2), (64, 13, 1), (64, 33, 0)]
    )
    def test_pads_and_views(self, n_pixels, sv_side, overlap, system16, system64):
        system = {16: system16, 64: system64}[n_pixels]
        scan = simulate_scan(shepp_logan(n_pixels), system, dose=1e5, seed=7)
        updater = SliceUpdater(system, scan, default_prior(), shared_neighborhood(n_pixels))
        ctx = updater.context()
        grid = SuperVoxelGrid(system, sv_side, overlap=overlap)
        bounds = ctx.indptr
        for name, arr, views in [
            ("fp", ctx.indices, ctx.fp_views),
            ("wa", ctx.wa, ctx.wa_views),
            ("a", ctx.a_data, ctx.a_views),
            ("fast.fp", ctx.indices.astype(np.int64), ctx.fast.fp_views),
            ("fast.wa", ctx.wa.astype(np.float64), ctx.fast.wa_views),
            ("fast.a", ctx.a_data.astype(np.float64), ctx.fast.a_views),
        ]:
            want = np.split(arr, bounds[1:-1])
            assert len(views) == len(want), name
            for got, ref in zip(views, want):
                assert_same_array(got, ref, name)
        for sv in grid.svs:
            prep = ctx.sv_prep(sv)
            want = np.split(sv.svb_indices, sv.member_offsets[1:-1])
            assert len(prep.fp_views) == len(want)
            for got, ref in zip(prep.fp_views, want):
                assert_same_array(got, ref, ("sv fp", sv.index))
            prep.build_pads(ctx)
            for name, ref in reference_pads(ctx, sv).items():
                assert_same_array(getattr(prep, name), ref, (name, sv.index))

    def test_pads_with_empty_footprints(self):
        """Members whose column is empty get an all-padding row."""
        geom = ParallelBeamGeometry(n_pixels=16, n_views=6, n_channels=4, channel_spacing=0.5)
        system = build_system_matrix(geom)
        scan = simulate_scan(shepp_logan(16), system, dose=1e5, seed=7)
        updater = SliceUpdater(system, scan, default_prior(), shared_neighborhood(16))
        ctx = updater.context()
        n_empty = 0
        for sv in SuperVoxelGrid(system, 5).svs:
            prep = ctx.sv_prep(sv)
            prep.build_pads(ctx)
            n_empty += int((~prep.nonempty).sum())
            for name, ref in reference_pads(ctx, sv).items():
                assert_same_array(getattr(prep, name), ref, (name, sv.index))
        assert n_empty, "geometry no longer empties a footprint"
