"""Backend wave-throughput benchmark — the parallel-execution perf gate.

BENCH_3.json measured the pool backends at 64^2 with a single worker, so
the parallel paths never had a chance: dispatch overhead dominated and
``process`` landed at 0.585x inline.  This bench fixes the methodology:

* a realistic slice (default 256^2 — ``REPRO_BENCH_BACKEND_PIXELS``),
* a workers sweep (1 / 2 / 4) over the ``process`` pool, and
* per-config voxel-updates/sec with speedup-vs-inline.

Every pool configuration must reproduce the serial backend's image and
error sinogram **bit-for-bit** before its timing counts (the cross-backend
contract); inline is timed as the reference execution model but checked
only for shape, since its visibility semantics legitimately differ.

Emit mode: set ``REPRO_BENCH_BACKENDS_JSON=path.json`` to write the
measured numbers as the machine-readable report (the checked-in
``BENCH_6.json`` was produced this way; CI uploads its run as an
artifact).  The report records ``cpu_count`` — speedups are only
meaningful where the sweep actually had cores to use.

Perf-smoke mode: set ``REPRO_BENCH_BACKEND_ASSERT=1`` to check whether
``process`` at 2 workers keeps within a 5 % tolerance of inline (best of
``TRIALS`` interleaved trials).  A miss is *advisory*: it is reported and
emitted as a GitHub ``::warning`` annotation, but does not fail the run —
wall-clock asserts on shared CI runners are inherently flaky under
noisy-neighbor load.  Set ``REPRO_BENCH_BACKEND_ASSERT=strict`` to make a
miss raise instead (perf work on a quiet machine).  The check is skipped
(with a visible note) on single-core machines, where a worker pool cannot
beat a loop that never pays dispatch costs.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np
from conftest import report

from repro.core import SuperVoxelGrid, default_prior, initial_image
from repro.core.backends import make_backend, make_wave_tasks
from repro.core.kernels import HAVE_NUMBA
from repro.core.prior import shared_neighborhood
from repro.core.sv_engine import process_supervoxel
from repro.core.voxel_update import SliceUpdater
from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
from repro.utils import resolve_rng

#: Slice size for the backend sweep (the kernels bench stays at 64^2; the
#: backend comparison needs enough work per wave to amortise dispatch).
BACKEND_PIXELS = int(os.environ.get("REPRO_BENCH_BACKEND_PIXELS", "256"))
#: Worker counts swept for the process pool.
WORKER_SWEEP = (1, 2, 4)
#: SVs per wave (the paper's CPU core count is 16).
WAVE_WIDTH = 16
#: Waves per timed pass — bounds the pass so the sweep stays tractable.
N_WAVES = int(os.environ.get("REPRO_BENCH_BACKEND_WAVES", "8"))
#: Interleaved timing trials per config; best-of is reported.
TRIALS = int(os.environ.get("REPRO_BENCH_BACKEND_TRIALS", "3"))
#: Perf-smoke tolerance: process@2 must reach this fraction of inline.
SMOKE_TOLERANCE = 0.95


def _wave_schedule(grid, kernel):
    """The fixed wave schedule every contender executes.

    Per-wave base seeds are drawn once here; :func:`make_wave_tasks` keys
    each SV's stream off ``(base_seed, sv_index)``, so every contender
    consumes identical streams.
    """
    svs = list(range(min(grid.n_svs, N_WAVES * WAVE_WIDTH)))
    waves = [svs[s : s + WAVE_WIDTH] for s in range(0, len(svs), WAVE_WIDTH)]
    return [
        make_wave_tasks(1 + k, wave, zero_skip=True, stale_width=1, kernel=kernel)
        for k, wave in enumerate(waves)
    ]


def _time_inline(schedule, updater, grid, x0, e0, kernel):
    """The drivers' inline wave emulation over the schedule; updates/sec."""
    x = x0.copy()
    e = e0.copy()
    total = 0
    t0 = time.perf_counter()
    for tasks in schedule:
        svbs, originals = [], []
        for t in tasks:
            svb = grid.svs[t.sv_index].extract(e)
            originals.append(svb.copy())
            svbs.append(svb)
        for t, svb in zip(tasks, svbs):
            sv = grid.svs[t.sv_index]
            stats = process_supervoxel(
                sv, updater, x, svb, rng=resolve_rng(t.seed),
                zero_skip=t.zero_skip, stale_width=t.stale_width, kernel=kernel,
            )
            total += stats.updates
        for t, svb, orig in zip(tasks, svbs, originals):
            grid.svs[t.sv_index].accumulate_delta(svb, orig, e)
    dt = time.perf_counter() - t0
    return total / dt, x, e


def _time_sequential(backend, schedule, x0, e0):
    """Schedule through ``backend.run_wave``, one wave at a time."""
    x = x0.copy()
    e = e0.copy()
    total = 0
    t0 = time.perf_counter()
    for tasks in schedule:
        stats = backend.run_wave(tasks, x, e)
        total += sum(s.updates for s in stats)
    dt = time.perf_counter() - t0
    return total / dt, x, e


def _emit_json(path, best, kernel, sv_side):
    """Write the measured throughputs as the perf-trajectory JSON report."""
    inline = best["inline"]
    payload = {
        "bench": "backends",
        "pixels": BACKEND_PIXELS,
        "sv_side": sv_side,
        "wave_width": WAVE_WIDTH,
        "n_waves": N_WAVES,
        "worker_sweep": list(WORKER_SWEEP),
        "trials": TRIALS,
        "cpu_count": os.cpu_count(),
        "numba": HAVE_NUMBA,
        "kernel": kernel,
        "python": platform.python_version(),
        "updates_per_s": {k: round(v, 1) for k, v in best.items()},
        "speedup_vs_inline": {k: round(v / inline, 3) for k, v in best.items()},
    }
    if (os.cpu_count() or 1) < 2:
        payload["note"] = (
            "measured on a single-core host: pool backends cannot beat an "
            "inline loop without cores to run on; rerun on >= 2 cores for a "
            "meaningful speedup gate"
        )
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def bench_backends():
    n = BACKEND_PIXELS
    geometry = scaled_geometry(n)
    system = build_system_matrix(geometry)
    prior = default_prior()
    scan = simulate_scan(shepp_logan(n), system, seed=0)
    sv_side = max(8, n // WAVE_WIDTH)
    grid = SuperVoxelGrid(system, sv_side)
    updater = SliceUpdater(system, scan, prior, shared_neighborhood(n))
    x0 = initial_image(scan).ravel().copy()
    e0 = updater.initial_error(x0)
    kernel = "numba" if HAVE_NUMBA else "vectorized"
    schedule = _wave_schedule(grid, kernel)

    proc_kwargs = dict(updater=updater, grid=grid, scan=scan, system=system, prior=prior)
    backends = {"serial": make_backend("serial", updater=updater, grid=grid)}
    for w in WORKER_SWEEP:
        backends[f"process@{w}"] = make_backend("process", n_workers=w, **proc_kwargs)

    best = {"inline": 0.0, **{name: 0.0 for name in backends}}
    try:
        # Warmup + cross-backend bit-identity: every pool configuration
        # must match serial exactly.
        _, x_ref, e_ref = _time_sequential(backends["serial"], schedule, x0, e0)
        for name, backend in backends.items():
            _, x_b, e_b = _time_sequential(backend, schedule, x0, e0)
            assert np.array_equal(x_b, x_ref), f"{name}: image not bit-equal to serial"
            assert np.array_equal(e_b, e_ref), f"{name}: error sinogram not bit-equal"
        _, x_i, _ = _time_inline(schedule, updater, grid, x0, e0, kernel)
        assert x_i.shape == x_ref.shape

        for _ in range(TRIALS):
            ups, _, _ = _time_inline(schedule, updater, grid, x0, e0, kernel)
            best["inline"] = max(best["inline"], ups)
            for name, backend in backends.items():
                ups, _, _ = _time_sequential(backend, schedule, x0, e0)
                best[name] = max(best[name], ups)
    finally:
        for backend in backends.values():
            backend.close()

    inline = best["inline"]
    lines = [
        f"{n}x{n} slice, {len(schedule)} waves of {WAVE_WIDTH} SVs "
        f"(sv_side={sv_side}, kernel={kernel}, cpu_count={os.cpu_count()}, "
        f"best of {TRIALS} interleaved trials)"
    ]
    lines.append(f"{'config':16s} {'updates/s':>12s} {'vs inline':>10s}")
    for name in best:
        lines.append(f"{name:16s} {best[name]:12.0f} {best[name] / inline:9.2f}x")
    report("BACKENDS — wave throughput per execution backend", "\n".join(lines))

    emit_path = os.environ.get("REPRO_BENCH_BACKENDS_JSON")
    if emit_path:
        _emit_json(emit_path, best, kernel, sv_side)

    smoke = os.environ.get("REPRO_BENCH_BACKEND_ASSERT")
    if smoke:
        if (os.cpu_count() or 1) < 2:
            report(
                "BACKENDS — perf smoke",
                "single-core machine: process@2 vs inline check skipped",
            )
        else:
            ratio = best["process@2"] / inline
            verdict = (
                f"process@2 at {ratio:.2f}x inline "
                f"({best['process@2']:.0f} vs {inline:.0f} updates/s, "
                f"tolerance {SMOKE_TOLERANCE}x, best of {TRIALS} trials)"
            )
            if ratio >= SMOKE_TOLERANCE:
                report("BACKENDS — perf smoke", f"OK: {verdict}")
            elif smoke == "strict":
                # Opt-in hard gate for perf work on a quiet machine; CI
                # uses the advisory mode because shared runners make any
                # wall-clock assert flaky under noisy-neighbor load.
                raise AssertionError(f"process@2 regressed vs inline: {verdict}")
            else:
                report("BACKENDS — perf smoke", f"BELOW TOLERANCE: {verdict}")
                # GitHub annotation: visible on the workflow run without
                # failing the job on a transient runner slowdown.
                print(f"::warning title=backend perf smoke::{verdict}")
    return best


def test_backends(benchmark):
    benchmark.pedantic(bench_backends, rounds=1, iterations=1)
