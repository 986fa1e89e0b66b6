"""Service-worker benchmark — the job-TTL soak.

A ``job_ttl_s``-bounded HTTP gateway under sustained closed-loop load,
with a sampler thread watching ``len(service.jobs)``: the registry must
stay bounded (peak below 2x client concurrency) instead of growing by one
entry per submission, with zero server-side 5xx and the evictions visible
in the counters.  The bound always asserts — it measures leak behaviour,
not wall-clock speed.

(The thread-vs-process scaling phase that recorded BENCH_8's 2.03x went
with the thread worker model: every job now runs in a worker subprocess.)

Emit mode: ``REPRO_BENCH_JSON=path.json`` writes the machine-readable
report (CI uploads it as the ``BENCH_8.json`` artifact).  CI-size knob:
``REPRO_SOAK_JOBS``.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time

from conftest import report

from repro.ct import build_system_matrix, scaled_geometry, shepp_logan, simulate_scan
from repro.io import save_scan
from repro.service import HttpGateway, ReconstructionService
from repro.service.loadgen import default_spec_factory, run_load
from repro.service.runner import clear_system_cache

#: Worker pool size of the soaked service.
N_WORKERS = 2

#: Soak sizing: closed-loop clients and total jobs at 32^2.  Per-job work
#: (SOAK_EQUITS) is deliberately heavy relative to SOAK_TTL_S: the
#: terminal tail lingering inside one TTL window must stay well under the
#: in-flight population, so a peak past 2x concurrency means a leak, not
#: fast jobs outpacing the reaper.
SOAK_PIXELS = 32
SOAK_JOBS = int(os.environ.get("REPRO_SOAK_JOBS", "24"))
SOAK_CONCURRENCY = 4
SOAK_EQUITS = 3.0
SOAK_TTL_S = 0.15


def _soak_phase(tmp_path) -> dict:
    system = build_system_matrix(scaled_geometry(SOAK_PIXELS))
    scan = simulate_scan(shepp_logan(SOAK_PIXELS), system, seed=0)
    save_scan(tmp_path / "soak-scan.npz", scan)
    clear_system_cache()

    service = ReconstructionService(
        n_workers=N_WORKERS, job_ttl_s=SOAK_TTL_S, start=True
    )
    samples: list[int] = []
    stop = threading.Event()

    def sample_registry():
        while not stop.wait(0.02):
            samples.append(len(service.jobs))

    sampler = threading.Thread(target=sample_registry, daemon=True)
    with HttpGateway(service, scan_root=tmp_path, own_service=True) as gw:
        sampler.start()
        load = run_load(
            gw.url,
            mode="closed",
            n_jobs=SOAK_JOBS,
            concurrency=SOAK_CONCURRENCY,
            spec_factory=default_spec_factory(
                driver="icd",
                scan="soak-scan.npz",
                params={"max_equits": SOAK_EQUITS, "track_cost": False},
                priorities=(0,),
                distinct_seeds=SOAK_JOBS,  # every job is fresh compute
            ),
            fetch_results=False,
        )
        # Let the reaper clear the tail before reading the counters.
        deadline = time.monotonic() + 10
        while len(service.jobs) > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        stop.set()
        sampler.join()
        counters = service.report()["counters"]
    return {
        "load": load.to_dict(),
        "job_ttl_s": SOAK_TTL_S,
        "concurrency": SOAK_CONCURRENCY,
        "registry_peak": max(samples) if samples else 0,
        "registry_final": len(samples) and samples[-1],
        "jobs_evicted": counters.get("service.jobs_evicted", 0),
        "tombstones": counters.get("service.tombstones", 0),
    }


def bench_service_workers(tmp_path):
    soak = _soak_phase(tmp_path)
    report(
        f"SERVICE WORKERS — TTL soak at {SOAK_PIXELS}^2",
        f"soak: {soak['load']['completed']}/{SOAK_JOBS} jobs, "
        f"registry peak {soak['registry_peak']} "
        f"(bound {2 * SOAK_CONCURRENCY}), "
        f"{soak['jobs_evicted']:.0f} evictions, "
        f"{soak['load']['server_errors_5xx']} 5xx",
    )

    emit_path = os.environ.get("REPRO_BENCH_JSON")
    if emit_path:
        doc = {
            "bench": "service_workers",
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
            "n_workers": N_WORKERS,
            "soak": soak,
        }
        with open(emit_path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")

    # -- guards ----------------------------------------------------------
    assert soak["load"]["server_errors_5xx"] == 0, soak["load"]
    assert soak["load"]["completed"] == SOAK_JOBS, soak["load"]
    assert soak["jobs_evicted"] >= SOAK_JOBS - 1, soak
    assert soak["registry_peak"] < 2 * SOAK_CONCURRENCY, (
        f"registry grew past the TTL bound: peak {soak['registry_peak']} "
        f">= {2 * SOAK_CONCURRENCY} under {SOAK_CONCURRENCY}-way load"
    )
    return {"soak": soak}


def test_service_workers(benchmark, tmp_path):
    benchmark.pedantic(bench_service_workers, args=(tmp_path,), rounds=1, iterations=1)
