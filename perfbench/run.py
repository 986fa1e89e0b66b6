"""The repository's benchmark: live-gateway job latency, layer by layer.

One workload per call::

    python3 perfbench/run.py --workload icd-cold-128 --seed 1 --seconds 15 --trace 0

starts ``python -m repro serve-http --worker-model process --workers 2``,
drives it over HTTP with closed-loop clients for ``--seconds``, checks
every returned image against its scan's golden, prints every metric by
name with its unit, and ends with one JSON line.  ``--trace 0`` reports
the end-to-end metrics of ``spec.END_TO_END``; ``--trace 1`` runs the
same job sequence with every other pair of jobs traced, replays their
specs in-process (see ``layers.py``) and reports ``spec.PER_LAYER`` plus
an attribution-closure check.

``--workload all`` runs every workload as an independent cell: each
cell's result or traceback is reported and one failure does not stop the
others.  ``--tiny`` shrinks every workload to 32^2 and 2 jobs (used by
``test_perfbench.py``).  ``--write-definitions`` regenerates
``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spec
from spec import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: ``--tiny``: image side and jobs per workload.
TINY_PIXELS = 32
TINY_JOBS = 2

#: The warm-up job of a set-up: one voxel of one ICD sweep, enough for the
#: gateway parent to build (and cache) the workload's system matrix.
WARMUP_PARAMS = {"max_iterations": 1, "init": "zero", "voxel_subset": [0], "track_cost": False}


def fingerprint(workload, pixels: int, seed: int, seconds: float) -> dict:
    import importlib.util

    import numpy as np
    from repro.core.icd import default_prior
    from repro.core.kernels import resolve_kernel

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": resolve_kernel("auto", default_prior()),
        "worker_model": spec.WORKER_MODEL,
        "workers": spec.GATEWAY_WORKERS,
        "clients": workload.clients,
        "driver": workload.driver,
        "pixels": pixels,
        "max_equits": workload.max_equits,
        "golden_equits": spec.GOLDEN_EQUITS,
        "scans": workload.n_scans,
        "seed": seed,
        "seconds": seconds,
    }


def set_up(inputs, workdir: Path):
    """Spawn a gateway, wait for ``/healthz``, run the warm-up job."""
    from drive import Plan, run_job
    from gateway import Gateway

    gateway = Gateway(ROOT, inputs.scan_root, workdir)
    http = gateway.client()
    try:
        health = http.request("GET", "/healthz")
        if health.status != 200:
            raise RuntimeError(f"/healthz answered {health.status}")
        warm = run_job(http, "icd", Plan(-1, 0, WARMUP_PARAMS), traced=False)
        if warm.violations:
            raise RuntimeError(f"warm-up job failed: {warm.violations}")
    except BaseException:
        gateway.stop()
        raise
    finally:
        http.close()
    return gateway


def run_cell(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One workload run; returns its report (raises on a harness failure)."""
    import drive

    workload = WORKLOADS[name]
    pixels = TINY_PIXELS if tiny else workload.pixels
    n_scans = min(workload.n_scans, 2) if tiny else workload.n_scans
    max_jobs = TINY_JOBS if tiny else None
    report = {
        "workload": name,
        "trace": trace,
        "fingerprint": fingerprint(workload, pixels, seed, seconds),
    }
    rundir = ROOT / ".perfbench_run" / f"{name}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    gateway = None
    try:
        t = time.perf_counter()
        inputs = drive.prepare(workload, pixels, n_scans, seed, ROOT, rundir)
        report["bench_prep_s"] = time.perf_counter() - t
        report["goldens_cached"] = inputs.goldens_cached
        setups = []
        for k in range(1 if trace else spec.SETUP_REPEATS):
            if gateway is not None:
                gateway.stop()
            t = time.perf_counter()
            gateway = set_up(inputs, rundir / f"gateway-{k}")
            setups.append(time.perf_counter() - t)
        source = drive.plans(workload, n_scans, seed)
        http = gateway.client()
        before = gateway.counters(http)
        cpu_before = gateway.cpu_seconds()
        records, start, server_errors = drive.drive(
            gateway, workload, source, seconds=seconds, max_jobs=max_jobs,
            traced=(lambda plan: plan.index // 2 % 2 == 0) if trace else (lambda plan: False),
        )
        cpu_s = gateway.cpu_seconds() - cpu_before
        after = gateway.counters(http)
        server_errors += http.server_errors
        http.close()
        rss = gateway.peak_rss_mb()
        gateway.stop()
        gateway = None

        drive.check(records, inputs.goldens, pixels)
        metrics = drive.latency_summary(records, start)
        done = sum(1 for r in records if r.latency_s is not None)
        metrics["job_cpu_s"] = (cpu_s / max(1, done), done)
        metrics["setup_s"] = (statistics.median(setups), len(setups))
        metrics["server_peak_rss_mb"] = (rss, 1)
        report["counter_deltas"] = {
            k: after[k] - before.get(k, 0) for k in sorted(after) if after[k] != before.get(k, 0)
        }
        report["violations"] = [
            f"job {r.plan.index}: {v}" for r in records for v in r.violations
        ]
        if server_errors:
            report["violations"].append(f"{server_errors} responses answered 5xx")
        report["latencies"] = [(r.latency_s, r.traced) for r in records if r.latency_s is not None]
        report["attempted"] = len(records)
        report["failed"] = sum(1 for r in records if r.violations)
        if trace:
            metrics.update(traced_metrics(workload, inputs, records, server_errors,
                                          seconds / 2, rundir, report))
            # Layers a workload bypasses (and hit/miss splits without hits) read 0.
            for m in spec.PER_LAYER:
                metrics.setdefault(m.name, (0.0, 0))
        report["metrics"] = metrics
    finally:
        if gateway is not None:
            gateway.stop()
        shutil.rmtree(rundir, ignore_errors=True)
    return report


def traced_metrics(workload, inputs, records, server_errors, budget_s, rundir, report) -> dict:
    """Replay the traced jobs' specs and attribute every traced job."""
    import layers
    from repro.service.jobs import JobSpec

    med = layers.median
    out: dict = {}
    traced = [r for r in records if r.traced and r.status is not None]
    untraced = [r.latency_s for r in records if not r.traced and r.latency_s is not None]
    if traced and untraced:
        out["trace.overhead_s"] = (
            med(r.latency_s for r in traced) - med(untraced), len(traced) + len(untraced))
    else:
        out["trace.overhead_s"] = (0.0, 0)

    out["system_matrix.build_s"] = (inputs.system_build_s, 1)
    out["system_matrix.nnz"] = (inputs.system_nnz, 1)

    # Distinct specs of traced misses, replayed until the budget is spent.
    tracer = layers.LayerTracer()
    replays: dict[str, layers.Replay] = {}
    key_s = []
    deadline = time.perf_counter() + budget_s
    with tracer.installed():
        for k, rec in enumerate(r for r in traced if r.plan.hit_of is None):
            body = rec.plan.body(workload.driver).decode()
            if body in replays:
                continue
            if replays and time.perf_counter() > deadline:
                break
            job = JobSpec(driver=workload.driver, scan=inputs.scans[rec.plan.scan],
                          params=dict(rec.plan.params))
            key_s.append(layers.time_cache_key(job))
            replays[body] = layers.replay(job, rundir / f"replay-{k}", tracer)

    attributed, classes = [], []
    for rec in traced:
        if rec.plan.hit_of is not None:
            attributed.append(layers.attribute(rec, None))
            classes.append("hits")
        elif (rep := replays.get(rec.plan.body(workload.driver).decode())) is not None:
            attributed.append(layers.attribute(rec, rep))
            classes.append("misses")
    reps = list(replays.values())
    miss_runs = [r.status["finished_at"] - r.status["started_at"]
                 for r in traced if r.status["started_at"] is not None]
    done = [r for r in records if r.image is not None]
    hits = [r for r in done if r.plan.hit_of is not None]

    out["http.post_s"] = (med(r.post_s for r in traced), len(traced))
    out["http.result_fetch_s"] = (med(r.fetch_s for r in traced), len(traced))
    out["http.5xx"] = (server_errors, len(records))
    out["cache.key_s"] = (med(key_s), len(key_s))
    out["cache.hit_ratio"] = (len(hits) / len(done) if done else 0.0, len(done))
    out["queue.wait_s"] = (med(a.leaves["queue.wait_s"] for a in attributed), len(attributed))
    out["scheduler.run_s"] = (med(miss_runs), len(miss_runs))
    overheads = [a.leaves["worker.overhead_s"] for a in attributed if "worker.overhead_s" in a.leaves]
    out["worker.overhead_s"] = (med(overheads), len(overheads))
    leaf_names = set(layers.SPAN_LAYER.values())
    for name in spec.UNITS:
        if any(name in r.counts for r in reps):
            out[name] = (med(r.counts.get(name, 0) for r in reps), len(reps))
        elif name in leaf_names:
            out[name] = (med(r.layers.get(name, 0.0) for r in reps), len(reps))

    residual_frac = [a.residual_s / a.latency_s for a in attributed]
    out["closure.residual_frac"] = (med(residual_frac), len(residual_frac))
    report["closure"] = {
        "residual_frac": out["closure.residual_frac"][0],
        "margin": spec.CLOSURE_MARGIN,
        "unknown_spans": sorted({n for r in reps for n in r.unknown_spans}),
        "classes": {},
    }
    for cls in ("misses", "hits"):
        group = [a for a, c in zip(attributed, classes) if c == cls]
        if group:
            leaves = sorted({k for a in group for k in a.leaves})
            report["closure"]["classes"][cls] = {
                "jobs": len(group),
                "latency_s": med(a.latency_s for a in group),
                "attributed_s": med(sum(a.leaves.values()) for a in group),
                "residual_s": med(a.residual_s for a in group),
                "leaves_s": {k: med(a.leaves.get(k, 0.0) for a in group) for k in leaves},
            }
    if not attributed:
        report["violations"].append("traced run attributed no job")
    elif abs(out["closure.residual_frac"][0]) > spec.CLOSURE_MARGIN:
        report["violations"].append(
            f"attribution closure: residual {out['closure.residual_frac'][0]:+.1%} of "
            f"client latency exceeds the {spec.CLOSURE_MARGIN:.0%} margin")
    return out


def print_report(report: dict) -> None:
    names = [m.name for m in (spec.PER_LAYER if report["trace"] else spec.END_TO_END)]
    print(f"== {report['workload']} (trace {int(report['trace'])}) ==")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    print(f"  {'bench_prep_s':<30} {report['bench_prep_s']:>12.6g} s  "
          f"(goldens cached: {report['goldens_cached']})")
    metrics = report["metrics"]
    shown = names + sorted(set(metrics) - set(names))
    for name in shown:
        value, n = metrics[name]
        print(f"  {name:<30} {value:>12.6g} {spec.UNITS.get(name, '')}  (n={n})")
    if "closure" in report:
        c = report["closure"]
        print(f"  attribution closure: median residual {c['residual_frac']:+.1%} of client "
              f"latency (margin ±{c['margin']:.0%})")
        for cls, g in c["classes"].items():
            print(f"  {cls} ({g['jobs']} traced, medians): latency {g['latency_s']:.4f} s = "
                  f"attributed {g['attributed_s']:.4f} s + residual {g['residual_s']:+.4f} s")
            for leaf, seconds in g["leaves_s"].items():
                share = seconds / g["latency_s"] if g["latency_s"] else 0.0
                print(f"    {leaf:<30} {seconds:>10.4f} s  {share:6.1%}")
        if c["unknown_spans"]:
            print(f"    unattributed span names: {', '.join(c['unknown_spans'])}")
    print("  job latencies (s, dispatch order) "
          + " ".join(f"{lat:.3f}{'t' if traced else ''}" for lat, traced in report["latencies"]))
    if report["counter_deltas"]:
        print("  /metrics counter deltas " + json.dumps(report["counter_deltas"], sort_keys=True))
    for violation in report["violations"]:
        print(f"  VIOLATION {violation}")


def result_line(report: dict) -> dict:
    names = [m.name for m in (spec.PER_LAYER if report["trace"] else spec.END_TO_END)]
    return {
        "correct": not report["violations"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            n: {"value": report["metrics"][n][0], "unit": spec.UNITS[n]} for n in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--write-definitions", action="store_true")
    args = parser.parse_args(argv)
    if args.write_definitions:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, exceptions = {}, {}
    for name in names:
        try:
            results[name] = run_cell(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except Exception:
            exceptions[name] = traceback.format_exc()
            print(f"== {name}: FAILED ==\n{exceptions[name]}", file=sys.stderr)
            continue
        print_report(results[name])
    if args.workload != "all":
        if exceptions:
            return 1
        print(json.dumps(result_line(results[names[0]])))
        return 0
    print(json.dumps({
        "results": {n: result_line(r) for n, r in results.items()},
        "exceptions": sorted(exceptions),
    }))
    return 1 if exceptions else 0


if __name__ == "__main__":
    sys.exit(main())
