"""Command-line interface to the experiment harness and the job service.

    python -m repro --version
    python -m repro table1 [--pixels 64] [--cases 3]
    python -m repro fig5 | fig6 | fig7a | fig7b | fig7c | fig7d
    python -m repro table2 | table3
    python -m repro all | suite
    python -m repro tune [--zero-skip 0.4]
    python -m repro profile [--driver all] [--equits 2] --metrics-json out.json
    python -m repro profile --backend process [--workers N]
    python -m repro profile --checkpoint-dir ckpts [--checkpoint-every K] [--resume]
    python -m repro serve QUEUE_DIR [--workers 2] [--drain]
    python -m repro submit QUEUE_DIR --driver icd --scan scan.npz [--priority 5]
    python -m repro status QUEUE_DIR JOB_ID
    python -m repro cancel QUEUE_DIR JOB_ID
    python -m repro serve-http --scan-root DIR [--port 8080] [--workers 2]
    python -m repro loadtest URL [--mode open --rate 20] [--jobs 200]
    python -m repro chaos [--campaigns 20] [--seed 0]

Each experiment prints the same rows/series the paper reports (see
EXPERIMENTS.md for the paper-vs-measured record); ``profile`` runs
instrumented reconstructions (see :mod:`repro.observability`); the
``serve`` / ``submit`` / ``status`` / ``cancel`` family speaks the queue
directory protocol of :mod:`repro.service.intake`; ``serve-http`` fronts
the service with the REST gateway of :mod:`repro.service.http`,
``loadtest`` drives any such gateway with the closed/open-loop generator
of :mod:`repro.service.loadgen`, and ``chaos`` runs seeded fault-injection
campaigns (:mod:`repro.service.chaos`) against a real service, exiting
non-zero on any invariant violation.

Exit codes are distinct by failure class: 0 success, 1 runtime failure
(an experiment or job blew up), 2 usage error (bad arguments —
argparse rejections and semantic flag conflicts alike).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import repro
from repro.core.backends import BACKENDS
from repro.harness.experiments import (
    ExperimentContext,
    run_fig5,
    run_fig6,
    run_fig7a,
    run_fig7b,
    run_fig7c,
    run_fig7d,
    run_table1,
    run_table2,
    run_table3,
)

__all__ = [
    "EXIT_OK",
    "EXIT_RUNTIME",
    "EXIT_USAGE",
    "UsageError",
    "main",
    "build_parser",
]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Semantically invalid arguments (reported with exit code 2)."""


_EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig7c": run_fig7c,
    "fig7d": run_fig7d,
}

#: ``--worker-model`` on serve/serve-http accepts its one value so existing
#: command lines keep working.
_WORKER_MODEL_HELP = ("jobs run in supervised worker subprocesses, the "
                      "only model (CPU-bound jobs scale with cores; a "
                      "killed worker resumes from checkpoints)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of the GPU-ICD paper "
        "(PPoPP 2017), and serve reconstructions as jobs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )

    # Flags shared by every experiment subcommand.
    ctx_flags = argparse.ArgumentParser(add_help=False)
    ctx_flags.add_argument("--pixels", type=int, default=64,
                           help="scaled image side for real-numerics runs (default 64)")
    ctx_flags.add_argument("--cases", type=int, default=3,
                           help="ensemble size for Table 1 (default 3)")
    ctx_flags.add_argument("--seed", type=int, default=0, help="ensemble/run seed")

    sub = parser.add_subparsers(dest="experiment", required=True, metavar="COMMAND")

    for name in sorted(_EXPERIMENTS) + ["all", "suite"]:
        sub.add_parser(
            name, parents=[ctx_flags],
            help="run every table/figure" if name == "all"
            else "run the ensemble statistics" if name == "suite"
            else f"reproduce {name}",
        )

    tune = sub.add_parser("tune", parents=[ctx_flags],
                          help="auto-tune GPU-ICD parameters on the timing model")
    tune.add_argument("--zero-skip", type=float, default=0.4,
                      help="zero-skip fraction for 'tune' (default 0.4)")

    profile = sub.add_parser(
        "profile", parents=[ctx_flags],
        help="run instrumented reconstructions and emit the metrics report",
    )
    profile.add_argument("--driver", choices=["icd", "psv", "gpu", "all"], default="all",
                         help="which driver(s) to instrument (default all)")
    profile.add_argument("--equits", type=float, default=2.0,
                         help="equits per instrumented run (default 2)")
    profile.add_argument("--metrics-json", metavar="PATH", default=None,
                         help="write the span/counter report as JSON")
    profile.add_argument("--backend", choices=BACKENDS, default="inline",
                         help="wave execution backend for the PSV/GPU drivers "
                         "(default inline; see repro.core.backends)")
    profile.add_argument("--workers", type=int, default=None, metavar="N",
                         help="pool size for --backend process "
                         "(default: driver-chosen)")
    profile.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="persist resumable run state under DIR/<driver> "
                         "(see repro.resilience)")
    profile.add_argument("--checkpoint-every", type=int, default=1, metavar="K",
                         help="checkpoint cadence in iterations (default 1)")
    profile.add_argument("--resume", action="store_true",
                         help="resume each driver from its latest checkpoint "
                         "under --checkpoint-dir (bit-identical to an "
                         "uninterrupted run)")
    profile.add_argument("--multires", action="store_true",
                         help="also profile the hierarchical coarse-to-fine "
                         "driver (repro.multires); configure the pyramid "
                         "with --levels")
    profile.add_argument("--levels", metavar="SPEC", default=None,
                         help="pyramid for --multires: a comma list of "
                         "ascending sizes ending at --pixels (e.g. "
                         "'16,32,64') or a level count (e.g. '3'); "
                         "default: auto factors of 4 and 2 where the "
                         "geometry divides evenly")
    profile.add_argument("--shards", type=int, default=None, metavar="N",
                         help="also run one slice as N halo-exchanged row "
                         "stripes through an in-process reconstruction "
                         "service and report makespan + RMSE vs the "
                         "unsharded reference")
    profile.add_argument("--halo", type=int, default=1, metavar="K",
                         help="halo rows per stripe boundary for --shards "
                         "(default 1)")
    profile.add_argument("--rounds", type=int, default=2, metavar="R",
                         help="block-Jacobi rounds for --shards (default 2)")

    serve = sub.add_parser(
        "serve", help="serve reconstruction jobs out of a queue directory"
    )
    serve.add_argument("queue_dir", help="the queue directory (created if missing)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrently running jobs (default 2)")
    serve.add_argument("--worker-model", choices=["process"],
                       default="process", help=_WORKER_MODEL_HELP)
    serve.add_argument("--heartbeat-timeout", type=float, default=None,
                       metavar="S",
                       help="kill a worker silent for S seconds and resume "
                       "its job from the newest checkpoint "
                       "(default: no supervision)")
    serve.add_argument("--job-deadline", type=float, default=None, metavar="S",
                       help="fail any job still running after S seconds of "
                       "wall clock (default: no deadline)")
    serve.add_argument("--job-ttl", type=float, default=None, metavar="S",
                       help="evict terminal jobs from the registry S seconds "
                       "after they finish (default: keep forever)")
    serve.add_argument("--max-queue-depth", type=int, default=None, metavar="D",
                       help="admission-control bound on pending jobs "
                       "(default unbounded)")
    serve.add_argument("--checkpoint-every", type=int, default=1, metavar="K",
                       help="per-job checkpoint cadence in iterations (default 1)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once every submitted job is terminal "
                       "(default: serve until killed)")
    serve.add_argument("--max-seconds", type=float, default=None, metavar="S",
                       help="stop serving after S seconds")
    serve.add_argument("--poll", type=float, default=0.05, metavar="S",
                       help="intake poll interval in seconds (default 0.05)")
    serve.add_argument("--metrics-json", metavar="PATH", default=None,
                       help="write the service.* counter report as JSON on exit")

    submit = sub.add_parser("submit", help="drop a job spec into a queue directory")
    submit.add_argument("queue_dir")
    submit.add_argument("--driver", choices=["icd", "psv_icd", "gpu_icd"],
                        required=True, help="reconstruction driver")
    submit.add_argument("--scan", required=True, metavar="PATH",
                        help="scan file (repro.io.save_scan format); relative "
                        "paths resolve against the queue directory")
    submit.add_argument("--params", default=None, metavar="JSON",
                        help='driver kwargs as a JSON object, e.g. '
                        '\'{"max_equits": 4.0}\'')
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority; higher runs earlier (default 0)")
    submit.add_argument("--job-id", default=None,
                        help="stable job id (default: derived from time+pid)")

    serve_http = sub.add_parser(
        "serve-http", help="serve reconstruction jobs over HTTP (REST gateway)"
    )
    serve_http.add_argument("--host", default="127.0.0.1",
                            help="bind address (default 127.0.0.1)")
    serve_http.add_argument("--port", type=int, default=8080,
                            help="bind port; 0 picks a free one (default 8080)")
    serve_http.add_argument("--scan-root", required=True, metavar="DIR",
                            help="directory submitted scan paths resolve "
                            "against; paths outside it are rejected (400)")
    serve_http.add_argument("--workers", type=int, default=2, metavar="N",
                            help="concurrently running jobs (default 2)")
    serve_http.add_argument("--worker-model", choices=["process"],
                            default="process", help=_WORKER_MODEL_HELP)
    serve_http.add_argument("--heartbeat-timeout", type=float, default=None,
                            metavar="S",
                            help="kill a worker silent for S seconds and "
                            "resume its job from the newest checkpoint "
                            "(default: no supervision)")
    serve_http.add_argument("--job-deadline", type=float, default=None,
                            metavar="S",
                            help="fail any job still running after S seconds "
                            "of wall clock (default: no deadline)")
    serve_http.add_argument("--job-ttl", type=float, default=None, metavar="S",
                            help="evict terminal jobs S seconds after they "
                            "finish; evicted ids answer 410 "
                            "(default: keep forever)")
    serve_http.add_argument("--max-queue-depth", type=int, default=None,
                            metavar="D",
                            help="admission-control bound on pending jobs; "
                            "beyond it POST /jobs returns 429 "
                            "(default unbounded)")
    serve_http.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="persistent content-addressed result cache")
    serve_http.add_argument("--checkpoint-root", default=None, metavar="DIR",
                            help="per-job resumable checkpoint directories")
    serve_http.add_argument("--retry-after", type=float, default=1.0,
                            metavar="S",
                            help="Retry-After header value on 429s (default 1)")

    loadtest = sub.add_parser(
        "loadtest", help="drive an HTTP gateway with sustained load"
    )
    loadtest.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8080")
    loadtest.add_argument("--mode", choices=["closed", "open"], default="closed",
                          help="closed: fixed concurrency, submit->await->next; "
                          "open: fixed arrival rate, 429s dropped and counted "
                          "(default closed)")
    loadtest.add_argument("--jobs", type=int, default=50, metavar="N",
                          help="total submissions (default 50)")
    loadtest.add_argument("--rate", type=float, default=None, metavar="R",
                          help="arrival rate in jobs/sec (required for "
                          "--mode open)")
    loadtest.add_argument("--concurrency", type=int, default=4, metavar="C",
                          help="client threads (closed) / completion watchers "
                          "(open) (default 4)")
    loadtest.add_argument("--driver", choices=["icd", "psv_icd", "gpu_icd"],
                          default="icd", help="driver for generated jobs")
    loadtest.add_argument("--scan", default="scan.npz", metavar="PATH",
                          help="server-side scan path for generated jobs "
                          "(default scan.npz)")
    loadtest.add_argument("--params", default=None, metavar="JSON",
                          help="driver kwargs for generated jobs as a JSON "
                          "object")
    loadtest.add_argument("--distinct-seeds", type=int, default=0, metavar="K",
                          help="spread seed over i %% K to mix fresh work "
                          "with cache hits (default 0: leave seed to "
                          "--params)")
    loadtest.add_argument("--slo", type=float, default=None, metavar="S",
                          help="count jobs slower than S seconds end-to-end "
                          "as SLO violations")
    loadtest.add_argument("--no-results", action="store_true",
                          help="skip fetching result bytes (status-only load)")
    loadtest.add_argument("--report-json", default=None, metavar="PATH",
                          help="write the load report as JSON")

    chaos = sub.add_parser(
        "chaos", help="run seeded fault-injection campaigns against the service"
    )
    chaos.add_argument("--campaigns", type=int, default=20, metavar="N",
                       help="number of seeded campaigns (default 20)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; campaign i uses seed+i (default 0)")
    chaos.add_argument("--jobs", type=int, default=6, metavar="N",
                       help="jobs per campaign (default 6)")
    chaos.add_argument("--report-json", default=None, metavar="PATH",
                       help="write the campaign summary as JSON")

    status = sub.add_parser("status", help="print a job's last status snapshot")
    status.add_argument("queue_dir")
    status.add_argument("job_id")

    cancel = sub.add_parser("cancel", help="request cancellation of a job")
    cancel.add_argument("queue_dir")
    cancel.add_argument("job_id")

    return parser


def _run_one(name: str, ctx: ExperimentContext) -> None:
    t0 = time.perf_counter()
    result = _EXPERIMENTS[name](ctx)
    dt = time.perf_counter() - t0
    bar = "=" * 72
    print(f"\n{bar}\n{name.upper()}  ({dt:.1f} s)\n{bar}")
    print(result.format())


def _run_tune(args) -> None:
    from repro.ct import paper_geometry
    from repro.gpusim import GPUTimingModel
    from repro.tuning import AutoTuner

    tuner = AutoTuner(GPUTimingModel(paper_geometry()), zero_skip_fraction=args.zero_skip)
    res = tuner.coordinate_descent()
    p = res.best_params
    print("auto-tuned GPU-ICD parameters (coordinate descent on the model):")
    print(f"  sv_side={p.sv_side} threadblocks_per_sv={p.threadblocks_per_sv} "
          f"threads_per_block={p.threads_per_block} batch_size={p.batch_size} "
          f"chunk_width={p.chunk_width}")
    print(f"  modeled time/equit: {res.best_time * 1e3:.2f} ms "
          f"({res.evaluations} model evaluations)")
    print("  paper's hand-tuned point: sv_side=33 tb/SV=40 threads=256 "
          "batch=32 chunk=32 at ~70 ms/equit")


def _run_profile(args) -> None:
    """Run instrumented reconstructions and emit the metrics report."""
    from repro import (
        GPUICDParams,
        GPUTimingModel,
        build_system_matrix,
        gpu_icd_reconstruct,
        icd_reconstruct,
        psv_icd_reconstruct,
        scaled_geometry,
        shepp_logan,
        simulate_scan,
    )
    from repro.observability import MetricsRecorder

    if args.resume and args.checkpoint_dir is None:
        raise UsageError("--resume requires --checkpoint-dir")

    n = args.pixels
    geom = scaled_geometry(n)

    # Validate pyramid / shard specs before any heavy setup: a bad spec is
    # a usage error (exit 2), not a runtime failure mid-profile.
    if args.levels is not None and not args.multires:
        raise UsageError("--levels requires --multires")
    levels = None
    if args.multires:
        from repro.multires import parse_levels

        spec = args.levels
        if spec is not None and "," not in spec:
            try:
                spec = int(spec)  # a bare count, e.g. --levels 3
            except ValueError:
                pass  # a single size like "64" parses as a str spec below
        try:
            levels = parse_levels(spec, geom)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid --levels spec {args.levels!r}: {exc}")
    if args.shards is not None:
        from repro.multires import plan_stripes

        try:
            plan_stripes(n, args.shards, args.halo)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid shard plan: {exc}")
        if args.rounds < 1:
            raise UsageError(f"--rounds must be >= 1, got {args.rounds}")

    system = build_system_matrix(geom)
    scan = simulate_scan(shepp_logan(n), system, seed=args.seed)
    common = dict(max_equits=args.equits, seed=args.seed, track_cost=False)
    # The sequential ICD driver has no wave structure, so --backend only
    # applies to the PSV/GPU drivers.
    wave = dict(backend=args.backend, n_workers=args.workers)

    def resilience(driver_name: str) -> dict:
        """Per-driver checkpoint/resume kwargs (empty when not requested)."""
        if args.checkpoint_dir is None:
            return {}
        from repro.resilience import CheckpointManager

        manager = CheckpointManager(
            os.path.join(args.checkpoint_dir, driver_name)
        )
        out = dict(checkpoint=manager, checkpoint_every=args.checkpoint_every)
        if args.resume:
            out["resume_from"] = "latest"
        return out

    drivers = {}
    if args.driver in ("icd", "all"):
        drivers["icd"] = lambda rec: icd_reconstruct(
            scan, system, metrics=rec, **common, **resilience("icd")
        )
    if args.driver in ("psv", "all"):
        drivers["psv_icd"] = lambda rec: psv_icd_reconstruct(
            scan, system, sv_side=min(13, n), metrics=rec, **common, **wave,
            **resilience("psv_icd")
        )
    gpu_params = GPUICDParams(sv_side=min(33, n))
    if args.driver in ("gpu", "all"):
        drivers["gpu_icd"] = lambda rec: gpu_icd_reconstruct(
            scan, system, params=gpu_params, metrics=rec, **common, **wave,
            **resilience("gpu_icd")
        )
    if args.multires:
        from repro.multires import multires_reconstruct

        drivers["multires"] = lambda rec: multires_reconstruct(
            scan, system, levels=list(levels), metrics=rec,
            **common, **resilience("multires")
        )

    report = {
        "pixels": n,
        "max_equits": args.equits,
        "seed": args.seed,
        "backend": args.backend,
        "workers": args.workers,
        "drivers": {},
    }
    for name, run in drivers.items():
        rec = MetricsRecorder()
        with rec.span("run", driver=name):
            result = run(rec)
        entry = rec.to_dict()
        entry["equits"] = result.history.equits
        entry["converged_equits"] = result.history.converged_equits
        entry["converged_threshold_hu"] = result.history.converged_threshold_hu
        if name == "multires":
            entry["levels"] = [
                {"size": lr.size, "factor": lr.factor, "equits": lr.equits,
                 "effective_equits": lr.effective_equits}
                for lr in result.levels
            ]
            entry["total_effective_equits"] = result.total_effective_equits
        if name == "gpu_icd":
            model = GPUTimingModel(geom)
            entry["measured_vs_modeled"] = model.measured_vs_modeled(result.trace, rec)
        report["drivers"][name] = entry

        totals = rec.span_totals()
        print(f"{name}: {rec.total('run'):.3f} s wall, "
              f"{result.history.equits:.2f} equits, "
              f"{len(result.history.records)} iterations")
        for phase in ("sweep", "extract", "update", "merge", "bookkeeping"):
            if phase in totals:
                agg = totals[phase]
                print(f"  {phase:12s} {agg['total_s']:8.3f} s  (x{agg['count']})")
        for key, val in sorted(rec.counters.items()):
            print(f"  {key:28s} {val:12.0f}")

    if args.multires:
        report["levels"] = list(levels)

    if args.shards is not None:
        from repro.core.convergence import rmse_hu
        from repro.multires.shards import ShardCoordinator
        from repro.service.service import ReconstructionService

        service = ReconstructionService(n_workers=args.workers or 2)
        try:
            coord = ShardCoordinator(service)
            t0 = time.perf_counter()
            gid = coord.submit_sharded(
                scan,
                n_shards=args.shards,
                halo=args.halo,
                rounds=args.rounds,
                seed=args.seed,
                params={"track_cost": False},
            )
            stitched = coord.result(gid, timeout=3600).image
            sharded_s = time.perf_counter() - t0
        finally:
            service.close()
        t0 = time.perf_counter()
        ref = icd_reconstruct(
            scan, system, max_iterations=args.rounds, seed=args.seed,
            track_cost=False,
        )
        mono_s = time.perf_counter() - t0
        err_hu = rmse_hu(stitched, ref.image)
        print(f"sharded: {args.shards} stripes x {args.rounds} rounds "
              f"(halo {args.halo}): {sharded_s:.3f} s makespan vs "
              f"{mono_s:.3f} s monolithic, {err_hu:.2f} HU RMSE vs unsharded")
        report["sharded"] = {
            "n_shards": args.shards,
            "halo": args.halo,
            "rounds": args.rounds,
            "makespan_s": sharded_s,
            "monolithic_s": mono_s,
            "rmse_hu_vs_unsharded": err_hu,
        }

    if args.metrics_json:
        with open(args.metrics_json, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"metrics report written to {args.metrics_json}")


# ----------------------------------------------------------------------
# Service subcommands
# ----------------------------------------------------------------------
def _run_serve(args) -> None:
    from repro.observability import MetricsRecorder
    from repro.service import DirectoryService

    metrics = MetricsRecorder()
    service = DirectoryService(
        args.queue_dir,
        n_workers=args.workers,
        heartbeat_timeout_s=args.heartbeat_timeout,
        job_deadline_s=args.job_deadline,
        job_ttl_s=args.job_ttl,
        max_queue_depth=args.max_queue_depth,
        checkpoint_every=args.checkpoint_every,
        metrics=metrics,
        poll_s=args.poll,
    )
    print(f"serving {args.queue_dir} with {args.workers} "
          f"{args.worker_model} worker(s)"
          + (" until drained" if args.drain else ""))
    try:
        drained = service.run(drain=args.drain, max_seconds=args.max_seconds)
    finally:
        service.close()
        report = service.service.report()
        counters = {k: v for k, v in sorted(report["counters"].items())
                    if k.startswith("service.")}
        for key, val in counters.items():
            print(f"  {key:28s} {val:12.3f}")
        if args.metrics_json:
            with open(args.metrics_json, "w") as f:
                json.dump(report, f, indent=2, sort_keys=True)
                f.write("\n")
    if args.drain and drained:
        print("drained: all jobs terminal")


def _run_submit(args) -> None:
    from repro.service import write_job_spec

    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise UsageError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    job_id = args.job_id or f"job-{int(time.time() * 1000):x}-{os.getpid()}"
    path = write_job_spec(
        args.queue_dir, job_id,
        driver=args.driver, scan_path=args.scan,
        params=params, priority=args.priority,
    )
    print(f"submitted {job_id} -> {path}")


def _run_status(args) -> None:
    from repro.service import read_status

    status = read_status(args.queue_dir, args.job_id)
    if status is None:
        raise RuntimeError(
            f"no status for job {args.job_id!r} in {args.queue_dir} "
            f"(not yet accepted by a server?)"
        )
    print(json.dumps(status, indent=2, sort_keys=True))


def _run_cancel(args) -> None:
    from repro.service import request_cancel

    sentinel = request_cancel(args.queue_dir, args.job_id)
    print(f"cancel requested for {args.job_id} ({sentinel})")


def _run_serve_http(args) -> None:
    from repro.service import HttpGateway, ReconstructionService

    service = ReconstructionService(
        n_workers=args.workers,
        heartbeat_timeout_s=args.heartbeat_timeout,
        job_deadline_s=args.job_deadline,
        job_ttl_s=args.job_ttl,
        max_queue_depth=args.max_queue_depth,
        cache_dir=args.cache_dir,
        checkpoint_root=args.checkpoint_root,
        start=True,
    )
    gateway = HttpGateway(
        service,
        host=args.host,
        port=args.port,
        scan_root=args.scan_root,
        retry_after_s=args.retry_after,
        own_service=True,
    )
    print(f"gateway listening on {gateway.url} "
          f"(scan root {args.scan_root}, {args.workers} "
          f"{args.worker_model} worker(s))")
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        gateway.close()


def _run_loadtest(args) -> None:
    from repro.service.loadgen import default_spec_factory, run_load

    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise UsageError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise UsageError("--params must be a JSON object")
    if args.mode == "open" and (args.rate is None or args.rate <= 0):
        raise UsageError("--mode open requires a positive --rate")
    report = run_load(
        args.url,
        mode=args.mode,
        n_jobs=args.jobs,
        rate=args.rate,
        concurrency=args.concurrency,
        spec_factory=default_spec_factory(
            driver=args.driver,
            scan=args.scan,
            params=params,
            distinct_seeds=args.distinct_seeds,
        ),
        slo_s=args.slo,
        fetch_results=not args.no_results,
    )
    print(report.format())
    if args.report_json:
        with open(args.report_json, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"load report written to {args.report_json}")
    if report.server_errors_5xx:
        raise RuntimeError(
            f"{report.server_errors_5xx} server-side 5xx responses under load"
        )


def _run_chaos(args) -> None:
    from repro.service.chaos import run_campaigns, summarize

    if args.campaigns < 1:
        raise UsageError(f"--campaigns must be >= 1, got {args.campaigns}")
    if args.jobs < 2:
        raise UsageError(f"--jobs must be >= 2, got {args.jobs}")
    results = run_campaigns(
        args.campaigns,
        seed=args.seed,
        n_jobs=args.jobs,
        progress=print,
    )
    summary = summarize(results)
    print(
        f"{summary['campaigns']} campaigns, {summary['total_jobs']} jobs, "
        f"{summary['total_duration_s']:.1f}s total -> "
        + ("all invariants held" if summary["ok"]
           else f"{len(summary['violations'])} INVARIANT VIOLATIONS")
    )
    if args.report_json:
        with open(args.report_json, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"chaos report written to {args.report_json}")
    if not summary["ok"]:
        for v in summary["violations"]:
            print(f"  violation: {v}", file=sys.stderr)
        raise RuntimeError(
            f"{len(summary['violations'])} chaos invariant violation(s)"
        )


_SERVICE_COMMANDS = {
    "serve": _run_serve,
    "submit": _run_submit,
    "status": _run_status,
    "cancel": _run_cancel,
    "serve-http": _run_serve_http,
    "loadtest": _run_loadtest,
    "chaos": _run_chaos,
}


def _dispatch(args) -> int:
    if args.experiment in _SERVICE_COMMANDS:
        _SERVICE_COMMANDS[args.experiment](args)
        return EXIT_OK
    if args.experiment == "tune":
        _run_tune(args)
        return EXIT_OK
    if args.experiment == "profile":
        _run_profile(args)
        return EXIT_OK
    if args.experiment == "suite":
        from repro.harness.suite import run_suite

        ctx = ExperimentContext(n_pixels=args.pixels, n_cases=args.cases, seed=args.seed)
        print(run_suite(ctx).format())
        return EXIT_OK
    ctx = ExperimentContext(n_pixels=args.pixels, n_cases=args.cases, seed=args.seed)
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _run_one(name, ctx)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    0 = success, 1 = runtime failure, 2 = usage error.  (argparse's own
    rejections raise ``SystemExit(2)``, matching :data:`EXIT_USAGE`.)
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
