"""Inputs, the closed-loop client and the correctness checks.

Everything here runs outside the timed window except :func:`drive`, whose
clients each send their next job only after holding the previous result.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spec import GOLDEN_EQUITS, RMSE_LIMIT_HU, SCAN_FAMILY, Workload

#: Bound on one blocking result wait: a job still running after it is a
#: violation, and the run stays well inside its 180 s.
RESULT_WAIT_S = 60


# -- inputs ----------------------------------------------------------------
@dataclass
class Inputs:
    scans: list  # ScanData per scan file scan-<k>.npz
    goldens: list  # golden image per scan
    scan_root: Path
    goldens_cached: int
    system_build_s: float  # the service's ``system_for`` on a cold cache
    system_nnz: int


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _golden_key(scan, source: str) -> str:
    g = scan.geometry
    h = hashlib.sha256(source.encode())
    h.update(repr((g.n_pixels, g.n_views, g.n_channels, g.pixel_size,
                   g.channel_spacing, GOLDEN_EQUITS)).encode())
    h.update(np.ascontiguousarray(scan.sinogram, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(scan.weights, dtype=np.float64).tobytes())
    return h.hexdigest()


def prepare(workload: Workload, n_pixels: int, n_scans: int, seed: int,
            root: Path, rundir: Path) -> Inputs:
    """Generate the seeded scans, write them for the gateway, get goldens.

    The scans are the first ``n_scans`` cases of :data:`SCAN_FAMILY` in the
    seeded suite.  Goldens are deterministic in (source tree, scan), so
    they are kept in ``.perfbench_cache/`` of the checkout.
    """
    from repro.core.icd import golden_reconstruction
    from repro.ct.geometry import scaled_geometry
    from repro.harness.testcases import generate_suite, scan_for_case
    from repro.io import save_scan
    from repro.service.runner import system_for

    # Built through the service's own cache, which a traced replay reuses.
    t = time.perf_counter()
    system = system_for(scaled_geometry(n_pixels))
    build_s = time.perf_counter() - t
    size, cases = 16 * n_scans, []
    while len(cases) < n_scans:  # the suite is prefix-stable: grow it until enough
        size *= 2
        cases = [c for c in generate_suite(size, n_pixels, seed=seed)
                 if c.name.startswith(SCAN_FAMILY)][:n_scans]
    scans = [scan_for_case(c, system) for c in cases]
    scan_root = rundir / "scans"
    scan_root.mkdir(parents=True)
    for k, scan in enumerate(scans):
        save_scan(scan_root / f"scan-{k}.npz", scan)

    cache = root / ".perfbench_cache"
    cache.mkdir(exist_ok=True)
    source = _source_digest(root)
    goldens, cached = [], 0
    for scan in scans:
        path = cache / f"golden-{_golden_key(scan, source)}.npy"
        if path.exists():
            cached += 1
        else:
            tmp = path.with_name(f"{path.stem}.{rundir.name}.tmp.npy")
            np.save(tmp, golden_reconstruction(scan, system, equits=GOLDEN_EQUITS))
            tmp.replace(path)
        goldens.append(np.load(path))
    return Inputs(scans, goldens, scan_root, cached, build_s, system.nnz)


# -- the job sequence --------------------------------------------------------
@dataclass(frozen=True)
class Plan:
    index: int
    scan: int
    params: dict
    hit_of: int | None = None  # index of the miss this job duplicates

    def body(self, driver: str) -> bytes:
        return json.dumps(
            {"driver": driver, "scan": f"scan-{self.scan}.npz", "params": self.params}
        ).encode()


def plans(workload: Workload, n_scans: int, seed: int):
    """The workload's deterministic submissions, in dispatch order.

    Misses rotate over the scans with a distinct ``seed`` param each; an
    ``H`` slot resubmits the exact body of an earlier miss (not the most
    recent one, which may still be running on the other client).
    """
    rng = np.random.default_rng(seed)
    base = int(rng.integers(1, 2**30))
    misses: list[Plan] = []
    index = 0
    while True:
        for slot in workload.pattern:
            if slot == "H" and misses:
                pool = misses[:-1] or misses
                target = pool[int(rng.integers(len(pool)))]
                plan = Plan(index, target.scan, target.params, hit_of=target.index)
            else:
                params = {"max_equits": workload.max_equits, "seed": base + len(misses)}
                plan = Plan(index, len(misses) % n_scans, params)
                misses.append(plan)
            yield plan
            index += 1


# -- one job -------------------------------------------------------------------
@dataclass
class JobRecord:
    plan: Plan
    traced: bool
    sent_at: float | None = None  # wall clock at POST (the gateway's clock)
    answered_at: float | None = None  # wall clock when the POST answer arrived
    latency_s: float | None = None
    post_s: float | None = None
    fetch_s: float | None = None
    status: dict | None = None  # GET /jobs/<id> after DONE (traced jobs)
    from_cache: bool | None = None
    payload: bytes | None = None
    image: np.ndarray | None = None
    rmse_hu: float | None = None
    end: float | None = None
    violations: list[str] = field(default_factory=list)


def run_job(http, driver: str, plan: Plan, traced: bool) -> JobRecord:
    rec = JobRecord(plan, traced, sent_at=time.time())
    t0 = time.perf_counter()
    resp = http.request("POST", "/jobs", plan.body(driver))
    t1 = time.perf_counter()
    rec.answered_at = time.time()
    if resp.status != 201:
        rec.violations.append(f"POST /jobs answered {resp.status}: {resp.body[:200]!r}")
        return rec
    job_id = json.loads(resp.body)["job_id"]
    resp = http.request("GET", f"/jobs/{job_id}/result?timeout={RESULT_WAIT_S}")
    t3 = time.perf_counter()
    rec.post_s, rec.latency_s, rec.end = t1 - t0, t3 - t0, t3
    if resp.status != 200:
        rec.violations.append(f"job {job_id} not DONE: {resp.status} {resp.body[:200]!r}")
        return rec
    rec.payload = resp.body
    rec.from_cache = resp.headers.get("x-repro-from-cache") == "true"
    if traced:
        status = http.request("GET", f"/jobs/{job_id}")
        if status.status != 200:
            rec.violations.append(f"status GET answered {status.status}")
            return rec
        rec.status = json.loads(status.body)
        t = time.perf_counter()
        again = http.request("GET", f"/jobs/{job_id}/result")
        rec.fetch_s = time.perf_counter() - t
        if again.status != 200:
            rec.violations.append(f"second result GET answered {again.status}")
    return rec


# -- the closed loop -------------------------------------------------------------
class _Dispenser:
    """Hands out plans in order until the window closes or ``max_jobs``."""

    def __init__(self, source, seconds: float, max_jobs: int | None) -> None:
        self._source = source
        self._lock = threading.Lock()
        self._done: dict[int, threading.Event] = {}
        self._max_jobs = max_jobs
        self._count = 0
        self.start = time.perf_counter()
        self.stop_at = self.start + seconds

    def next(self) -> Plan | None:
        with self._lock:
            if time.perf_counter() >= self.stop_at or self._count == self._max_jobs:
                return None
            self._count += 1
            plan = next(self._source)
            self._done[plan.index] = threading.Event()
            return plan

    def done(self, index: int) -> threading.Event:
        with self._lock:
            return self._done[index]


def drive(gateway, workload: Workload, source, *, seconds: float,
          max_jobs: int | None, traced) -> tuple[list[JobRecord], float, int]:
    """Run ``workload.clients`` closed-loop clients for ``seconds``.

    ``traced(plan)`` says whether a job gets the extra status/second-fetch
    calls.  Returns the records in dispatch order, the window's start
    (``perf_counter``) and the 5xx answers seen.
    """
    dispenser = _Dispenser(source, seconds, max_jobs)
    records: dict[int, JobRecord] = {}
    errors: list[BaseException] = []
    clients = [gateway.client() for _ in range(workload.clients)]

    def loop(http) -> None:
        try:
            while (plan := dispenser.next()) is not None:
                if plan.hit_of is not None:
                    dispenser.done(plan.hit_of).wait(RESULT_WAIT_S)
                records[plan.index] = run_job(http, workload.driver, plan, traced(plan))
                dispenser.done(plan.index).set()
        except BaseException as exc:  # surfaced by the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server_errors = sum(c.server_errors for c in clients)
    for c in clients:
        c.close()
    if errors:
        raise errors[0]
    return [records[i] for i in sorted(records)], dispenser.start, server_errors


# -- correctness ---------------------------------------------------------------------
def check(records: list[JobRecord], goldens: list, pixels: int) -> None:
    """Decode every result and append each violation to its record."""
    from repro.core.convergence import rmse_hu

    by_index = {r.plan.index: r for r in records}
    for rec in records:
        if rec.payload is None:
            continue
        with np.load(io.BytesIO(rec.payload)) as npz:
            rec.image = np.asarray(npz["image"])
        rec.payload = None
        if rec.image.shape != (pixels, pixels):
            rec.violations.append(f"image shape {rec.image.shape}")
            continue
        rec.rmse_hu = rmse_hu(rec.image, goldens[rec.plan.scan])
        if not rec.rmse_hu <= RMSE_LIMIT_HU:
            rec.violations.append(f"RMSE {rec.rmse_hu:.2f} HU over {RMSE_LIMIT_HU} HU")
    for rec in records:
        if rec.image is None:
            continue
        if rec.plan.hit_of is None:
            if rec.from_cache:
                rec.violations.append("fresh spec served from the result cache")
            continue
        if not rec.from_cache:
            rec.violations.append("duplicate not served from the result cache")
        miss = by_index.get(rec.plan.hit_of)
        if miss is None or miss.image is None or not np.array_equal(rec.image, miss.image):
            rec.violations.append("cache hit differs from its miss's image")


# -- summaries -----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (inclusive method); the median for q=0.5."""
    if len(values) == 1:
        return values[0]
    if q == 0.5:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def latency_summary(records: list[JobRecord], start: float) -> dict:
    """End-to-end numbers of one window: ``{name: (value, samples)}``."""
    done = [r for r in records if r.latency_s is not None]
    lat = [r.latency_s for r in done]
    hits = [r.latency_s for r in done if r.plan.hit_of is not None]
    misses = [r.latency_s for r in done if r.plan.hit_of is None]
    rmse = [r.rmse_hu for r in records if r.rmse_hu is not None]
    failed = sum(1 for r in records if r.violations)
    out = {}
    if lat:
        out["job_latency_p50_s"] = (quantile(lat, 0.5), len(lat))
        out["throughput_jobs_per_s"] = (len(lat) / (max(r.end for r in done) - start), len(lat))
        out["job_latency_p90_s"] = (quantile(lat, 0.9), len(lat))
    if hits:
        out["hit_latency_p50_s"] = (quantile(hits, 0.5), len(hits))
        out["miss_latency_p50_s"] = (quantile(misses, 0.5), len(misses))
    if rmse:
        out["rmse_hu_p50"] = (quantile(rmse, 0.5), len(rmse))
    out["failed_frac"] = (failed / max(1, len(records)), len(records))
    return out
