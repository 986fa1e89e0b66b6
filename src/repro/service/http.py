"""HTTP gateway: a REST front end on :class:`ReconstructionService`.

The job service (DESIGN.md §12) was in-process / file-protocol only; this
module makes it network-facing with nothing but the standard library —
:class:`http.server.ThreadingHTTPServer` spawns one handler thread per
request, so submissions, status polls, result fetches, and cancels all hit
the service concurrently.  That is exactly the multi-writer workload that
motivated the PR-7 concurrency fixes underneath: the queue's deadline-aware
wait loop, the intake quarantine, and the thread-safe
:class:`~repro.observability.MetricsRecorder` a gateway shares across
request handlers and Scheduler workers (DESIGN.md §14).

Endpoints (all JSON unless noted):

========  ======================  =============================================
method    path                    behaviour
========  ======================  =============================================
POST      ``/jobs``               submit ``{"driver", "scan", "params",
                                  "priority", "job_id"?}`` → 201 + job id;
                                  429 + ``Retry-After`` when admission control
                                  rejects (queue full); 400 malformed or
                                  scan path outside ``scan_root``; 413
                                  body over ``MAX_BODY_BYTES``;
                                  409 duplicate active id; 503 +
                                  ``Retry-After`` closed/closing service.
                                  An optional ``"shards"`` object turns the
                                  submission into a *job group*
                                  (:mod:`repro.multires.shards`):
                                  ``{"mode": "slices"}`` fans a volume-scan
                                  file (``repro.io.save_volume_scan``) out as
                                  one child per slice; ``{"mode": "rows",
                                  "n_shards", "halo"?, "rounds"?,
                                  "sweeps_per_round"?}`` runs one oversized
                                  slice as halo-exchanged row stripes.  The
                                  201 body carries the *group* id, which the
                                  status/result/cancel routes below accept
                                  like any job id.  Invalid shard specs → 400
GET       ``/jobs/<id>``          status snapshot (404 unknown, 410 evicted);
                                  group ids answer the aggregate snapshot
                                  (child count/progress/rounds + child ids)
GET       ``/jobs/<id>/result``   the reconstruction as ``result.npz`` bytes
                                  (``application/octet-stream``); optional
                                  ``?timeout=S`` blocks for a finish; 409 +
                                  ``Retry-After`` while PENDING/RUNNING,
                                  410 if CANCELLED, 500 if FAILED.  Group ids
                                  stream the *stitched* volume in the same
                                  container
DELETE    ``/jobs/<id>``          request cancellation → 202 (404 unknown);
                                  group ids cancel every child
GET       ``/metrics``            Prometheus text format: every recorder
                                  counter + span total, plus live gauges
                                  (queue depth, known jobs)
GET       ``/healthz``            liveness + degradation probe: 200 once
                                  serving, body reports ``"degraded": true``
                                  plus reasons while checkpoint writes are
                                  failing or hung workers have been killed
========  ======================  =============================================

The ``scan`` field names a scan file on the *server* (``repro.io.save_scan``
format), resolved against the gateway's ``scan_root``.  With a root set, an
absolute path or one that resolves outside it (``..`` segments, symlinks)
answers **400** with ``"error_type": "scan_path"``.  Loaded scans are
cached by (path, mtime) so a load generator submitting hundreds of jobs
against one scan file does not re-read it per request.  The cache is
LRU-bounded (``scan_cache_size``) so a gateway fed many distinct scan files
over a long life does not pin them all in memory.

Ids the service's TTL reaper evicted answer **410 Gone** (with
``"evicted": true`` in the body) on status/result/cancel — distinct from
404 for ids the service never saw — and submissions against a closing
service's queue answer **503** with a ``Retry-After`` hint, so clients use
the same backoff discipline for drain windows as for admission control.

``python -m repro serve-http`` wraps this in a CLI;
:mod:`repro.service.loadgen` drives it under sustained load.
"""

from __future__ import annotations

import json
import re
import tempfile
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.ct.sinogram import ScanData
from repro.io import save_reconstruction
from repro.io import load_scan as _load_scan
from repro.io import load_volume_scan as _load_volume_scan
from repro.observability import MetricsRecorder
from repro.service.jobs import (
    EvictedJobError,
    JobSpec,
    JobState,
    JobStateError,
    UnknownJobError,
)
from repro.service.queue import AdmissionError, QueueClosedError
from repro.service.service import ReconstructionService

__all__ = ["MAX_BODY_BYTES", "HttpGateway", "ScanPathError"]

_JOB_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9._-]+)$")
_RESULT_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9._-]+)/result$")

#: Content type of the Prometheus text exposition format.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest request body the gateway reads; a larger ``Content-Length``
#: answers 413 without reading it.  Submissions are small JSON documents
#: (scans are named by path, never uploaded).
MAX_BODY_BYTES = 1 << 20


class ScanPathError(ValueError):
    """A submitted scan path that would leave the gateway's ``scan_root``."""


class _BodyError(Exception):
    """An unreadable request body: carries the status code to answer."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class HttpGateway:
    """Serve a :class:`ReconstructionService` over HTTP.

    Parameters
    ----------
    service:
        The (started) service to front.  The gateway does not own it unless
        ``own_service=True`` — then :meth:`close` also closes the service.
    host, port:
        Bind address.  ``port=0`` picks a free port (read it back from
        :attr:`port` / :attr:`url`).
    scan_root:
        Directory against which relative ``scan`` paths in submissions
        resolve.  Submissions cannot reach outside it: absolute paths, and
        paths whose ``..`` segments or symlinks resolve elsewhere, raise
        :class:`ScanPathError` (answered 400).  ``None`` (embedded use
        only) takes paths as given.
    retry_after_s:
        Value of the ``Retry-After`` header on 429 responses.
    scan_cache_size:
        LRU bound on the (path, mtime) scan cache — distinct scan files
        held in memory at once.
    """

    def __init__(
        self,
        service: ReconstructionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        scan_root: str | Path | None = None,
        retry_after_s: float = 1.0,
        scan_cache_size: int = 8,
        own_service: bool = False,
    ) -> None:
        if scan_cache_size < 1:
            raise ValueError(f"scan_cache_size must be >= 1, got {scan_cache_size}")
        self.service = service
        self.scan_root = Path(scan_root) if scan_root is not None else None
        self.retry_after_s = float(retry_after_s)
        self.scan_cache_size = int(scan_cache_size)
        self._own_service = own_service
        self._scan_lock = threading.Lock()
        self._scan_cache: OrderedDict[tuple[str, int], ScanData] = OrderedDict()
        self._coord_lock = threading.Lock()
        self._coordinator = None  # lazy ShardCoordinator (first group submit)
        handler = type("BoundHandler", (_Handler,), {"gateway": self})
        self.server = ThreadingHTTPServer((host, int(port)), handler)
        self.server.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpGateway":
        """Serve in a background thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever,
                name="repro-http-gateway",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI mode)."""
        self.server.serve_forever()

    def close(self) -> None:
        """Stop accepting requests; join the server thread."""
        if self._closed:
            return
        self._closed = True
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if self._own_service:
            self.service.close()

    def __enter__(self) -> "HttpGateway":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- shard groups ----------------------------------------------------
    @property
    def coordinator(self):
        """The gateway's :class:`~repro.multires.shards.ShardCoordinator`.

        Built on first use so gateways that never see a sharded submission
        pay nothing; imported lazily to keep the service import graph free
        of the shards module at start-up.
        """
        with self._coord_lock:
            if self._coordinator is None:
                from repro.multires.shards import ShardCoordinator

                self._coordinator = ShardCoordinator(self.service)
            return self._coordinator

    def has_group(self, job_id: str) -> bool:
        """Whether ``job_id`` names a shard group (never touches the service)."""
        with self._coord_lock:
            coord = self._coordinator
        return coord is not None and coord.has(job_id)

    # -- scan resolution -------------------------------------------------
    def _resolve(self, scan: str) -> Path:
        path = Path(scan)
        if self.scan_root is None:
            return path
        if path.is_absolute():
            raise ScanPathError(f"scan path {scan!r} must be relative to the scan root")
        root = self.scan_root.resolve()
        resolved = (root / path).resolve()
        if not resolved.is_relative_to(root):
            raise ScanPathError(f"scan path {scan!r} resolves outside the scan root")
        return resolved

    def load_scan(self, scan: str) -> ScanData:
        """The scan named by a submission, via the (path, mtime) cache."""
        path = self._resolve(scan)
        stat = path.stat()  # raises FileNotFoundError -> 400 at the handler
        key = (str(path), stat.st_mtime_ns)
        with self._scan_lock:
            cached = self._scan_cache.get(key)
            if cached is not None:
                self._scan_cache.move_to_end(key)
                return cached
        loaded = _load_scan(path)
        with self._scan_lock:
            # Drop entries for stale mtimes of the same file.
            for k in [k for k in self._scan_cache if k[0] == key[0] and k != key]:
                del self._scan_cache[k]
            entry = self._scan_cache.setdefault(key, loaded)
            self._scan_cache.move_to_end(key)
            while len(self._scan_cache) > self.scan_cache_size:
                self._scan_cache.popitem(last=False)
            return entry

    def load_volume(self, scan: str) -> list[ScanData]:
        """The volume scan (per-slice stack) named by a sharded submission.

        Uncached: volume submissions are rare relative to the single-scan
        load-generator workload the (path, mtime) cache exists for, and the
        stacks are large.
        """
        return _load_volume_scan(self._resolve(scan))

    # -- metrics ---------------------------------------------------------
    @property
    def rec(self) -> MetricsRecorder:
        return self.service.rec

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``."""
        return self.rec.to_prometheus(
            gauges={
                "queue_depth": self.service.queue.depth,
                "jobs_known": len(self.service.jobs),
                "tombstones": self.service.tombstone_count,
            }
        )


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request against the gateway (a fresh thread per request)."""

    #: bound by HttpGateway.__init__ via a subclass attribute
    gateway: HttpGateway

    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive: load generators reuse sockets
    #: TCP_NODELAY: a response goes out as a header write and a body write;
    #: with Nagle on, the body waits for the client's delayed ACK of the
    #: headers (~40 ms per keep-alive response).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr logging; metrics carry the tallies."""

    def _send_bytes(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.gateway.rec.count(f"http.status.{code}")

    def _send_json(
        self, code: int, doc: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode()
        self._send_bytes(code, body, "application/json", headers)

    def _send_error_json(
        self, code: int, error: str, headers: dict[str, str] | None = None, **extra
    ) -> None:
        self._send_json(code, {"error": error, **extra}, headers)

    def _read_json_body(self) -> dict[str, Any]:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            raise _BodyError(400, f"bad Content-Length {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BodyError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        doc = json.loads(raw.decode() or "{}")
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _query(self) -> dict[str, str]:
        if "?" not in self.path:
            return {}
        out = {}
        for pair in self.path.split("?", 1)[1].split("&"):
            if "=" in pair:
                k, v = pair.split("=", 1)
                out[k] = v
        return out

    @property
    def _route(self) -> str:
        return self.path.split("?", 1)[0]

    # -- dispatch --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.gateway.rec.count("http.requests")
        route = self._route
        if route == "/metrics":
            return self._get_metrics()
        if route == "/healthz":
            # "degraded" is advisory (still serving): checkpoint-write
            # degradation or hung-worker kills, with reasons listed.
            return self._send_json(200, self.gateway.service.health())
        m = _RESULT_PATH.match(route)
        if m:
            return self._get_result(m.group("job_id"))
        m = _JOB_PATH.match(route)
        if m:
            return self._get_status(m.group("job_id"))
        self._send_error_json(404, f"no such route: GET {route}")

    def do_POST(self) -> None:  # noqa: N802
        self.gateway.rec.count("http.requests")
        if self._route != "/jobs":
            return self._send_error_json(404, f"no such route: POST {self._route}")
        self._post_job()

    def do_DELETE(self) -> None:  # noqa: N802
        self.gateway.rec.count("http.requests")
        m = _JOB_PATH.match(self._route)
        if not m:
            return self._send_error_json(404, f"no such route: DELETE {self._route}")
        self._delete_job(m.group("job_id"))

    # -- endpoints -------------------------------------------------------
    def _post_job(self) -> None:
        gw = self.gateway
        try:
            doc = self._read_json_body()
        except _BodyError as exc:
            # The body was left unread, so the connection cannot carry
            # another request ("Connection: close" also ends the keep-alive).
            return self._send_error_json(exc.code, str(exc), headers={"Connection": "close"})
        except (ValueError, UnicodeDecodeError) as exc:
            return self._send_error_json(400, f"invalid JSON body: {exc}")
        try:
            driver = doc["driver"]
            scan_name = doc["scan"]
        except KeyError as exc:
            return self._send_error_json(400, f"missing required field {exc}")
        unknown = set(doc) - {"driver", "scan", "params", "priority", "job_id", "shards"}
        if unknown:
            return self._send_error_json(400, f"unknown fields {sorted(unknown)}")
        if doc.get("shards") is not None:
            return self._post_group(doc, driver, scan_name)
        try:
            spec = JobSpec(
                driver=driver,
                scan=gw.load_scan(scan_name),
                params=dict(doc.get("params") or {}),
                priority=int(doc.get("priority") or 0),
                job_id=doc.get("job_id"),
            )
        except ScanPathError as exc:
            return self._send_error_json(400, str(exc), error_type="scan_path")
        except (OSError, ValueError, TypeError) as exc:
            return self._send_error_json(400, f"bad submission: {exc}")
        try:
            job_id = gw.service.submit(spec)
        except AdmissionError as exc:
            gw.rec.count("http.jobs_rejected_429")
            return self._send_error_json(
                429,
                str(exc),
                headers={"Retry-After": f"{gw.retry_after_s:g}"},
                depth=exc.depth,
                max_depth=exc.max_depth,
            )
        except QueueClosedError as exc:
            gw.rec.count("http.jobs_rejected_503")
            # 503 is backpressure too (drain/restart windows): give clients
            # the same Retry-After hint the 429 path sends.
            return self._send_error_json(
                503, str(exc), headers={"Retry-After": f"{gw.retry_after_s:g}"}
            )
        except JobStateError as exc:
            return self._send_error_json(409, str(exc))
        except (TypeError, ValueError) as exc:  # unserialisable params etc.
            return self._send_error_json(400, f"bad submission: {exc}")
        except RuntimeError as exc:  # service closed
            return self._send_error_json(
                503, str(exc), headers={"Retry-After": f"{gw.retry_after_s:g}"}
            )
        self._send_json(
            201,
            {"job_id": job_id, "state": gw.service.status(job_id)["state"]},
            headers={"Location": f"/jobs/{job_id}"},
        )

    def _post_group(self, doc: dict[str, Any], driver: str, scan_name: str) -> None:
        """Submit a shard group (``"shards"`` object present in the body)."""
        gw = self.gateway
        shards = doc["shards"]
        if not isinstance(shards, dict):
            return self._send_error_json(400, "shards must be a JSON object")
        known = {"mode", "n_shards", "halo", "rounds", "sweeps_per_round", "seed"}
        unknown = set(shards) - known
        if unknown:
            return self._send_error_json(400, f"unknown shards fields {sorted(unknown)}")
        mode = shards.get("mode")
        if mode not in ("slices", "rows"):
            return self._send_error_json(
                400, f"shards.mode must be 'slices' or 'rows', got {mode!r}"
            )
        params = dict(doc.get("params") or {})
        priority = int(doc.get("priority") or 0)
        group_id = doc.get("job_id")
        coord = gw.coordinator
        try:
            if mode == "slices":
                extra = set(shards) - {"mode"}
                if extra:
                    return self._send_error_json(
                        400, f"shards fields {sorted(extra)} only apply to mode 'rows'"
                    )
                scans = gw.load_volume(scan_name)
                gid = coord.submit_volume(
                    scans,
                    driver=driver,
                    params=params,
                    priority=priority,
                    group_id=group_id,
                )
            else:
                if driver != "icd":
                    return self._send_error_json(
                        400,
                        f"rows-mode sharding runs sequential ICD children; "
                        f"driver must be 'icd', got {driver!r}",
                    )
                gid = coord.submit_sharded(
                    gw.load_scan(scan_name),
                    params=params,
                    n_shards=int(shards.get("n_shards", 2)),
                    halo=int(shards.get("halo", 1)),
                    rounds=int(shards.get("rounds", 2)),
                    sweeps_per_round=int(shards.get("sweeps_per_round", 1)),
                    seed=int(shards.get("seed", 0)),
                    priority=priority,
                    group_id=group_id,
                )
        except ScanPathError as exc:
            return self._send_error_json(400, str(exc), error_type="scan_path")
        except (OSError, ValueError, TypeError) as exc:
            return self._send_error_json(400, f"bad sharded submission: {exc}")
        except AdmissionError as exc:
            gw.rec.count("http.jobs_rejected_429")
            return self._send_error_json(
                429, str(exc), headers={"Retry-After": f"{gw.retry_after_s:g}"}
            )
        except (QueueClosedError, RuntimeError) as exc:
            gw.rec.count("http.jobs_rejected_503")
            return self._send_error_json(
                503, str(exc), headers={"Retry-After": f"{gw.retry_after_s:g}"}
            )
        self._send_json(
            201,
            {"job_id": gid, "state": coord.status(gid)["state"], "group": True},
            headers={"Location": f"/jobs/{gid}"},
        )

    def _get_status(self, job_id: str) -> None:
        if self.gateway.has_group(job_id):
            return self._send_json(200, self.gateway.coordinator.status(job_id))
        try:
            snap = self.gateway.service.status(job_id)
        except EvictedJobError as exc:
            return self._send_error_json(410, str(exc), evicted=True)
        except UnknownJobError:
            return self._send_error_json(404, f"unknown job id {job_id!r}")
        self._send_json(200, snap)

    def _get_result(self, job_id: str) -> None:
        gw = self.gateway
        if gw.has_group(job_id):
            return self._get_group_result(job_id)
        try:
            job = gw.service.job(job_id)
        except EvictedJobError as exc:
            return self._send_error_json(410, str(exc), evicted=True)
        except UnknownJobError:
            return self._send_error_json(404, f"unknown job id {job_id!r}")
        timeout = self._query().get("timeout")
        if timeout is not None:
            try:
                # Capped: a handler thread must not be parkable forever by a
                # client-supplied wait.
                job.wait(min(max(0.0, float(timeout)), 300.0))
            except ValueError:
                return self._send_error_json(400, f"bad timeout {timeout!r}")
        state = job.state
        if state is JobState.FAILED:
            return self._send_error_json(500, f"job failed: {job.error}", state=state.value)
        if state is JobState.CANCELLED:
            return self._send_error_json(410, "job was cancelled", state=state.value)
        if state is not JobState.DONE or job.result is None:
            return self._send_error_json(
                409,
                f"job is {state.value}; result not available yet",
                headers={"Retry-After": f"{gw.retry_after_s:g}"},
                state=state.value,
            )
        # save_reconstruction writes atomically to a path; spool through a
        # temp file to reuse the exact on-disk npz container byte format.
        with tempfile.TemporaryDirectory(prefix="repro-http-") as tmp:
            path = Path(tmp) / "result.npz"
            save_reconstruction(
                path,
                job.result.image,
                getattr(job.result, "history", None),
                metadata={
                    "job_id": job_id,
                    "driver": job.spec.driver,
                    "from_cache": job.from_cache,
                },
            )
            body = path.read_bytes()
        self._send_bytes(
            200,
            body,
            "application/octet-stream",
            headers={
                "Content-Disposition": f'attachment; filename="{job_id}.npz"',
                "X-Repro-From-Cache": str(job.from_cache).lower(),
            },
        )

    def _get_group_result(self, job_id: str) -> None:
        """Stream a group's stitched volume (same npz container as jobs)."""
        gw = self.gateway
        group = gw.coordinator.group(job_id)
        timeout = self._query().get("timeout")
        if timeout is not None:
            try:
                group.wait(min(max(0.0, float(timeout)), 300.0))
            except ValueError:
                return self._send_error_json(400, f"bad timeout {timeout!r}")
        snap = group.snapshot()
        state = snap["state"]
        if state == "FAILED":
            return self._send_error_json(500, f"group failed: {group.error}", state=state)
        if state == "CANCELLED":
            return self._send_error_json(410, "group was cancelled", state=state)
        if state != "DONE" or group.result is None:
            return self._send_error_json(
                409,
                f"group is {state}; stitched result not available yet",
                headers={"Retry-After": f"{gw.retry_after_s:g}"},
                state=state,
            )
        entry = group.result
        with tempfile.TemporaryDirectory(prefix="repro-http-") as tmp:
            path = Path(tmp) / "result.npz"
            save_reconstruction(
                path,
                entry.image,
                entry.history,
                metadata={"job_id": job_id, **entry.metadata},
            )
            body = path.read_bytes()
        self._send_bytes(
            200,
            body,
            "application/octet-stream",
            headers={"Content-Disposition": f'attachment; filename="{job_id}.npz"'},
        )

    def _delete_job(self, job_id: str) -> None:
        if self.gateway.has_group(job_id):
            cancelled = self.gateway.coordinator.cancel(job_id)
            return self._send_json(202, {"job_id": job_id, "cancel_requested": cancelled})
        try:
            cancelled = self.gateway.service.cancel(job_id)
        except EvictedJobError as exc:
            return self._send_error_json(410, str(exc), evicted=True)
        except UnknownJobError:
            return self._send_error_json(404, f"unknown job id {job_id!r}")
        self._send_json(202, {"job_id": job_id, "cancel_requested": cancelled})

    def _get_metrics(self) -> None:
        self._send_bytes(200, self.gateway.metrics_text().encode(), _PROMETHEUS_CONTENT_TYPE)
