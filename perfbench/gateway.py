"""The live gateway under test: a ``serve-http`` subprocess and its client.

:class:`Gateway` spawns ``python -m repro serve-http`` with process
workers in its own session, so :meth:`Gateway.stop` can reap the gateway
and every worker it forked.  :class:`Http` is a keep-alive HTTP/1.1
connection, one per client thread.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spec import GATEWAY_WORKERS, WORKER_MODEL

_LISTENING = re.compile(r"gateway listening on http://(?P<host>[^:/\s]+):(?P<port>\d+)")
_COUNTER = re.compile(r'^repro_counter_total\{name="(?P<name>[^"]+)"\} (?P<value>\S+)$')
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 20.0


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes


class Http:
    """One keep-alive connection to the gateway; counts 5xx answers."""

    def __init__(self, host: str, port: int, timeout_s: float = 90.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        self.server_errors = 0

    def request(self, method: str, path: str, body: bytes | None = None) -> Response:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=body, headers=headers)
                resp = self._conn.getresponse()
                data = resp.read()
                break
            except (ConnectionError, http.client.HTTPException):
                # The server may close an idle keep-alive socket; reconnect once.
                self._conn.close()
                if attempt:
                    raise
        if resp.status >= 500:
            self.server_errors += 1
        return Response(resp.status, {k.lower(): v for k, v in resp.getheaders()}, data)

    def close(self) -> None:
        self._conn.close()


class Gateway:
    """A running ``serve-http`` process (scan files under ``scan_root``)."""

    def __init__(self, root: Path, scan_root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        tmp = workdir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
        cmd = [
            sys.executable, "-u", "-m", "repro", "serve-http",
            "--port", "0",
            "--scan-root", str(scan_root),
            "--worker-model", WORKER_MODEL,
            "--workers", str(GATEWAY_WORKERS),
            "--checkpoint-root", str(workdir / "checkpoints"),
        ]
        self.log_path = workdir / "gateway.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                m = _LISTENING.search(line)
                if m:
                    return m.group("host"), int(m.group("port"))
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"gateway did not start; log:\n{self.log_tail()}")

    def client(self) -> Http:
        return Http(self.host, self.port)

    def log_tail(self, n: int = 20) -> str:
        self._log.flush()
        return "\n".join(self.log_path.read_text().splitlines()[-n:])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the gateway process, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported by /proc")

    def cpu_seconds(self) -> float:
        """CPU time (user + system) of the gateway and every worker it forked.

        The gateway's own ``/proc`` stat carries its time plus that of the
        workers it has reaped (each job's worker is joined before its
        result is served); workers still alive are added from their own
        stat.
        """
        total, pids = 0, [self.proc.pid]
        while pids:
            pid = pids.pop()
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
                # utime, stime, cutime, cstime: fields 14-17 of stat(5).
                total += sum(int(f) for f in fields[11:15])
                for task in Path(f"/proc/{pid}/task").iterdir():
                    pids += [int(c) for c in (task / "children").read_text().split()]
            except (FileNotFoundError, ProcessLookupError):
                continue  # a worker that exited between reads: reaped into its parent
        return total / os.sysconf("SC_CLK_TCK")

    def counters(self, http_client: Http) -> dict[str, float]:
        """The ``repro_counter_total`` samples of ``GET /metrics``."""
        resp = http_client.request("GET", "/metrics")
        out = {}
        for line in resp.body.decode().splitlines():
            m = _COUNTER.match(line)
            if m:
                out[m.group("name")] = float(m.group("value"))
        return out

    def stop(self) -> None:
        """SIGINT the gateway, then SIGKILL whatever is left of its session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:  # the session is already empty
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
