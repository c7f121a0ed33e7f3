"""Launch, probe, measure and stop ``repro serve`` subprocesses.

Every server runs in its own process group on an explicit free port (with
``--workers N`` that is the production ``SO_REUSEPORT`` path; ``--port 0``
falls back to an inherited listener, see README.md).  Stops are bounded:
SIGTERM to the leader, then SIGKILL to the whole group after a timeout.  A
stop that needed SIGKILL, or left a group member behind, is unclean.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

STOP_TIMEOUT = 15.0
EXIT_GRACE = 3.0
READY_TIMEOUT = 120.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def request(port: int, method: str, path: str, body: bytes | None = None,
            timeout: float = 30.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process tree."""

    def __init__(self, root: Path, library: Path, workers: int, log: Path,
                 trace_dir: Path | None = None) -> None:
        self.port = free_port()
        entry = (
            [str(root / "perfbench" / "traced_serve.py"), str(trace_dir)]
            if trace_dir is not None else ["-m", "repro.cli"]
        )
        self.argv = [
            sys.executable, *entry, "serve", "--library", str(library),
            "--port", str(self.port), "--workers", str(workers),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = log
        self.proc: subprocess.Popen[bytes] | None = None
        self.unclean_reason = ""

    def start(self, warm_body: bytes) -> float:
        """Spawn; return seconds until ``/health`` and one read answer 200.

        The ready banner is printed only once every worker is serving; the
        warm read makes the lazily built engine part of set-up.
        """
        start = time.perf_counter()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                self.argv, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        deadline = start + READY_TIMEOUT
        while b"serving " not in self.log.read_bytes():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server did not start; see {self.log}"
                )
            time.sleep(0.01)
        status, _ = request(self.port, "GET", "/health")
        if status != 200:
            raise RuntimeError(f"/health answered {status}")
        status, body = request(self.port, "POST", "/recommend", warm_body)
        if status != 200:
            raise RuntimeError(f"warm read answered {status}: {body[:200]!r}")
        return time.perf_counter() - start

    def pids(self) -> list[int]:
        """The leader and its live descendants."""
        if self.proc is None:
            return []
        found = [self.proc.pid]
        for pid in found:
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    found.extend(int(p) for p in task.read_text().split())
                except OSError:
                    pass
        return found

    def pss_mb(self) -> float:
        total = 0
        for pid in self.pids():
            try:
                text = Path(f"/proc/{pid}/smaps_rollup").read_text()
            except OSError:
                continue
            for line in text.splitlines():
                if line.startswith("Pss:"):
                    total += int(line.split()[1])
                    break
        return total / 1024.0

    def stop(self) -> bool:
        """SIGTERM, then SIGKILL the group after STOP_TIMEOUT; True if clean."""
        if self.proc is None:
            return True
        proc, self.proc = self.proc, None
        self.unclean_reason = ""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.unclean_reason = f"no exit {STOP_TIMEOUT:g}s after SIGTERM"
        # Helpers of the pool (the shared-memory resource tracker) may need
        # a moment to exit after the leader; only a member that lingers
        # past the grace period counts as left behind.
        deadline = time.monotonic() + EXIT_GRACE
        members = _group_members(proc.pid)
        while members and time.monotonic() < deadline:
            time.sleep(0.02)
            members = _group_members(proc.pid)
        if members and not self.unclean_reason:
            self.unclean_reason = f"left behind: {members}"
        if members:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            deadline = time.monotonic() + 10.0
            while _group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
        return not self.unclean_reason


def _group_members(pgid: int) -> list[str]:
    """``pid:state`` of every process in ``pgid`` that is not a zombie."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(f"{stat.parent.name}:{fields[0]}")
    return members


class PssSampler:
    """Peak proportional set size of a server tree, sampled every second.

    Reading ``smaps_rollup`` takes the target's memory-map lock, so a
    faster cadence would itself slow the server's allocations.
    """

    def __init__(self, server: Server, interval: float = 1.0) -> None:
        self.server = server
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self.server.pss_mb())
            self._stop.wait(self.interval)

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, self.server.pss_mb())


def warm_body(first_actions: list[str]) -> bytes:
    return json.dumps(
        {"activity": first_actions, "strategy": "breadth", "k": 10}
    ).encode("utf-8")
