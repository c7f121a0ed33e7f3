"""Multi-worker serving (``repro serve --workers N``), subprocess-driven.

Four contracts, each against real forked pools started through the CLI
(fork inside a threaded test process is not safe, so every server here
is its own process tree):

- **bit-parity** — a pool's response bodies are byte-identical to the
  single-process server's, pinned with the same CRC32 technique as the
  bench suite;
- **hot reload under load** — mutations land on every worker in the
  same order while request traffic keeps flowing, and the pool converges
  to one (generation, implementations) pair;
- **SIGTERM drains all workers** — the parent fans the drain out and the
  whole tree exits cleanly, within the drain timeout even right after
  traffic on a shared listener or with idle kept-alive clients;
- **crash restarts** — a SIGKILLed worker is respawned under the restart
  budget and the pool keeps serving.
"""

from __future__ import annotations

import fcntl
import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import zlib
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

START_TIMEOUT = 45.0


@pytest.fixture(scope="module")
def library_path(tmp_path_factory):
    from repro.data import FoodMartConfig, generate_foodmart
    from repro.storage import JsonLibraryStore

    dataset = generate_foodmart(FoodMartConfig.tiny(), seed=0)
    path = tmp_path_factory.mktemp("multiworker") / "lib.json"
    JsonLibraryStore(path).save(dataset.library)
    return path


@pytest.fixture(scope="module")
def action_labels(library_path):
    payload = json.loads(library_path.read_text())
    labels = sorted(
        {a for impl in payload["implementations"] for a in impl["actions"]}
    )
    assert len(labels) >= 10
    return labels


class ServerProcess:
    """One ``repro serve`` subprocess plus its parsed base URL."""

    def __init__(self, library: Path, workers: int, *extra: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--library", str(library), "--port", "0",
                "--workers", str(workers), "--history-window", "0",
                "--no-tracing", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port = self._await_banner()
        self.url = f"http://127.0.0.1:{self.port}"

    def _await_banner(self) -> int:
        banner: list[str] = []

        def read() -> None:
            assert self.proc.stdout is not None
            banner.append(self.proc.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if reader.is_alive() or not banner or " on http://" not in banner[0]:
            self.stop()
            raise AssertionError(
                f"server did not start: {banner!r}\n{self.stderr_tail()}"
            )
        match = re.search(r" on http://[\d.]+:(\d+)", banner[0])
        if match is None:
            self.stop()
            raise AssertionError(f"no port in banner: {banner[0]!r}")
        return int(match.group(1))

    def stderr_tail(self) -> str:
        try:
            self.proc.kill()
            _out, err = self.proc.communicate(timeout=10)
            return err or ""
        except Exception:
            return ""

    def request(
        self, path: str, payload: dict | None = None, method: str | None = None
    ) -> tuple[int, bytes]:
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.url + path, data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def worker_pids(self) -> list[int]:
        """Direct worker children of the serve process, via /proc.

        Skips multiprocessing's ``resource_tracker`` helper, which is
        also forked off the parent but is not a serving worker.
        """
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            # field 4 (after the parenthesized comm) is ppid
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid == self.proc.pid and b"resource_tracker" not in cmdline:
                children.append(int(entry))
        return sorted(children)

    def stop(self, timeout: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        return self.proc.returncode


def _unique_requests(labels: list[str]) -> list[dict]:
    """Distinct recommend payloads (unique activity sets → never cached)."""
    pairs = [
        sorted({labels[i % len(labels)], labels[(i + 1) % len(labels)]})
        for i in range(min(48, len(labels) - 1))
    ]
    assert len({tuple(p) for p in pairs}) == len(pairs)
    return [{"activity": pair, "k": 5} for pair in pairs]


def _crc_responses(server: ServerProcess, payloads: list[dict]) -> int:
    digest = 0
    for payload in payloads:
        status, body = server.request("/recommend", payload)
        assert status == 200, body
        assert json.loads(body)["cached"] is False
        digest = zlib.crc32(body, digest)
    return digest


class TestBitParity:
    def test_pool_responses_match_single_process_bytes(
        self, library_path, action_labels
    ):
        payloads = _unique_requests(action_labels)
        single = ServerProcess(library_path, 1)
        try:
            reference = _crc_responses(single, payloads)
        finally:
            single.stop()
        pool = ServerProcess(library_path, 2)
        try:
            # The requests spread across both workers: every response must
            # still be byte-identical to the single process, whoever answers.
            assert _crc_responses(pool, payloads) == reference
        finally:
            assert pool.stop() == 0


def _metric(text: str, name: str) -> float | None:
    match = re.search(
        rf"^{name}(?:{{[^}}]*}})? (\S+)$", text, flags=re.MULTILINE
    )
    return None if match is None else float(match.group(1))


class TestGenerationZero:
    def test_workers_index_nothing_before_the_first_read(self, library_path):
        """Every worker serves the parent's model through the arena engine:
        no worker records a ``from_library`` build for generation 0."""
        pool = ServerProcess(library_path, 2)
        try:
            builds: dict[float, float] = {}
            deadline = time.monotonic() + 15
            while len(builds) < 2 and time.monotonic() < deadline:
                status, body = pool.request("/metrics")
                assert status == 200
                text = body.decode()
                index = _metric(text, "repro_worker_index")
                assert index is not None
                builds[index] = _metric(text, "repro_model_build_seconds_count") or 0
            assert builds and set(builds.values()) == {0}, builds
        finally:
            assert pool.stop() == 0


class TestHotReloadUnderLoad:
    def test_mutations_converge_across_workers_under_traffic(
        self, library_path, action_labels
    ):
        pool = ServerProcess(library_path, 2)
        errors: list[str] = []
        stop = threading.Event()

        def hammer(offset: int) -> None:
            i = 0
            while not stop.is_set():
                payload = {
                    "activity": [action_labels[(i + offset) % len(action_labels)]],
                    "k": 3,
                }
                status, body = pool.request("/recommend", payload)
                if status >= 500:
                    errors.append(f"{status}: {body!r}")
                i += 1

        threads = [
            threading.Thread(target=hammer, args=(i * 11,), daemon=True)
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            added: list[int] = []
            for i in range(5):
                status, body = pool.request(
                    "/model/implementations",
                    {
                        "implementations": [
                            {
                                "goal": f"hot_goal_{i}",
                                "actions": [action_labels[0], f"hot_act_{i}"],
                            }
                        ]
                    },
                    method="PUT",
                )
                assert status == 200, body
                added.extend(json.loads(body)["added"])
            status, body = pool.request(
                f"/model/implementations/{added[0]}", method="DELETE"
            )
            assert status == 200, body
            stop.set()
            for thread in threads:
                thread.join(10)
            assert not errors, errors[:5]

            # Every worker applies the same mutation sequence, but the ack
            # only covers the origin worker — siblings catch up over their
            # control pipes.  Poll until the whole pool reports the final
            # (generation, implementations) pair: 5 adds + 1 remove.
            expected = (6, 120 + 5 - 1)
            deadline = time.monotonic() + 15
            states: set[tuple[int, int]] = set()
            while time.monotonic() < deadline:
                states = set()
                for _ in range(8):
                    status, body = pool.request("/health")
                    assert status == 200
                    health = json.loads(body)
                    states.add(
                        (health["generation"], health["implementations"])
                    )
                if states == {expected}:
                    break
                time.sleep(0.2)
            assert states == {expected}

            # The surviving hot adds are recommendable on any worker.
            for _ in range(4):
                status, body = pool.request(
                    "/recommend", {"activity": ["hot_act_4"], "k": 5}
                )
                assert status == 200
                actions = [
                    row["action"]
                    for row in json.loads(body)["recommendations"]
                ]
                assert action_labels[0] in actions
        finally:
            stop.set()
            code = pool.stop()
        assert code == 0


class TestSigtermDrain:
    def test_sigterm_drains_every_worker(self, library_path):
        pool = ServerProcess(library_path, 2)
        workers = pool.worker_pids()
        assert len(workers) == 2
        pool.proc.send_signal(signal.SIGTERM)
        pool.proc.wait(30)
        _out, err = pool.proc.communicate(timeout=10)
        assert pool.proc.returncode == 0
        assert "draining 2 workers" in err
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid in workers if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.1)
        assert not alive, f"workers survived the drain: {alive}"


class TestSigtermAfterTraffic:
    """Regression: a ``--port 0`` pool must stop promptly after traffic.

    The workers share one parent-bound listener, so a connection wakes
    every idle worker's selector.  With a blocking listener the losers of
    the accept race sat in ``accept()``, where ``shutdown()`` cannot reach
    them, and SIGTERM hung until the supervisor's drain timeout expired.
    """

    DRAIN_TIMEOUT = 5.0
    TRIALS = 3

    def test_pool_exits_within_drain_timeout_after_mutations(
        self, library_path, action_labels
    ):
        for trial in range(self.TRIALS):
            pool = ServerProcess(
                library_path, 2, "--drain-timeout", str(self.DRAIN_TIMEOUT)
            )
            stop = threading.Event()

            def hammer(offset: int) -> None:
                i = 0
                while not stop.is_set():
                    label = action_labels[(i + offset) % len(action_labels)]
                    pool.request("/recommend", {"activity": [label], "k": 3})
                    i += 1

            threads = [
                threading.Thread(target=hammer, args=(i * 7,), daemon=True)
                for i in range(2)
            ]
            try:
                for thread in threads:
                    thread.start()
                added: list[int] = []
                for i in range(3):
                    status, body = pool.request(
                        "/model/implementations",
                        {
                            "implementations": [
                                {
                                    "goal": f"sigterm_goal_{i}",
                                    "actions": [action_labels[1], f"sig_{i}"],
                                }
                            ]
                        },
                        method="PUT",
                    )
                    assert status == 200, body
                    added.extend(json.loads(body)["added"])
                status, body = pool.request(
                    f"/model/implementations/{added[0]}", method="DELETE"
                )
                assert status == 200, body
            finally:
                stop.set()
                for thread in threads:
                    thread.join(10)
            workers = pool.worker_pids()
            pool.proc.send_signal(signal.SIGTERM)
            try:
                pool.proc.wait(self.DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                pool.stop()
                for pid in workers:  # a hung worker outlives its parent
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                pytest.fail(
                    f"trial {trial}: pool still running "
                    f"{self.DRAIN_TIMEOUT:g}s after SIGTERM"
                )
            _out, err = pool.proc.communicate(timeout=10)
            assert pool.proc.returncode == 0, err
            assert "did not drain in time" not in err, err


class TestSigtermWithIdleKeepAlive:
    """SIGTERM with idle kept-alive clients: drain closes their connections
    at once, so the server exits well within the drain timeout instead of
    waiting on handler threads parked between requests."""

    DRAIN_TIMEOUT = 5.0
    CLIENTS = 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exits_within_drain_timeout(self, library_path, workers):
        pool = ServerProcess(
            library_path, workers, "--drain-timeout", str(self.DRAIN_TIMEOUT)
        )
        clients = [
            http.client.HTTPConnection("127.0.0.1", pool.port, timeout=10)
            for _ in range(self.CLIENTS)
        ]
        try:
            for client in clients:
                sockets = set()
                for _ in range(2):
                    client.request("GET", "/health")
                    sockets.add(client.sock)
                    response = client.getresponse()
                    response.read()
                    assert response.status == 200
                assert len(sockets) == 1, "the connection was not kept alive"
            start = time.monotonic()
            pool.proc.send_signal(signal.SIGTERM)
            try:
                pool.proc.wait(self.DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                pool.stop()
                pytest.fail(
                    f"{workers} worker(s) still running "
                    f"{self.DRAIN_TIMEOUT:g}s after SIGTERM"
                )
            elapsed = time.monotonic() - start
            _out, err = pool.proc.communicate(timeout=10)
            assert pool.proc.returncode == 0, err
            assert "did not drain in time" not in err, err
            assert elapsed < self.DRAIN_TIMEOUT
            for client in clients:
                assert client.sock.recv(1) == b""
        finally:
            for client in clients:
                client.close()
            pool.stop()


class TestAdoptedListener:
    """The shared listener is non-blocking; accepted connections are not."""

    def test_accept_race_loser_gets_blocking_io_error(self):
        from repro.service import _build_server
        from repro.serving.workers import _build_parent_listener

        listener = _build_parent_listener("127.0.0.1", 0)
        server = _build_server(
            "127.0.0.1", 0, object, listen_socket=listener
        )
        try:
            assert listener.getblocking() is False
            with pytest.raises(BlockingIOError):
                server.get_request()
            client = socket.create_connection(listener.getsockname(), 5)
            try:
                select.select([listener], [], [], 5)
                conn, _addr = server.get_request()
                try:
                    assert conn.getblocking() is True
                    assert not fcntl.fcntl(conn, fcntl.F_GETFL) & os.O_NONBLOCK
                finally:
                    conn.close()
            finally:
                client.close()
        finally:
            server.server_close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class TestCrashRestart:
    def test_killed_worker_is_respawned_and_pool_keeps_serving(
        self, library_path
    ):
        pool = ServerProcess(library_path, 2)
        try:
            before = pool.worker_pids()
            assert len(before) == 2
            os.kill(before[0], signal.SIGKILL)
            deadline = time.monotonic() + 15
            respawned: list[int] = []
            while time.monotonic() < deadline:
                respawned = pool.worker_pids()
                if len(respawned) == 2 and respawned != before:
                    break
                time.sleep(0.2)
            assert len(respawned) == 2 and respawned != before
            # The replacement serves the same model state.
            deadline = time.monotonic() + 10
            seen_ok = 0
            while time.monotonic() < deadline and seen_ok < 6:
                status, body = pool.request("/health")
                if status == 200:
                    assert json.loads(body)["implementations"] == 120
                    seen_ok += 1
            assert seen_ok == 6
        finally:
            code = pool.stop()
        assert code == 0
