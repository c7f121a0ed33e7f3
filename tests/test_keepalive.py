"""HTTP/1.1 persistent connections on ``repro serve``.

Raw sockets, so every byte on the stream is visible: several requests on
one connection, HEAD framing, the ``Connection: close`` rules for a
request body the server did not read, the idle timeout's ``408`` for a
stalled body, and drain/stop closing idle kept-alive connections at once.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro import obs
from repro import service as service_module
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultRule, clear_faults, install_faults
from repro.service import RecommenderService

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]

RECOMMEND = json.dumps({"activity": ["potatoes", "carrots"], "k": 5}).encode()


@pytest.fixture
def make_service(request):
    """Factory for started services on a fresh registry; all stopped at
    teardown, with any fault injector cleared."""
    previous_registry = obs.set_registry(MetricsRegistry())
    started = []

    def factory(**kwargs):
        model = AssociationGoalModel.from_pairs(PAIRS)
        server = RecommenderService(model, port=0, **kwargs).start()
        started.append(server)
        return server

    def teardown():
        clear_faults()
        for server in started:
            server.stop()
        obs.disable()
        obs.set_registry(previous_registry)

    request.addfinalizer(teardown)
    return factory


class RawConnection:
    """One client socket that writes requests and parses responses by hand."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.reader = self.sock.makefile("rb")

    def send(
        self, method: str, path: str, body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> None:
        headers = {"Host": "test", **(headers or {})}
        if body and "Content-Length" not in headers:
            headers["Content-Length"] = str(len(body))
        head = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        self.sock.sendall(f"{method} {path} HTTP/1.1\r\n{head}\r\n".encode() + body)

    def response(self, head: bool = False) -> tuple[int, dict[str, str], bytes]:
        """``(status, lower-cased headers, body)`` of the next response."""
        status_line = self.reader.readline()
        assert status_line, "connection closed before a response"
        version, status, _reason = status_line.decode().split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b"" if head else self.reader.read(int(headers["content-length"]))
        return int(status), headers, body

    def request(
        self, method: str, path: str, body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        self.send(method, path, body, headers)
        return self.response(head=method == "HEAD")

    def at_eof(self) -> bool:
        """``True`` if the server has closed the connection."""
        try:
            return self.reader.read(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture
def connect(request):
    """Open :class:`RawConnection` s to a service; closed at teardown."""
    opened: list[RawConnection] = []

    def factory(service: RecommenderService) -> RawConnection:
        conn = RawConnection(service.port)
        opened.append(conn)
        return conn

    request.addfinalizer(lambda: [conn.close() for conn in opened])
    return factory


def _keep_alive(conn: RawConnection) -> None:
    """One request that leaves ``conn`` open (and idle) on the server."""
    status, headers, _ = conn.request("GET", "/health")
    assert status == 200
    assert "connection" not in headers


class TestPersistentConnections:
    def test_requests_share_one_accepted_connection(
        self, make_service, connect, monkeypatch
    ):
        accepted = []
        original = service_module._Server.process_request

        def counting(server, request, client_address):
            accepted.append(client_address)
            original(server, request, client_address)

        monkeypatch.setattr(service_module._Server, "process_request", counting)
        conn = connect(make_service())
        ids = set()
        for _ in range(5):
            status, headers, body = conn.request("POST", "/recommend", RECOMMEND)
            assert status == 200
            assert "connection" not in headers
            assert json.loads(body)["recommendations"]
            ids.add(headers["x-request-id"])
        assert len(ids) == 5
        assert len(accepted) == 1

    def test_head_then_get_on_one_socket(self, make_service, connect):
        conn = connect(make_service())
        head_status, head_headers, head_body = conn.request("HEAD", "/health")
        status, headers, body = conn.request("GET", "/health")
        assert head_status == status == 200
        assert head_body == b""
        assert head_headers["content-length"] == headers["content-length"]
        assert len(body) == int(headers["content-length"])
        assert json.loads(body)["status"] == "ok"

    def test_invalid_json_with_full_body_keeps_the_connection(
        self, make_service, connect
    ):
        conn = connect(make_service())
        status, headers, body = conn.request("POST", "/recommend", b"{not json")
        assert status == 400
        assert json.loads(body)["error"] == "invalid JSON body"
        assert "connection" not in headers
        status, _, _ = conn.request("POST", "/recommend", RECOMMEND)
        assert status == 200

    def test_idle_connections_do_not_take_admission_slots(
        self, make_service, connect
    ):
        # One queue slot absorbs the race between a handler writing its
        # response and releasing its execution slot.
        service = make_service(
            max_inflight=1, max_queue=1, queue_timeout_seconds=2.0
        )
        idle = [connect(service) for _ in range(3)]
        for conn in idle:
            _keep_alive(conn)
        for conn in (connect(service), *idle):
            status, _, _ = conn.request("POST", "/recommend", RECOMMEND)
            assert status == 200

    def test_client_reset_between_requests_is_quiet(
        self, make_service, connect, capfd
    ):
        service = make_service()
        conn = connect(service)
        _keep_alive(conn)
        # SO_LINGER 0: close() sends RST instead of FIN.
        conn.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        conn.close()
        deadline = time.monotonic() + 5.0
        while service._server._connections:
            assert time.monotonic() < deadline, "handler never saw the reset"
            time.sleep(0.01)
        assert "Traceback" not in capfd.readouterr().err
        status, _, _ = connect(service).request("GET", "/health")
        assert status == 200


#: Requests whose body the server does not read, and the status it answers.
UNREAD_BODIES = {
    "oversized": (
        "POST", "/recommend", b"", {"Content-Length": str(2 << 20)}, 400,
    ),
    "malformed-length": (
        "POST", "/recommend", b"{}", {"Content-Length": "banana"}, 400,
    ),
    "chunked": (
        "POST", "/recommend", b"2\r\n{}\r\n0\r\n\r\n",
        {"Transfer-Encoding": "chunked"}, 400,
    ),
    "unknown-path": ("POST", "/nope", RECOMMEND, {}, 404),
    "wrong-method": ("POST", "/health", RECOMMEND, {}, 405),
    "unsupported-method": ("PATCH", "/recommend", RECOMMEND, {}, 501),
}


class TestConnectionClose:
    @pytest.mark.parametrize("case", sorted(UNREAD_BODIES))
    def test_unread_body_closes_the_connection(self, make_service, connect, case):
        method, path, body, headers, expected = UNREAD_BODIES[case]
        conn = connect(make_service())
        _keep_alive(conn)
        status, response_headers, _ = conn.request(method, path, body, headers)
        assert status == expected
        assert response_headers["connection"] == "close"
        assert conn.at_eof()

    def test_shed_429_closes_the_connection(self, make_service, connect):
        service = make_service(max_inflight=1, max_queue=0)
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=600.0)])
        )
        occupant = connect(service)
        occupant.send("POST", "/recommend", RECOMMEND)
        deadline = time.monotonic() + 5.0
        while service.admission.active() == 0:
            assert time.monotonic() < deadline, "slow request never admitted"
            time.sleep(0.01)
        conn = connect(service)
        status, headers, _ = conn.request("POST", "/recommend", RECOMMEND)
        assert status == 429
        assert headers["connection"] == "close"
        assert conn.at_eof()
        status, headers, _ = occupant.response()
        assert status == 200
        assert "connection" not in headers

    def test_draining_closes_the_connection(self, make_service, connect):
        service = make_service()
        conn, probe = connect(service), connect(service)
        _keep_alive(conn)
        _keep_alive(probe)
        with service._inflight_lock:
            service._draining = True
        try:
            status, headers, _ = conn.request("POST", "/recommend", RECOMMEND)
            assert status == 503
            assert headers["connection"] == "close"
            assert conn.at_eof()
            status, headers, _ = probe.request("GET", "/health")
            assert status == 200
            assert headers["connection"] == "close"
            assert probe.at_eof()
        finally:
            with service._inflight_lock:
                service._draining = False

    def test_stalled_body_answers_408_within_the_idle_timeout(
        self, make_service, connect
    ):
        conn = connect(make_service())
        _keep_alive(conn)
        start = time.monotonic()
        conn.send("POST", "/recommend", b'{"activity": ',
                  headers={"Content-Length": "64"})
        status, headers, body = conn.response()
        elapsed = time.monotonic() - start
        assert status == 408
        assert json.loads(body)["error"] == "request body timed out"
        assert headers["connection"] == "close"
        assert conn.at_eof()
        assert elapsed < service_module._IDLE_TIMEOUT_SECONDS + 1.0


class TestDrainAndStop:
    @pytest.mark.parametrize("how", ["drain", "stop"])
    def test_idle_connection_reads_eof_once_it_returns(
        self, make_service, connect, how
    ):
        service = make_service()
        conn = connect(service)
        _keep_alive(conn)
        start = time.monotonic()
        if how == "drain":
            assert service.drain(timeout=10.0) is True
        else:
            service.stop()
        # Closing idle connections does not wait out the drain timeout.
        assert time.monotonic() - start < 5.0
        conn.sock.settimeout(2.0)
        assert conn.at_eof()
        try:
            conn.send("GET", "/health")
        except OSError:
            return  # the peer is gone: nothing can be answered
        assert conn.at_eof()

    def test_inflight_request_finishes_then_its_connection_closes(
        self, make_service, connect
    ):
        service = make_service()
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=400.0)])
        )
        conn = connect(service)
        _keep_alive(conn)
        conn.send("POST", "/recommend", RECOMMEND)
        deadline = time.monotonic() + 5.0
        while service.admission.active() == 0:
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.01)
        drainer = threading.Thread(target=service.drain, kwargs={"timeout": 10.0})
        drainer.start()
        status, headers, body = conn.response()
        drainer.join(10.0)
        assert status == 200
        assert json.loads(body)["recommendations"]
        assert headers["connection"] == "close"
        assert conn.at_eof()
