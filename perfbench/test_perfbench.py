"""Tests of the benchmark's own machinery: seeded schedules and the client.

Run with ``python3 -m pytest perfbench``; no server or library is needed.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from client import OpenLoopClient, Request
from workloads import WORKLOADS, LibraryShape, Traffic, schedule_bytes


def _shape() -> LibraryShape:
    impls = [
        (f"goal_{i % 40}", tuple(sorted({f"action_{(i * 7 + j * 3) % 180}"
                                         for j in range(8)})))
        for i in range(300)
    ]
    return LibraryShape(
        implementations=impls,
        goals=sorted({g for g, _ in impls}),
        actions=sorted({a for _, acts in impls for a in acts}),
    )


def _schedule(workload: str, seed: int) -> bytes:
    traffic = Traffic(WORKLOADS[workload], seed, _shape())
    fixed, _ = traffic.phase(50.0, 3.0)
    probe, _ = traffic.phase(80.0, 1.0)
    final = traffic.serial_mutations(2)
    return schedule_bytes(fixed + probe + final)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_schedule(workload):
    assert _schedule(workload, 7) == _schedule(workload, 7)
    assert _schedule(workload, 7) != _schedule(workload, 8)


def test_mutations_are_chained_and_predict_ids():
    traffic = Traffic(WORKLOADS["reload-pool"], 3, _shape())
    requests, reads = traffic.phase(20.0, 4.0)
    mutations = [i for i, read in enumerate(reads) if read is None]
    assert [requests[i].method for i in mutations] == ["PUT", "DELETE"] * 4
    assert requests[mutations[0]].after is None
    for before, after in zip(mutations, mutations[1:]):
        assert requests[after].after == before
    first_id = len(_shape().implementations)
    assert requests[mutations[1]].path == f"/model/implementations/{first_id}"


class _Stub(BaseHTTPRequestHandler):
    """Answers every POST after a fixed delay; ``X-Request-Id: stall`` waits
    longer.  ``protocol_version`` decides keep-alive."""

    delay = 0.002
    stall = 0.3

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        rid = self.headers.get("X-Request-Id", "")
        time.sleep(self.stall if rid == "stall" else self.delay)
        body = json.dumps({"rid": rid}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _serve(protocol: str):
    handler = type("Stub", (_Stub,), {"protocol_version": protocol})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _requests(count: int, gap: float, stall_at: int | None = None) -> list[Request]:
    return [
        Request(i * gap, "POST", "/", b"{}",
                rid="stall" if i == stall_at else f"r{i}")
        for i in range(count)
    ]


def test_stall_is_charged_to_requests_scheduled_behind_it():
    server, thread = _serve("HTTP/1.0")
    try:
        gap, stall_at = 0.01, 5
        stats = OpenLoopClient("127.0.0.1", server.server_address[1],
                               max_conns=1).run(_requests(60, gap, stall_at))
    finally:
        server.shutdown()
        thread.join(5)
    assert not thread.is_alive()
    results = stats.results
    assert all(r is not None and r.ok for r in results)
    stall_end = results[stall_at].done
    behind = [r for r in results[stall_at + 1:] if r.due < stall_end]
    assert len(behind) >= 20
    for r in behind:
        # Sent only after the stall released the connection, and timed
        # from when it was due: the stall is in its latency.
        assert r.sent >= stall_end
        assert r.latency >= stall_end - r.due
        assert r.lag > 0
    assert results[-1].latency < 0.05
    assert stats.conns_opened == len(results)


def test_keep_alive_reuses_connections():
    server, thread = _serve("HTTP/1.1")
    try:
        stats = OpenLoopClient("127.0.0.1", server.server_address[1],
                               max_conns=2).run(_requests(30, 0.005))
    finally:
        server.shutdown()
        thread.join(5)
    assert all(r is not None and r.ok for r in stats.results)
    assert stats.conns_opened <= 2
