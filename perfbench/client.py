"""Open-loop HTTP/1.1 load generator over a bounded set of connections.

One process, one asyncio loop, at most ``max_conns`` TCP connections open at
once.  Each request carries the time it is *due*; a connection task takes the
next request in schedule order, waits until it is due, and sends it.  When
every connection is busy the request waits in the client, and that wait is
charged to it: latency is measured from the due time, never from the send
time, so a server stall shows up in every request scheduled behind it (no
coordinated omission).  The send lag (sent - due) is recorded per request.

Connections are reused whenever the server allows it (HTTP/1.1 without
``Connection: close``, or HTTP/1.0 with ``Connection: keep-alive``); the
number of connections opened is counted so a keep-alive change in the server
becomes visible as ``conns_per_req`` dropping below 1.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Request:
    """One scheduled request; ``due`` is seconds after the run starts."""

    due: float
    method: str
    path: str
    body: bytes = b""
    rid: str = ""
    kind: str = "read"
    #: Index (in the same run) of a request that must complete first.
    after: int | None = None


@dataclass
class Result:
    """What happened to one request; times are ``perf_counter`` seconds."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from the due time to the last response byte."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent this request late."""
        return self.sent - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent


@dataclass
class RunStats:
    results: list[Result | None] = field(default_factory=list)
    conns_opened: int = 0
    aborted: bool = False
    start: float = 0.0


class _Conn:
    def __init__(self) -> None:
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class OpenLoopClient:
    """Drive a schedule of :class:`Request` against ``host:port``.

    ``abort_lag`` (seconds) stops the run early once a *read* would be sent
    that late: the backlog is growing and the rest of the schedule would
    only measure the queue.  Unsent reads are left as ``None`` (not
    attempted); mutations are always sent so a write stream stays paired.
    """

    def __init__(
        self, host: str, port: int, max_conns: int, timeout: float = 10.0
    ) -> None:
        if max_conns < 1:
            raise ValueError("max_conns must be >= 1")
        self.host = host
        self.port = port
        self.max_conns = max_conns
        self.timeout = timeout

    def run(
        self, requests: list[Request], abort_lag: float | None = None
    ) -> RunStats:
        return asyncio.run(self._run(requests, abort_lag))

    async def _run(
        self, requests: list[Request], abort_lag: float | None
    ) -> RunStats:
        stats = RunStats(results=[None] * len(requests))
        finished = {
            req.after: asyncio.Event()
            for req in requests if req.after is not None
        }
        cursor = iter(range(len(requests)))
        stats.start = time.perf_counter() + 0.005
        tasks = [
            asyncio.create_task(
                self._connection(requests, cursor, stats, finished, abort_lag)
            )
            for _ in range(min(self.max_conns, max(1, len(requests))))
        ]
        for task in tasks:
            await task
        return stats

    async def _connection(
        self,
        requests: list[Request],
        cursor: Iterator[int],
        stats: RunStats,
        finished: dict[int, asyncio.Event],
        abort_lag: float | None,
    ) -> None:
        conn = _Conn()
        try:
            for index in cursor:
                req = requests[index]
                due = stats.start + req.due
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if req.after is not None:
                    await finished[req.after].wait()
                if req.kind == "read":
                    if stats.aborted:
                        continue
                    if (
                        abort_lag is not None
                        and time.perf_counter() - due > abort_lag
                    ):
                        stats.aborted = True
                        continue
                result = Result(due=due)
                stats.results[index] = result
                try:
                    await asyncio.wait_for(
                        self._exchange(conn, req, result, stats), self.timeout
                    )
                except (OSError, asyncio.TimeoutError, ValueError,
                        asyncio.IncompleteReadError) as exc:
                    result.error = type(exc).__name__
                    result.done = time.perf_counter()
                    conn.close()
                event = finished.get(index)
                if event is not None:
                    event.set()
        finally:
            conn.close()

    async def _exchange(
        self, conn: _Conn, req: Request, result: Result, stats: RunStats
    ) -> None:
        head = (
            f"{req.method} {req.path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"X-Request-Id: {req.rid}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(req.body)}\r\n\r\n"
        ).encode("ascii")
        result.sent = time.perf_counter()
        status_line = b""
        for _attempt in range(2):
            reused = conn.writer is not None
            if not reused:
                conn.reader, conn.writer = await asyncio.open_connection(
                    self.host, self.port
                )
                stats.conns_opened += 1
            assert conn.reader is not None and conn.writer is not None
            try:
                conn.writer.write(head + req.body)
                await conn.writer.drain()
                status_line = await conn.reader.readline()
            except ConnectionError:
                if not reused:
                    raise
                status_line = b""
            if status_line or not reused:
                break
            # The server closed an idle kept-alive connection before it
            # read this request: resend once on a fresh connection.
            conn.close()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        version, status, _reason = status_line.decode("latin-1").split(" ", 2)
        headers: dict[str, str] = {}
        while True:
            line = await conn.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        result.body = await conn.reader.readexactly(length)
        result.done = time.perf_counter()
        result.status = int(status)
        connection = headers.get("connection", "").lower()
        keep = (
            connection != "close" if version == "HTTP/1.1"
            else connection == "keep-alive"
        )
        if not keep:
            conn.close()
