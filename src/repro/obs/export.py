"""Durable telemetry export: rotating JSONL files and the flight recorder.

Everything the in-process observability layer collects — span trees, the
metric families, quality events — dies with the process.  This module adds
the durable tail for postmortems:

- :class:`RotatingFileWriter` — a thread-safe, size-capped line writer with
  numbered-backup rotation (``file`` → ``file.1`` → … → ``file.N``).  It is
  shared by the flight recorder below and the ``--log-file`` handler in
  :mod:`repro.obs.logs`, so both honour one rotation policy.
- :class:`FlightRecorder` — a sampled JSONL exporter.  Request records are
  admitted by **head-based deterministic sampling** keyed on the request id
  (same id + same rate ⇒ same decision in every process, so multi-replica
  captures line up), then queued to a background writer thread; the serving
  thread pays one CRC and one deque append.  Quality/drift events bypass
  sampling — they are rare and always worth keeping.  The queue is bounded:
  when the writer falls behind, new records are dropped and counted rather
  than stalling request handling.
- :func:`iter_telemetry_records` — replay a telemetry directory oldest
  record first, used by ``repro telemetry report``.

Determinism: records are written in enqueue (FIFO) order by a single worker
thread and serialized with ``sort_keys=True``, so the same request stream
produces byte-identical JSONL modulo the ``ts`` fields (pinned by
``tests/test_flight_recorder.py``).  The clock is injectable for tests.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from collections import deque
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs import runtime

#: Sampling decisions compare ``crc32(request_id) % _SAMPLE_SPACE`` against
#: ``rate * _SAMPLE_SPACE`` — a million buckets keeps rates like ``0.001``
#: exact without floating-point drift between replicas.
_SAMPLE_SPACE = 10**6

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001): the
#: writer's file handle and counters are shared with the log handler's
#: emitting thread; the recorder's queue is shared between every serving
#: thread and the single writer thread.
_GUARDED_BY = {
    "RotatingFileWriter._handle": "_lock",
    "RotatingFileWriter._size": "_lock",
    "RotatingFileWriter._rotations": "_lock",
    "RotatingFileWriter._bytes_written": "_lock",
    "RotatingFileWriter._writer_closed": "_lock",
    "FlightRecorder._queue": "_cond",
    "FlightRecorder._recorder_closed": "_cond",
    "FlightRecorder._enqueued": "_cond",
    "FlightRecorder._written": "_cond",
    "FlightRecorder._dropped": "_cond",
}


class RotatingFileWriter:
    """Append lines to ``path``, rotating numbered backups at a size cap.

    Rotation shifts ``path`` → ``path.1`` → … → ``path.<backups>`` and
    drops the oldest, mirroring :class:`logging.handlers.RotatingFileHandler`
    semantics without binding the telemetry exporter to the logging stack.
    A line larger than ``max_bytes`` is still written whole (on a fresh
    file) — rotation caps file size, it never truncates records.
    """

    def __init__(
        self,
        path: Path,
        *,
        max_bytes: int = 4 << 20,
        backups: int = 4,
        on_rotate: Callable[[], None] | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self._on_rotate = on_rotate
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._size = self.path.stat().st_size
        self._rotations = 0
        self._bytes_written = 0
        self._writer_closed = False

    def _rotate_locked(self) -> None:
        """Shift the backup chain and reopen a fresh primary file."""
        self._handle.close()
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
        else:
            oldest = self.path.with_name(f"{self.path.name}.{self.backups}")
            oldest.unlink(missing_ok=True)
            for index in range(self.backups - 1, 0, -1):
                source = self.path.with_name(f"{self.path.name}.{index}")
                if source.exists():
                    source.rename(
                        self.path.with_name(f"{self.path.name}.{index + 1}")
                    )
            if self.path.exists():
                self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        self._handle = self.path.open("a", encoding="utf-8")
        self._size = 0
        self._rotations += 1

    def write_line(self, line: str) -> None:
        """Append ``line`` (newline added) and flush; rotates when full."""
        rotated = False
        data = line + "\n"
        encoded_size = len(data.encode("utf-8"))
        with self._lock:
            if self._writer_closed:
                raise ValueError("write to closed RotatingFileWriter")
            if self._size > 0 and self._size + encoded_size > self.max_bytes:
                self._rotate_locked()
                rotated = True
            self._handle.write(data)
            self._handle.flush()
            self._size += encoded_size
            self._bytes_written += encoded_size
        # The callback (metric bump, test hook) runs outside the lock so it
        # may itself log or write without deadlocking.
        if rotated and self._on_rotate is not None:
            self._on_rotate()

    def stats(self) -> dict[str, int]:
        """Rotation count and total bytes written over the writer's life."""
        with self._lock:
            return {
                "rotations": self._rotations,
                "bytes_written": self._bytes_written,
            }

    def close(self) -> None:
        """Flush and close the current file; idempotent."""
        with self._lock:
            if self._writer_closed:
                return
            self._writer_closed = True
            self._handle.close()


class FlightRecorder:
    """Sampled, size-capped, durable JSONL export of spans and events.

    The serving threads call :meth:`record_request` /
    :meth:`record_event`; a daemon worker thread serializes and writes, so
    disk latency never sits on the request path.  ``sample_rate`` admits a
    deterministic subset of request ids (:meth:`should_sample`); events
    recorded via :meth:`record_event` are never sampled out.
    """

    def __init__(
        self,
        directory: Path,
        *,
        sample_rate: float = 1.0,
        max_bytes: int = 4 << 20,
        backups: int = 4,
        queue_size: int = 2048,
        clock: Callable[[], float] = time.time,
        filename: str = "telemetry.jsonl",
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if queue_size <= 0:
            raise ValueError("queue_size must be positive")
        self.directory = Path(directory)
        self.sample_rate = sample_rate
        self.queue_size = queue_size
        self._clock = clock
        self._threshold = int(sample_rate * _SAMPLE_SPACE)
        self._writer = RotatingFileWriter(
            self.directory / filename,
            max_bytes=max_bytes,
            backups=backups,
            on_rotate=self._count_rotation,
        )
        self._cond = threading.Condition()
        self._queue: deque[dict[str, object]] = deque()
        self._recorder_closed = False
        self._enqueued = 0
        self._written = 0
        self._dropped: dict[str, int] = {}
        self._worker = threading.Thread(
            target=self._run, name="repro-flight-recorder", daemon=True
        )
        self._worker.start()

    # -- metric helpers --------------------------------------------------
    # One call site per family (RL003).  The registry memoizes its
    # children, so each call is one dict probe on the sampled-out path that
    # ``benchmarks/bench_quality_telemetry.py`` holds to its ≤10% budget.

    def _set_backlog(self, backlog: int) -> None:
        if runtime.metrics_enabled():
            obs_metrics.get_registry().gauge(
                "repro_telemetry_backlog",
                "Telemetry records queued for the flight-recorder writer thread.",
            ).set(backlog)

    def _count_record(self, kind: str) -> None:
        if runtime.metrics_enabled():
            obs_metrics.get_registry().counter(
                "repro_telemetry_records_total",
                "Telemetry records accepted by the flight recorder, by kind.",
                kind=kind,
            ).inc()

    def _count_drop(self, reason: str) -> None:
        if runtime.metrics_enabled():
            obs_metrics.get_registry().counter(
                "repro_telemetry_dropped_total",
                "Telemetry records not written, by reason (sampled = head-"
                "based sampling, backlog = full queue, closed = recorder "
                "shut down, error = serialization/write failure).",
                reason=reason,
            ).inc()

    def _count_rotation(self) -> None:
        if runtime.metrics_enabled():
            obs_metrics.get_registry().counter(
                "repro_telemetry_rotations_total",
                "Flight-recorder JSONL file rotations.",
            ).inc()

    # -- recording -------------------------------------------------------

    def should_sample(self, request_id: str) -> bool:
        """Deterministic head-based sampling decision for ``request_id``."""
        if self._threshold >= _SAMPLE_SPACE:
            return True
        if self._threshold <= 0:
            return False
        return zlib.crc32(request_id.encode("utf-8")) % _SAMPLE_SPACE < (
            self._threshold
        )

    def record_request(
        self,
        request_id: str,
        endpoint: str,
        method: str,
        status: int,
        elapsed: float,
        spans: list[dict[str, object]] | None = None,
        trace_id: str | None = None,
    ) -> None:
        """Record one served request (subject to sampling)."""
        if not self.should_sample(request_id):
            self._count_drop("sampled")
            return
        record: dict[str, object] = {
            "kind": "request",
            "ts": round(self._clock(), 6),
            "request_id": request_id,
            "endpoint": endpoint,
            "method": method,
            "status": status,
            "seconds": round(elapsed, 6),
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        if spans:
            record["spans"] = spans
        self._enqueue(record, kind="request")

    def record_event(
        self,
        kind: str,
        payload: dict[str, object],
        request_id: str | None = None,
    ) -> None:
        """Record a quality/drift/lifecycle event; never sampled out."""
        record: dict[str, object] = {
            "kind": kind,
            "ts": round(self._clock(), 6),
        }
        if request_id is not None:
            record["request_id"] = request_id
        for key, value in payload.items():
            record.setdefault(key, value)
        self._enqueue(record, kind=kind)

    def _enqueue(self, record: dict[str, object], kind: str) -> None:
        backlog = 0
        with self._cond:
            if self._recorder_closed:
                self._dropped["closed"] = self._dropped.get("closed", 0) + 1
                dropped = "closed"
            elif len(self._queue) >= self.queue_size:
                self._dropped["backlog"] = self._dropped.get("backlog", 0) + 1
                dropped = "backlog"
            else:
                self._queue.append(record)
                self._enqueued += 1
                backlog = len(self._queue)
                dropped = ""
                self._cond.notify_all()
        if dropped:
            self._count_drop(dropped)
            return
        self._count_record(kind)
        self._set_backlog(backlog)

    # -- worker ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._recorder_closed:
                    self._cond.wait()
                if not self._queue:  # closed and drained
                    return
                # Drain whole batches: one lock round-trip and one flusher
                # wake-up per burst instead of per record keeps the writer
                # from stealing interpreter time from the serving threads.
                batch = list(self._queue)
                self._queue.clear()
            for record in batch:
                try:
                    self._writer.write_line(
                        json.dumps(record, sort_keys=True, default=str)
                    )
                except Exception:  # noqa: BLE001 - must not kill the worker
                    self._count_drop("error")
            with self._cond:
                self._written += len(batch)
                backlog = len(self._queue)
                self._cond.notify_all()
            self._set_backlog(backlog)

    # -- introspection / lifecycle ---------------------------------------

    def backlog(self) -> int:
        """Records queued but not yet handed to the writer."""
        with self._cond:
            return len(self._queue)

    def snapshot(self) -> dict[str, object]:
        """Recorder state for ``/debug/vars`` and ``/debug/quality``."""
        with self._cond:
            state = {
                "backlog": len(self._queue),
                "enqueued": self._enqueued,
                "written": self._written,
                "dropped": dict(self._dropped),
            }
        stats = self._writer.stats()
        return {
            "directory": str(self.directory),
            "sample_rate": self.sample_rate,
            "rotations": stats["rotations"],
            "bytes_written": stats["bytes_written"],
            **state,
        }

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until the queue drains; ``False`` on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._queue or self._written < self._enqueued:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Drain the queue, stop the worker and close the file; idempotent."""
        with self._cond:
            if self._recorder_closed:
                return
            self._recorder_closed = True
            self._cond.notify_all()
        self._worker.join(timeout)
        self._writer.close()


def iter_telemetry_records(directory: Path) -> Iterator[dict[str, object]]:
    """Yield every record in a telemetry directory, oldest first.

    Walks rotated backups (``*.jsonl.N``, highest ``N`` first) before each
    primary ``*.jsonl`` file, so replay order matches write order.  Lines
    that fail to parse (a partial line from a killed process) are skipped —
    a flight recorder must replay what survived, not demand perfection.
    """
    directory = Path(directory)
    groups: dict[str, list[tuple[int, Path]]] = {}
    for path in directory.iterdir():
        if not path.is_file():
            continue
        name = path.name
        if name.endswith(".jsonl"):
            groups.setdefault(name, []).append((0, path))
        else:
            stem, _, suffix = name.rpartition(".")
            if stem.endswith(".jsonl") and suffix.isdigit():
                groups.setdefault(stem, []).append((int(suffix), path))
    for name in sorted(groups):
        for _, path in sorted(groups[name], reverse=True):
            with path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        yield record
