"""Pre-fork worker pool behind ``repro serve --workers N``.

One parent process owns the listen strategy, the shared-memory model
arena and the *serialization* of hot mutations; N forked children each
run a full single-process :class:`~repro.service.RecommenderService`
against a zero-copy reconstruction of the same CSR engine.

Listen strategy
    With an explicit ``--port`` and ``SO_REUSEPORT`` available, every
    worker binds the port itself and the kernel load-balances accepted
    connections.  Otherwise (``--port 0``, or no ``SO_REUSEPORT``) the
    parent binds one listener before forking and the children adopt the
    inherited socket — same load-balancing, one bind.

Mutation protocol
    Workers never mutate their model directly.  ``PUT``/``DELETE``
    handlers route through a :class:`_WorkerMutationRouter` installed on
    the worker's :class:`~repro.service.ModelManager`: the mutation
    travels to the parent over the worker's control pipe, the parent
    applies it to its own mutation log under the supervisor lock
    (validating it exactly once) and broadcasts an ordered ``apply``
    command to *every* worker over the same pipes.  Each worker's
    control thread replays the command through
    ``ModelManager.apply_add_implementations`` /
    ``apply_remove_implementation`` — identical mutation order plus the
    log's monotonic id counter means every process assigns the same
    implementation ids and reaches the same generation.

Generation 0
    The parent builds generation 0's engine once, from its mutation log
    (:func:`~repro.core.caching.build_served_view`), and packs its arrays
    into the arena.  Each worker inherits the engine's label tables
    through fork and rebuilds the engine zero-copy over the arena; its
    log (forked from the parent's) lists the same implementations under
    the same ids, so no worker indexes anything before its first read.

Lifecycle
    SIGTERM/SIGINT on the parent fans a ``drain`` command out to every
    worker (each runs the normal ``RecommenderService.drain()``); a
    crashed worker is reaped and respawned from the parent's *current*
    model state while the restart budget lasts, after which the pool
    keeps serving with fewer workers.

See docs/serving.md ("Multi-worker mode") for the operator's view.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.incremental import IncrementalGoalModel
from repro.core.model import LabelTables
from repro.exceptions import ModelError
from repro.resilience import active_injector, install_faults
from repro.serving.shared import SharedModelArena
from repro.utils.concurrency import make_lock

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001).
#: The supervisor lock serializes everything the parent does after the
#: first fork — mutations, broadcasts, reaping, respawning — so a
#: replacement worker always forks from a quiescent model (and never
#: inherits the parent's metrics-registry lock mid-operation: the parent
#: deliberately reports through plain stderr prints, not ``repro.obs``).
_GUARDED_BY = {
    "WorkerSupervisor._log": "_lock",
    "WorkerSupervisor._generation": "_lock",
    "WorkerSupervisor._mutations": "_lock",
    "WorkerSupervisor._pipes": "_lock",
    "WorkerSupervisor._procs": "_lock",
    "WorkerSupervisor._ready_ports": "_lock",
    "WorkerSupervisor._restarts_left": "_lock",
    "WorkerSupervisor._lock": "<final>",
    "_WorkerMutationRouter._pending": "_lock",
    "_WorkerMutationRouter._next_token": "_lock",
    "_WorkerMutationRouter._lock": "<final>",
}

#: How long a worker waits for the parent's verdict on one mutation
#: before failing the request.  Generous: the parent applies mutations
#: in-memory, so anything near this long means the parent is gone.
_MUTATION_TIMEOUT_SECONDS = 30.0

#: How long the pool waits for every worker's ``ready`` handshake.
_READY_TIMEOUT_SECONDS = 60.0

#: Backlog of the parent-bound listener (matches a busy ThreadingHTTPServer
#: better than the stdlib default of 5).
_LISTEN_BACKLOG = 128


@dataclass
class _WorkerConfig:
    """Everything one worker needs, passed through ``fork`` by reference."""

    index: int
    conn: Connection[Any, Any]
    host: str
    port: int
    log: IncrementalGoalModel
    labels: LabelTables | None
    arena: SharedModelArena | None
    initial_generation: int
    listen_socket: socket.socket | None
    reuse_port: bool
    drain_timeout: float
    parent_pid: int
    service_kwargs: dict[str, Any]


class _PendingMutation:
    """One in-flight mutation a request thread is blocked on."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: str | None = None


class _WorkerMutationRouter:
    """Worker-side half of the mutation protocol.

    Installed via ``ModelManager.set_mutation_router`` during the
    single-threaded worker bootstrap.  Request threads call
    :meth:`route_add` / :meth:`route_remove`; the control thread calls
    :meth:`resolve` once the parent's broadcast has been applied locally
    (or the parent rejected the mutation).
    """

    def __init__(self, index: int, conn: Connection[Any, Any]) -> None:
        self.index = index
        self._conn = conn
        self._lock = make_lock("_WorkerMutationRouter._lock")
        self._pending: dict[int, _PendingMutation] = {}
        self._next_token = 0

    def _submit(self, kind: str, payload: Any) -> _PendingMutation:
        with self._lock:
            token = self._next_token
            self._next_token += 1
            pending = _PendingMutation()
            self._pending[token] = pending
            # Send under the same lock: several request threads may
            # mutate concurrently and Connection.send is not atomic.
            self._conn.send(("mutate", token, kind, payload))
        return pending

    def _await(self, pending: _PendingMutation) -> Any:
        if not pending.event.wait(_MUTATION_TIMEOUT_SECONDS):
            raise ModelError(
                "mutation timed out waiting for the pool supervisor"
            )
        if pending.error is not None:
            raise ModelError(pending.error)
        return pending.result

    def route_add(self, pairs: list[tuple[Any, list[Any]]]) -> Any:
        """Serialize one add batch through the parent; returns
        ``(ids, snapshot)`` exactly like
        ``ModelManager.add_implementations``."""
        return self._await(self._submit("add", pairs))

    def route_remove(self, pid: int) -> Any:
        """Serialize one removal through the parent; returns the new
        ``ModelSnapshot``."""
        return self._await(self._submit("remove", pid))

    def resolve(
        self, token: int, result: Any = None, error: str | None = None
    ) -> None:
        """Wake the request thread waiting on ``token`` (control thread)."""
        with self._lock:
            pending = self._pending.pop(token, None)
        if pending is None:  # timed out and abandoned, or not ours
            return
        pending.result = result
        pending.error = error
        pending.event.set()


def _control_loop(
    manager: Any,
    router: _WorkerMutationRouter,
    conn: Connection[Any, Any],
    shutdown: threading.Event,
    parent_pid: int,
) -> None:
    """The worker's control thread: replay parent commands in order."""
    registry = obs.get_registry()
    commands = registry.counter(
        "repro_worker_control_commands_total",
        "Control-pipe commands processed by this worker, by command.",
        command="apply",
    )
    while not shutdown.is_set():
        try:
            if not conn.poll(1.0):
                # No command; make sure the parent is still there (pipe
                # EOF is unreliable: sibling workers inherit fd copies).
                if os.getppid() != parent_pid:
                    shutdown.set()
                    return
                continue
            message = conn.recv()
        except (EOFError, OSError):
            shutdown.set()
            return
        tag = message[0]
        if tag == "apply":
            _tag, kind, payload, origin, token = message
            commands.inc()
            result: Any = None
            error: str | None = None
            try:
                if kind == "add":
                    result = manager.apply_add_implementations(payload)
                else:
                    result = manager.apply_remove_implementation(payload)
            except ModelError as exc:  # parent validated: shouldn't happen
                error = str(exc)
            if origin == router.index and token is not None:
                router.resolve(token, result=result, error=error)
        elif tag == "mutate_error":
            _tag, token, text = message
            router.resolve(token, error=text)
        elif tag == "drain":
            shutdown.set()
            return


def _worker_main(config: _WorkerConfig) -> int:
    """Entry point of one forked worker process."""
    shutdown = threading.Event()

    def _on_signal(_signum: int, _frame: Any) -> None:
        shutdown.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    # Deterministic fault injection must diverge across the pool: with
    # the parent's RNG state inherited verbatim, every worker would
    # replay the *identical* fault sequence (see docs/resilience.md).
    injector = active_injector()
    if injector is not None:
        install_faults(injector.with_seed(injector.seed ^ config.index))

    if config.arena is not None:
        # This copy came through fork: never unlink the segment on exit.
        config.arena.mark_inherited()

    engine = None
    if config.arena is not None and config.labels is not None:
        from repro.core.vectorized import BatchRecommender

        engine = BatchRecommender.from_arrays(
            config.labels, config.arena.views()
        )

    kwargs = dict(config.service_kwargs)
    if kwargs.get("telemetry_dir") is not None:
        # One flight-recorder directory per worker: the JSONL rotation
        # protocol is single-writer.
        kwargs["telemetry_dir"] = (
            Path(kwargs["telemetry_dir"]) / f"worker-{config.index}"
        )

    from repro.service import RecommenderService

    # With an engine, generation 0 serves it and builds nothing.
    service = RecommenderService(
        config.log,
        host=config.host,
        port=config.port,
        reuse_port=config.reuse_port,
        listen_socket=config.listen_socket,
        initial_generation=config.initial_generation,
        engine=engine,
        **kwargs,
    )
    obs.get_registry().gauge(
        "repro_worker_index",
        "Index of this worker process within the multi-worker pool.",
    ).set(float(config.index))
    router = _WorkerMutationRouter(config.index, config.conn)
    service.manager.set_mutation_router(router)
    control = threading.Thread(
        target=_control_loop,
        args=(service.manager, router, config.conn, shutdown,
              config.parent_pid),
        name=f"repro-worker-{config.index}-control",
        daemon=True,
    )
    service.start()
    control.start()
    config.conn.send(("ready", config.index, service.port))
    shutdown.wait()
    clean = service.drain(timeout=config.drain_timeout)
    try:
        config.conn.close()
    except OSError:
        pass
    return 0 if clean else 1


def _worker_entry(config: _WorkerConfig) -> None:
    """Process target: never let a worker die silently."""
    try:
        sys.exit(_worker_main(config))
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(70)  # EX_SOFTWARE


class WorkerSupervisor:
    """The parent process of a ``--workers N`` pool.

    Owns the canonical mutation log (the serialization point for
    hot mutations), the worker processes with their control pipes, and
    the crash-restart budget.  Everything after the first fork happens
    under one lock so a respawned worker always forks from a consistent
    model snapshot.

    The supervisor reports through plain stderr prints instead of
    ``repro.obs``: it forks while its own threads run, and a child must
    never inherit the process-wide metrics registry with its lock held
    mid-operation.
    """

    def __init__(
        self,
        *,
        log: IncrementalGoalModel,
        labels: LabelTables | None,
        arena: SharedModelArena | None,
        host: str,
        port: int,
        workers: int,
        restart_budget: int,
        drain_timeout: float,
        listen_socket: socket.socket | None,
        service_kwargs: dict[str, Any],
    ) -> None:
        self._lock = make_lock("WorkerSupervisor._lock")
        self._log = log
        self._labels = labels
        self._arena = arena
        self._host = host
        self._port = port
        self._workers = workers
        self._drain_timeout = drain_timeout
        self._listener = listen_socket
        self._service_kwargs = service_kwargs
        self._ctx: Any = multiprocessing.get_context("fork")
        self._generation = 0
        self._mutations = 0
        self._pipes: dict[int, Connection[Any, Any]] = {}
        self._procs: dict[int, Any] = {}
        self._ready_ports: dict[int, int] = {}
        self._restarts_left = restart_budget
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _spawn_locked(self, index: int) -> None:
        """Fork worker ``index`` from the parent's current model state."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        config = _WorkerConfig(
            index=index,
            conn=child_conn,
            host=self._host,
            port=self._port,
            log=self._log,
            labels=self._labels,
            # The arena describes the *initial* engine's arrays; once a
            # mutation landed, a respawned worker builds from its log.
            arena=self._arena if self._mutations == 0 else None,
            initial_generation=self._generation,
            listen_socket=self._listener,
            reuse_port=self._listener is None,
            drain_timeout=self._drain_timeout,
            parent_pid=os.getpid(),
            service_kwargs=self._service_kwargs,
        )
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(config,),
            name=f"repro-worker-{index}",
        )
        proc.start()
        child_conn.close()  # the child keeps its copy
        self._pipes[index] = parent_conn
        self._procs[index] = proc
        reader = threading.Thread(
            target=self._reader_loop,
            args=(index, parent_conn),
            name=f"repro-supervisor-reader-{index}",
            daemon=True,
        )
        reader.start()

    def start(self) -> None:
        """Fork the initial pool."""
        with self._lock:
            for index in range(self._workers):
                self._spawn_locked(index)

    def wait_ready(self, timeout: float = _READY_TIMEOUT_SECONDS) -> bool:
        """Block until every worker sent its ``ready`` handshake."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                ready = len(self._ready_ports)
                alive = sum(
                    1 for proc in self._procs.values() if proc.is_alive()
                )
            if ready >= self._workers:
                return True
            if alive < self._workers:
                return False  # a worker died during bootstrap
            time.sleep(0.05)
        return False

    @property
    def port(self) -> int:
        """The shared serving port (resolved for parent-bound listeners)."""
        if self._listener is not None:
            bound: int = self._listener.getsockname()[1]
            return bound
        return self._port

    def alive_workers(self) -> int:
        """How many worker processes are currently running."""
        with self._lock:
            return sum(
                1 for proc in self._procs.values() if proc.is_alive()
            )

    # ------------------------------------------------------------------
    # Mutation serialization (called from per-worker reader threads)
    # ------------------------------------------------------------------

    def _reader_loop(self, index: int, conn: Connection[Any, Any]) -> None:
        """Receive one worker's upstream messages until its pipe closes."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            tag = message[0]
            if tag == "ready":
                with self._lock:
                    self._ready_ports[index] = message[2]
            elif tag == "mutate":
                _tag, token, kind, payload = message
                self._apply_mutation(index, token, kind, payload)

    def _apply_mutation(
        self, origin: int, token: int, kind: str, payload: Any
    ) -> None:
        """Validate + apply one mutation, then broadcast it in order.

        The supervisor lock makes the parent the single serialization
        point: mutations land on the parent's model one at a time and
        every worker pipe sees the resulting ``apply`` commands in the
        same order, so all pool members replay an identical sequence.
        """
        with self._lock:
            applied: list[Any] = []
            try:
                if kind == "add":
                    for goal, actions in payload:
                        self._log.add_implementation(goal, actions)
                        applied.append((goal, actions))
                else:
                    self._log.remove_implementation(payload)
            except ModelError as exc:
                if applied:
                    # A mid-batch failure (defensive: adds are
                    # pre-validated) still published a prefix; keep the
                    # pool converged by broadcasting exactly that prefix.
                    self._generation += 1
                    self._mutations += 1
                    self._broadcast_locked(
                        ("apply", "add", applied, -1, None)
                    )
                self._send_locked(
                    origin, ("mutate_error", token, str(exc))
                )
                return
            self._generation += 1
            self._mutations += 1
            self._broadcast_locked(("apply", kind, payload, origin, token))

    def _broadcast_locked(self, message: Any) -> None:
        for pipe in self._pipes.values():
            try:
                pipe.send(message)
            except (OSError, ValueError):  # worker died; reaped later
                pass

    def _send_locked(self, index: int, message: Any) -> None:
        pipe = self._pipes.get(index)
        if pipe is None:
            return
        try:
            pipe.send(message)
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------
    # Crash restarts
    # ------------------------------------------------------------------

    def reap_and_restart(self) -> None:
        """Collect exited workers; respawn them while the budget lasts."""
        if self._stop.is_set():
            return
        with self._lock:
            for index, proc in list(self._procs.items()):
                if proc.is_alive():
                    continue
                exitcode = proc.exitcode
                del self._procs[index]
                pipe = self._pipes.pop(index, None)
                if pipe is not None:
                    try:
                        pipe.close()
                    except OSError:
                        pass
                self._ready_ports.pop(index, None)
                if self._restarts_left > 0:
                    self._restarts_left -= 1
                    print(
                        f"worker {index} exited with code {exitcode}; "
                        f"restarting ({self._restarts_left} restarts "
                        "left in budget)",
                        file=sys.stderr,
                        flush=True,
                    )
                    self._spawn_locked(index)
                else:
                    print(
                        f"worker {index} exited with code {exitcode}; "
                        "restart budget exhausted — continuing with "
                        "fewer workers",
                        file=sys.stderr,
                        flush=True,
                    )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Flag the pool for shutdown (signal-handler safe)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        """Whether shutdown has been requested."""
        return self._stop.is_set()

    def run_until_stopped(self, poll_interval: float = 0.5) -> None:
        """Supervise: reap/restart crashed workers until stop is flagged."""
        while not self._stop.is_set():
            self._stop.wait(poll_interval)
            if not self._stop.is_set():
                self.reap_and_restart()

    def shutdown(self) -> None:
        """Drain every worker, then reap the whole pool."""
        self._stop.set()
        with self._lock:
            pipes = dict(self._pipes)
            procs = dict(self._procs)
        for pipe in pipes.values():
            try:
                pipe.send(("drain", self._drain_timeout))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + self._drain_timeout + 5.0
        for proc in procs.values():
            remaining = deadline - time.monotonic()
            proc.join(max(0.1, remaining))
        for index, proc in procs.items():
            if proc.is_alive():
                print(
                    f"worker {index} did not drain in time; terminating",
                    file=sys.stderr,
                    flush=True,
                )
                proc.terminate()
                proc.join(5.0)
        for pipe in pipes.values():
            try:
                pipe.close()
            except OSError:
                pass
        with self._lock:
            self._pipes.clear()
            self._procs.clear()


def _build_parent_listener(host: str, port: int) -> socket.socket:
    """Bind + listen in the parent; children adopt the socket via fork."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(_LISTEN_BACKLOG)
    except BaseException:
        listener.close()
        raise
    return listener


def _build_arena(
    log: IncrementalGoalModel,
) -> tuple[SharedModelArena | None, LabelTables | None]:
    """Build generation 0's CSR engine from ``log`` and pack it into
    shared memory.

    Returns the arena and the engine's label tables, which the workers
    inherit through fork; ``(None, None)`` for an empty log — there is no
    engine to share, and workers build their own once implementations
    arrive.
    """
    if log.num_implementations == 0:
        return None, None
    from repro.core.caching import build_served_view

    engine = build_served_view(log).csr_engine()
    return SharedModelArena(engine.export_arrays()), engine.labels


def run_worker_pool(
    log: IncrementalGoalModel,
    service_kwargs: dict[str, Any],
    *,
    host: str,
    port: int,
    workers: int,
    restart_budget: int,
    drain_timeout: float,
    block: bool = True,
) -> int:
    """Serve ``log`` with ``workers`` pre-forked processes.

    The multi-worker counterpart of ``repro.cli._cmd_serve``'s
    single-process path; returns a process exit code.  Every worker
    builds its :class:`~repro.service.RecommenderService` from
    ``service_kwargs``, the same keyword arguments the single process
    gets.  ``restart_budget`` is the total number of crashed-worker
    respawns; ``drain_timeout`` bounds each worker's drain on shutdown.
    """
    from repro.service import ready_banner

    # An explicit port + SO_REUSEPORT → per-worker binds.  Port 0 must
    # use one parent-bound listener: with SO_REUSEPORT every worker
    # would receive a *different* ephemeral port.
    listener: socket.socket | None = None
    if port == 0 or not hasattr(socket, "SO_REUSEPORT"):
        listener = _build_parent_listener(host, port)

    arena, labels = _build_arena(log)

    supervisor = WorkerSupervisor(
        log=log,
        labels=labels,
        arena=arena,
        host=host,
        port=port,
        workers=workers,
        restart_budget=restart_budget,
        drain_timeout=drain_timeout,
        listen_socket=listener,
        service_kwargs=service_kwargs,
    )
    try:
        # Handlers must be live before the ready banner prints: an
        # operator (or harness) may SIGTERM the pool the moment it
        # announces itself, and the default action would kill the
        # parent without draining the workers.
        def _on_signal(signum: int, _frame: Any) -> None:
            print(
                f"received signal {signum}; draining {workers} workers "
                f"(timeout {drain_timeout:g}s)",
                file=sys.stderr,
                flush=True,
            )
            supervisor.request_stop()

        handlers_installed = (
            block
            and threading.current_thread() is threading.main_thread()
        )
        if handlers_installed:
            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)

        supervisor.start()
        if not supervisor.wait_ready():
            print(
                "error: worker pool failed to become ready",
                file=sys.stderr,
                flush=True,
            )
            supervisor.shutdown()
            return 1
        print(
            ready_banner(
                log.num_implementations, host, supervisor.port, workers
            ),
            flush=True,
        )
        if not block:  # test hook: caller owns the lifecycle
            supervisor.shutdown()
            return 0
        try:
            supervisor.run_until_stopped()
        except KeyboardInterrupt:  # non-main-thread fallback
            pass
        supervisor.shutdown()
        return 0
    finally:
        if arena is not None:
            try:
                arena.close()
            except BufferError:  # a live engine view in this process
                pass
        if listener is not None:
            listener.close()
