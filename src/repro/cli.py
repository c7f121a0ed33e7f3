"""Command-line interface.

Installed as the ``repro`` console script.  Subcommands:

- ``repro generate`` — write a synthetic dataset (JSON) to disk;
- ``repro inspect`` — print the statistics of a dataset or library file;
- ``repro recommend`` — rank actions for an activity against a library;
- ``repro evaluate`` — run the paper's protocol over a dataset and print
  the headline metrics per method;
- ``repro extract`` — extract goal implementations from a plain-text file
  of ``goal<TAB>story`` lines and write a library JSON;
- ``repro metrics`` — dump Prometheus metrics, either from this process's
  registry or scraped from a running service (``--url``);
- ``repro telemetry report`` — summarize the flight-recorder JSONL a
  service wrote under ``--telemetry-dir`` (request latency per endpoint,
  sampled span trees, quality/drift events with request/trace ids);
- ``repro monitor`` — live ops console polling a running service's
  ``/metrics`` + ``/debug/history`` + ``/debug/quality``: RPS and
  latency sparklines, stage p95s, cache hit ratio, shed/deadline
  counts, drift score and SLO burn rates (``--once --json`` for
  scripting).

Global flags: ``--version``; ``--log-level {debug,info,warning,error}``,
``--json-logs`` and ``--log-file`` (size-rotated) configure the
structured logging of :mod:`repro.obs.logs`
(logs go to stderr, tables to stdout, so pipelines stay clean);
``--profile`` wraps the command in a :class:`repro.obs.ProfileSession` and
prints (or with ``--profile-out``, writes) the ``pstats`` report after the
command finishes, so any subcommand can be profiled without code changes.

Every subcommand is a thin shell over the library API — anything the CLI
does can be done programmatically with the same names.  Each subcommand
imports what only it needs (the dataset generators, the evaluation
harness and its baselines, text extraction) when it runs, so
``repro serve`` loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.service import RecommenderService

from repro import obs
from repro._version import __version__
from repro.core import (
    AssociationGoalModel,
    GoalRecommender,
    IncrementalGoalModel,
    PAPER_STRATEGIES,
)
from repro.exceptions import ModelError, ReproError
from repro.storage import JsonLibraryStore

_SCALES = ("tiny", "small", "paper")

_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0}


def _parse_duration(text: str) -> float:
    """Parse ``'900'``, ``'30s'``, ``'15m'`` or ``'1h'`` into seconds.

    Bare numbers are seconds.  Raises :class:`ValueError` on junk, which
    ``argparse`` turns into a usage error when used as a ``type=``.
    """
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in _DURATION_UNITS:
        scale = _DURATION_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise ValueError(
            f"invalid duration {text!r} (expected e.g. '900', '30s', '15m')"
        ) from None
    if seconds < 0:
        raise ValueError(f"duration must be >= 0, got {text!r}")
    return seconds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Goal/action association recommendations (EDBT 2018).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="structured-log threshold (logs go to stderr)",
    )
    parser.add_argument(
        "--json-logs", action="store_true",
        help="emit logs as JSON lines instead of text",
    )
    parser.add_argument(
        "--log-file", type=Path, default=None,
        help="also write logs to this file (size-based rotation, "
             "10 MiB x 3 backups)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print a pstats report",
    )
    parser.add_argument(
        "--profile-out", type=Path, default=None,
        help="write the --profile report here instead of stderr",
    )
    parser.add_argument(
        "--profile-sort", default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort order for the --profile report",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset"
    )
    generate.add_argument(
        "--scenario", choices=("foodmart", "43things"), required=True
    )
    generate.add_argument("--scale", choices=_SCALES, default="tiny")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True)

    inspect = commands.add_parser(
        "inspect", help="print statistics of a dataset or library JSON"
    )
    inspect.add_argument("path", type=Path)

    recommend = commands.add_parser(
        "recommend", help="rank actions for an activity"
    )
    recommend.add_argument("--library", type=Path, required=True,
                           help="library JSON (JsonLibraryStore format)")
    recommend.add_argument("--activity", required=True,
                           help="comma-separated performed actions")
    recommend.add_argument(
        "--strategy", choices=PAPER_STRATEGIES, default="breadth"
    )
    recommend.add_argument("-k", type=int, default=10)

    evaluate = commands.add_parser(
        "evaluate", help="run the paper's protocol over a dataset"
    )
    evaluate.add_argument("--dataset", type=Path, required=True)
    evaluate.add_argument("-k", type=int, default=10)
    evaluate.add_argument("--max-users", type=int, default=100)
    evaluate.add_argument("--seed", type=int, default=0)

    extract = commands.add_parser(
        "extract", help="extract a library from goal<TAB>story lines"
    )
    extract.add_argument("--stories", type=Path, required=True)
    extract.add_argument("--out", type=Path, required=True)

    serve = commands.add_parser(
        "serve", help="serve a library over HTTP (repro.service)"
    )
    serve.add_argument("--library", type=Path, required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="recommendation LRU capacity (0 disables result caching)",
    )
    serve.add_argument(
        "--approx-budget", type=int, default=128,
        help="per-action posting-list cap of the ?tier=approx recommend "
             "path (see docs/performance.md)",
    )
    serve.add_argument(
        "--no-tracing", action="store_true",
        help="disable request span collection (also disables trace detail)",
    )
    serve.add_argument(
        "--no-exemplars", action="store_true",
        help="disable OpenMetrics exemplars on latency histograms",
    )
    serve.add_argument(
        "--no-trace-detail", action="store_true",
        help="skip the per-request space-size span attributes and the "
             "Server-Timing response header (cheaper traced requests)",
    )
    serve.add_argument(
        "--slow-threshold", type=float, default=0.1, metavar="SECONDS",
        help="requests slower than this land in GET /debug/slow",
    )
    serve.add_argument(
        "--slow-log-size", type=int, default=32,
        help="how many slow requests /debug/slow retains (slowest kept)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="work requests executing concurrently before admission "
             "control starts queueing",
    )
    serve.add_argument(
        "--max-queue", type=int, default=128,
        help="requests allowed to wait for an execution slot; beyond "
             "this, requests are shed with 429 + Retry-After",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=0.5, metavar="SECONDS",
        help="longest a request waits in the admission queue",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint sent with 429/503 responses",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None,
        help="deadline for requests without an X-Request-Deadline-Ms "
             "header (default: none)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long SIGTERM/SIGINT waits for in-flight requests "
             "before exiting",
    )
    serve.add_argument(
        "--telemetry-dir", type=Path, default=None,
        help="write the durable flight recorder's rotating JSONL files "
             "here (default: disabled)",
    )
    serve.add_argument(
        "--telemetry-sample-rate", type=float, default=1.0,
        help="fraction of requests whose span trees the flight recorder "
             "keeps (head-based, deterministic per request id)",
    )
    serve.add_argument(
        "--history-interval", type=_parse_duration, default=None,
        metavar="DURATION",
        help="metrics-history snapshot cadence behind GET /debug/history "
             "(e.g. '5s'; default 5s)",
    )
    serve.add_argument(
        "--history-window", type=_parse_duration, default=None,
        metavar="DURATION",
        help="metrics-history retention (e.g. '15m' or '900'; 0 disables "
             "the history layer entirely; default 15m)",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=0.999,
        help="availability objective behind the burn-rate gauge "
             "(fraction of requests that must not fail with 5xx)",
    )
    serve.add_argument(
        "--slo-latency-ms", type=float, default=250.0,
        help="latency objective: requests slower than this are 'slow' "
             "for the latency SLO",
    )
    serve.add_argument(
        "--slo-latency-target", type=float, default=0.99,
        help="fraction of requests that must meet the latency objective",
    )
    serve.add_argument(
        "--quality-window", type=int, default=512,
        help="sliding window (requests) of the catalog-coverage tracker",
    )
    serve.add_argument(
        "--score-threshold", type=float, default=0.05,
        help="top score under which a recommendation counts as "
             "below-threshold in the quality monitor",
    )
    serve.add_argument(
        "--drift-window", type=int, default=256,
        help="sliding window (requests) of the live activity profile "
             "compared against the drift baseline",
    )
    serve.add_argument(
        "--drift-threshold", type=float, default=0.25,
        help="PSI value at which the drift alert raises",
    )
    serve.add_argument(
        "--lock-sanitizer", action="store_true",
        help="build the service's locks as instrumented proxies checking "
             "acquisition order against locks.toml, recording hold/"
             "contention metrics and GET /debug/locks violations "
             "(also enabled by REPRO_LOCK_SANITIZER=1)",
    )
    serve.add_argument(
        "--fault-spec", default=None, metavar="SPEC",
        help="enable deterministic fault injection, e.g. "
             "'seed=7,storage:exception:0.5,model:latency:1.0:25' "
             "(sites: model, cache, storage; kinds: latency, exception, "
             "slow_storage) — testing only",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="pre-fork N server processes sharing one port and one "
             "shared-memory copy of the model's numeric state "
             "(see docs/serving.md, 'Multi-worker mode'); 1 keeps the "
             "single-process threaded server",
    )
    serve.add_argument(
        "--worker-restarts", type=int, default=3, metavar="N",
        help="total crashed-worker restarts the pool supervisor allows "
             "before continuing with fewer workers (multi-worker only)",
    )

    goals = commands.add_parser(
        "goals", help="infer the goals an activity points at"
    )
    goals.add_argument("--library", type=Path, required=True)
    goals.add_argument("--activity", required=True,
                       help="comma-separated performed actions")
    goals.add_argument(
        "--scorer", choices=("evidence", "completeness", "coverage"),
        default="coverage",
    )
    goals.add_argument("--top", type=int, default=10)

    metrics = commands.add_parser(
        "metrics", help="dump Prometheus metrics (local registry or --url)"
    )
    metrics.add_argument(
        "--url", default=None,
        help="base URL of a running service to scrape "
             "(e.g. http://127.0.0.1:8080)",
    )

    monitor = commands.add_parser(
        "monitor", help="live ops console for a running service"
    )
    monitor.add_argument(
        "--url", required=True,
        help="base URL of a running service (e.g. http://127.0.0.1:8080)",
    )
    monitor.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh cadence of the live view",
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (for scripting)",
    )
    monitor.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw snapshot as JSON instead of the rendered frame",
    )
    monitor.add_argument(
        "--window", type=_parse_duration, default=None, metavar="DURATION",
        help="history window to request (e.g. '5m'; default: the server's)",
    )
    monitor.add_argument(
        "--step", type=_parse_duration, default=None, metavar="DURATION",
        help="history grid step (e.g. '10s'; default: the server's "
             "capture interval)",
    )

    telemetry = commands.add_parser(
        "telemetry", help="work with flight-recorder telemetry directories"
    )
    telemetry.add_argument(
        "action", choices=("report",),
        help="'report' summarizes the recorded requests and events",
    )
    telemetry.add_argument(
        "--dir", type=Path, required=True, dest="telemetry_dir",
        help="the --telemetry-dir a service wrote",
    )
    telemetry.add_argument(
        "--limit", type=int, default=10,
        help="how many quality events to print (most recent last)",
    )

    report = commands.add_parser(
        "report", help="regenerate every paper table over two datasets"
    )
    report.add_argument("--grocery", type=Path, required=True,
                        help="grocery-style dataset JSON")
    report.add_argument("--life-goals", type=Path, required=True,
                        help="life-goal-style dataset JSON")
    report.add_argument("-k", type=int, default=10)
    report.add_argument("--max-users", type=int, default=100)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--skip-scaling", action="store_true",
                        help="omit the Figure 7 timing study")
    report.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data import (
        FoodMartConfig,
        FortyThreeConfig,
        generate_foodmart,
        generate_fortythree,
        save_dataset,
    )

    if args.scenario == "foodmart":
        foodmart_configs = {
            "tiny": FoodMartConfig.tiny,
            "small": FoodMartConfig.small,
            "paper": FoodMartConfig.paper_scale,
        }
        dataset = generate_foodmart(
            foodmart_configs[args.scale](), seed=args.seed
        )
    else:
        fortythree_configs = {
            "tiny": FortyThreeConfig.tiny,
            "small": FortyThreeConfig.small,
            "paper": FortyThreeConfig.paper_scale,
        }
        dataset = generate_fortythree(
            fortythree_configs[args.scale](), seed=args.seed
        )
    path = save_dataset(dataset, args.out)
    print(f"wrote {dataset.summary()} -> {path}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.data import load_dataset

    try:
        dataset = load_dataset(args.path)
        print(dataset.summary())
        return 0
    except ReproError:
        pass  # maybe it is a bare library file
    library = JsonLibraryStore(args.path).load()
    print(f"library: {library.stats()}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.eval.report import format_table

    library = JsonLibraryStore(args.library).load()
    model = AssociationGoalModel.from_library(library)
    recommender = GoalRecommender(model)
    activity = {part.strip() for part in args.activity.split(",") if part.strip()}
    result = recommender.recommend(activity, k=args.k, strategy=args.strategy)
    if not result.items:
        print("no recommendations (activity matches no implementation)")
        return 1
    rows = [[item.action, item.score] for item in result]
    print(format_table(["action", "score"], rows,
                       title=f"{args.strategy} top-{args.k}"))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.data import load_dataset
    from repro.eval import (
        ExperimentHarness,
        average_true_positive_rate,
        format_table,
        goal_completeness_after,
        popularity_correlation,
        usefulness_summary,
    )

    dataset = load_dataset(args.dataset)
    harness = ExperimentHarness(
        dataset, k=args.k, max_users=args.max_users, seed=args.seed
    )
    methods = list(PAPER_STRATEGIES) + list(harness.baseline_names())
    rows = []
    activities = harness.observed_activities()
    hidden = harness.hidden_sets()
    for method in methods:
        if method in PAPER_STRATEGIES:
            lists = harness.run_goal_method(method)
        else:
            lists = harness.run_baseline(method)
        completeness = usefulness_summary(
            [
                goal_completeness_after(
                    harness.model, user.observed, rec,
                    goals=user.user.goals or None,
                )
                for user, rec in zip(harness.split, lists)
            ]
        )
        rows.append(
            [
                method,
                average_true_positive_rate(lists, hidden),
                completeness.avg_avg,
                popularity_correlation(activities, lists),
            ]
        )
    print(
        format_table(
            ["method", "avg_tpr", "completeness", "pop_corr"],
            rows,
            title=f"{dataset.name}: {len(harness.split)} users, top-{args.k}",
        )
    )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.text import GoalStory, extract_implementations

    stories: list[GoalStory] = []
    with args.stories.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            goal, separator, text = line.partition("\t")
            if not separator:
                print(
                    f"{args.stories}:{line_number}: expected goal<TAB>story",
                    file=sys.stderr,
                )
                return 1
            stories.append(GoalStory(goal=goal.strip(), text=text.strip()))
    library = extract_implementations(stories)
    if len(library) == 0:
        print("no implementations extracted", file=sys.stderr)
        return 1
    JsonLibraryStore(args.out).save(library)
    print(f"extracted {library.stats()} -> {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace, block: bool = True) -> int:
    from repro.resilience import install_faults, parse_fault_spec
    from repro.service import RecommenderService
    from repro.storage import RetryingLibraryStore

    fault_spec = getattr(args, "fault_spec", None)
    if fault_spec:
        try:
            install_faults(parse_fault_spec(fault_spec))
        except ValueError as exc:
            print(f"error: --fault-spec: {exc}", file=sys.stderr)
            return 2
    # Must happen before the service is constructed: the lock factories
    # decide plain-vs-instrumented at construction time.
    if getattr(args, "lock_sanitizer", False) or os.environ.get(
        "REPRO_LOCK_SANITIZER", ""
    ) not in ("", "0"):
        from repro.utils.concurrency import enable_lock_sanitizer

        enable_lock_sanitizer()
    history_interval = getattr(args, "history_interval", None)
    if history_interval is None:
        history_interval = obs.DEFAULT_INTERVAL_SECONDS
    history_window = getattr(args, "history_window", None)
    if history_window is None:
        history_window = obs.DEFAULT_WINDOW_SECONDS
    if history_window > 0 and history_interval <= 0:
        print("error: --history-interval must be > 0", file=sys.stderr)
        return 2
    # The retrying wrapper absorbs transient load failures (a writer
    # mid-replace, an injected storage fault) with deterministic backoff.
    # The served generations are built from this mutation log; no
    # AssociationGoalModel is built.  The log keeps each implementation as
    # a tuple of labels, and nothing holds the library itself for the
    # server's lifetime.
    log = IncrementalGoalModel.from_library(
        RetryingLibraryStore(JsonLibraryStore(args.library)).load()
    )
    if log.num_implementations == 0:
        raise ModelError("cannot build a model from zero implementations")
    workers = getattr(args, "workers", 1)
    if workers is not None and workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if workers and workers > 1:
        from repro.serving.workers import run_worker_pool

        return run_worker_pool(log, args, block=block)
    service = RecommenderService(
        log,
        host=args.host,
        port=args.port,
        # getattr: tests drive this with hand-built Namespace objects that
        # predate the cache flags.
        cache_size=getattr(args, "cache_size", 1024),
        approx_budget=getattr(args, "approx_budget", 128),
        enable_tracing=not getattr(args, "no_tracing", False),
        enable_exemplars=not getattr(args, "no_exemplars", False),
        trace_detail=not getattr(args, "no_trace_detail", False),
        slow_threshold_seconds=getattr(args, "slow_threshold", 0.1),
        slow_log_size=getattr(args, "slow_log_size", 32),
        max_inflight=getattr(args, "max_inflight", 64),
        max_queue=getattr(args, "max_queue", 128),
        queue_timeout_seconds=getattr(args, "queue_timeout", 0.5),
        retry_after_seconds=getattr(args, "retry_after", 1.0),
        default_deadline_ms=getattr(args, "default_deadline_ms", None),
        quality_window=getattr(args, "quality_window", 512),
        score_threshold=getattr(args, "score_threshold", 0.05),
        drift_window=getattr(args, "drift_window", 256),
        drift_threshold=getattr(args, "drift_threshold", 0.25),
        slo_availability=getattr(args, "slo_availability", 0.999),
        slo_latency_ms=getattr(args, "slo_latency_ms", 250.0),
        slo_latency_target=getattr(args, "slo_latency_target", 0.99),
        telemetry_dir=getattr(args, "telemetry_dir", None),
        telemetry_sample_rate=getattr(args, "telemetry_sample_rate", 1.0),
        history_interval_seconds=history_interval,
        history_window_seconds=history_window or obs.DEFAULT_WINDOW_SECONDS,
        history_enabled=history_window > 0,
    )
    service.start()
    print(
        f"serving {log.num_implementations} implementations on "
        f"http://{args.host}:{service.port} "
        "(endpoints: /health /metrics /model /recommend /recommend/batch "
        "/spaces /explain /goals /related /debug/vars /debug/slow "
        "/debug/quality /debug/history /debug/trace/<request-id> "
        "/debug/locks /debug/profile)",
        flush=True,
    )
    if not block:  # test hook: caller owns the lifecycle
        service.stop()
        return 0
    _serve_until_signalled(service, getattr(args, "drain_timeout", 10.0))
    return 0


def _serve_until_signalled(
    service: RecommenderService, drain_timeout: float
) -> None:
    """Block on the serving thread; SIGTERM/SIGINT trigger a graceful drain.

    Without the handlers, ``docker stop``/Kubernetes termination kills the
    process mid-request.  With them, a signal flips ``/health`` to
    ``draining``, stops accepting, waits for in-flight requests up to
    ``drain_timeout`` and exits 0.  Handlers can only be installed from
    the main thread; elsewhere (tests driving the CLI from a worker
    thread) the plain KeyboardInterrupt path remains.
    """
    import signal

    def _drain(signum: int, _frame: object) -> None:
        print(
            f"received signal {signum}; draining "
            f"(timeout {drain_timeout:g}s)",
            file=sys.stderr,
            flush=True,
        )
        service.drain(timeout=drain_timeout)

    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
    thread = service._thread
    if thread is None:  # pragma: no cover - already stopped
        return
    try:
        thread.join()
    except KeyboardInterrupt:  # pragma: no cover - non-main-thread fallback
        service.stop()


def _cmd_goals(args: argparse.Namespace) -> int:
    from repro.core.goal_inference import GoalInferencer
    from repro.eval.report import format_table

    library = JsonLibraryStore(args.library).load()
    model = AssociationGoalModel.from_library(library)
    activity = {part.strip() for part in args.activity.split(",") if part.strip()}
    inferred = GoalInferencer(model, scorer=args.scorer).infer(
        activity, top=args.top
    )
    if not inferred:
        print("no goals inferred (activity matches no implementation)")
        return 1
    rows = [[str(goal), score] for goal, score in inferred]
    print(
        format_table(
            ["goal", "score"], rows, title=f"inferred goals ({args.scorer})"
        )
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.url is None:
        # The in-process registry: useful after driving the library from the
        # same process (``main([...])``) or for checking the exposition.
        print(obs.get_registry().render(), end="")
        return 0
    import urllib.request

    url = args.url.rstrip("/")
    if not url.endswith("/metrics"):
        url += "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            print(response.read().decode("utf-8"), end="")
    except OSError as exc:
        print(f"error: cannot scrape {url}: {exc}", file=sys.stderr)
        return 1
    return 0


def _num(value: object) -> float:
    """A numeric telemetry field, or 0.0 when absent/malformed."""
    return float(value) if isinstance(value, (int, float)) else 0.0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.eval.report import format_table

    directory: Path = args.telemetry_dir
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    requests: dict[str, dict[str, float]] = {}
    events: list[dict[str, object]] = []
    kinds: dict[str, int] = {}
    for record in obs.iter_telemetry_records(directory):
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "request":
            endpoint = str(record.get("endpoint", "?"))
            stats = requests.setdefault(
                endpoint,
                {"count": 0, "errors": 0, "sampled": 0, "sum": 0.0, "max": 0.0},
            )
            stats["count"] += 1
            if int(_num(record.get("status"))) >= 500:
                stats["errors"] += 1
            if record.get("spans"):
                stats["sampled"] += 1
            seconds = _num(record.get("seconds"))
            stats["sum"] += seconds
            stats["max"] = max(stats["max"], seconds)
        else:
            events.append(record)
    if not kinds:
        print(f"no telemetry records under {directory}")
        return 1
    rows: list[list[object]] = [
        [
            endpoint,
            int(stats["count"]),
            int(stats["errors"]),
            int(stats["sampled"]),
            stats["sum"] / stats["count"],
            stats["max"],
        ]
        for endpoint, stats in sorted(requests.items())
    ]
    if rows:
        print(
            format_table(
                ["endpoint", "requests", "errors", "sampled",
                 "mean_seconds", "max_seconds"],
                rows,
                title=f"flight recorder: {directory}",
            )
        )
    if events:
        tail = events[-args.limit:]
        event_rows = [
            [
                str(event.get("kind", "?")),
                str(event.get("request_id", "") or ""),
                str(event.get("trace_id", "") or ""),
                ", ".join(
                    f"{key}={event[key]}"
                    for key in sorted(event)
                    if key not in ("kind", "ts", "request_id", "trace_id")
                ),
            ]
            for event in tail
        ]
        print(
            format_table(
                ["kind", "request_id", "trace_id", "payload"],
                event_rows,
                title=f"quality events (last {len(tail)} of {len(events)})",
            )
        )
    summary = ", ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    print(f"records: {summary}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.console import run_monitor

    return run_monitor(
        args.url,
        interval=args.interval,
        once=args.once,
        as_json=args.as_json,
        window=args.window,
        step=args.step,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.data import load_dataset
    from repro.experiments import ExperimentSuite, SuiteConfig

    grocery = load_dataset(args.grocery)
    life_goals = load_dataset(args.life_goals)
    suite = ExperimentSuite(
        grocery,
        life_goals,
        SuiteConfig(
            k=args.k,
            max_users=args.max_users,
            seed=args.seed,
            run_scaling=not args.skip_scaling,
        ),
    )
    report = suite.render_report()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report, encoding="utf-8")
        print(f"wrote report -> {args.out}")
    else:
        print(report)
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
    "extract": _cmd_extract,
    "goals": _cmd_goals,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
    "monitor": _cmd_monitor,
    "telemetry": _cmd_telemetry,
    "report": _cmd_report,
}


def _run_command(args: argparse.Namespace) -> int:
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    logger = obs.configure_logging(
        level=args.log_level,
        json_logs=args.json_logs,
        log_file=getattr(args, "log_file", None),
    )
    obs.log_event(
        logger, "cli.start", version=__version__, run_id=obs.RUN_ID,
        command=args.command,
    )
    if not args.profile:
        return _run_command(args)
    session = obs.ProfileSession()
    session.start()
    try:
        exit_code = session.profile_call(_run_command, args)
    finally:
        report = session.stop(sort=args.profile_sort)
    if args.profile_out is not None:
        args.profile_out.parent.mkdir(parents=True, exist_ok=True)
        args.profile_out.write_text(report, encoding="utf-8")
        print(f"wrote profile -> {args.profile_out}", file=sys.stderr)
    else:
        print(report, file=sys.stderr)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
