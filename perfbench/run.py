"""Open-loop benchmark of ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-unique --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced server;
``--trace 1`` replays the same seed against an untraced and then a traced
server (see traced_serve.py) and reports the per-layer budget.  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any check fails (oracle mismatch, unexpected status, a mutation that
did not land as predicted, an unclean stop, a broken budget identity) and 2
when the repository's ``src/`` tree is missing.  README.md beside this file
explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import rate_at

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "perfbench" / ".cache"

#: The server's own --slo-latency-ms default.
SLO_SECONDS = 0.250
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
WARM_SECONDS = 1.0
#: Share of --seconds spent at the fixed rate; the rest ramps the rate up.
FIXED_SHARE = 0.75
#: Fixed-phase latency quantiles are medians over windows this long.
WINDOW_SECONDS = 3.0
#: The ramp climbs from the fixed rate to this multiple of it.
RAMP_GROWTH = 16.0
#: Reads due this late end the ramp: the backlog is growing.
ABORT_LAG = 1.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    """Everything one workload run observed, across all its phases."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    checked: int = 0
    mismatches: int = 0
    #: (read, result) pairs eligible for the oracle
    reads: list = field(default_factory=list)
    mutations: list = field(default_factory=list)

    def absorb(self, requests, reads, stats, phase: str, must_succeed: bool) -> None:
        for req, read, result in zip(requests, reads, stats.results):
            if result is None:
                continue
            self.attempted += 1
            if not result.ok:
                self.failed += 1
                if must_succeed:
                    self.problems.append(
                        f"{phase}: {req.method} {req.path} -> "
                        f"{result.status or result.error}"
                    )
            if read is None:
                self.mutations.append((req, result))
            elif result.ok:
                self.reads.append((read, result))


def check_mutations(outcome: Outcome, traffic, mutations) -> None:
    """Each PUT added the predicted id; generations advance one per mutation.

    ``mutations`` are the ``(request, result)`` pairs sent to one server.
    """
    expected_ids = {f"/model/implementations/{i}": i for i, _, _ in traffic.adds}
    generation = None
    for req, result in mutations:
        if not result.ok:
            continue
        payload = json.loads(result.body)
        if req.method == "PUT":
            impl_id = int(req.rid.rsplit("-", 1)[1])
            if payload["added"] != [impl_id]:
                outcome.problems.append(f"PUT added {payload['added']}, expected [{impl_id}]")
        elif payload["removed"] != expected_ids.get(req.path):
            outcome.problems.append(f"DELETE removed {payload['removed']}")
        if generation is not None and payload["generation"] != generation + 1:
            outcome.problems.append(
                f"mutation generation {payload['generation']} after {generation}"
            )
        generation = payload["generation"]


def oracle_check(outcome: Outcome, oracle, workload) -> None:
    """Check every ``check_stride``-th read, and every read of a hot key."""
    stride = workload.check_stride
    for index, (read, result) in enumerate(outcome.reads):
        if not (stride and index % stride == 0) and not 0 <= read.rank < workload.hot_checked:
            continue
        outcome.checked += 1
        if not oracle.matches(read, result.body):
            outcome.mismatches += 1
            if outcome.mismatches <= 3:
                outcome.problems.append(
                    f"oracle mismatch: {read.served_strategy} {read.activity} "
                    f"-> {result.body[:160]!r}"
                )
    oracle.save()


def run_phase(client, traffic, outcome, rate, seconds, phase,
              must_succeed=True, abort_lag=None, growth=1.0):
    requests, reads = traffic.phase(rate, seconds, growth)
    stats = client.run(requests, abort_lag=abort_lag)
    outcome.absorb(requests, reads, stats, phase, must_succeed)
    read_results = [
        r for r, read in zip(stats.results, reads) if read is not None and r is not None
    ]
    return requests, reads, stats, read_results


def read_latencies(results) -> list[float]:
    """Seconds from due time; a failed read misses every limit."""
    return [r.latency if r.ok else math.inf for r in results]


def windowed_quantile(results, q: float) -> float:
    """Median over WINDOW_SECONDS windows (by due time) of each window's
    ``q``-quantile of latency: a burst of host contention spoils one window,
    not the run."""
    start = min(r.due for r in results)
    windows: dict[int, list] = {}
    for result, latency in zip(results, read_latencies(results)):
        windows.setdefault(int((result.due - start) // WINDOW_SECONDS), []).append(latency)
    return statistics.median(quantile(w, q) for w in windows.values())


def ramp(client, traffic, outcome, workload, seconds):
    """Highest sustainable read rate, from one exponential rate ramp.

    The offered rate climbs continuously from the fixed rate to RAMP_GROWTH
    times it.  Below capacity the generator's send lag keeps falling back;
    once the offered rate passes what the server sustains, the backlog only
    grows, and reads due ABORT_LAG late end the ramp.  From the last read
    sent within the SLO's 250 ms of its due time, every connection is busy
    all the time, so the rate at which reads complete from there on is the
    highest rate at which the backlog does not grow.  Measuring it at
    saturation averages over hundreds of reads instead of deciding
    pass/fail on a noisy step.  A ramp that never saturates reports what
    it achieved in its last second: a lower bound.
    """
    _, _, stats, results = run_phase(
        client, traffic, outcome, workload.rate, seconds, "ramp",
        must_succeed=False, abort_lag=ABORT_LAG, growth=RAMP_GROWTH,
    )
    last_on_time = max(
        (i for i, r in enumerate(results) if r.lag <= SLO_SECONDS), default=-1
    )
    window = results[last_on_time + 1:]
    if len(window) < 2:
        window = [r for r in results if r.due >= results[-1].due - 1.0]
    done = sorted(r.done for r in window if r.ok)
    sustained = (len(done) - 1) / (done[-1] - done[0])
    print(f"  ramp: {len(results)} reads; saturated from "
          f"{rate_at(workload.rate, seconds, RAMP_GROWTH, window[0].due - stats.start):.0f}/s"
          f" offered; {len(done)} reads completed at {sustained:.1f}/s")
    return sustained


def host_ticks() -> list[int]:
    """The host-wide CPU tick counters of /proc/stat."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def stop(server, outcome: Outcome) -> None:
    """Stop ``server``; an unclean stop is a problem."""
    if not server.stop():
        outcome.problems.append(f"unclean server stop: {server.unclean_reason}")


def metrics_line(name: str, value: float, unit: str) -> None:
    print(f"{name:<28} {value:14.4f} {unit}")


def end_to_end(args, workload, shape, lib, traffic, make_oracle) -> tuple[Outcome, dict]:
    from client import OpenLoopClient
    from server import PssSampler, Server, warm_body

    outcome = Outcome()
    warm = warm_body(list(shape.implementations[0][1][:2]))
    setups: list[float] = []
    server = None
    try:
        for attempt in range(SETUPS):
            server = Server(ROOT, lib, workload.workers, CACHE / "server.log")
            setups.append(server.start(warm))
            if attempt < SETUPS - 1:
                stop(server, outcome)
        client = OpenLoopClient("127.0.0.1", server.port, max_conns=_conns())
        fixed_seconds = args.seconds * FIXED_SHARE
        # Memory and mutation times are taken where every run offers the
        # same load; the ramp's load depends on where it stops.
        with PssSampler(server) as pss:
            run_phase(client, traffic, outcome, workload.rate, WARM_SECONDS,
                      "warm-up")
            ticks = host_ticks()
            _, fixed_reads, fixed_stats, fixed = run_phase(
                client, traffic, outcome, workload.rate, fixed_seconds, "fixed")
            ticks = [after - before for after, before in zip(host_ticks(), ticks)]
        timed_mutations = [
            result for result, read in zip(fixed_stats.results, fixed_reads)
            if read is None and result is not None and result.ok
        ]
        max_rate = ramp(client, traffic, outcome, workload,
                        args.seconds - fixed_seconds)
        if workload.final_mutation_pairs:
            requests = traffic.serial_mutations(workload.final_mutation_pairs)
            stats = client.run(requests)
            outcome.absorb(requests, [None] * len(requests), stats, "mutations", True)
            timed_mutations += [r for r in stats.results if r is not None and r.ok]
        stop(server, outcome)
    finally:
        if server is not None:
            server.stop()
    check_mutations(outcome, traffic, outcome.mutations)
    oracle_check(outcome, make_oracle(traffic), workload)
    mutation_ms = [r.round_trip * 1000 for r in timed_mutations]
    shed = sum(
        1 for _, r in outcome.mutations + outcome.reads if r.status in (429, 503)
    )
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "p50_ms": (windowed_quantile(fixed, 0.50) * 1000, "ms"),
        "p99_ms": (windowed_quantile(fixed, 0.99) * 1000, "ms"),
        "max_rate_rps": (max_rate, "1/s"),
        "rss_mb": (pss.peak_mb, "MB"),
        "mutation_p50_ms": (quantile(mutation_ms, 0.50), "ms"),
        "mutation_p90_ms": (quantile(mutation_ms, 0.90), "ms"),
    }
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"workers {workload.workers}  fixed rate {workload.rate:g}/s")
    print(f"  fixed phase: {len(fixed)} reads; host CPU busy "
          f"{sum(ticks[:3]) / max(1, sum(ticks)):.0%}, stolen by the hypervisor "
          f"{ticks[7] / max(1, sum(ticks)):.1%}")
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}  "
          f"mutations timed: {len(mutation_ms)}")
    print(f"  error_ratio {outcome.failed / max(1, outcome.attempted):.6f} "
          f"(shed 429/503: {shed})  checked {outcome.checked}  "
          f"mismatches {outcome.mismatches}")
    for name, (value, unit) in values.items():
        metrics_line(name, value, unit)
    return outcome, values


def _conns() -> int:
    return max(1, os.cpu_count() or 1)


def traced(args, workload, shape, lib, make_traffic, make_oracle) -> tuple[Outcome, dict]:
    """Replay one seed untraced, then traced; report the layer budget."""
    import budget
    from client import OpenLoopClient
    from server import Server, warm_body

    warm = warm_body(list(shape.implementations[0][1][:2]))
    seconds = args.seconds / 2
    passes = {}
    outcome = Outcome()
    for label in ("untraced", "traced"):
        split = len(outcome.mutations)
        trace_dir = CACHE / "trace"
        if label == "traced":
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        traffic = make_traffic()
        server = Server(ROOT, lib, workload.workers, CACHE / f"server-{label}.log",
                        trace_dir=trace_dir if label == "traced" else None)
        try:
            server.start(warm)
            client = OpenLoopClient("127.0.0.1", server.port, max_conns=_conns())
            run_phase(client, traffic, outcome, workload.rate, WARM_SECONDS,
                      f"{label} warm-up")
            requests, reads, stats, _ = run_phase(
                client, traffic, outcome, workload.rate, seconds, label)
            if workload.final_mutation_pairs:
                final = traffic.serial_mutations(workload.final_mutation_pairs)
                final_stats = client.run(final)
                outcome.absorb(final, [None] * len(final), final_stats,
                               f"{label} mutations", True)
            passes[label] = (requests, reads, stats)
        finally:
            stop(server, outcome)
    # Both passes replay the same seed, so one traffic object describes the
    # mutations of either server.
    check_mutations(outcome, traffic, outcome.mutations[:split])
    check_mutations(outcome, traffic, outcome.mutations[split:])
    oracle_check(outcome, make_oracle(traffic), workload)
    values, problems = budget.layers(
        lib, passes["untraced"], passes["traced"], CACHE / "trace")
    outcome.problems.extend(problems)
    print(f"workload {workload.name}  seed {args.seed}  traced pass {seconds:g}s  "
          f"checked {outcome.checked}  mismatches {outcome.mismatches}")
    for name, (value, unit) in values.items():
        metrics_line(name, value, unit)
    return outcome, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind through the ``finally`` blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from oracle import Oracle
    from workloads import WORKLOADS, LibraryShape, Traffic, dense_pool, ensure_library

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    CACHE.mkdir(parents=True, exist_ok=True)
    lib = ensure_library(CACHE, workload)
    shape = LibraryShape.load(lib)
    pool = dense_pool(shape) if workload.name == "dense-repeat" else None

    def make_traffic():
        return Traffic(workload, args.seed, shape, pool)

    def make_oracle(traffic):
        return Oracle(CACHE, workload.name, lib, traffic.adds)

    started = time.perf_counter()
    if args.trace:
        outcome, values = traced(
            args, workload, shape, lib, make_traffic, make_oracle)
    else:
        outcome, values = end_to_end(
            args, workload, shape, lib, make_traffic(), make_oracle)
    correct = not outcome.problems and outcome.mismatches == 0
    # The result carries the metrics BENCHMARK.json names for this mode
    # (all of them without the manifest); the lines above print them all.
    manifest = ROOT / "BENCHMARK.json"
    if manifest.is_file():
        named = {
            metric["name"] for metric in json.loads(manifest.read_text())[
                "per_layer" if args.trace else "end_to_end"]
        }
        values = {name: value for name, value in values.items() if name in named}
    for problem in outcome.problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  "
          f"correct {correct}  wall {time.perf_counter() - started:.1f}s")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
