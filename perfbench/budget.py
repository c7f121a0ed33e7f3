"""Per-layer budget of the traced pass.

Layer self times come from the span dumps of traced_serve.py; the client
supplies round trips, statuses and response bodies.  The server's request
root is split where the response is written: spans that ended before that
are on the client's round trip, the rest (recorders and the admission
release in ``finally`` blocks) run after the client has its answer and are
reported apart.  For every traced read, the self times of the on-path spans
add up to the on-path root exactly (integer nanoseconds), and the residual
is the round trip minus that root: socket, accept, thread start and
request-line parsing.  So on-path layer self times plus the residual equal
the traced round trip; ``layers`` checks it, checks that no residual is
negative, and checks that the traced responses are byte-identical to the
untraced ones of the same seed.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from run import quantile

STRATEGIES = ("breadth", "breadth_pruned", "focus_cmp", "focus_cl", "best_match")
LAYERS = (
    "service", "resilience", "caching", "recommender", "vectorized",
    "incremental", "serving", "storage", "obs",
)
_CACHED = (b'"cached": true', b'"cached": false')


def _load_spans(trace_dir: Path):
    spans, lookups, mismatches = [], defaultdict(lambda: [0, 0]), 0
    for path in sorted(trace_dir.glob("spans-*.json")):
        dump = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(dump["spans"])
        for name, (hits, total) in dump["lookups"].items():
            lookups[name][0] += hits
            lookups[name][1] += total
        mismatches += dump["context_mismatches"]
    return spans, lookups, mismatches


def _normalized(body: bytes) -> bytes:
    """The body with the ``cached`` flag masked.

    Whether a repeated key is answered from the result cache can depend on
    which of two concurrent requests finishes first; everything else in a
    response is a function of the request and the generation.
    """
    for token in _CACHED:
        body = body.replace(token, b'"cached": _')
    return body


def _stale_reads(requests, reads, stats):
    """Stale-read ratio and median replay lag (ms) from the client's view.

    A read is stale when it was sent after a mutation was acknowledged but
    answered at an older generation.  A mutation's replay lag is the time
    from its ack to the send of the last read still answered before it.
    """
    acks = []
    answered = []
    for req, read, result in zip(requests, reads, stats.results):
        if result is None or not result.ok:
            continue
        generation = json.loads(result.body)["generation"]
        if read is None:
            acks.append((result.done, generation))
        else:
            answered.append((result.sent, generation))
    acks.sort()
    stale = 0
    last_stale: dict[int, float] = {}
    for sent, generation in answered:
        newest = max((g for done, g in acks if done < sent), default=0)
        if generation < newest:
            stale += 1
            for done, g in acks:
                if done < sent and g > generation:
                    last_stale[g] = max(last_stale.get(g, 0.0), sent - done)
    lags = [last_stale.get(g, 0.0) * 1000 for _, g in acks]
    return stale / max(1, len(answered)), quantile(lags, 0.5)


def _arena_ms(library: Path) -> float:
    """``SharedModelArena`` plus a zero-copy ``from_arrays`` on ``library``."""
    from multiprocessing import resource_tracker

    from repro.core import AssociationGoalModel
    from repro.core.vectorized import BatchRecommender
    from repro.serving.shared import SharedModelArena
    from repro.storage import JsonLibraryStore

    model = AssociationGoalModel.from_library(JsonLibraryStore(library).load())
    arrays = BatchRecommender(model).export_arrays()
    try:
        start = time.perf_counter()
        arena = SharedModelArena(arrays)
        engine = BatchRecommender.from_arrays(model, arena.views())
        elapsed = time.perf_counter() - start
        del engine
        try:
            arena.close()
        except BufferError:
            pass
    finally:
        # Creating shared memory spawned multiprocessing's resource tracker
        # as a child of this process; stop it and wait for it here, or it
        # would outlive the benchmark by the moment it takes to notice.
        resource_tracker._resource_tracker._stop()
    return elapsed * 1000


def layers(library: Path, untraced, traced, trace_dir: Path):
    """Return ``({metric: (value, unit)}, problems)`` for the traced pass.

    ``untraced`` and ``traced`` are ``(requests, reads, stats)`` of the two
    passes over the same seed.
    """
    problems: list[str] = []
    _, u_reads, u_stats = untraced
    requests, reads, stats = traced
    spans, lookups, mismatches = _load_spans(trace_dir)
    if mismatches:
        problems.append(f"{mismatches} spans saw another request id")

    per_request: dict[str, list] = defaultdict(list)
    by_name: dict[str, list] = defaultdict(list)
    for rid, name, tag, duration, self_ns, on_path in spans:
        by_name[name].append((tag, duration, self_ns))
        if rid is not None:
            per_request[rid].append((name, tag, duration, self_ns, on_path))

    # Per traced read: layer self times, residual, round trip.
    rows = []
    service_self, manager_self, admit, recorders, space = [], [], [], [], []
    json_us = []
    for req, read, result in zip(requests, reads, stats.results):
        if read is None or result is None or not result.ok:
            continue
        tree = per_request.get(req.rid)
        if not tree:
            problems.append(f"no spans for {req.rid}")
            continue
        rt_ns = result.round_trip * 1e9
        root = [d for name, tag, d, _, _ in tree
                if name == "service.dispatch" and tag == "on_path"]
        layer_ns = dict.fromkeys(LAYERS, 0)
        after_ns = 0
        for name, _, _, self_ns, on_path in tree:
            if on_path:
                layer_ns[name.split(".", 1)[0]] += self_ns
            else:
                after_ns += self_ns
        if len(root) != 1 or sum(layer_ns.values()) != root[0]:
            problems.append(f"span tree of {req.rid} does not nest")
            continue
        residual = rt_ns - root[0]
        if residual < 0:
            problems.append(f"{req.rid}: server time exceeds the round trip")
        rows.append((layer_ns, residual, rt_ns, after_ns))
        manager = [(d, s) for n, _, d, s, _ in tree if n == "service.manager_recommend"]
        service_self.append((rt_ns - sum(d for d, _ in manager)) / 1e6)
        manager_self.append(sum(s for _, s in manager) / 1e3)
        admit.append(sum(s for n, _, _, s, _ in tree if n == "resilience.admit") / 1e3)
        recorders.append(sum(s for n, _, _, s, _ in tree if n == "obs.recorders") / 1e3)
        space.append(sum(s for n, _, _, s, _ in tree if n == "caching.space") / 1e6)
        start = time.perf_counter_ns()
        json.loads(req.body)
        json.dumps(json.loads(result.body))
        json_us.append((time.perf_counter_ns() - start) / 1e3)

    if rows:
        mean_layers = {
            layer: statistics.fmean(r[0][layer] for r in rows) for layer in LAYERS
        }
        mean_residual = statistics.fmean(r[1] for r in rows)
        mean_rt = statistics.fmean(r[2] for r in rows)
        total = sum(mean_layers.values()) + mean_residual
        if abs(total - mean_rt) > 1e-6 * mean_rt:
            problems.append(f"layers + residual {total:.0f} ns != round trip {mean_rt:.0f} ns")
        print(f"  budget over {len(rows)} traced reads (mean us per read):")
        for layer in LAYERS:
            print(f"    {layer:<12} {mean_layers[layer] / 1e3:10.1f}")
        print(f"    {'residual':<12} {mean_residual / 1e3:10.1f}")
        print(f"    {'= round trip':<12} {mean_rt / 1e3:10.1f}  (sum {total / 1e3:.1f})")
        print(f"    {'after reply':<12} "
              f"{statistics.fmean(r[3] for r in rows) / 1e3:10.1f}  (off the round trip)")
    else:
        problems.append("no traced reads")

    # Traced responses must match the untraced ones of the same seed.
    compared = differing = 0
    for u_res, t_res, read in zip(u_stats.results, stats.results, reads):
        if read is None or u_res is None or t_res is None or not (u_res.ok and t_res.ok):
            continue
        if json.loads(u_res.body)["generation"] != json.loads(t_res.body)["generation"]:
            continue
        compared += 1
        differing += _normalized(u_res.body) != _normalized(t_res.body)
    print(f"  traced vs untraced responses: {compared} compared, {differing} differ")
    if differing or not compared:
        problems.append(f"{differing} of {compared} traced responses differ")

    def calls(name, tag=None, scale=1e3, field=1):
        return [
            entry[field] / scale for entry in by_name.get(name, [])
            if tag is None or entry[0] == tag
        ]

    read_results = [
        r for r, read in zip(stats.results, reads) if read is not None and r is not None
    ]
    ok_reads = [r for r in read_results if r.ok]
    cached = [b'"cached": true' in r.body for r in ok_reads]
    lookup_hits, lookup_total = lookups.get("implementation_space", [0, 0])
    freeze_calls = calls("incremental.freeze", "freeze", scale=1e6)
    stale_ratio, replay_lag = _stale_reads(requests, reads, stats)
    u_lat = [r.latency for r, read in zip(u_stats.results, u_reads)
             if read is not None and r is not None and r.ok]
    t_lat = [r.latency for r in ok_reads]
    attempted = sum(r is not None for r in stats.results)
    values = {
        "service.self_ms.p50": (quantile(service_self, 0.5), "ms"),
        "service.self_ms.p99": (quantile(service_self, 0.99), "ms"),
        "service.conns_per_req": (stats.conns_opened / max(1, attempted), "ratio"),
        "service.json_us": (quantile(json_us, 0.5), "us"),
        "service.manager_recommend_us": (quantile(manager_self, 0.5), "us"),
        "service.snapshot_wait_ms.p99": (
            quantile(calls("service.snapshot", scale=1e6), 0.99), "ms"),
        "service.apply_ms.p50": (quantile(calls("service.apply", scale=1e6), 0.5), "ms"),
        "service.apply_ms.p90": (quantile(calls("service.apply", scale=1e6), 0.9), "ms"),
        "resilience.admit_us": (quantile(admit, 0.5), "us"),
        "resilience.shed_ratio": (
            sum(r.status in (429, 503) for r in read_results) / max(1, len(read_results)),
            "ratio"),
        "caching.result_hit_ratio": (sum(cached) / max(1, len(cached)), "ratio"),
        "caching.result_us.hit": (
            quantile(calls("caching.result", "hit", field=2), 0.5), "us"),
        "caching.result_us.miss": (
            quantile(calls("caching.result", "miss", field=2), 0.5), "us"),
        "caching.space_ms": (statistics.fmean(space) if space else 0.0, "ms"),
        "caching.space_hit_ratio": (lookup_hits / max(1, lookup_total), "ratio"),
        "recommender.self_us": (
            quantile(calls("recommender.recommend", field=2), 0.5), "us"),
    }
    for strategy in STRATEGIES:
        ranks = calls("vectorized.rank", strategy)
        values[f"vectorized.rank_us.{strategy}.p50"] = (quantile(ranks, 0.5), "us")
        values[f"vectorized.rank_us.{strategy}.p99"] = (quantile(ranks, 0.99), "us")
    values.update({
        "vectorized.build_ms": (
            quantile(calls("vectorized.build", scale=1e6), 0.5), "ms"),
        # Incremental time per generation: freezes plus the pool parent's
        # add/remove, divided by the number of freezes.
        "incremental.freeze_ms": (
            sum(calls("incremental.freeze", scale=1e6)) / max(1, len(freeze_calls)),
            "ms"),
        "serving.stale_read_ratio": (stale_ratio, "ratio"),
        "serving.replay_lag_ms.p50": (replay_lag, "ms"),
        "serving.arena_ms": (_arena_ms(library), "ms"),
        "storage.load_ms": (quantile(calls("storage.load", scale=1e6), 0.5), "ms"),
        "obs.recorders_us": (quantile(recorders, 0.5), "us"),
        "residual_ms.p50": (quantile([r[1] / 1e6 for r in rows], 0.5), "ms"),
        "client.lag_ms.p99": (quantile([r.lag * 1000 for r in ok_reads], 0.99), "ms"),
        "trace_overhead_ms": (
            (quantile(t_lat, 0.5) - quantile(u_lat, 0.5)) * 1000, "ms"),
    })
    return values, problems
