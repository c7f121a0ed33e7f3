"""Lock-sanitizer overhead: disabled within noise, enabled within 25%.

The runtime half of the concurrency-correctness gate (see
``docs/static-analysis.md`` for the static RL006/RL007 half) promises two
budgets on the paper-scale recommend path:

- **disabled** (the production default): the ``make_lock``/``RWLock``
  factories return *raw* ``threading`` primitives when the sanitizer is
  off, so a service built without ``--lock-sanitizer`` must be within
  measurement noise of one that predates the subsystem entirely (≤2%) —
  the type-identity assertion below is the structural proof, the timing
  documents it;
- **enabled**: a service built under ``enable_lock_sanitizer`` pays for
  per-thread acquisition stacks, order checks and hold timing on every
  lock operation, and must stay within 25% end to end.

The workload drives :class:`~repro.service.ModelManager.recommend` — the
serving path whose locks (``ModelManager._lock`` read side, the two LRU
cache mutexes) the sanitizer actually instruments — with unit-sized caches
so every request does real scoring work rather than degenerating into a
lock microbench.  Timings interleave the three configurations round-robin
and compare each round's back-to-back tuple, taking the cleanest pair per
ratio: load drift slows all arms of a round together, so the paired ratio
isolates instrumentation cost (same method as ``bench_quality_telemetry``).
"""

from __future__ import annotations

import gc
import threading
import time

from conftest import publish

from repro.eval.report import format_table
from repro.service import ModelManager
from repro.utils.concurrency import (
    enable_lock_sanitizer,
    lock_sanitizer_snapshot,
    lock_sanitizer_violations,
    make_condition,
    make_lock,
    make_rlock,
    reset_lock_sanitizer,
)

REPEATS = 9
TOP_K = 10
DISABLED_BUDGET = 1.02  # within noise of a pre-subsystem build
ENABLED_BUDGET = 1.25  # full checking on the recommend path


def _build_manager(harness) -> ModelManager:
    # A unit cache: every request misses and runs the full scoring pipeline,
    # which is what "the recommend path" means at paper scale — a warm-LRU
    # loop would time nothing but the lock acquisitions themselves.
    return ModelManager(harness.model, cache_size=1)


def _run_once(manager: ModelManager, activities) -> float:
    start = time.perf_counter()
    for activity in activities:
        manager.recommend(activity, k=TOP_K, strategy="breadth")
    return time.perf_counter() - start


def test_lock_sanitizer_overhead(foodmart_harness, benchmark):
    activities = [list(user.observed) for user in foodmart_harness.split]

    reset_lock_sanitizer()
    # Structural zero-overhead proof: with the sanitizer off the factories
    # hand back the raw stdlib primitives, not wrappers around them.
    assert type(make_lock("Bench._lock")) is type(threading.Lock())
    assert type(make_rlock("Bench._rlock")) is type(threading.RLock())
    assert isinstance(make_condition("Bench._cond"), threading.Condition)

    baseline = _build_manager(foodmart_harness)
    disabled = _build_manager(foodmart_harness)
    enable_lock_sanitizer()  # discovers the committed locks.toml
    assert lock_sanitizer_snapshot()["declared_edges"] >= 1
    enabled = _build_manager(foodmart_harness)

    def interleaved() -> tuple[float, float, float, float, float]:
        for manager in (baseline, disabled, enabled):
            _run_once(manager, activities)  # warm outside the timed rounds
        rounds: list[tuple[float, float, float]] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                gc.collect()
                rounds.append(
                    (
                        _run_once(baseline, activities),
                        _run_once(disabled, activities),
                        _run_once(enabled, activities),
                    )
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        disabled_ratio = min(d / b for b, d, _e in rounds)
        enabled_ratio = min(e / b for b, _d, e in rounds)
        best_base = min(b for b, _d, _e in rounds)
        best_enabled = min(e for _b, _d, e in rounds)
        best_disabled = min(d for _b, d, _e in rounds)
        return (
            disabled_ratio, enabled_ratio,
            best_base, best_disabled, best_enabled,
        )

    try:
        (
            disabled_ratio, enabled_ratio,
            best_base, best_disabled, best_enabled,
        ) = benchmark.pedantic(interleaved, rounds=1, iterations=1)
        violations = lock_sanitizer_violations()
        sites = lock_sanitizer_snapshot()["sites"]
    finally:
        reset_lock_sanitizer()

    per_request_us = 1e6 / len(activities)
    rows = [
        ["baseline (no sanitizer)", best_base * per_request_us, 1.0],
        ["disabled (factories, off)", best_disabled * per_request_us,
         disabled_ratio],
        ["enabled (full checking)", best_enabled * per_request_us,
         enabled_ratio],
    ]
    publish(
        "lock_sanitizer",
        format_table(
            ["configuration", "us_per_request", "vs_baseline"],
            rows,
            title=(
                f"lock sanitizer overhead: ModelManager.recommend over "
                f"FoodMart, best pair of {REPEATS}x{len(activities)} requests"
            ),
        ),
    )

    assert disabled_ratio <= DISABLED_BUDGET, (
        f"sanitizer-off build is {disabled_ratio:.3f}x baseline "
        f"(budget {DISABLED_BUDGET}x) — the disabled mode must be free"
    )
    assert enabled_ratio <= ENABLED_BUDGET, (
        f"instrumented build is {enabled_ratio:.3f}x baseline "
        f"(budget {ENABLED_BUDGET}x)"
    )
    # The gate measured the real thing: the instrumented manager's locks
    # were exercised and the committed ordering held.
    assert violations == ()
    assert "ModelManager._lock" in sites
    assert "LRUCache._lock" in sites
