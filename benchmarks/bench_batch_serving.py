"""Serving throughput: ``POST /recommend/batch`` vs a single-request loop.

The acceptance bar for the serving layer is a >= 5x throughput gain for the
batch endpoint over looping ``POST /recommend`` on a >= 5000-activity
workload, with bit-identical rankings.  The loop is measured against a
service with result caching *disabled* (``cache_size=0``), so it prices the
honest per-request reference path rather than LRU hits; the loop leg is
timed on a subsample and reported as throughput, the batch leg scores the
full workload in chunks.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from conftest import publish

from repro.eval import format_table
from repro.service import RecommenderService

WORKLOAD = 5000   # activities scored through the batch endpoint
LOOP_SAMPLE = 300  # single requests timed for the loop throughput estimate
BATCH_CHUNK = 1000  # activities per /recommend/batch request
TOP_K = 10


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def serving(request):
    harness = request.getfixturevalue("foodmart_harness")
    base = [sorted(user.observed) for user in harness.split]
    activities = [base[i % len(base)] for i in range(WORKLOAD)]
    service = RecommenderService(
        harness.model, port=0, enable_metrics=False,
        cache_size=0,
    ).start()
    yield service, activities
    service.stop()


def test_batch_endpoint_beats_single_request_loop(serving):
    service, activities = serving

    # Loop leg: one HTTP round trip per activity, reference ranking path.
    sample = activities[:LOOP_SAMPLE]
    start = time.perf_counter()
    loop_results = [
        _post(service.port, "/recommend", {"activity": a, "k": TOP_K})
        for a in sample
    ]
    loop_seconds = time.perf_counter() - start
    loop_throughput = len(sample) / loop_seconds

    # Batch leg: the full workload in a few bulk requests.
    start = time.perf_counter()
    batch_rows: list[list[dict]] = []
    for begin in range(0, len(activities), BATCH_CHUNK):
        body = _post(
            service.port, "/recommend/batch",
            {
                "activities": activities[begin:begin + BATCH_CHUNK],
                "k": TOP_K,
                "strategy": "breadth",
            },
        )
        batch_rows.extend(body["results"])
    batch_seconds = time.perf_counter() - start
    batch_throughput = len(activities) / batch_seconds

    # Bit-identical rankings on the overlapping slice.
    assert len(batch_rows) == len(activities)
    for single, bulk in zip(loop_results, batch_rows):
        assert single["recommendations"] == bulk

    speedup = batch_throughput / loop_throughput
    table = format_table(
        ["path", "activities", "seconds", "activities_per_s", "speedup"],
        [
            ["loop /recommend", len(sample), loop_seconds, loop_throughput, 1.0],
            [
                "batch /recommend/batch", len(activities), batch_seconds,
                batch_throughput, speedup,
            ],
        ],
        title=(
            f"serving throughput, breadth top-{TOP_K} "
            f"({len(activities)} activities, cache disabled)"
        ),
    )
    publish("batch_serving_throughput", table)
    assert speedup >= 5.0, f"batch speedup {speedup:.1f}x below the 5x bar"
