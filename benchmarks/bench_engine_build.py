"""Engine build: ``BatchRecommender(model)`` on a FoodMart-shaped model.

The serving layer builds one CSR engine per model generation — at start-up
and again on every PUT or DELETE, under the swap's write lock — so its
construction time is set-up and mutation latency.  The build is NumPy
array work end to end: ``M`` comes straight from the id-sorted
implementation rows, ``Mᵀ`` and ``C = MᵀG`` are sorts of packed int64
keys, and the co-occurrence index ``S = MᵀM`` counts each
implementation's action pairs and orders every row by one sort of packed
int64 keys.

The bench times the whole build (median of ``REPEATS``) and, report-only,
the SciPy sparse products that compute ``Mᵀ``, ``MᵀG`` and ``MᵀM`` from
the same ``M``: SciPy is the reference here, not part of the engine.  It
asserts that every row of the engine's co-occurrence index equals the
reference ``MᵀM`` row in the lexsort order ``(-count, action_id)``, and
that every row of ``C`` holds the reference ``MᵀG`` row's ``(goal,
count)`` pairs, ascending by goal.

It also times a served generation's build from the mutation log both
ways: the old path, ``log.freeze()`` (an ``AssociationGoalModel`` with
its dict indexes) followed by ``BatchRecommender``, and the served path,
interning the log's label rows (``intern_rows``) and building the engine
from the label tables and id-sorted rows.  Both engines'
``export_arrays()`` must be equal in value and dtype.  The model keeps the paper's FoodMart recipe
lengths (mean 33 actions) over a smaller catalog so generation stays a few
seconds.

Two report-only rows describe what a served generation holds: the PSS
(proportional set size, from ``/proc/self/smaps_rollup``) that one
``build_served_view`` retains, read in a fresh interpreter that loads
the library through ``JsonLibraryStore`` just before and just after the
build, and the bytes of the engine's ``export_arrays()``.  No gate reads
them; the PSS row is ``n/a`` where ``/proc`` is absent.

Run with ``PYTHONPATH=src python -m pytest
benchmarks/bench_engine_build.py -q``; the table lands in
``benchmarks/results/engine_build.txt``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import publish

from repro.core import AssociationGoalModel, IncrementalGoalModel
from repro.core.model import intern_rows
from repro.core.vectorized import BatchRecommender
from repro.data import FoodMartConfig, generate_foodmart
from repro.eval import format_table
from repro.storage import JsonLibraryStore

REPEATS = 5

CONFIG = FoodMartConfig(
    num_products=800,
    num_categories=64,
    num_recipes=4000,
    num_carts=1,
    recipe_length_mean=33.0,
    recipe_length_min=5,
    recipe_length_max=60,
)
SEED = 1


def _median_ms(fn) -> tuple[float, object]:
    """Median wall time of ``REPEATS`` calls, and the last call's result."""
    times = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), result


#: Run in a fresh interpreter on a saved library: the PSS in MB before
#: and after one served generation build (``null`` without ``/proc``).
_PSS_PROBE = """
import gc, json, sys
import repro.core.vectorized  # imports are not build cost
from repro.core import IncrementalGoalModel
from repro.core.caching import build_served_view
from repro.storage import JsonLibraryStore

def pss_mb():
    try:
        with open("/proc/self/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None

log = IncrementalGoalModel.from_library(JsonLibraryStore(sys.argv[1]).load())
gc.collect()
before = pss_mb()
view = build_served_view(log)
gc.collect()
print(json.dumps([before, pss_mb()]))
"""


def _served_build_pss_mb(library_path: Path) -> float | None:
    """PSS one ``build_served_view`` retains in a fresh process, or
    ``None`` where ``/proc/self/smaps_rollup`` is absent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", _PSS_PROBE, str(library_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    before, after = json.loads(result.stdout)
    if before is None or after is None:
        return None
    return after - before


@pytest.fixture(scope="module")
def library():
    return generate_foodmart(CONFIG, seed=SEED).library


@pytest.fixture(scope="module")
def model(library) -> AssociationGoalModel:
    return AssociationGoalModel.from_library(library)


def test_engine_build(library, model, tmp_path):
    build_ms, engine = _median_ms(lambda: BatchRecommender(model))

    # A served generation's build from the mutation log, old and new.
    log = IncrementalGoalModel.from_library(library)
    freeze_ms, frozen = _median_ms(log.freeze)
    frozen_build_ms, from_frozen = _median_ms(lambda: BatchRecommender(frozen))
    intern_ms, interned = _median_ms(lambda: intern_rows(log.rows()))
    interned_build_ms, from_log = _median_ms(lambda: BatchRecommender(interned))
    old_arrays = from_frozen.export_arrays()
    new_arrays = from_log.export_arrays()
    assert old_arrays.keys() == new_arrays.keys()
    for name, array in old_arrays.items():
        assert new_arrays[name].dtype == array.dtype, name
        np.testing.assert_array_equal(new_arrays[name], array, err_msg=name)

    # The SciPy reference products over the engine's own CSR ``M``.
    n_impl, n_actions = model.num_implementations, model.num_actions
    m = sparse.csr_matrix(
        (np.ones(engine._m_indices.size), engine._m_indices, engine._m_indptr),
        shape=(n_impl, n_actions),
    )
    g = sparse.csr_matrix(
        (np.ones(n_impl), engine._goal_of_impl, np.arange(n_impl + 1)),
        shape=(n_impl, model.num_goals),
    )

    def reference_products():
        mt = m.T.tocsr()
        return mt, (mt @ g).tocsr(), (mt @ m).tocsr()

    spmm_ms, (mt, c, s) = _median_ms(reference_products)
    arrays = engine.export_arrays()
    np.testing.assert_array_equal(arrays["post_indptr64"], mt.indptr)
    np.testing.assert_array_equal(arrays["post_indices64"], mt.indices)
    np.testing.assert_array_equal(arrays["c_indptr64"], c.indptr)
    for aid in range(n_actions):
        start, end = c.indptr[aid], c.indptr[aid + 1]
        order = np.argsort(c.indices[start:end])
        np.testing.assert_array_equal(
            arrays["c_indices64"][start:end], c.indices[start:end][order]
        )
        np.testing.assert_array_equal(
            arrays["c_data"][start:end], c.data[start:end][order]
        )
    rows = np.repeat(np.arange(n_actions), np.diff(s.indptr))
    reference = np.lexsort((s.indices, -s.data, rows))
    boundaries = s.indptr[1:-1]
    expected_cols = np.split(s.indices[reference], boundaries)
    expected_vals = np.split(s.data[reference], boundaries)
    assert arrays["cooc_indptr"].size == n_actions + 1
    for aid, (want_cols, want_vals) in enumerate(zip(expected_cols, expected_vals)):
        got_cols, got_vals = engine.cooccurrence_row(aid)
        np.testing.assert_array_equal(got_cols, want_cols)
        np.testing.assert_array_equal(got_vals, want_vals)

    array_mb = sum(array.nbytes for array in new_arrays.values()) / 2**20
    library_path = tmp_path / "library.json"
    JsonLibraryStore(library_path).save(library)
    retained_mb = _served_build_pss_mb(library_path)

    table = format_table(
        ["quantity", "value"],
        [
            ["implementations", model.num_implementations],
            ["actions", n_actions],
            ["S nonzeros", s.nnz],
            [f"BatchRecommender(model) ms (median of {REPEATS})", f"{build_ms:.1f}"],
            [
                "NumPy build vs SciPy spmm reference ms (report-only)",
                f"{build_ms:.1f} vs {spmm_ms:.1f}",
            ],
            ["posting lists equal the reference Mᵀ", "yes"],
            ["C rows equal MᵀG, ascending by goal", "yes"],
            ["S rows equal MᵀM in the lexsort order", "yes"],
            ["generation from the log: freeze() ms", f"{freeze_ms:.1f}"],
            ["  + BatchRecommender(frozen model) ms", f"{frozen_build_ms:.1f}"],
            ["  = old generation build ms", f"{freeze_ms + frozen_build_ms:.1f}"],
            ["generation from the log: intern_rows ms", f"{intern_ms:.1f}"],
            ["  + BatchRecommender(interned) ms", f"{interned_build_ms:.1f}"],
            ["  = served generation build ms", f"{intern_ms + interned_build_ms:.1f}"],
            ["export_arrays() equal in value and dtype", "yes"],
            ["engine export_arrays() MB", f"{array_mb:.1f}"],
            [
                "served generation build: PSS retained MB (fresh process)",
                "n/a" if retained_mb is None else f"{retained_mb:.1f}",
            ],
        ],
        title=(
            "Engine build on a FoodMart-shaped model "
            f"({CONFIG.num_products} products, {CONFIG.num_recipes} recipes, "
            f"seed {SEED})"
        ),
    )
    publish("engine_build", table)
