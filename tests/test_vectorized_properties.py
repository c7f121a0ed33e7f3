"""Property-based equivalence: BatchRecommender vs reference strategies.

Hypothesis generates arbitrary small libraries and activities; the
vectorized engine must agree with the reference strategies (and its spaces
with the reference space queries) on every one — the library-level
counterpart of the fixed-dataset tests in
``test_vectorized.py``.  The serving view
(:class:`~repro.core.caching.CachedModelView`) answers its space queries
and the ensemble's paper-strategy members from that engine, so both are
checked against the bare model too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AssociationGoalModel,
    CachedModelView,
    GoalRecommender,
    vectorized,
)
from repro.core.approximate import PrunedBreadthStrategy
from repro.core.recommender import PAPER_STRATEGIES
from repro.core.strategies import create_strategy
from repro.core.strategies.ensemble import EnsembleStrategy
from repro.core.vectorized import (
    BatchRecommender,
    _frequency_rows,
    _ranked_windows,
)

action_labels = st.integers(min_value=0, max_value=20).map(lambda i: f"a{i}")
goal_labels = st.integers(min_value=0, max_value=6).map(lambda g: f"g{g}")
libraries = st.lists(
    st.tuples(
        goal_labels, st.frozensets(action_labels, min_size=1, max_size=5)
    ),
    min_size=1,
    max_size=15,
)
activities = st.frozensets(action_labels, max_size=6)


@st.composite
def tie_heavy_libraries(draw):
    """Identically shaped implementations over disjoint action blocks.

    Every goal gets the same implementation shapes in every block, so
    distinct candidates tie on every score and only the ascending-id
    tie-break orders them; a bridge implementation links the blocks.
    """
    blocks = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=2, max_value=4))
    goals = draw(st.integers(min_value=1, max_value=3))
    pairs = []
    for block in range(blocks):
        base = [f"t{block}_{i}" for i in range(width)]
        for goal in range(goals):
            pairs.append((f"g{goal}", frozenset(base)))
            pairs.append((f"g{goal}", frozenset(base[:2]) | {f"x{block}_{goal}"}))
    if blocks > 1:
        pairs.append(("bridge", frozenset(f"t{b}_0" for b in range(blocks))))
    return pairs


any_libraries = st.one_of(libraries, tie_heavy_libraries())


@given(libraries, activities, st.sampled_from(
    ["breadth", "focus_cmp", "focus_cl", "best_match"]
))
@settings(max_examples=60, deadline=None)
def test_batch_matches_reference(pairs, activity, name):
    model = AssociationGoalModel.from_pairs(pairs)
    batch = BatchRecommender(model)
    encoded = model.encode_activity(activity)
    reference = create_strategy(name).rank(model, encoded, k=8)
    vectorized = batch.rank(encoded, k=8, strategy=name)
    assert [aid for aid, _ in vectorized] == [aid for aid, _ in reference]
    for (_, ref_score), (_, vec_score) in zip(reference, vectorized):
        assert abs(ref_score - vec_score) < 1e-9


@given(libraries, activities)
@settings(max_examples=40, deadline=None)
def test_batch_breadth_scores_match(pairs, activity):
    from repro.core.strategies.breadth import BreadthStrategy

    model = AssociationGoalModel.from_pairs(pairs)
    batch = BatchRecommender(model)
    encoded = model.encode_activity(activity)
    reference = BreadthStrategy().scores(model, encoded)
    ranked = dict(batch.rank(encoded, model.num_actions, "breadth"))
    assert ranked.keys() == reference.keys()
    for aid, score in reference.items():
        assert abs(ranked[aid] - score) < 1e-9


@given(libraries, activities)
@settings(max_examples=40, deadline=None)
def test_batch_candidate_mask_consistent(pairs, activity):
    """The batch engine never returns activity actions or unreachable ones."""
    model = AssociationGoalModel.from_pairs(pairs)
    batch = BatchRecommender(model)
    encoded = model.encode_activity(activity)
    candidates = model.candidate_actions(encoded)
    for name in ("breadth", "best_match"):
        ranked = batch.rank(encoded, k=50, strategy=name)
        assert {aid for aid, _ in ranked} <= candidates


def _scalar_sizes(model, activity):
    """``len()`` of the reference IS/GS/AS/AS−H space queries."""
    action_space = model.action_space(activity)
    return (
        len(model.implementation_space(activity)),
        len(model.goal_space(activity)),
        len(action_space),
        len(action_space - activity),
    )


def _with_orphan_actions(model, orphans):
    """``model`` plus ``orphans`` actions that sit in no implementation.

    Their posting lists (and co-occurrence rows) are empty — the shape a
    hot-reloaded model takes after its last implementation of an action
    is removed, before compaction.
    """
    return AssociationGoalModel(
        model.action_labels() + [f"orphan{i}" for i in range(orphans)],
        model.goal_labels(),
        [
            model.implementation_actions(pid)
            for pid in range(model.num_implementations)
        ],
        [
            model.implementation_goal(pid)
            for pid in range(model.num_implementations)
        ],
    )


def _draw_activity(data, model):
    """An id-level activity over ``model``'s actions (orphans included)."""
    return data.draw(
        st.frozensets(
            st.integers(min_value=0, max_value=model.num_actions - 1),
            max_size=6,
        )
    )


@given(any_libraries, st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=80, deadline=None)
def test_space_sizes_match_scalar_queries(pairs, orphans, data):
    model = _with_orphan_actions(AssociationGoalModel.from_pairs(pairs), orphans)
    activity = _draw_activity(data, model)
    engine = BatchRecommender(model)
    shared = BatchRecommender.from_arrays(model, engine.export_arrays())
    expected = _scalar_sizes(model, activity)
    expected_spaces = (
        sorted(model.implementation_space(activity)),
        sorted(model.goal_space(activity)),
        sorted(model.action_space(activity)),
    )
    for candidate in (engine, shared):
        assert candidate.space_sizes(activity) == expected
        assert [
            space.tolist() for space in candidate.spaces(activity)
        ] == list(expected_spaces)


@given(any_libraries, st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_view_spaces_match_bare_model(pairs, orphans, data):
    """Every space answer of the serving view equals the scalar query."""
    model = _with_orphan_actions(AssociationGoalModel.from_pairs(pairs), orphans)
    view = CachedModelView(model)
    activity = _draw_activity(data, model)
    assert view.implementation_space(activity) == model.implementation_space(
        activity
    )
    assert view.goal_space(activity) == model.goal_space(activity)
    assert view.action_space(activity) == model.action_space(activity)
    assert view.candidate_actions(activity) == model.candidate_actions(activity)
    labels = {model.action_label(aid) for aid in activity} | {"unknown"}
    assert view.goal_space_labels(labels) == model.goal_space_labels(labels)
    assert view.action_space_labels(labels) == model.action_space_labels(labels)


@given(
    any_libraries,
    activities,
    st.sampled_from(["rrf", "borda"]),
    st.lists(
        st.sampled_from(PAPER_STRATEGIES + ("breadth_pruned",)),
        min_size=2,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_engine_routed_ensemble_matches_scalar(
    pairs, activity, method, members, pool_size
):
    """Members ranked by the view's engine fuse to the scalar ranking."""
    model = AssociationGoalModel.from_pairs(pairs)
    view = CachedModelView(model)
    ensemble = EnsembleStrategy(
        members=members, method=method, pool_size=pool_size
    )
    encoded = model.encode_activity(activity)
    assert ensemble.rank(view, encoded, 8) == ensemble.rank(model, encoded, 8)
    served = GoalRecommender(view).recommend(activity, k=8, strategy="ensemble")
    scalar = GoalRecommender(model).recommend(activity, k=8, strategy="ensemble")
    assert served == scalar


@given(libraries, st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_space_sizes_of_empty_and_orphan_activities(pairs, orphans):
    base = AssociationGoalModel.from_pairs(pairs)
    model = _with_orphan_actions(base, orphans)
    engine = BatchRecommender(model)
    orphan_ids = frozenset(range(base.num_actions, model.num_actions))
    assert engine.space_sizes(frozenset()) == (0, 0, 0, 0)
    assert engine.space_sizes(orphan_ids) == (0, 0, 0, 0)
    assert _scalar_sizes(model, orphan_ids) == (0, 0, 0, 0)
    # Orphans beside a real action add nothing to any space.
    mixed = orphan_ids | {0}
    assert engine.space_sizes(mixed) == _scalar_sizes(model, mixed)


def _reference_cooccurrence_rows(model):
    """``S = MᵀM`` from the model's posting sets, every row ordered by
    ``np.lexsort((cols, -counts, rows))`` — the ``(-count, action_id)``
    contract of the frequency-ordered index."""
    rows, cols, counts = [], [], []
    for b in range(model.num_actions):
        for c in range(model.num_actions):
            both = model.implementations_of_action(b) & (
                model.implementations_of_action(c)
            )
            if both:
                rows.append(b)
                cols.append(c)
                counts.append(float(len(both)))
    rows, cols, counts = np.array(rows), np.array(cols), np.array(counts)
    order = np.lexsort((cols, -counts, rows))
    rows, cols, counts = rows[order], cols[order], counts[order]
    return [
        (cols[rows == b].tolist(), counts[rows == b].tolist())
        for b in range(model.num_actions)
    ]


@given(any_libraries, st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_cooccurrence_rows_follow_the_lexsort_order(pairs, orphans):
    model = _with_orphan_actions(AssociationGoalModel.from_pairs(pairs), orphans)
    engine = BatchRecommender(model)
    shared = BatchRecommender.from_arrays(model, engine.export_arrays())
    expected = _reference_cooccurrence_rows(model)
    for candidate in (engine, shared):
        rows = [candidate.cooccurrence_row(b) for b in range(model.num_actions)]
        assert [(cols.tolist(), vals.tolist()) for cols, vals in rows] == expected


def _entries_near_the_top(n_actions, max_count):
    """Upper-triangle keys among the 12 highest ids and the diagonal of
    those ids, with counts reaching ``max_count`` — the entries whose
    packed keys are largest."""
    rng = np.random.default_rng(max_count)
    top = np.arange(n_actions - 12, n_actions)
    above, below = np.triu_indices(top.size, 1)
    upper = top[above] * n_actions + top[below]
    counts = rng.integers(1, max_count + 1, size=upper.size)
    counts[rng.integers(upper.size)] = max_count
    diagonal = np.zeros(n_actions, dtype=np.int64)
    diagonal[top] = rng.integers(1, max_count + 1, size=top.size)
    return upper, counts, diagonal


@pytest.mark.parametrize(
    ("max_count", "packed"),
    # n_actions = 64, so n_actions² · span reaches 2⁶³ at span = 2⁵¹.
    [(6, True), (2**51 - 2, True), (2**51 - 1, False), (2**52, False)],
    ids=["ties", "below", "at", "above"],
)
def test_frequency_rows_match_lexsort_around_the_key_bound(
    monkeypatch, max_count, packed
):
    n_actions = 64
    upper, counts, diagonal = _entries_near_the_top(n_actions, max_count)
    a, b = np.divmod(upper, n_actions)
    ids = np.flatnonzero(diagonal)
    rows = np.concatenate((a, b, ids))
    cols = np.concatenate((b, a, ids))
    values = np.concatenate((counts, counts, diagonal[ids]))
    expected = np.lexsort((cols, -values, rows))
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(keys)
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    got_cols, got_counts, indptr = _frequency_rows(
        upper, counts, diagonal, n_actions
    )
    np.testing.assert_array_equal(got_cols, cols[expected])
    assert got_counts.dtype == np.float64
    np.testing.assert_array_equal(got_counts, values[expected])
    np.testing.assert_array_equal(
        np.diff(indptr), np.bincount(rows, minlength=n_actions)
    )
    assert len(calls) == (0 if packed else 1)


def test_frequency_rows_of_no_entries():
    empty = np.empty(0, dtype=np.int64)
    for n_actions in (0, 3):
        cols, counts, indptr = _frequency_rows(
            empty, empty, np.zeros(n_actions, dtype=np.int64), n_actions
        )
        assert cols.size == counts.size == 0
        assert indptr.tolist() == [0] * (n_actions + 1)


@st.composite
def build_libraries(draw):
    """Libraries with 1-action rows, and sometimes an action that every
    implementation holds (a full row and column of ``S``)."""
    pairs = draw(any_libraries)
    pairs = pairs + draw(
        st.lists(
            st.tuples(goal_labels, action_labels.map(lambda a: frozenset({a}))),
            max_size=3,
        )
    )
    if draw(st.booleans()):
        pairs = [(goal, actions | {"everywhere"}) for goal, actions in pairs]
    return pairs


@pytest.mark.parametrize(
    "key_limit", [vectorized._PACKED_KEY_LIMIT, 0], ids=["packed", "lexsort"]
)
@pytest.mark.parametrize("slots", [0, 10**9], ids=["sorted", "table"])
@given(build_libraries(), st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_build_matches_a_scipy_reference(slots, key_limit, pairs, orphans):
    """The NumPy build against ``Mᵀ``, ``MᵀG`` and ``MᵀM`` from SciPy.

    ``slots`` forces either way of counting the co-occurrence pairs, and
    ``key_limit`` either way of ordering its rows.
    """
    from scipy import sparse

    model = _with_orphan_actions(AssociationGoalModel.from_pairs(pairs), orphans)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_TABLE_SLOTS_PER_PAIR", slots)
        patch.setattr(vectorized, "_PACKED_KEY_LIMIT", key_limit)
        arrays = BatchRecommender(model).export_arrays()
    n_impl = model.num_implementations
    rows = [sorted(model.implementation_actions(p)) for p in range(n_impl)]
    m = sparse.csr_matrix(
        (
            np.ones(sum(map(len, rows))),
            np.concatenate(rows),
            np.cumsum([0] + [len(row) for row in rows]),
        ),
        shape=(n_impl, model.num_actions),
    )
    goals = [model.implementation_goal(p) for p in range(n_impl)]
    g = sparse.csr_matrix(
        (np.ones(n_impl), goals, np.arange(n_impl + 1)),
        shape=(n_impl, model.num_goals),
    )
    mt = m.T.tocsr()
    mt.sort_indices()
    np.testing.assert_array_equal(arrays["post_indptr64"], mt.indptr)
    np.testing.assert_array_equal(arrays["post_indices64"], mt.indices)
    c = (mt @ g).tocsr()
    s = (mt @ m).tocsr()
    np.testing.assert_array_equal(arrays["c_indptr64"], c.indptr)
    np.testing.assert_array_equal(arrays["cooc_indptr"], s.indptr)
    for aid in range(model.num_actions):
        start, end = c.indptr[aid], c.indptr[aid + 1]
        got_goals = arrays["c_indices64"][start:end].tolist()
        got_counts = arrays["c_data"][start:end].tolist()
        assert got_goals == sorted(set(got_goals))
        assert list(zip(got_goals, got_counts)) == sorted(
            zip(c.indices[start:end].tolist(), c.data[start:end].tolist())
        )
        start, end = s.indptr[aid], s.indptr[aid + 1]
        cols, counts = s.indices[start:end], s.data[start:end]
        order = np.lexsort((cols, -counts))
        np.testing.assert_array_equal(arrays["cooc_cols"][start:end], cols[order])
        np.testing.assert_array_equal(arrays["cooc_vals"][start:end], counts[order])


# ----------------------------------------------------------------------
# Dense-scale branches on tiny libraries
# ----------------------------------------------------------------------
#
# The Focus walk ranks a widening prefix only above _PARTITION_CUTOVER
# touched implementations, and Best Match sweeps C only when its candidate
# rows hold more than _SWEEP_SHARE of C's entries; the libraries above
# (at most 15 implementations) reach neither.  Forcing the thresholds to 0
# walks both branches against the scalar strategies, and a first Focus
# window of 2k implementations makes the prefix widen.


def _forced_dense_branches(patch):
    patch.setattr(vectorized, "_PARTITION_CUTOVER", 0)
    patch.setattr(vectorized, "_SWEEP_SHARE", 0.0)
    patch.setattr(vectorized, "_FIRST_WINDOW", 1)


def _with_interleaved_orphans(model):
    """``model`` with an orphan action before every real one.

    Every even action id then has an empty posting list, co-occurrence
    row and row of ``C`` — row 0 included — so the candidate rows of a
    Best Match sweep are separated by empty ones.
    """
    labels = []
    for label in model.action_labels():
        labels += [f"hole:{label}", label]
    return AssociationGoalModel(
        labels,
        model.goal_labels(),
        [
            frozenset(2 * aid + 1 for aid in model.implementation_actions(pid))
            for pid in range(model.num_implementations)
        ],
        [
            model.implementation_goal(pid)
            for pid in range(model.num_implementations)
        ],
    )


@st.composite
def sentinel_activities(draw, model):
    """Whole implementations (full-overlap Focus sentinels) plus extras."""
    whole = draw(
        st.lists(
            st.integers(min_value=0, max_value=model.num_implementations - 1),
            max_size=3,
        )
    )
    extra = draw(
        st.frozensets(
            st.integers(min_value=0, max_value=model.num_actions - 1),
            max_size=3,
        )
    )
    activity = set(extra)
    for pid in whole:
        activity |= model.implementation_actions(pid)
    return frozenset(activity)


@given(
    any_libraries,
    st.sampled_from(["none", "trailing", "interleaved"]),
    st.sampled_from([1, 2, 3, 8]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_dense_branches_match_reference(pairs, orphans, k, data):
    model = AssociationGoalModel.from_pairs(pairs)
    if orphans == "trailing":
        model = _with_orphan_actions(model, 2)
    elif orphans == "interleaved":
        model = _with_interleaved_orphans(model)
    activity = data.draw(sentinel_activities(model))
    engine = BatchRecommender(model)
    expected = {
        name: create_strategy(name).rank(model, activity, k)
        for name in ("breadth", "focus_cmp", "focus_cl", "best_match")
    }
    pruned = PrunedBreadthStrategy(budget=2)
    expected_pruned = pruned.rank(model, activity, k)
    with pytest.MonkeyPatch.context() as patch:
        _forced_dense_branches(patch)
        for name, ranking in expected.items():
            assert engine.rank(activity, k, name) == ranking, name
        assert engine.pruned_breadth_rank(activity, k, 2) == expected_pruned


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0, 4096]),
)
@settings(max_examples=100, deadline=None)
def test_ranked_windows_concatenate_to_the_full_ranking(
    values, chunk, cutover
):
    """Heavy ties put the window boundaries inside tie groups."""
    ids = np.arange(0, 3 * len(values), 3)
    scores = np.array(values, dtype=np.float64) / 2.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_PARTITION_CUTOVER", cutover)
        windows = list(_ranked_windows(ids, scores, chunk))
    assert windows[0].size == min(chunk, ids.size)
    np.testing.assert_array_equal(
        np.concatenate(windows), np.lexsort((ids, -scores))
    )


@pytest.mark.parametrize("share", [0.0, 1.0])
def test_goal_products_over_empty_rows_of_c(share, monkeypatch):
    """Both summation paths agree with dense algebra on every row of C,
    the empty rows of orphan actions included (``np.add.reduceat``
    returns the next element, not 0, on an empty segment)."""
    base = AssociationGoalModel.from_pairs(
        [("g0", {"a", "b"}), ("g1", {"b", "c"}), ("g1", {"a", "c", "d"})]
    )
    model = _with_orphan_actions(_with_interleaved_orphans(base), 2)
    engine = BatchRecommender(model)
    dense_c = np.zeros((model.num_actions, model.num_goals))
    for pid in range(model.num_implementations):
        for aid in model.implementation_actions(pid):
            dense_c[aid, model.implementation_goal(pid)] += 1.0
    profile = np.array([3.0, 5.0])
    gs_indicator = np.array([1.0, 0.0])
    rows = np.arange(model.num_actions)
    monkeypatch.setattr(vectorized, "_SWEEP_SHARE", share)
    dots, norms_sq = engine._goal_products(rows, profile, gs_indicator)
    assert dots.tolist() == (dense_c @ profile).tolist()
    assert norms_sq.tolist() == ((dense_c**2) @ gs_indicator).tolist()
    assert dots[0] == norms_sq[0] == dots[-1] == norms_sq[-1] == 0.0
