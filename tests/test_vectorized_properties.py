"""Property-based equivalence: BatchRecommender vs reference strategies.

Hypothesis generates arbitrary small libraries and activities; the
vectorized engine must agree with the reference strategies (and its space
sizes with the reference space queries) on every one — the library-level
counterpart of the fixed-dataset tests in
``test_vectorized.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AssociationGoalModel
from repro.core.strategies import create_strategy
from repro.core.vectorized import BatchRecommender

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
    vector = batch.breadth_scores(encoded)
    for aid, score in reference.items():
        assert abs(vector[aid] - score) < 1e-9


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


@given(libraries, st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=80, deadline=None)
def test_space_sizes_match_scalar_queries(pairs, orphans, data):
    model = _with_orphan_actions(AssociationGoalModel.from_pairs(pairs), orphans)
    activity = data.draw(
        st.frozensets(
            st.integers(min_value=0, max_value=model.num_actions - 1),
            max_size=6,
        )
    )
    engine = BatchRecommender(model)
    shared = BatchRecommender.from_arrays(model, engine.export_arrays())
    expected = _scalar_sizes(model, activity)
    assert engine.space_sizes(activity) == expected
    assert shared.space_sizes(activity) == expected


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
