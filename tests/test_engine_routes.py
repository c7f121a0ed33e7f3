"""Differential tests: the served routes' engine answers equal the scalar ones.

Every served generation is one :class:`~repro.core.caching.CachedModelView`
over a CSR engine built straight from the mutation log
(:func:`~repro.core.caching.build_served_view`).  Hypothesis drives random
libraries, tie-heavy libraries and logs whose removals orphan actions; on
each, the engine's ``/goals``, ``/related`` and ``/explain`` answers and
the view's statistics and index lookups must equal, exactly, the scalar
functions over ``AssociationGoalModel.from_library(live library)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AssociationGoalModel,
    CachedModelView,
    GoalInferencer,
    GoalRecommender,
    IncrementalGoalModel,
    ModelView,
    related_actions,
)
from repro.core.caching import build_served_view
from repro.core.goal_inference import SCORERS
from repro.exceptions import UnknownActionError, UnknownGoalError

action_labels = st.integers(min_value=0, max_value=20).map(lambda i: f"a{i}")
goal_labels = st.integers(min_value=0, max_value=6).map(lambda g: f"g{g}")
random_pairs = st.lists(
    st.tuples(goal_labels, st.frozensets(action_labels, min_size=1, max_size=5)),
    min_size=1,
    max_size=15,
)


@st.composite
def tie_heavy_pairs(draw):
    """Identically shaped implementations over disjoint action blocks, so
    scores tie everywhere and only the tie-breaks order the answers."""
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


@st.composite
def served_logs(draw):
    """A mutation log over random or tie-heavy pairs, after removals.

    Removing implementations orphans the actions only they used: those
    labels stay in the returned vocabulary, so activities and ``/related``
    queries name them, but neither the served generation nor the scalar
    model over the live library knows them any more.
    """
    pairs = draw(st.one_of(random_pairs, tie_heavy_pairs()))
    log = IncrementalGoalModel()
    ids = sorted({log.add_implementation(goal, actions) for goal, actions in pairs})
    removed = draw(
        st.lists(st.sampled_from(ids), unique=True, max_size=len(ids) - 1)
    )
    for pid in removed:
        log.remove_implementation(pid)
    vocabulary = sorted({action for _, actions in pairs for action in actions})
    return log, vocabulary + ["unknown"]


def served_and_reference(log):
    return build_served_view(log), AssociationGoalModel.from_library(log.to_library())


def draw_activity(data, vocabulary):
    return data.draw(st.frozensets(st.sampled_from(vocabulary), max_size=6))


@given(
    served_logs(),
    st.data(),
    st.sampled_from(SCORERS),
    st.none() | st.integers(min_value=1, max_value=6),
)
@settings(max_examples=120, deadline=None)
def test_goals_equal_the_inferencer(logged, data, scorer, top):
    log, vocabulary = logged
    view, model = served_and_reference(log)
    activity = draw_activity(data, vocabulary)
    assert view.csr_engine().infer_goals(activity, scorer=scorer, top=top) == (
        GoalInferencer(model, scorer=scorer).infer(activity, top=top)
    )


@given(served_logs(), st.data(), st.integers(min_value=1, max_value=8))
@settings(max_examples=120, deadline=None)
def test_related_equals_the_scalar_function(logged, data, k):
    log, vocabulary = logged
    view, model = served_and_reference(log)
    action = data.draw(st.sampled_from(vocabulary))
    if not model.has_action(action):
        with pytest.raises(UnknownActionError):
            view.csr_engine().related_actions(action, k=k)
        return
    assert view.csr_engine().related_actions(action, k=k) == related_actions(
        model, action, k=k
    )


@given(served_logs(), st.data())
@settings(max_examples=120, deadline=None)
def test_explain_equals_the_recommender(logged, data):
    log, vocabulary = logged
    view, model = served_and_reference(log)
    activity = draw_activity(data, vocabulary)
    action = data.draw(st.sampled_from(vocabulary))
    reference = GoalRecommender(model, use_csr=False)
    if not model.has_action(action):
        with pytest.raises(UnknownActionError):
            view.csr_engine().explain(activity, action)
        return
    served = view.csr_engine().explain(activity, action)
    expected = reference.explain(activity, action)
    # Same goals in the same order, same implementations in the same order.
    assert list(served.items()) == list(expected.items())


@given(served_logs())
@settings(max_examples=80, deadline=None)
def test_view_statistics_equal_the_models(logged):
    log, _ = logged
    view, model = served_and_reference(log)
    assert view.stats() == model.stats()
    assert view.action_frequencies() == model.action_frequencies()


@given(random_pairs, st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_view_statistics_with_orphan_actions(pairs, orphans):
    """A model built directly may index actions no implementation uses."""
    base = AssociationGoalModel.from_pairs(pairs)
    model = AssociationGoalModel(
        base.action_labels() + [f"orphan{i}" for i in range(orphans)],
        base.goal_labels(),
        [base.implementation_actions(p) for p in range(base.num_implementations)],
        [base.implementation_goal(p) for p in range(base.num_implementations)],
    )
    view = CachedModelView(model)
    assert view.stats() == model.stats()
    assert view.action_frequencies() == model.action_frequencies()
    for aid in range(model.num_actions):
        assert view.implementations_of_action(aid) == (
            model.implementations_of_action(aid)
        )


@given(served_logs(), st.data())
@settings(max_examples=80, deadline=None)
def test_view_index_lookups_equal_the_models(logged, data):
    log, vocabulary = logged
    view, model = served_and_reference(log)
    assert isinstance(view, ModelView)
    assert (view.num_actions, view.num_goals, view.num_implementations) == (
        model.num_actions, model.num_goals, model.num_implementations,
    )
    assert view.labels.actions == model.action_labels()
    assert view.labels.goals == model.goal_labels()
    activity = draw_activity(data, vocabulary)
    encoded = model.encode_activity(activity)
    assert view.encode_activity(activity) == encoded
    for pid in range(model.num_implementations):
        assert view.implementation_actions(pid) == model.implementation_actions(pid)
        assert view.implementation_goal(pid) == model.implementation_goal(pid)
        assert view.implementation(pid) == model.implementation(pid)
    for aid in range(model.num_actions):
        label = model.action_label(aid)
        assert view.action_label(aid) == label
        assert view.action_id(label) == aid
        assert view.has_action(label)
        assert view.implementations_of_action(aid) == (
            model.implementations_of_action(aid)
        )
    for gid in range(model.num_goals):
        label = model.goal_label(gid)
        assert view.goal_label(gid) == label
        assert view.goal_id(label) == gid
        assert view.has_goal(label)
        assert view.implementations_of_goal(gid) == model.implementations_of_goal(gid)
        assert view.goal_completeness(gid, encoded) == (
            model.goal_completeness(gid, encoded)
        )
    assert not view.has_action("unknown") and not view.has_goal("unknown")
    with pytest.raises(UnknownActionError):
        view.action_id("unknown")
    with pytest.raises(UnknownGoalError):
        view.goal_id("unknown")
    with pytest.raises(UnknownActionError):
        view.encode_activity(["unknown"], strict=True)
