"""The structural contracts of repro.core.protocols, checked at runtime.

``mypy --strict`` verifies signatures in CI; these tests pin member
*presence* for both model implementations and every registered strategy,
so a surface regression fails even in environments without mypy.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AssociationGoalModel,
    CachedModelView,
    IncrementalGoalModel,
    ModelView,
    Strategy,
    create_strategy,
)
from repro.core.strategies.base import STRATEGY_REGISTRY

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "butter"}),
]


def test_frozen_model_satisfies_model_view():
    model = AssociationGoalModel.from_pairs(PAIRS)
    assert isinstance(model, ModelView)


def test_cached_view_satisfies_model_view():
    view = CachedModelView(AssociationGoalModel.from_pairs(PAIRS))
    assert isinstance(view, ModelView)
    # The delegated (non-overridden) surface works through the proxy too.
    assert view.num_implementations == 2
    assert view.goal_completeness(view.goal_id("mashed potatoes"),
                                  view.encode_activity({"potatoes"})) == 0.5


#: Constructor options for strategies that require configuration.
REQUIRED_OPTIONS = {
    "hybrid": {"item_features": {"potatoes": ["vegetable"]}},
}


@pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
def test_every_registered_strategy_satisfies_strategy(name):
    strategy = create_strategy(name, **REQUIRED_OPTIONS.get(name, {}))
    assert isinstance(strategy, Strategy)
    assert isinstance(strategy.name, str) and strategy.name


def test_strategies_interchangeable_across_implementations():
    frozen = AssociationGoalModel.from_pairs(PAIRS)
    log = IncrementalGoalModel()
    for goal, actions in PAIRS:
        log.add_implementation(goal, sorted(actions))
    view = CachedModelView(frozen)
    activity = frozenset({"potatoes", "carrots"})
    strategy = create_strategy("breadth")
    results = [
        strategy.recommend(source, source.encode_activity(activity), 5).actions()
        for source in (frozen, log.freeze(), view)
    ]
    assert len(set(map(tuple, results))) == 1, results
