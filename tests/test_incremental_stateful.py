"""Stateful property tests: the mutation log and served models vs a rebuild oracle.

Hypothesis drives random sequences of add/remove operations against an
:class:`IncrementalGoalModel` while a shadow list of live ``(goal, actions)``
pairs defines the ground truth.  After every step, a freshly built
:class:`AssociationGoalModel` over the shadow state must agree with the
log's ``freeze()`` on all space queries and on every strategy's ranking.

A second machine mutates a live :class:`~repro.service.RecommenderService`
through its ``ModelManager`` and checks the served ``/spaces``,
``/explain``, ``/goals`` and ``ensemble`` answers — computed from each
generation's CSR engine — against the scalar answers over the same oracle.
"""

from __future__ import annotations

import json
import urllib.request

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import obs
from repro.core import AssociationGoalModel, GoalRecommender, IncrementalGoalModel
from repro.core.goal_inference import GoalInferencer
from repro.core.strategies import create_strategy
from repro.obs.metrics import MetricsRegistry
from repro.service import RecommenderService

goal_labels = st.sampled_from([f"g{i}" for i in range(6)])
action_sets = st.frozensets(
    st.sampled_from([f"a{i}" for i in range(12)]), min_size=1, max_size=5
)
activities = st.frozensets(
    st.sampled_from([f"a{i}" for i in range(12)]), max_size=6
)


class IncrementalModelMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.model = IncrementalGoalModel()
        self.live: dict[int, tuple[str, frozenset[str]]] = {}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @rule(goal=goal_labels, actions=action_sets)
    def add(self, goal: str, actions: frozenset[str]) -> None:
        pid = self.model.add_implementation(goal, actions)
        self.live[pid] = (goal, actions)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data) -> None:
        pid = data.draw(st.sampled_from(sorted(self.live)))
        self.model.remove_implementation(pid)
        del self.live[pid]

    # ------------------------------------------------------------------
    # Oracle comparison
    # ------------------------------------------------------------------

    def _oracle(self) -> AssociationGoalModel | None:
        if not self.live:
            return None
        return AssociationGoalModel.from_pairs(
            [self.live[pid] for pid in sorted(self.live)]
        )

    @invariant()
    def live_count_matches(self) -> None:
        assert self.model.num_implementations == len(self.live)

    @precondition(lambda self: self.live)
    @rule(activity=activities)
    def spaces_match_oracle(self, activity: frozenset[str]) -> None:
        oracle = self._oracle()
        assert oracle is not None
        frozen = self.model.freeze()
        assert frozen.goal_space_labels(activity) == (
            oracle.goal_space_labels(activity)
        )
        assert frozen.action_space_labels(activity) == (
            oracle.action_space_labels(activity)
        )

    @precondition(lambda self: self.live)
    @rule(activity=activities, name=st.sampled_from(
        ["focus_cmp", "focus_cl", "breadth", "best_match"]
    ))
    def rankings_match_oracle(self, activity: frozenset[str], name: str) -> None:
        """Full rankings agree exactly, tie order included.

        Both models index the live pairs in ascending id order, so they
        assign the same ids and break ties identically.
        """
        oracle = self._oracle()
        assert oracle is not None
        strategy = create_strategy(name)

        def ranking(model: AssociationGoalModel) -> list[tuple[str, float]]:
            result = strategy.recommend(
                model, model.encode_activity(activity), k=1000
            )
            return [(str(item.action), item.score) for item in result]

        assert ranking(self.model.freeze()) == ranking(oracle)


IncrementalModelMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestIncrementalModelMachine = IncrementalModelMachine.TestCase


class ServedModelMachine(RuleBasedStateMachine):
    """Served read answers track the live pairs across hot mutations.

    Labels are compared, never ids: the oracle is rebuilt from the live
    pairs, exactly as a fresh process loading the current library would.
    """

    @initialize()
    def setup(self) -> None:
        self.previous_registry = obs.set_registry(MetricsRegistry())
        self.service = RecommenderService(IncrementalGoalModel(), port=0).start()
        self.live: dict[int, tuple[str, frozenset[str]]] = {}

    def teardown(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
            obs.disable()
            obs.set_registry(self.previous_registry)

    def _post(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.service.port}{path}",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def _oracle(self) -> AssociationGoalModel:
        return AssociationGoalModel.from_pairs(
            [self.live[pid] for pid in sorted(self.live)]
        )

    @rule(goal=goal_labels, actions=action_sets)
    def add(self, goal: str, actions: frozenset[str]) -> None:
        (pid,), _ = self.service.manager.add_implementations(
            [(goal, sorted(actions))]
        )
        self.live[pid] = (goal, actions)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data) -> None:
        pid = data.draw(st.sampled_from(sorted(self.live)))
        self.service.manager.remove_implementation(pid)
        del self.live[pid]

    @precondition(lambda self: self.live)
    @rule(activity=activities)
    def spaces_match_oracle(self, activity: frozenset[str]) -> None:
        oracle = self._oracle()
        assert self._post("/spaces", {"activity": sorted(activity)}) == {
            "goal_space": sorted(map(str, oracle.goal_space_labels(activity))),
            "action_space": sorted(
                map(str, oracle.action_space_labels(activity))
            ),
        }

    @precondition(lambda self: self.live)
    @rule(activity=activities, data=st.data())
    def explain_matches_oracle(self, activity: frozenset[str], data) -> None:
        oracle = self._oracle()
        action = data.draw(st.sampled_from(sorted(oracle.action_labels())))
        evidence = GoalRecommender(oracle).explain(activity, action)
        body = self._post(
            "/explain", {"activity": sorted(activity), "action": action}
        )
        assert body["evidence"] == {
            str(goal): [sorted(map(str, acts)) for acts in lists]
            for goal, lists in evidence.items()
        }

    @precondition(lambda self: self.live)
    @rule(
        activity=activities,
        scorer=st.sampled_from(["coverage", "completeness", "evidence"]),
    )
    def goals_match_oracle(self, activity: frozenset[str], scorer: str) -> None:
        inferred = GoalInferencer(self._oracle(), scorer=scorer).infer(
            activity, top=10
        )
        body = self._post(
            "/goals", {"activity": sorted(activity), "scorer": scorer}
        )
        assert body["goals"] == [
            {"goal": str(goal), "score": score} for goal, score in inferred
        ]

    @precondition(lambda self: self.live)
    @rule(activity=activities)
    def ensemble_matches_oracle(self, activity: frozenset[str]) -> None:
        expected = GoalRecommender(self._oracle()).recommend(
            activity, k=10, strategy="ensemble"
        )
        body = self._post(
            "/recommend",
            {"activity": sorted(activity), "k": 10, "strategy": "ensemble"},
        )
        assert body["strategy"] == expected.strategy
        assert body["recommendations"] == [
            {"action": str(item.action), "score": item.score}
            for item in expected
        ]


ServedModelMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
TestServedModelMachine = ServedModelMachine.TestCase
