"""Goal inference: rank the *goals* a user appears to pursue.

The paper's strategies rank actions; its related work (§2) is largely about
recognizing the goal itself.  This module closes that loop over the same
association model: given an activity, score every goal in ``GS(H)``.  The
output is directly useful for explanation UIs ("you seem to be working on
…") and for the 43Things evaluation, where each user's true goals are known
and inference quality is measurable.

Scorers (all normalized to be comparable across goals):

- ``evidence`` — fraction of the activity contributing to the goal:
  ``|H ∩ ∪_p A_p| / |H|`` over the goal's implementations;
- ``completeness`` — the goal's best implementation completeness
  (Equation 3), i.e. how *far along* the goal is;
- ``coverage`` — best over implementations of
  ``|A_p ∩ H| / |A_p| × |A_p ∩ H| / |H|`` (an F-measure-like blend: the
  implementation should be well covered *and* explain much of the
  activity — large sprawling implementations score lower than tight ones).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.entities import ActionLabel, GoalLabel
from repro.core.model import AssociationGoalModel
from repro.exceptions import RecommendationError
from repro.utils.validation import require_in

SCORERS = ("evidence", "completeness", "coverage")


class GoalInferencer:
    """Rank goals by how strongly an activity points at them.

    Args:
        model: the indexed goal model (any
            :class:`~repro.core.protocols.ModelView` — only the shared
            query surface is used).
        scorer: one of ``"evidence"``, ``"completeness"``, ``"coverage"``.
    """

    def __init__(
        self, model: AssociationGoalModel, scorer: str = "coverage"
    ) -> None:
        require_in(scorer, SCORERS, "scorer")
        self.model = model
        self.scorer = scorer

    # ------------------------------------------------------------------
    # Per-goal scoring
    # ------------------------------------------------------------------

    def _score_goal(self, gid: int, activity: frozenset[int]) -> float:
        model = self.model
        pids = model.implementations_of_goal(gid)
        if self.scorer == "evidence":
            touched: set[int] = set()
            for pid in pids:
                touched |= model.implementation_actions(pid) & activity
            return len(touched) / len(activity)
        best = 0.0
        for pid in pids:
            impl_actions = model.implementation_actions(pid)
            overlap = len(impl_actions & activity)
            if overlap == 0:
                continue
            if self.scorer == "completeness":
                value = overlap / len(impl_actions)
            else:  # coverage
                value = (overlap / len(impl_actions)) * (overlap / len(activity))
            if value > best:
                best = value
        return best

    def infer(
        self, activity: Iterable[ActionLabel], top: int | None = None
    ) -> list[tuple[GoalLabel, float]]:
        """Score every goal in ``GS(H)``; best first.

        Ties break by goal label.  ``top`` truncates the result; ``None``
        returns the whole scored goal space.  An activity with no known
        actions returns an empty list.
        """
        if top is not None and top <= 0:
            raise RecommendationError(f"top must be positive, got {top}")
        encoded = self.model.encode_activity(activity)
        if not encoded:
            return []
        scored = [
            (self.model.goal_label(gid), self._score_goal(gid, encoded))
            for gid in self.model.goal_space(encoded)
        ]
        scored.sort(key=lambda item: (-item[1], str(item[0])))
        return scored[:top] if top is not None else scored

    def hit_rate_at(
        self,
        k: int,
        activities: Iterable[Iterable[ActionLabel]],
        true_goals: Iterable[Iterable[GoalLabel]],
    ) -> float:
        """Fraction of users with at least one true goal in the top-``k``.

        The standard goal-recognition accuracy measure; ``activities`` and
        ``true_goals`` must be aligned per user.
        """
        if k <= 0:
            raise RecommendationError(f"k must be positive, got {k}")
        activities = list(activities)
        true_goals = [set(goals) for goals in true_goals]
        if len(activities) != len(true_goals):
            raise RecommendationError(
                f"mismatched inputs: {len(activities)} activities vs "
                f"{len(true_goals)} goal sets"
            )
        if not activities:
            raise RecommendationError("no users to evaluate")
        hits = 0
        for activity, goals in zip(activities, true_goals):
            inferred = {goal for goal, _ in self.infer(activity, top=k)}
            if inferred & goals:
                hits += 1
        return hits / len(activities)
