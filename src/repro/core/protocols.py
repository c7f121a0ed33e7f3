"""Structural typing for the model query surface and ranking strategies.

The codebase has two interchangeable model implementations —
:class:`~repro.core.model.AssociationGoalModel` (the dict and frozenset
indexes, the reference oracle) and
:class:`~repro.core.caching.CachedModelView` (a CSR engine's arrays and
label tables, what the serving layer reads) — and strategies accept
either because they only use the shared query surface.  The mutable
:class:`~repro.core.incremental.IncrementalGoalModel` is a mutation log,
not a model view: each served generation is a view built from it.
:class:`ModelView` states the contract as a
:class:`~typing.Protocol`, so ``mypy --strict`` checks both sides: a
strategy cannot call off-surface methods, and a new model implementation
cannot silently miss part of the surface.

:class:`Strategy` is the structural counterpart of
:class:`~repro.core.strategies.base.RankingStrategy` for call sites that
only need ``rank``/``recommend`` (the facade, the ensembles, the serving
layer) without depending on the ABC.

:func:`engine_of` is the one place that decides whether a model view
carries a CSR engine.

Both protocols are ``runtime_checkable``: ``isinstance(view, ModelView)``
verifies method *presence* (not signatures), which the test suite uses to
pin both implementations to the surface.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.entities import (
    ActionLabel,
    GoalImplementation,
    GoalLabel,
    RecommendationList,
)

if TYPE_CHECKING:  # pragma: no cover - the runtime import is lazy (keeps SciPy off import)
    from repro.core.vectorized import BatchRecommender


@runtime_checkable
class ModelView(Protocol):
    """The read-only query surface every ranking strategy runs against.

    Mirrors the paper's index structures: id translation (Section 3),
    the ``GI-A``/``GI-G``/``A-GI``/``G-GI`` index lookups and the
    ``IS``/``GS``/``AS`` space queries (Section 4), plus the
    goal-completeness measure the Focus strategies rank by (Section 5).
    """

    # -- sizes ---------------------------------------------------------

    @property
    def num_actions(self) -> int: ...

    @property
    def num_goals(self) -> int: ...

    @property
    def num_implementations(self) -> int: ...

    # -- label/id translation -----------------------------------------

    def action_id(self, label: ActionLabel) -> int: ...

    def goal_id(self, label: GoalLabel) -> int: ...

    def action_label(self, aid: int) -> ActionLabel: ...

    def goal_label(self, gid: int) -> GoalLabel: ...

    def has_action(self, label: ActionLabel) -> bool: ...

    def has_goal(self, label: GoalLabel) -> bool: ...

    def encode_activity(
        self, activity: Iterable[ActionLabel], strict: bool = False
    ) -> frozenset[int]: ...

    # -- index lookups -------------------------------------------------

    def implementation_actions(self, pid: int) -> frozenset[int]: ...

    def implementation_goal(self, pid: int) -> int: ...

    def implementations_of_action(self, aid: int) -> frozenset[int]: ...

    def implementations_of_goal(self, gid: int) -> frozenset[int]: ...

    def implementation(self, pid: int) -> GoalImplementation: ...

    # -- space queries -------------------------------------------------

    def implementation_space(self, activity: frozenset[int]) -> set[int]: ...

    def goal_space(self, activity: frozenset[int]) -> set[int]: ...

    def action_space(self, activity: frozenset[int]) -> set[int]: ...

    def candidate_actions(self, activity: frozenset[int]) -> set[int]: ...

    def goal_completeness(
        self, gid: int, activity: frozenset[int]
    ) -> float: ...

    # -- label-level conveniences -------------------------------------

    def goal_space_labels(
        self, activity: Iterable[ActionLabel]
    ) -> set[GoalLabel]: ...

    def action_space_labels(
        self, activity: Iterable[ActionLabel]
    ) -> set[ActionLabel]: ...


@runtime_checkable
class Strategy(Protocol):
    """What a call site needs from a ranking strategy: name, rank, recommend."""

    @property
    def name(self) -> str: ...

    def rank(
        self,
        model: ModelView,
        activity: frozenset[int],
        k: int,
    ) -> list[tuple[int, float]]: ...

    def recommend(
        self,
        model: ModelView,
        activity: frozenset[int],
        k: int,
    ) -> RecommendationList: ...


def engine_of(model: object) -> BatchRecommender | None:
    """The CSR engine ``model`` carries, or ``None``.

    A :class:`~repro.core.caching.CachedModelView` carries the engine of
    its generation, built before the view is handed out.  Bare models
    carry none, and their callers take the scalar reference path.
    """
    carried = getattr(model, "csr_engine", None)
    if carried is None:
        return None
    engine: BatchRecommender | None = carried()
    return engine
