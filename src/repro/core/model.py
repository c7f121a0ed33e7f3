"""The association-based goal model (paper Section 4, Figure 2).

The model views the implementation library as a hypergraph: actions are
nodes, each implementation's activity is a hyperedge, and every hyperedge is
labelled with the goal it fulfills.  To answer space queries in time
proportional to ``|H| x connectivity`` instead of scanning the whole library,
the paper introduces five index structures, all materialized here:

``A-idx`` / ``G-idx``
    Label <-> dense-integer-id interning for actions and goals.
``GI-A-idx``
    Implementation id -> frozen set of action ids (the hyperedge).
``GI-G-idx``
    Implementation id -> goal id (the hyperedge label).
``A-GI-idx``
    Action id -> frozen set of implementation ids (inverted index; this is
    what makes ``IS/GS/AS`` queries cheap).
``G-GI-idx``
    Goal id -> frozen set of implementation ids (inverse of ``GI-G-idx``).

The model is immutable once built.  All recommendation strategies operate on
integer ids through this class; the :class:`~repro.core.recommender.GoalRecommender`
facade translates labels at the boundary.

:func:`intern_rows` (which :func:`intern_library` calls after sorting each
implementation's labels) is the one place that assigns the dense ids: goals
in first-seen order, actions in first-seen order of each implementation's
label-sorted walk.  The model, its goal projection and the serving layer's
CSR engine (:class:`~repro.core.vectorized.BatchRecommender`) are all built
from its :class:`InternedLibrary`, so their ids agree by construction, and
tie-breaking, which follows the ids, agrees with them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from time import perf_counter
from typing import cast

from repro import obs
from repro.core.entities import ActionLabel, GoalImplementation, GoalLabel
from repro.core.library import ImplementationLibrary, LibraryStats
from repro.exceptions import ModelError, UnknownActionError, UnknownGoalError


def _count_space_query(space: str) -> None:
    """Count one IS/GS/AS query (``goal``/``action`` also query ``IS``)."""
    obs.get_registry().counter(
        "repro_space_queries_total",
        "Space queries answered, by space (IS/GS/AS).",
        space=space,
    ).inc()


@dataclass(frozen=True, slots=True, eq=False)
class LabelTables:
    """The ``A-idx`` and ``G-idx``: labels by id, and ids by label."""

    actions: list[ActionLabel]
    goals: list[GoalLabel]
    action_ids: dict[ActionLabel, int]
    goal_ids: dict[GoalLabel, int]

    def action_id(self, label: ActionLabel) -> int:
        """Id of an action label; raises :class:`UnknownActionError`."""
        try:
            return self.action_ids[label]
        except KeyError:
            raise UnknownActionError(label) from None

    def goal_id(self, label: GoalLabel) -> int:
        """Id of a goal label; raises :class:`UnknownGoalError`."""
        try:
            return self.goal_ids[label]
        except KeyError:
            raise UnknownGoalError(label) from None

    def encode(
        self, activity: Iterable[ActionLabel], strict: bool = False
    ) -> frozenset[int]:
        """Translate action labels to ids.

        Unknown actions are silently dropped by default — a user activity
        routinely contains actions that appear in no implementation (e.g.
        buying napkins, which no recipe uses).  With ``strict=True`` an
        unknown action raises :class:`UnknownActionError` instead.
        """
        ids = self.action_ids
        encoded: set[int] = set()
        for label in activity:
            aid = ids.get(label)
            if aid is None:
                if strict:
                    raise UnknownActionError(label)
                continue
            encoded.add(aid)
        return frozenset(encoded)


@dataclass(frozen=True, slots=True, eq=False)
class InternedLibrary:
    """A library interned to dense ids: the label tables plus, per
    implementation, its action ids ascending (``GI-A-idx``) and its goal id
    (``GI-G-idx``)."""

    labels: LabelTables
    impl_rows: list[list[int]]
    impl_goal: list[int]


#: One implementation at the label level, as the interning walk reads it:
#: its goal and its distinct action labels, sorted by ``str``.
LabelRow = tuple[GoalLabel, tuple[ActionLabel, ...]]


def intern_library(library: Iterable[GoalImplementation]) -> InternedLibrary:
    """Assign dense ids to a duplicate-free sequence of implementations.

    Goals get ids in first-seen order; actions in first-seen order of the
    walk over each implementation's actions sorted by ``str``.  Sorted, not
    set order: set order for strings varies with ``PYTHONHASHSEED``, and
    the ids decide tie-breaking, so it must not differ across processes.
    """
    return intern_rows(
        (impl.goal, sorted(impl.actions, key=str)) for impl in library
    )


def intern_rows(
    rows: Iterable[tuple[GoalLabel, Sequence[ActionLabel]]],
) -> InternedLibrary:
    """:func:`intern_library` over rows whose labels are already in the
    walk's order (the mutation log keeps its implementations that way).

    A row whose labels all have ids is mapped in one pass; only a row that
    brings a new label walks its labels one by one.
    """
    action_ids: dict[ActionLabel, int] = {}
    goal_ids: dict[GoalLabel, int] = {}
    actions: list[ActionLabel] = []
    goals: list[GoalLabel] = []
    impl_rows: list[list[int]] = []
    impl_goal: list[int] = []
    known = action_ids.get
    for goal, labels in rows:
        gid = goal_ids.get(goal)
        if gid is None:
            gid = len(goals)
            goal_ids[goal] = gid
            goals.append(goal)
        found: list[int | None] = list(map(known, labels))
        if None in found:
            row: list[int] = []
            for label in labels:
                aid = action_ids.get(label)
                if aid is None:
                    aid = len(actions)
                    action_ids[label] = aid
                    actions.append(label)
                row.append(aid)
        else:
            row = cast("list[int]", found)
        row.sort()
        impl_rows.append(row)
        impl_goal.append(gid)
    return InternedLibrary(
        LabelTables(actions, goals, action_ids, goal_ids), impl_rows, impl_goal
    )


class AssociationGoalModel:
    """Immutable indexed form of an implementation library.

    Build it with :meth:`from_library` (or :meth:`from_pairs` for ad-hoc
    data).  The instance answers the three space queries of the paper:

    - :meth:`implementation_space` — ``IS(H)``, implementations sharing an
      action with the activity;
    - :meth:`goal_space` — ``GS(H)``, goals of those implementations
      (Definition 4.1 / Equation 1);
    - :meth:`action_space` — ``AS(H)``, actions co-occurring with the
      activity inside those implementations (Definition 4.2 / Equation 2).
    """

    def __init__(
        self,
        actions: list[ActionLabel],
        goals: list[GoalLabel],
        impl_actions: list[frozenset[int]],
        impl_goal: list[int],
    ) -> None:
        if not impl_actions:
            raise ModelError("cannot build a model from zero implementations")
        if len(impl_actions) != len(impl_goal):
            raise ModelError(
                "impl_actions and impl_goal must be parallel lists "
                f"({len(impl_actions)} != {len(impl_goal)})"
            )
        self._actions = actions
        self._goals = goals
        self._action_to_id: dict[ActionLabel, int] = {
            label: idx for idx, label in enumerate(actions)
        }
        self._goal_to_id: dict[GoalLabel, int] = {
            label: idx for idx, label in enumerate(goals)
        }
        if len(self._action_to_id) != len(actions):
            raise ModelError("duplicate action labels in model construction")
        if len(self._goal_to_id) != len(goals):
            raise ModelError("duplicate goal labels in model construction")
        self._labels = LabelTables(
            actions, goals, self._action_to_id, self._goal_to_id
        )
        self._impl_actions = impl_actions  # GI-A-idx
        self._impl_goal = impl_goal  # GI-G-idx
        # Build the inverted indexes (A-GI-idx, G-GI-idx).
        action_impls: list[set[int]] = [set() for _ in actions]
        goal_impls: list[set[int]] = [set() for _ in goals]
        for pid, (activity, gid) in enumerate(zip(impl_actions, impl_goal)):
            if not activity:
                raise ModelError(f"implementation {pid} has an empty activity")
            goal_impls[gid].add(pid)
            for aid in activity:
                action_impls[aid].add(pid)
        self._action_impls = [frozenset(s) for s in action_impls]  # A-GI-idx
        self._goal_impls = [frozenset(s) for s in goal_impls]  # G-GI-idx

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_library(
        cls, library: Iterable[GoalImplementation]
    ) -> "AssociationGoalModel":
        """Index an :class:`ImplementationLibrary` (or any duplicate-free
        sequence of implementations) into a model, in iteration order."""
        with obs.trace_span("model.from_library") as span:
            start = perf_counter()
            model = cls._from_interned(intern_library(library))
            if obs.metrics_enabled():
                model._record_build(perf_counter() - start)
            if span.is_recording:
                span.set_attrs(
                    implementations=model.num_implementations,
                    goals=model.num_goals,
                    actions=model.num_actions,
                )
        return model

    @classmethod
    def _from_interned(cls, interned: InternedLibrary) -> "AssociationGoalModel":
        labels = interned.labels
        return cls(
            labels.actions,
            labels.goals,
            [frozenset(row) for row in interned.impl_rows],
            interned.impl_goal,
        )

    def _record_build(self, elapsed: float) -> None:
        """Report one index construction into the metrics registry."""
        registry = obs.get_registry()
        registry.histogram(
            "repro_model_build_seconds",
            "AssociationGoalModel index construction time.",
        ).observe(elapsed)
        registry.gauge(
            "repro_model_implementations",
            "Implementations in the most recently built model.",
        ).set(self.num_implementations)
        registry.gauge(
            "repro_model_goals", "Goals in the most recently built model."
        ).set(self.num_goals)
        registry.gauge(
            "repro_model_actions", "Actions in the most recently built model."
        ).set(self.num_actions)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[GoalLabel, Iterable[ActionLabel]]]
    ) -> "AssociationGoalModel":
        """Build a model directly from raw ``(goal, actions)`` pairs."""
        library = ImplementationLibrary()
        for goal, actions in pairs:
            library.add_pair(goal, actions)
        return cls.from_library(library)

    # ------------------------------------------------------------------
    # Sizes and label translation
    # ------------------------------------------------------------------

    @property
    def num_actions(self) -> int:
        """Number of distinct actions in the model."""
        return len(self._actions)

    @property
    def num_goals(self) -> int:
        """Number of distinct goals in the model."""
        return len(self._goals)

    @property
    def num_implementations(self) -> int:
        """Number of goal implementations indexed by the model."""
        return len(self._impl_actions)

    def action_id(self, label: ActionLabel) -> int:
        """Id of an action label; raises :class:`UnknownActionError`."""
        return self._labels.action_id(label)

    def goal_id(self, label: GoalLabel) -> int:
        """Id of a goal label; raises :class:`UnknownGoalError`."""
        return self._labels.goal_id(label)

    def action_label(self, aid: int) -> ActionLabel:
        """Label of an action id."""
        return self._actions[aid]

    def goal_label(self, gid: int) -> GoalLabel:
        """Label of a goal id."""
        return self._goals[gid]

    def action_labels(self) -> list[ActionLabel]:
        """All action labels, in id order."""
        return list(self._actions)

    def goal_labels(self) -> list[GoalLabel]:
        """All goal labels, in id order."""
        return list(self._goals)

    def has_action(self, label: ActionLabel) -> bool:
        """``True`` when ``label`` is an indexed action."""
        return label in self._action_to_id

    def has_goal(self, label: GoalLabel) -> bool:
        """``True`` when ``label`` is an indexed goal."""
        return label in self._goal_to_id

    def encode_activity(
        self, activity: Iterable[ActionLabel], strict: bool = False
    ) -> frozenset[int]:
        """Translate action labels to ids (see :meth:`LabelTables.encode`)."""
        return self._labels.encode(activity, strict)

    def decode_actions(self, ids: Iterable[int]) -> list[ActionLabel]:
        """Translate action ids back to labels."""
        return [self._actions[aid] for aid in ids]

    # ------------------------------------------------------------------
    # The label and row half the CSR engine is built from
    # ------------------------------------------------------------------

    @property
    def labels(self) -> LabelTables:
        """The model's label tables (shared, not copied)."""
        return self._labels

    @property
    def impl_rows(self) -> list[list[int]]:
        """Each implementation's action ids, ascending (``GI-A-idx``)."""
        return [sorted(actions) for actions in self._impl_actions]

    @property
    def impl_goal(self) -> list[int]:
        """Each implementation's goal id (``GI-G-idx``)."""
        return self._impl_goal

    # ------------------------------------------------------------------
    # Raw index access (id level)
    # ------------------------------------------------------------------

    def implementation_actions(self, pid: int) -> frozenset[int]:
        """``GI-A-idx[pid]`` — the action ids of implementation ``pid``."""
        return self._impl_actions[pid]

    def implementation_goal(self, pid: int) -> int:
        """``GI-G-idx[pid]`` — the goal id of implementation ``pid``."""
        return self._impl_goal[pid]

    def implementations_of_action(self, aid: int) -> frozenset[int]:
        """``A-GI-idx[aid]`` — implementation ids containing action ``aid``."""
        return self._action_impls[aid]

    def implementations_of_goal(self, gid: int) -> frozenset[int]:
        """``G-GI-idx[gid]`` — implementation ids fulfilling goal ``gid``."""
        return self._goal_impls[gid]

    def implementation(self, pid: int) -> GoalImplementation:
        """Reconstruct implementation ``pid`` at the label level."""
        return GoalImplementation(
            goal=self._goals[self._impl_goal[pid]],
            actions=frozenset(self._actions[a] for a in self._impl_actions[pid]),
            impl_id=pid,
        )

    # ------------------------------------------------------------------
    # Space queries (paper Definitions 4.1 / 4.2, Equations 1-2)
    # ------------------------------------------------------------------

    def implementation_space(self, activity: frozenset[int]) -> set[int]:
        """``IS(H)`` — ids of implementations sharing any action with ``H``."""
        if obs.metrics_enabled():
            _count_space_query("implementation")
        if not obs.tracing_enabled():
            return self._implementation_space_ids(activity)
        with obs.trace_span("implementation_space") as span:
            space = self._implementation_space_ids(activity)
            span.set_attrs(activity_size=len(activity), size=len(space))
        return space

    def _implementation_space_ids(self, activity: frozenset[int]) -> set[int]:
        space: set[int] = set()
        for aid in activity:
            space |= self._action_impls[aid]
        return space

    def goal_space(self, activity: frozenset[int]) -> set[int]:
        """``GS(H)`` — goal ids reachable from the activity (Equation 1)."""
        if obs.metrics_enabled():
            _count_space_query("goal")
        if not obs.tracing_enabled():
            return self._goal_space_ids(activity)
        # The span contains the nested implementation_space span: GS(H)
        # is defined over IS(H), so its time includes the subquery.
        with obs.trace_span("goal_space") as span:
            space = self._goal_space_ids(activity)
            span.set_attrs(activity_size=len(activity), size=len(space))
        return space

    def _goal_space_ids(self, activity: frozenset[int]) -> set[int]:
        return {
            self._impl_goal[pid] for pid in self.implementation_space(activity)
        }

    def action_space(self, activity: frozenset[int]) -> set[int]:
        """``AS(H)`` — action ids co-occurring with the activity (Equation 2).

        Includes the activity's own actions when they co-occur; candidate
        generation subtracts ``H`` afterwards, matching Algorithm 4's
        ``CA <- AS(H) - H``.
        """
        if obs.metrics_enabled():
            _count_space_query("action")
        if not obs.tracing_enabled():
            return self._action_space_ids(activity)
        with obs.trace_span("action_space") as span:
            space = self._action_space_ids(activity)
            span.set_attrs(activity_size=len(activity), size=len(space))
        return space

    def _action_space_ids(self, activity: frozenset[int]) -> set[int]:
        space: set[int] = set()
        for pid in self.implementation_space(activity):
            space |= self._impl_actions[pid]
        return space

    def candidate_actions(self, activity: frozenset[int]) -> set[int]:
        """``AS(H) - H`` — the candidate set every strategy ranks."""
        return self.action_space(activity) - activity

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    def connectivity(self) -> float:
        """Average number of implementations an action participates in."""
        return sum(len(s) for s in self._action_impls) / len(self._action_impls)

    def action_frequencies(self) -> dict[int, float]:
        """Per-action frequency in the library: ``|A-GI-idx[a]| / |L|``.

        This is the quantity behind the paper's Figure 6 (how often the
        *recommended* actions appear in the implementation set).
        """
        total = len(self._impl_actions)
        return {
            aid: len(pids) / total
            for aid, pids in enumerate(self._action_impls)
        }

    def goal_completeness(self, gid: int, activity: frozenset[int]) -> float:
        """Best completeness of goal ``gid`` over its implementations.

        Completeness of one implementation is ``|A∩H| / |A|`` (Equation 3);
        a goal with several implementations is as complete as its most
        complete implementation.
        """
        best = 0.0
        for pid in self._goal_impls[gid]:
            impl_actions = self._impl_actions[pid]
            value = len(impl_actions & activity) / len(impl_actions)
            if value > best:
                best = value
        return best

    def stats(self) -> LibraryStats:
        """Library-level statistics recomputed from the indexes."""
        lengths = [len(s) for s in self._impl_actions]
        return LibraryStats(
            num_implementations=len(self._impl_actions),
            num_goals=len(self._goals),
            num_actions=len(self._actions),
            connectivity=self.connectivity(),
            avg_implementation_length=sum(lengths) / len(lengths),
            max_implementation_length=max(lengths),
            avg_implementations_per_goal=len(self._impl_actions) / len(self._goals),
        )

    def to_library(self) -> ImplementationLibrary:
        """Export the model back into a mutable library."""
        library = ImplementationLibrary()
        for pid in range(len(self._impl_actions)):
            library.add(self.implementation(pid))
        return library

    def restrict_to_goals(
        self, goals: Iterable[GoalLabel]
    ) -> "AssociationGoalModel":
        """Project the model onto a goal subset.

        Returns a fresh model containing only the implementations of the
        given goals — the domain-filtering operation ("only fitness goals",
        "only desserts").  Unknown goal labels are ignored; raises
        :class:`ModelError` when no implementation survives (the projection
        would be empty).
        """
        wanted = {
            self._goal_to_id[goal]
            for goal in goals
            if goal in self._goal_to_id
        }
        # The surviving implementation ids, in id order, via G-GI-idx.
        pids = sorted(pid for gid in wanted for pid in self._goal_impls[gid])
        if not pids:
            raise ModelError(
                "restriction matches no implementation; the projected "
                "model would be empty"
            )
        # Each surviving implementation once, re-densified exactly as
        # from_library would.
        survivors: dict[tuple[GoalLabel, frozenset[ActionLabel]], GoalImplementation] = {}
        for pid in pids:
            impl = self.implementation(pid)
            survivors.setdefault((impl.goal, impl.actions), impl)
        return AssociationGoalModel._from_interned(
            intern_library(survivors.values())
        )

    def goal_space_labels(self, activity: Iterable[ActionLabel]) -> set[GoalLabel]:
        """Label-level convenience wrapper over :meth:`goal_space`."""
        encoded = self.encode_activity(activity)
        return {self._goals[gid] for gid in self.goal_space(encoded)}

    def action_space_labels(self, activity: Iterable[ActionLabel]) -> set[ActionLabel]:
        """Label-level convenience wrapper over :meth:`action_space`."""
        encoded = self.encode_activity(activity)
        return {self._actions[aid] for aid in self.action_space(encoded)}
