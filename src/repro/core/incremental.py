"""A label-level mutation log over the goal implementation library.

:class:`AssociationGoalModel` is immutable — ideal for evaluation and for
serving one generation, wrong for a live deployment where new goal
implementations stream in (new recipes get published, users post new
success stories) and stale ones are retired.  :class:`IncrementalGoalModel`
records those mutations and nothing else: the live implementations by id,
a dedup map and a monotonic id counter.  It answers no queries: the
serving layer interns :meth:`IncrementalGoalModel.implementations` into
each generation's CSR engine
(:func:`~repro.core.caching.build_served_view`), and
:meth:`IncrementalGoalModel.freeze` indexes them into a reference
:class:`AssociationGoalModel` for tests and offline use.

- implementation ids are never reused after removal (monotonic counter), so
  external references stay unambiguous;
- both walk the live implementations in ascending id order, so the served
  ids equal ``AssociationGoalModel.from_library(log.to_library())``'s id
  for id.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.entities import ActionLabel, GoalImplementation, GoalLabel
from repro.core.library import ImplementationLibrary
from repro.core.model import AssociationGoalModel
from repro.exceptions import ModelError

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md).  The log carries no lock of its own: the
#: serving layer's ``ModelManager`` wraps every mutation and every
#: consistent read in its writer-preferring RWLock.  ``<caller>`` marks the
#: maps as externally synchronized — only this class's own methods may
#: touch them, so synchronization stays the manager's job.
_GUARDED_BY = {
    "IncrementalGoalModel._live": "<caller>",
    "IncrementalGoalModel._dedup": "<caller>",
}


class IncrementalGoalModel:
    """The live implementations of a mutable library, by monotonic id."""

    def __init__(self) -> None:
        # Ascending pid order: ids only grow and removal keeps dict order.
        self._live: dict[int, GoalImplementation] = {}
        self._dedup: dict[tuple[GoalLabel, frozenset[ActionLabel]], int] = {}
        self._next_impl_id = 0

    @classmethod
    def from_library(
        cls, library: Iterable[GoalImplementation]
    ) -> "IncrementalGoalModel":
        """Seed a log from an existing library.

        An :class:`ImplementationLibrary` is duplicate-free and numbered
        0, 1, 2, ... in order, so each implementation's ``impl_id`` is the
        id the log assigns it: the log keeps the library's own
        :class:`GoalImplementation` instead of building a second copy.
        One that does not line up (a duplicate, or another id) is added
        as a new implementation.
        """
        model = cls()
        for impl in library:
            model._adopt(impl)
        return model

    def _adopt(self, impl: GoalImplementation) -> None:
        """Make ``impl`` itself live if its id and labels line up."""
        key = (impl.goal, impl.actions)
        if impl.impl_id == self._next_impl_id and key not in self._dedup:
            self._record(key, impl)
        else:
            self.add_implementation(impl.goal, impl.actions)

    def add_implementation(
        self, goal: GoalLabel, actions: Iterable[ActionLabel]
    ) -> int:
        """Record a new ``(goal, actions)`` implementation; return its id.

        Duplicates of a live implementation return the existing id.  Raises
        :class:`ModelError` on an empty action set.
        """
        labels = frozenset(actions)
        if not labels:
            raise ModelError(f"implementation of {goal!r} has no actions")
        key = (goal, labels)
        existing = self._dedup.get(key)
        if existing is not None:
            return existing
        return self._record(
            key, GoalImplementation(goal=goal, actions=labels, impl_id=self._next_impl_id)
        )

    def _record(
        self, key: tuple[GoalLabel, frozenset[ActionLabel]], impl: GoalImplementation
    ) -> int:
        """Make ``impl``, numbered with the next id, live under ``key``."""
        pid = self._next_impl_id
        self._next_impl_id += 1
        self._live[pid] = impl
        self._dedup[key] = pid
        return pid

    def remove_implementation(self, pid: int) -> None:
        """Retire implementation ``pid``.

        Raises :class:`ModelError` when ``pid`` is not live.
        """
        impl = self._live.pop(pid, None)
        if impl is None:
            raise ModelError(f"no live implementation with id {pid}")
        del self._dedup[(impl.goal, impl.actions)]

    @property
    def num_implementations(self) -> int:
        """Number of *live* implementations."""
        return len(self._live)

    def live_implementation_ids(self) -> list[int]:
        """Ids of the live implementations, ascending."""
        return list(self._live)

    def implementation(self, pid: int) -> GoalImplementation:
        """The live implementation ``pid``; raises :class:`ModelError` if
        it is not live."""
        try:
            return self._live[pid]
        except KeyError:
            raise ModelError(f"no live implementation with id {pid}") from None

    def implementations(self) -> Iterable[GoalImplementation]:
        """The live implementations, in ascending id order (a live view)."""
        return self._live.values()

    def to_library(self) -> ImplementationLibrary:
        """Export the live implementations, in ascending id order."""
        return ImplementationLibrary(self._live.values())

    def freeze(self) -> AssociationGoalModel:
        """Index the live implementations into an immutable model.

        Model ids are dense in ascending log-id order, so they are *not*
        comparable with log ids once anything was removed.  Raises
        :class:`ModelError` when no implementation is live.
        """
        if not self._live:
            raise ModelError("cannot freeze a model with no live implementations")
        return AssociationGoalModel.from_library(self._live.values())
