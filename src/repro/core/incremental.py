"""A label-level mutation log over the goal implementation library.

:class:`AssociationGoalModel` is immutable — ideal for evaluation and for
serving one generation, wrong for a live deployment where new goal
implementations stream in (new recipes get published, users post new
success stories) and stale ones are retired.  :class:`IncrementalGoalModel`
records those mutations and nothing else: the live implementations by id,
a dedup map and a monotonic id counter.  It answers no queries: the
serving layer interns :meth:`IncrementalGoalModel.rows` into each
generation's CSR engine (:func:`~repro.core.caching.build_served_view`),
and :meth:`IncrementalGoalModel.freeze` indexes the live implementations
into a reference :class:`AssociationGoalModel` for tests and offline use.

Each live implementation is kept once, as a ``(goal, labels)`` row:
``labels`` is a tuple of its action labels in the interning walk's order
(sorted by ``str``, see :func:`~repro.core.model.intern_library`),
computed once when the implementation is recorded, so no generation build
sorts a row again.  The same tuple is the dedup key.
:class:`GoalImplementation` objects are built on demand
(:meth:`~IncrementalGoalModel.implementation`,
:meth:`~IncrementalGoalModel.implementations`).

- implementation ids are never reused after removal (monotonic counter), so
  external references stay unambiguous;
- the served build and :meth:`~IncrementalGoalModel.freeze` walk the live
  implementations in ascending id order, so the served ids equal
  ``AssociationGoalModel.from_library(log.to_library())``'s id for id.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import cast

from repro.core.entities import ActionLabel, GoalImplementation, GoalLabel
from repro.core.library import ImplementationLibrary
from repro.core.model import AssociationGoalModel, LabelRow
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


def _row(goal: GoalLabel, actions: Iterable[ActionLabel]) -> LabelRow:
    """The ``(goal, labels)`` row of an implementation: its distinct
    actions in the interning walk's order (sorted by ``str``).

    ``str`` labels sort the same with and without ``key=str``, and the
    key-less sort skips a ``str()`` call per label; ``"".join`` raises
    unless every label is a ``str``, and then the keyed sort runs.
    """
    labels = frozenset(actions)
    try:
        ordered = sorted(cast("frozenset[str]", labels))
        "".join(ordered)
    except TypeError:
        return goal, tuple(sorted(labels, key=str))
    return goal, tuple(ordered)


class IncrementalGoalModel:
    """The live implementations of a mutable library, by monotonic id."""

    def __init__(self) -> None:
        # Ascending pid order: ids only grow and removal keeps dict order.
        # Both maps hold the same row tuple.
        self._live: dict[int, LabelRow] = {}
        self._dedup: dict[LabelRow, int] = {}
        self._next_impl_id = 0

    @classmethod
    def from_library(
        cls, library: Iterable[GoalImplementation]
    ) -> "IncrementalGoalModel":
        """Seed a log from an existing library.

        Each implementation is recorded as :meth:`add_implementation`
        records it, so an :class:`ImplementationLibrary` (duplicate-free,
        numbered 0, 1, 2, ... in order) keeps its ids; a duplicate is
        skipped.  The rows are recorded directly, not through the public
        method.
        """
        model = cls()
        for impl in library:
            model._add(_row(impl.goal, impl.actions))
        return model

    def add_implementation(
        self, goal: GoalLabel, actions: Iterable[ActionLabel]
    ) -> int:
        """Record a new ``(goal, actions)`` implementation; return its id.

        Duplicates of a live implementation (the same goal and action set,
        in any order) return the existing id.  Raises :class:`ModelError`
        on an empty action set.
        """
        row = _row(goal, actions)
        if not row[1]:
            raise ModelError(f"implementation of {goal!r} has no actions")
        return self._add(row)

    def _add(self, row: LabelRow) -> int:
        """The id of ``row``: a live duplicate's, or else the next id, under
        which ``row`` becomes live."""
        pid = self._dedup.setdefault(row, self._next_impl_id)
        if pid == self._next_impl_id:
            self._next_impl_id += 1
            self._live[pid] = row
        return pid

    def remove_implementation(self, pid: int) -> None:
        """Retire implementation ``pid``.

        Raises :class:`ModelError` when ``pid`` is not live.
        """
        row = self._live.pop(pid, None)
        if row is None:
            raise ModelError(f"no live implementation with id {pid}")
        del self._dedup[row]

    @property
    def num_implementations(self) -> int:
        """Number of *live* implementations."""
        return len(self._live)

    def live_implementation_ids(self) -> list[int]:
        """Ids of the live implementations, ascending."""
        return list(self._live)

    def rows(self) -> Iterable[LabelRow]:
        """The live ``(goal, labels)`` rows, in ascending id order (a live
        view), each row's labels in the interning walk's order."""
        return self._live.values()

    def implementation(self, pid: int) -> GoalImplementation:
        """The live implementation ``pid``; raises :class:`ModelError` if
        it is not live."""
        try:
            goal, labels = self._live[pid]
        except KeyError:
            raise ModelError(f"no live implementation with id {pid}") from None
        return GoalImplementation(goal, frozenset(labels), pid)

    def implementations(self) -> Iterator[GoalImplementation]:
        """The live implementations, in ascending id order, each built on
        demand."""
        for pid, (goal, labels) in self._live.items():
            yield GoalImplementation(goal, frozenset(labels), pid)

    def to_library(self) -> ImplementationLibrary:
        """Export the live implementations, in ascending id order."""
        return ImplementationLibrary(self.implementations())

    def freeze(self) -> AssociationGoalModel:
        """Index the live implementations into an immutable model.

        Model ids are dense in ascending log-id order, so they are *not*
        comparable with log ids once anything was removed.  Raises
        :class:`ModelError` when no implementation is live.
        """
        if not self._live:
            raise ModelError("cannot freeze a model with no live implementations")
        return AssociationGoalModel.from_library(self.implementations())
