"""The goal implementation library ``L``.

:class:`ImplementationLibrary` is the mutable container a dataset is loaded
into before an :class:`~repro.core.model.AssociationGoalModel` is built from
it.  It deduplicates implementations, assigns stable integer identifiers and
exposes the summary statistics the paper reports for its two datasets
(number of goals/actions/implementations, *connectivity* — the average number
of implementations an action participates in — and average implementation
length).  :func:`library_to_dict` and :func:`library_from_dict` are its
JSON-compatible form, the payload of a library file.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.entities import ActionLabel, GoalImplementation, GoalLabel
from repro.exceptions import DataError


@dataclass(frozen=True, slots=True)
class LibraryStats:
    """Summary statistics of an implementation library.

    Mirrors the dataset descriptions in the paper's Section 6: ``connectivity``
    is the average number of implementations each action participates in
    (1.2K for the grocery dataset, 3.84 for 43Things).
    """

    num_implementations: int
    num_goals: int
    num_actions: int
    connectivity: float
    avg_implementation_length: float
    max_implementation_length: int
    avg_implementations_per_goal: float

    def __str__(self) -> str:
        return (
            f"{self.num_implementations} implementations, {self.num_goals} goals, "
            f"{self.num_actions} actions, connectivity={self.connectivity:.2f}, "
            f"avg length={self.avg_implementation_length:.2f}"
        )


class ImplementationLibrary:
    """An ordered, deduplicated collection of goal implementations.

    Implementations are identified by dense integer ids in insertion order.
    Adding an exact duplicate ``(goal, actions)`` pair is a no-op returning
    the existing id, so repeatedly ingesting the same source is idempotent.
    """

    def __init__(self, implementations: Iterable[GoalImplementation] = ()) -> None:
        self._implementations: list[GoalImplementation] = []
        self._dedup: dict[tuple[GoalLabel, frozenset[ActionLabel]], int] = {}
        for impl in implementations:
            self.add(impl)

    def add(self, implementation: GoalImplementation) -> int:
        """Add one implementation; return its (possibly pre-existing) id."""
        key = (implementation.goal, implementation.actions)
        existing = self._dedup.get(key)
        if existing is not None:
            return existing
        impl_id = len(self._implementations)
        stored = GoalImplementation(
            goal=implementation.goal,
            actions=implementation.actions,
            impl_id=impl_id,
        )
        self._implementations.append(stored)
        self._dedup[key] = impl_id
        return impl_id

    def add_pair(self, goal: GoalLabel, actions: Iterable[ActionLabel]) -> int:
        """Convenience: add a raw ``(goal, actions)`` pair."""
        return self.add(GoalImplementation(goal=goal, actions=frozenset(actions)))

    def extend(self, implementations: Iterable[GoalImplementation]) -> list[int]:
        """Add many implementations; return their ids in input order."""
        return [self.add(impl) for impl in implementations]

    def __len__(self) -> int:
        return len(self._implementations)

    def __iter__(self) -> Iterator[GoalImplementation]:
        return iter(self._implementations)

    def __getitem__(self, impl_id: int) -> GoalImplementation:
        try:
            return self._implementations[impl_id]
        except IndexError:
            raise KeyError(f"no implementation with id {impl_id}") from None

    def goals(self) -> set[GoalLabel]:
        """The distinct goals appearing in the library."""
        return {impl.goal for impl in self._implementations}

    def actions(self) -> set[ActionLabel]:
        """The distinct actions appearing in any implementation."""
        result: set[ActionLabel] = set()
        for impl in self._implementations:
            result |= impl.actions
        return result

    def implementations_of(self, goal: GoalLabel) -> list[GoalImplementation]:
        """All implementations of ``goal`` (possibly empty)."""
        return [impl for impl in self._implementations if impl.goal == goal]

    def stats(self) -> LibraryStats:
        """Compute the summary statistics of the library.

        Raises :class:`~repro.exceptions.DataError` on an empty library —
        the statistics (and any model built from it) would be meaningless.
        """
        if not self._implementations:
            raise DataError("cannot compute statistics of an empty library")
        per_action: dict[ActionLabel, int] = defaultdict(int)
        per_goal: dict[GoalLabel, int] = defaultdict(int)
        lengths: list[int] = []
        for impl in self._implementations:
            lengths.append(len(impl.actions))
            per_goal[impl.goal] += 1
            for action in impl.actions:
                per_action[action] += 1
        return LibraryStats(
            num_implementations=len(self._implementations),
            num_goals=len(per_goal),
            num_actions=len(per_action),
            connectivity=sum(per_action.values()) / len(per_action),
            avg_implementation_length=sum(lengths) / len(lengths),
            max_implementation_length=max(lengths),
            avg_implementations_per_goal=(
                len(self._implementations) / len(per_goal)
            ),
        )


def library_to_dict(library: ImplementationLibrary) -> dict[str, Any]:
    """Serialize a library to a JSON-compatible dict."""
    return {
        "implementations": [
            {"goal": str(impl.goal), "actions": sorted(map(str, impl.actions))}
            for impl in library
        ]
    }


def library_from_dict(payload: object) -> ImplementationLibrary:
    """Deserialize a library produced by :func:`library_to_dict`."""
    if not isinstance(payload, dict):
        raise DataError(
            f"library payload must be an object, not {type(payload).__name__}"
        )
    try:
        rows = iter(payload["implementations"])
    except KeyError:
        raise DataError("library payload missing 'implementations'") from None
    except TypeError:
        raise DataError(
            "library 'implementations' must be a list, not "
            f"{type(payload['implementations']).__name__}"
        ) from None
    library = ImplementationLibrary()
    for row in rows:
        try:
            library.add(
                GoalImplementation(
                    goal=row["goal"], actions=frozenset(row["actions"])
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed implementation row {row!r}: {exc}") from exc
    return library
