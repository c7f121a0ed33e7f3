"""Scalar reference answers for checked ``/recommend`` responses.

Every checked response is compared with the paper's scalar strategies
(``GoalRecommender(..., use_csr=False)``; the scalar ``breadth_pruned`` for
``tier=approx``) over the library at the generation the response reports.
The benchmark's mutation stream alternates "add implementation j" and
"delete implementation j", so generation ``2j - 1`` serves the library plus
the j-th added implementation and every even generation serves the library
itself.  Answers are memoized on disk per workload, keyed by library state,
strategy and activity, so a repeated check costs nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from workloads import K, Read


class Oracle:
    def __init__(
        self, cache: Path, workload: str, library: Path,
        adds: list[tuple[int, str, tuple[str, ...]]],
    ) -> None:
        self._file = cache / f"oracle-{workload}.json"
        self._library = library
        self._adds = adds
        self._recommenders: dict[str, Any] = {}
        self._base: Any = None
        self._memo: dict[str, list[list[Any]]] = (
            json.loads(self._file.read_text(encoding="utf-8"))
            if self._file.exists() else {}
        )
        self._dirty = False

    def _state(self, generation: int) -> tuple[str, tuple[str, tuple[str, ...]] | None]:
        if generation % 2 == 0:
            return "base", None
        impl_id, goal, actions = self._adds[(generation + 1) // 2 - 1]
        return f"add{impl_id}", (goal, actions)

    def _recommender(self, state: str, extra: tuple[str, tuple[str, ...]] | None) -> Any:
        recommender = self._recommenders.get(state)
        if recommender is not None:
            return recommender
        from repro.core import AssociationGoalModel, GoalRecommender
        from repro.core.approximate import PrunedBreadthStrategy
        from repro.core.library import ImplementationLibrary
        from repro.storage import JsonLibraryStore

        if self._base is None:
            self._base = JsonLibraryStore(self._library).load()
        library = self._base
        if extra is not None:
            library = ImplementationLibrary(list(self._base))
            library.add_pair(extra[0], list(extra[1]))
        recommender = GoalRecommender(
            AssociationGoalModel.from_library(library), use_csr=False
        )
        # The server's --approx-budget default.
        recommender.use_strategy(PrunedBreadthStrategy(budget=128))
        if len(self._recommenders) > 4:
            self._recommenders.pop(next(iter(self._recommenders)))
        self._recommenders[state] = recommender
        return recommender

    def expected(self, read: Read, generation: int) -> list[list[Any]]:
        state, extra = self._state(generation)
        key = f"{state}|{read.served_strategy}|{','.join(read.activity)}"
        answer = self._memo.get(key)
        if answer is None:
            result = self._recommender(state, extra).recommend(
                list(read.activity), k=K, strategy=read.served_strategy
            )
            answer = [[str(item.action), item.score] for item in result]
            self._memo[key] = answer
            self._dirty = True
        return answer

    def matches(self, read: Read, body: bytes) -> bool:
        payload = json.loads(body)
        got = [[item["action"], item["score"]] for item in payload["recommendations"]]
        return (
            payload["strategy"] == read.served_strategy
            and got == self.expected(read, int(payload["generation"]))
        )

    def save(self) -> None:
        if self._dirty:
            tmp = self._file.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._memo), encoding="utf-8")
            tmp.replace(self._file)
            self._dirty = False
