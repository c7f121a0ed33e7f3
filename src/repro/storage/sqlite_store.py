"""SQLite persistence with in-database space queries.

The schema normalizes the association-based goal model exactly as the
paper's index structures prescribe:

- ``actions(id, label)`` — ``A-idx``;
- ``goals(id, label)`` — ``G-idx``;
- ``implementations(id, goal_id)`` — ``GI-G-idx``;
- ``implementation_actions(impl_id, action_id)`` — simultaneously
  ``GI-A-idx`` (scan by ``impl_id``) and ``A-GI-idx`` (the
  ``idx_ia_action`` index makes the action → implementations direction an
  index lookup).

Besides save/load, the store answers the paper's Equation 1/2 space queries
directly in SQL (:meth:`goal_space_sql`, :meth:`action_space_sql`), which is
the "hundreds or millions of implementations" deployment path Section 4
motivates: the library never needs to fit in application memory.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterable
from pathlib import Path

from repro.core.entities import ActionLabel, GoalLabel
from repro.core.library import ImplementationLibrary
from repro.exceptions import StorageError
from repro.resilience.faults import inject
from repro.storage.base import LibraryStore

_SCHEMA = """
CREATE TABLE IF NOT EXISTS actions (
    id INTEGER PRIMARY KEY,
    label TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS goals (
    id INTEGER PRIMARY KEY,
    label TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS implementations (
    id INTEGER PRIMARY KEY,
    goal_id INTEGER NOT NULL REFERENCES goals(id)
);
CREATE TABLE IF NOT EXISTS implementation_actions (
    impl_id INTEGER NOT NULL REFERENCES implementations(id),
    action_id INTEGER NOT NULL REFERENCES actions(id),
    PRIMARY KEY (impl_id, action_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_ia_action
    ON implementation_actions(action_id, impl_id);
CREATE INDEX IF NOT EXISTS idx_impl_goal
    ON implementations(goal_id);
"""


class SqliteLibraryStore(LibraryStore):
    """Store a library in a SQLite database at ``path``.

    ``":memory:"`` is accepted for ephemeral stores (useful in tests).
    The connection is opened lazily and kept for the store's lifetime; use
    the store as a context manager or call :meth:`close` to release it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._connection: sqlite3.Connection | None = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            try:
                self._connection = sqlite3.connect(self.path)
                # WAL keeps readers working off the last committed
                # checkpoint while a save transaction is in flight, and a
                # process killed mid-save rolls back to the previous
                # library on the next open instead of leaving a torn
                # database.  (In-memory databases ignore the pragma.)
                self._connection.execute("PRAGMA journal_mode=WAL")
                self._connection.execute("PRAGMA synchronous=FULL")
                self._connection.executescript(_SCHEMA)
            except sqlite3.Error as exc:
                raise StorageError(
                    f"cannot open sqlite store at {self.path}: {exc}"
                ) from exc
        return self._connection

    def close(self) -> None:
        """Close the underlying connection (no-op when never opened)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SqliteLibraryStore":
        self._connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # LibraryStore interface
    # ------------------------------------------------------------------

    def save(self, library: ImplementationLibrary) -> None:
        connection = self._connect()
        try:
            with connection:  # one transaction: replace everything
                connection.execute("DELETE FROM implementation_actions")
                connection.execute("DELETE FROM implementations")
                connection.execute("DELETE FROM actions")
                connection.execute("DELETE FROM goals")
                action_ids: dict[ActionLabel, int] = {}
                goal_ids: dict[GoalLabel, int] = {}
                for impl in library:
                    gid = goal_ids.get(impl.goal)
                    if gid is None:
                        gid = len(goal_ids)
                        goal_ids[impl.goal] = gid
                        connection.execute(
                            "INSERT INTO goals (id, label) VALUES (?, ?)",
                            (gid, str(impl.goal)),
                        )
                    connection.execute(
                        "INSERT INTO implementations (id, goal_id) VALUES (?, ?)",
                        (impl.impl_id, gid),
                    )
                    for label in sorted(map(str, impl.actions)):
                        aid = action_ids.get(label)
                        if aid is None:
                            aid = len(action_ids)
                            action_ids[label] = aid
                            connection.execute(
                                "INSERT INTO actions (id, label) VALUES (?, ?)",
                                (aid, label),
                            )
                        connection.execute(
                            "INSERT INTO implementation_actions "
                            "(impl_id, action_id) VALUES (?, ?)",
                            (impl.impl_id, aid),
                        )
        except sqlite3.Error as exc:
            raise StorageError(f"cannot save library: {exc}") from exc

    def load(self) -> ImplementationLibrary:
        """Load the library, holding one ``str`` per label.

        SQLite hands back a fresh ``str`` for every row, so without care
        each action label is held once per implementation containing it.
        The rows are read from the cursor one at a time, never all at once,
        and every label passes through one memo.
        """
        inject("storage")
        connection = self._connect()
        labels: dict[str, str] = {}
        library = ImplementationLibrary()
        current_impl: int | None = None
        current_goal = ""
        current_actions: list[str] = []
        try:
            for impl_id, goal, action in connection.execute(
                """
                SELECT i.id, g.label, a.label
                FROM implementations i
                JOIN goals g ON g.id = i.goal_id
                JOIN implementation_actions ia ON ia.impl_id = i.id
                JOIN actions a ON a.id = ia.action_id
                ORDER BY i.id, a.id
                """
            ):
                if impl_id != current_impl:
                    if current_impl is not None:
                        library.add_pair(current_goal, current_actions)
                    current_impl = impl_id
                    current_goal = labels.setdefault(goal, goal)
                    current_actions = []
                current_actions.append(labels.setdefault(action, action))
        except sqlite3.Error as exc:
            raise StorageError(f"cannot load library: {exc}") from exc
        if current_impl is None:
            raise StorageError(f"no library saved at {self.path}")
        library.add_pair(current_goal, current_actions)
        return library

    def exists(self) -> bool:
        if self.path != ":memory:" and not Path(self.path).exists():
            return False
        try:
            row = self._connect().execute(
                "SELECT COUNT(*) FROM implementations"
            ).fetchone()
        except (sqlite3.Error, StorageError):
            return False
        return row is not None and bool(row[0])

    # ------------------------------------------------------------------
    # In-database space queries (paper Equations 1-2 in SQL)
    # ------------------------------------------------------------------

    def goal_space_sql(self, activity: Iterable[ActionLabel]) -> set[str]:
        """``GS(H)`` computed entirely inside SQLite."""
        labels = [str(a) for a in activity]
        if not labels:
            return set()
        connection = self._connect()
        placeholders = ",".join("?" for _ in labels)
        rows = connection.execute(
            f"""
            SELECT DISTINCT g.label
            FROM actions a
            JOIN implementation_actions ia ON ia.action_id = a.id
            JOIN implementations i ON i.id = ia.impl_id
            JOIN goals g ON g.id = i.goal_id
            WHERE a.label IN ({placeholders})
            """,
            labels,
        ).fetchall()
        return {row[0] for row in rows}

    def action_space_sql(self, activity: Iterable[ActionLabel]) -> set[str]:
        """``AS(H)`` computed entirely inside SQLite."""
        labels = [str(a) for a in activity]
        if not labels:
            return set()
        connection = self._connect()
        placeholders = ",".join("?" for _ in labels)
        rows = connection.execute(
            f"""
            SELECT DISTINCT a2.label
            FROM actions a
            JOIN implementation_actions ia ON ia.action_id = a.id
            JOIN implementation_actions ia2 ON ia2.impl_id = ia.impl_id
            JOIN actions a2 ON a2.id = ia2.action_id
            WHERE a.label IN ({placeholders})
            """,
            labels,
        ).fetchall()
        return {row[0] for row in rows}

    # ------------------------------------------------------------------
    # In-database ranking (Breadth entirely in SQL)
    # ------------------------------------------------------------------

    def breadth_sql(
        self, activity: Iterable[ActionLabel], k: int = 10
    ) -> list[tuple[str, float]]:
        """The Breadth ranking computed entirely inside SQLite.

        Implements Algorithm 2 as one aggregation query: a CTE counts each
        touched implementation's overlap with the activity (``comm``), then
        every non-activity action of those implementations accumulates the
        overlaps.  Returns ``(action_label, score)`` pairs, best first.
        Scores match the reference :class:`BreadthStrategy` exactly; within
        equal scores the SQL path orders alphabetically by label (the
        in-memory strategy orders by its internal action ids).
        """
        if k <= 0:
            raise StorageError(f"k must be positive, got {k}")
        labels = sorted({str(a) for a in activity})
        if not labels:
            return []
        connection = self._connect()
        placeholders = ",".join("?" for _ in labels)
        rows = connection.execute(
            f"""
            WITH activity AS (
                SELECT id AS action_id FROM actions
                WHERE label IN ({placeholders})
            ),
            touched AS (
                SELECT ia.impl_id, COUNT(*) AS comm
                FROM implementation_actions ia
                JOIN activity a ON a.action_id = ia.action_id
                GROUP BY ia.impl_id
            )
            SELECT act.label, SUM(t.comm) AS score
            FROM touched t
            JOIN implementation_actions ia2 ON ia2.impl_id = t.impl_id
            JOIN actions act ON act.id = ia2.action_id
            WHERE ia2.action_id NOT IN (SELECT action_id FROM activity)
            GROUP BY ia2.action_id
            ORDER BY score DESC, act.label ASC
            LIMIT ?
            """,
            (*labels, k),
        ).fetchall()
        return [(label, float(score)) for label, score in rows]

    def closest_implementations_sql(
        self, activity: Iterable[ActionLabel], k: int = 10
    ) -> list[tuple[str, int, int]]:
        """Focus_cl's implementation ranking inside SQLite.

        Returns up to ``k`` ``(goal_label, impl_id, remaining)`` rows for
        the implementations sharing actions with the activity, fewest
        remaining actions first (complete implementations excluded) —
        the per-implementation core of Algorithm 1.
        """
        if k <= 0:
            raise StorageError(f"k must be positive, got {k}")
        labels = sorted({str(a) for a in activity})
        if not labels:
            return []
        connection = self._connect()
        placeholders = ",".join("?" for _ in labels)
        rows = connection.execute(
            f"""
            WITH activity AS (
                SELECT id AS action_id FROM actions
                WHERE label IN ({placeholders})
            ),
            touched AS (
                SELECT ia.impl_id, COUNT(*) AS comm
                FROM implementation_actions ia
                JOIN activity a ON a.action_id = ia.action_id
                GROUP BY ia.impl_id
            ),
            sizes AS (
                SELECT impl_id, COUNT(*) AS total
                FROM implementation_actions GROUP BY impl_id
            )
            SELECT g.label, t.impl_id, (s.total - t.comm) AS remaining
            FROM touched t
            JOIN sizes s ON s.impl_id = t.impl_id
            JOIN implementations i ON i.id = t.impl_id
            JOIN goals g ON g.id = i.goal_id
            WHERE s.total > t.comm
            ORDER BY remaining ASC, t.impl_id ASC
            LIMIT ?
            """,
            (*labels, k),
        ).fetchall()
        return [(goal, int(pid), int(remaining)) for goal, pid, remaining in rows]
