"""JSON file persistence for implementation libraries."""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import Any

from repro.core.library import ImplementationLibrary
from repro.data.loaders import library_from_dict, library_to_dict
from repro.exceptions import DataError, StorageError
from repro.resilience.faults import inject
from repro.storage.base import LibraryStore


class JsonLibraryStore(LibraryStore):
    """Store a library as a single JSON document at ``path``.

    Writes are crash-atomic: the document is written to a temporary
    sibling, flushed and fsync'd, then atomically renamed over the
    destination (and the directory entry fsync'd), so a process killed at
    any instant mid-save leaves either the old library or the new one on
    disk — never a torn file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def save(self, library: ImplementationLibrary) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            with tmp_path.open("w", encoding="utf-8") as handle:
                json.dump(library_to_dict(library), handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
            self._fsync_directory(self.path.parent)
        except OSError as exc:
            raise StorageError(f"cannot save library to {self.path}: {exc}") from exc

    @staticmethod
    def _fsync_directory(directory: Path) -> None:
        # Persist the rename itself; platforms without directory fds
        # (e.g. Windows) simply skip this step.
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def load(self) -> ImplementationLibrary:
        """Load the library, holding one ``str`` per label.

        ``json.load`` decodes a fresh ``str`` for every occurrence of a
        label: on a dense library, one per (implementation, action) pair.
        An ``object_hook`` turns each row's ``actions`` into the frozenset
        its :class:`~repro.core.entities.GoalImplementation` keeps, through
        one memo for the whole document, and shares the row's ``goal`` the
        same way, so each label is held once (the paper's ``A-idx`` and
        ``G-idx`` interning, done while the rows are decoded).  A file with
        a non-string label is decoded again without the memo: ``1``,
        ``1.0`` and ``true`` are equal keys, and sharing would swap one
        for another.  Every unreadable or malformed file raises
        :class:`StorageError`, invalid UTF-8 and a document of the wrong
        shape included.
        """
        inject("storage")
        if not self.path.exists():
            raise StorageError(f"no library saved at {self.path}")
        labels: dict[object, object] = {}
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                text = handle.read()
            payload = json.loads(text, object_hook=partial(_share_labels, labels))
            if any(type(label) is not str for label in labels):
                payload = json.loads(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"cannot load library from {self.path}: {exc}") from exc
        try:
            return library_from_dict(payload)
        except DataError as exc:
            raise StorageError(str(exc)) from exc

    def exists(self) -> bool:
        return self.path.exists()


def _share_labels(labels: dict[object, object], row: dict[str, Any]) -> dict[str, Any]:
    """``object_hook`` of :meth:`JsonLibraryStore.load`: give an
    implementation row shared labels and its action frozenset.

    Any other object, or a row whose fields are missing or unhashable,
    is returned untouched; :func:`library_from_dict` reports it.  For a
    row it does convert, ``frozenset(row["actions"])`` there returns the
    same object, so nothing is built twice.
    """
    try:
        actions = row["actions"]
        goal = row["goal"]
        shared = frozenset(map(labels.setdefault, actions, actions))
        goal = labels.setdefault(goal, goal)
    except (KeyError, TypeError):
        return row
    row["actions"] = shared
    row["goal"] = goal
    return row
