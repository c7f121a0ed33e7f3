"""JSON (de)serialization of datasets and libraries.

A dataset round-trips through a single JSON document so experiments can be
frozen to disk and reloaded bit-identically.  Labels must be strings for the
shipped loaders (all generators produce string labels); arbitrary hashable
labels remain supported in-memory.  The library half
(:func:`library_to_dict`, :func:`library_from_dict`) lives with the library
in :mod:`repro.core.library`, so a library file loads without this package.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.library import library_from_dict, library_to_dict
from repro.data.schema import Dataset, GeneratedUser
from repro.exceptions import DataError

_FORMAT_VERSION = 1


def dataset_to_dict(dataset: Dataset) -> dict:
    """Serialize a full dataset to a JSON-compatible dict."""
    payload: dict = {
        "format_version": _FORMAT_VERSION,
        "name": dataset.name,
        "library": library_to_dict(dataset.library),
        "users": [
            {
                "user_id": user.user_id,
                "full_activity": sorted(map(str, user.full_activity)),
                "goals": [str(g) for g in user.goals],
                "sequence": [str(a) for a in user.sequence],
            }
            for user in dataset.users
        ],
        "metadata": dataset.metadata,
    }
    if dataset.item_features is not None:
        payload["item_features"] = {
            str(item): sorted(features)
            for item, features in dataset.item_features.items()
        }
    return payload


def dataset_from_dict(payload: dict) -> Dataset:
    """Deserialize a dataset produced by :func:`dataset_to_dict`."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DataError(
            f"unsupported dataset format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    try:
        users = [
            GeneratedUser(
                user_id=row["user_id"],
                full_activity=frozenset(row["full_activity"]),
                goals=tuple(row.get("goals", ())),
                sequence=tuple(row.get("sequence", ())),
            )
            for row in payload["users"]
        ]
        features_raw = payload.get("item_features")
        item_features = (
            {item: frozenset(values) for item, values in features_raw.items()}
            if features_raw is not None
            else None
        )
        return Dataset(
            name=payload["name"],
            library=library_from_dict(payload["library"]),
            users=users,
            item_features=item_features,
            metadata=payload.get("metadata", {}),
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed dataset payload: {exc}") from exc


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset to ``path`` as JSON; returns the path.

    A ``.gz`` suffix switches to gzip-compressed JSON transparently —
    paper-scale datasets shrink roughly tenfold.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dataset_to_dict(dataset)
    if path.suffix == ".gz":
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
    else:
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset written by :func:`save_dataset` (plain or ``.gz``).

    Raises :class:`DataError` for missing files or malformed content.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        if path.suffix == ".gz":
            import gzip

            with gzip.open(path, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"invalid dataset file {path}: {exc}") from exc
    return dataset_from_dict(payload)
