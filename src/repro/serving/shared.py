"""Zero-copy model publication over ``multiprocessing.shared_memory``.

A served generation's scoring state is pure numeric arrays — int64 CSR
index arrays and the co-occurrence index — which is exactly the
kind of state POSIX shared memory serves well.  The multi-worker parent
builds the :class:`~repro.core.vectorized.BatchRecommender` once, packs
every exported array into **one** shared segment, and each forked worker
reconstructs NumPy views over the same physical pages: N workers cost one
model's worth of RAM, and nobody re-runs the sparse products.

Layout: a contiguous arena of 64-byte-aligned array blobs.  The manifest
(name → dtype/shape/offset) travels with the object across ``fork``, so
children never parse headers — they slice the buffer directly.  The
arrays are treated as read-only by convention: every consumer of the
rebuilt engine only ever reads them (the engine is immutable after
construction), and the parent keeps the segment alive until shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Alignment of each array blob inside the arena.  64 bytes covers every
#: dtype's alignment requirement and keeps rows cache-line aligned.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class _ArraySpec:
    """Manifest entry for one array blob in the arena."""

    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


class SharedModelArena:
    """One shared-memory segment holding a dict of NumPy arrays.

    Built by the parent from
    :meth:`~repro.core.vectorized.BatchRecommender.export_arrays`;
    :meth:`views` reconstructs the dict as zero-copy views in any process
    that inherited the object (fork) or reattached by :attr:`name`.

    Lifecycle: the creating process owns the segment and must call
    :meth:`close` (which also unlinks) when serving stops; forked readers
    simply drop their references — the views keep the mapping alive while
    they exist.
    """

    def __init__(self, arrays: dict[str, np.ndarray], name: str | None = None) -> None:
        specs: dict[str, _ArraySpec] = {}
        offset = 0
        materialized: dict[str, np.ndarray] = {}
        for key, value in arrays.items():
            array = np.ascontiguousarray(value)
            materialized[key] = array
            offset = _aligned(offset)
            specs[key] = _ArraySpec(
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offset,
                nbytes=array.nbytes,
            )
            offset += array.nbytes
        self._specs = specs
        self._size = max(offset, 1)  # shared_memory rejects size 0
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._size, name=name
        )
        self._owner = True
        buffer = self._shm.buf
        for key, array in materialized.items():
            spec = specs[key]
            if spec.nbytes == 0:
                continue
            view: np.ndarray = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype),
                buffer=buffer, offset=spec.offset,
            )
            view[...] = array

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The OS-level segment name (``/dev/shm`` entry on Linux)."""
        return self._shm.name

    @property
    def size_bytes(self) -> int:
        """Total bytes mapped for the arena."""
        return self._size

    def keys(self) -> list[str]:
        """The packed array names, in arena order."""
        return list(self._specs)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def views(self) -> dict[str, np.ndarray]:
        """Zero-copy NumPy views over the shared pages, keyed as packed.

        Safe to call from the creating process and from forked children
        alike; every returned array aliases the single shared mapping.
        """
        buffer = self._shm.buf
        result: dict[str, np.ndarray] = {}
        for key, spec in self._specs.items():
            result[key] = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype),
                buffer=buffer, offset=spec.offset,
            )
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Unmap, and unlink when this process created the segment.

        Idempotent; the parent calls it on shutdown, children on exit.
        ``BufferError`` from live views is deliberately not swallowed —
        it means an engine still references the pages.
        """
        self._shm.close()
        if self._owner:
            self._owner = False
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked by a crash sweep
                pass

    def mark_inherited(self) -> None:
        """Flag this copy as a forked reader (never unlinks on close)."""
        self._owner = False
