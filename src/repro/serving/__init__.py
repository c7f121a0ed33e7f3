"""Multi-process serving: shared-memory model publication + pre-fork workers.

``repro serve --workers N`` escapes the GIL by running N independent
server processes over *one* physical copy of the served generation's numeric
state:

- :mod:`repro.serving.shared` — :class:`~repro.serving.shared.SharedModelArena`
  packs every derived array of the CSR engine
  (:meth:`~repro.core.vectorized.BatchRecommender.export_arrays`) into a
  single ``multiprocessing.shared_memory`` segment; workers rebuild the
  engine zero-copy with
  :meth:`~repro.core.vectorized.BatchRecommender.from_arrays`;
- :mod:`repro.serving.workers` — the pre-fork supervisor: SO_REUSEPORT
  worker binds (or an inherited parent-bound listener), mutation
  serialization through the parent, generation-ordered hot reload over
  control pipes, SIGTERM drain fan-out, and crash restarts under a
  budget.

See docs/serving.md ("Multi-worker mode") for the full protocol.
"""

from repro.serving.shared import SharedModelArena
from repro.serving.workers import WorkerSupervisor, run_worker_pool

__all__ = ["SharedModelArena", "WorkerSupervisor", "run_worker_pool"]
