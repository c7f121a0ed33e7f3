"""Per-request deadlines, propagated via ContextVar, checked entering stages.

A deadline is a point on the monotonic clock by which a request must have
answered.  The HTTP layer creates one per request (from the
``X-Request-Deadline-Ms`` header or the service's ``--default-deadline-ms``)
and installs it in a :class:`contextvars.ContextVar`, so every function on
the request's call path — however deep — can ask "is it still worth
continuing?" without threading a parameter through the recommender stack.

The checkpoints are stage marks: :func:`enter_stage` marks a served
request's entry into one of :data:`~repro.obs.profiling.STAGES` and checks
the deadline in the same call, so a deadline can only expire at a stage
the request runs.  The deadline is installed once the request is
admitted; the checkpoints are ``admission`` (right after the admission
wait), ``decode``, ``cache`` (``/recommend``'s snapshot and result
lookup) and ``rank`` (in :class:`~repro.core.recommender.GoalRecommender`,
and before every activity of ``/recommend/batch``).  ``encode`` and
``write`` are only marked (:func:`~repro.obs.profiling.mark_stage`): by
then the handler's work — a committed mutation included — is done, and
answering it is cheaper than abandoning it.

An expired checkpoint raises :class:`DeadlineExceededError` carrying the
**stage reached**, which the HTTP layer maps to ``504`` (and records on the
request span as ``deadline_stage``).  With no deadline installed and no
request served, every checkpoint is two ``ContextVar.get() is None`` tests
— cheap enough to leave in the hot path unconditionally.

Clocks are injectable (``Deadline(expires_at, clock=...)``) so tests can
drive expiry deterministically instead of sleeping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Callable, Iterator

from repro import obs
from repro.exceptions import ReproError
from repro.obs.profiling import STAGES, mark_stage

_ACTIVE: ContextVar["Deadline | None"] = ContextVar(
    "repro_resilience_deadline", default=None
)


class DeadlineExceededError(ReproError):
    """The request's deadline expired; ``stage`` names the checkpoint.

    ``stage`` is one of :data:`~repro.obs.profiling.STAGES` — the stage
    the request was *about to enter* when the deadline fired.  The HTTP layer
    maps this to ``504 {error, detail}`` with the stage in the detail.
    """

    def __init__(self, stage: str, budget_ms: float | None = None) -> None:
        self.stage = stage
        self.budget_ms = budget_ms
        budget = (
            f" (budget {budget_ms:.0f} ms)" if budget_ms is not None else ""
        )
        super().__init__(
            f"deadline exceeded entering stage {stage!r}{budget}"
        )


class Deadline:
    """An absolute expiry on an injectable monotonic clock."""

    __slots__ = ("expires_at", "budget_ms", "_clock")

    def __init__(
        self,
        expires_at: float,
        budget_ms: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.expires_at = expires_at
        self.budget_ms = budget_ms
        self._clock = clock

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(clock() + budget_ms / 1000.0, budget_ms, clock)

    def remaining_seconds(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        """``True`` once the clock has passed the expiry point."""
        return self._clock() >= self.expires_at

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceededError` if expired, else return."""
        if self.expired():
            raise DeadlineExceededError(stage, self.budget_ms)


def active_deadline() -> Deadline | None:
    """The deadline of the current context, or ``None``."""
    return _ACTIVE.get()


def enter_stage(stage: str) -> None:
    """Enter ``stage``: mark it on the served request
    (:func:`~repro.obs.profiling.mark_stage`), then raise
    :class:`DeadlineExceededError` if the active deadline has expired.
    Without a deadline there is nothing to check.
    """
    mark_stage(stage)
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check(stage)


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[None]:
    """Install ``deadline`` for the duration of the ``with`` block.

    Passing ``None`` explicitly clears any inherited deadline, so nested
    scopes behave predictably.
    """
    token = _ACTIVE.set(deadline)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


def record_deadline_exceeded(stage: str) -> None:
    """Count one deadline expiry in the metrics registry (if enabled)."""
    if obs.metrics_enabled():
        obs.get_registry().counter(
            "repro_deadline_exceeded_total",
            "Requests abandoned because their deadline expired, by the "
            "stage reached.",
            stage=stage if stage in STAGES else "other",
        ).inc()
