"""Resilience primitives for the serving layer.

The HTTP service in :mod:`repro.service` fronts a CPU-bound ranking
pipeline; under saturating traffic the failure mode of a naive server is
collapse (every request queues, every request times out, and a container
stop kills whatever was in flight).  This package provides the standard
countermeasures as small, dependency-free building blocks:

- :mod:`repro.resilience.deadlines` — per-request deadlines propagated via
  :class:`contextvars.ContextVar` and checked as a served request enters
  each stage up to ``rank`` (:data:`repro.obs.STAGES`) so an expired request
  stops burning CPU at the next stage boundary instead of finishing a
  ranking nobody is waiting for;
- :mod:`repro.resilience.admission` — a bounded in-flight/queue admission
  controller: excess requests are *shed* with a clear signal (HTTP 429 +
  ``Retry-After``) instead of queueing until collapse (the tail-at-scale
  load-shedding argument);
- :mod:`repro.resilience.retry` — deterministic retry-with-exponential-
  backoff for transient failures (used by the :mod:`repro.storage` load
  paths);
- :mod:`repro.resilience.faults` — a deterministic, seeded fault-injection
  harness with hooks at the model-manager, cache and storage seams, so the
  failure behaviors above are *testable* (latency, exceptions and slow
  storage on demand, reproducible run to run).

Everything here is inert by default: no deadline is active unless one is
installed, no admission controller exists unless the service configures
one, and the fault injector is a module-level ``None`` check until a spec
is installed (``repro serve --fault-spec`` or a test fixture).

See ``docs/resilience.md`` for the end-to-end semantics (shedding,
deadline propagation, the drain sequence and the fault-spec format).
"""

from repro.resilience.admission import AdmissionController, record_shed
from repro.resilience.deadlines import (
    Deadline,
    DeadlineExceededError,
    active_deadline,
    deadline_scope,
    enter_stage,
    record_deadline_exceeded,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjectedError,
    FaultInjector,
    FaultRule,
    active_injector,
    clear_faults,
    inject,
    install_faults,
    parse_fault_spec,
)
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "AdmissionController",
    "record_shed",
    "Deadline",
    "DeadlineExceededError",
    "active_deadline",
    "deadline_scope",
    "enter_stage",
    "record_deadline_exceeded",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjectedError",
    "FaultInjector",
    "FaultRule",
    "active_injector",
    "clear_faults",
    "inject",
    "install_faults",
    "parse_fault_spec",
    "RetryPolicy",
    "retry_call",
]
