"""Global on/off switches for the observability layer.

Instrumentation in the hot path (``GoalRecommender.recommend``, the ranking
strategies, the space queries) is guarded by these flags so that a process
that never calls :func:`enable` pays only a boolean check per guarded site —
benchmarks against the uninstrumented code stay honest.

Five subsystems, all starting **disabled**:

- ``metrics`` — counter/gauge/histogram recording into the process registry;
- ``tracing`` — span recording into the process tracer;
- ``exemplars`` — latency histograms additionally remember the request id of
  a recent observation per bucket, rendered as OpenMetrics exemplars (only
  meaningful with metrics on; the flag is separate because exemplar capture
  reads the request-id ContextVar on every ``observe``);
- ``trace_detail`` — recommend spans additionally carry the space sizes
  |IS(H)|, |GS(H)|, |AS(H)| and the candidate count.  On the CSR path
  they cost one engine call per request; on the scalar path, three extra
  index queries — far more than the span machinery itself — so they are
  opt-in on top of ``tracing`` and the 10% enabled-path overhead budget
  (``benchmarks/bench_obs_overhead.py``) is enforced *without* them;
- ``quality`` — recommendation-quality accounting into the process
  :class:`~repro.obs.quality.QualityMonitor` (score distributions, empty
  and below-threshold result rates, OOV rate, drift detection; see
  ``docs/quality.md``).  Its own ≤10% overhead budget is enforced by
  ``benchmarks/bench_quality_telemetry.py``.

The HTTP service enables metrics, tracing and exemplars when it is
constructed (a service without request accounting is not observable, and
its ``/debug/slow`` span trees need spans recorded); everything else is
opt-in:

    from repro import obs

    obs.enable(metrics=True, tracing=True)
    obs.enable(exemplars=True, trace_detail=True)   # the opt-in extras
    ...
    obs.disable()

The flags are plain module-level booleans: reads and writes are atomic under
the GIL, and the guarded sites tolerate a stale read for one operation (a
sample more or less around the toggle instant is not a correctness issue),
so no lock is needed.
"""

from __future__ import annotations

_metrics_enabled: bool = False
_tracing_enabled: bool = False
_exemplars_enabled: bool = False
_trace_detail_enabled: bool = False
_quality_enabled: bool = False


def enable(
    metrics: bool = True,
    tracing: bool = True,
    *,
    exemplars: bool = False,
    trace_detail: bool = False,
    quality: bool = False,
) -> None:
    """Turn observability subsystems on.

    Arguments select *which* subsystems to enable; ``False`` leaves the
    corresponding flag untouched (it never turns a subsystem off — use
    :func:`disable` for that), so ``enable(metrics=True, tracing=False)``
    composes with a tracing session enabled elsewhere.  ``exemplars``,
    ``trace_detail`` and ``quality`` default to ``False`` (untouched): they
    are opt-in extras on top of metrics and tracing.
    """
    global _metrics_enabled, _tracing_enabled
    global _exemplars_enabled, _trace_detail_enabled, _quality_enabled
    if metrics:
        _metrics_enabled = True
    if tracing:
        _tracing_enabled = True
    if exemplars:
        _exemplars_enabled = True
    if trace_detail:
        _trace_detail_enabled = True
    if quality:
        _quality_enabled = True


def disable(
    metrics: bool = True,
    tracing: bool = True,
    exemplars: bool = True,
    trace_detail: bool = True,
    quality: bool = True,
) -> None:
    """Turn observability subsystems off (all five by default)."""
    global _metrics_enabled, _tracing_enabled
    global _exemplars_enabled, _trace_detail_enabled, _quality_enabled
    if metrics:
        _metrics_enabled = False
    if tracing:
        _tracing_enabled = False
    if exemplars:
        _exemplars_enabled = False
    if trace_detail:
        _trace_detail_enabled = False
    if quality:
        _quality_enabled = False


def metrics_enabled() -> bool:
    """``True`` when metric recording is on."""
    return _metrics_enabled


def tracing_enabled() -> bool:
    """``True`` when span recording is on."""
    return _tracing_enabled


def exemplars_enabled() -> bool:
    """``True`` when histogram exemplar capture is on."""
    return _exemplars_enabled


def trace_detail_enabled() -> bool:
    """``True`` when recommend spans carry the (costly) space sizes."""
    return _trace_detail_enabled


def quality_enabled() -> bool:
    """``True`` when recommendation-quality accounting is on."""
    return _quality_enabled


def is_enabled() -> bool:
    """``True`` when metric or span recording is on."""
    return _metrics_enabled or _tracing_enabled
