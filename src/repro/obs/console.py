"""The ``repro monitor`` live ops console (plain-text, stdlib-only).

Polls a running :class:`~repro.service.RecommenderService` over HTTP —
``/metrics`` for counter totals, ``/debug/history`` for sparkline series,
``/debug/vars`` for the per-stage latency breakdown and ``/debug/quality``
for drift and SLO burn rates — and renders one compact frame per
interval:

- request rate (RPS) with a sparkline over the history window;
- p95 per request stage (:data:`repro.obs.STAGES`);
- HTTP p95 sparkline derived from the request-latency histogram history;
- cache hit ratio, shed and deadline-exceeded totals;
- drift score/alert state and the SLO burn rates.

``--once`` renders a single frame and exits; ``--once --json`` emits the
raw collected snapshot as JSON for scripting, which is also what the
integration tests assert against.  The live mode clears the terminal with
ANSI escapes rather than curses — it degrades gracefully in pipes and
keeps this module importable everywhere.

Failures are part of the display, not exceptions: a dead server renders
as an error frame (and exits non-zero under ``--once``), so the console
can outlive the process it watches.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections.abc import Callable

from repro.obs.profiling import STAGES

#: Sparkline glyphs, lowest to highest.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: ANSI: clear screen + home cursor, used between live frames.
_CLEAR = "\x1b[2J\x1b[H"


def sparkline(values: list[float | None], width: int = 32) -> str:
    """Render ``values`` (``None`` = gap) as a block-character sparkline."""
    tail = values[-width:] if width > 0 else values
    present = [value for value in tail if value is not None]
    if not present:
        return "·" * len(tail)
    top = max(present)
    chars: list[str] = []
    for value in tail:
        if value is None:
            chars.append("·")
        elif top <= 0:
            chars.append(_SPARK_CHARS[0])
        else:
            index = int(value / top * (len(_SPARK_CHARS) - 1) + 0.5)
            chars.append(_SPARK_CHARS[min(index, len(_SPARK_CHARS) - 1)])
    return "".join(chars)


def parse_metrics(text: str) -> dict[str, float]:
    """Sum a Prometheus text exposition into per-family totals.

    Labels are deliberately collapsed — the console wants "requests shed,
    total" not per-reason cardinality.  Histogram ``_bucket`` samples are
    skipped (summing cumulative buckets is meaningless); ``_sum`` and
    ``_count`` series keep their suffixed names.
    """
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        sample, _, raw_value = line.rpartition(" ")
        name = sample.partition("{")[0]
        if not name or name.endswith("_bucket"):
            continue
        try:
            value = float(raw_value)
        except ValueError:
            continue
        totals[name] = totals.get(name, 0.0) + value
    return totals


def _fetch(base_url: str, path: str, timeout: float) -> str:
    with urllib.request.urlopen(base_url + path, timeout=timeout) as response:
        body: bytes = response.read()
    return body.decode("utf-8")


def _fetch_json(base_url: str, path: str, timeout: float) -> dict[str, object]:
    payload = json.loads(_fetch(base_url, path, timeout))
    if not isinstance(payload, dict):
        raise ValueError(f"{path} did not return a JSON object")
    return payload


def _sum_rate_series(history: dict[str, object]) -> list[float | None]:
    """Element-wise sum of every series' rate values (gaps stay gaps)."""
    series = history.get("series")
    timestamps = history.get("timestamps")
    if not isinstance(series, list) or not isinstance(timestamps, list):
        return []
    summed: list[float | None] = [None] * len(timestamps)
    for entry in series:
        if not isinstance(entry, dict):
            continue
        values = entry.get("values")
        if not isinstance(values, list):
            continue
        for index, value in enumerate(values[: len(summed)]):
            if isinstance(value, (int, float)):
                current = summed[index]
                summed[index] = value if current is None else current + value
    return summed


def _busiest_quantiles(
    history: dict[str, object],
) -> dict[str, list[float | None]]:
    """The quantile rows of the series with the highest observation rate.

    Quantiles cannot be merged across label sets, so the console shows
    the busiest one (by summed ``count_rate``) — for the request-latency
    family that is the hot endpoint, which is what an operator watches.
    """
    series = history.get("series")
    if not isinstance(series, list):
        return {}
    best: dict[str, object] | None = None
    best_weight = -1.0
    for entry in series:
        if not isinstance(entry, dict):
            continue
        rates = entry.get("count_rate")
        if not isinstance(rates, list):
            continue
        weight = sum(
            value for value in rates if isinstance(value, (int, float))
        )
        if weight > best_weight:
            best_weight = weight
            best = entry
    if best is None:
        return {}
    result: dict[str, list[float | None]] = {}
    for key, values in best.items():
        if key.startswith("p") and isinstance(values, list):
            result[key] = [
                value if isinstance(value, (int, float)) else None
                for value in values
            ]
    return result


def _last(values: list[float | None]) -> float | None:
    for value in reversed(values):
        if value is not None:
            return value
    return None


def collect_snapshot(
    base_url: str,
    timeout: float = 2.0,
    window: float | None = None,
    step: float | None = None,
) -> dict[str, object]:
    """One poll of the server, assembled into the console's data model."""
    base = base_url.rstrip("/")
    suffix = ""
    if window is not None:
        suffix += f"&window={window:g}"
    if step is not None:
        suffix += f"&step={step:g}"
    totals = parse_metrics(_fetch(base, "/metrics", timeout))
    vars_body = _fetch_json(base, "/debug/vars", timeout)
    quality_body = _fetch_json(base, "/debug/quality", timeout)
    history_index = _fetch_json(base, "/debug/history", timeout)
    index_families = history_index.get("families")

    def history_for(family: str) -> dict[str, object]:
        try:
            return _fetch_json(
                base, f"/debug/history?family={family}{suffix}", timeout
            )
        except (urllib.error.HTTPError, ValueError):
            # 404 until the family has traffic; render as an empty row.
            return {}

    rps_values = _sum_rate_series(history_for("repro_http_requests_total"))
    latency_quantiles = _busiest_quantiles(
        history_for("repro_http_request_seconds")
    )
    hits = totals.get("repro_cache_hits_total", 0.0)
    misses = totals.get("repro_cache_misses_total", 0.0)
    lookups = hits + misses
    quality = quality_body.get("quality")
    drift = quality.get("drift") if isinstance(quality, dict) else None
    slo = quality_body.get("slo")
    stages = vars_body.get("stages")
    return {
        "url": base,
        "ts": time.time(),
        "rps": {
            "current": _last(rps_values),
            "values": rps_values,
        },
        "latency": {
            key: {"current": _last(values), "values": values}
            for key, values in latency_quantiles.items()
        },
        "stages": stages if isinstance(stages, dict) else {},
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / lookups) if lookups else None,
        },
        "resilience": {
            "shed_total": totals.get("repro_shed_requests_total", 0.0),
            "deadline_total": totals.get(
                "repro_deadline_exceeded_total", 0.0
            ),
            "inflight": totals.get("repro_http_inflight_requests", 0.0),
            "draining": totals.get("repro_service_draining", 0.0) > 0,
        },
        "drift": drift if isinstance(drift, dict) else {},
        "slo": slo if isinstance(slo, dict) else {},
        "history": {
            "captures": history_index.get("captures"),
            "families": (
                len(index_families) if isinstance(index_families, dict) else 0
            ),
            "memory_bytes_estimate": history_index.get(
                "memory_bytes_estimate"
            ),
        },
    }


def _fmt(value: object, unit: str = "", scale: float = 1.0,
         precision: int = 1) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value * scale:.{precision}f}{unit}"


def render_frame(snapshot: dict[str, object], width: int = 32) -> str:
    """One plain-text frame of the console."""
    ts = snapshot.get("ts")
    stamp = time.strftime(
        "%Y-%m-%d %H:%M:%S",
        time.localtime(ts if isinstance(ts, (int, float)) else None),
    )
    lines = [f"repro monitor — {snapshot.get('url')} — {stamp}"]

    rps = snapshot.get("rps")
    if isinstance(rps, dict):
        values = rps.get("values")
        spark = sparkline(values if isinstance(values, list) else [], width)
        lines.append(
            f"  rps        {spark}  {_fmt(rps.get('current'), '/s')}"
        )
    latency = snapshot.get("latency")
    if isinstance(latency, dict):
        for key in ("p50", "p95", "p99"):
            row = latency.get(key)
            if not isinstance(row, dict):
                continue
            values = row.get("values")
            spark = sparkline(
                values if isinstance(values, list) else [], width
            )
            lines.append(
                f"  http {key:<4}  {spark}  "
                f"{_fmt(row.get('current'), 'ms', 1000.0)}"
            )
    stages = snapshot.get("stages")
    if isinstance(stages, dict) and stages:
        parts = []
        for stage in STAGES:
            breakdown = stages.get(stage)
            if isinstance(breakdown, dict):
                parts.append(
                    f"{stage} "
                    f"{_fmt(breakdown.get('p95_seconds'), 'ms', 1000.0, 2)}"
                )
        if parts:
            lines.append(f"  stage p95  {'  '.join(parts)}")
    cache = snapshot.get("cache")
    if isinstance(cache, dict):
        ratio = cache.get("hit_ratio")
        lines.append(
            f"  cache hit  {_fmt(ratio, '%', 100.0)}  "
            f"(hits {_fmt(cache.get('hits'), '', 1.0, 0)} "
            f"misses {_fmt(cache.get('misses'), '', 1.0, 0)})"
        )
    resilience = snapshot.get("resilience")
    if isinstance(resilience, dict):
        draining = "  DRAINING" if resilience.get("draining") else ""
        lines.append(
            f"  shed       {_fmt(resilience.get('shed_total'), '', 1.0, 0)}  "
            f"deadline {_fmt(resilience.get('deadline_total'), '', 1.0, 0)}  "
            f"inflight {_fmt(resilience.get('inflight'), '', 1.0, 0)}"
            f"{draining}"
        )
    drift = snapshot.get("drift")
    slo = snapshot.get("slo")
    drift_part = "-"
    if isinstance(drift, dict) and drift:
        state = "ALERT" if drift.get("alerting") else "ok"
        drift_part = f"{_fmt(drift.get('score'), '', 1.0, 3)} ({state})"
    slo_part = "-"
    if isinstance(slo, dict) and slo:
        slo_part = (
            f"avail {_fmt(slo.get('availability_burn_rate'), 'x', 1.0, 2)} "
            f"latency {_fmt(slo.get('latency_burn_rate'), 'x', 1.0, 2)}"
        )
    lines.append(f"  drift      {drift_part}   slo burn  {slo_part}")
    history = snapshot.get("history")
    if isinstance(history, dict):
        lines.append(
            f"  history    {_fmt(history.get('captures'), '', 1.0, 0)} "
            f"captures over {_fmt(history.get('families'), '', 1.0, 0)} "
            f"families, ~{_fmt(history.get('memory_bytes_estimate'), 'B', 1.0, 0)}"
        )
    return "\n".join(lines)


def _retry_after_seconds(exc: Exception) -> float | None:
    """``Retry-After`` of a draining server's 503, or ``None``.

    A draining :class:`~repro.service.RecommenderService` answers 503
    with a ``Retry-After`` header — that is back-pressure, not death, and
    the console must not confuse the two.
    """
    if not isinstance(exc, urllib.error.HTTPError) or exc.code != 503:
        return None
    raw = exc.headers.get("Retry-After") if exc.headers is not None else None
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def poll_with_drain_grace(
    url: str,
    interval: float,
    window: float | None = None,
    step: float | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> dict[str, object]:
    """One poll that honors a draining server's ``Retry-After``.

    A 503 carrying ``Retry-After`` gets one courtesy retry after waiting
    ``min(retry_after, interval)`` — so a monitor that races a graceful
    drain sees the final frames instead of declaring the server dead.
    Anything else (including a second 503) propagates to the caller.
    """
    try:
        return collect_snapshot(url, window=window, step=step)
    except urllib.error.HTTPError as exc:
        retry_after = _retry_after_seconds(exc)
        if retry_after is None:
            raise
        sleep(min(retry_after, interval))
        return collect_snapshot(url, window=window, step=step)


def run_monitor(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    as_json: bool = False,
    window: float | None = None,
    step: float | None = None,
    iterations: int | None = None,
    out: Callable[[str], None] = print,
) -> int:
    """Drive the console; returns a process exit code.

    ``once`` renders a single frame; otherwise frames repeat every
    ``interval`` seconds until interrupted (or ``iterations`` frames in
    tests).  Connection failures render an error frame — exit code 1
    under ``--once``, a retry in live mode.  A 503 with ``Retry-After``
    (the server is draining, not dead) is retried once within the
    interval before it counts as a failure.
    """
    frames = 0
    while True:
        try:
            snapshot = poll_with_drain_grace(url, interval, window=window, step=step)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if once:
                out(f"repro monitor: cannot poll {url}: {exc}")
                return 1
            out(f"{_CLEAR}repro monitor: cannot poll {url}: {exc} (retrying)")
        else:
            if as_json:
                out(json.dumps(snapshot, sort_keys=True))
            elif once:
                out(render_frame(snapshot))
            else:
                out(_CLEAR + render_frame(snapshot))
        frames += 1
        if once or (iterations is not None and frames >= iterations):
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0
