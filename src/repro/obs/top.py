"""Terminal dashboard for the campaign daemon — the body of ``cli top``.

Pure rendering: :func:`render_dashboard` turns the daemon's three public
documents (``/healthz``, JSON ``/metrics``, ``/metrics/history``) into
one screenful of text.  The CLI owns polling, clearing the screen, and
the refresh loop; keeping this module side-effect-free makes the layout
unit-testable with canned payloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exec.progress import format_duration

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A unicode block-character strip of ``values``, newest on the right.

    Scales to the window's own min/max (a flat series renders as a flat
    low line); empty input renders as an empty string.
    """
    points = [float(v) for v in values if v is not None][-width:]
    if not points:
        return ""
    lo = min(points)
    hi = max(points)
    span = hi - lo
    chars = []
    for value in points:
        if span <= 0:
            chars.append(SPARK_CHARS[0])
            continue
        idx = int((value - lo) / span * (len(SPARK_CHARS) - 1))
        chars.append(SPARK_CHARS[max(0, min(idx, len(SPARK_CHARS) - 1))])
    return "".join(chars)


def hit_rate(hits: object, total: object) -> Optional[float]:
    """``hits/total`` as a fraction, None when the denominator is 0/absent."""
    try:
        hits_n = float(hits or 0)
        total_n = float(total or 0)
    except (TypeError, ValueError):
        return None
    if total_n <= 0:
        return None
    return hits_n / total_n


def _pct(fraction: Optional[float]) -> str:
    return "  --" if fraction is None else f"{100.0 * fraction:3.0f}%"


def _counter(metrics: Dict[str, object], key: str) -> int:
    counters = metrics.get("counters")
    if not isinstance(counters, dict):
        return 0
    try:
        return int(counters.get(key, 0) or 0)
    except (TypeError, ValueError):
        return 0


def _gauge_series(history: Optional[Dict[str, object]], key: str) -> List[float]:
    """One gauge's trajectory across the history ring, oldest first."""
    if not isinstance(history, dict):
        return []
    series: List[float] = []
    for snap in history.get("samples") or []:
        if not isinstance(snap, dict):
            continue
        gauges = snap.get("gauges")
        if isinstance(gauges, dict) and key in gauges:
            try:
                series.append(float(gauges[key]))
            except (TypeError, ValueError):
                continue
    return series


def render_dashboard(
    health: Dict[str, object],
    metrics: Dict[str, object],
    history: Optional[Dict[str, object]] = None,
) -> str:
    """One frame of the ``cli top`` screen, as a newline-joined string."""
    lines: List[str] = []

    status = str(health.get("status", "?"))
    uptime = format_duration(health.get("uptime_s"))
    workers = int(health.get("workers", 0) or 0)
    inflight = int(health.get("inflight", 0) or 0)
    depth = int(health.get("queue_depth", 0) or 0)
    max_queue = int(health.get("max_queue", 0) or 0)
    util = hit_rate(inflight, workers)
    lines.append(
        f"repro daemon · {status} · up {uptime} · "
        f"{workers} workers ({_pct(util).strip()} busy)"
    )

    strip = sparkline(_gauge_series(history, "service.queue.depth"))
    queue_line = f"queue    {depth}/{max_queue} queued · {inflight} inflight"
    if strip:
        queue_line += f"  {strip}"
    lines.append(queue_line)

    clients = health.get("clients")
    if isinstance(clients, dict) and clients:
        widest = max(len(str(name)) for name in clients)
        for name, queued in sorted(clients.items()):
            lines.append(f"  client {str(name):<{widest}}  {queued} queued")

    total = _counter(metrics, "service.jobs.total")
    cached = _counter(metrics, "service.jobs.cached")
    deduped = _counter(metrics, "service.jobs.deduped")
    executed = _counter(metrics, "service.jobs.executed")
    failed = _counter(metrics, "service.jobs.failed")
    lines.append(
        f"jobs     {total} total · {executed} executed · {cached} cached · "
        f"{deduped} deduped · {failed} failed · "
        f"dedupe {_pct(hit_rate(cached + deduped, total)).strip()}"
    )

    cache = health.get("cache")
    if isinstance(cache, dict):
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        rate = hit_rate(hits, (hits or 0) + (misses or 0))
        lines.append(
            f"cache    {hits} hits · {misses} misses · "
            f"hit rate {_pct(rate).strip()} · {cache.get('shards', 0)} shards"
        )

    slo = health.get("slo")
    if isinstance(slo, dict):
        verdict = "OK" if slo.get("ok") else "FAILING"
        lines.append(f"slo      {verdict}")
        results = slo.get("results")
        if isinstance(results, list) and results:
            widest = max(
                len(str(r.get("name", "?")))
                for r in results
                if isinstance(r, dict)
            )
            for result in results:
                if not isinstance(result, dict):
                    continue
                name = str(result.get("name", "?"))
                ok = result.get("ok")
                if ok is None:
                    mark = "· no data"
                elif result.get("failed"):
                    mark = "✗ FAIL"
                else:
                    mark = "✓ ok"
                value = result.get("value")
                shown = "--" if value is None else f"{float(value):g}"
                burn = result.get("burn_rate")
                burn_s = "" if not burn else f" · burn {float(burn):.2f}"
                lines.append(
                    f"  {name:<{widest}}  {mark:<9} value {shown}{burn_s}"
                )

    return "\n".join(lines)
