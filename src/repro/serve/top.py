"""``repro top``: a live terminal dashboard over a running daemon.

Each frame polls two ops on one connection -- ``stats`` (queue depth,
job states, tenant rollups, latency summaries) and ``metrics`` (the
Prometheus text exposition) -- and renders them as a compact terminal
page.  The exposition is read back through
:func:`repro.obs.expo.parse_exposition`, the same parser the CI scrape
check uses, so ``repro top`` doubles as a continuous validation that
the daemon's metrics surface stays parseable.  Counter *deltas* are
computed between consecutive frames (the exposition only carries
totals), which is what makes queue churn and per-poll throughput
visible.

Latency percentiles come from the daemon's ``serve.queue_wait`` /
``serve.job_latency`` histograms; before any job has finished they are
the well-defined empty summary and render as ``-``.

``--once`` renders a single frame and exits (scriptable / testable);
``--expo`` dumps the raw exposition instead of the dashboard (the CI
scrape path).  The refresh loop redraws in place with plain ANSI
control sequences -- no curses, no dependencies.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.expo import parse_exposition
from repro.util import render_table

#: ANSI "cursor home + clear to end of screen" (redraw in place
#: without the full-screen flash of ``clear``)
_REDRAW = "\x1b[H\x1b[J"

#: counters whose per-frame delta is shown in the "hot counters" panel
_HOT_LIMIT = 8


def poll(client) -> Dict[str, Any]:
    """One dashboard frame's raw data from a connected client.

    Returns ``{"stats": ..., "counters": {dotted_name: value},
    "polled_monotonic": ...}``.  Counters are recovered from the
    ``metrics`` exposition (round-tripped through the parser); the
    dotted instrument name is taken from each series' HELP line, which
    :func:`repro.obs.expo.render_exposition` writes for exactly this
    reason.
    """
    stats = client.stats()
    parsed = parse_exposition(client.metrics())
    counters: Dict[str, float] = {}
    for entry in parsed.values():
        if entry.get("type") != "counter" or not entry["samples"]:
            continue
        help_text = entry.get("help") or ""
        _, _, dotted = help_text.partition(" ")
        if not dotted:
            continue
        counters[dotted] = entry["samples"][0][1]
    return {
        "stats": stats,
        "counters": counters,
        "polled_monotonic": time.monotonic(),
    }


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1.0:
        return f"{value * 1000:.1f}ms"
    return f"{value:.3f}s"


def _fmt_delta(current: Optional[float], previous: Optional[float]) -> str:
    """``+12%`` / ``-3%`` style movement of a percentile between frames."""
    if current is None or previous is None or previous == 0:
        return ""
    change = (current - previous) / previous
    if abs(change) < 0.005:
        return "  ="
    return f" {change:+.0%}"


def _latency_rows(
    stats: Dict[str, Any], previous_stats: Optional[Dict[str, Any]]
) -> List[List[str]]:
    rows = []
    for key in ("queue_wait", "job_latency"):
        summary = stats.get("latency", {}).get(key) or {}
        before = (previous_stats or {}).get("latency", {}).get(key) or {}
        rows.append([
            key,
            summary.get("count", 0),
            _fmt_seconds(summary.get("p50"))
            + _fmt_delta(summary.get("p50"), before.get("p50")),
            _fmt_seconds(summary.get("p90")),
            _fmt_seconds(summary.get("p99"))
            + _fmt_delta(summary.get("p99"), before.get("p99")),
            _fmt_seconds(summary.get("max")),
        ])
    return rows


def _tenant_rows(stats: Dict[str, Any]) -> List[List[Any]]:
    rows = []
    for tenant, events in sorted(stats.get("tenants", {}).items()):
        rows.append([
            tenant,
            events.get("submitted", 0),
            events.get("done", 0),
            events.get("failed", 0) + events.get("cancelled", 0)
            + events.get("timeout", 0),
        ])
    return rows


def _hot_counters(
    counters: Dict[str, float], previous: Optional[Dict[str, float]]
) -> List[Tuple[str, float, float]]:
    """Counters that moved since the last frame, biggest delta first."""
    if previous is None:
        return []
    moved = []
    for name, value in counters.items():
        delta = value - previous.get(name, 0.0)
        if delta > 0:
            moved.append((name, value, delta))
    moved.sort(key=lambda item: (-item[2], item[0]))
    return moved[:_HOT_LIMIT]


def render_frame(
    frame: Dict[str, Any], previous: Optional[Dict[str, Any]] = None
) -> str:
    """One dashboard page (no ANSI; the loop adds the redraw prefix)."""
    stats = frame["stats"]
    previous_stats = previous["stats"] if previous else None
    states = stats.get("states", {})
    queue_depth = stats.get("queue_depth", 0)
    depth_note = ""
    if previous_stats is not None:
        moved = queue_depth - previous_stats.get("queue_depth", 0)
        if moved:
            depth_note = f" ({moved:+d})"
    lines = [
        f"repro top -- {stats.get('address', '?')}  "
        f"up {stats.get('uptime_s', 0.0):.0f}s"
        + ("  DRAINING" if stats.get("draining") else ""),
        "",
        f"queue {queue_depth}{depth_note}  "
        f"running {states.get('running', 0)}  "
        f"queued {states.get('queued', 0)}  "
        f"done {states.get('done', 0)}  "
        f"failed {states.get('failed', 0)}  "
        f"cancelled {states.get('cancelled', 0)}  "
        f"timeout {states.get('timeout', 0)}",
        "",
        render_table(
            ["latency", "n", "p50", "p90", "p99", "max"],
            _latency_rows(stats, previous_stats),
        ),
    ]
    tenant_rows = _tenant_rows(stats)
    if tenant_rows:
        lines.append("")
        lines.append(render_table(
            ["tenant", "submitted", "done", "failed"], tenant_rows
        ))
    cache = stats.get("result_cache", {})
    batch = stats.get("batch", {})
    lines.append("")
    lines.append(
        f"cache {cache.get('size', 0)} entries / {cache.get('hits', 0)} hits; "
        f"batches {batch.get('batches', 0)} "
        f"(coalesced {batch.get('coalesced', 0)}, "
        f"deduped {batch.get('points_deduped', 0)})"
    )
    hot = _hot_counters(frame["counters"], previous["counters"] if previous else None)
    if hot:
        lines.append("")
        lines.append(render_table(
            ["counter (moved this frame)", "total", "delta"],
            [[name, int(value), f"+{delta:g}"] for name, value, delta in hot],
        ))
    return "\n".join(lines)


def run_top(
    address: str,
    interval: float = 2.0,
    once: bool = False,
    max_frames: Optional[int] = None,
    expo: bool = False,
    stream=None,
) -> int:
    """The ``repro top`` loop.  Returns a process exit code.

    ``once`` renders a single frame without clearing the screen;
    ``max_frames`` bounds the loop (tests); ``expo`` prints the raw
    exposition instead of the dashboard and exits.
    """
    from repro.errors import ReproError
    from repro.serve.client import ServeClient

    out = stream if stream is not None else sys.stdout
    try:
        with ServeClient(address) as client:
            if expo:
                out.write(client.metrics())
                return 0
            previous: Optional[Dict[str, Any]] = None
            frames = 0
            while True:
                frame = poll(client)
                page = render_frame(frame, previous)
                if once or max_frames is not None:
                    out.write(page + "\n")
                else:
                    out.write(_REDRAW + page + "\n")
                out.flush()
                frames += 1
                previous = frame
                if once or (max_frames is not None and frames >= max_frames):
                    return 0
                time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, ReproError) as error:
        print(f"repro top: {address}: {error}", file=sys.stderr)
        return 1
