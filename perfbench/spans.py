"""In-memory spans for the traced benchmark run.

Spans are recorded only from the benchmark's own files: around each call
the benchmark makes into a layer's public function, plus -- while a
traced pass runs -- around three entry points that ``CombinationalAtpg``
calls internally (see :data:`WRAP_TARGETS`).  Nothing here edits the
program; wrappers are installed for the traced pass and removed after.

A span's self time is its duration minus the time its child spans
cover, so the self times of all spans plus the untraced remainder add up
to the traced wall time (:func:`layer_table`).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: (span name, module, attribute) wrapped during a traced pass; the
#: attribute may be ``Class.method``
WRAP_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("atpg.podem", "repro.atpg.combinational", "podem"),
    ("atpg.compact", "repro.atpg.combinational", "compact_patterns"),
    ("faults.sim", "repro.faults.simulator", "FaultSimulator.run"),
)


class SpanRecorder:
    """Collects nested spans in memory while :attr:`active`.

    Each span is ``[name, start_ns, end_ns, parent_index]``; the parent
    is the span open when it started (-1 for a root).  :meth:`window`
    marks the stretches of wall time that count as traced.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        self.wall_ns = 0
        self._stack: List[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.active else _NULL_SPAN

    @contextmanager
    def window(self) -> Iterator[None]:
        """Record spans inside the block and add its length to the wall."""
        self.active = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.wall_ns += time.perf_counter_ns() - start
            self.active = False

    # ------------------------------------------------------------------
    def per_name(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, self_s, total_s}`` over every recorded span."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[index]) / 1e9
            row["total_s"] += (end - start) / 1e9
        return table

    def covered_s(self) -> float:
        """Wall time under root spans (= the sum of every span's self time)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e9

    def chrome_trace(self) -> str:
        """The spans as Chrome ``trace_event`` JSON (open in Perfetto)."""
        if not self.spans:
            return json.dumps({"traceEvents": []})
        origin = min(start for _, start, _, _ in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"index": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        return json.dumps({"traceEvents": events})


class _Span:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        parent = recorder._stack[-1] if recorder._stack else -1
        self.index = len(recorder.spans)
        recorder.spans.append([self.name, time.perf_counter_ns(), 0, parent])
        recorder._stack.append(self.index)
        return self

    def __exit__(self, *_exc) -> None:
        recorder = self.recorder
        recorder.spans[self.index][2] = time.perf_counter_ns()
        recorder._stack.pop()


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _wrap(recorder: SpanRecorder, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    return wrapper


@contextmanager
def wrapped_entry_points(recorder: SpanRecorder) -> Iterator[Dict[str, str]]:
    """Wrap :data:`WRAP_TARGETS` for the block.

    Yields ``span name -> dotted target`` for every target that no
    longer exists, so its metric shows as missing rather than as zero.
    """
    installed = []
    missing: Dict[str, str] = {}
    for name, module_name, attribute in WRAP_TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if not callable(original):
            missing[name] = f"{module_name}.{attribute}"
            continue
        setattr(owner, leaf, _wrap(recorder, name, original))
        installed.append((owner, leaf, original))
    try:
        yield missing
    finally:
        for owner, leaf, original in reversed(installed):
            setattr(owner, leaf, original)


def layer_table(recorder: SpanRecorder) -> str:
    """Per-layer self times; the rows add up to the traced wall time."""
    rows = sorted(recorder.per_name().items(), key=lambda item: -item[1]["self_s"])
    wall = recorder.wall_ns / 1e9
    remainder = wall - recorder.covered_s()
    lines = [f"{'layer':<24} {'calls':>7} {'self_s':>10} {'share':>7}"]
    for name, row in rows:
        share = 100.0 * row["self_s"] / wall if wall else 0.0
        lines.append(f"{name:<24} {row['calls']:>7} {row['self_s']:>10.4f} {share:>6.1f}%")
    share = 100.0 * remainder / wall if wall else 0.0
    lines.append(f"{'(untraced remainder)':<24} {'':>7} {remainder:>10.4f} {share:>6.1f}%")
    lines.append(f"{'traced wall':<24} {'':>7} {wall:>10.4f} {100.0:>6.1f}%")
    return "\n".join(lines)
