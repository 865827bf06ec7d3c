"""The metrics registry: counters and bucketed histograms.

Pure bookkeeping on plain dicts — incrementing a counter schedules
nothing, draws no randomness, and allocates at most one dict entry, so
an instrumented run produces *exactly* the same event stream as an
uninstrumented one (the property ``tests/test_obs.py`` pins). Every
metric is keyed ``(name, node)``; the empty node labels process-wide
metrics (client-side counters, run totals).

Histograms use fixed millisecond bucket bounds rather than adaptive
ones: adaptive bounds would depend on observation order and make the
``mntr`` output fragile across refactors that reorder instrumentation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

__all__ = ["MetricsRegistry", "BUCKET_BOUNDS_MS"]

#: upper bounds (ms) of the histogram buckets; the last bucket is open.
BUCKET_BOUNDS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0)


class MetricsRegistry:
    """Counters/histograms shared by every instrumented component."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        #: (name, node) -> running total.
        self.counters: Dict[Tuple[str, str], float] = {}
        #: (name, node) -> per-bucket counts (len(BUCKET_BOUNDS_MS) + 1).
        self.histograms: Dict[Tuple[str, str], List[int]] = {}

    # -- writes ------------------------------------------------------------

    def inc(self, name: str, node: str = "", value: float = 1.0) -> None:
        key = (name, node)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def observe(self, name: str, node: str, value_ms: float) -> None:
        key = (name, node)
        buckets = self.histograms.get(key)
        if buckets is None:
            buckets = [0] * (len(BUCKET_BOUNDS_MS) + 1)
            self.histograms[key] = buckets
        buckets[bisect_right(BUCKET_BOUNDS_MS, value_ms)] += 1

    # -- reads -------------------------------------------------------------

    def total(self, name: str) -> float:
        """Sum of a counter across every node label."""
        return sum(v for (n, _node), v in self.counters.items() if n == name)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic (sorted) dump of everything in the registry."""
        return {
            "counters": {f"{name}{{{node}}}": value for (name, node), value
                         in sorted(self.counters.items())},
            "histograms": {f"{name}{{{node}}}": list(counts)
                           for (name, node), counts
                           in sorted(self.histograms.items())},
        }

    def mntr_lines(self, node: str) -> List[str]:
        """``mntr``-style ``key\\tvalue`` lines for one node's metrics."""
        return [f"{name}\t{value:g}"
                for (name, metric_node), value
                in sorted(self.counters.items()) if metric_node == node]
