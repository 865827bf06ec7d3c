"""Measurement helpers: latency recorders, counters, throughput windows.

Everything operates on simulated milliseconds; throughput values are
reported per simulated second (ops/s), matching the paper's axes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["LatencyRecorder", "IntervalThroughput", "summarize"]


class LatencyRecorder:
    """Collects latency samples and computes summary statistics."""

    def __init__(self, warmup_until: float = 0.0):
        self.samples: List[float] = []
        self.warmup_until = warmup_until
        self._discarded = 0

    def record(self, now: float, latency_ms: float) -> None:
        """Record one sample; samples taken before ``warmup_until`` are dropped."""
        if now < self.warmup_until:
            self._discarded += 1
            return
        self.samples.append(latency_ms)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return float("nan")
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100].

        The edges are pinned explicitly: ``p <= 0`` is the minimum
        sample and ``p >= 100`` the maximum, rather than leaning on the
        ``max(1, ceil(0))`` clamp to land there by accident. Interior
        values keep the exact nearest-rank behaviour.
        """
        if not self.samples:
            return float("nan")
        ordered = sorted(self.samples)
        if p <= 0.0:
            return ordered[0]
        if p >= 100.0:
            return ordered[-1]
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)


class IntervalThroughput:
    """Counts completions inside a measurement window and reports ops/s."""

    def __init__(self, start_ms: float, end_ms: float):
        if end_ms <= start_ms:
            raise ValueError("measurement window must have positive length")
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.completed = 0

    def record(self, now: float, n: int = 1) -> None:
        if self.start_ms <= now < self.end_ms:
            self.completed += n

    @property
    def ops_per_second(self) -> float:
        window_s = (self.end_ms - self.start_ms) / 1000.0
        return self.completed / window_s


def summarize(recorder: LatencyRecorder,
              throughput: Optional[IntervalThroughput] = None) -> Dict[str, float]:
    """Flatten a recorder (and optional throughput window) into a dict."""
    summary = {
        "count": float(recorder.count),
        "mean_ms": recorder.mean,
        "median_ms": recorder.median,
        "p99_ms": recorder.p99,
        "p999_ms": recorder.p999,
    }
    if throughput is not None:
        summary["ops_per_second"] = throughput.ops_per_second
    return summary
