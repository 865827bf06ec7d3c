"""How fast is the host right now? A fixed reference loop answers.

The benchmark host is a small shared VM whose speed drifts by several
percent over minutes and, now and then, by half for minutes on end. Ten
raw runs of ``ezk_zipf_open`` in a row, 25 s each, read 81 to 101
wall-µs/op and then 124 and 128: an inter-quartile range of 25 % of the
median, which is the widest regression bound the benchmark's contract
allows at all. A wall metric taken raw inherits all of it. So every wall
time of the ledger is divided by the host's *slowdown*: the time a fixed
piece of pure-Python work takes, sampled between slices of the measured
phase, over :data:`NOMINAL_S`. The raw reading is printed and stored
beside every scaled one, and so is the slowdown.

The loop is allocation, dict, heap and tuple work — the simulator's diet
— on the standard library only, so no change to the program can move it.
Interleaving matters: sampled only before and after a 4 s phase the
reference cancelled nothing; sampled every 50 simulated ms (20 samples
of ~20 ms, their *mean*) it cut the spread of one repeat across 20 fresh
processes from 9.2 % to 2.3 % inter-quartile, 5.3 % to 2.7 % standard
deviation. The median of the samples, their minimum, and samples a third
the size all did worse.

The reference has to come from outside the run. One taken from the run
itself (each repeat against the mean of the run's samples) cancels drift
between the repeats of a run and none between runs, and it is runs the
benchmark compares. What the loop cannot cancel is a change that moves
it and the program by different factors, such as another interpreter:
then ``host_slowdown_x`` and the raw readings show it, and the baseline
is measured again.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

__all__ = ["HostReference", "NOMINAL_S"]

#: The unit of every scaled time: wall time on a host that takes this
#: long over one :func:`_spin`. It is a definition, not a calibration
#: that needs keeping; it was chosen near the defining host's quiet
#: periods (2-core Xeon VM @ 2.1 GHz, CPython 3.11, where the slowdown
#: reads 0.93 to 0.99) so that scaled and raw times read alike.
NOMINAL_S = 0.018


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _spin(n: int = 12000) -> int:
    heap: list = []
    table: dict = {}
    acc = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(n):
        item = _Item(i, str(i), (i, i + 1))
        table[(i & 4095, "k")] = item
        push(heap, ((i * 7919) % 10007, i, item))
        if i & 1:
            acc += pop(heap)[1]
        got = table.get(((i * 31) & 4095, "k"))
        if got is not None:
            acc += got.a
    return acc


class HostReference:
    """Accumulates reference samples; :attr:`slowdown` is their mean
    over :data:`NOMINAL_S` (the mean, not the median: a burst that hits
    a tenth of the work hits a tenth of the samples)."""

    def __init__(self) -> None:
        self.samples: list = []
        _spin(200)          # first call pays one-off costs

    def sample(self) -> None:
        # Collector off: the loop makes no cycles, and a collection in
        # here would walk the program's heap and time that instead.
        gc.disable()
        try:
            start = time.perf_counter()
            _spin()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / NOMINAL_S
