"""Garbage-collector cost and queue retention of one ledger window.

Builds one cell of a ledger workload (``benchmarks/ledger/workloads.py``),
runs its setup, then its measured window with a ``gc.callbacks`` timer
armed, and prints one JSON line:

* ``gc_s`` / ``gc_gen2_s``: wall seconds spent in collections during the
  window (all generations / generation 2 only), and ``gc_passes``;
* ``window_s``: wall seconds of the window, collections included;
* ``queued`` and ``queued_by_fn``: pending event-queue entries at the
  end of the window, counted by the function a callback runs (or the
  event type);
* ``gc_tracked``: objects the collector tracks at the end of the window.

Usage (from the repository root; the checkout's ``src`` is put on the
path)::

    python3 benchmarks/gc_window.py --workload ezk_zipf_open --seed 11
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]


class GcTimer:
    """A ``gc.callbacks`` hook that sums collection time per generation."""

    def __init__(self):
        self.seconds = [0.0, 0.0, 0.0]
        self.passes = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.seconds[generation] += time.perf_counter() - self._started
        self.passes[generation] += 1


def _label(item) -> str:
    fn = getattr(item, "fn", None)
    if fn is None:
        return type(item).__name__
    return getattr(fn, "__qualname__", type(fn).__name__)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    from workloads import make_cell

    cell = make_cell(args.workload, args.seed)
    cell.setup()
    timer = GcTimer()
    gc.callbacks.append(timer)
    begun = time.perf_counter()
    cell.measure()
    window_s = time.perf_counter() - begun
    gc.callbacks.remove(timer)
    items = cell.env.queued()
    by_fn = Counter(_label(item) for item in items)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "window_s": round(window_s, 3),
        "gc_s": round(sum(timer.seconds), 3),
        "gc_gen2_s": round(timer.seconds[2], 3),
        "gc_passes": timer.passes,
        "queued": len(items),
        "queued_by_fn": dict(by_fn.most_common(5)),
        "gc_tracked": len(gc.get_objects()),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
