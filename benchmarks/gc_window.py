"""Garbage-collector cost and queue retention of one ledger window.

Builds one cell of a ledger workload (``benchmarks/ledger/workloads.py``),
runs its setup, then its measured window with a ``gc.callbacks`` timer
armed, and prints one JSON line:

* ``gc_s`` / ``gc_gen2_s``: wall seconds spent in collections during the
  window (all generations / generation 2 only), and ``gc_passes``;
* ``window_s``: wall seconds of the window, collections included;
* ``queued``: pending event-queue entries at the end of the window,
  split into ``live`` ones and ``dead`` ones, which can only fire as
  no-ops (a cancelled callback, or a timer nothing waits on); each is
  also counted by the function a callback runs (or the event type) in
  ``queued_by_fn`` and ``dead_by_fn``;
* ``traced_mib``: what ``tracemalloc`` traces at the end of the window.
  Tracing runs from before setup, so the wall and collection times
  include its overhead;
* ``retained_b_per_write``: traced bytes the window added, divided by
  the writes committed in it (the growth of the longest replica log,
  or of the highest executed PBFT sequence). What a replica keeps for
  the whole run shows up here as a per-write constant;
* ``gc_tracked``: objects the collector tracks at the end of the window;
* ``sites`` (only with ``--sites N``): the N allocation sites holding
  the most traced bytes at the end of the window, each as
  ``[file:line, MiB, count]``, with files relative to the repository.

``--all`` runs every ledger workload, each in its own process, and
exits 1 if any window ends with a dead entry queued.

Usage (from the repository root; the checkout's ``src`` is put on the
path)::

    python3 benchmarks/gc_window.py --workload ezk_zipf_open --seed 11
    python3 benchmarks/gc_window.py --workload ezk_queue_closed --sites 15
    python3 benchmarks/gc_window.py --all --seed 1987
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import tracemalloc
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


def _dead(item) -> bool:
    from repro.sim import Callback, Timeout
    from repro.sim.events import _noop

    return ((isinstance(item, Callback) and item.fn is _noop)
            or (isinstance(item, Timeout) and not item.callbacks))


def _committed(ensemble) -> int:
    """Writes the ensemble has committed: its longest replica log (ZK
    family) or its highest executed PBFT sequence (DS family)."""
    servers = getattr(ensemble, "servers", None)
    if servers is not None:
        return max(len(server.broadcast.log) for server in servers)
    return max(replica.ordering.exec_seq for replica in ensemble.replicas)


def _sites(snapshot, limit: int) -> list:
    rows = []
    for stat in snapshot.statistics("lineno")[:limit]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        if path.is_relative_to(ROOT):
            path = path.relative_to(ROOT)
        rows.append([f"{path}:{frame.lineno}",
                     round(stat.size / 2**20, 3), stat.count])
    return rows


def window(workload: str, seed: int, sites: int = 0) -> dict:
    from workloads import make_cell

    tracemalloc.start()
    cell = make_cell(workload, seed)
    cell.setup()
    timer = GcTimer()
    traced_at_start, _peak = tracemalloc.get_traced_memory()
    committed_at_start = _committed(cell.ensemble)
    gc.callbacks.append(timer)
    begun = time.perf_counter()
    cell.measure()
    window_s = time.perf_counter() - begun
    gc.callbacks.remove(timer)
    traced, _peak = tracemalloc.get_traced_memory()
    writes = _committed(cell.ensemble) - committed_at_start
    snapshot = tracemalloc.take_snapshot() if sites else None
    tracemalloc.stop()
    items = cell.env.queued()
    dead = [item for item in items if _dead(item)]
    live = Counter(_label(item) for item in items if not _dead(item))
    out = {
        "workload": workload, "seed": seed,
        "window_s": round(window_s, 3),
        "gc_s": round(sum(timer.seconds), 3),
        "gc_gen2_s": round(timer.seconds[2], 3),
        "gc_passes": timer.passes,
        "queued": len(items),
        "live": len(items) - len(dead),
        "dead": len(dead),
        "queued_by_fn": dict(live.most_common(5)),
        "dead_by_fn": dict(Counter(_label(item) for item in dead)
                           .most_common(5)),
        "traced_mib": round(traced / 2**20, 2),
        "retained_b_per_write": (round((traced - traced_at_start) / writes)
                                 if writes else None),
        "gc_tracked": len(gc.get_objects()),
    }
    if snapshot is not None:
        out["sites"] = _sites(snapshot, sites)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true",
                        help="every ledger workload, one process each")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--sites", type=int, default=0, metavar="N",
                        help="list the N allocation sites holding the "
                             "most traced bytes at the window's end")
    args = parser.parse_args(argv)

    if not args.all:
        print(json.dumps(window(args.workload, args.seed, args.sites)))
        return 0

    from workloads import WORKLOADS

    dead = 0
    for workload in WORKLOADS:
        line = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--sites", str(args.sites)],
            check=True, capture_output=True, text=True).stdout.strip()
        print(line, flush=True)
        dead += json.loads(line)["dead"]
    return 1 if dead else 0


if __name__ == "__main__":
    raise SystemExit(main())
