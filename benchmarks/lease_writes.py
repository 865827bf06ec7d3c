"""Write and read latency of the ledger's ``ezk_zipf_open`` workload, per seed.

``ezk_zipf_open`` (``benchmarks/ledger/workloads.py``) mixes 95% Zipf
reads, most of them served from lease caches, with 5% writes to
uniform keys. Its ``sim_p99_ms`` is set by the writes, and a write to a
leased key waits for the revocation of every lease on it. This script
splits the workload's latency by operation kind, so a change to the
lease protocol shows up where it acts.

For each seed it runs the workload once (the ledger holds simulated
numbers identical from run to run) and prints a Markdown row:

* write quantiles p10/p50/p90/p99 and the maximum;
* read p50/p99 and the maximum;
* the ledger's ``sim_p99_ms`` and how many of the ops at or above it
  are writes.

Latency here runs from the call to its reply. The ledger's runs from
the op's due time, which adds the backlog wait (at most one op deep in
this workload).

Usage (from the repository root; the checkout's ``src`` is put on the
path)::

    python3 benchmarks/lease_writes.py                  # seeds 1-3,11,1987
    python3 benchmarks/lease_writes.py --seeds 11,1987
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

from failover_seeds import seed_list  # noqa: E402

WORKLOAD = "ezk_zipf_open"


class TimedCoord:
    """Forwards ``read``/``update`` to a coordination client and records
    each call's latency by kind once it completes after the window
    opens (the ledger's rule for which ops count)."""

    def __init__(self, coord, cell, reads: List[float],
                 writes: List[float]):
        self.coord = coord
        self.cell = cell
        self.reads = reads
        self.writes = writes

    def read(self, path):
        env = self.cell.env
        t0 = env.now
        data = yield from self.coord.read(path)
        if env.now >= self.cell.start:
            self.reads.append(env.now - t0)
        return data

    def update(self, path, data):
        env = self.cell.env
        t0 = env.now
        result = yield from self.coord.update(path, data)
        if env.now >= self.cell.start:
            self.writes.append(env.now - t0)
        return result


def quantile(samples: List[float], p: float) -> float:
    from repro.sim.stats import LatencyRecorder

    recorder = LatencyRecorder()
    recorder.samples = samples
    return recorder.percentile(p)


def row(seed: int) -> str:
    from workloads import make_cell

    cell = make_cell(WORKLOAD, seed)
    reads: List[float] = []
    writes: List[float] = []
    load = cell.load

    def timed_load():
        cell.coords = [TimedCoord(coord, cell, reads, writes)
                       for coord in cell.coords]
        load()

    cell.load = timed_load
    cell.setup()
    cell.measure()
    sim = cell.finish()
    p99 = sim["sim_p99_ms"]
    tail = sum(1 for latency in writes if latency >= p99)
    tail_all = tail + sum(1 for latency in reads if latency >= p99)
    cells = [quantile(writes, p) for p in (10, 50, 90, 99, 100)]
    cells += [quantile(reads, p) for p in (50, 99, 100)]
    return (f"| {seed} | {len(writes)} | "
            + " | ".join(f"{value:.3f}" for value in cells)
            + f" | {p99:.4f} | {tail}/{tail_all} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list,
                        default=seed_list("1-3,11,1987"))
    args = parser.parse_args(argv)
    print(f"{WORKLOAD} (latencies in ms)\n")
    print("| seed | writes | write p10 | write p50 | write p90 | write p99 "
          "| write max | read p50 | read p99 | read max | sim_p99_ms "
          "| writes in tail |")
    print("|---:" * 12 + "|")
    for seed in args.seeds:
        print(row(seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
