"""Failover timings per seed: the ledger's Raft failover workload and the
chaos ``failover`` cell over both ZooKeeper kernels.

Prints two Markdown tables:

* ``zk_raft_failover_open`` (``benchmarks/ledger/workloads.py``), one
  run per seed with the observability plane on, which the ledger holds
  sim-identical to a plain run: ``failover_ms`` (crash until another
  replica is the established leader), ``max_stall_ms`` (longest gap
  between completions in the window) and ``sim_p99_ms``;
* the chaos ``failover`` cell (``src/repro/chaos/failover.py``) over zab
  and raft: ``election_ms`` (crash until a new established leader) and
  the slowest single client call.

Usage (from the repository root; the checkout's ``src`` is put on the
path)::

    python3 benchmarks/failover_seeds.py      # ledger 1-3,11-21,1987; chaos 1-10
    python3 benchmarks/failover_seeds.py --ledger-seeds 11,1987 --chaos-seeds 1-3
    python3 benchmarks/failover_seeds.py --ledger-seeds "" # chaos table only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

WORKLOAD = "zk_raft_failover_open"


def seed_list(text: str) -> List[int]:
    """``"1-3,11"`` -> ``[1, 2, 3, 11]``; ``""`` skips that table."""
    seeds: List[int] = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def ledger_row(seed: int) -> str:
    from repro.obs import ObsConfig
    from workloads import make_cell

    cell = make_cell(WORKLOAD, seed, obs=ObsConfig())
    cell.setup()
    cell.measure()
    sim = cell.finish()
    return (f"| {seed} | {sim['failover_ms']:.0f} | {sim['max_stall_ms']:.2f} "
            f"| {sim['sim_p99_ms']:.2f} |")


def chaos_row(seed: int) -> str:
    from repro.chaos import run_failover_chaos

    cells = []
    for kernel in (None, "raft"):
        run = run_failover_chaos("zk", seed, kernel=kernel)
        measures = run.measures
        cells.append(f"{measures.get('election_ms', float('nan')):.0f} "
                     f"| {measures['slowest_call_ms']:.0f} "
                     f"| {'ok' if run.ok else 'FAIL'}")
    return f"| {seed} | " + " | ".join(cells) + " |"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger-seeds", type=seed_list,
                        default=seed_list("1-3,11-21,1987"))
    parser.add_argument("--chaos-seeds", type=seed_list,
                        default=seed_list("1-10"))
    args = parser.parse_args(argv)

    if args.ledger_seeds:
        print(f"{WORKLOAD}\n")
        print("| seed | failover_ms | max_stall_ms | sim_p99_ms |")
        print("|---:|---:|---:|---:|")
        for seed in args.ledger_seeds:
            print(ledger_row(seed), flush=True)
    if args.chaos_seeds:
        print("\nchaos failover, system zk (times in ms)\n")
        print("| seed | zab election | zab slowest call | zab verdict "
              "| raft election | raft slowest call | raft verdict |")
        print("|---:|---:|---:|:---|---:|---:|:---|")
        for seed in args.chaos_seeds:
            print(chaos_row(seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
