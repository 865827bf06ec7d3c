"""Chaos digests: one hash per chaos cell, recorded as an oracle.

Runs every chaos cell in process for seeds 1-3:

* ``run_chaos`` over every ``RECIPES`` entry, on zk and ezk (zab and
  raft) and on ds and eds (pbft);
* ``run_session_chaos`` over every ``SESSION_SCENARIOS`` entry, on zk
  and ezk (zab and raft);
* ``run_failover_chaos`` on zk and ezk (zab and raft).

It writes one line per cell, ``system recipe seed kernel digest verdict``,
to ``benchmarks/results/chaos_digests.txt``. The digest is the first 16
hex digits of the SHA-256 of the schedule, the nemesis log, the
canonical history and the verdict, so a change that claims to leave the
simulated behaviour alone must leave the file byte-identical (CI checks
it with ``git diff --exit-code``). Exits 1 if any cell fails.

Usage (from the repository root; the checkout's ``src`` is put on the
path; about 5 s on a 2-vCPU x86-64 host)::

    python3 benchmarks/chaos_digests.py
"""

from __future__ import annotations

import hashlib
import sys
from functools import partial
from pathlib import Path
from typing import Iterator, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "benchmarks" / "results" / "chaos_digests.txt"
SEEDS = (1, 2, 3)


def cells(seed: int) -> Iterator[Tuple[str, str, str, object]]:
    """``(system, recipe, kernel, run)`` for every cell of ``seed``."""
    from repro.bench.systems import KERNELS, SYSTEMS
    from repro.chaos import (FAILOVER_SCENARIO, RECIPES, SESSION_SCENARIOS,
                             run_chaos, run_failover_chaos, run_session_chaos)

    def kernel_arg(system: str, kernel: str):
        # The family default runs as None, exactly as a repro line does.
        return None if kernel == KERNELS[system][0] else kernel

    for system in SYSTEMS:
        for kernel in KERNELS[system]:
            arg = kernel_arg(system, kernel)
            for recipe in RECIPES:
                yield (system, recipe, kernel,
                       partial(run_chaos, system, recipe, seed, kernel=arg))
    for system in ("zk", "ezk"):
        for kernel in KERNELS[system]:
            arg = kernel_arg(system, kernel)
            for scenario in SESSION_SCENARIOS:
                yield (system, scenario, kernel,
                       partial(run_session_chaos, system, scenario, seed,
                               kernel=arg))
            yield (system, FAILOVER_SCENARIO, kernel,
                   partial(run_failover_chaos, system, seed, kernel=arg))


def digest(run) -> str:
    verdict = "PASS" if run.ok else f"FAIL: {run.result.reason}"
    text = "\n".join([run.schedule.describe(), "-- nemesis --",
                      *run.nemesis_log, "-- history --",
                      run.history.canonical(), "-- verdict --", verdict])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main() -> int:
    lines, failed = [], 0
    for seed in SEEDS:
        for system, recipe, kernel, run_cell in cells(seed):
            run = run_cell()
            failed += not run.ok
            lines.append(f"{system} {recipe} {seed} {kernel} {digest(run)} "
                         f"{'PASS' if run.ok else 'FAIL'}")
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} cells, {failed} failed -> {OUT}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
