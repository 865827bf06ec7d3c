"""Full schedule exploration: 4 recipes × 4 systems × 25 seeded schedules.

Opt-in (minutes of CPU): ``CHAOS_FULL=1 PYTHONPATH=src python -m pytest
tests/test_chaos_explorer.py -m slow -q``. Every failing cell prints
its replay command line; re-run it verbatim to reproduce the failure::

    PYTHONPATH=src python -m repro.chaos --system ezk --recipe queue --seed 17
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import RECIPES, run_chaos

SYSTEMS = ("zk", "ezk", "ds", "eds")
SEEDS = range(1, 26)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(os.environ.get("CHAOS_FULL") != "1",
                       reason="set CHAOS_FULL=1 to run the full "
                              "25-seed schedule explorer"),
]


@pytest.mark.parametrize("recipe", RECIPES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_explore_cell_over_seeds(system, recipe):
    failures = []
    for seed in SEEDS:
        run = run_chaos(system, recipe, seed)
        if not run.ok:
            failures.append(f"seed {seed}: {run.result.reason}\n"
                            f"  replay: {run.repro}")
    assert not failures, (
        f"{system}/{recipe}: {len(failures)}/{len(list(SEEDS))} "
        "seeded schedules failed\n" + "\n".join(failures)
    )


@pytest.mark.parametrize("recipe", RECIPES)
@pytest.mark.parametrize("system", ("zk",))
def test_explore_cell_over_seeds_raft(system, recipe):
    """The kernel axis: the same schedules over the Raft backend.

    With the default-kernel matrix above, this completes the kernel
    coverage: zk over {zab, raft}, ds over pbft (its one kernel)."""
    failures = []
    for seed in SEEDS:
        run = run_chaos(system, recipe, seed, kernel="raft")
        if not run.ok:
            failures.append(f"seed {seed}: {run.result.reason}\n"
                            f"  replay: {run.repro}")
    assert not failures, (
        f"{system}/{recipe} kernel=raft: {len(failures)}/"
        f"{len(list(SEEDS))} seeded schedules failed\n"
        + "\n".join(failures)
    )
