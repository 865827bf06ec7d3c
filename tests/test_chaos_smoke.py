"""Chaos smoke: one seeded fault schedule per matrix cell.

Every recipe × system cell runs one full chaos cycle — seeded fault
schedule, recorded history, checker verdict — so a regression in any
backend's fault handling fails tier-1 immediately. The failure message
carries the exact replay command line. The full 25-seed explorer lives
in ``test_chaos_explorer.py`` behind ``CHAOS_FULL=1``.

The failover-budget cells ride along: one ``crash_leader`` window per
(zk|ezk) × (zab|raft), asserting that what clients wait out is the
election rather than their own RPC deadline.
"""

from __future__ import annotations

import pytest

from repro.chaos import RECIPES, run_chaos, run_failover_chaos
from repro.zk.server import ZkServer

SYSTEMS = ("zk", "ezk", "ds", "eds")
SMOKE_SEED = 3


@pytest.mark.parametrize("recipe", RECIPES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_chaos_smoke_cell(system, recipe):
    run = run_chaos(system, recipe, SMOKE_SEED)
    assert run.ok, (
        f"{system}/{recipe} seed {SMOKE_SEED}: {run.result.reason}\n"
        f"replay: {run.repro}\n"
        f"schedule:\n{run.schedule.describe()}\n"
        f"nemesis log:\n" + "\n".join(run.nemesis_log)
    )


@pytest.mark.parametrize("system,recipe", [("zk", "counter")])
def test_chaos_smoke_cell_raft(system, recipe):
    """The kernel axis: one ZK-family cell over the Raft backend (the DS
    family runs over PBFT only)."""
    run = run_chaos(system, recipe, SMOKE_SEED, kernel="raft")
    assert run.ok, (
        f"{system}/{recipe} seed {SMOKE_SEED} kernel=raft: "
        f"{run.result.reason}\n"
        f"replay: {run.repro}\n"
        f"schedule:\n{run.schedule.describe()}\n"
        f"nemesis log:\n" + "\n".join(run.nemesis_log)
    )


# ---------------------------------------------------------------------------
# failover budget: the outage clients see is the election, not a timer
# ---------------------------------------------------------------------------


def _failover_message(run):
    return (f"{run.system}/failover seed {run.seed} kernel={run.kernel}: "
            f"{run.result.reason}\nreplay: {run.repro}\n"
            f"nemesis log:\n" + "\n".join(run.nemesis_log))


@pytest.mark.parametrize("kernel", (None, "raft"))
@pytest.mark.parametrize("system", ("zk", "ezk"))
def test_failover_budget_cell(system, kernel):
    """No client call outlasts crash → new established leader by more
    than a backoff step, and the history/session checkers stay clean."""
    run = run_failover_chaos(system, SMOKE_SEED, kernel=kernel)
    assert run.ok, _failover_message(run)


@pytest.mark.parametrize("kernel", (None, "raft"))
def test_failover_budget_catches_the_rpc_deadline(kernel, monkeypatch):
    """Teeth: with re-routing off, stranded forwards wait out the
    client's 3 s deadline again and the budget must say so."""
    monkeypatch.setattr(ZkServer, "_reroute_stranded", lambda self: None)
    run = run_failover_chaos("zk", SMOKE_SEED, kernel=kernel)
    assert not run.ok and "failover budget" in run.result.reason, \
        _failover_message(run)
