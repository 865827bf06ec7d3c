"""Failover budget (zk family): clients wait out the election, no more.

When a leader dies, the writes its followers had in flight to it are
lost with it. The followers re-route them the moment a new leader is
established (``ZkServer._reroute_stranded``), so the outage clients see
is bounded by failure detection + election — never by a client-side
timer such as the 3 s RPC deadline. This cell pins that bound: shared-
counter increments run against one ``crash_leader`` window while a probe
times crash → new established leader, and the verdict is

* the counter history checker (no lost or doubled increment),
* the committed-log session checker, and
* **slowest single client call ≤ measured election time + one client
  backoff step + the slowest call the same run saw before the fault**.

Replayable like every other cell::

    PYTHONPATH=src python -m repro.chaos --system ezk --recipe failover --seed 3
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.retry import ZK_RETRY_POLICY
from .checker import CheckResult
from .explorer import ChaosRun, repro_line, run_chaos
from .history import History
from .nemesis import Nemesis
from .schedule import FaultAction, Schedule
from .storms import check_committed_sessions

__all__ = ["FAILOVER_SCENARIO", "run_failover_chaos"]

#: accepted as a ``--recipe`` value by ``repro.chaos``.
FAILOVER_SCENARIO = "failover"

_CRASH_AT_MS = 400.0
_SCHEDULE = Schedule(
    (FaultAction(at_ms=_CRASH_AT_MS, kind="crash_leader",
                 duration_ms=1200.0),),
    quiesce_ms=2100.0)
#: increments per client: one every ~40 ms, so each client has a write
#: in flight to the dead leader before its follower notices the crash.
_OPS_PER_CLIENT = 65
#: history entries that wrap a whole recipe operation, not one call.
_RECIPE_MARKS = ("inc", "final-read")


def run_failover_chaos(system: str, seed: int, kernel: Optional[str] = None,
                       obs=None) -> ChaosRun:
    """One failover-budget cell; see the module docstring."""
    if system not in ("zk", "ezk"):
        raise ValueError(f"the failover budget covers the zk family, "
                         f"not {system!r}")
    ensembles, elections = [], []

    def timing_nemesis(ensemble, schedule, clients=None):
        """The stock nemesis, plus a probe timing crash -> new leader."""
        env = ensemble.env

        def time_election():
            victim = ensemble.leader
            yield env.timeout(_CRASH_AT_MS - env.now)
            while ensemble.leader in (None, victim):
                yield env.timeout(1.0)
            elections.append(env.now - _CRASH_AT_MS)

        ensembles.append(ensemble)
        env.process(time_election())
        return Nemesis(ensemble, schedule, clients=clients)

    run = run_chaos(system, "counter", seed, ops_per_client=_OPS_PER_CLIENT,
                    rounds=0, schedule=_SCHEDULE, nemesis_cls=timing_nemesis,
                    kernel=kernel, obs=obs)
    result = run.result
    if result.ok:
        result = check_committed_sessions(ensembles[0])
    if result.ok:
        result = _check_budget(run.history, elections)
    return dataclasses.replace(
        run, recipe=FAILOVER_SCENARIO, result=result,
        repro=repro_line(system, FAILOVER_SCENARIO, seed, kernel=kernel))


def _check_budget(history: History, elections: list) -> CheckResult:
    if not elections:
        return CheckResult(False, "failover budget: no new leader was "
                                  "ever established")
    # Single client calls only: a recipe-level increment may loop over
    # several of them (a lost cas race is contention, not outage).
    calls = [op for op in history.ops()
             if op.op not in _RECIPE_MARKS and op.return_time is not None]
    steady = max((op.return_time - op.invoke_time for op in calls
                  if op.return_time < _CRASH_AT_MS), default=0.0)
    stall = max(op.return_time - op.invoke_time for op in calls)
    budget = elections[0] + ZK_RETRY_POLICY.base_ms + steady
    if stall > budget:
        return CheckResult(
            False, f"failover budget: a client call took {stall:.0f} ms; "
                   f"the election took {elections[0]:.0f} ms "
                   f"(+{ZK_RETRY_POLICY.base_ms:g} ms backoff step, "
                   f"+{steady:.0f} ms worst fault-free call)")
    return CheckResult(True)
