"""Deterministic fault-schedule harness + history checkers.

The chaos harness closes the loop the benchmarks leave open: the
paper's extensions claim the *same* coordination semantics as the
traditional recipes, so this package injects seeded fault schedules
(crashes, partitions, message drop/delay bursts) into running
ensembles while recording every client operation, then checks the
histories — Wing & Gong linearizability for small ones, linear-time
recipe invariants for large ones. Every run is replayable from its
``(system, recipe, seed)`` triple alone::

    PYTHONPATH=src python -m repro.chaos --system ezk --recipe queue --seed 17
"""

from .checker import (CheckResult, CounterModel, RegisterModel,
                      check_barrier_history, check_counter_history,
                      check_election_history, check_lease_reads,
                      check_linearizable, check_queue_history,
                      check_session_log)
from .explorer import RECIPES, ChaosRun, repro_line, run_chaos
from .failover import FAILOVER_SCENARIO, run_failover_chaos
from .history import History, HistoryEvent, OpRecord, RecordingCoord
from .nemesis import Nemesis
from .schedule import (FaultAction, Schedule, random_schedule,
                       random_storm_schedule)
from .storms import SESSION_SCENARIOS, run_session_chaos

__all__ = [
    "CheckResult",
    "RegisterModel",
    "CounterModel",
    "check_linearizable",
    "check_counter_history",
    "check_queue_history",
    "check_barrier_history",
    "check_election_history",
    "History",
    "HistoryEvent",
    "OpRecord",
    "RecordingCoord",
    "Nemesis",
    "FaultAction",
    "Schedule",
    "random_schedule",
    "random_storm_schedule",
    "RECIPES",
    "SESSION_SCENARIOS",
    "ChaosRun",
    "run_chaos",
    "run_session_chaos",
    "FAILOVER_SCENARIO",
    "run_failover_chaos",
    "check_session_log",
    "check_lease_reads",
    "repro_line",
]
