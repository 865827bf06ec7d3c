"""Declarative fault schedules: the grammar the nemesis executes.

A :class:`Schedule` is a sorted list of :class:`FaultAction` items plus
a quiesce time at which every outstanding fault is healed. Schedules
are pure data — deterministic to build, trivial to print, and
replayable: :func:`random_schedule` derives everything from a string-
seeded RNG, so the same seed always yields byte-identical faults.

Action kinds (``target`` picks the victim; durations are self-healing
windows):

==================  =====================================================
``crash_leader``    crash the current leader/primary, restart after
                    ``duration_ms``
``crash_follower``  same for a non-leader voter (rotates per schedule)
``partition_leader``  isolate the leader from all other replicas
``partition_follower``  isolate one follower
``partition_oneway``  asymmetric: follower hears the others, its own
                    messages are dropped
``drop_burst``      drop replication messages with ``probability``
``delay_burst``     add ``extra_ms`` to replication message latency
``kill_client``     abrupt client death (session-expiry paths); never
                    generated randomly, only in hand-written schedules
``session_storm``   spawn ``count`` short-lived sessions over the
                    window (half close gracefully, half go silent and
                    probe the expiry fence); zk family only
``watch_storm``     spawn ``count`` watchers of one hot path plus a
                    writer hammering it over the window; zk family only
``lease_storm``     spawn ``count`` lease-caching readers of one hot
                    path plus writers mutating it over the window,
                    recording (ack, read) observations for the
                    stale-read checker; zk family only
==================  =====================================================
"""

from __future__ import annotations

import dataclasses
import random
from typing import Tuple

__all__ = ["FaultAction", "Schedule", "random_schedule",
           "random_storm_schedule"]

#: storm kinds carry a client ``count`` and may overlap a classic fault.
STORM_KINDS = ("session_storm", "watch_storm", "lease_storm")


@dataclasses.dataclass(frozen=True)
class FaultAction:
    at_ms: float
    kind: str
    target: str = ""            # node id for kill_client; else advisory
    duration_ms: float = 0.0    # fault window; 0 = permanent until quiesce
    probability: float = 1.0    # drop_burst
    extra_ms: float = 0.0       # delay_burst
    count: int = 0              # storm kinds: clients to spawn

    def describe(self) -> str:
        parts = [f"t={self.at_ms:g}ms {self.kind}"]
        if self.target:
            parts.append(f"target={self.target}")
        if self.duration_ms:
            parts.append(f"for={self.duration_ms:g}ms")
        if self.kind == "drop_burst":
            parts.append(f"p={self.probability:g}")
        if self.kind == "delay_burst":
            parts.append(f"+{self.extra_ms:g}ms")
        if self.kind in STORM_KINDS:
            parts.append(f"n={self.count}")
        return " ".join(parts)


@dataclasses.dataclass(frozen=True)
class Schedule:
    actions: Tuple[FaultAction, ...]
    quiesce_ms: float

    def describe(self) -> str:
        lines = [action.describe() for action in self.actions]
        lines.append(f"t={self.quiesce_ms:g}ms quiesce (heal everything)")
        return "\n".join(lines)


def random_schedule(seed: int) -> Schedule:
    """1–3 serialized fault windows drawn from a string-seeded RNG.

    Windows never overlap (each action's window closes before the next
    opens), so a single fault domain is stressed at a time while the
    service still sees crash→partition→burst compositions across the
    run. Times are rounded to µs so ``describe()`` output is stable.
    """
    rng = random.Random(f"chaos-schedule-{seed}")
    kinds = ("crash_leader", "crash_follower", "partition_leader",
             "partition_follower", "partition_oneway", "drop_burst",
             "delay_burst")
    n_actions = rng.randint(1, 3)
    actions = []
    t = rng.uniform(150.0, 500.0)
    for _ in range(n_actions):
        kind = rng.choice(kinds)
        duration = rng.uniform(400.0, 1600.0)
        action = FaultAction(
            at_ms=round(t, 3),
            kind=kind,
            duration_ms=round(duration, 3),
            probability=round(rng.uniform(0.05, 0.25), 3),
            extra_ms=round(rng.uniform(5.0, 40.0), 3),
        )
        actions.append(action)
        t += duration + rng.uniform(400.0, 1200.0)
    return Schedule(tuple(actions), quiesce_ms=round(t + 500.0, 3))


def random_storm_schedule(seed: int, scenario: str) -> Schedule:
    """1–2 storm windows, most overlapped by one classic fault each.

    ``scenario`` is ``"churn"`` (session storms: connect/expire churn),
    ``"watch_storm"`` (watch fan-out storms) or ``"lease_storm"``
    (lease-caching readers racing writers). Storm windows stay
    serialized with each other; the optional classic fault fires
    *inside* its storm window (starting in the first half, ending by
    the window's close), because reconnect/fencing under a concurrently
    crashing or partitioned ensemble is exactly what the session
    machinery must survive. Seeded independently of
    :func:`random_schedule` so existing schedules stay byte-identical.
    """
    if scenario == "churn":
        storm_kind, lo, hi = "session_storm", 4, 10
    elif scenario == "watch_storm":
        storm_kind, lo, hi = "watch_storm", 5, 12
    elif scenario == "lease_storm":
        storm_kind, lo, hi = "lease_storm", 4, 10
    else:
        raise ValueError(f"unknown storm scenario {scenario!r}")
    rng = random.Random(f"chaos-storm-{scenario}-{seed}")
    classic = ("crash_leader", "crash_follower", "partition_leader",
               "partition_follower", "partition_oneway", "drop_burst",
               "delay_burst")
    actions = []
    t = rng.uniform(150.0, 500.0)
    for _ in range(rng.randint(1, 2)):
        duration = rng.uniform(600.0, 1500.0)
        actions.append(FaultAction(
            at_ms=round(t, 3), kind=storm_kind,
            duration_ms=round(duration, 3), count=rng.randint(lo, hi)))
        if rng.random() < 0.7:
            fault_at = t + rng.uniform(0.0, duration / 2.0)
            fault_len = rng.uniform(200.0, duration / 2.0)
            actions.append(FaultAction(
                at_ms=round(fault_at, 3), kind=rng.choice(classic),
                duration_ms=round(fault_len, 3),
                probability=round(rng.uniform(0.05, 0.25), 3),
                extra_ms=round(rng.uniform(5.0, 40.0), 3)))
        t += duration + rng.uniform(400.0, 900.0)
    actions.sort(key=lambda a: a.at_ms)
    return Schedule(tuple(actions), quiesce_ms=round(t + 500.0, 3))
