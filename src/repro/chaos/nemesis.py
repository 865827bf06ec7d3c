"""The nemesis: applies a fault schedule to a running ensemble.

One driver covers both service families through small adapters that
answer three questions — who are the replicas, who currently leads,
and which message types carry replication traffic. Every action is
self-healing (its window closes before the next opens, by schedule
construction) and the quiesce step restores full health: every crashed
node restarts, partitions heal, and traffic rules clear, so the
post-run checkers observe a converged system.

Determinism: the nemesis introduces no randomness of its own. Victim
selection is a deterministic function of the schedule (followers
rotate in id order), and drop bursts draw from the *network's* seeded
RNG, so a (seed, schedule) pair replays byte-identically.
"""

from __future__ import annotations

from typing import List, Optional

from ..depspace import DsEnsemble
from ..zk import ZkEnsemble
from .schedule import FaultAction, Schedule

__all__ = ["Nemesis"]


class _ZkAdapter:
    """ZooKeeper family: voters lead; observers are never crashed (the
    harness crashes voters to exercise elections; observer faults are
    covered by partitions, which pick from all nodes)."""

    #: payload classes carrying replication traffic (drop/delay bursts),
    #: per consensus kernel. For Raft, AppendEntries doubles as
    #: heartbeat/backfill and InstallSnapshot as the full-sync analog.
    _MSG_TYPES = {
        "zab": ("Proposal", "Commit", "Heartbeat", "NewLeader"),
        "raft": ("AppendEntries", "InstallSnapshot"),
    }

    def __init__(self, ensemble: ZkEnsemble):
        self.ensemble = ensemble
        kernel = getattr(ensemble.config, "kernel", "zab")
        self.replication_msg_types = self._MSG_TYPES[kernel]

    @property
    def voter_ids(self) -> List[str]:
        return list(self.ensemble.replica_ids)

    @property
    def node_ids(self) -> List[str]:
        return list(self.ensemble.all_ids)

    def leader_id(self) -> str:
        leader = self.ensemble.leader
        if leader is not None:
            return leader.node_id
        # Mid-election: treat the first live voter as the victim — it
        # is the likeliest next winner and keeps selection deterministic.
        for node_id in self.ensemble.replica_ids:
            if self.ensemble.server(node_id)._alive:
                return node_id
        return self.ensemble.replica_ids[0]

    def crash(self, node_id: str) -> None:
        self.ensemble.server(node_id).crash()

    def recover(self, node_id: str) -> None:
        self.ensemble.server(node_id).recover()

    def is_alive(self, node_id: str) -> bool:
        return self.ensemble.server(node_id)._alive


class _DsAdapter:
    """DepSpace family: all 3f+1 replicas vote; the primary 'leads'."""

    replication_msg_types = ("PrePrepare", "Prepare", "Commit")

    def __init__(self, ensemble: DsEnsemble):
        self.ensemble = ensemble

    @property
    def voter_ids(self) -> List[str]:
        return list(self.ensemble.replica_ids)

    @property
    def node_ids(self) -> List[str]:
        return list(self.ensemble.replica_ids)

    def leader_id(self) -> str:
        return self.ensemble.primary.node_id

    def crash(self, node_id: str) -> None:
        self.ensemble.replica(node_id).crash()

    def recover(self, node_id: str) -> None:
        self.ensemble.replica(node_id).recover()

    def is_alive(self, node_id: str) -> bool:
        return self.ensemble.replica(node_id)._alive


class Nemesis:
    """Executes a :class:`~repro.chaos.schedule.Schedule` at sim time.

    ``clients`` (raw client objects with a ``kill()`` method) are only
    needed for ``kill_client`` actions.
    """

    def __init__(self, ensemble, schedule: Schedule,
                 clients: Optional[list] = None):
        if isinstance(ensemble, ZkEnsemble):
            self.adapter = _ZkAdapter(ensemble)
        elif isinstance(ensemble, DsEnsemble):
            self.adapter = _DsAdapter(ensemble)
        else:
            raise TypeError(f"unsupported ensemble {type(ensemble)!r}")
        self.ensemble = ensemble
        self.env = ensemble.env
        self.net = ensemble.net
        self.schedule = schedule
        self.clients = list(clients or [])
        #: human-readable record of what was actually done (repro aid).
        self.log: List[str] = []
        self._follower_rotation = 0
        self._active_rules: List[int] = []
        #: storm bookkeeping: spawned client processes (the driver
        #: awaits them before settling) and counters the session
        #: checkers consume (see repro.chaos.storms).
        self.storm_procs: List[object] = []
        self.storm_stats: dict = {
            "churn_connects": 0, "churn_closed": 0, "churn_abandoned": 0,
            "zombie_fenced": 0, "zombie_applied": 0, "zombie_lost": 0,
            "watch_notifications": 0, "watchers_served": 0,
            "lease_reads": 0, "lease_writes": 0, "lease_cache_hits": 0,
            "lease_events": [], "lease_ext_acks": [],
        }
        self._storm_index = 0

    def start(self) -> None:
        """Arm every schedule action plus the final quiesce."""
        for action in self.schedule.actions:
            self.env.defer(max(0.0, action.at_ms - self.env.now),
                           self._fire, action)
        self.env.defer(max(0.0, self.schedule.quiesce_ms - self.env.now),
                       self._quiesce)

    # -- victim selection --------------------------------------------------

    def _pick_follower(self) -> str:
        """Deterministic rotation over live non-leader voters."""
        leader = self.adapter.leader_id()
        voters = [v for v in self.adapter.voter_ids if v != leader]
        candidates = [v for v in voters if self.adapter.is_alive(v)] or voters
        victim = candidates[self._follower_rotation % len(candidates)]
        self._follower_rotation += 1
        return victim

    def _note(self, text: str) -> None:
        self.log.append(f"t={self.env.now:g}ms {text}")

    # -- action execution --------------------------------------------------

    def _fire(self, action: FaultAction) -> None:
        handler = getattr(self, f"_do_{action.kind}", None)
        if handler is None:
            raise ValueError(f"unknown fault kind {action.kind!r}")
        handler(action)

    def _crash(self, node_id: str, duration_ms: float) -> None:
        # Quorum preservation: never hold two voters down at once. The
        # schedule serializes windows, but a restart callback may still
        # be pending when the next crash fires right at a boundary.
        for other in self.adapter.voter_ids:
            if other != node_id and not self.adapter.is_alive(other):
                self.adapter.recover(other)
                self._note(f"recover {other} (quorum guard)")
        if not self.adapter.is_alive(node_id):
            return
        self.adapter.crash(node_id)
        self._note(f"crash {node_id}")
        if duration_ms > 0:
            self.env.defer(duration_ms, self._restart, node_id)

    def _restart(self, node_id: str) -> None:
        if not self.adapter.is_alive(node_id):
            self.adapter.recover(node_id)
            self._note(f"restart {node_id}")

    def _do_crash_leader(self, action: FaultAction) -> None:
        self._crash(self.adapter.leader_id(), action.duration_ms)

    def _do_crash_follower(self, action: FaultAction) -> None:
        self._crash(self._pick_follower(), action.duration_ms)

    def _partition(self, node_id: str, duration_ms: float,
                   oneway: bool) -> None:
        others = [n for n in self.adapter.node_ids if n != node_id]
        if oneway:
            # The victim still hears the cluster; its own messages die.
            self.net.partition_oneway([node_id], others)
            self._note(f"partition-oneway {node_id} -> *")
        else:
            self.net.partition([node_id], others)
            self._note(f"partition {node_id} <-> *")
        if duration_ms > 0:
            self.env.defer(duration_ms, self._heal)

    def _heal(self) -> None:
        self.net.heal()
        self._note("heal")

    def _do_partition_leader(self, action: FaultAction) -> None:
        self._partition(self.adapter.leader_id(), action.duration_ms,
                        oneway=False)

    def _do_partition_follower(self, action: FaultAction) -> None:
        self._partition(self._pick_follower(), action.duration_ms,
                        oneway=False)

    def _do_partition_oneway(self, action: FaultAction) -> None:
        self._partition(self._pick_follower(), action.duration_ms,
                        oneway=True)

    def _burst(self, action: FaultAction, kind: str) -> None:
        nodes = frozenset(self.adapter.node_ids)
        types = self.adapter.replication_msg_types
        if kind == "drop":
            rule = self.net.add_drop_rule(probability=action.probability,
                                          msg_types=types, src=nodes,
                                          dst=nodes)
            self._note(f"drop-burst p={action.probability:g} on {types}")
        else:
            rule = self.net.add_delay_rule(action.extra_ms, msg_types=types,
                                           src=nodes, dst=nodes)
            self._note(f"delay-burst +{action.extra_ms:g}ms on {types}")
        self._active_rules.append(rule)
        if action.duration_ms > 0:
            self.env.defer(action.duration_ms, self._end_burst, rule)

    def _end_burst(self, rule: int) -> None:
        self.net.remove_rule(rule)
        if rule in self._active_rules:
            self._active_rules.remove(rule)
        self._note("burst over")

    def _do_drop_burst(self, action: FaultAction) -> None:
        self._burst(action, "drop")

    def _do_delay_burst(self, action: FaultAction) -> None:
        self._burst(action, "delay")

    def _do_session_storm(self, action: FaultAction) -> None:
        self._spawn_storm(action, "session")

    def _do_watch_storm(self, action: FaultAction) -> None:
        self._spawn_storm(action, "watch")

    def _do_lease_storm(self, action: FaultAction) -> None:
        self._spawn_storm(action, "lease")

    def _spawn_storm(self, action: FaultAction, flavor: str) -> None:
        # Late import: storms drive Nemesis-run schedules, so the
        # modules reference each other.
        from .storms import (spawn_lease_storm, spawn_session_storm,
                             spawn_watch_storm)
        if not isinstance(self.adapter, _ZkAdapter):
            raise ValueError(f"{action.kind} requires the zk family")
        storm_id = self._storm_index
        self._storm_index += 1
        spawn = {"session": spawn_session_storm,
                 "watch": spawn_watch_storm,
                 "lease": spawn_lease_storm}[flavor]
        self.storm_procs.extend(spawn(self, action, storm_id))
        self._note(f"{action.kind} #{storm_id} n={action.count} "
                   f"for={action.duration_ms:g}ms")

    def _do_kill_client(self, action: FaultAction) -> None:
        for client in self.clients:
            if getattr(client, "node_id", "") == action.target:
                client.kill()
                self._note(f"kill client {action.target}")
                return
        raise ValueError(f"kill_client: no client {action.target!r}")

    # -- quiesce -----------------------------------------------------------

    def _quiesce(self) -> None:
        self.net.heal()
        self.net.clear_rules()
        self._active_rules.clear()
        for node_id in self.adapter.node_ids:
            if not self.adapter.is_alive(node_id):
                self.adapter.recover(node_id)
                self._note(f"restart {node_id} (quiesce)")
        self._note("quiesce")
