"""Zab-like primary-backup atomic broadcast.

A deliberately compact rendition of ZooKeeper's replication protocol
with the properties the paper's evaluation depends on:

* the **leader** turns updates into transactions, assigns them gapless
  zxids ``(epoch << 32) | counter``, and streams one PROPOSAL per
  transaction to followers;
* followers append in FIFO order and ACK; acks are cumulative, so the
  leader commits an entry once a **majority** (itself included) has
  acked up to it, delivers it locally, and broadcasts COMMIT;
* committed entries are delivered **in zxid order, exactly once** at
  every live replica;
* on leader failure, followers elect the reachable replica with the
  highest ``(last_zxid, node_id)`` and the new leader syncs everyone with
  its log; an up-to-date follower resyncing over a SyncRequest receives
  only the log suffix after its last zxid;
* a replica recovering from a crash rejoins by asking the current leader
  for a sync;
* a leader can **hold** a stamp (``hold``/``release``): its commit
  watermark, and every commit point it advertises, stay below the held
  stamp until it is released, while the proposal itself replicates. A
  new leader whose inherited log is held establishes only when the
  release commits it (heartbeating meanwhile);
* **observers** are non-voting learners (ZooKeeper's read-scaling
  replicas): they receive proposals, commits, heartbeats, and leader
  syncs like followers, but they never ack, never vote, and never count
  toward the commit or establishment quorum — adding observers widens
  read capacity without widening the write quorum.

Durable state (log + committed pointer) survives a simulated crash,
modelling an fsync'd transaction log.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..core.broadcast import (AtomicBroadcast, NotLeaderError, detector_wait,
                              make_zxid, zxid_counter, zxid_epoch)
from ..sim import Environment
from .txn import RequestMeta, Txn, TxnRecord

#: Key for bisecting a (zxid-sorted) log by zxid.
_record_zxid = operator.attrgetter("zxid")

# Zxid helpers and NotLeaderError live in repro.core.broadcast now (the
# kernel-neutral home); re-exported here for the historical import path.
__all__ = ["ZabConfig", "ZabPeer", "Role", "NotLeaderError", "make_zxid",
           "zxid_epoch", "zxid_counter"]


class Role(str, Enum):
    LEADER = "LEADER"
    FOLLOWER = "FOLLOWER"
    LOOKING = "LOOKING"


@dataclass
class ZabConfig:
    heartbeat_ms: float = 50.0
    election_timeout_ms: float = 200.0
    election_window_ms: float = 60.0


# -- protocol messages --------------------------------------------------------

@dataclass
class Proposal:
    epoch: int
    record: TxnRecord


@dataclass
class Ack:
    epoch: int
    zxid: int


@dataclass
class Commit:
    epoch: int
    zxid: int


@dataclass
class Heartbeat:
    epoch: int
    leader_id: str
    committed_zxid: int


@dataclass
class Vote:
    term: int
    last_zxid: int
    node_id: str


@dataclass
class CurrentLeader:
    epoch: int
    leader_id: str


@dataclass
class NewLeader:
    """Leader -> follower log sync.

    ``log`` holds the suffix strictly after ``prefix_zxid``; a prefix of
    0 means the full log. Sync replies to a follower whose claimed
    position exists in the leader's log ship only the missing suffix.
    """

    epoch: int
    log: List[TxnRecord]
    committed_zxid: int
    prefix_zxid: int = 0


@dataclass
class NewLeaderAck:
    epoch: int


@dataclass
class SyncRequest:
    last_zxid: int


class ZabPeer(AtomicBroadcast):
    """One replica's endpoint of the broadcast protocol."""

    def __init__(self, env: Environment, node_id: str, peer_ids: List[str],
                 send: Callable[[str, object], None],
                 deliver: Callable[[TxnRecord], None],
                 config: Optional[ZabConfig] = None,
                 observer_ids: Optional[List[str]] = None,
                 is_observer: bool = False,
                 send_many: Optional[
                     Callable[[List[str], object], None]] = None):
        self.env = env
        self.node_id = node_id
        #: voting members other than us (for an observer: all voters).
        self.peer_ids = [p for p in peer_ids if p != node_id]
        self.n = len(peer_ids)
        self.quorum = self.n // 2 + 1
        #: non-voting learners this peer streams to when leading.
        self.observer_ids = [o for o in (observer_ids or []) if o != node_id]
        self._observer_set = frozenset(self.observer_ids)
        self.is_observer = is_observer
        self._send = send
        self._send_many = send_many
        self._deliver = deliver
        self.config = config or ZabConfig()

        self.role = Role.LOOKING
        self.epoch = 0
        self.leader_id: Optional[str] = None
        self.log: List[TxnRecord] = []
        self.committed_zxid = 0
        self._delivered_upto = 0      # index into log, not zxid
        self._counter = 0

        # leader bookkeeping
        self._acked: Dict[str, int] = {}
        #: The values of ``_acked``, kept sorted ascending so the quorum
        #: watermark is one index lookup instead of a sort per ack.
        self._ack_values: List[int] = []
        self._establish_acks: set[str] = set()
        self._established = False
        #: held stamps, sorted: the commit watermark stays below the
        #: first (leader-volatile; a new leadership starts with none).
        self._holds: List[int] = []

        # election bookkeeping
        self._votes: Dict[str, tuple[int, str]] = {}
        self._term = 0
        self._election_pending = False
        self._last_leader_contact = env.now
        #: throttle for heartbeat-driven lag resyncs (see _on_heartbeat).
        self._last_lag_sync = -1.0
        #: True between joining a leader and receiving its NewLeader log
        #: reconciliation. Until then our log suffix is suspect — it may
        #: hold uncommitted proposals from a dead epoch — so delivery is
        #: frozen: advancing the commit pointer over such an entry would
        #: apply (and ack!) a transaction the cluster never committed,
        #: silently diverging this replica's tree.
        self._sync_pending = False
        self._alive = True
        self.on_role_change: Optional[Callable[[], None]] = None
        self.on_elected: Optional[Callable[[], None]] = None

    # -- introspection ---------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self._alive and self.role is Role.LEADER and self._established

    @property
    def leadership_epoch(self) -> int:
        return self.epoch

    @property
    def _learners(self) -> List[str]:
        """Everyone a leader streams to: voting followers + observers."""
        if not self.observer_ids:
            return self.peer_ids
        return self.peer_ids + self.observer_ids

    def _fan_out(self, msg: object) -> None:
        """Send ``msg`` to every learner (voting followers + observers).

        Leader fan-out is the hottest send path in the system (one copy
        per learner per proposal/commit/heartbeat). When the transport
        provides a batched ``send_many`` the payload is sized once for
        the whole fan-out; destinations, ordering, and per-destination
        latency draws are identical to the sequential loop.
        """
        learners = self._learners
        if self._send_many is not None:
            self._send_many(learners, msg)
            return
        for peer in learners:
            self._send(peer, msg)

    # -- bootstrap ---------------------------------------------------------

    def bootstrap(self, leader_id: str) -> None:
        """Establish an initial configuration without running an election."""
        self.epoch = 1
        self._term = 1
        self.leader_id = leader_id
        if leader_id == self.node_id:
            self.role = Role.LEADER
            self._established = True
            self._acked = {self.node_id: 0}
            self._ack_values = [0]
        else:
            self.role = Role.FOLLOWER
        self._last_leader_contact = self.env.now
        self.env.process(self._heartbeat_loop())
        self.env.process(self._failure_detector_loop())

    # -- crash / recovery --------------------------------------------------

    def crash(self) -> None:
        """Stop participating. Log and committed pointer persist (disk)."""
        self._alive = False
        self._holds = []

    def recover(self) -> None:
        """Come back up; rejoin by looking for the current leader."""
        self._alive = True
        self.role = Role.LOOKING
        self.leader_id = None
        self._established = False
        self._last_leader_contact = self.env.now
        # Our log may end in proposals that died with our old epoch
        # (e.g. we led, proposed, crashed before the quorum acked):
        # freeze delivery until a leader reconciles the log.
        self._sync_pending = True
        # Probe for a leader; if none answers, the failure detector will
        # eventually start an election.
        for peer in self.peer_ids:
            self._send(peer, SyncRequest(self.last_zxid))
        self.env.process(self._heartbeat_loop())
        self.env.process(self._failure_detector_loop())

    # -- client of the protocol -----------------------------------------------

    @property
    def next_zxid(self) -> int:
        """The zxid the next :meth:`propose` call will assign (leader only).

        Lets the server stamp speculative state with the real zxid
        before proposing: prep → propose runs in one event, so nothing
        can advance the counter in between.
        """
        return make_zxid(self.epoch, self._counter + 1)

    def propose(self, txn: Txn, meta: Optional[RequestMeta] = None) -> int:
        """Leader-only: append an update to the replicated log.

        The record is logged and self-acked, then sent to every learner
        as one Proposal.
        """
        if not self.is_leader:
            raise NotLeaderError(self.node_id)
        self._counter += 1
        zxid = make_zxid(self.epoch, self._counter)
        record = TxnRecord(zxid=zxid, txn=txn, meta=meta)
        self._mark_held(record)
        self.log.append(record)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("zab.proposals", self.node_id)
        self._ack_update(self.node_id, zxid)
        self._fan_out(Proposal(self.epoch, record))
        self._advance_commit()
        return zxid

    def _below_holds(self, zxid: int) -> int:
        """``zxid``, or the last logged stamp below the first hold."""
        holds = self._holds
        if not holds or zxid < holds[0]:
            return zxid
        idx = bisect_left(self.log, holds[0], key=_record_zxid)
        return self.log[idx - 1].zxid if idx else 0

    # -- message dispatch ------------------------------------------------------

    def handle(self, src: str, msg: object) -> bool:
        """Process a protocol message; returns False if not a Zab message."""
        if not self._alive:
            return True           # a crashed peer swallows everything
        handler = _HANDLERS.get(msg.__class__)
        if handler is None:
            return False
        handler(self, src, msg)
        return True

    # -- replication ---------------------------------------------------------

    def _on_proposal(self, src: str, msg: Proposal) -> None:
        if msg.epoch < self.epoch or self.role is not Role.FOLLOWER:
            return
        if src != self.leader_id:
            return
        if self._sync_pending:
            # Unreconciled log suffix: appending (and acking!) on top of
            # it would bury a dead-epoch entry mid-log, where the sync's
            # last-zxid prefix check cannot see it. The pending
            # NewLeader reply carries these entries anyway.
            return
        record = msg.record
        zxid = record.zxid
        log = self.log
        last = log[-1].zxid if log else 0
        # FIFO channels make proposals arrive in order within an epoch.
        if log and zxid <= last:
            return  # duplicate
        epoch = zxid >> 32                     # zxid_epoch, inlined
        if last >> 32 == epoch:
            expected = last + 1
        else:
            expected = make_zxid(epoch, 1)
        if zxid != expected:
            # We missed something (e.g. a healed partition): resync.
            self._send(src, SyncRequest(last))
            return
        log.append(record)
        if not self.is_observer:
            self._send(src, Ack(self.epoch, zxid))

    def _on_ack(self, src: str, msg: Ack) -> None:
        if self.role is not Role.LEADER or msg.epoch != self.epoch:
            return
        if src in self._observer_set:
            return  # observers never count toward the commit quorum
        if self._ack_update(src, msg.zxid):
            self._advance_commit()

    def _ack_update(self, node: str, zxid: int) -> bool:
        """Record ``node`` has acked up to ``zxid``; True if it advanced."""
        previous = self._acked.get(node)
        if previous is not None:
            if zxid <= previous:
                return False
            del self._ack_values[bisect_left(self._ack_values, previous)]
        self._acked[node] = zxid
        insort(self._ack_values, zxid)
        return True

    def _advance_commit(self) -> None:
        if not self.is_leader:
            if self._synced() and not self._established:
                # A release lifted the hold on the inherited suffix.
                self._finish_establishment()
            return
        values = self._ack_values
        if len(values) < self.quorum:
            return
        # The quorum watermark: the highest zxid acked by >= quorum nodes,
        # kept below any held stamp.
        candidate = values[len(values) - self.quorum]
        if self._holds:
            candidate = self._below_holds(candidate)
        if candidate <= self.committed_zxid:
            return
        # Only commit entries from the current epoch directly (older entries
        # are committed transitively, as in Raft/Zab).
        if zxid_epoch(candidate) != self.epoch:
            return
        self.committed_zxid = candidate
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("zab.commits", self.node_id)
        self._deliver_committed()
        self._fan_out(Commit(self.epoch, candidate))

    def _on_commit(self, src: str, msg: Commit) -> None:
        if self.role is not Role.FOLLOWER or src != self.leader_id:
            return
        if msg.zxid > self.committed_zxid:
            self.committed_zxid = msg.zxid
            self._deliver_committed()

    def _deliver_committed(self) -> None:
        if self._sync_pending:
            return  # log suffix unreconciled; see _sync_pending above
        delivered = 0
        while (self._delivered_upto < len(self.log)
               and self.log[self._delivered_upto].zxid <= self.committed_zxid):
            record = self.log[self._delivered_upto]
            self._delivered_upto += 1
            delivered += 1
            self._deliver(record)
        if delivered:
            obs = self.env.obs
            if obs is not None:
                obs.metrics.inc("zab.deliveries", self.node_id, delivered)

    # -- liveness ----------------------------------------------------------

    def _heartbeat_loop(self):
        while self._alive:
            # A synced leader beats even while a held inherited suffix
            # keeps it unestablished, so followers do not suspect it.
            if self.is_leader or self._synced():
                beat = Heartbeat(self.epoch, self.node_id, self.committed_zxid)
                self._fan_out(beat)
            yield self.env.timeout(self.config.heartbeat_ms)

    def _failure_detector_loop(self):
        """Suspect the leader at last contact + election timeout
        (``detector_wait``); a leader or observer only ticks."""
        heartbeat = self.config.heartbeat_ms
        while self._alive:
            contact = self._last_leader_contact
            wait, due = detector_wait(self.env.now, contact,
                                      self.config.election_timeout_ms,
                                      heartbeat)
            if self.role is Role.LEADER or self.is_observer:
                wait = heartbeat
            yield self.env.timeout(wait)
            if self.role is Role.LEADER or self.is_observer:
                continue
            if (due and not self._election_pending
                    and self._last_leader_contact == contact):
                obs = self.env.obs
                if obs is not None:
                    obs.metrics.observe("zab.leader_silence_ms", self.node_id,
                                        self.env.now - contact)
                self._start_election()

    def _on_heartbeat(self, src: str, msg: Heartbeat) -> None:
        if msg.epoch < self.epoch:
            return
        if msg.epoch > self.epoch or self.role is Role.LOOKING:
            # A leader exists that we did not know about: join it. Our
            # log may end in proposals from a dead epoch (we were the
            # deposed leader, or followed one): until this leader's
            # NewLeader reply reconciles the log, delivering anything is
            # unsafe — the heartbeat's committed_zxid covers *its*
            # history, not our divergent suffix.
            self.epoch = msg.epoch
            self._term = max(self._term, msg.epoch)
            self.leader_id = msg.leader_id
            self.role = Role.FOLLOWER
            self._sync_pending = True
            self._last_lag_sync = self.env.now
            self._send(src, SyncRequest(self.last_zxid))
        self._last_leader_contact = self.env.now
        if self.role is not Role.FOLLOWER or src != self.leader_id:
            return
        if self._sync_pending:
            # Reconciliation in flight: re-request it at heartbeat pace
            # (the previous SyncRequest or its reply may have been lost;
            # without a retry a single drop would freeze this replica).
            now = self.env.now
            if now - self._last_lag_sync >= self.config.heartbeat_ms:
                self._last_lag_sync = now
                self._send(src, SyncRequest(self.last_zxid))
            return
        if msg.committed_zxid > self.committed_zxid:
            # Commit catch-up: only up to what we actually hold.
            self.committed_zxid = min(msg.committed_zxid, self.last_zxid)
            self._deliver_committed()
        if msg.committed_zxid > self.last_zxid:
            # The leader committed entries we never received (a healed
            # partition with no follow-up proposal to trip the gap
            # check). Ask for the missing suffix — this is what bounds
            # how long a session-consistent read can stay parked at a
            # lagging replica. Throttled so one resync is in flight per
            # heartbeat interval, not one per heartbeat received.
            now = self.env.now
            if now - self._last_lag_sync >= self.config.heartbeat_ms:
                self._last_lag_sync = now
                self._send(src, SyncRequest(self.last_zxid))

    # -- election ------------------------------------------------------------

    def _start_election(self) -> None:
        if self.is_observer:
            return  # observers never vote; they wait for a new leader
        self.role = Role.LOOKING
        self._established = False
        self.leader_id = None
        self._term += 1
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("zab.elections", self.node_id)
        self._votes = {self.node_id: (self.last_zxid, self.node_id)}
        self._election_pending = True
        vote = Vote(self._term, self.last_zxid, self.node_id)
        for peer in self.peer_ids:
            self._send(peer, vote)
        self.env.process(self._election_decision())

    def _election_decision(self):
        yield self.env.timeout(self.config.election_window_ms)
        self._election_pending = False
        if not self._alive or self.role is not Role.LOOKING:
            return
        if len(self._votes) < self.quorum:
            # Not enough participants reachable; retry after a timeout.
            self._last_leader_contact = self.env.now
            return
        winner = max(self._votes.values())[1]
        if winner == self.node_id:
            self._become_leader()
        # Otherwise wait for the winner's NewLeader message.

    def _on_vote(self, src: str, msg: Vote) -> None:
        if self.is_observer or msg.term < self._term:
            return
        # A vote from the leader we follow means it is not leading any
        # more: join its election instead of pointing it at itself.
        fresh_leader = (self.leader_id not in (None, src)
                        and (self.env.now - self._last_leader_contact)
                        <= self.config.election_timeout_ms)
        if self.role is not Role.LOOKING and fresh_leader:
            # We know a live leader; tell the candidate instead of joining.
            self._send(src, CurrentLeader(self.epoch, self.leader_id))
            return
        if msg.term > self._term:
            self._term = msg.term
            self.role = Role.LOOKING
            self._established = False
            self.leader_id = None
            self._votes = {self.node_id: (self.last_zxid, self.node_id)}
            vote = Vote(self._term, self.last_zxid, self.node_id)
            for peer in self.peer_ids:
                self._send(peer, vote)
            if not self._election_pending:
                self._election_pending = True
                self.env.process(self._election_decision())
        self._votes[msg.node_id] = (msg.last_zxid, msg.node_id)

    def _on_current_leader(self, src: str, msg: CurrentLeader) -> None:
        if msg.epoch >= self.epoch and self.role is Role.LOOKING:
            self.epoch = msg.epoch
            self.leader_id = msg.leader_id
            self.role = Role.FOLLOWER
            self._last_leader_contact = self.env.now
            self._sync_pending = True
            self._send(msg.leader_id, SyncRequest(self.last_zxid))

    def _become_leader(self) -> None:
        self.epoch = self._term
        self.role = Role.LEADER
        self.leader_id = self.node_id
        self._counter = 0
        self._acked = {self.node_id: self.last_zxid}
        self._ack_values = [self.last_zxid]
        self._establish_acks = {self.node_id}
        self._established = False
        # Zab: the elected leader's log *is* the authoritative history
        # (it holds the highest zxid in its quorum) — nothing to
        # reconcile against.
        self._sync_pending = False
        self._holds = []
        if self.on_elected:
            self.on_elected()
        # Establishment syncs everyone from scratch: full log (prefix 0).
        # Followers deliver up to the advertised commit point on
        # arrival, so it stays below any hold on the inherited suffix.
        sync = NewLeader(self.epoch, list(self.log),
                         self._below_holds(self.last_zxid))
        self._fan_out(sync)
        if self.quorum == 1:  # degenerate single-node ensemble
            self._finish_establishment()

    def _on_new_leader(self, src: str, msg: NewLeader) -> None:
        if msg.epoch < self.epoch:
            return
        self.epoch = msg.epoch
        self._term = max(self._term, msg.epoch)
        self.leader_id = src
        self.role = Role.FOLLOWER
        self._last_leader_contact = self.env.now
        self._sync_pending = False  # this message IS the reconciliation
        # Where had we delivered up to? (Read before any log surgery.)
        delivered_zxid = (self.log[self._delivered_upto - 1].zxid
                          if self._delivered_upto else 0)
        if msg.prefix_zxid:
            # Incremental sync: we must hold the claimed prefix exactly.
            idx = bisect_right(self.log, msg.prefix_zxid, key=_record_zxid)
            if idx == 0 or self.log[idx - 1].zxid != msg.prefix_zxid:
                # We do not: fall back to a full sync.
                self._send(src, SyncRequest(0))
                return
            del self.log[idx:]  # drop anything diverging past the prefix
            self.log.extend(msg.log)
        else:
            # Full sync: adopt the leader's log wholesale.
            self.log = list(msg.log)
        # Preserve our delivery progress across the log swap.
        self._delivered_upto = bisect_right(self.log, delivered_zxid,
                                            key=_record_zxid)
        if msg.committed_zxid > self.committed_zxid:
            self.committed_zxid = msg.committed_zxid
        self._deliver_committed()
        if not self.is_observer:
            self._send(src, NewLeaderAck(self.epoch))
        if self.on_role_change:
            self.on_role_change()

    def _on_new_leader_ack(self, src: str, msg: NewLeaderAck) -> None:
        if self.role is not Role.LEADER or msg.epoch != self.epoch:
            return
        if src in self._observer_set:
            return  # observers never count toward establishment
        self._establish_acks.add(src)
        self._ack_update(src, self.last_zxid)
        if self._synced() and not self._established:
            self._finish_establishment()

    def _synced(self) -> bool:
        """A live leader whose NewLeader a quorum has acked."""
        return (self._alive and self.role is Role.LEADER
                and len(self._establish_acks) >= self.quorum)

    def _finish_establishment(self) -> None:
        # Commit the whole inherited log (Zab: NEW_LEADER quorum-ack implies
        # everything in the new leader's history is committed), up to
        # the first hold. A held inherited suffix keeps the leader
        # unestablished until its release commits it (as Raft's barrier
        # waits behind it): nothing is proposed, prepped or answered
        # against a history that is not yet committed.
        committed = self._below_holds(self.last_zxid)
        held = committed < self.last_zxid
        if not held:
            self._established = True
            obs = self.env.obs
            if obs is not None:
                obs.metrics.inc("zab.leaderships", self.node_id)
        if committed > self.committed_zxid:
            self.committed_zxid = committed
        self._deliver_committed()
        self._fan_out(Commit(self.epoch, self.committed_zxid))
        if not held and self.on_role_change:
            self.on_role_change()

    def _on_sync_request(self, src: str, msg: SyncRequest) -> None:
        if self.role is not Role.LEADER:
            return
        # Incremental sync: if the follower's claimed position exists in
        # our log, ship only the suffix after it; otherwise (diverged or
        # unknown zxid) fall back to the full log.
        prefix_zxid = 0
        suffix = None
        if msg.last_zxid:
            idx = bisect_right(self.log, msg.last_zxid, key=_record_zxid)
            if idx and self.log[idx - 1].zxid == msg.last_zxid:
                prefix_zxid = msg.last_zxid
                suffix = self.log[idx:]
        if suffix is None:
            suffix = list(self.log)
        self._send(src, NewLeader(self.epoch, suffix,
                                  self.committed_zxid, prefix_zxid))


#: Exact-type dispatch for :meth:`ZabPeer.handle` (no message subclasses).
_HANDLERS = {
    Proposal: ZabPeer._on_proposal,
    Ack: ZabPeer._on_ack,
    Commit: ZabPeer._on_commit,
    Heartbeat: ZabPeer._on_heartbeat,
    Vote: ZabPeer._on_vote,
    CurrentLeader: ZabPeer._on_current_leader,
    NewLeader: ZabPeer._on_new_leader,
    NewLeaderAck: ZabPeer._on_new_leader_ack,
    SyncRequest: ZabPeer._on_sync_request,
}
