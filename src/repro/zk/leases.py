"""Leader-granted read leases and the client-side read cache.

PR 3 scaled reads across followers and observers, but every read still
costs one client<->replica round trip. For Zipfian populations (the
ledger's ``ezk_zipf_open``), a handful of hot keys dominate that traffic —
exactly the regime where a *lease* pays: the leader grants a session a
short per-key read lease, piggybacked on an ordinary read reply, and
the client then serves ``get_data``/``exists`` for that key from its
own memory at 0 RTT until the lease expires or is revoked.

Linearizability is preserved by making writers pay instead of readers:
a write to a leased key is proposed at once, but the leader **holds its
commit** (``AtomicBroadcast.hold``) until every lease on what it writes
has been revoked (explicit revoke RPC, acked by the holder) or has
expired on the server clock plus a grace window. The revocation round
trip runs beside the quorum round instead of in front of it, and a
cache-served read can never return a value older than a committed
write — the write could not commit while the lease was live.

The fences, in the order they bite:

* **grant fence** — the leader refuses a grant while a write to the
  key is in flight (speculative-tree mzxid ahead of the committed tree:
  proposed, possibly held, not yet applied), or while the leadership is
  inside its recovery window. A granting follower additionally
  confirms the leader's view of the key's ``mzxid`` matches its own
  before attaching the lease to the reply. Under extensions (EZK) the
  commit fence reads a txn's real write set, after the extension ran,
  so only ``/em`` registry writes fence every live lease; grants are
  refused while a registry txn is proposed but not yet applied, while
  any event extension is registered, or when an extension would
  consume the holder's own read of the key (DESIGN §11, "Leases under
  extensions"). Every refusal is counted as ``leases.denied`` plus
  ``leases.denied.<reason>``;
* **revoke fence** — monotonically increasing lease ids (epoch-scaled,
  so a new leadership can never reuse one) let a client discard a
  grant that arrives *after* its revoke raced past it on another
  channel;
* **expiry fence** — holders stop serving strictly before
  ``expires_at`` on the shared clock; the leader releases a held commit
  only at ``expires_at + grace_ms``, so a dead client that can't ack still
  can't serve past a write's commit. Session expiry deliberately does
  *not* free leases early: the fenced client may be alive-but-silent,
  so its leases run out their natural term;
* **epoch fence** — a freshly elected leader knows nothing about the
  old leadership's grants (leases are leader-soft state), so it holds
  the commit of every write, and of the log suffix it inherited from
  the first record proposed held on, for one full
  ``duration_ms + grace_ms`` recovery window counted from the election
  — the Chubby/GFS master-failover rule. The inherited hold matters
  because an old proposal can sit in followers' logs while its revoke
  to a partitioned holder is unacked.

Everything here is inert unless ``ZkConfig.leases`` is set and the
client opted in with ``cached_reads=True``; the wire envelopes are
subclasses of the existing ones (see ``txn.py``) so default-path
message sizes — and therefore every simulated latency — are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..sim import Callback
from .data_tree import Stat
from .txn import (CloseSessionTxn, CreateTxn, DeleteTxn, ExistsOp, GetDataOp,
                  MultiTxn, RequestMeta, SetDataTxn, Txn, ZxidClientRequest,
                  ZxidReply)

__all__ = [
    "LeaseConfig", "Lease", "LeaseTable", "WriteGate", "LeaseStage",
    "LEASE_MESSAGES", "ClientReadCache", "LeaseClientRequest", "LeasedReply",
    "LeaseRequest", "LeaseGrant", "LeaseDeny", "LeaseRevoke",
    "LeaseRevokeAck", "LeaseRelease", "CACHE_MISS",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


#: the window over which a replica counts a key's cacheable reads
#: against :data:`MIN_READS`.
HEAT_WINDOW_MS = 100.0
#: a key becomes lease-worthy once a replica sees this many cacheable
#: reads for it inside one ``HEAT_WINDOW_MS`` window — cold keys keep
#: the plain read path and cost no leader traffic.
MIN_READS = 2
#: how long a follower holds a read reply waiting for the leader's
#: grant decision before answering plain (leader dark / election).
GRANT_TIMEOUT_MS = 250.0


@dataclass(frozen=True)
class LeaseConfig:
    """Knobs for the lease protocol (attach to ``ZkConfig.leases``)."""

    #: how long one grant lasts. Short: a dead (un-ackable) holder
    #: stalls a writer for at most this long plus grace.
    duration_ms: float = 400.0
    #: writer-side slack past ``expires_at`` covering clock handling
    #: at the holder (must be positive: holders stop serving strictly
    #: before expiry, writers resume strictly after expiry + grace).
    grace_ms: float = 50.0

    def validate(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.grace_ms <= 0:
            raise ValueError("grace_ms must be positive")


# ---------------------------------------------------------------------------
# wire messages (all subclasses or standalone dataclasses; the base
# client/server envelopes keep their exact sizes when leases are off)
# ---------------------------------------------------------------------------


@dataclass
class LeaseClientRequest(ZxidClientRequest):
    """A cacheable read from a ``cached_reads`` session.

    The marker subclass is the client's opt-in: the serving replica may
    attach a lease to the reply. No extra fields — the grant decision
    is entirely server-side.
    """


@dataclass
class LeasedReply(ZxidReply):
    """Read reply carrying a piggybacked lease grant."""

    lease_id: int = 0
    lease_expires_at: float = 0.0
    lease_epoch: int = 0


@dataclass
class LeaseRequest:
    """Follower -> leader: ask for a grant on behalf of a read."""

    session_id: int
    path: str
    grant_key: int          # follower-local key for the parked reply
    origin_replica: str
    client_node: str        # revokes go straight to the holder
    mzxid: int              # the key's mzxid in the follower's tree


@dataclass
class LeaseGrant:
    """Leader -> follower: grant issued; attach if mzxids still agree."""

    grant_key: int
    lease_id: int
    expires_at: float
    epoch: int
    mzxid: int              # the key's mzxid in the leader's tree


@dataclass
class LeaseDeny:
    grant_key: int


@dataclass
class LeaseRevoke:
    """Leader -> client: drop the lease (a writer is waiting)."""

    path: str
    lease_id: int


@dataclass
class LeaseRevokeAck:
    """Client -> leader: lease dropped; the writer may proceed."""

    session_id: int
    path: str
    lease_id: int


@dataclass
class LeaseRelease:
    """Client -> replica -> leader: voluntary early release (sync())."""

    session_id: int
    lease_ids: Tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# leader-side state
# ---------------------------------------------------------------------------


@dataclass
class Lease:
    lease_id: int
    path: str
    session_id: int
    client_node: str
    expires_at: float


@dataclass
class WriteGate:
    """One proposal's commit, held behind lease revocation (leader-local).

    ``zxid`` is the held stamp: the broadcast layer commits nothing at
    or past it until the gate fires, which releases the hold once every
    lease in ``waiting`` is revoked or expired. ``meta`` names the
    client the write belongs to (``None`` for a server-internal txn: an
    expiry close, an event-extension write). ``deadline`` is the
    deferred lease-term-plus-grace release; a gate that settles before
    it cancels it, so the queued entry stops holding the gate.
    """

    zxid: int
    waiting: Set[int]               # lease ids still unrevoked
    held_at: float
    meta: Optional[RequestMeta] = None
    n_paths: int = 0
    fired: bool = False
    deadline: Optional[Callback] = None


class LeaseTable:
    """The leader's book of grants, revocations and held commits.

    Pure bookkeeping — no clocks, no network. :class:`LeaseStage` owns
    the event scheduling and message sends; keeping the table passive
    makes the revocation races unit-testable without a simulation.
    """

    def __init__(self, config: LeaseConfig):
        config.validate()
        self.config = config
        #: path -> lease_id -> Lease (live grants; expired entries are
        #: dropped lazily on access).
        self.leases: Dict[str, Dict[int, Lease]] = {}
        self.by_id: Dict[int, Lease] = {}
        #: proposals whose commit is held behind revocation.
        self.gates: List[WriteGate] = []
        #: new-leadership fence: no write commits before this time.
        self.recovery_until: float = 0.0
        self._next_seq = 0
        self._epoch = 1

    # -- leadership --------------------------------------------------------

    def reset_for_leadership(self, epoch: int, now: float,
                             fence: bool) -> None:
        """Forget everything; optionally raise the recovery fence.

        Leases are leader-soft state: grants by the old leadership are
        invisible here, so a fenced reset holds all writes for one full
        lease term — after which every old-epoch lease has expired.
        The bootstrap leader skips the fence (nobody could have granted
        anything before the first leadership).
        """
        self.leases.clear()
        self.by_id.clear()
        self.gates = []
        self._epoch = epoch
        self._next_seq = 0
        if fence:
            self.recovery_until = (now + self.config.duration_ms
                                   + self.config.grace_ms)

    # -- grants ------------------------------------------------------------

    def grant(self, path: str, session_id: int, client_node: str,
              now: float) -> Lease:
        """Issue a lease (the stage's grant fence has already passed)."""
        self._next_seq += 1
        # Epoch-scaled ids: monotone across leaderships, so a client's
        # stale-revoke ring can never confuse an old id with a new one.
        lease_id = self._epoch * 1_000_000 + self._next_seq
        lease = Lease(lease_id, path, session_id, client_node,
                      now + self.config.duration_ms)
        self.leases.setdefault(path, {})[lease_id] = lease
        self.by_id[lease_id] = lease
        return lease

    def active_on(self, paths, now: float) -> List[Lease]:
        """Live (unexpired) leases on any of ``paths``; prunes dead ones."""
        found: List[Lease] = []
        for path in paths:
            holders = self.leases.get(path)
            if not holders:
                continue
            for lease_id in list(holders):
                lease = holders[lease_id]
                if now >= lease.expires_at + self.config.grace_ms:
                    self._drop(lease)
                else:
                    found.append(lease)
        return found

    def all_active(self, now: float) -> List[Lease]:
        """Every live lease: what a registry write must fence."""
        return self.active_on(list(self.leases), now)

    def _drop(self, lease: Lease) -> None:
        holders = self.leases.get(lease.path)
        if holders is not None:
            holders.pop(lease.lease_id, None)
            if not holders:
                del self.leases[lease.path]
        self.by_id.pop(lease.lease_id, None)

    # -- revocation --------------------------------------------------------

    def revoked(self, lease_id: int) -> List[WriteGate]:
        """A revoke ack (or voluntary release) arrived: drop the lease
        and return every gate that is now free of lease waiters."""
        lease = self.by_id.get(lease_id)
        if lease is not None:
            self._drop(lease)
        ready = []
        for gate in self.gates:
            if not gate.fired and lease_id in gate.waiting:
                gate.waiting.discard(lease_id)
                if not gate.waiting:
                    ready.append(gate)
        return ready

    def purge(self, lease_ids) -> None:
        """Force-drop leases that ran out their term unacked."""
        for lease_id in list(lease_ids):
            lease = self.by_id.get(lease_id)
            if lease is not None:
                self._drop(lease)

    # -- held commits ------------------------------------------------------

    def close_gate(self, gate: WriteGate) -> None:
        gate.fired = True
        if gate in self.gates:
            self.gates.remove(gate)

    def drain_gates(self) -> List[WriteGate]:
        """Leadership moved: the holds died with it (the proposals are
        the broadcast layer's now)."""
        gates, self.gates = self.gates, []
        for gate in gates:
            gate.fired = True
        return gates


# ---------------------------------------------------------------------------
# the server's lease stage
# ---------------------------------------------------------------------------


class LeaseStage:
    """The server side of the lease protocol: one stage of a replica.

    A :class:`~repro.zk.server.ZkServer` creates one when
    ``ZkConfig.leases`` is set and calls it only at these points: a
    read's reply, the leader's one propose site (:meth:`fence_commit`),
    an election won (:meth:`on_elected`), a role change, a crash, and
    the five lease messages (:meth:`receive`). The stage owns the
    scheduling, the sends and the grant fence; :class:`LeaseTable` is
    the passive book it keeps.
    """

    def __init__(self, server, config: LeaseConfig):
        self.server = server
        self.config = config
        self.env = server.env
        self.net = server.net
        self.node_id = server.node_id
        self.broadcast = server.broadcast
        self.table = LeaseTable(config)
        #: follower: read replies parked on a LeaseRequest, by grant key:
        #: (meta, op, value, zxid, mzxid, grant timeout callback).
        self.waits: Dict[int, tuple] = {}
        self._wait_seq = 0
        #: cacheable reads per key in the current heat window.
        self._heat: Dict[str, int] = {}
        self._heat_window_start = 0.0
        #: leader under extensions: zxid of the newest txn it proposed
        #: (or found unsettled in its log on election) that writes the
        #: extension registry. Grants wait until it settles (R2).
        self.registry_zxid = 0
        #: (epoch, time) of the last leadership this replica won: the
        #: recovery window is counted from the election.
        self._won = (0, 0.0)

    def crash(self) -> None:
        for entry in self.waits.values():
            entry[-1].cancel()
        self.waits.clear()

    def _count(self, *names: str) -> None:
        obs = self.env.obs
        if obs is not None:
            for name in names:
                obs.metrics.inc(name, self.node_id)

    # -- grants (read side) ------------------------------------------------

    def reply(self, meta, op, value) -> bool:
        """Attach a lease to this read's reply if the key qualifies.

        True when the reply is sent from here (by a follower, once the
        leader answers its grant request); False leaves it to the server.
        """
        if not isinstance(op, (GetDataOp, ExistsOp)) or op.watch:
            return False
        stat = value[1] if isinstance(value, tuple) else value
        if not isinstance(stat, Stat):
            return False          # exists() on a missing node: no key to lease
        if not self._note_heat(op.path):
            return False          # cold key: plain read, no leader traffic
        zxid = self.server._applied_zxid
        broadcast = self.broadcast
        if broadcast.is_leader:
            lease = self._grant(meta.session_id, meta.client_node, op.path)
            if lease is None:
                return False
            self._leased_reply(meta, value, zxid, lease.lease_id,
                               lease.expires_at, broadcast.leadership_epoch)
            return True
        leader = broadcast.leader_id
        if leader is None:
            return False
        # Park the reply and ask the leader; a timeout answers plain so
        # a dark leader can never stall reads.
        self._wait_seq += 1
        key = self._wait_seq
        self.net.send(self.node_id, leader, LeaseRequest(
            meta.session_id, op.path, key, self.node_id, meta.client_node,
            stat.mzxid))
        self.waits[key] = (meta, op, value, zxid, stat.mzxid, self.env.defer(
            GRANT_TIMEOUT_MS, self._grant_timeout, key))
        return True

    def _leased_reply(self, meta, value, zxid: int, lease_id: int,
                      expires_at: float, epoch: int) -> None:
        self.server._succeed(meta, value, zxid, LeasedReply(
            meta.xid, True, value, zxid=zxid, lease_id=lease_id,
            lease_expires_at=expires_at, lease_epoch=epoch))

    def _note_heat(self, path: str) -> bool:
        """Promotion hysteresis: lease only keys hot in the current window."""
        now = self.env.now
        if now - self._heat_window_start >= HEAT_WINDOW_MS:
            self._heat.clear()
            self._heat_window_start = now
        count = self._heat.get(path, 0) + 1
        self._heat[path] = count
        return count >= MIN_READS

    def _grant(self, session_id: int, client_node: str, path: str,
               mzxid: Optional[int] = None) -> Optional[Lease]:
        """A lease, or None once the refusal is counted."""
        verdict = self._fence(session_id, client_node, path, mzxid)
        if verdict.__class__ is str:
            self._count("leases.denied", "leases.denied." + verdict)
            return None
        self._count("leases.granted")
        return verdict

    def _fence(self, session_id: int, client_node: str, path: str,
               mzxid: Optional[int]):
        """Grant fence: the lease, or the first reason to refuse it.
        ``mzxid``: the key's version at a requesting follower."""
        server = self.server
        if not self.broadcast.is_leader:
            return "not_leader"
        auth_stat = server.tree.exists(path)
        if mzxid is not None and (auth_stat is None
                                  or auth_stat.mzxid != mzxid):
            # The follower read a version the leader has already moved
            # past (or not reached — it re-checks on its side too).
            return "moved"
        if not session_id:
            return "session"
        table = self.table
        now = self.env.now
        if now < table.recovery_until:
            return "recovery"     # old grants still at large
        if (session_id not in server.sessions
                or server.sessions.is_closed(session_id)
                or session_id in server._closing_sessions):
            return "session"      # never arm a cache the fence already killed
        extensions = server.extensions
        if extensions is not None:
            # Leases under extensions (DESIGN §11).
            if self.registry_zxid > server._settled_zxid:
                return "registry"                       # R2
            if extensions.manager.handles_events:
                return "events"                         # R4
            client_id = str(session_id)
            if (extensions.consumes(client_id, GetDataOp(path))
                    or extensions.consumes(client_id, ExistsOp(path))):
                # R2, settled registry: this holder's reads of the key
                # belong to an extension, not to a cache.
                return "consumed"
        if auth_stat is None:
            return "absent"
        spec = server._spec_tree
        if spec is not None:
            spec_stat = spec.exists(path)
            if spec_stat is None or spec_stat.mzxid != auth_stat.mzxid:
                return "in_flight"  # a write to this key is in the pipeline
        return table.grant(path, session_id, client_node, now)

    # -- messages ----------------------------------------------------------

    def receive(self, src: str, msg: object) -> None:
        _RECEIVERS[msg.__class__](self, src, msg)

    def _on_request(self, src: str, msg: LeaseRequest) -> None:
        lease = self._grant(msg.session_id, msg.client_node, msg.path,
                            msg.mzxid)
        if lease is None:
            self.net.send(self.node_id, src, LeaseDeny(msg.grant_key))
            return
        self.net.send(self.node_id, src, LeaseGrant(
            msg.grant_key, lease.lease_id, lease.expires_at,
            self.broadcast.leadership_epoch, msg.mzxid))

    def _on_grant(self, src: str, msg: LeaseGrant) -> None:
        entry = self.waits.pop(msg.grant_key, None)
        if entry is None:
            return                # timed out; the grant just expires unused
        meta, op, value, zxid, mzxid, timer = entry
        timer.cancel()
        stat = self.server.tree.exists(op.path)
        if msg.mzxid != mzxid or stat is None or stat.mzxid != mzxid:
            # The key moved while the grant was in flight: installing
            # the cached value now would hand the client stale state.
            self.server._succeed(meta, value, zxid)
            return
        self._leased_reply(meta, value, zxid, msg.lease_id, msg.expires_at,
                           msg.epoch)

    def _on_deny(self, src: str, msg: LeaseDeny) -> None:
        entry = self.waits.pop(msg.grant_key, None)
        if entry is not None:
            entry[-1].cancel()
            self._answer_plain(entry)

    def _grant_timeout(self, grant_key: int) -> None:
        entry = self.waits.pop(grant_key, None)
        if entry is not None:
            self._answer_plain(entry)

    def _answer_plain(self, entry: tuple) -> None:
        """Deny or grant timeout: answer the parked read plain."""
        if not self.server._alive:
            return
        meta, _op, value, zxid, _mzxid, _timer = entry
        self.server._succeed(meta, value, zxid)

    def _on_revoke_ack(self, src: str, msg: LeaseRevokeAck) -> None:
        self._revoked((msg.lease_id,))

    def _on_release(self, src: str, msg: LeaseRelease) -> None:
        """Voluntary early release (a client's sync barrier)."""
        if not self.broadcast.is_leader:
            if self.broadcast.leader_id is not None:
                self.net.send(self.node_id, self.broadcast.leader_id, msg)
            return
        self._revoked(msg.lease_ids)

    def _revoked(self, lease_ids) -> None:
        table = self.table
        ready: List[WriteGate] = []
        for lease_id in lease_ids:
            if lease_id in table.by_id:
                self._count("leases.revoked_acks")
            ready.extend(table.revoked(lease_id))
        for gate in ready:
            self._fire(gate)

    # -- commit fence (leader) ---------------------------------------------

    def fence_commit(self, txn: Txn, zxid: int,
                     meta: Optional[RequestMeta]) -> None:
        """Hold ``txn``'s commit until no lease covers what it writes.

        The server's one propose site calls this just before ``txn``
        reaches the speculative tree and the log as stamp ``zxid``. The
        blockers come from the txn's real write set: exactly the paths
        it writes (a session close: the session's ephemerals), whoever
        decided them — a client, an operation extension, an event
        extension. A write under ``/em`` fences every live lease
        instead (R1), and grants wait for it to settle (R2). The revokes
        go out in the event that proposes, so their round trip overlaps
        the quorum round; inside the recovery window every commit waits
        for its end.
        """
        paths = _txn_paths(txn)
        if txn.__class__ is CloseSessionTxn:
            paths = self._ephemerals(txn.session_id)
        extensions = self.server.extensions
        registry = (extensions is not None
                    and extensions.writes_registry(paths))
        if registry:
            self.registry_zxid = zxid                           # R2
        table = self.table
        now = self.env.now
        blockers = (table.all_active(now) if registry            # R1
                    else table.active_on(paths, now))
        if not blockers and now >= table.recovery_until:
            return
        grace = self.config.grace_ms
        not_before = max([table.recovery_until]
                         + [b.expires_at + grace for b in blockers])
        gate = WriteGate(zxid, {b.lease_id for b in blockers}, now, meta,
                         len(paths))
        table.gates.append(gate)
        self.broadcast.hold(zxid)
        for blocker in blockers:
            self.net.send(self.node_id, blocker.client_node,
                          LeaseRevoke(blocker.path, blocker.lease_id))
        gate.deadline = self.env.defer(max(0.0, not_before - now),
                                       self._deadline, gate)

    def _ephemerals(self, session_id: int) -> List[str]:
        server = self.server
        tree = server._spec_tree if server._spec_tree is not None \
            else server.tree
        return list(tree.ephemerals_of(session_id))

    def _deadline(self, gate: WriteGate) -> None:
        """Leases still unacked have run out their term plus grace."""
        if gate.waiting and not gate.fired and self.server._alive:
            self.table.purge(gate.waiting)
            gate.waiting = set()
        self._fire(gate)

    def _fire(self, gate: WriteGate) -> None:
        """Release a held commit once every lease it waits on is gone."""
        if gate.fired or gate.waiting or not self.server._alive:
            return
        self.table.close_gate(gate)
        gate.deadline.cancel()
        now = self.env.now
        obs = self.env.obs
        if obs is not None:
            obs.metrics.observe("leases.hold_ms", self.node_id,
                                now - gate.held_at)
            meta = gate.meta
            if meta is not None and obs.tracer is not None:
                # The hold surfaces as an aux span of the write's trace.
                obs.tracer.aux(meta.client_node, meta.xid, "lease_gate",
                               gate.held_at, now, self.node_id,
                               detail=f"paths={gate.n_paths}")
        self.broadcast.release(gate.zxid)

    # -- leadership ----------------------------------------------------------

    def on_elected(self) -> None:
        """A leadership was won: hold the inherited log from its first
        held record on.

        The kernel calls this before it advertises any commit point. A
        proposal of the old leadership can sit in followers' logs with
        its commit held for a revoke its partitioned holder never
        acked. Such a record carries ``held``, and neither it nor
        anything after it may be delivered until every lease the old
        leadership granted has run out. That is the recovery window
        (``recovery_until``), counted from here, so the inherited hold
        and the fence on this leadership's own writes end at the same
        instant. A record proposed unheld had no live lease on what it
        writes, and the grant fence refused new ones while it was in
        flight, so an inherited suffix without a held record commits at
        once. Establishment waits behind a held suffix on both kernels
        (Raft's barrier no-op sits after it; Zab establishes once it
        commits), so nothing is prepped or answered against a history
        that is not yet committed.
        """
        self._drain()
        broadcast = self.broadcast
        epoch = broadcast.leadership_epoch
        self._won = (epoch, self.env.now)
        committed = broadcast.committed_zxid
        first_held = 0
        for record in reversed(broadcast.log):
            if record.zxid <= committed:
                break
            if record.held:
                first_held = record.zxid
        if first_held:
            broadcast.hold(first_held)
            self.env.defer(self.config.duration_ms + self.config.grace_ms,
                           self._release_inherited, epoch, first_held)

    def _release_inherited(self, epoch: int, stamp: int) -> None:
        if self.broadcast.leadership_epoch == epoch:
            self.broadcast.release(stamp)

    def _drain(self) -> None:
        for gate in self.table.drain_gates():
            gate.deadline.cancel()

    def on_role_change(self) -> None:
        """Leases are leader-soft state: a role change wipes the book.

        Held commits die with the old leadership (their proposals are
        the kernel's to commit or drop), and a *new* leadership that is
        not the bootstrap one raises the recovery fence: it cannot know
        what the old leader granted, so every commit waits out one full
        lease term from the election — the Chubby/GFS master-failover
        rule.
        """
        self._drain()
        # Fencing keys on the kernel-neutral leadership epoch (Zab
        # epoch / Raft term): 1 is the bootstrap leadership, anything
        # above means an election happened and old grants may be at
        # large on clients of the previous leader.
        epoch = self.broadcast.leadership_epoch
        fence = self.broadcast.is_leader and epoch > 1
        won_epoch, won_at = self._won
        self.table.reset_for_leadership(
            epoch, won_at if won_epoch == epoch else self.env.now, fence)
        if self.server.extensions is not None:
            self.registry_zxid = self._unsettled_registry_zxid()

    def _unsettled_registry_zxid(self) -> int:
        """zxid of the newest logged registry txn not yet settled here.

        A new leader applies its predecessor's proposals without running
        them through its own prep, so R2 looks for them in the log.
        """
        settled = self.server._settled_zxid
        writes_registry = self.server.extensions.writes_registry
        for record in reversed(self.broadcast.log):
            if record.zxid <= settled:
                break
            if writes_registry(_txn_paths(record.txn)):
                return record.zxid
        return 0


#: Exact-type dispatch for :meth:`LeaseStage.receive`.
_RECEIVERS = {
    LeaseRequest: LeaseStage._on_request,
    LeaseGrant: LeaseStage._on_grant,
    LeaseDeny: LeaseStage._on_deny,
    LeaseRevokeAck: LeaseStage._on_revoke_ack,
    LeaseRelease: LeaseStage._on_release,
}
#: The replica-bound lease messages, for the server's message table.
LEASE_MESSAGES = tuple(_RECEIVERS)


def _txn_paths(txn: Txn) -> List[str]:
    """The paths a txn writes by name (session txns write none)."""
    subs = txn.txns if txn.__class__ is MultiTxn else (txn,)
    return [sub.path for sub in subs
            if sub.__class__ in (CreateTxn, SetDataTxn, DeleteTxn)]


# ---------------------------------------------------------------------------
# client-side cache
# ---------------------------------------------------------------------------

#: sentinel distinct from any legitimate cached value (None is a valid
#: ``exists`` result, so it cannot signal a miss).
CACHE_MISS = object()


class _Entry:
    __slots__ = ("data", "stat", "has_data", "lease_id", "expires_at",
                 "zxid")

    def __init__(self, data: Optional[bytes], stat: Stat, has_data: bool,
                 lease_id: int, expires_at: float, zxid: int):
        self.data = data
        self.stat = stat
        self.has_data = has_data
        self.lease_id = lease_id
        self.expires_at = expires_at
        self.zxid = zxid


class ClientReadCache:
    """Watch- and revoke-invalidated read cache, keyed by lease."""

    #: CPU cost of serving from local memory: nonzero so a closed-loop
    #: caller spinning on cache hits still advances simulated time.
    hit_cost_ms = 0.001

    def __init__(self):
        self.entries: Dict[str, _Entry] = {}
        #: recently revoked lease ids: a revoke that raced ahead of its
        #: grant (different channels, no cross-channel FIFO) must win.
        self._revoked: Set[int] = set()
        self.stats = {"hits": 0, "misses": 0, "installs": 0,
                      "revokes": 0, "expired": 0, "invalidations": 0}

    # -- lookups (0 RTT when they hit) -------------------------------------

    def _live(self, path: str, now: float) -> Optional[_Entry]:
        entry = self.entries.get(path)
        if entry is None:
            return None
        # Strictly-before: the leader frees writers at expiry + grace,
        # so a serve at exactly expires_at would already be unsafe.
        if now >= entry.expires_at:
            del self.entries[path]
            self.stats["expired"] += 1
            return None
        return entry

    def data(self, path: str, now: float):
        entry = self._live(path, now)
        if entry is None or not entry.has_data:
            self.stats["misses"] += 1
            return CACHE_MISS
        self.stats["hits"] += 1
        return (entry.data, entry.stat)

    def stat(self, path: str, now: float):
        entry = self._live(path, now)
        if entry is None:
            self.stats["misses"] += 1
            return CACHE_MISS
        self.stats["hits"] += 1
        return entry.stat

    # -- installs ----------------------------------------------------------

    def install(self, path: str, value, reply: LeasedReply,
                now: float) -> None:
        lease_id = reply.lease_id
        if lease_id in self._revoked or now >= reply.lease_expires_at:
            return
        if isinstance(value, tuple) and len(value) == 2 \
                and isinstance(value[1], Stat):
            entry = _Entry(value[0], value[1], True, lease_id,
                           reply.lease_expires_at, reply.zxid)
        elif isinstance(value, Stat):
            entry = _Entry(None, value, False, lease_id,
                           reply.lease_expires_at, reply.zxid)
        else:
            return      # not a cacheable read result
        self.entries[path] = entry
        self.stats["installs"] += 1

    # -- invalidation ------------------------------------------------------

    def revoke(self, path: str, lease_id: int) -> bool:
        """Server-initiated revoke; True when a live entry was dropped."""
        self.stats["revokes"] += 1
        self._note_revoked(lease_id)
        entry = self.entries.get(path)
        if entry is not None and entry.lease_id == lease_id:
            del self.entries[path]
            return True
        return False

    def _note_revoked(self, lease_id: int) -> None:
        self._revoked.add(lease_id)
        if len(self._revoked) > 128:
            floor = lease_id - 1024
            self._revoked = {i for i in self._revoked if i > floor}

    def drop(self, path: str) -> None:
        """Local invalidation: own write or a watch notification."""
        if self.entries.pop(path, None) is not None:
            self.stats["invalidations"] += 1

    def drop_all(self) -> List[int]:
        """Session no longer CONNECTED (or sync barrier): flush.

        Returns the dropped lease ids so callers that still have a
        working channel (sync) can volunteer a LeaseRelease and unblock
        writers early; a SUSPENDED client just lets them expire.
        """
        ids = sorted(entry.lease_id for entry in self.entries.values())
        if ids:
            self.stats["invalidations"] += len(ids)
        self.entries.clear()
        return ids
