"""A ZooKeeper replica: request-processor chain over the Zab substrate.

Mirrors the architecture in the paper's Figure 3:

* the **prep** stage (leader only) validates update operations against a
  speculative tree (current state + all prepped-but-uncommitted txns),
  writes them into it, and turns them into deterministic transactions.
  A ``MultiOp`` and an extension run write it under a savepoint
  (:meth:`~repro.zk.data_tree.DataTree.savepoint`), so a failure rolls
  the whole batch back; nothing reaches that tree twice;
* the **proposal** stage is :class:`~repro.zk.zab.ZabPeer`;
* the **final** stage applies committed transactions at every replica,
  answers the originating client, and fires watches.

Reads take ZooKeeper's fast path: they execute at the replica the client
is connected to, against its locally committed state, without touching
the leader.

With ``ZkConfig.local_reads`` enabled the fast path additionally
enforces **session consistency**: requests carry the session's
last-seen zxid, replies carry the zxid the replica answered at, and a
replica whose applied state lags a request's zxid parks the read until
it catches up. A ``SyncOp`` (leader round-trip, no transaction) lets a
client upgrade its next local read to a linearizable one. Replicas may
also be **observers** — non-voting learners that apply the committed
stream and serve reads but never widen the write quorum (§ DESIGN 7).

Updates and syncs that enter at a non-leader are relayed to the leader
as a :class:`Forward` and remembered until settled; when leadership
moves, what is left is re-routed to the new leader, so a request in
flight to a leader that died costs its client one election rather than
its RPC deadline (§ DESIGN 10.8).

Extensible ZooKeeper hooks in at exactly the points §5.1.2 describes,
through one slot, ``extensions`` (``None``, or the replica's
:class:`~repro.ezk.integration.EzkBinding`): ``consumes`` routes a read
an extension consumes to the leader, ``intercept`` may replace the
prep-stage translation by an extension's multi-transaction,
``on_events`` sees each applied transaction's state changes,
``suppresses`` filters watch notifications, and ``rebuild`` reloads the
registry after recovery (§3.8).

Read leases are one more stage, ``leases`` (``None``, or the replica's
:class:`~repro.zk.leases.LeaseStage`): it may attach a lease to a read's
reply, and at the leader's one propose site (:meth:`ZkServer._propose`)
it holds each txn's commit until the leases on what the txn writes are
revoked (DESIGN §11).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim import Environment, FifoResource, Network
from .data_tree import DataTree, split_path
from .errors import (ConnectionLossError, SessionExpiredError, ZkError,
                     from_code, to_code)
from .leases import (LEASE_MESSAGES, LeaseClientRequest, LeaseConfig,
                     LeaseStage)
from .sessions import (ConsistencyTracker, ExpiryClock, ProposedXids,
                       SessionTable)
from .txn import (ClientReply, ClientRequest, CloseSessionOp, CloseSessionTxn,
                  CreateOp, CreateSessionOp, CreateSessionTxn, CreateTxn,
                  DeleteOp, DeleteTxn, ErrorTxn, ExistsOp, GetChildrenOp,
                  GetDataOp, MultiOp, MultiTxn, Op, PingOp, RequestMeta,
                  SetDataOp, SetDataTxn, SyncOp, Txn, TxnRecord,
                  WatchNotification, ZxidClientRequest, ZxidReply,
                  ZxidWatchNotification)
from ..core.binding import ExtensionBinding
from ..core.broadcast import make_zk_kernel
from ..obs import (M_DELIVER, M_INGRESS, M_PROPOSE, M_REPLY,
                   FourLetterReply, FourLetterRequest, Observability,
                   ObsConfig)
from ..raft import RaftConfig
from .watches import EventType, WatchEvent, WatchManager

__all__ = ["ZkTimings", "ZkConfig", "ZkServer", "Forward", "ForwardSettled",
           "SessionPing", "StateEvent"]

#: A relayed request this old has been given up on: the client library's
#: RPC deadline (``client._DEFAULT_TIMEOUT_MS``) has fired and the call
#: was retried, possibly through another replica.
_RELAY_TTL_MS = 3000.0
#: Period of the leader's session-expiry sweep (and the tick of its
#: bucketed expiry clock).
EXPIRY_SWEEP_MS = 100.0


@dataclass
class ZkTimings:
    """Per-stage CPU service times (ms) for one replica."""

    read_execute_ms: float = 0.015
    prep_ms: float = 0.015
    log_write_ms: float = 0.015
    apply_ms: float = 0.01
    extension_exec_ms: float = 0.01   # extra prep cost when an extension runs


@dataclass
class ZkConfig:
    timings: ZkTimings = field(default_factory=ZkTimings)
    #: consensus kernel behind the AtomicBroadcast interface: "zab"
    #: (the default, byte-identical to the pre-interface build) or
    #: "raft". The tree server, sessions, watches, leases and reads
    #: are kernel-agnostic — they program against the contract.
    kernel: str = "zab"
    #: Raft tuning; None applies RaftConfig() when kernel="raft".
    raft: Optional[RaftConfig] = None
    #: Session-consistent local reads (ZooKeeper's real read path).
    #: Replies and watch notifications carry the replica's zxid, clients
    #: stamp requests with their last-seen zxid, and lagging replicas
    #: park reads until they catch up. Off by default — the figure
    #: benchmarks reproduce the seed bit-for-bit with this off.
    local_reads: bool = False
    #: Leader-granted read leases for client-side caching (see
    #: ``leases.py``). ``None`` (the default) keeps every path — wire
    #: sizes, scheduling, replies — bit-identical to a lease-free build;
    #: set to a :class:`LeaseConfig` to let ``cached_reads`` clients
    #: serve hot-key reads from local memory at 0 RTT.
    leases: Optional[LeaseConfig] = None
    #: deterministic tracing + metrics (see ``repro.obs``). ``None``
    #: (the default) leaves ``env.obs`` unset, so every instrumentation
    #: point costs one attribute read and the run is byte-identical to
    #: an unobserved one.
    obs: Optional[ObsConfig] = None


@dataclass
class Forward:
    """Follower -> leader relay of an update request."""

    request: ClientRequest
    origin_replica: str
    client_node: str


@dataclass
class ForwardSettled:
    """Leader -> origin replica: a relayed request was answered directly.

    Committed updates settle at the origin when their record applies
    there. Every *other* answer (sync result, bounce, fence, contained
    extension error, applied duplicate) goes straight from the leader to
    the client; this notice, off the reply path, lets the origin forget
    the request.
    """

    client_node: str
    xid: int


@dataclass
class SessionPing:
    session_id: int


@dataclass
class StateEvent:
    """One state change produced by applying a transaction."""

    event_type: EventType
    path: str
    data: bytes = b""
    #: session of the client whose request produced this change (None for
    #: server-internal transactions such as expiry-driven deletions).
    origin_session: Optional[int] = None


class ZkServer:
    """One replica of the (extensible-ready) ZooKeeper service."""

    def __init__(self, env: Environment, net: Network, node_id: str,
                 peer_ids: List[str], config: Optional[ZkConfig] = None,
                 observer_ids: Optional[List[str]] = None,
                 is_observer: bool = False):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.peer_ids = list(peer_ids)
        self.config = config or ZkConfig()
        self.timings = self.config.timings
        self.is_observer = is_observer

        self.tree = DataTree()
        self.sessions = SessionTable()
        self.watches = WatchManager()
        # Bucketed expiry tracking: a sweep visits only due buckets
        # instead of scanning every session (ZooKeeper's ExpiryQueue).
        self.heartbeats = ExpiryClock(tick_ms=EXPIRY_SWEEP_MS)
        self.read_floors = ConsistencyTracker()
        self.cpu = FifoResource(env, name=f"{node_id}.cpu")

        #: sessions whose client is connected to *this* replica.
        self.local_sessions: Dict[int, str] = {}
        #: path -> [(session_id, xid, client_node)] replies deferred until create.
        self._deferred_blocks: Dict[str, List[Tuple[int, int, str]]] = {}
        #: zxid of the last transaction applied to our tree.
        self._applied_zxid = 0
        #: zxid of the last transaction whose apply stage (event hooks,
        #: registry updates, replies) has run here.
        self._settled_zxid = 0
        #: reads waiting for this replica to catch up to a session's zxid:
        #: (required zxid, meta, op, wants_lease), drained as txns apply.
        self._parked_reads: List[Tuple[int, RequestMeta, Op, bool]] = []
        #: non-leader: (client_node, xid) -> (request, relayed_at,
        #: leader, epoch) for every update/sync of a local client this
        #: replica has handed to the leader and not yet seen settled
        #: (its record applied here, a reply for it left this replica,
        #: or the leader said it answered). A role change re-routes the
        #: entries addressed to any *other* leadership, so a forward
        #: that died with the old leader costs its client one election,
        #: not its RPC deadline. Entries the client has given up on are
        #: aged out by the sweep loop (``_RELAY_TTL_MS``).
        self._relayed: Dict[Tuple[str, int], tuple] = {}
        #: leader-only: client_node -> xid -> zxid for every update this
        #: leadership has proposed, rebuilt from the log on election.
        #: Clients reuse the xid when they retry after a timeout, so a
        #: hit here means the update already travelled the pipeline —
        #: re-executing it would double-apply non-idempotent extension
        #: ops (see _prep). The table lives as long as the log, so it
        #: is keyed per client and each client's part is two int arrays
        #: (:class:`ProposedXids`).
        self._proposed_xids: Dict[str, ProposedXids] = {}
        #: leader-only: sessions whose CloseSessionTxn this leadership
        #: has *proposed* but possibly not yet applied. Closes the
        #: propose→apply fencing window (no update for the session may
        #: land after its close in zxid order) and makes the expiry
        #: sweep exactly-once (a slow commit must not be re-proposed).
        #: Reset on role change: an uncommitted close dies with the old
        #: leadership, a committed one is visible via the session table.
        self._closing_sessions: set = set()
        #: expiry clock paused (crashed or not leading): the first
        #: healthy sweep after a pause *rebases* every session instead
        #: of expiring it, so a long election cannot mass-expire clients
        #: whose pings had no leader to reach. Starts False so the
        #: bootstrap leader's very first sweeps behave exactly as before.
        self._expiry_paused = False

        # An observer's broadcast endpoint lists the voting replicas as
        # its peers but never votes or acks; a voter additionally knows
        # the observers so it can stream to them when it leads. The
        # kernel behind the AtomicBroadcast interface is selected by
        # ``config.kernel`` — Zab (the default) or Raft; every call
        # site below goes through the contract, never the protocol.
        voting = peer_ids if is_observer else [node_id] + list(peer_ids)
        self.broadcast = make_zk_kernel(
            env, node_id, voting, send=functools.partial(net.send, node_id),
            deliver=self._on_deliver, config=self.config,
            observer_ids=observer_ids, is_observer=is_observer,
            # Fan-out path: size the payload once for the whole broadcast.
            send_many=functools.partial(net.broadcast, node_id),
            # Raft's post-election barrier entry: an error txn with no
            # meta applies as a no-op (no reply, no tree change) but
            # still advances the zxid stream gaplessly.
            noop_txn=lambda: ErrorTxn("CONNECTION_LOSS", "leader barrier"))
        self.broadcast.on_role_change = self._on_role_change
        self._spec_tree: Optional[DataTree] = None

        #: the EZK binding (see module docstring); None = plain ZooKeeper.
        self.extensions: Optional[ExtensionBinding] = None
        #: the lease stage (see module docstring); None = no leases.
        self.leases: Optional[LeaseStage] = None
        if self.config.leases is not None:
            self.leases = LeaseStage(self, self.config.leases)
            self.broadcast.on_elected = self.leases.on_elected

        # Observability plane: the first obs-configured server installs
        # it on the env; the session table gets its metric hook here
        # (it is pure bookkeeping with no env access of its own).
        if self.config.obs is not None:
            obs = Observability.install(env, self.config.obs)
            self.sessions.metrics = obs.metrics
            self.sessions.metrics_node = node_id

        self._alive = True
        net.register(node_id, self.handle_message)
        env.process(self._expiry_loop())

    # -- wiring ----------------------------------------------------------

    def start(self, leader_id: str) -> None:
        """Bootstrap with a known initial leader (no election round)."""
        self.broadcast.bootstrap(leader_id)
        self._on_role_change()

    @property
    def is_leader(self) -> bool:
        return self.broadcast.is_leader

    # -- fault injection ---------------------------------------------------

    def crash(self) -> None:
        self._alive = False
        self.net.crash(self.node_id)
        self.broadcast.crash()
        self._parked_reads.clear()
        if self.leases is not None:
            self.leases.crash()
        # Local clients lose their connection with us; whatever we had
        # relayed for them is theirs to retry once their deadline fires.
        self._relayed.clear()

    def recover(self) -> None:
        self._alive = True
        self.net.recover(self.node_id)
        self.broadcast.recover()
        if self.extensions is not None:
            self.extensions.rebuild()
        # The rebuilt registry reflects every txn applied before the
        # crash, including those whose apply stage the crash cut short.
        self._settled_zxid = self._applied_zxid

    # -- message dispatch ------------------------------------------------------

    def handle_message(self, src: str, msg: object) -> None:
        if not self._alive:
            return
        handler = _INBOX.get(msg.__class__)
        if handler is None:
            self.broadcast.handle(src, msg)
        else:
            handler(self, src, msg)

    def _on_forward_settled(self, src: str, msg: ForwardSettled) -> None:
        self._relayed.pop((msg.client_node, msg.xid), None)

    def _on_session_ping(self, src: str, msg: SessionPing) -> None:
        self.heartbeats.touch(msg.session_id, self.env.now)

    def _on_lease_message(self, src: str, msg: object) -> None:
        if self.leases is not None:
            self.leases.receive(src, msg)

    def _on_four_letter_request(self, src: str,
                                msg: FourLetterRequest) -> None:
        self.net.send(self.node_id, src, FourLetterReply(
            msg.xid, msg.command, self._four_letter(msg.command)))

    # -- client requests ---------------------------------------------------

    def _fence_expired(self, session_id: int, op: Op) -> bool:
        """True when the request must be rejected with ``SESSION_EXPIRED``.

        Fencing keys on the *recorded* closed-set (plus, at the leader,
        the proposed-but-unapplied closing set) — never on mere table
        absence, which on a lagging replica just means the session's
        creation has not applied yet. ``CloseSessionOp`` is exempt so a
        client retrying its own close still gets an answer.
        """
        if not session_id:
            return False
        if op.__class__ is CloseSessionOp:
            return False
        if self.sessions.is_closed(session_id):
            return True
        return session_id in self._closing_sessions and self.broadcast.is_leader

    def _on_client_request(self, src: str, req: ClientRequest) -> None:
        op = req.op
        route = _OP_ROUTES.get(op.__class__, _READ)
        obs = self.env.obs
        if obs is not None and obs.tracer is not None and route is not _PING:
            obs.tracer.mark(src, req.xid, M_INGRESS, self.env.now,
                            self.node_id)
        if self._fence_expired(req.session_id, op):
            self._reply(src, ClientReply(
                req.xid, False, None, SessionExpiredError.code,
                f"session {req.session_id} expired"))
            return
        if route is _PING:
            self._on_ping(src, req)
            return
        meta = RequestMeta(self.node_id, src, req.session_id, req.xid)
        if route is _SYNC:
            # ZooKeeper ``sync``: a flush to the leader with no txn.
            self.local_sessions[req.session_id] = src
            self._to_leader(meta, req)
            return
        routed_by_extension = (
            self.extensions is not None
            and self.extensions.consumes(str(req.session_id), op))
        if route is _UPDATE or routed_by_extension:
            self.local_sessions[req.session_id] = src
            if obs is not None:
                obs.metrics.inc("zk.writes", self.node_id)
            self._to_leader(meta, req)
        else:
            self._handle_read(meta, op, getattr(req, "last_zxid", 0),
                              wants_lease=(self.leases is not None
                                           and req.__class__
                                           is LeaseClientRequest))

    def _on_ping(self, src: str, req: ClientRequest) -> None:
        self.local_sessions.setdefault(req.session_id, src)
        if self.broadcast.is_leader:
            self.heartbeats.touch(req.session_id, self.env.now)
        elif self.broadcast.leader_id is not None:
            self.net.send(self.node_id, self.broadcast.leader_id,
                          SessionPing(req.session_id))
        self._reply(src, ClientReply(req.xid, ok=True, value="pong"))

    def _to_leader(self, meta: RequestMeta, req: ClientRequest) -> None:
        """Run a local client's update or sync here if we lead, else
        relay it to the leader and remember it until it is settled."""
        if self.broadcast.is_leader:
            self._lead(meta, req.op)
            return
        leader = self.broadcast.leader_id
        if leader is None:
            self._reply_error(meta, ConnectionLossError("no leader known"))
            return
        self._relayed[(meta.client_node, meta.xid)] = (
            req, self.env.now, leader, self.broadcast.leadership_epoch)
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("zk.forwards", self.node_id)
        self.net.send(self.node_id, leader,
                      Forward(req, self.node_id, meta.client_node))

    def _lead(self, meta: RequestMeta, op: Op) -> None:
        """Leader ingress for an update or sync, local or forwarded."""
        if op.__class__ is SyncOp:
            self._answer_sync(meta)
        else:
            self._enter_prep(meta, op)

    def _on_forward(self, src: str, fwd: Forward) -> None:
        meta = RequestMeta(fwd.origin_replica, fwd.client_node,
                           fwd.request.session_id, fwd.request.xid)
        if not self.broadcast.is_leader:
            # Stale forward (leadership moved): bounce an error so the
            # client retries against the new topology.
            self._reply_error(meta, ConnectionLossError("not the leader"))
            return
        if self._fence_expired(meta.session_id, fwd.request.op):
            self._reply_error(meta, SessionExpiredError(
                f"session {meta.session_id} expired"))
            return
        self._lead(meta, fwd.request.op)

    def _reroute_stranded(self) -> None:
        """Leadership moved: settle every request waiting on the old one.

        Requests this replica relayed for its own clients go, in xid
        order, wherever :meth:`_to_leader` now sends them — into prep if
        we lead, to the new leader, or back to the client when nobody
        leads. A request the old leader did replicate is in the new
        leader's log, so its at-most-once guard answers it instead of
        running it twice.
        """
        if not self._relayed:
            return
        # A kernel may also report a mere resync with the leader we
        # already follow; what is addressed to it is still in flight.
        leading = self.broadcast.is_leader
        current = (self.broadcast.leader_id, self.broadcast.leadership_epoch)
        stranded = sorted((item for item in self._relayed.items()
                           if leading or item[1][2:] != current),
                          key=lambda item: item[0][1])
        obs = self.env.obs
        rerouted = current[0] is not None
        for (client_node, xid), (req, relayed_at, _, _) in stranded:
            del self._relayed[(client_node, xid)]
            if obs is not None:
                obs.metrics.inc("zk.forwards_rerouted" if rerouted
                                else "zk.forwards_bounced", self.node_id)
                if obs.tracer is not None:
                    obs.tracer.aux(client_node, xid, "reroute", relayed_at,
                                   self.env.now, self.node_id,
                                   detail=f"to={self.broadcast.leader_id}")
            self._to_leader(RequestMeta(self.node_id, client_node,
                                        req.session_id, xid), req)

    # -- sync (leader round-trip, no txn) -----------------------------------

    def _answer_sync(self, meta: RequestMeta) -> None:
        """Leader side: answer with the current commit point.

        The reply's value (and zxid stamp) is the leader's committed
        zxid when the sync reached it; a read parked on that zxid
        observes every write that completed before the sync was issued.
        """
        self.heartbeats.touch(meta.session_id, self.env.now)
        self.cpu.submit(self.timings.read_execute_ms, self._finish_sync, meta)

    def _finish_sync(self, meta: RequestMeta) -> None:
        if not self._alive:
            return
        if not self.broadcast.is_leader:
            self._reply_error(meta, ConnectionLossError("leadership moved"))
            return
        zxid = self.broadcast.sync_barrier()
        self._answer(meta, ZxidReply(meta.xid, True, zxid, zxid=zxid))

    # -- read fast path ------------------------------------------------------

    def _handle_read(self, meta: RequestMeta, op: Op,
                     last_zxid: int = 0, wants_lease: bool = False) -> None:
        self.local_sessions[meta.session_id] = meta.client_node
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("zk.reads", self.node_id)
        if self.config.local_reads:
            # Session consistency: never serve a state older than what
            # this session has already seen (request stamp) or what this
            # replica has already served it (local floor).
            required = max(last_zxid, self.read_floors.floor(meta.session_id))
            if required > self._applied_zxid:
                self._parked_reads.append((required, meta, op, wants_lease))
                return
        self._submit_read(meta, op, wants_lease)

    def _submit_read(self, meta: RequestMeta, op: Op,
                     wants_lease: bool = False) -> None:
        self.cpu.submit(self.timings.read_execute_ms, self._execute_read,
                        meta, op, wants_lease)

    def _drain_parked_reads(self) -> None:
        """Run every parked read the applied state now satisfies."""
        applied = self._applied_zxid
        still_parked = []
        for entry in self._parked_reads:
            if entry[0] <= applied:
                self._submit_read(entry[1], entry[2], entry[3])
            else:
                still_parked.append(entry)
        self._parked_reads = still_parked

    def _execute_read(self, meta: RequestMeta, op: Op,
                      wants_lease: bool = False) -> None:
        if not self._alive:
            return
        try:
            if isinstance(op, GetDataOp):
                data, stat = self.tree.get_data(op.path)
                if op.watch:
                    self.watches.add_data_watch(op.path, meta.session_id)
                value = (data, stat)
            elif isinstance(op, ExistsOp):
                stat = self.tree.exists(op.path)
                if op.watch:
                    self.watches.add_data_watch(op.path, meta.session_id)
                value = stat
            elif isinstance(op, GetChildrenOp):
                children = self.tree.get_children(op.path)
                if op.watch:
                    self.watches.add_child_watch(op.path, meta.session_id)
                value = children
            else:
                raise ZkError(f"not a read operation: {op!r}")
        except ZkError as error:
            self._reply_error(meta, error)
            return
        if wants_lease and self.leases.reply(meta, op, value):
            return
        self._succeed(meta, value, self._applied_zxid)

    # -- prep stage (leader) -----------------------------------------------

    def _enter_prep(self, meta: RequestMeta, op: Op) -> None:
        self.heartbeats.touch(meta.session_id, self.env.now)
        self.cpu.submit(self.timings.prep_ms + self.timings.log_write_ms,
                        self._prep, meta, op)

    def _prep(self, meta: RequestMeta, op: Op) -> None:
        if not self._alive:
            return
        if not self.broadcast.is_leader:
            self._reply_error(meta, ConnectionLossError("leadership moved"))
            return
        spec = self._spec_tree
        assert spec is not None, "established leader must have a spec tree"

        # At-most-once guard: a timed-out client retries with the same
        # xid via another replica, and a forward stranded in a partition
        # can surface again after the heal. Whichever copy arrives
        # second must not re-run the update (a second /queue/head
        # extension call would silently eat another element); answer it
        # from the already-proposed transaction instead.
        xids = self._proposed_xids.get(meta.client_node)
        proposed = None if xids is None else xids.get(meta.xid)
        if proposed is not None:
            self._answer_duplicate(meta, proposed)
            return

        # The session may have expired between routing and this prep
        # slot (the expiry sweep runs between CPU grants): fence here
        # too, so no update for a closing session enters the pipeline
        # after its CloseSessionTxn.
        if self._fence_expired(meta.session_id, op):
            self._reply_error(meta, SessionExpiredError(
                f"session {meta.session_id} expired"))
            return

        txn = None
        if self.extensions is not None:
            try:
                txn = self.extensions.intercept(meta, op)
            except ZkError as error:
                self._reply_error(meta, error)
                return
            if txn is not None:
                # The extension wrote the speculative tree; its write-set
                # is proposed in this same event, so the next prep sees
                # it (atomicity under pipelining). The extra leader CPU
                # it consumed is billed as a queue item — only on the
                # matched path, so regular clients see none of it
                # (§6.2's <0.4% overhead claim).
                self.cpu.submit(self.timings.extension_exec_ms)
        if txn is None:
            try:
                txn = self._translate(meta, op, spec)
            except ZkError as error:
                # Faithful to ZooKeeper: rejected updates still travel
                # the ordered pipeline as error transactions (which
                # change no tree).
                txn = ErrorTxn(to_code(error), str(error))
        zxid = self._propose(txn, meta)
        ProposedXids.of(self._proposed_xids, meta.client_node)[meta.xid] = zxid
        self._mark_propose(meta, zxid)

    def _propose(self, txn: Txn, meta: Optional[RequestMeta]) -> int:
        """The leader's one propose site: client updates, extension
        rewrites, event-extension writes and expiry closes all end here.

        Whoever made ``txn`` already wrote it into the speculative tree,
        stamped with the zxid the propose() below assigns; only a
        session close reaches that tree here. Its commit is fenced
        behind the leases on what it writes, and it is proposed, all in
        one event. The fence comes first, while the spec still holds
        what a session close deletes.
        """
        broadcast = self.broadcast
        if self.leases is not None:
            self.leases.fence_commit(txn, broadcast.next_zxid, meta)
        if txn.__class__ is CloseSessionTxn:
            self._spec_tree.kill_session(txn.session_id)
        return broadcast.propose(txn, meta)

    def _mark_propose(self, meta: RequestMeta, zxid: int) -> None:
        obs = self.env.obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.mark(meta.client_node, meta.xid, M_PROPOSE,
                            self.env.now, self.node_id,
                            epoch=self.broadcast.leadership_epoch,
                            zxid=zxid)

    def _answer_duplicate(self, meta: RequestMeta, zxid: int) -> None:
        """Answer a retried update from its already-proposed txn record.

        If the record has not applied locally yet, repointing its meta
        at the retry's origin makes :meth:`_after_apply` send the reply
        through the replica the client is *now* connected to. If it has
        applied, the reply is re-derived from the committed txn.
        """
        record = self.broadcast.record(zxid)
        if record is None:
            return
        if zxid > self._applied_zxid:
            record.repoint(meta)
            return
        txn = record.txn
        if isinstance(txn, ErrorTxn):
            self._reply_error(meta, from_code(txn.code, txn.message))
            return
        if isinstance(txn, MultiTxn):
            blocks = [e[1] for e in txn.effects if e[0] == "block"]
            if blocks:
                for path in blocks:
                    self._register_deferred_block(meta, path)
                return
            value: Any = txn.result_payload if txn.payload_set else None
        elif isinstance(txn, CreateTxn):
            value = txn.path
        elif isinstance(txn, SetDataTxn):
            # Best effort: the stat at apply time is gone; the current
            # one keeps version-based cas loops progressing.
            value = self.tree.exists(txn.path)
        elif isinstance(txn, CreateSessionTxn):
            value = record.zxid
        elif isinstance(txn, CloseSessionTxn):
            value = True
        else:
            value = None
        self._succeed(meta, value, zxid)

    def _translate(self, meta: RequestMeta, op: Op, spec: DataTree) -> Txn:
        """Turn a validated update op into a deterministic txn, writing
        it into the speculative tree ``spec`` (a session op leaves that
        to :meth:`_propose`). A ``MultiOp`` writes its sub-ops under a
        savepoint, so a failing one leaves ``spec`` as it was."""
        if isinstance(op, (CreateOp, SetDataOp, DeleteOp)):
            return self._write(meta, op, spec)
        if isinstance(op, MultiOp):
            spec.savepoint()
            try:
                txns = [self._write(meta, sub, spec) for sub in op.ops]
            except ZkError:
                spec.rollback()
                raise
            spec.release()
            return MultiTxn(txns)
        if isinstance(op, CreateSessionOp):
            return CreateSessionTxn(0, op.timeout_ms, op.client_id)
        if isinstance(op, CloseSessionOp):
            # Exactly-once close: a close raced by the expiry sweep (or
            # a duplicate from a new connection) must not propose a
            # second CloseSessionTxn.
            if (meta.session_id in self._closing_sessions
                    or meta.session_id not in self.sessions):
                raise SessionExpiredError(
                    f"session {meta.session_id} already closed")
            self._closing_sessions.add(meta.session_id)
            return CloseSessionTxn(meta.session_id)
        raise ZkError(f"unknown update operation: {op!r}")

    def _write(self, meta: RequestMeta, op: Op, spec: DataTree) -> Txn:
        """Write one create, set or delete into ``spec``; its txn.

        Stamped with the zxid the upcoming propose() will assign: czxid
        order in the spec tree must match the authoritative tree, or
        extensions that list by creation order ("oldest client")
        silently degrade to name order.
        """
        zxid, now = self.broadcast.next_zxid, self.env.now
        if isinstance(op, CreateOp):
            owner = meta.session_id if op.ephemeral else None
            actual = spec.create(op.path, op.data, ephemeral_owner=owner,
                                 sequential=op.sequential, zxid=zxid, now=now)
            return CreateTxn(actual, op.data, owner)
        if isinstance(op, SetDataOp):
            spec.set_data(op.path, op.data, op.version, zxid=zxid, now=now)
            return SetDataTxn(op.path, op.data)
        if isinstance(op, DeleteOp):
            spec.delete(op.path, op.version)
            return DeleteTxn(op.path)
        raise ZkError(f"op not allowed in multi: {op!r}")

    def _on_role_change(self) -> None:
        if self.leases is not None:
            self.leases.on_role_change()
        if self.broadcast.is_leader:
            self._spec_tree = _copy_tree(self.tree)
            # Carry the at-most-once guard across elections: retries of
            # updates the *previous* leader proposed arrive here with
            # the same (client, xid) and must not re-execute.
            proposed: Dict[str, ProposedXids] = {}
            for record in self.broadcast.log:
                meta = record.meta
                if meta is not None:
                    ProposedXids.of(proposed, meta.client_node)[meta.xid] = (
                        record.zxid)
            self._proposed_xids = proposed
            for session_id in self.sessions.ids():
                session = self.sessions.get(session_id)
                self.heartbeats.track(session_id, session.timeout_ms,
                                      self.env.now)
            # Uncommitted closes died with the old leadership; committed
            # ones are visible through the session table.
            self._closing_sessions = set()
        else:
            self._spec_tree = None
            self._proposed_xids = {}
            self._closing_sessions = set()
        self._reroute_stranded()

    # -- final stage (every replica) ----------------------------------------

    def _on_deliver(self, record: TxnRecord) -> None:
        obs = self.env.obs
        if (obs is not None and obs.tracer is not None
                and record.meta is not None
                and record.meta.origin_replica == self.node_id):
            obs.tracer.mark(record.meta.client_node, record.meta.xid,
                            M_DELIVER, self.env.now, self.node_id,
                            epoch=self.broadcast.leadership_epoch,
                            zxid=record.zxid)
        if self._relayed and record.meta is not None:
            # Settled: from here the reply (even a deferred ``block``
            # one) is ours to send, whoever leads.
            self._relayed.pop((record.meta.client_node, record.meta.xid),
                              None)
        result, error, events = self._apply(record)
        if record.zxid > self._applied_zxid:
            self._applied_zxid = record.zxid
        if self._parked_reads:
            self._drain_parked_reads()
        self.cpu.submit(self.timings.apply_ms, self._after_apply,
                        record, result, error, events)

    def _apply(self, record: TxnRecord
               ) -> Tuple[Any, Optional[ZkError], List[StateEvent]]:
        """Mutate replicated state; returns (result, error, state events)."""
        txn = record.txn
        events: List[StateEvent] = []
        apply_to_tree = _TREE_APPLIERS.get(txn.__class__)
        try:
            if apply_to_tree is None:
                apply_here = _SERVER_APPLIERS.get(txn.__class__)
                if apply_here is None:
                    raise ZkError(f"unknown txn: {txn!r}")
                return apply_here(self, record, events)
            result = apply_to_tree(self.tree, txn, record.zxid, self.env.now,
                                   events)
        except ZkError as error:
            # Should not happen (prep validated); surface as an error reply.
            return (None, error, events)
        meta = record.meta
        if meta is not None:
            for event in events:
                event.origin_session = meta.session_id
        return (result, None, events)

    # One applier per txn class whose effect lies outside the tree,
    # dispatched from _apply; all share its (record, events) signature.

    def _apply_error(self, record: TxnRecord, events: List[StateEvent]):
        txn = record.txn
        return (None, from_code(txn.code, txn.message), events)

    def _apply_create_session(self, record: TxnRecord,
                              events: List[StateEvent]):
        txn = record.txn
        session_id = record.zxid
        self.sessions.create(session_id, txn.timeout_ms, txn.client_id)
        if self.broadcast.is_leader:
            self.heartbeats.track(session_id, txn.timeout_ms, self.env.now)
        meta = record.meta
        if meta is not None and meta.origin_replica == self.node_id:
            self.local_sessions[session_id] = meta.client_node
        return (session_id, None, events)

    def _apply_close_session(self, record: TxnRecord,
                             events: List[StateEvent]):
        self._close_session(record.txn.session_id, events)
        return (True, None, events)

    def _close_session(self, session_id: int, events: List[StateEvent]) -> None:
        if session_id not in self.sessions:
            # Duplicate CloseSessionTxn (a pre-guard leader's expiry
            # sweep racing a client close): the reap already happened,
            # applying again must be a no-op so ephemerals are deleted
            # exactly once.
            return
        self.sessions.close(session_id)
        self.heartbeats.forget(session_id)
        self.read_floors.forget(session_id)
        doomed = self.tree.kill_session(session_id)
        for path in doomed:
            events.append(StateEvent(EventType.NODE_DELETED, path))
        self.watches.remove_session(session_id)
        self.local_sessions.pop(session_id, None)

    def _after_apply(self, record: TxnRecord, result: Any,
                     error: Optional[ZkError],
                     events: List[StateEvent]) -> None:
        if not self._alive:
            return
        # 1. Event extensions (leader executes; every replica may suppress).
        if self.extensions is not None and events:
            self.extensions.on_events(events)
        self._settled_zxid = record.zxid
        # 2. Watches + deferred block replies for locally-connected clients.
        self._fire_watches(events, record.zxid)
        # 3. Reply to the originating client.
        meta = record.meta
        if meta is None or meta.origin_replica != self.node_id:
            return
        txn = record.txn
        multi = txn.__class__ is MultiTxn
        if multi and txn.effects and any(effect[0] == "block"
                                         for effect in txn.effects):
            for effect in txn.effects:
                if effect[0] == "block":
                    self._register_deferred_block(meta, effect[1])
            return
        if error is not None:
            self._reply_error(meta, error)
        else:
            self._succeed(meta, txn.result_payload
                          if multi and txn.payload_set else result,
                          record.zxid)

    def _register_deferred_block(self, meta: RequestMeta, path: str) -> None:
        """Defer the reply to ``meta`` until ``path`` is created.

        If the path already exists (the event raced the registration), the
        reply goes out immediately — the paper's block() semantics.
        """
        if self.tree.exists(path) is not None:
            self._reply(meta.client_node,
                        ClientReply(meta.xid, True, ("unblocked", path)))
            return
        self._deferred_blocks.setdefault(path, []).append(
            (meta.session_id, meta.xid, meta.client_node))

    def _fire_watches(self, events: List[StateEvent], zxid: int = 0) -> None:
        if not (self.watches.armed or self._deferred_blocks):
            return                # nothing can fire: no watch, no block
        notifications: List[Tuple[int, WatchEvent]] = []
        for event in events:
            notifications.extend(
                self.watches.trigger(event.path, event.event_type))
            if event.event_type in (EventType.NODE_CREATED,
                                    EventType.NODE_DELETED):
                parent, _ = split_path(event.path)
                notifications.extend(self.watches.trigger_children(parent))
            if event.event_type is EventType.NODE_CREATED:
                for session_id, xid, client in self._deferred_blocks.pop(
                        event.path, ()):
                    self._reply(client, ClientReply(
                        xid, True, ("unblocked", event.path)))
        obs = self.env.obs
        for session_id, watch_event in notifications:
            if (self.extensions is not None
                    and self.extensions.suppresses(session_id, watch_event)):
                continue
            client = self.local_sessions.get(session_id)
            if client is None:
                continue
            if obs is not None:
                obs.metrics.inc("zk.watch_deliveries", self.node_id)
            if self.config.local_reads:
                # Stamp the triggering txn's zxid so a read issued after
                # the notification (even at another replica) observes the
                # change the client was notified about.
                self._reply(client, ZxidWatchNotification(
                    session_id, watch_event.event_type.value,
                    watch_event.path, zxid=zxid))
                continue
            self._reply(client, WatchNotification(
                session_id, watch_event.event_type.value,
                watch_event.path))

    # -- session expiry (leader duty) ------------------------------------------

    def _expiry_loop(self):
        while True:
            yield self.env.timeout(EXPIRY_SWEEP_MS)
            if not self._alive or not self.broadcast.is_leader:
                self._expiry_paused = True
                if self._relayed:
                    # What no record, reply or notice ever settled (a
                    # forward lost to a partition the kernel rode out):
                    # the client has long since retried it.
                    horizon = self.env.now - _RELAY_TTL_MS
                    self._relayed = {
                        key: entry for key, entry in self._relayed.items()
                        if entry[1] > horizon}
                continue
            if self._expiry_paused:
                # First healthy sweep after a crash or a spell out of
                # leadership: rebase instead of expiring, so clients
                # whose pings had no leader to reach during the election
                # window get one fresh timeout to re-establish.
                self.heartbeats.rebase(self.env.now)
                self._expiry_paused = False
                continue
            for session_id in self.heartbeats.expired(self.env.now):
                self.heartbeats.forget(session_id)
                if (session_id in self.sessions
                        and session_id not in self._closing_sessions):
                    self._closing_sessions.add(session_id)
                    obs = self.env.obs
                    if obs is not None:
                        obs.metrics.inc("sessions.expired", self.node_id)
                    self._propose(CloseSessionTxn(session_id), None)

    # -- introspection (four-letter words) -----------------------------------

    def _four_letter(self, command: str) -> str:
        """Answer one diagnostic command (``ruok``/``stat``/``mntr``/``wchs``).

        Mirrors ZooKeeper's four-letter words: plain text, answerable by
        any live replica, describing only *this* replica's view.
        """
        if command == "ruok":
            return "imok"
        role = ("observer" if self.is_observer
                else "leader" if self.broadcast.is_leader else "follower")
        if command == "stat":
            lines = [
                f"node: {self.node_id}",
                f"mode: {role}",
                f"kernel: {self.config.kernel}",
                f"epoch: {self.broadcast.leadership_epoch}",
                f"zxid: {self._applied_zxid:#x}",
                f"sessions: {len(self.sessions)}",
                f"parked_reads: {len(self._parked_reads)}",
                f"outstanding_forwards: {len(self._relayed)}",
            ]
            return "\n".join(lines)
        if command == "mntr":
            lines = [
                f"zk_server_state\t{role}",
                f"zk_applied_zxid\t{self._applied_zxid}",
                f"zk_epoch\t{self.broadcast.leadership_epoch}",
                f"zk_sessions\t{len(self.sessions)}",
                f"zk_outstanding_forwards\t{len(self._relayed)}",
            ]
            obs = self.env.obs
            if obs is not None:
                lines += obs.metrics.mntr_lines(self.node_id)
            return "\n".join(lines)
        if command == "wchs":
            paths, total = self.watches.counts()
            return f"{paths} paths watched\nTotal watches: {total}"
        return f"unknown command: {command!r}"

    # -- replies -----------------------------------------------------------

    def _reply(self, client_node: str, payload: object) -> None:
        if self._relayed and isinstance(payload, ClientReply):
            # Whatever answers the client settles the request it names.
            self._relayed.pop((client_node, payload.xid), None)
        obs = self.env.obs
        if obs is not None and obs.tracer is not None \
                and isinstance(payload, ClientReply):
            # Watch pushes are keyed by session, not xid — only request
            # replies close a trace's server-side span.
            obs.tracer.mark(client_node, payload.xid, M_REPLY,
                            self.env.now, self.node_id)
        self.net.send(self.node_id, client_node, payload)

    def _answer(self, meta: RequestMeta, reply: ClientReply) -> None:
        """Answer ``meta``'s client from here.

        A forwarded request answered here, at the leader, ends without a
        record applying at its origin to settle it, so the origin is
        told separately (see :class:`ForwardSettled`).
        """
        self._reply(meta.client_node, reply)
        if meta.origin_replica != self.node_id:
            self.net.send(self.node_id, meta.origin_replica,
                          ForwardSettled(meta.client_node, meta.xid))

    def _succeed(self, meta: RequestMeta, value: Any, zxid: int,
                 reply: Optional[ClientReply] = None) -> None:
        """The one success tail: answer ``meta`` with ``value`` as of
        ``zxid`` (a read's applied state, a write's own txn).

        With local reads on, ``zxid`` becomes the session's read floor
        here and rides the reply, so a later read at any replica
        observes it (session 0 = a CreateSession request: the floor
        belongs to the new session, carried by the client). ``reply``
        replaces the default envelope (a lease grant).
        """
        if self.config.local_reads:
            if meta.session_id:
                self.read_floors.note(meta.session_id, zxid)
            if reply is None:
                reply = ZxidReply(meta.xid, True, value, zxid=zxid)
        elif reply is None:
            reply = ClientReply(meta.xid, True, value)
        self._answer(meta, reply)

    def _reply_error(self, meta: RequestMeta, error: ZkError) -> None:
        self._answer(meta, ClientReply(
            meta.xid, False, None, to_code(error), str(error)))


# ---------------------------------------------------------------------------
# Shared txn application
# ---------------------------------------------------------------------------

def _copy_tree(tree: DataTree) -> DataTree:
    copy = DataTree()
    copy.restore(tree.snapshot())
    return copy


def _apply_txn_to_tree(tree: DataTree, txn: Txn, zxid: int, now: float,
                       events: Optional[List[StateEvent]] = None) -> Any:
    """Apply one tree txn; optionally collect state events. Returns the
    result."""
    apply = _TREE_APPLIERS.get(txn.__class__)
    if apply is None:
        raise ZkError(f"unknown txn: {txn!r}")
    return apply(tree, txn, zxid, now, events)


# One tree applier per txn class; all share the signature
# (tree, txn, zxid, now, events) and append state events when
# ``events`` is a list.

def _apply_create(tree, txn, zxid, now, events):
    actual = tree.create(txn.path, txn.data,
                         ephemeral_owner=txn.ephemeral_owner,
                         zxid=zxid, now=now)
    if events is not None:
        events.append(StateEvent(EventType.NODE_CREATED, actual, txn.data))
    return actual


def _apply_set_data(tree, txn, zxid, now, events):
    stat = tree.set_data(txn.path, txn.data, version=-1, zxid=zxid, now=now)
    if events is not None:
        events.append(StateEvent(EventType.NODE_DATA_CHANGED, txn.path,
                                 txn.data))
    return stat


def _apply_delete(tree, txn, zxid, now, events):
    tree.delete(txn.path, version=-1)
    if events is not None:
        events.append(StateEvent(EventType.NODE_DELETED, txn.path))
    return None


def _apply_multi(tree, txn, zxid, now, events):
    return [_apply_txn_to_tree(tree, sub, zxid, now, events)
            for sub in txn.txns]


#: Txns that change the committed tree: :meth:`ZkServer._apply` looks
#: here first, since nearly every committed txn is one of these.
_TREE_APPLIERS = {
    CreateTxn: _apply_create,
    SetDataTxn: _apply_set_data,
    DeleteTxn: _apply_delete,
    MultiTxn: _apply_multi,
}

#: Txns :meth:`ZkServer._apply` hands to the server rather than the tree.
_SERVER_APPLIERS = {
    ErrorTxn: ZkServer._apply_error,
    CreateSessionTxn: ZkServer._apply_create_session,
    CloseSessionTxn: ZkServer._apply_close_session,
}

#: Exact-type dispatch for :meth:`ZkServer.handle_message`; anything
#: else is a message for the consensus kernel (``ZkServer.broadcast``).
_INBOX = {
    ClientRequest: ZkServer._on_client_request,
    ZxidClientRequest: ZkServer._on_client_request,
    LeaseClientRequest: ZkServer._on_client_request,
    Forward: ZkServer._on_forward,
    ForwardSettled: ZkServer._on_forward_settled,
    SessionPing: ZkServer._on_session_ping,
    **dict.fromkeys(LEASE_MESSAGES, ZkServer._on_lease_message),
    FourLetterRequest: ZkServer._on_four_letter_request,
}

# How _on_client_request routes a client op, by exact type; anything
# unlisted takes the read path (which rejects non-reads).
_PING, _SYNC, _UPDATE, _READ = "ping", "sync", "update", "read"
_OP_ROUTES = {
    PingOp: _PING,
    SyncOp: _SYNC,
    CreateOp: _UPDATE,
    DeleteOp: _UPDATE,
    SetDataOp: _UPDATE,
    MultiOp: _UPDATE,
    CreateSessionOp: _UPDATE,
    CloseSessionOp: _UPDATE,
}
