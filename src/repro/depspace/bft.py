"""PBFT-style total-order broadcast (the BFT-SMaRt stand-in).

DepSpace replicas (``n = 3f + 1``) agree on a single execution order:

* clients multicast requests to **all** replicas (this is what makes
  DepSpace clients send ~n× more data than ZooKeeper clients in the
  paper's Figures 8 and 10);
* the view's **primary** assigns sequence numbers and an agreed
  timestamp, broadcasting PRE-PREPARE;
* replicas exchange PREPARE (quorum ``2f`` + the pre-prepare) and then
  COMMIT (quorum ``2f + 1``), after which the request executes, in
  sequence order, exactly once per replica (client-level dedup included);
* every replica replies; clients accept a result once ``f + 1`` replies
  match (Byzantine answer masking happens at the client).

View changes are simplified: when a replica sees a request sit
unexecuted past a timeout it votes for view ``v + 1``; once ``2f + 1``
votes accumulate, the new primary re-proposes everything pending.
Checkpoint-based garbage collection and the full new-view proof are
omitted — they do not affect the measured behaviour at simulation scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..obs import M_DELIVER, M_PROPOSE
from ..sim import Environment

__all__ = ["BftConfig", "BftPeer", "BftRequest", "mark_ordering"]


@dataclass
class BftConfig:
    request_timeout_ms: float = 400.0
    sweep_interval_ms: float = 100.0
    #: period of the (view, last-executed) gossip — PBFT's checkpoint
    #: stand-in, needed for liveness under partitions (an idle healed
    #: replica never otherwise learns it is behind). 0 disables it;
    #: off by default so benign-network figure metrics stay
    #: bit-identical to the seed (the chaos ensembles turn it on).
    status_interval_ms: float = 0.0


# -- messages -----------------------------------------------------------------

@dataclass(frozen=True)
class RequestId:
    client_id: str
    seq: int


@dataclass
class BftRequest:
    """Client request as it travels the ordering protocol.

    Requests are immutable and travel many times — the client multicasts
    one request object to all ``n`` replicas, and the primary re-ships it
    inside PRE-PREPARE — so the wire-size estimate is cached.
    """

    request_id: RequestId
    op: Any
    _wire_size: Optional[int] = field(default=None, repr=False, compare=False)

    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            from ..sim import estimate_size
            # Mirrors the generic dataclass estimate for the real fields.
            size = 2 + estimate_size(self.request_id) + estimate_size(self.op)
            self._wire_size = size
        return size


@dataclass
class PrePrepare:
    view: int
    seq: int
    ts: float
    request: BftRequest


@dataclass
class Prepare:
    view: int
    seq: int
    request_id: RequestId
    replica_id: str


@dataclass
class Commit:
    view: int
    seq: int
    request_id: RequestId
    replica_id: str


@dataclass
class ViewChange:
    new_view: int
    last_executed: int
    replica_id: str


@dataclass
class NewView:
    view: int


@dataclass
class Status:
    """Periodic (view, last-executed) gossip — the stand-in for PBFT's
    checkpoint messages. Without it a replica healed from a partition
    after the last client request never learns it missed anything."""
    view: int
    exec_seq: int


@dataclass
class _Slot:
    view: int
    request: Optional[BftRequest] = None
    ts: float = 0.0
    prepares: Set[str] = field(default_factory=set)
    commits: Set[str] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


def mark_ordering(obs, request_id: RequestId, phase: str, now: float,
                  node_id: str, epoch: int, seq: int) -> None:
    """Stamp an ordering milestone on the request's trace.

    ``propose`` is the primary/leader sequencing the request, ``deliver``
    a replica handing the agreed request to execution; the first of each
    bounds the trace's broadcast and quorum phases like Zab's and Raft's
    marks do in the zk family. Callers test ``env.obs is not None``
    first, so an unobserved run pays one attribute read per site.
    """
    if obs.tracer is not None:
        obs.tracer.mark(request_id.client_id, request_id.seq, phase,
                        now, node_id, epoch=epoch, zxid=seq)


class BftPeer:
    """One replica's endpoint of the ordering protocol."""

    def __init__(self, env: Environment, node_id: str, replica_ids: List[str],
                 send: Callable[[str, object], None],
                 execute: Callable[[BftRequest, float], None],
                 config: Optional[BftConfig] = None,
                 send_many: Optional[
                     Callable[[List[str], object], None]] = None):
        self.env = env
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self.n = len(replica_ids)
        self.f = (self.n - 1) // 3
        if self.n < 3 * self.f + 1 or self.f < 1:
            raise ValueError("BFT requires n = 3f + 1 with f >= 1")
        self._send = send
        self._send_many = send_many
        self._execute = execute
        #: everyone but us — the all-to-all fan-out destination list.
        self._others = [r for r in self.replica_ids if r != node_id]
        self.config = config or BftConfig()

        self.view = 0
        self._next_seq = 0          # primary: next sequence to assign
        self._exec_seq = 0          # all: last executed sequence
        self._slots: Dict[int, _Slot] = {}
        #: requests seen but not yet executed (for re-proposal + timeouts).
        self._pending: Dict[RequestId, Tuple[BftRequest, float]] = {}
        #: primary: request ids proposed but not yet executed.
        self._proposed_ids: Set[RequestId] = set()
        self._executed_ids: Set[RequestId] = set()
        self._view_votes: Dict[int, Dict[str, int]] = {}
        #: server hook: we are missing executions up to seq; fetch state.
        self.on_gap: Optional[Callable[[int], None]] = None
        #: highest sequence number seen in any protocol message — runs
        #: ahead of ``_exec_seq`` while we are missing slots for good.
        self._max_seen_seq = 0
        #: ``_exec_seq`` at the previous stall check (gap detection).
        self._stall_exec_seq = -1
        self._last_status = 0.0
        #: False while ``_exec_seq`` overstates the actually-applied
        #: state (a view-change horizon skip, healed by state transfer).
        self.exec_truthful = True
        self._alive = True
        env.process(self._timeout_sweep())

    # -- role ----------------------------------------------------------------

    @property
    def primary_id(self) -> str:
        return self.replica_ids[self.view % self.n]

    @property
    def is_primary(self) -> bool:
        return self.primary_id == self.node_id

    @property
    def leadership_epoch(self) -> int:
        """Fencing token per the :class:`~repro.core.broadcast.AtomicBroadcast`
        contract: views count from 0, epochs from 1."""
        return self.view + 1

    def _fan_out(self, msg: object) -> None:
        """Send ``msg`` to every other replica.

        With a batched ``send_many`` transport the payload is sized once
        for the whole all-to-all round; destinations, ordering, and
        per-destination latency draws match the sequential loop.
        """
        if self._send_many is not None:
            self._send_many(self._others, msg)
            return
        for replica in self._others:
            self._send(replica, msg)

    def crash(self) -> None:
        self._alive = False

    def recover(self) -> None:
        self._alive = True
        self.env.process(self._timeout_sweep())

    # -- client requests ---------------------------------------------------------

    def on_request(self, request: BftRequest) -> None:
        """A client request arrived at this replica (clients send to all)."""
        if not self._alive:
            return
        if request.request_id in self._executed_ids:
            return
        if request.request_id not in self._pending:
            self._pending[request.request_id] = (request, self.env.now)
        if self.is_primary:
            self._propose(request)

    def _propose(self, request: BftRequest) -> None:
        if request.request_id in self._proposed_ids:
            return
        self._proposed_ids.add(request.request_id)
        self._next_seq += 1
        seq = self._next_seq
        msg = PrePrepare(self.view, seq, self.env.now, request)
        slot = self._slot(seq)
        assert slot is not None, "primary assigned an already-executed seq"
        slot.request = request
        slot.ts = msg.ts
        slot.prepares.add(self.node_id)   # pre-prepare counts as the
        self._fan_out(msg)                # primary's prepare
        obs = self.env.obs
        if obs is not None:
            mark_ordering(obs, request.request_id, M_PROPOSE, self.env.now,
                          self.node_id, self.leadership_epoch, seq)

    # -- protocol messages --------------------------------------------------

    def handle(self, src: str, msg: object) -> bool:
        """Process an ordering-protocol message; False if not ours."""
        if not self._alive:
            return True
        if isinstance(msg, (PrePrepare, Prepare, Commit)):
            self._note_view(msg.view)
            if msg.seq > self._max_seen_seq:
                self._max_seen_seq = msg.seq
        if isinstance(msg, Status):
            self._note_view(msg.view)
            if msg.exec_seq > self._max_seen_seq:
                self._max_seen_seq = msg.exec_seq
            return True
        if isinstance(msg, PrePrepare):
            self._on_preprepare(src, msg)
        elif isinstance(msg, Prepare):
            self._on_prepare(msg)
        elif isinstance(msg, Commit):
            self._on_commit(msg)
        elif isinstance(msg, ViewChange):
            self._on_view_change(msg)
        elif isinstance(msg, NewView):
            self._on_new_view(src, msg)
        else:
            return False
        return True

    def _note_view(self, view: int) -> None:
        """Catch up to a view we missed the change for.

        A correct replica only emits protocol traffic in a view it has
        installed (2f + 1 voted for it), so the view number itself is
        safe to adopt from evidence. Having missed the view change
        means we were crashed or cut off while it happened — we have
        almost certainly missed executions too, so hand off to server
        state transfer rather than waiting for a gap that in-order
        re-delivery will never fill.
        """
        if view <= self.view:
            return
        self.view = view
        self._slots = {}
        self._proposed_ids = set()
        self._next_seq = self._exec_seq
        if self.on_gap is not None:
            self.on_gap(self._exec_seq)

    def _slot(self, seq: int) -> Optional[_Slot]:
        if seq <= self._exec_seq:
            return None  # stale message for an already-executed slot
        slot = self._slots.get(seq)
        if slot is None or slot.view < self.view:
            slot = _Slot(view=self.view)
            self._slots[seq] = slot
        return slot

    def _on_preprepare(self, src: str, msg: PrePrepare) -> None:
        if msg.view != self.view or src != self.primary_id:
            return
        if msg.request.request_id in self._executed_ids:
            return
        slot = self._slot(msg.seq)
        if slot is None:
            return
        if slot.request is not None:
            return  # duplicate pre-prepare for this slot
        slot.request = msg.request
        slot.ts = msg.ts
        self._pending.setdefault(msg.request.request_id,
                                 (msg.request, self.env.now))
        slot.prepares.add(src)        # the primary's implicit prepare
        slot.prepares.add(self.node_id)
        prepare = Prepare(self.view, msg.seq, msg.request.request_id,
                          self.node_id)
        self._fan_out(prepare)
        self._check_prepared(msg.seq)

    def _on_prepare(self, msg: Prepare) -> None:
        if msg.view != self.view:
            return
        slot = self._slot(msg.seq)
        if slot is None:
            return
        slot.prepares.add(msg.replica_id)
        self._check_prepared(msg.seq)

    def _check_prepared(self, seq: int) -> None:
        slot = self._slots.get(seq)
        if (slot is None or slot.prepared or slot.request is None
                or len(slot.prepares) < 2 * self.f + 1):
            return
        slot.prepared = True
        slot.commits.add(self.node_id)
        commit = Commit(self.view, seq, slot.request.request_id, self.node_id)
        self._fan_out(commit)
        self._check_committed(seq)

    def _on_commit(self, msg: Commit) -> None:
        if msg.view != self.view:
            return
        slot = self._slot(msg.seq)
        if slot is None:
            return
        slot.commits.add(msg.replica_id)
        self._check_committed(msg.seq)

    def _check_committed(self, seq: int) -> None:
        slot = self._slots.get(seq)
        if (slot is None or slot.committed or not slot.prepared
                or len(slot.commits) < 2 * self.f + 1):
            return
        slot.committed = True
        self._execute_ready()

    def _execute_ready(self) -> None:
        if not self.exec_truthful:
            # Execution freezes during state transfer: running committed
            # slots on top of an incomplete prefix would corrupt the
            # local state, emit junk replies that count toward client
            # reply quorums, and inflate the exec_seq this replica
            # reports in view-change votes (dragging truthful peers
            # into skipping to a sequence nobody actually reached).
            # The snapshot install covers these slots and unfreezes.
            return
        while True:
            slot = self._slots.get(self._exec_seq + 1)
            if slot is None or not slot.committed or slot.request is None:
                return
            self._exec_seq += 1
            del self._slots[self._exec_seq]
            request = slot.request
            self._pending.pop(request.request_id, None)
            self._proposed_ids.discard(request.request_id)
            if request.request_id in self._executed_ids:
                continue  # re-proposed duplicate after a view change
            self._executed_ids.add(request.request_id)
            obs = self.env.obs
            if obs is not None:
                mark_ordering(obs, request.request_id, M_DELIVER,
                              self.env.now, self.node_id,
                              self.leadership_epoch, self._exec_seq)
            self._execute(request, slot.ts)

    # -- view changes ------------------------------------------------------------

    def _timeout_sweep(self):
        while self._alive:
            yield self.env.timeout(self.config.sweep_interval_ms)
            if not self._alive:
                return
            now = self.env.now
            stuck = [
                rid for rid, (_req, seen) in self._pending.items()
                if now - seen > self.config.request_timeout_ms
            ]
            if stuck:
                self._vote_view_change(self.view + 1)
                # Restart the clocks so we do not spam votes every sweep.
                for rid in stuck:
                    request, _ = self._pending[rid]
                    self._pending[rid] = (request, now)
            # Gap detection: protocol traffic runs ahead of our execution
            # point and two consecutive sweeps made zero progress. The
            # missing slots were shipped while we were cut off and will
            # never be re-sent (peers delete executed slots), so only a
            # state transfer can unstick us.
            if self._max_seen_seq > self._exec_seq:
                if (self._exec_seq == self._stall_exec_seq
                        and self.on_gap is not None):
                    self.on_gap(self._exec_seq)
                self._stall_exec_seq = self._exec_seq
            else:
                self._stall_exec_seq = -1
            if (self.config.status_interval_ms > 0 and now
                    - self._last_status >= self.config.status_interval_ms):
                self._last_status = now
                status = Status(self.view, self._exec_seq)
                self._fan_out(status)

    def _vote_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        votes = self._view_votes.setdefault(new_view, {})
        if self.node_id in votes:
            return
        votes[self.node_id] = self._exec_seq
        msg = ViewChange(new_view, self._exec_seq, self.node_id)
        self._fan_out(msg)
        self._maybe_install_view(new_view)

    def _on_view_change(self, msg: ViewChange) -> None:
        if msg.new_view <= self.view:
            return
        votes = self._view_votes.setdefault(msg.new_view, {})
        votes[msg.replica_id] = msg.last_executed
        # Join the view change once f + 1 others want it (PBFT liveness rule).
        if len(votes) > self.f and self.node_id not in votes:
            self._vote_view_change(msg.new_view)
        self._maybe_install_view(msg.new_view)

    def _maybe_install_view(self, new_view: int) -> None:
        votes = self._view_votes.get(new_view, {})
        if len(votes) < 2 * self.f + 1 or new_view <= self.view:
            return
        self.view = new_view
        # Drop un-executed slots; their requests are still pending and will
        # be re-proposed by the new primary.
        self._slots = {}
        self._proposed_ids = set()
        # Sequence numbering resumes after the most-advanced voter so the
        # new primary never reuses a slot some replica already executed.
        horizon = max([self._exec_seq, *votes.values()])
        self._next_seq = horizon
        if self._exec_seq < horizon:
            self._skip_to(horizon)
        if self.is_primary:
            new_view_msg = NewView(self.view)
            self._fan_out(new_view_msg)
            for request, _seen in list(self._pending.values()):
                self._propose(request)

    def _skip_to(self, seq: int) -> None:
        """We missed executions up to ``seq``; defer to server state sync."""
        self._exec_seq = seq
        self.exec_truthful = False
        if self.on_gap is not None:
            self.on_gap(seq)

    def _on_new_view(self, src: str, msg: NewView) -> None:
        if msg.view <= self.view:
            return
        if self.replica_ids[msg.view % self.n] != src:
            return
        self.view = msg.view
        self._slots = {}
        self._proposed_ids = set()
        self._next_seq = self._exec_seq
