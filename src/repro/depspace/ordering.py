"""Crash-tolerant ordering for DepSpace: Raft behind the BftPeer surface.

``DsConfig(kernel="raft")`` swaps the PBFT stand-in for the Raft kernel
(:mod:`repro.raft`) without the replica or client layers changing: this
shim exposes the slice of :class:`~repro.depspace.bft.BftPeer`'s surface
that :class:`~repro.depspace.server.DsReplica` and the benchmarks
program against (``on_request`` / ``handle`` / ``crash`` / ``recover``,
``_exec_seq`` / ``_executed_ids`` / ``_pending`` bookkeeping, view and
primary introspection) and turns client multicasts into leader
proposals. It is the DepSpace analog of
:func:`repro.core.broadcast.make_zk_kernel`'s Raft branch.

Semantics mapping:

* the DepSpace wire protocol is unchanged — clients still multicast
  every request to all replicas. The Raft leader proposes what it
  receives; followers relay a request that sits pending past the
  request timeout (covering a client partitioned from the leader), and
  a newly established leader re-proposes everything still pending;
* the **agreed timestamp** each executed request carries — DepSpace's
  deterministic lease-expiry clock — is stamped by the leader at
  propose time and travels in the record's ``meta`` field, so every
  replica purges the same leases at the same logical instant;
* duplicates (the same request proposed by two successive leaderships)
  are filtered at delivery by request id, preserving exactly-once
  execution;
* there is no separate state-transfer path: a lagging or recovered
  replica is backfilled by the leader itself (suffix AppendEntries or
  InstallSnapshot), so ``exec_truthful`` is constantly True and
  ``DsReplica.recover`` skips the PBFT resync loop in this mode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..obs import M_DELIVER, M_PROPOSE
from ..raft import RaftConfig, RaftPeer
from ..sim import Environment
from .bft import BftConfig, BftRequest, RequestId, mark_ordering

__all__ = ["RaftOrdering"]


class RaftOrdering:
    """One replica's ordering endpoint, BftPeer-shaped, Raft-powered."""

    #: Raft never advances execution past delivery (no view-change
    #: horizon skips), so the executed sequence is always truthful.
    exec_truthful = True

    def __init__(self, env: Environment, node_id: str, replica_ids: List[str],
                 send: Callable[[str, object], None],
                 execute: Callable[[BftRequest, float], None],
                 config: Optional[BftConfig] = None,
                 raft_config: Optional[RaftConfig] = None,
                 send_many: Optional[
                     Callable[[List[str], object], None]] = None):
        self.env = env
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self.n = len(replica_ids)
        #: kept for surface parity with BftPeer (clients still mask on
        #: f + 1 matching replies; with crash faults they simply agree).
        self.f = (self.n - 1) // 3
        self._send = send
        self._execute = execute
        #: sweep/timeout pacing comes from the shared BFT knobs so the
        #: two kernels retry on the same schedule.
        self.config = config or BftConfig()

        self._exec_seq = 0
        #: requests seen but not yet executed (relay + re-proposal).
        self._pending: Dict[RequestId, Tuple[BftRequest, float]] = {}
        #: proposed under the current leadership (cleared on change).
        self._proposed_ids: Set[RequestId] = set()
        self._executed_ids: Set[RequestId] = set()
        #: server hook, part of the BftPeer surface; Raft backfills
        #: gaps itself so this is never invoked.
        self.on_gap: Optional[Callable[[int], None]] = None
        self._alive = True

        self.raft = RaftPeer(env, node_id, replica_ids, send=send,
                             deliver=self._on_deliver,
                             config=raft_config or RaftConfig(),
                             send_many=send_many)
        self.raft.on_role_change = self._on_role_change
        # Replica 0 leads at bootstrap, mirroring ZkEnsemble (PBFT's
        # view 0 likewise makes replica 0 the initial primary).
        self.raft.bootstrap(self.replica_ids[0])
        env.process(self._sweep())

    # -- role ----------------------------------------------------------------

    @property
    def view(self) -> int:
        """PBFT-style view number: 0 at bootstrap (term - 1)."""
        return max(self.raft.current_term - 1, 0)

    @property
    def leadership_epoch(self) -> int:
        return self.raft.current_term

    @property
    def primary_id(self) -> Optional[str]:
        """The leader as known locally (None mid-election, unlike PBFT
        where the primary is a pure function of the view)."""
        return self.raft.leader_id

    @property
    def is_primary(self) -> bool:
        return self.raft.is_leader

    def crash(self) -> None:
        self._alive = False
        self.raft.crash()

    def recover(self) -> None:
        self._alive = True
        self.raft.recover()
        self.env.process(self._sweep())

    # -- client requests ------------------------------------------------------

    def on_request(self, request: BftRequest) -> None:
        """A client request arrived at this replica (clients send to all)."""
        if not self._alive or request.request_id in self._executed_ids:
            return
        if request.request_id not in self._pending:
            self._pending[request.request_id] = (request, self.env.now)
        if self.raft.is_leader:
            self._propose(request)

    def _propose(self, request: BftRequest) -> None:
        if (request.request_id in self._proposed_ids
                or request.request_id in self._executed_ids):
            return
        self._proposed_ids.add(request.request_id)
        # The leader stamps the agreed timestamp; it rides in meta.
        zxid = self.raft.propose(request, meta=self.env.now)
        obs = self.env.obs
        if obs is not None:
            mark_ordering(obs, request.request_id, M_PROPOSE, self.env.now,
                          self.node_id, self.leadership_epoch, zxid)

    # -- protocol ------------------------------------------------------------

    def handle(self, src: str, msg: object) -> bool:
        """Process an ordering-protocol message; False if not ours."""
        if not self._alive:
            return True
        return self.raft.handle(src, msg)

    def _on_deliver(self, record) -> None:
        request = record.txn
        if request is None:
            return  # leadership barrier no-op
        self._exec_seq += 1
        self._pending.pop(request.request_id, None)
        self._proposed_ids.discard(request.request_id)
        if request.request_id in self._executed_ids:
            return  # re-proposed duplicate after a leader change
        self._executed_ids.add(request.request_id)
        obs = self.env.obs
        if obs is not None:
            mark_ordering(obs, request.request_id, M_DELIVER, self.env.now,
                          self.node_id, self.leadership_epoch, record.zxid)
        self._execute(request, record.meta)

    def _on_role_change(self) -> None:
        # A new leadership may have to re-propose: entries the old
        # leader appended but never committed are gone.
        self._proposed_ids = set()
        if self.raft.is_leader:
            for request, _seen in list(self._pending.values()):
                self._propose(request)

    # -- liveness sweep -------------------------------------------------------

    def _sweep(self):
        """Leader: re-propose anything pending (e.g. requests that
        arrived while unestablished). Follower: relay a request stuck
        past the timeout to the leader — the one case client multicast
        does not cover is the client partitioned from the leader."""
        while self._alive:
            yield self.env.timeout(self.config.sweep_interval_ms)
            if not self._alive:
                return
            now = self.env.now
            if self.raft.is_leader:
                for request, _seen in list(self._pending.values()):
                    self._propose(request)
                continue
            leader = self.raft.leader_id
            if leader is None or leader == self.node_id:
                continue
            for rid, (request, seen) in list(self._pending.items()):
                if now - seen > self.config.request_timeout_ms:
                    self._send(leader, request)
                    self._pending[rid] = (request, now)
