"""Shared harness for the AtomicBroadcast conformance and property suites.

Builds an N-node cluster of one consensus kernel — ``zab`` (primary-backup
broadcast), ``raft`` (leader election + log matching) or ``pbft``
(Byzantine three-phase ordering) — over the simulated network, records
every delivery per node, and checks the AtomicBroadcast contract:

* **total order**: each node's delivered stamps strictly increase;
* **prefix agreement**: any two nodes' delivered sequences are prefixes
  of one another (compared as (zxid, payload) pairs, so a payload
  delivered under two different stamps is also a violation);
* **convergence**: after faults heal, all live nodes hold identical
  delivered sequences.

The PBFT kernel rides a thin adapter (:class:`PbftBroadcast`) giving
BftPeer the AtomicBroadcast surface: ``propose`` multicasts a request to
all replicas (the PBFT client model), delivery stamps are minted from
the agreed execution sequence, and a snapshot protocol mirroring the
DepSpace server's state transfer repairs replicas that missed executed
slots (PBFT peers delete executed slots, so a gap can only be healed by
a snapshot).

The harness also hosts :func:`run_random_interleaving` — the seeded
random proposer/crash/partition driver shared by the property suite and
the Raft teeth tests — and :func:`detector_wakeups`, the failure-detector
spy of the Zab and Raft no-spin tests.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.broadcast import NotLeaderError, make_zxid
from repro.depspace.bft import (BftConfig, BftPeer, BftRequest, ExecutedIds,
                                RequestId)
from repro.raft import RaftConfig, RaftPeer
from repro.raft.peer import RaftRecord
from repro.sim import Environment, Network
from repro.zk.zab import ZabConfig, ZabPeer

KERNELS = ("zab", "raft", "pbft")


# ---------------------------------------------------------------------------
# PBFT adapter
# ---------------------------------------------------------------------------


@dataclass
class SnapRequest:
    """Recovering replica probes a donor for executed state."""
    exec_seq: int


@dataclass
class SnapResponse:
    exec_seq: int
    view: int
    entries: List[RaftRecord]
    executed_ids: List[RequestId] = field(default_factory=list)


class PbftBroadcast:
    """AtomicBroadcast surface over a BftPeer.

    ``propose`` follows the PBFT client model — the request is multicast
    to all replicas, any of which relays it to the primary — so it works
    from any node and returns 0 (the stamp is minted at delivery, from
    the agreed execution sequence). ``leadership_epoch`` is ``view + 1``:
    views count from 0, epochs from 1, and a view change fences exactly
    like a Zab epoch bump or a Raft term bump.
    """

    def __init__(self, env: Environment, node_id: str,
                 replica_ids: List[str], send, deliver,
                 config: Optional[BftConfig] = None):
        self.env = env
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self._send = send
        self._deliver = deliver
        self.peer = BftPeer(env, node_id, replica_ids, send=send,
                            execute=self._execute,
                            config=config
                            or BftConfig(status_interval_ms=200.0))
        self.peer.on_gap = self._on_gap
        #: delivered records in the agreed order (swapped wholesale by a
        #: snapshot install, like the DepSpace server's spaces).
        self.log: List[RaftRecord] = []
        self.committed_zxid = 0
        self.snapshots_installed = 0
        self.violation: Optional[str] = None
        self._seq = 0
        self._state_synced = True
        self._resync_generation = 0

    # -- introspection ---------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.peer.is_primary

    @property
    def leadership_epoch(self) -> int:
        return self.peer.view + 1

    @property
    def last_zxid(self) -> int:
        return self.log[-1].zxid if self.log else 0

    def sync_barrier(self) -> int:
        return self.committed_zxid

    # -- propose / deliver -----------------------------------------------

    def propose(self, txn, meta=None) -> int:
        self._seq += 1
        request = BftRequest(RequestId(self.node_id, self._seq), (txn, meta))
        for replica in self.replica_ids:
            if replica == self.node_id:
                self.peer.on_request(request)
            else:
                self._send(replica, request)
        return 0

    def _execute(self, request: BftRequest, ts: float) -> None:
        txn, meta = request.op
        # The execution sequence is agreed across replicas, so the stamp
        # is too (unlike the view a slot happened to commit in).
        record = RaftRecord(make_zxid(1, self.peer._exec_seq), txn, meta)
        self.log.append(record)
        self.committed_zxid = record.zxid
        self._deliver(record)

    # -- message plumbing --------------------------------------------------

    def handle(self, src: str, msg: object) -> bool:
        if isinstance(msg, BftRequest):
            self.peer.on_request(msg)
            return True
        if isinstance(msg, SnapRequest):
            self._on_snap_request(src, msg)
            return True
        if isinstance(msg, SnapResponse):
            self._on_snap_response(src, msg)
            return True
        return self.peer.handle(src, msg)

    # -- crash / recovery --------------------------------------------------

    def crash(self) -> None:
        self.peer.crash()

    def recover(self) -> None:
        self.peer.recover()
        # Chase a snapshot unconditionally: we may have missed executed
        # slots, which peers have deleted and will never re-send.
        self._state_synced = True
        self._on_gap(self.peer._exec_seq)

    # -- state transfer (mirrors DsReplica's resync loop) ------------------

    def _on_gap(self, seq: int) -> None:
        if not self._state_synced:
            return  # a resync loop is already chasing a snapshot
        self._state_synced = False
        self._resync_generation += 1
        self.env.process(self._resync_loop(self._resync_generation))

    def _resync_loop(self, generation: int):
        donors = [r for r in self.replica_ids if r != self.node_id]
        i = 0
        while (self.peer._alive and not self._state_synced
               and generation == self._resync_generation):
            self._send(donors[i % len(donors)],
                       SnapRequest(self.peer._exec_seq))
            i += 1
            yield self.env.timeout(100.0)

    def _on_snap_request(self, src: str, msg: SnapRequest) -> None:
        if not self.peer.exec_truthful:
            return  # our own exec_seq overstates applied state
        self._send(src, SnapResponse(self.peer._exec_seq, self.peer.view,
                                     list(self.log),
                                     list(self.peer._executed_ids)))

    def _on_snap_response(self, src: str, msg: SnapResponse) -> None:
        peer = self.peer
        behind = msg.exec_seq < peer._exec_seq
        if behind or (msg.exec_seq == peer._exec_seq and peer.exec_truthful):
            if peer.exec_truthful:
                self._state_synced = True
            return
        # The donor's history must extend ours — a snapshot that rewrites
        # an already-delivered prefix is a safety violation, not a repair.
        mine = [(r.zxid, r.txn) for r in self.log]
        theirs = [(r.zxid, r.txn) for r in msg.entries[:len(mine)]]
        if mine != theirs:
            self.violation = (f"{self.node_id}: snapshot from {src} "
                              f"rewrites the delivered prefix")
        self.log = list(msg.entries)
        self.committed_zxid = self.last_zxid
        peer._exec_seq = msg.exec_seq
        peer._executed_ids = ExecutedIds(msg.executed_ids)
        peer._next_seq = max(peer._next_seq, peer._exec_seq)
        if msg.view > peer.view:
            peer.view = msg.view
            peer._proposed_ids = set()
            peer._next_seq = peer._exec_seq
        for rid in list(peer._pending):
            if peer.executed(rid):
                del peer._pending[rid]
        peer._stall_exec_seq = -1
        peer.exec_truthful = True
        peer._slots = {s: sl for s, sl in peer._slots.items()
                       if s > peer._exec_seq}
        self.snapshots_installed += 1
        self._state_synced = True
        peer._execute_ready()


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------


class Endpoint:
    """One node: a kernel instance plus its recorded deliveries."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.kernel = None  # set by the cluster right after construction
        self.alive = True
        self._delivered: List[object] = []

    def record(self, record) -> None:
        self._delivered.append(record)

    def delivered_records(self) -> List[object]:
        if isinstance(self.kernel, PbftBroadcast):
            # The adapter's log *is* the delivered sequence; a snapshot
            # install swaps it wholesale (callback appends would
            # misrepresent the post-install history).
            return list(self.kernel.log)
        return list(self._delivered)

    def delivered(self) -> List[tuple]:
        """Delivered (zxid, payload) pairs, barrier no-ops filtered."""
        return [(r.zxid, r.txn) for r in self.delivered_records()
                if r.txn is not None]

    def payloads(self) -> List[object]:
        return [txn for _zxid, txn in self.delivered()]


class BroadcastCluster:
    """An N-node cluster of one kernel over the simulated network."""

    def __init__(self, kernel: str, n: Optional[int] = None, seed: int = 0,
                 raft_peer_cls=RaftPeer,
                 raft_config: Optional[RaftConfig] = None,
                 zab_config: Optional[ZabConfig] = None,
                 bft_config: Optional[BftConfig] = None):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if n is None:
            n = 4 if kernel == "pbft" else 3
        self.kernel = kernel
        self.env = Environment()
        self.net = Network(self.env, seed=seed)
        self.node_ids = [f"n{i}" for i in range(n)]
        self.endpoints: Dict[str, Endpoint] = {}
        #: (src, dst, msg) for every message handled; enabled on demand.
        self.msg_log: List[tuple] = []
        self.record_messages = False

        for node_id in self.node_ids:
            endpoint = Endpoint(node_id)
            send = (lambda dst, msg, _src=node_id:
                    self.net.send(_src, dst, msg))
            if kernel == "zab":
                endpoint.kernel = ZabPeer(
                    self.env, node_id, self.node_ids, send=send,
                    deliver=endpoint.record,
                    config=zab_config or ZabConfig())
            elif kernel == "raft":
                endpoint.kernel = raft_peer_cls(
                    self.env, node_id, self.node_ids, send=send,
                    deliver=endpoint.record,
                    config=raft_config or RaftConfig(seed=seed))
            else:
                endpoint.kernel = PbftBroadcast(
                    self.env, node_id, self.node_ids, send=send,
                    deliver=endpoint.record, config=bft_config)
            self.endpoints[node_id] = endpoint
            self.net.register(node_id, self._handler(endpoint))
        if kernel in ("zab", "raft"):
            for endpoint in self.endpoints.values():
                endpoint.kernel.bootstrap(self.node_ids[0])

    def _handler(self, endpoint: Endpoint):
        def handle(src, msg):
            if self.record_messages:
                self.msg_log.append((src, endpoint.node_id, msg))
            endpoint.kernel.handle(src, msg)
        return handle

    # -- driving -----------------------------------------------------------

    def run(self, ms: float) -> None:
        self.env.run(until=self.env.now + ms)

    def alive_endpoints(self) -> List[Endpoint]:
        return [e for e in self.endpoints.values() if e.alive]

    def leader(self) -> Optional[Endpoint]:
        for endpoint in self.alive_endpoints():
            if endpoint.kernel.is_leader:
                return endpoint
        return None

    def await_leader(self, max_ms: float = 30_000.0,
                     step_ms: float = 50.0) -> Optional[Endpoint]:
        deadline = self.env.now + max_ms
        while self.env.now < deadline:
            endpoint = self.leader()
            if endpoint is not None:
                return endpoint
            self.run(step_ms)
        return self.leader()

    def try_propose(self, value, meta=None) -> bool:
        """Propose via the current leader; False if there is none.

        For PBFT the request is multicast from any live replica (the
        client model); leaderless windows still accept proposals, which
        execute once a primary (re-)emerges.
        """
        if self.kernel == "pbft":
            for endpoint in self.alive_endpoints():
                endpoint.kernel.propose(value, meta)
                return True
            return False
        endpoint = self.leader()
        if endpoint is None:
            return False
        try:
            endpoint.kernel.propose(value, meta)
        except NotLeaderError:
            return False
        return True

    # -- faults ------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        self.net.crash(node_id)
        self.endpoints[node_id].kernel.crash()
        self.endpoints[node_id].alive = False

    def recover(self, node_id: str) -> None:
        self.net.recover(node_id)
        self.endpoints[node_id].kernel.recover()
        self.endpoints[node_id].alive = True

    def partition(self, group: List[str]) -> None:
        others = [n for n in self.node_ids if n not in group]
        self.net.partition(group, others)

    def heal(self) -> None:
        self.net.heal()

    # -- contract checks ---------------------------------------------------

    def check_safety(self) -> Optional[str]:
        """Total order + prefix agreement over every node (crashed nodes
        hold a frozen, still-legal prefix). None when clean."""
        sequences = {}
        for endpoint in self.endpoints.values():
            delivered = endpoint.delivered()
            zxids = [z for z, _ in delivered]
            if any(b <= a for a, b in zip(zxids, zxids[1:])):
                return (f"{endpoint.node_id}: delivered stamps not "
                        f"strictly increasing: {zxids}")
            sequences[endpoint.node_id] = delivered
            adapter_violation = getattr(endpoint.kernel, "violation", None)
            if adapter_violation:
                return adapter_violation
        for (a, sa), (b, sb) in itertools.combinations(
                sequences.items(), 2):
            k = min(len(sa), len(sb))
            if sa[:k] != sb[:k]:
                i = next(i for i in range(k) if sa[i] != sb[i])
                return (f"prefix disagreement between {a} and {b} at "
                        f"position {i}: {sa[i]!r} vs {sb[i]!r}")
        return None

    def converged(self) -> bool:
        payload_lists = [e.payloads() for e in self.alive_endpoints()]
        return all(p == payload_lists[0] for p in payload_lists)

    def settle(self, max_ms: float = 20_000.0,
               step_ms: float = 500.0) -> Optional[str]:
        """Run until all live nodes agree (or the deadline passes).

        Returns a violation/divergence description, or None on clean
        convergence."""
        deadline = self.env.now + max_ms
        while self.env.now < deadline:
            self.run(step_ms)
            violation = self.check_safety()
            if violation:
                return violation
            if self.converged():
                return None
        if not self.converged():
            lengths = {e.node_id: len(e.payloads())
                       for e in self.alive_endpoints()}
            return f"no convergence after {max_ms}ms: lengths {lengths}"
        return None


# ---------------------------------------------------------------------------
# Failure-detector spy
# ---------------------------------------------------------------------------


def detector_wakeups(monkeypatch, module, peer, limit: int = 2_000):
    """Record every wake-up of ``peer``'s failure detector.

    Wraps ``detector_wait`` where ``module`` (the kernel's module)
    imported it; the detector loop calls it once per wake-up, and the
    caller's frame tells which peer woke. Each entry is ``(now, role,
    election pending)``. Past ``limit`` wake-ups the spy raises, so a
    detector that spins at one instant fails its test instead of hanging
    it.
    """
    wakeups: List[tuple] = []
    real = module.detector_wait

    def spy(now, *args):
        if sys._getframe(1).f_locals.get("self") is peer:
            wakeups.append((now, peer.role,
                            getattr(peer, "_election_pending", False)))
            if len(wakeups) > limit:
                raise AssertionError(
                    f"{peer.node_id}: failure detector spins at t={now}")
        return real(now, *args)

    monkeypatch.setattr(module, "detector_wait", spy)
    return wakeups


# ---------------------------------------------------------------------------
# Seeded random interleavings
# ---------------------------------------------------------------------------

_ACTIONS = ("propose", "propose", "propose", "crash", "recover",
            "partition", "heal", "settle")


def run_random_interleaving(kernel: str, seed: int, steps: int = 24,
                            n: Optional[int] = None,
                            raft_peer_cls=RaftPeer,
                            raft_config: Optional[RaftConfig] = None,
                            with_delays: bool = False,
                            settle_ms: float = 25_000.0) -> Optional[str]:
    """One seeded random proposer/crash/partition interleaving.

    Returns a violation description (prefix disagreement, stamp
    regression, an internal safety assertion, or failure to converge
    after all faults heal) or None for a clean run. The honest kernels
    must return None for every seed; the teeth mutants must not.

    ``with_delays`` adds transient message-delay windows to the fault
    mix (a slow link, not a dead one): protocol replies from an earlier
    election can then land during a later one — exactly the staleness
    the vote-counting teeth need to be reachable.
    """
    cluster = BroadcastCluster(kernel, n=n, seed=seed,
                               raft_peer_cls=raft_peer_cls,
                               raft_config=raft_config)
    rng = random.Random(f"broadcast-interleaving/{kernel}/{seed}")
    actions = _ACTIONS + (("lag", "unlag") if with_delays else ())
    counter = 0
    down: Optional[str] = None
    cut = False
    lagged = False
    try:
        for _step in range(steps):
            action = rng.choice(actions)
            if action == "propose":
                counter += 1
                cluster.try_propose(f"v{counter}")
            elif action == "crash" and down is None:
                down = rng.choice(cluster.node_ids)
                cluster.crash(down)
            elif action == "recover" and down is not None:
                cluster.recover(down)
                down = None
            elif action == "partition" and not cut:
                cluster.partition([rng.choice(cluster.node_ids)])
                cut = True
            elif action == "heal" and cut:
                cluster.heal()
                cut = False
            elif action == "lag" and not lagged:
                cluster.net.add_delay_rule(
                    extra_ms=rng.uniform(250.0, 900.0),
                    dst=rng.choice(cluster.node_ids))
                lagged = True
            elif action == "unlag" and lagged:
                cluster.net.clear_rules()
                lagged = False
            cluster.run(rng.uniform(80.0, 350.0))
            violation = cluster.check_safety()
            if violation:
                return violation
        cluster.heal()
        cluster.net.clear_rules()
        if down is not None:
            cluster.recover(down)
        # Fresh proposals force lagging replicas to notice and resync.
        for _ in range(2):
            endpoint = cluster.await_leader(8_000.0)
            if endpoint is not None:
                counter += 1
                cluster.try_propose(f"v{counter}")
            cluster.run(400.0)
        return cluster.settle(settle_ms)
    except AssertionError as exc:
        # An internal safety assertion (e.g. truncation below the commit
        # index) is a violation surfacing early, not a harness error.
        return f"internal safety assertion: {exc}"
