"""The ``AtomicBroadcast`` contract every consensus kernel implements.

The paper's thesis is that coordination logic should be *extensible
over a fixed replication substrate* — which only means something if the
substrate really is a substrate: an interface the tree server and the
tuple space program against, not a protocol they are welded to. This
module names that interface and pins its semantics; ``zk/zab.py``
(Zab), ``repro/raft`` (Raft) and ``depspace/bft.py`` (PBFT, via the
adapter below) implement it, and ``tests/test_broadcast_conformance.py``
holds all three to the same contract.

The contract
============

An :class:`AtomicBroadcast` endpoint lives at one replica and exposes:

* **propose(txn, meta) -> zxid** — leader-only append to the replicated
  log. The returned *zxid* is the entry's position stamp: a 64-bit
  ``(leadership_epoch << 32) | counter`` whose total order equals
  delivery order. Kernels that cannot stamp at propose time (PBFT —
  any replica forwards, the primary sequences) return 0 and stamp at
  delivery instead.
* **deliver callback** — invoked with each committed record, in stamp
  order, exactly once per live replica. Delivery order is identical at
  every replica (total order) and at any instant each replica's
  delivered sequence is a prefix of the longest one (prefix agreement).
  Once a record is delivered anywhere, it is eventually delivered
  everywhere live (no loss across leader changes).
* **sync barrier** — ``sync_barrier()`` at an established leader
  returns a stamp ``B`` such that every record delivered anywhere
  before the call has stamp ≤ ``B``; a replica whose delivery reached
  ``B`` has seen them all. This is what ``ZkServer.sync()`` pins
  linearizable reads on.
* **leadership events** — ``on_role_change`` fires when this endpoint
  gains or loses an *established* leadership (and when a follower
  installs a new leader's history); ``leadership_epoch`` is a counter
  that increases with every distinct leadership (Zab epoch, Raft term,
  PBFT view) — the fencing token for leases, session expiry and every
  other leader-scoped privilege. Epoch-fence call sites go through
  this property, never through kernel internals.
* **commit holds** — ``hold(zxid)`` / ``release(zxid)`` at a leader:
  while a stamp is held the leader's committed watermark stays below
  it, and so does everything the leader advertises (Zab ``Commit``,
  heartbeats and ``NewLeader.committed_zxid``; Raft ``leader_commit``),
  so no replica delivers the held record or anything after it. The
  record still replicates: a hold delays the commit, not the quorum
  round. ``release`` lifts one hold and commits whatever the quorum has
  acked since. Holds are leader-volatile and die with the leadership.
  A record proposed at a held stamp carries ``held=True`` in the log.
  ``on_elected`` (optional callback) fires when this endpoint wins a
  leadership and before it advertises anything, so a caller can hold
  the inherited log from its first ``held`` record on before any
  follower may deliver it. A leader whose inherited log is held is
  not established (``is_leader`` stays False) until a release commits
  that log: establishment means the history is committed. The
  lease stage (``zk/leases.py``) is the one user: it holds a write's
  commit until the leases on what it writes are revoked. Zab and Raft
  implement holds; the PBFT adapter of the conformance harness does
  not (PBFT has no leases and no single committing leader), and its
  column of the hold tests is absent on purpose.
* **membership** — voting members are fixed at construction;
  ``observer_ids`` / ``is_observer`` describe non-voting learners that
  receive the stream but never count toward any quorum.
* **snapshot install hooks** — catching a replica up may replace its
  log wholesale (Zab full sync, Raft InstallSnapshot) instead of
  replaying a suffix; the kernel preserves the delivery watermark
  across the swap so nothing is re-delivered or skipped. Both paths
  must land replicas in identical delivered sequences (snapshot /
  suffix-sync equivalence, asserted by the conformance suite).

Crash/recovery semantics: ``crash()`` models a process failure with an
fsync'd log — the log, commit pointer and delivery watermark survive;
``recover()`` rejoins and re-syncs. ``handle(src, msg)`` feeds the
kernel a transport message and returns False for foreign payloads.

Failure detection: a leader-based kernel's follower suspects its leader
once it has heard nothing for its election timeout, at
``last contact + timeout`` exactly — not on the heartbeat tick after
it. :func:`detector_wait` is that rule, shared by Zab and Raft.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, List, Optional, Tuple

__all__ = ["AtomicBroadcast", "NotLeaderError", "ZK_KERNELS", "detector_wait",
           "make_zxid", "zxid_epoch", "zxid_counter"]


class NotLeaderError(Exception):
    """propose() was called on a non-leader endpoint."""


def make_zxid(epoch: int, counter: int) -> int:
    """Position stamp: ``(leadership_epoch << 32) | counter``."""
    return (epoch << 32) | counter


def zxid_epoch(zxid: int) -> int:
    return zxid >> 32


def zxid_counter(zxid: int) -> int:
    return zxid & 0xFFFFFFFF


def detector_wait(now: float, last_contact: float, timeout_ms: float,
                  heartbeat_ms: float) -> Tuple[float, bool]:
    """One step of a follower's failure detector: ``(sleep_ms, due)``.

    While the deadline ``last_contact + timeout_ms`` is more than one
    heartbeat away the detector sleeps one heartbeat, so in a fault-free
    run (silence never nears a multi-heartbeat timeout) it ticks exactly
    as a plain heartbeat loop would. Within one heartbeat it sleeps to
    the deadline itself. Once the deadline has passed (an election the
    kernel still holds open, say) it sleeps one heartbeat again — never
    zero, which would spin at one instant. ``due`` says the deadline
    falls by the end of the sleep: the caller suspects the leader on
    waking iff its stored last-contact time still equals
    ``last_contact`` — a comparison of the stored value, so float
    rounding of the sleep cannot make the detector miss its deadline.
    """
    remaining = last_contact + timeout_ms - now
    if 0.0 < remaining <= heartbeat_ms:
        return remaining, True
    return heartbeat_ms, remaining <= 0.0


#: kernels selectable via ``ZkConfig.kernel`` (the DS family runs PBFT).
ZK_KERNELS = ("zab", "raft")


class AtomicBroadcast:
    """Base class + contract for one replica's broadcast endpoint.

    Concrete kernels (:class:`~repro.zk.zab.ZabPeer`,
    :class:`~repro.raft.RaftPeer`) subclass this; the PBFT adapter in
    the conformance harness wraps :class:`~repro.depspace.bft.BftPeer`
    into the same shape. Data attributes every kernel maintains:

    ``log``
        the replicated record sequence (``.zxid``-stamped, sorted);
    ``committed_zxid``
        highest stamp known committed at this replica;
    ``leader_id`` / ``is_leader``
        current leadership as known locally (``is_leader`` is True only
        for an *established* leader — one whose history the quorum has
        confirmed, so ``propose`` and ``sync_barrier`` are safe);
    ``on_role_change`` / ``on_elected``
        optional callbacks, see module docstring.
    """

    node_id: str
    leader_id: Optional[str]
    committed_zxid: int
    log: List
    on_role_change: Optional[Callable[[], None]]
    on_elected: Optional[Callable[[], None]]

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self, leader_id: str) -> None:
        """Install an initial leadership, at epoch 1, without running an
        election."""
        raise NotImplementedError

    def crash(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        raise NotImplementedError

    # -- the protocol ----------------------------------------------------

    def propose(self, txn, meta=None) -> int:
        """Leader-only: append an update; returns its stamp (or 0)."""
        raise NotImplementedError

    def handle(self, src: str, msg: object) -> bool:
        """Process a protocol message; False if the payload is foreign."""
        raise NotImplementedError

    #: held stamps, sorted ascending (kernels that implement holds
    #: start each leadership with an empty list and cap their commit
    #: rule, ``_advance_commit``, below the first).
    _holds: List[int]

    def hold(self, zxid: int) -> None:
        """Leader-only: keep the commit watermark below ``zxid``."""
        insort(self._holds, zxid)

    def release(self, zxid: int) -> None:
        """Lift one hold on ``zxid`` and commit what it held back."""
        holds = self._holds
        idx = bisect_left(holds, zxid)
        if idx < len(holds) and holds[idx] == zxid:
            del holds[idx]
            self._advance_commit()

    def _mark_held(self, record) -> bool:
        """Flag ``record`` (``held``) if it is proposed at a held stamp.

        Kernels call this as they append a proposal, after the caller
        has held its stamp (``next_zxid``), so the flag replicates with
        the record and a successor leader knows which inherited records
        may still be fenced. True if the record was flagged."""
        holds = self._holds
        if holds and holds[-1] == record.zxid:
            record.held = True
            return True
        return False

    def _advance_commit(self) -> None:
        raise NotImplementedError

    # -- introspection ---------------------------------------------------

    @property
    def is_leader(self) -> bool:
        raise NotImplementedError

    @property
    def last_zxid(self) -> int:
        return self.log[-1].zxid if self.log else 0

    @property
    def next_zxid(self) -> int:
        """The stamp the next :meth:`propose` will assign (leader only).

        Lets the server stamp speculative state with the real zxid
        before proposing: prep → propose runs in one simulation event,
        so nothing can advance the counter in between.
        """
        raise NotImplementedError

    @property
    def leadership_epoch(self) -> int:
        """Fencing token: increases with every distinct leadership.

        Zab epoch, Raft term, PBFT view — 1 at bootstrap, strictly
        greater after any re-election. Lease tables, session expiry
        and other leader-scoped privileges fence on this value instead
        of reaching into kernel internals.
        """
        raise NotImplementedError

    def sync_barrier(self) -> int:
        """Linearizable-read barrier (valid at an established leader).

        Every record delivered anywhere before this call has a stamp
        ≤ the returned value.
        """
        return self.committed_zxid


def make_zk_kernel(env, node_id: str, peer_ids: List[str], send, deliver,
                   config, observer_ids: Optional[List[str]] = None,
                   is_observer: bool = False, send_many=None,
                   noop_txn: Optional[Callable[[], object]] = None
                   ) -> AtomicBroadcast:
    """Build the ZK family's broadcast endpoint per ``config.kernel``.

    Imports are deferred so this module stays import-light (it sits
    under ``repro.core``, which every layer imports).
    """
    kernel = getattr(config, "kernel", "zab")
    if kernel == "zab":
        from ..zk.zab import ZabPeer
        return ZabPeer(env, node_id, peer_ids, send, deliver,
                       observer_ids=observer_ids, is_observer=is_observer,
                       send_many=send_many)
    if kernel == "raft":
        from ..raft import RaftConfig, RaftPeer
        from ..zk.txn import TxnRecord
        return RaftPeer(env, node_id, peer_ids, send, deliver,
                        config=config.raft or RaftConfig(),
                        observer_ids=observer_ids, is_observer=is_observer,
                        send_many=send_many,
                        record_factory=lambda zxid, txn, meta: TxnRecord(
                            zxid=zxid, txn=txn, meta=meta),
                        noop_txn=noop_txn)
    raise ValueError(f"unknown kernel {kernel!r} (expected one of "
                     f"{ZK_KERNELS})")
