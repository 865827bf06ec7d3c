"""Leader-granted read leases and the client-side read cache.

PR 3 scaled reads across followers and observers, but every read still
costs one client<->replica round trip. For the Zipfian populations the
open-loop driver models, a handful of hot keys dominate that traffic —
exactly the regime where a *lease* pays: the leader grants a session a
short per-key read lease, piggybacked on an ordinary read reply, and
the client then serves ``get_data``/``exists`` for that key from its
own memory at 0 RTT until the lease expires or is revoked.

Linearizability is preserved by making writers pay instead of readers:
a write to a leased key **blocks at the leader** until every lease on
the key has been revoked (explicit revoke RPC, acked by the holder) or
has expired on the server clock plus a grace window. A cache-served
read therefore can never return a value older than a committed write —
the write could not have committed while the lease was live.

The fences, in the order they bite:

* **grant fence** — the leader refuses a grant while the key has a
  write pending (ingress-marked), in flight in the prep pipeline
  (speculative-tree mzxid ahead of the committed tree), or while the
  leadership is inside its recovery window. A granting follower
  additionally confirms the leader's view of the key's ``mzxid``
  matches its own before attaching the lease to the reply;
* **revoke fence** — monotonically increasing lease ids (epoch-scaled,
  so a new leadership can never reuse one) let a client discard a
  grant that arrives *after* its revoke raced past it on another
  channel;
* **expiry fence** — holders stop serving strictly before
  ``expires_at`` on the shared clock; the leader unblocks writers only
  at ``expires_at + grace_ms``, so a dead client that can't ack still
  can't serve past a write's commit. Session expiry deliberately does
  *not* free leases early: the fenced client may be alive-but-silent,
  so its leases run out their natural term;
* **epoch fence** — a freshly elected leader knows nothing about the
  old leadership's grants (leases are leader-soft state), so it holds
  *all* tree writes for one full ``duration_ms + grace_ms`` recovery
  window — the Chubby/GFS master-failover rule.

Everything here is inert unless ``ZkConfig.leases`` is set and the
client opted in with ``cached_reads=True``; the wire envelopes are
subclasses of the existing ones (see ``txn.py``) so default-path
message sizes — and therefore every simulated latency — are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .data_tree import Stat
from .txn import ZxidClientRequest, ZxidReply

__all__ = [
    "LeaseConfig", "Lease", "LeaseTable", "WriteGate", "ClientReadCache",
    "LeaseClientRequest", "LeasedReply", "LeaseRequest", "LeaseGrant",
    "LeaseDeny", "LeaseRevoke", "LeaseRevokeAck", "LeaseRelease",
    "CACHE_MISS",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


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
    #: a key becomes lease-worthy once a replica sees this many
    #: cacheable reads for it inside one ``heat_window_ms`` window —
    #: cold keys keep the plain read path and cost no leader traffic.
    min_reads: int = 2
    heat_window_ms: float = 100.0
    #: how long a follower holds a read reply waiting for the leader's
    #: grant decision before answering plain (leader dark / election).
    grant_timeout_ms: float = 250.0

    def validate(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.grace_ms <= 0:
            raise ValueError("grace_ms must be positive")
        if self.min_reads < 1:
            raise ValueError("min_reads must be >= 1")
        if self.heat_window_ms <= 0:
            raise ValueError("heat_window_ms must be positive")
        if self.grant_timeout_ms <= 0:
            raise ValueError("grant_timeout_ms must be positive")


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
    """One update parked behind lease revocation (leader-local)."""

    kind: str                       # "update" | "close"
    paths: Tuple[str, ...]
    waiting: Set[int]               # lease ids still unrevoked
    not_before: float               # lease expiry + grace / recovery fence
    meta: Any = None                # RequestMeta for "update" gates
    op: Any = None
    session_id: int = 0             # for "close" gates
    extension_routed: bool = False
    fired: bool = False


class LeaseTable:
    """The leader's book of grants, revocations and parked writers.

    Pure bookkeeping — no clocks, no network. The server owns the
    event scheduling and message sends; keeping the table passive makes
    the revocation races unit-testable without a simulation.
    """

    def __init__(self, config: LeaseConfig):
        config.validate()
        self.config = config
        #: path -> lease_id -> Lease (live grants; expired entries are
        #: dropped lazily on access).
        self.leases: Dict[str, Dict[int, Lease]] = {}
        self.by_session: Dict[int, Set[int]] = {}
        self._by_id: Dict[int, Lease] = {}
        #: path -> refcount of writes between ingress and prep-translate
        #: (no grants while positive: the speculative tree cannot fence
        #: a write the prep stage has not seen yet).
        self.write_pending: Dict[str, int] = {}
        #: total writes between ingress and prep-translate, pathless.
        #: Extension-intercepted ops can rewrite their write set at
        #: prep time, so servers with extensions refuse grants
        #: while *any* write is in that window (see ``_leader_grant``).
        self.pipeline_refs = 0
        #: writes parked behind revocation.
        self.gates: List[WriteGate] = []
        #: new-leadership fence: no write fires before this time.
        self.recovery_until: float = 0.0
        self._next_seq = 0
        self._epoch = 1
        #: optional obs hooks (a MetricsRegistry plus the owning node's
        #: label), assigned by the server after construction — the table
        #: is pure bookkeeping and has no environment access of its own.
        self.metrics = None
        self.metrics_node = ""

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
        self.by_session.clear()
        self._by_id.clear()
        self.write_pending.clear()
        self.pipeline_refs = 0
        self.gates = []
        self._epoch = epoch
        self._next_seq = 0
        if fence:
            self.recovery_until = (now + self.config.duration_ms
                                   + self.config.grace_ms)

    # -- grants ------------------------------------------------------------

    def grant(self, path: str, session_id: int, client_node: str,
              now: float) -> Optional[Lease]:
        """Issue a lease, or None while the path has a writer anywhere
        between ingress and commit."""
        if self.write_pending.get(path):
            if self.metrics is not None:
                self.metrics.inc("leases.denied", self.metrics_node)
            return None
        self._next_seq += 1
        # Epoch-scaled ids: monotone across leaderships, so a client's
        # stale-revoke ring can never confuse an old id with a new one.
        lease_id = self._epoch * 1_000_000 + self._next_seq
        lease = Lease(lease_id, path, session_id, client_node,
                      now + self.config.duration_ms)
        self.leases.setdefault(path, {})[lease_id] = lease
        self.by_session.setdefault(session_id, set()).add(lease_id)
        self._by_id[lease_id] = lease
        if self.metrics is not None:
            self.metrics.inc("leases.granted", self.metrics_node)
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

    def all_leased_paths(self, now: float) -> Tuple[str, ...]:
        return tuple(sorted({lease.path
                             for lease in self.active_on(list(self.leases),
                                                         now)}))

    def _drop(self, lease: Lease) -> None:
        holders = self.leases.get(lease.path)
        if holders is not None:
            holders.pop(lease.lease_id, None)
            if not holders:
                del self.leases[lease.path]
        owned = self.by_session.get(lease.session_id)
        if owned is not None:
            owned.discard(lease.lease_id)
            if not owned:
                del self.by_session[lease.session_id]
        self._by_id.pop(lease.lease_id, None)

    # -- revocation --------------------------------------------------------

    def revoked(self, lease_id: int) -> List[WriteGate]:
        """A revoke ack (or voluntary release) arrived: drop the lease
        and return every gate that is now free of lease waiters."""
        lease = self._by_id.get(lease_id)
        if lease is not None:
            self._drop(lease)
            if self.metrics is not None:
                self.metrics.inc("leases.revoked_acks", self.metrics_node)
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
            lease = self._by_id.get(lease_id)
            if lease is not None:
                self._drop(lease)

    def forget_session(self, session_id: int) -> None:
        """Closed-session cleanup of the *index only*.

        The leases themselves stay in the path map until natural
        expiry: a fenced client may be alive-but-silent and still
        serving, so a close must not unblock writers early.
        """
        self.by_session.pop(session_id, None)

    # -- write gating ------------------------------------------------------

    def acquire_pending(self, paths) -> None:
        self.pipeline_refs += 1
        for path in paths:
            self.write_pending[path] = self.write_pending.get(path, 0) + 1

    def release_pending(self, paths) -> None:
        self.pipeline_refs = max(0, self.pipeline_refs - 1)
        for path in paths:
            count = self.write_pending.get(path, 0) - 1
            if count > 0:
                self.write_pending[path] = count
            else:
                self.write_pending.pop(path, None)

    def open_gate(self, gate: WriteGate) -> None:
        self.gates.append(gate)

    def close_gate(self, gate: WriteGate) -> None:
        gate.fired = True
        if gate in self.gates:
            self.gates.remove(gate)

    def drain_gates(self) -> List[WriteGate]:
        """Leadership lost: every parked write dies with it."""
        gates, self.gates = self.gates, []
        for gate in gates:
            gate.fired = True
        return gates


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
