"""Client sessions: liveness tracking and ephemeral-node cleanup.

Session state is part of the replicated state machine — session creation
and closure flow through the ordered transaction pipeline, so every
replica agrees on which sessions exist and ephemeral cleanup happens
consistently. Expiry detection, however, is a *leader* duty: the leader
tracks heartbeats and proposes a ``CloseSessionTxn`` when a session goes
quiet (mirroring ZooKeeper's session tracker). So is the at-most-once
guard over each client's requests (:class:`ProposedXids`).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["Session", "SessionTable", "HeartbeatTracker", "ExpiryClock",
           "ConsistencyTracker", "ProposedXids"]


@dataclass
class Session:
    """Replicated session record."""

    session_id: int
    timeout_ms: float
    client_id: str = ""
    closed: bool = False


class SessionTable:
    """Deterministic, replicated session registry (applied via txns).

    Closed session ids are remembered (not just dropped): expiry
    fencing must distinguish "this session was closed" — reject with
    ``SESSION_EXPIRED`` — from "this replica has not applied the
    session's creation yet", where rejecting would fence a perfectly
    healthy client talking to a lagging replica. Session ids are
    creation zxids, so the closed set only ever grows within a run;
    its memory is bounded by total session churn, like ZooKeeper's own
    committed close log.
    """

    def __init__(self):
        self._sessions: Dict[int, Session] = {}
        self._closed_ids: Set[int] = set()
        #: optional obs hooks (a MetricsRegistry plus the owning node's
        #: label), assigned by the server — the table has no env access.
        self.metrics = None
        self.metrics_node = ""

    def create(self, session_id: int, timeout_ms: float,
               client_id: str = "") -> Session:
        session = Session(session_id, timeout_ms, client_id)
        self._sessions[session_id] = session
        if self.metrics is not None:
            self.metrics.inc("sessions.created", self.metrics_node)
        return session

    def close(self, session_id: int) -> Optional[Session]:
        session = self._sessions.pop(session_id, None)
        if session is not None:
            session.closed = True
            self._closed_ids.add(session_id)
            if self.metrics is not None:
                self.metrics.inc("sessions.closed", self.metrics_node)
        return session

    def get(self, session_id: int) -> Optional[Session]:
        return self._sessions.get(session_id)

    def is_closed(self, session_id: int) -> bool:
        """True when this replica has applied the session's close."""
        return session_id in self._closed_ids

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def ids(self) -> List[int]:
        return sorted(self._sessions)

    def snapshot(self) -> dict:
        return {
            "open": {
                sid: (s.timeout_ms, s.client_id)
                for sid, s in self._sessions.items()
            },
            "closed": sorted(self._closed_ids),
        }

    def restore(self, snapshot: dict) -> None:
        if "open" in snapshot or "closed" in snapshot:
            open_sessions = snapshot.get("open", {})
            self._closed_ids = set(snapshot.get("closed", ()))
        else:
            # Legacy format: a bare {sid: (timeout, client_id)} mapping.
            open_sessions = snapshot
            self._closed_ids = set()
        self._sessions = {
            sid: Session(sid, timeout_ms, client_id)
            for sid, (timeout_ms, client_id) in open_sessions.items()
        }


@dataclass
class HeartbeatTracker:
    """Leader-local view of session liveness (not replicated).

    The leader calls :meth:`touch` on every request or ping from a session
    and periodically asks :meth:`expired` which sessions went silent.
    """

    _last_seen: Dict[int, float] = field(default_factory=dict)
    _timeouts: Dict[int, float] = field(default_factory=dict)

    def track(self, session_id: int, timeout_ms: float, now: float) -> None:
        self._timeouts[session_id] = timeout_ms
        self._last_seen[session_id] = now

    def touch(self, session_id: int, now: float) -> None:
        if session_id in self._timeouts:
            self._last_seen[session_id] = now

    def forget(self, session_id: int) -> None:
        self._last_seen.pop(session_id, None)
        self._timeouts.pop(session_id, None)

    def expired(self, now: float) -> List[int]:
        """Sessions whose silence exceeds their timeout."""
        return sorted(
            sid for sid, seen in self._last_seen.items()
            if now - seen > self._timeouts[sid])


class ExpiryClock:
    """Bucketed session-expiry tracker (ZooKeeper's ExpiryQueue shape).

    Same contract as :class:`HeartbeatTracker` — ``track``/``touch``/
    ``forget``/``expired`` with the exact strict predicate
    ``now - seen > timeout`` — but a sweep no longer scans every
    session. Deadlines are grouped into buckets quantized to the sweep
    tick: ``expired(now)`` visits only the buckets whose quantized
    deadline has passed, so a sweep costs O(due + stale) instead of
    O(sessions). A ``touch`` re-buckets the session and leaves the old
    entry behind to be lazily discarded when its bucket comes due
    (entries are per-session-per-bucket, so stale work is bounded by
    the number of touches, exactly like ZooKeeper's ExpiryQueue).

    The quantization affects only *when a bucket is inspected*, never
    the reported expiry decision: each session's exact deadline is kept
    and checked, so results are identical to the naive scan at every
    sweep (buckets are inspected at or after the deadline they cover,
    and sweeps themselves are the only observers).

    :meth:`rebase` backs the new-leader / post-pause semantics: every
    tracked session is granted one fresh full timeout, so sessions that
    were silent through an election window (their pings had no leader
    to reach) are not mass-expired the moment a leader returns.
    """

    def __init__(self, tick_ms: float = 100.0):
        if tick_ms <= 0:
            raise ValueError("tick_ms must be positive")
        self._tick = tick_ms
        self._timeouts: Dict[int, float] = {}
        self._deadlines: Dict[int, float] = {}
        #: quantized deadline -> session ids whose *latest* deadline
        #: may fall in this bucket (stale entries discarded lazily).
        self._buckets: Dict[float, Set[int]] = {}

    def _quantize(self, deadline: float) -> float:
        return math.ceil(deadline / self._tick) * self._tick

    def _enqueue(self, session_id: int, deadline: float) -> None:
        self._deadlines[session_id] = deadline
        self._buckets.setdefault(self._quantize(deadline),
                                 set()).add(session_id)

    def track(self, session_id: int, timeout_ms: float, now: float) -> None:
        self._timeouts[session_id] = timeout_ms
        self._enqueue(session_id, now + timeout_ms)

    def touch(self, session_id: int, now: float) -> None:
        if session_id in self._timeouts:
            self._enqueue(session_id, now + self._timeouts[session_id])

    def forget(self, session_id: int) -> None:
        self._timeouts.pop(session_id, None)
        self._deadlines.pop(session_id, None)

    def rebase(self, now: float) -> None:
        """Grant every tracked session a fresh full timeout from ``now``."""
        for session_id, timeout_ms in self._timeouts.items():
            self._enqueue(session_id, now + timeout_ms)

    def expired(self, now: float) -> List[int]:
        """Sessions whose silence exceeds their timeout (sorted)."""
        due: List[int] = []
        horizon = self._quantize(now)
        for key in [k for k in self._buckets if k <= horizon]:
            bucket = self._buckets[key]
            for session_id in list(bucket):
                deadline = self._deadlines.get(session_id)
                if deadline is None or self._quantize(deadline) != key:
                    bucket.discard(session_id)   # forgotten or re-bucketed
                elif deadline < now:
                    due.append(session_id)
            if not bucket:
                del self._buckets[key]
        return sorted(due)

    def __len__(self) -> int:
        return len(self._timeouts)


@dataclass
class ConsistencyTracker:
    """Replica-local floor of the highest zxid served to each session.

    Session consistency has two halves. The client tracks the last zxid
    it has *seen* and stamps it on requests, which carries the floor
    across a fail-over to another replica. This tracker is the server's
    half: each replica remembers the highest zxid it has answered a
    session with, so reads from that session never travel backwards in
    time even if a (buggy or restarted) client stops stamping requests.
    The floor is advisory, per-replica state — it is *not* replicated,
    so it never appears in tree fingerprints or sync payloads.
    """

    _floors: Dict[int, int] = field(default_factory=dict)

    def note(self, session_id: int, zxid: int) -> None:
        """Record that ``session_id`` was answered at ``zxid``."""
        if zxid > self._floors.get(session_id, 0):
            self._floors[session_id] = zxid

    def floor(self, session_id: int) -> int:
        """Lowest zxid a read for ``session_id`` may be served at."""
        return self._floors.get(session_id, 0)

    def forget(self, session_id: int) -> None:
        self._floors.pop(session_id, None)


class ProposedXids:
    """One client's part of the leader's at-most-once guard: xid -> zxid.

    Two parallel ``array('q')`` columns sorted by xid, 16 bytes an
    entry: the guard lives as long as the log. A client numbers its
    requests in order, so inserts are appends; one that arrives out of
    order (a retry overtaken by a newer call) is inserted in place.
    Answers ``get``, item assignment, ``items()`` and ``len()`` as an
    ``{xid: zxid}`` dict would.
    """

    __slots__ = ("_xids", "_zxids")

    def __init__(self):
        self._xids = array("q")
        self._zxids = array("q")

    def get(self, xid: int, default: Optional[int] = None) -> Optional[int]:
        xids = self._xids
        idx = bisect_left(xids, xid)
        if idx < len(xids) and xids[idx] == xid:
            return self._zxids[idx]
        return default

    def __setitem__(self, xid: int, zxid: int) -> None:
        xids = self._xids
        if not xids or xids[-1] < xid:
            xids.append(xid)
            self._zxids.append(zxid)
            return
        idx = bisect_left(xids, xid)
        if xids[idx] == xid:
            self._zxids[idx] = zxid
        else:
            xids.insert(idx, xid)
            self._zxids.insert(idx, zxid)

    def items(self) -> Iterator[Tuple[int, int]]:
        return zip(self._xids, self._zxids)

    def __len__(self) -> int:
        return len(self._xids)

    @classmethod
    def of(cls, table: Dict[str, "ProposedXids"],
           client_node: str) -> "ProposedXids":
        """``table[client_node]``, added empty if missing."""
        xids = table.get(client_node)
        if xids is None:
            xids = table[client_node] = cls()
        return xids
