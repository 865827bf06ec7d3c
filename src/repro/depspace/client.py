"""DepSpace client library: multicast to all replicas, vote on replies.

Every request is sent to all ``3f + 1`` replicas (the dominant client
cost in the paper's Figures 8 and 10); the client accepts a result once
``f + 1`` replicas returned the same answer, which masks up to ``f``
Byzantine replies. Blocking operations (``rd``/``in``) simply wait —
replicas defer their replies until the operation unblocks — with
periodic retransmission to survive message loss.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.retry import DS_RETRY_POLICY
from ..sim import Environment, Event, Network
from .bft import BftRequest, RequestId
from .protocol import (CasOp, DsOp, DsReply, InOp, InpOp, OutOp, RdAllOp,
                       RdOp, RdpOp, RenewOp, ReplaceOp, is_blocking)
from .tuples import TupleSpaceError

__all__ = ["DsClient", "DsClientError"]

_MAX_RETRANSMITS = 30


class DsClientError(TupleSpaceError):
    """Client-side failure (no quorum of matching replies)."""

    code = "CLIENT_ERROR"


def _freeze(value: Any) -> Any:
    """Hashable view of a reply value for vote counting."""
    if isinstance(value, list):
        return ("__list__",) + tuple(_freeze(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_freeze(v) for v in value)
    return value


class DsClient:
    """One client endpoint of a replicated DepSpace."""

    def __init__(self, env: Environment, net: Network, node_id: str,
                 replica_ids: List[str], f: int = 1,
                 lease_ms: float = 2000.0,
                 unordered_reads: bool = False):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self.f = f
        self.lease_ms = lease_ms
        # Shared retransmit pacing (repro.core.retry): a constant
        # 1000 ms with no jitter, the historical fixed timer.
        self._backoff = DS_RETRY_POLICY.start(f"dsclient-backoff-{node_id}")
        #: mirror of the replicas' read-only optimization flag: fast
        #: reads need 2f+1 matching replies instead of f+1.
        self.unordered_reads = unordered_reads
        self._seq = 0
        #: seq -> (future, votes per frozen value, required match count)
        self._inflight: Dict[int, Tuple[Event, Dict[Any, set], int]] = {}
        self._renewing = False
        self._min_lease_ms = lease_ms
        self._closed = False
        net.register(node_id, self._on_message)

    @property
    def client_id(self) -> str:
        """DepSpace identifies clients by their (authenticated) node id."""
        return self.node_id

    # -- inbox -------------------------------------------------------------

    def _on_message(self, src: str, msg: object) -> None:
        if not isinstance(msg, DsReply):
            return
        client_id, seq = msg.request_key
        if client_id != self.node_id:
            return
        entry = self._inflight.get(seq)
        if entry is None:
            return
        future, votes, required = entry
        key = (msg.ok, msg.error_code, _freeze(msg.value))
        votes.setdefault(key, set()).add(msg.replica_id)
        if len(votes[key]) >= required and not future.triggered:
            future.succeed(msg)

    # -- RPC core ----------------------------------------------------------

    def _call(self, op: DsOp):
        """Multicast ``op`` to every replica; wait for f+1 matching replies."""
        if self._closed:
            raise DsClientError("client closed")
        self._seq += 1
        seq = self._seq
        request = BftRequest(RequestId(self.node_id, seq), op)
        future = self.env.event()
        fast_read = self.unordered_reads and isinstance(op, (RdpOp, RdAllOp))
        required = 2 * self.f + 1 if fast_read else self.f + 1
        self._inflight[seq] = (future, {}, required)
        blocking = is_blocking(op)
        retransmits = 0
        obs = self.env.obs
        tracer = obs.tracer if obs is not None else None
        sent_at = self.env.now
        if tracer is not None:
            tracer.begin(self.node_id, seq, type(op).__name__, sent_at)
        self.net.broadcast(self.node_id, self.replica_ids, request)
        while True:
            timer = self.env.timeout(self._backoff.delay(retransmits))
            outcome = yield self.env.any_of([future, timer])
            if future in outcome:
                timer.cancel()      # the reply won: withdraw the retransmit
                break
            retransmits += 1
            if not blocking and retransmits > _MAX_RETRANSMITS:
                self._inflight.pop(seq, None)
                if tracer is not None:
                    tracer.finish(self.node_id, seq, self.env.now, False)
                raise DsClientError(
                    f"no f+1 matching replies after {retransmits} tries")
            if tracer is not None:
                tracer.retry(self.node_id, seq, self.env.now)
            if obs is not None:
                obs.metrics.inc("client.retries")
            self.net.broadcast(self.node_id, self.replica_ids, request)
        self._inflight.pop(seq, None)
        reply = future.value
        if not reply.ok:
            if tracer is not None:
                tracer.finish(self.node_id, seq, self.env.now, False)
            raise self._reconstruct_error(reply)
        if obs is not None:
            if tracer is not None:
                tracer.finish(self.node_id, seq, self.env.now, True)
            obs.metrics.observe("client.latency_ms", "",
                                self.env.now - sent_at)
        return reply.value

    @staticmethod
    def _reconstruct_error(reply: DsReply) -> Exception:
        from ..core.errors import (BudgetExceededError, ExtensionCrashedError,
                                   ExtensionRejectedError, NotAuthorizedError,
                                   UnknownExtensionError)
        from .access import AccessDeniedError
        from .policy import PolicyViolationError
        from .tuples import BadTupleError
        if reply.error_code == ExtensionRejectedError.code:
            return ExtensionRejectedError([reply.error_message])
        for cls in (AccessDeniedError, PolicyViolationError, BadTupleError,
                    ExtensionCrashedError, BudgetExceededError,
                    NotAuthorizedError, UnknownExtensionError,
                    TupleSpaceError):
            if reply.error_code == getattr(cls, "code", None):
                return cls(reply.error_message)
        return DsClientError(reply.error_message or reply.error_code)

    # -- DepSpace API --------------------------------------------------------

    def out(self, *fields, space: str = "main",
            lease_ms: Optional[float] = None):
        """Insert a tuple (optionally lease-bound; leases auto-renew)."""
        value = yield from self._call(
            OutOp(tuple(fields), space=space, lease_ms=lease_ms))
        if lease_ms is not None:
            self._ensure_renewal(space, lease_ms)
        return value

    def rdp(self, *template, space: str = "main"):
        """Non-blocking read: oldest match or None."""
        value = yield from self._call(RdpOp(tuple(template), space=space))
        return value

    def inp(self, *template, space: str = "main"):
        """Non-blocking take: oldest match or None."""
        value = yield from self._call(InpOp(tuple(template), space=space))
        return value

    def rd(self, *template, space: str = "main"):
        """Blocking read: waits until a match exists."""
        value = yield from self._call(RdOp(tuple(template), space=space))
        return value

    def in_(self, *template, space: str = "main"):
        """Blocking take: waits until a match can be removed."""
        value = yield from self._call(InOp(tuple(template), space=space))
        return value

    def cas(self, template, entry, space: str = "main",
            lease_ms: Optional[float] = None):
        """Insert ``entry`` iff nothing matches ``template``; returns bool."""
        value = yield from self._call(
            CasOp(tuple(template), tuple(entry), space=space,
                  lease_ms=lease_ms))
        if value and lease_ms is not None:
            self._ensure_renewal(space, lease_ms)
        return value

    def replace(self, template, entry, space: str = "main"):
        """Swap the oldest match for ``entry``; returns the old tuple or None."""
        value = yield from self._call(
            ReplaceOp(tuple(template), tuple(entry), space=space))
        return value

    def rdall(self, *template, space: str = "main"):
        """Read every matching tuple (oldest first)."""
        value = yield from self._call(RdAllOp(tuple(template), space=space))
        return value

    # -- leases ------------------------------------------------------------------

    def _ensure_renewal(self, space: str, lease_ms: float) -> None:
        self._min_lease_ms = min(self._min_lease_ms, lease_ms)
        if not self._renewing:
            self._renewing = True
            self.env.process(self._renew_loop(space))

    def _renew_loop(self, space: str):
        while not self._closed:
            # Pace renewals by the shortest lease this client ever took.
            yield self.env.timeout(self._min_lease_ms / 3.0)
            if self._closed:
                return
            try:
                yield from self._call(RenewOp(space=space))
            except TupleSpaceError:
                return

    # -- lifecycle ----------------------------------------------------------------

    def kill(self) -> None:
        """Abrupt client death: stop renewing leases (failure detection)."""
        self._closed = True
        self.net.crash(self.node_id)
