"""Wire-level operation and transaction types for the ZooKeeper substrate.

*Operations* are what clients send; *transactions* are what the leader's
prep stage turns update operations into. Transactions are deterministic
and unconditional — all validation (version checks, existence checks,
sequential-suffix resolution) happens once at prep time, so applying a
transaction at any replica cannot fail. Failed validations become
:class:`ErrorTxn` so the zxid stream stays gapless (mirroring ZooKeeper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..sim import estimate_size

__all__ = [
    # client operations
    "Op", "CreateOp", "DeleteOp", "SetDataOp", "GetDataOp", "GetChildrenOp",
    "ExistsOp", "MultiOp", "CreateSessionOp", "CloseSessionOp", "PingOp",
    "SyncOp",
    # transactions
    "Txn", "CreateTxn", "DeleteTxn", "SetDataTxn", "MultiTxn",
    "CreateSessionTxn", "CloseSessionTxn", "ErrorTxn",
    # envelopes
    "RequestMeta", "ClientRequest", "ClientReply", "WatchNotification",
    "ZxidClientRequest", "ZxidReply", "ZxidWatchNotification",
    "TxnRecord",
]


# ---------------------------------------------------------------------------
# Client operations
# ---------------------------------------------------------------------------

class Op:
    """Marker base class for client operations."""


@dataclass
class CreateOp(Op):
    path: str
    data: bytes = b""
    ephemeral: bool = False
    sequential: bool = False


@dataclass
class DeleteOp(Op):
    path: str
    version: int = -1


@dataclass
class SetDataOp(Op):
    path: str
    data: bytes = b""
    version: int = -1


@dataclass
class GetDataOp(Op):
    path: str
    watch: bool = False


@dataclass
class GetChildrenOp(Op):
    path: str
    watch: bool = False


@dataclass
class ExistsOp(Op):
    path: str
    watch: bool = False


@dataclass
class MultiOp(Op):
    """Atomic batch of update operations (ZooKeeper ``multi``)."""

    ops: List[Op] = field(default_factory=list)


@dataclass
class CreateSessionOp(Op):
    timeout_ms: float = 6000.0
    client_id: str = ""


@dataclass
class CloseSessionOp(Op):
    pass


@dataclass
class PingOp(Op):
    pass


@dataclass
class SyncOp(Op):
    """Flush marker: a leader round-trip that produces no transaction.

    The reply carries the leader's committed zxid at the time the sync
    reached it; a zxid-tracking client then parks subsequent local reads
    until its replica has applied at least that point, which makes
    sync-then-read linearizable (every write committed before the sync
    is visible to the read).
    """


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class Txn:
    """Marker base class for replicated transactions."""


@dataclass
class CreateTxn(Txn):
    path: str               # final path (sequential suffix already resolved)
    data: bytes = b""
    ephemeral_owner: Optional[int] = None


@dataclass
class DeleteTxn(Txn):
    path: str


@dataclass
class SetDataTxn(Txn):
    path: str
    data: bytes = b""


@dataclass
class MultiTxn(Txn):
    """Atomic batch; EZK piggybacks extension results in ``result_payload``.

    ``effects`` carries non-state side effects an extension requested,
    e.g. ``("block", path)`` to defer the client's reply until ``path``
    is created (the server interprets them at apply time).
    """

    txns: List[Txn] = field(default_factory=list)
    result_payload: Any = None
    #: True when result_payload is meaningful (extensions may legitimately
    #: return None, so presence cannot be inferred from the value).
    payload_set: bool = False
    effects: List[tuple] = field(default_factory=list)


@dataclass
class CreateSessionTxn(Txn):
    session_id: int
    timeout_ms: float
    client_id: str = ""


@dataclass
class CloseSessionTxn(Txn):
    session_id: int


@dataclass
class ErrorTxn(Txn):
    """A rejected update: keeps the zxid stream gapless, carries the error."""

    code: str
    message: str = ""


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

@dataclass
class RequestMeta:
    """Routing info a transaction carries so the right replica replies."""

    origin_replica: str     # replica the client is connected to
    client_node: str        # network id of the client
    session_id: int
    xid: int                # client-assigned request id


@dataclass
class ClientRequest:
    session_id: int
    xid: int
    op: Op


@dataclass
class ClientReply:
    xid: int
    ok: bool
    value: Any = None
    error_code: str = ""
    error_message: str = ""

    # Deliberately *unannotated*: a plain class attribute, not a
    # dataclass field, so plain replies keep their exact wire size while
    # the client inbox can read ``msg.zxid`` without a getattr-miss on
    # every non-zxid reply. ZxidReply shadows it with a real field.
    zxid = 0


@dataclass
class WatchNotification:
    """Server -> client push when an armed watch fires."""

    session_id: int
    event_type: str
    path: str

    # Plain class attribute (see ClientReply.zxid): keeps the base
    # notification's wire size while ZxidWatchNotification overrides.
    zxid = 0


# ---------------------------------------------------------------------------
# zxid-consistent read-path envelopes (ZkConfig.local_reads)
# ---------------------------------------------------------------------------
# Subclasses rather than extra fields on the base envelopes: the figure
# benchmarks must stay bit-identical with the read-scaling flags off, and
# even one extra wire byte per message would shift every simulated
# latency. The base types keep their exact sizes; these carry the zxid
# only on sessions that opted into session-consistent local reads.

@dataclass
class ZxidClientRequest(ClientRequest):
    """Request stamped with the session's last-seen zxid.

    A replica whose applied state lags ``last_zxid`` parks the read
    until it catches up (ZooKeeper's session consistency).
    """

    last_zxid: int = 0


@dataclass
class ZxidReply(ClientReply):
    """Reply stamped with the zxid the answering replica spoke for."""

    zxid: int = 0


@dataclass
class ZxidWatchNotification(WatchNotification):
    """Watch push stamped with the zxid of the triggering transaction,
    so a client that fails over after the notification still reads a
    state that includes the change it was notified about."""

    zxid: int = 0


@dataclass
class TxnRecord:
    """One slot in the replicated log.

    The wire-size estimate is computed once and reused — the leader
    ships the same record to every follower (and again during syncs),
    which made the recursive size walk one of the hottest paths in the
    simulation. ``zxid`` and ``txn`` never change once the record is
    appended; ``meta`` changes only through :meth:`repoint`, which drops
    the cached size with it.

    ``held`` marks a record proposed with its commit held (see
    ``AtomicBroadcast.hold``): a successor leader holds its inherited
    log from the first such record on. The flag rides in the record's
    tag bytes, so it adds nothing to the wire size.
    """

    zxid: int
    txn: Txn
    meta: Optional[RequestMeta] = None
    held: bool = field(default=False, repr=False)
    _wire_size: Optional[int] = field(default=None, repr=False, compare=False)

    def repoint(self, meta: RequestMeta) -> None:
        """Route the reply for this record through ``meta`` instead."""
        self.meta = meta
        self._wire_size = None

    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            # Mirrors the generic dataclass estimate for the real fields:
            # 2 (tag) + 8 (zxid) + txn + meta.
            size = 10 + estimate_size(self.txn) + estimate_size(self.meta)
            self._wire_size = size
        return size
