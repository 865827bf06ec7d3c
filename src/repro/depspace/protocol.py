"""Wire-level operations and replies for the DepSpace substrate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

__all__ = [
    "DsOp", "OutOp", "RdpOp", "InpOp", "RdOp", "InOp", "CasOp", "ReplaceOp",
    "RdAllOp", "RenewOp", "DsReply", "StateRequest", "StateResponse",
    "is_blocking",
]


class DsOp:
    """Marker base class for DepSpace operations."""


@dataclass
class OutOp(DsOp):
    entry: Tuple[Any, ...]
    space: str = "main"
    #: lease duration in ms; None means the tuple lives until taken.
    lease_ms: Optional[float] = None


@dataclass
class RdpOp(DsOp):
    template: Tuple[Any, ...]
    space: str = "main"


@dataclass
class InpOp(DsOp):
    template: Tuple[Any, ...]
    space: str = "main"


@dataclass
class RdOp(DsOp):
    """Blocking read: the reply is deferred until a match exists."""

    template: Tuple[Any, ...]
    space: str = "main"


@dataclass
class InOp(DsOp):
    """Blocking take: the reply is deferred until a match is removed."""

    template: Tuple[Any, ...]
    space: str = "main"


@dataclass
class CasOp(DsOp):
    """Insert ``entry`` iff nothing matches ``template``; returns bool."""

    template: Tuple[Any, ...]
    entry: Tuple[Any, ...]
    space: str = "main"
    lease_ms: Optional[float] = None


@dataclass
class ReplaceOp(DsOp):
    """Swap the oldest match of ``template`` for ``entry``; returns old."""

    template: Tuple[Any, ...]
    entry: Tuple[Any, ...]
    space: str = "main"


@dataclass
class RdAllOp(DsOp):
    template: Tuple[Any, ...]
    space: str = "main"


@dataclass
class RenewOp(DsOp):
    """Extend every lease owned by the calling client."""

    space: str = "main"


def is_blocking(op: DsOp) -> bool:
    return isinstance(op, (RdOp, InOp))


@dataclass
class DsReply:
    request_key: tuple          # (client_id, seq)
    replica_id: str
    ok: bool
    value: Any = None
    error_code: str = ""
    error_message: str = ""


@dataclass
class StateRequest:
    """A lagging replica asks peers for a snapshot."""

    upto_seq: int


@dataclass
class StateResponse:
    upto_seq: int
    snapshot: dict
    fingerprint: int
