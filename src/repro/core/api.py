"""The abstract coordination-service API (the paper's §3.1 model).

Extensions are written against this interface so the same extension
logic runs on Extensible ZooKeeper and Extensible DepSpace. It is the
abstract API of Table 2:

========  ==========================================================
method    semantics
========  ==========================================================
create    create data object ``oid`` with content
delete    delete data object ``oid``
read      read content of ``oid``
update    overwrite content of ``oid``
cas       conditional update: set to ``nc`` only if content is ``cc``
sub_objects  contents of all sub-objects of ``oid`` (hierarchy prefix)
block     wait until ``oid`` is created (non-blocking server side:
          registers the event subscription and returns, §6.1.3)
monitor   create ``oid`` bound to client ``cid``'s liveness; the
          service deletes it when ``cid`` terminates or fails
========  ==========================================================

``OperationRequest`` and ``EventNotice`` are the normalized descriptors
the extension manager matches subscriptions against; each backend maps
its native wire operations onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["ObjectRecord", "AbstractState", "OperationRequest", "EventNotice",
           "OP_TYPES", "EVENT_TYPES"]

#: Normalized operation kinds subscriptions can name.
OP_TYPES = ("create", "delete", "read", "update", "cas", "sub_objects",
            "exists", "block", "monitor")

#: Normalized state-change event kinds.
EVENT_TYPES = ("created", "deleted", "changed")


@dataclass(slots=True)
class ObjectRecord:
    """One data object as seen through the abstract API.

    ``seq`` is a backend-assigned creation-order key ("creation
    timestamp" in the paper's recipes): zxid for ZooKeeper, insertion
    order for DepSpace. Lower means older.
    """

    object_id: str
    data: bytes
    seq: int = 0


@dataclass
class OperationRequest:
    """Normalized client operation, matched against op subscriptions."""

    op_type: str
    object_id: str
    client_id: str = ""
    data: bytes = b""
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class EventNotice:
    """Normalized state-change event, matched against event subscriptions."""

    event_type: str
    object_id: str
    data: bytes = b""


class AbstractState:
    """The ``local`` reference an extension uses to touch service state.

    Backends provide concrete implementations, both writing live state
    with an undo log: EZK's buffered proxy (writes the leader's
    speculative tree under a savepoint; the write-set becomes one
    multi-transaction) and EDS's direct proxy (executed
    deterministically at every replica).
    """

    def create(self, object_id: str, data: bytes = b"") -> str:
        """Create ``object_id``; raises ObjectExistsError if present."""
        raise NotImplementedError

    def delete(self, object_id: str) -> None:
        """Delete ``object_id``; raises NoObjectError if absent."""
        raise NotImplementedError

    def read(self, object_id: str) -> bytes:
        """Content of ``object_id``; raises NoObjectError if absent."""
        raise NotImplementedError

    def exists(self, object_id: str) -> bool:
        """True when ``object_id`` is present."""
        raise NotImplementedError

    def update(self, object_id: str, data: bytes) -> None:
        """Overwrite content; raises NoObjectError if absent."""
        raise NotImplementedError

    def cas(self, object_id: str, expected: bytes, new: bytes) -> bool:
        """Set content to ``new`` iff it currently equals ``expected``
        (nothing runs between the read and the update of one proxy)."""
        if self.read(object_id) != expected:
            return False
        self.update(object_id, new)
        return True

    def sub_objects(self, object_id: str) -> List[ObjectRecord]:
        """Records of all sub-objects of ``object_id``, oldest first."""
        raise NotImplementedError

    def block(self, object_id: str) -> None:
        """Defer the invoking client's reply until ``object_id`` exists."""
        raise NotImplementedError

    def monitor(self, client_id: str, object_id: str,
                data: bytes = b"") -> None:
        """Create ``object_id`` tied to ``client_id``'s liveness."""
        raise NotImplementedError
