"""EDS's direct state proxy: extensions execute on the live tuple space.

DepSpace is actively replicated, so an extension executes
deterministically at **every** replica inside the ordered request
(§5.2.2, §6.3). The proxy therefore mutates the replica's tuple space
directly — through the regular layer stack, with the invoking client's
privileges — while keeping an undo log so a crashing extension rolls
back atomically.

Object convention (Table 2's DepSpace column): a data object ``oid``
with content ``data`` is the 2-field tuple ``(oid, data)``; sub-objects
are tuples whose name field extends ``oid + "/"``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..core.api import AbstractState, ObjectRecord
from ..core.errors import CoordStateError, NoObjectError, ObjectExistsError
from ..depspace.bft import RequestId
from ..depspace.protocol import OutOp, RdAllOp, RdOp, RdpOp, ReplaceOp
from ..depspace.server import BLOCKED, DsEvent, DsReplica
from ..depspace.space import LeaseRecord
from ..depspace.tuples import ANY, Prefix

__all__ = ["DsDirectState"]


class DsDirectState(AbstractState):
    """AbstractState over a live DepSpace replica, with rollback."""

    def __init__(self, replica: DsReplica, client_id: str, ts: float,
                 events: List[DsEvent],
                 request_id: Optional[RequestId] = None,
                 space: str = "main"):
        self._replica = replica
        self._client_id = client_id
        self._ts = ts
        self._events = events
        self._request_id = request_id
        self._space = space
        self._undo: List[Callable[[], None]] = []
        self.blocked = False

    # -- plumbing ----------------------------------------------------------

    def _exec(self, op) -> Any:
        """Run one op through policy -> access -> space (no waiter wakes)."""
        return self._replica._execute_op(
            self._client_id, op, self._ts, self._events,
            request_id=self._request_id, wake=False)

    def rollback(self) -> None:
        """Undo every mutation this proxy performed, newest first."""
        raw = self._replica.space(self._space)
        for undo in reversed(self._undo):
            undo(raw)
        self._undo.clear()

    # -- AbstractState ---------------------------------------------------------

    def create(self, object_id: str, data: bytes = b"") -> str:
        if self._exec(RdpOp((object_id, ANY), space=self._space)) is not None:
            raise ObjectExistsError(object_id)
        entry = (object_id, data)
        self._exec(OutOp(entry, space=self._space))
        self._undo.append(lambda raw, entry=entry: raw.inp(entry))
        return object_id

    def delete(self, object_id: str) -> None:
        taken = self._replica._take(self._client_id, self._space,
                                    (object_id, ANY), self._events)
        if taken is None:
            raise NoObjectError(object_id)
        entry, lease = taken
        self._undo.append(
            lambda raw, entry=entry, lease=lease: raw.out(entry, lease=lease))

    def read(self, object_id: str) -> bytes:
        found = self._exec(RdpOp((object_id, ANY), space=self._space))
        if found is None:
            raise NoObjectError(object_id)
        return found[1]

    def exists(self, object_id: str) -> bool:
        return self._exec(
            RdpOp((object_id, ANY), space=self._space)) is not None

    def update(self, object_id: str, data: bytes) -> None:
        old = self._exec(ReplaceOp((object_id, ANY), (object_id, data),
                                   space=self._space))
        if old is None:
            raise NoObjectError(object_id)
        self._undo.append(
            lambda raw, old=old, oid=object_id:
            raw.replace((oid, ANY), old))

    def cas(self, object_id: str, expected: bytes, new: bytes) -> bool:
        found = self._exec(RdpOp((object_id, ANY), space=self._space))
        if found is None:
            raise NoObjectError(object_id)
        if found[1] != expected:
            return False
        self.update(object_id, new)
        return True

    def sub_objects(self, object_id: str) -> List[ObjectRecord]:
        prefix = object_id.rstrip("/") + "/"
        found = self._exec(
            RdAllOp((Prefix(prefix), ANY), space=self._space))
        return [ObjectRecord(name, data, index)
                for index, (name, data) in enumerate(found)]

    def block(self, object_id: str) -> None:
        if self._request_id is None:
            raise CoordStateError(
                "block() is only available to operation extensions")
        result = self._exec(RdOp((object_id, ANY), space=self._space))
        if result is BLOCKED:
            self.blocked = True
        # Otherwise the object already exists: the caller proceeds.

    def monitor(self, client_id: str, object_id: str,
                data: bytes = b"") -> None:
        if self._exec(RdpOp((object_id, ANY), space=self._space)) is not None:
            raise ObjectExistsError(object_id)
        lease_ms = self._replica.config.lease_ms
        entry = (object_id, data)
        # The lease belongs to the *monitored* client: its renewals keep
        # the object alive; its failure lets the lease expire (Table 2).
        self._replica.space(self._space).out(
            entry, lease=LeaseRecord(client_id, self._ts + lease_ms))
        self._events.append(DsEvent("inserted", self._space, entry))
        self._undo.append(lambda raw, entry=entry: raw.inp(entry))
