"""A minimal in-memory AbstractState backend.

The reference implementation of the abstract state contract: used by
unit tests, by examples that want to exercise extension logic without a
replicated service, and as executable documentation of the semantics
the EZK/EDS proxies must follow.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .api import AbstractState, ObjectRecord
from .errors import NoObjectError, ObjectExistsError

__all__ = ["MemoryState"]


class MemoryState(AbstractState):
    """Flat object store keyed by id; hierarchy is by id prefix."""

    def __init__(self):
        self._objects: Dict[str, Tuple[bytes, int]] = {}
        self._seq = 0
        #: ids passed to block(), for assertions in tests.
        self.blocked_on: List[str] = []
        #: (client, id) pairs passed to monitor().
        self.monitors: List[Tuple[str, str]] = []

    def create(self, object_id: str, data: bytes = b"") -> str:
        if object_id in self._objects:
            raise ObjectExistsError(object_id)
        self._seq += 1
        self._objects[object_id] = (data, self._seq)
        return object_id

    def delete(self, object_id: str) -> None:
        if object_id not in self._objects:
            raise NoObjectError(object_id)
        del self._objects[object_id]

    def read(self, object_id: str) -> bytes:
        entry = self._objects.get(object_id)
        if entry is None:
            raise NoObjectError(object_id)
        return entry[0]

    def exists(self, object_id: str) -> bool:
        return object_id in self._objects

    def update(self, object_id: str, data: bytes) -> None:
        entry = self._objects.get(object_id)
        if entry is None:
            raise NoObjectError(object_id)
        self._objects[object_id] = (data, entry[1])

    def sub_objects(self, object_id: str) -> List[ObjectRecord]:
        prefix = object_id if object_id.endswith("/") else object_id + "/"
        records = [
            ObjectRecord(oid, data, seq)
            for oid, (data, seq) in self._objects.items()
            if oid.startswith(prefix)
        ]
        records.sort(key=lambda r: r.seq)
        return records

    def block(self, object_id: str) -> None:
        self.blocked_on.append(object_id)

    def monitor(self, client_id: str, object_id: str,
                data: bytes = b"") -> None:
        self.create(object_id, data)
        self.monitors.append((client_id, object_id))
