"""Table 2, DepSpace column: the abstract API over a DsClient.

====================  =====================================================
abstract              DepSpace realization
====================  =====================================================
create(o)             cas(<o, *>, <o, data>)  — out() would insert a
                      duplicate tuple when o exists; the object model
                      requires name uniqueness, which DepSpace provides
                      via its conditional-insert cas
delete(o)             inp(<o, *>)
read(o)               rdp(<o, *>)
update(o, c)          replace(<o, *>, <o, c>)
cas(o, cc, nc)        replace(<o, cc>, <o, nc>)
sub_objects(o)        rdAll(<o/SUB_ANY, *>)  — one RPC
block(o)              rd(<o, *>)  — blocks server-side until created
monitor(o)            out a lease tuple renewed by this client
wait_deletion(o)      poll rdp(<o, *>) until None (DepSpace exposes no
                      deletion notification to clients)
====================  =====================================================
"""

from __future__ import annotations

from typing import List

from ..core.api import ObjectRecord
from ..core.errors import ObjectExistsError
from ..depspace.client import DsClient
from ..depspace.tuples import ANY, Prefix
from .coordination import CoordClient

__all__ = ["DsCoordClient"]

#: How often ``wait_deletion`` re-reads the object it waits on.
_DELETION_POLL_MS = 5.0


class DsCoordClient(CoordClient):
    """Adapter from the abstract API to the (E)DS client library."""

    def __init__(self, ds: DsClient):
        self.ds = ds
        self._monitor_count = 0

    @property
    def client_id(self) -> str:
        return self.ds.client_id

    def create(self, object_id: str, data: bytes = b""):
        # Conditional insert: a plain out() would happily add a second
        # <o, ...> tuple (tuple spaces have no key uniqueness), after
        # which every per-object operation picks an arbitrary copy —
        # e.g. three clients racing the counter's setup would each
        # advance a private counter tuple.
        inserted = yield from self.ds.cas((object_id, ANY),
                                          (object_id, data))
        if not isinstance(inserted, bool):
            return inserted  # an operation extension consumed the create
        if not inserted:
            raise ObjectExistsError(object_id)
        return object_id

    def delete(self, object_id: str):
        taken = yield from self.ds.inp(object_id, ANY)
        return taken is not None

    def read(self, object_id: str):
        value = yield from self.ds.rdp(object_id, ANY)
        if (isinstance(value, tuple) and len(value) == 2
                and value[0] == object_id):
            return value[1]
        if value is None:
            return None
        # An operation extension consumed the read: its result comes back.
        return value

    def update(self, object_id: str, data: bytes):
        old = yield from self.ds.replace((object_id, ANY), (object_id, data))
        if old is None:
            return False
        if isinstance(old, tuple) and len(old) == 2 and old[0] == object_id:
            return True
        return old  # an operation extension consumed the update

    def cas(self, object_id: str, expected: bytes, new: bytes):
        old = yield from self.ds.replace((object_id, expected),
                                         (object_id, new))
        return old is not None

    def sub_objects(self, object_id: str, with_data: bool = True):
        prefix = object_id.rstrip("/") + "/"
        found = yield from self.ds.rdall(Prefix(prefix), ANY)
        if not isinstance(found, list):
            return found  # extension result
        records: List[ObjectRecord] = []
        for index, entry in enumerate(found):
            data = entry[1] if with_data and isinstance(entry[1], bytes) else b""
            records.append(ObjectRecord(entry[0], data, index))
        return records

    def block(self, object_id: str):
        value = yield from self.ds.rd(object_id, ANY)
        return value

    def monitor(self, object_id: str, data: bytes = b""):
        """Create a lease tuple; ``object_id`` is a name *prefix*.

        Mirrors the ZooKeeper adapter's sequential naming with a
        client-local counter (rdAll's insertion order provides the
        global creation order). Returns the actual object id.
        """
        self._monitor_count += 1
        actual = f"{object_id}{self.ds.client_id}-{self._monitor_count:06d}"
        yield from self.ds.out(actual, data, lease_ms=self.ds.lease_ms)
        return actual

    def wait_deletion(self, object_id: str):
        while True:
            found = yield from self.ds.rdp(object_id, ANY)
            if found is None:
                return
            yield self.ds.env.timeout(_DELETION_POLL_MS)

    def ensure_liveness(self) -> None:
        """Start renewing leases taken out on this client's behalf by a
        server-side monitor() (EDS only)."""
        renew = getattr(self.ds, "ensure_lease_renewal", None)
        if renew is not None:
            renew()

    def register_extension(self, name: str, source: str):
        value = yield from self.ds.register_extension(name, source)
        return value

    def acknowledge_extension(self, name: str):
        value = yield from self.ds.acknowledge_extension(name)
        return value
