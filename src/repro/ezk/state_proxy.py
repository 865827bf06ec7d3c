"""EZK's buffered state proxy: extensions run against a tree overlay.

The paper's §5.1.2: while an operation extension executes at the
leader's preprocessor stage, the state proxy records all modifications;
afterwards the extension manager emits one **multi-transaction** that
flows through the unchanged Zab pipeline. Reads see the extension's own
writes (the overlay), the authoritative tree is untouched until commit,
and a crash simply discards the overlay.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.api import AbstractState, ObjectRecord
from ..core.errors import CoordStateError, NoObjectError, ObjectExistsError
from ..zk.data_tree import DataTree, validate_path
from ..zk.errors import NodeExistsError, NoNodeError, ZkError
from ..zk.overlay import TreeOverlay
from ..zk.txn import MultiTxn

__all__ = ["ZkBufferedState"]

#: Overlay-created nodes are stamped with this plus their create's index
#: in the write set as czxid: younger than every committed node, and in
#: creation order among themselves (a path deleted and created again is
#: the youngest).
_PENDING_SEQ_BASE = 1 << 62


class ZkBufferedState(AbstractState):
    """AbstractState over a :class:`TreeOverlay` of the leader's spec tree."""

    def __init__(self, base: DataTree, now: float = 0.0):
        self._base = base
        self._now = now
        self.rollback()

    # -- helpers -----------------------------------------------------------

    def to_multi_txn(self, result=None) -> MultiTxn:
        """The recorded write-set as one atomic multi-transaction, with
        ``result`` piggybacked and a requested block as its effect."""
        effects = (() if self.block_path is None
                   else (("block", self.block_path),))
        return MultiTxn(list(self.overlay.txns), result_payload=result,
                        payload_set=True, effects=effects)

    def rollback(self) -> None:
        """Drop the buffered write set; the base tree was never touched."""
        self.overlay = TreeOverlay(self._base)
        self.block_path: Optional[str] = None

    def _create(self, object_id: str, data: bytes,
                owner: Optional[int] = None) -> str:
        try:
            return self.overlay.create(
                object_id, data, ephemeral_owner=owner, now=self._now,
                zxid=_PENDING_SEQ_BASE + len(self.overlay.txns))
        except NodeExistsError as exc:
            raise ObjectExistsError(str(exc)) from exc
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc

    # -- AbstractState -------------------------------------------------------

    def create(self, object_id: str, data: bytes = b"") -> str:
        return self._create(object_id, data)

    def delete(self, object_id: str) -> None:
        try:
            self.overlay.delete(object_id)
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc
        except ZkError as exc:
            raise CoordStateError(str(exc)) from exc

    def read(self, object_id: str) -> bytes:
        try:
            data, _stat = self.overlay.get_data(object_id)
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc
        return data

    def exists(self, object_id: str) -> bool:
        return self.overlay.exists(object_id) is not None

    def update(self, object_id: str, data: bytes) -> None:
        try:
            self.overlay.set_data(object_id, data)
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc

    def sub_objects(self, object_id: str) -> List[ObjectRecord]:
        base = object_id.rstrip("/") or "/"
        # Hot path for list-heavy extensions (the queue lists its whole
        # directory on every invocation): bulk-read the children without
        # per-child path validation or stat copies — only data and czxid
        # are needed here. A path the tree holds passed validation when
        # it was created, so only a missing one is checked. The final
        # (seq, object_id) sort is total, so the iteration order of
        # children_nodes does not matter.
        try:
            pairs = self.overlay.children_nodes(base)
        except NoNodeError as exc:
            validate_path(base)
            raise NoObjectError(str(exc)) from exc
        rows = [(node.stat.czxid, child, node.data) for child, node in pairs]
        # (seq, child) is unique, so the sort never compares data.
        rows.sort()
        return [ObjectRecord(child, data, seq) for seq, child, data in rows]

    def block(self, object_id: str) -> None:
        if self.block_path is not None:
            raise CoordStateError(
                "an extension may block on at most one object per invocation")
        self.block_path = object_id

    def monitor(self, client_id: str, object_id: str,
                data: bytes = b"") -> None:
        try:
            session_id = int(client_id)
        except ValueError as exc:
            raise CoordStateError(
                f"client id is not a session id: {client_id!r}") from exc
        self._create(object_id, data, owner=session_id)
