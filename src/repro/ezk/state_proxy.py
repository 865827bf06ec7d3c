"""EZK's buffered state proxy: extensions write the speculative tree.

The paper's §5.1.2: while an operation extension executes at the
leader's preprocessor stage, the state proxy records all modifications;
afterwards the extension manager emits one **multi-transaction** that
flows through the unchanged Zab pipeline. The proxy writes the leader's
speculative tree directly, under a savepoint (DESIGN §5.3): reads see the
extension's own writes, a failed run rolls the tree back, and a
successful one keeps its writes and hands its write set over as that
multi-transaction. The committed tree is untouched until commit. This
is the model of EDS's direct proxy, direct writes plus undo; only where
the writes become durable differs.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.api import AbstractState, ObjectRecord
from ..core.errors import CoordStateError, NoObjectError, ObjectExistsError
from ..zk.data_tree import DataTree, validate_path
from ..zk.errors import NodeExistsError, NoNodeError, ZkError
from ..zk.txn import CreateTxn, DeleteTxn, MultiTxn, SetDataTxn, Txn

__all__ = ["ZkBufferedState"]

#: While a run lasts, the nodes it creates are stamped with this plus
#: their create's index in the write set as czxid: younger than every
#: committed node, and in creation order among themselves (a path
#: deleted and created again is the youngest). The run's multi-txn
#: restamps them with its own zxid.
_PENDING_SEQ_BASE = 1 << 62


class ZkBufferedState(AbstractState):
    """AbstractState over the leader's speculative tree, under a savepoint.

    ``zxid`` is the stamp the run's multi-txn will be proposed under,
    ``now`` the time it is proposed at.
    """

    def __init__(self, tree: DataTree, zxid: int = 0, now: float = 0.0):
        self._tree = tree
        self._zxid = zxid
        self._now = now
        #: The write set, in order.
        self.txns: List[Txn] = []
        self.block_path: Optional[str] = None
        tree.savepoint()

    # -- helpers -----------------------------------------------------------

    def to_multi_txn(self, result=None) -> MultiTxn:
        """Keep the run's writes and return its write set as one atomic
        multi-transaction, with ``result`` piggybacked and a requested
        block as its effect."""
        tree = self._tree
        for txn in self.txns:
            if txn.__class__ is CreateTxn and txn.path in tree:
                stat = tree.node(txn.path).stat
                stat.czxid = stat.mzxid = self._zxid
        tree.release()
        effects = (() if self.block_path is None
                   else (("block", self.block_path),))
        # An exact-size copy: the appended list is over-allocated, and
        # the log keeps what is handed over here.
        return MultiTxn(list(self.txns), result_payload=result,
                        payload_set=True, effects=effects)

    def rollback(self) -> None:
        """Undo the run's writes and drop its write set."""
        self._tree.rollback()
        self.txns = []
        self.block_path = None

    def _create(self, object_id: str, data: bytes,
                owner: Optional[int] = None) -> str:
        try:
            path = self._tree.create(
                object_id, data, ephemeral_owner=owner, now=self._now,
                zxid=_PENDING_SEQ_BASE + len(self.txns))
        except NodeExistsError as exc:
            raise ObjectExistsError(str(exc)) from exc
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc
        self.txns.append(CreateTxn(path, data, owner))
        return path

    # -- AbstractState -------------------------------------------------------

    def create(self, object_id: str, data: bytes = b"") -> str:
        return self._create(object_id, data)

    def delete(self, object_id: str) -> None:
        try:
            self._tree.delete(object_id)
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc
        except ZkError as exc:
            raise CoordStateError(str(exc)) from exc
        self.txns.append(DeleteTxn(object_id))

    def read(self, object_id: str) -> bytes:
        try:
            data, _stat = self._tree.get_data(object_id)
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc
        return data

    def exists(self, object_id: str) -> bool:
        return self._tree.exists(object_id) is not None

    def update(self, object_id: str, data: bytes) -> None:
        try:
            self._tree.set_data(object_id, data, zxid=self._zxid,
                                now=self._now)
        except NoNodeError as exc:
            raise NoObjectError(str(exc)) from exc
        self.txns.append(SetDataTxn(object_id, data))

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
            nodes = self._tree.children_nodes(base)
        except NoNodeError as exc:
            validate_path(base)
            raise NoObjectError(str(exc)) from exc
        rows = [(node.stat.czxid, node.path, node.data) for node in nodes]
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
