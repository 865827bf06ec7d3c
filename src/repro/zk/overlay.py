"""Copy-on-write overlay over a :class:`~repro.zk.data_tree.DataTree`.

Two consumers:

* the leader's prep stage uses an overlay to validate a ``MultiOp``
  atomically (all-or-nothing) against its speculative state, and
* Extensible ZooKeeper's sandbox state proxy runs extension code against
  an overlay, so the extension sees its own writes while the manager
  records the write-set as an ordered transaction list (the paper's
  multi-transaction construction, §5.1.2).

Reads fall through to the base tree until a path is touched; writes are
recorded both as projected state and as emitted transactions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .data_tree import (DataTree, Stat, ZNode, advance_sequence,
                        checked_split, split_path)
from .errors import (BadArgumentsError, NoChildrenForEphemeralsError,
                     NodeExistsError, NoNodeError, NotEmptyError,
                     BadVersionError)
from .txn import CreateTxn, DeleteTxn, SetDataTxn, Txn

__all__ = ["TreeOverlay"]

_TOMBSTONE = object()


class TreeOverlay:
    """A mutable view of ``base`` that records its write-set as txns."""

    def __init__(self, base: DataTree):
        self._base = base
        self._nodes: Dict[str, object] = {}  # path -> ZNode copy or _TOMBSTONE
        self.txns: List[Txn] = []

    # -- node lookup -----------------------------------------------------

    def _peek(self, path: str) -> Optional[ZNode]:
        """Current node at ``path`` (overlay-aware), or None."""
        if path in self._nodes:
            entry = self._nodes[path]
            return None if entry is _TOMBSTONE else entry  # type: ignore[return-value]
        if path in self._base:
            return self._base.node(path)
        return None

    def _materialize(self, path: str) -> ZNode:
        """Copy-on-write: private copy of the node for mutation."""
        entry = self._nodes.get(path)
        if entry is _TOMBSTONE:
            raise NoNodeError(path)
        if entry is not None:
            return entry  # type: ignore[return-value]
        if path not in self._base:
            raise NoNodeError(path)
        original = self._base.node(path)
        copy = ZNode(data=original.data, stat=original.stat.copy(),
                     children=set(original.children),
                     sequence_counter=original.sequence_counter,
                     path=original.path)
        self._nodes[path] = copy
        return copy

    def _lookup(self, path: str) -> Optional[ZNode]:
        """:meth:`_peek`, validating a path the view does not hold (one
        it holds, even as a tombstone, passed when it was created)."""
        node = self._peek(path)
        if node is None and path not in self._nodes:
            checked_split(path, self._base._nodes)
        return node

    # -- read API (mirrors DataTree) ------------------------------------------

    def exists(self, path: str) -> Optional[Stat]:
        node = self._lookup(path)
        return node.stat.copy() if node is not None else None

    def get_data(self, path: str) -> Tuple[bytes, Stat]:
        node = self._lookup(path)
        if node is None:
            raise NoNodeError(path)
        return (node.data, node.stat.copy())

    def get_children(self, path: str) -> List[str]:
        node = self._lookup(path)
        if node is None:
            raise NoNodeError(path)
        return sorted(node.children)

    def children_nodes(self, path: str) -> List[Tuple[str, ZNode]]:
        """(child_path, node) for every child of ``path``, overlay-aware.

        Bulk read for directory-scan consumers (the EZK state proxy lists
        whole queue directories on every extension invocation): one pass
        over the children with plain dict probes, no per-child path
        validation or stat copies. Each child path is the one its node
        is keyed under (``ZNode.path``), not a fresh copy. Iteration
        order is unspecified; the nodes are shared, not copies — callers
        must not mutate them.
        """
        node = self._peek(path)
        if node is None:
            raise NoNodeError(path)
        prefix = "/" if path == "/" else path + "/"
        nodes = self._nodes
        base_nodes = self._base._nodes
        pairs = []
        for name in node.children:
            child = prefix + name
            entry = nodes.get(child)
            if entry is None:
                entry = base_nodes.get(child)
            elif entry is _TOMBSTONE:
                entry = None  # deleted in-overlay; parent link is stale
            if entry is None:
                raise NoNodeError(child)
            pairs.append((entry.path, entry))
        return pairs

    # -- write API ------------------------------------------------------------

    def create(self, path: str, data: bytes = b"",
               ephemeral_owner: Optional[int] = None,
               sequential: bool = False,
               zxid: int = 0, now: float = 0.0) -> str:
        parent_path, _ = checked_split(path, self._base._nodes)
        if not isinstance(data, bytes):
            raise BadArgumentsError("znode data must be bytes")
        parent = self._peek(parent_path)
        if parent is None:
            raise NoNodeError(f"parent missing: {parent_path}")
        if parent.is_ephemeral:
            raise NoChildrenForEphemeralsError(parent_path)
        parent = self._materialize(parent_path)
        if sequential:
            actual = f"{path}{parent.sequence_counter:010d}"
            parent.sequence_counter += 1
        else:
            actual = path
        if self._peek(actual) is not None:
            raise NodeExistsError(actual)

        stat = Stat(czxid=zxid, mzxid=zxid, ctime=now, mtime=now,
                    ephemeral_owner=ephemeral_owner, data_length=len(data))
        self._nodes[actual] = ZNode(data=data, stat=stat, path=actual)
        _, name = split_path(actual)
        parent.children.add(name)
        advance_sequence(parent, name)
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        self.txns.append(CreateTxn(actual, data, ephemeral_owner))
        return actual

    def set_data(self, path: str, data: bytes, version: int = -1,
                 zxid: int = 0, now: float = 0.0) -> Stat:
        node = self._lookup(path)
        if not isinstance(data, bytes):
            raise BadArgumentsError("znode data must be bytes")
        if node is None:
            raise NoNodeError(path)
        if version != -1 and node.stat.version != version:
            raise BadVersionError(
                f"{path}: expected v{version}, at v{node.stat.version}")
        node = self._materialize(path)
        node.data = data
        node.stat.version += 1
        node.stat.mzxid = zxid
        node.stat.mtime = now
        node.stat.data_length = len(data)
        self.txns.append(SetDataTxn(path, data))
        return node.stat.copy()

    def delete(self, path: str, version: int = -1) -> None:
        node = self._lookup(path)
        if path == "/":
            raise BadArgumentsError("cannot delete the root")
        if node is None:
            raise NoNodeError(path)
        if node.children:
            raise NotEmptyError(path)
        if version != -1 and node.stat.version != version:
            raise BadVersionError(
                f"{path}: expected v{version}, at v{node.stat.version}")
        self._materialize(path)  # ensure parent linkage below sees a copy
        self._nodes[path] = _TOMBSTONE
        parent_path, name = split_path(path)
        parent = self._materialize(parent_path)
        parent.children.discard(name)
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        self.txns.append(DeleteTxn(path))

    # -- introspection ------------------------------------------------------

    @property
    def dirty(self) -> bool:
        return bool(self.txns)

    def touched_paths(self) -> List[str]:
        return sorted(self._nodes)
