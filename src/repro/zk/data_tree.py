"""The ZooKeeper data model: a hierarchical tree of versioned znodes.

Supports the semantics the paper's recipes rely on: per-node data
versions (conditional writes), ephemeral nodes (deleted when the owning
session dies), sequential nodes (server-assigned monotone suffixes),
and child listings. The tree is deterministic: applying the same
transaction sequence always produces the same state, which both the Zab
pipeline and the BFT comparison tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import (BadArgumentsError, NoChildrenForEphemeralsError,
                     NodeExistsError, NoNodeError, NotEmptyError,
                     BadVersionError)

__all__ = ["Stat", "ZNode", "DataTree", "split_path", "parent_of", "validate_path"]


#: Paths that already passed validation — recipes hammer the same few
#: hundred paths millions of times, so re-splitting each one is pure
#: waste. Bounded; cleared wholesale if a workload somehow floods it.
_VALID_PATHS: set = set()
_VALID_PATHS_MAX = 65536


def validate_path(path: str) -> None:
    """Reject malformed paths (must be absolute, no empty or dot components)."""
    if path in _VALID_PATHS:
        return
    if not path or path[0] != "/":
        raise BadArgumentsError(f"path must be absolute: {path!r}")
    if path != "/" and path.endswith("/"):
        raise BadArgumentsError(f"path must not end with '/': {path!r}")
    for component in path.split("/")[1:]:
        if path == "/":
            break
        if not component or component in (".", ".."):
            raise BadArgumentsError(f"bad path component in {path!r}")
    if len(_VALID_PATHS) >= _VALID_PATHS_MAX:
        _VALID_PATHS.clear()
    _VALID_PATHS.add(path)


def parent_of(path: str) -> str:
    """Parent path of ``path`` ('/a/b' -> '/a', '/a' -> '/')."""
    if path == "/":
        raise BadArgumentsError("the root has no parent")
    head, _sep, _tail = path.rpartition("/")
    return head or "/"


def split_path(path: str) -> Tuple[str, str]:
    """Return (parent, name)."""
    if path == "/":
        raise BadArgumentsError("cannot split the root path")
    head, _sep, tail = path.rpartition("/")
    return (head or "/", tail)


@dataclass
class Stat:
    """Per-znode metadata, mirroring ZooKeeper's Stat struct."""

    czxid: int = 0
    mzxid: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    version: int = 0
    cversion: int = 0
    ephemeral_owner: Optional[int] = None
    data_length: int = 0
    num_children: int = 0

    def copy(self) -> "Stat":
        return Stat(self.czxid, self.mzxid, self.ctime, self.mtime,
                    self.version, self.cversion, self.ephemeral_owner,
                    self.data_length, self.num_children)


@dataclass
class ZNode:
    """One node of the tree."""

    data: bytes = b""
    stat: Stat = field(default_factory=Stat)
    children: Set[str] = field(default_factory=set)
    #: Monotone counter feeding sequential-child suffixes.
    sequence_counter: int = 0

    @property
    def is_ephemeral(self) -> bool:
        return self.stat.ephemeral_owner is not None


class DataTree:
    """The replicated state: path -> znode, with ephemeral bookkeeping."""

    def __init__(self):
        self._nodes: Dict[str, ZNode] = {"/": ZNode()}
        #: session id -> set of ephemeral paths owned by that session.
        self._ephemerals: Dict[int, Set[str]] = {}

    # -- queries ---------------------------------------------------------

    def __contains__(self, path: str) -> bool:
        return path in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, path: str) -> ZNode:
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        return node

    def exists(self, path: str) -> Optional[Stat]:
        """Stat of ``path``, or None when absent (never raises NoNode)."""
        validate_path(path)
        node = self._nodes.get(path)
        return node.stat.copy() if node is not None else None

    def get_data(self, path: str) -> Tuple[bytes, Stat]:
        validate_path(path)
        node = self.node(path)
        return (node.data, node.stat.copy())

    def get_children(self, path: str) -> List[str]:
        validate_path(path)
        return sorted(self.node(path).children)

    def ephemerals_of(self, session_id: int) -> List[str]:
        return sorted(self._ephemerals.get(session_id, ()))

    def paths(self) -> Iterable[str]:
        return self._nodes.keys()

    # -- sequential naming ----------------------------------------------

    def next_sequential_path(self, path: str) -> str:
        """Resolve the final path of a sequential create (does not mutate)."""
        parent_path, _name = split_path(path)
        parent = self.node(parent_path)
        return f"{path}{parent.sequence_counter:010d}"

    # -- mutations ---------------------------------------------------------

    def create(self, path: str, data: bytes = b"",
               ephemeral_owner: Optional[int] = None,
               sequential: bool = False,
               zxid: int = 0, now: float = 0.0) -> str:
        """Create a znode; returns the actual path (suffix-resolved if sequential)."""
        validate_path(path)
        if not isinstance(data, bytes):
            raise BadArgumentsError("znode data must be bytes")
        parent_path, name = split_path(path)
        parent = self._nodes.get(parent_path)
        if parent is None:
            raise NoNodeError(f"parent missing: {parent_path}")
        if parent.stat.ephemeral_owner is not None:
            raise NoChildrenForEphemeralsError(parent_path)
        if sequential:
            suffix = f"{parent.sequence_counter:010d}"
            parent.sequence_counter += 1
            actual = path + suffix
            name += suffix
        else:
            actual = path
        if actual in self._nodes:
            raise NodeExistsError(actual)

        # Stat(czxid, mzxid, ctime, mtime, version, cversion,
        #      ephemeral_owner, data_length)
        stat = Stat(zxid, zxid, now, now, 0, 0, ephemeral_owner, len(data))
        self._nodes[actual] = ZNode(data, stat)
        parent.children.add(name)
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        if ephemeral_owner is not None:
            self._ephemerals.setdefault(ephemeral_owner, set()).add(actual)
        return actual

    def set_data(self, path: str, data: bytes, version: int = -1,
                 zxid: int = 0, now: float = 0.0) -> Stat:
        """Overwrite data; ``version`` of -1 means unconditional."""
        validate_path(path)
        if not isinstance(data, bytes):
            raise BadArgumentsError("znode data must be bytes")
        node = self.node(path)
        if version != -1 and node.stat.version != version:
            raise BadVersionError(
                f"{path}: expected v{version}, at v{node.stat.version}")
        node.data = data
        node.stat.version += 1
        node.stat.mzxid = zxid
        node.stat.mtime = now
        node.stat.data_length = len(data)
        return node.stat.copy()

    def delete(self, path: str, version: int = -1) -> None:
        """Delete a childless znode; ``version`` of -1 means unconditional."""
        validate_path(path)
        if path == "/":
            raise BadArgumentsError("cannot delete the root")
        node = self.node(path)
        if node.children:
            raise NotEmptyError(path)
        if version != -1 and node.stat.version != version:
            raise BadVersionError(
                f"{path}: expected v{version}, at v{node.stat.version}")
        del self._nodes[path]
        parent_path, name = split_path(path)
        parent = self._nodes[parent_path]
        parent.children.discard(name)
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        owner = node.stat.ephemeral_owner
        if owner is not None:
            owned = self._ephemerals.get(owner)
            if owned is not None:
                owned.discard(path)
                if not owned:
                    del self._ephemerals[owner]

    def kill_session(self, session_id: int) -> List[str]:
        """Delete every ephemeral owned by ``session_id``; returns the paths.

        Deletion order is deepest-first so parents never block on children.
        """
        doomed = sorted(self._ephemerals.get(session_id, ()),
                        key=lambda p: (-p.count("/"), p))
        for path in doomed:
            self.delete(path)
        return doomed

    # -- snapshot / restore (state transfer) ----------------------------------

    def snapshot(self) -> dict:
        """Deep-copy the tree for state transfer to a recovering replica."""
        return {
            "nodes": {
                path: (node.data, node.stat.copy(), set(node.children),
                       node.sequence_counter)
                for path, node in self._nodes.items()
            },
        }

    def restore(self, snapshot: dict) -> None:
        self._nodes = {}
        self._ephemerals = {}
        for path, (data, stat, children, seq) in snapshot["nodes"].items():
            node = ZNode(data=data, stat=stat.copy(),
                         children=set(children), sequence_counter=seq)
            self._nodes[path] = node
            if stat.ephemeral_owner is not None:
                self._ephemerals.setdefault(
                    stat.ephemeral_owner, set()).add(path)

    def fingerprint(self) -> int:
        """Order-insensitive digest for replica-consistency assertions."""
        acc = 0
        for path, node in self._nodes.items():
            acc ^= hash((path, node.data, node.stat.version,
                         node.stat.cversion, node.stat.ephemeral_owner))
        return acc
