"""The ZooKeeper data model: a hierarchical tree of versioned znodes.

Supports the semantics the paper's recipes rely on: per-node data
versions (conditional writes), ephemeral nodes (deleted when the owning
session dies), sequential nodes (server-assigned monotone suffixes),
and child listings. The tree is deterministic: applying the same
transaction sequence always produces the same state, which both the Zab
pipeline and the BFT comparison tests rely on.

A tree can also take a **savepoint**: an undo log that keeps each node
as it was before its first write, so a batch of writes is rolled back
or kept as a whole. The leader's speculative tree takes one around a
``MultiOp`` and around each extension run (EZK's state proxy), which
therefore write that one tree directly, as EDS's proxy writes its tuple
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import (BadArgumentsError, NoChildrenForEphemeralsError,
                     NodeExistsError, NoNodeError, NotEmptyError,
                     BadVersionError)

__all__ = ["Stat", "ZNode", "DataTree", "split_path", "parent_of",
           "validate_path"]


def validate_path(path: str) -> None:
    """Reject malformed paths (must be absolute, no empty or dot components)."""
    if not path or path[0] != "/":
        raise BadArgumentsError(f"path must be absolute: {path!r}")
    if path != "/" and path.endswith("/"):
        raise BadArgumentsError(f"path must not end with '/': {path!r}")
    for component in path.split("/")[1:]:
        if path == "/":
            break
        if not component or component in (".", ".."):
            raise BadArgumentsError(f"bad path component in {path!r}")


def checked_split(path: str, known) -> Tuple[str, str]:
    """:func:`split_path` of ``path``, validated on the way.

    ``known`` holds paths that already passed :func:`validate_path` (a
    tree's node table: every key in it did). A child of one of them
    needs only its last component checked; any other path is validated
    in full. Either way exactly the paths :func:`validate_path` accepts
    get through, and nothing is cached.
    """
    head, sep, name = path.rpartition("/")
    parent = head or "/"
    if (not sep or head == "/" or not name or name == "." or name == ".."
            or parent not in known):
        validate_path(path)
        if path == "/":
            raise BadArgumentsError("cannot split the root path")
    return parent, name


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
    #: The key a tree holds this node under, the very ``str`` object:
    #: a child listing hands it on, so a ``DeleteTxn`` in the log names
    #: the string its ``CreateTxn`` already holds instead of a copy.
    path: str = "/"


def advance_sequence(parent: ZNode, name: str) -> None:
    """Move ``parent``'s counter past ``name``'s 10-digit suffix, if any.

    A ``CreateTxn`` carries the name the leader resolved at prep, so this
    is how a tree that applies it (every replica's committed tree, and
    the leader a failover later copies from it) learns the suffixes
    handed out, without the counter travelling on the wire.
    """
    suffix = name[-10:]
    if len(suffix) == 10 and suffix.isascii() and suffix.isdigit():
        parent.sequence_counter = max(parent.sequence_counter,
                                      int(suffix) + 1)


class DataTree:
    """The replicated state: path -> znode, with ephemeral bookkeeping."""

    def __init__(self):
        self._nodes: Dict[str, ZNode] = {"/": ZNode()}
        #: session id -> set of ephemeral paths owned by that session.
        self._ephemerals: Dict[int, Set[str]] = {}
        #: The open savepoint's undo log: path -> the node before the
        #: savepoint's first write to it (None: it did not exist).
        self._undo: Optional[Dict[str, Optional[ZNode]]] = None

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

    def _lookup(self, path: str) -> Optional[ZNode]:
        """The node at ``path``, or None; a path the tree does not hold
        is validated (a held one passed when it was created)."""
        node = self._nodes.get(path)
        if node is None:
            checked_split(path, self._nodes)
        return node

    def exists(self, path: str) -> Optional[Stat]:
        """Stat of ``path``, or None when absent (never raises NoNode)."""
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

    def children_nodes(self, path: str) -> List[ZNode]:
        """The node of every child of ``path``.

        Bulk read for directory-scan consumers (the EZK state proxy lists
        whole queue directories on every extension invocation): one pass
        over the children with plain dict probes, no path validation or
        stat copies. A child's path is ``ZNode.path``, the key the tree
        holds it under. Iteration order is unspecified; the nodes are
        shared, not copies — callers must not mutate them.
        """
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        prefix = "/" if path == "/" else path + "/"
        nodes = self._nodes
        return [nodes[prefix + name] for name in node.children]

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
        parent_path, name = checked_split(path, self._nodes)
        if not isinstance(data, bytes):
            raise BadArgumentsError("znode data must be bytes")
        parent = self._nodes.get(parent_path)
        if parent is None:
            raise NoNodeError(f"parent missing: {parent_path}")
        if parent.stat.ephemeral_owner is not None:
            raise NoChildrenForEphemeralsError(parent_path)
        if self._undo is not None:
            self._save(parent_path)
        if sequential:
            suffix = f"{parent.sequence_counter:010d}"
            parent.sequence_counter += 1
            actual = path + suffix
            name += suffix
        else:
            actual = path
        if actual in self._nodes:
            raise NodeExistsError(actual)
        if self._undo is not None:
            self._save(actual)

        # Stat(czxid, mzxid, ctime, mtime, version, cversion,
        #      ephemeral_owner, data_length)
        stat = Stat(zxid, zxid, now, now, 0, 0, ephemeral_owner, len(data))
        self._nodes[actual] = ZNode(data, stat, path=actual)
        parent.children.add(name)
        advance_sequence(parent, name)
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        if ephemeral_owner is not None:
            self._ephemerals.setdefault(ephemeral_owner, set()).add(actual)
        return actual

    def set_data(self, path: str, data: bytes, version: int = -1,
                 zxid: int = 0, now: float = 0.0) -> Stat:
        """Overwrite data; ``version`` of -1 means unconditional."""
        node = self._lookup(path)
        if not isinstance(data, bytes):
            raise BadArgumentsError("znode data must be bytes")
        if node is None:
            raise NoNodeError(path)
        if version != -1 and node.stat.version != version:
            raise BadVersionError(
                f"{path}: expected v{version}, at v{node.stat.version}")
        if self._undo is not None:
            self._save(path)
        node.data = data
        node.stat.version += 1
        node.stat.mzxid = zxid
        node.stat.mtime = now
        node.stat.data_length = len(data)
        return node.stat.copy()

    def delete(self, path: str, version: int = -1) -> None:
        """Delete a childless znode; ``version`` of -1 means unconditional."""
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
        parent_path, name = split_path(path)
        if self._undo is not None:
            self._save(path)
            self._save(parent_path)
        del self._nodes[path]
        parent = self._nodes[parent_path]
        parent.children.discard(name)
        parent.stat.cversion += 1
        parent.stat.num_children = len(parent.children)
        self._unindex(node)

    def _unindex(self, node: ZNode) -> None:
        """Drop ``node`` from the ephemeral index, if it is there."""
        owner = node.stat.ephemeral_owner
        if owner is not None:
            owned = self._ephemerals.get(owner)
            if owned is not None:
                owned.discard(node.path)
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

    # -- savepoint (batched writes kept or undone as a whole) ----------------

    def savepoint(self) -> None:
        """Open an undo log: from here each node is saved once, before
        the first write to it, until :meth:`rollback` or :meth:`release`.
        Savepoints do not nest."""
        if self._undo is not None:
            raise RuntimeError("a savepoint is already open")
        self._undo = {}

    def _save(self, path: str) -> None:
        undo = self._undo
        if path not in undo:
            node = self._nodes.get(path)
            undo[path] = None if node is None else ZNode(
                node.data, node.stat.copy(), set(node.children),
                node.sequence_counter, node.path)

    def rollback(self) -> None:
        """Put back every node the open savepoint saved (the ephemeral
        index with them) and close it; without one, nothing happens."""
        undo, self._undo = self._undo or {}, None
        nodes = self._nodes
        for path, saved in undo.items():
            current = nodes.get(path)
            if current is not None:
                self._unindex(current)
                if saved is None:
                    del nodes[path]
            if saved is not None:
                nodes[saved.path] = saved
                owner = saved.stat.ephemeral_owner
                if owner is not None:
                    self._ephemerals.setdefault(owner, set()).add(saved.path)

    def release(self) -> None:
        """Keep the writes made under the open savepoint, and close it."""
        self._undo = None

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
                         children=set(children), sequence_counter=seq,
                         path=path)
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
