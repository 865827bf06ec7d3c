"""One-shot watches, mirroring ZooKeeper's notification mechanism.

Watches live at the replica a client is connected to. A watch is set as a
side effect of a read (``exists``/``get_data`` set data watches;
``get_children`` sets child watches) and fires at most once; re-arming
requires a new read. Extensible ZooKeeper (EZK) hooks
:meth:`WatchManager.trigger` so the extension manager can intercept the
event and suppress the client notification (§5.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Set, Tuple

__all__ = ["EventType", "WatchEvent", "WatchManager"]


class EventType(str, Enum):
    """State-change event kinds a watch can report."""

    NODE_CREATED = "NODE_CREATED"
    NODE_DELETED = "NODE_DELETED"
    NODE_DATA_CHANGED = "NODE_DATA_CHANGED"
    NODE_CHILDREN_CHANGED = "NODE_CHILDREN_CHANGED"


@dataclass(frozen=True)
class WatchEvent:
    """Notification payload delivered to a watching client."""

    event_type: EventType
    path: str


class WatchManager:
    """Tracks (path -> watcher session ids) for data and child watches."""

    def __init__(self):
        self._data_watches: Dict[str, Set[int]] = {}
        self._child_watches: Dict[str, Set[int]] = {}

    # -- registration ----------------------------------------------------

    def add_data_watch(self, path: str, session_id: int) -> None:
        """Arm a data watch (covers create, delete, and data change)."""
        self._data_watches.setdefault(path, set()).add(session_id)

    def add_child_watch(self, path: str, session_id: int) -> None:
        """Arm a child watch (covers child create/delete under ``path``)."""
        self._child_watches.setdefault(path, set()).add(session_id)

    def remove_session(self, session_id: int) -> None:
        """Drop every watch owned by a dead session."""
        for table in (self._data_watches, self._child_watches):
            empty = []
            for path, owners in table.items():
                owners.discard(session_id)
                if not owners:
                    empty.append(path)
            for path in empty:
                del table[path]

    def counts(self) -> Tuple[int, int]:
        """(distinct watched paths, total registrations) across both kinds.

        Backs the ``wchs`` introspection command; watches are replica-
        local, so this is the answering replica's view only.
        """
        paths = set(self._data_watches) | set(self._child_watches)
        total = (sum(len(owners) for owners in self._data_watches.values())
                 + sum(len(owners) for owners in self._child_watches.values()))
        return len(paths), total

    @property
    def armed(self) -> bool:
        """True while any data or child watch waits to fire."""
        return bool(self._data_watches or self._child_watches)

    def data_watchers(self, path: str) -> Set[int]:
        return set(self._data_watches.get(path, ()))

    def child_watchers(self, path: str) -> Set[int]:
        return set(self._child_watches.get(path, ()))

    # -- firing ------------------------------------------------------------

    def trigger(self, path: str,
                event_type: EventType) -> List[Tuple[int, WatchEvent]]:
        """Fire and clear watches for one state change.

        Returns (session_id, event) pairs for the *node-level* watchers;
        parent child-watch notifications are produced by
        :meth:`trigger_children` so callers can distinguish the two.
        """
        watchers = self._data_watches.pop(path, None)
        if not watchers:
            return []
        event = WatchEvent(event_type, path)
        return [(session_id, event) for session_id in sorted(watchers)]

    def trigger_children(self, parent: str) -> List[Tuple[int, WatchEvent]]:
        """Fire and clear child watches on ``parent``."""
        watchers = self._child_watches.pop(parent, None)
        if not watchers:
            return []
        event = WatchEvent(EventType.NODE_CHILDREN_CHANGED, parent)
        return [(session_id, event) for session_id in sorted(watchers)]
