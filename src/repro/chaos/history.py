"""Operation-history recording for the chaos harness.

Every client operation is logged as an *invoke* event when it starts
and an *ok*/*fail* event when it returns, stamped with the virtual
time, the process (client) name, and — for ZooKeeper-family clients —
the session's last-seen zxid. The checker consumes paired events as
:class:`OpRecord` objects; the replay test consumes the raw event
stream through :meth:`History.canonical`, which is deterministic down
to the byte for a fixed seed and schedule.

:class:`RecordingCoord` wraps any :class:`~repro.recipes.CoordClient`
so recipe code runs unmodified while producing a history.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional

from ..recipes import CoordClient

__all__ = ["HistoryEvent", "OpRecord", "History", "RecordingCoord"]


@dataclasses.dataclass(frozen=True)
class HistoryEvent:
    """One invoke/ok/fail line in the history log."""

    seq: int            # global order of recording (total order)
    time: float         # virtual ms
    proc: str           # client / process name
    phase: str          # "invoke" | "ok" | "fail"
    op: str             # operation name ("read", "inc", "remove", ...)
    key: str = ""       # object id / path the op targets
    value: Any = None   # argument (invoke) or result/error (ok/fail)
    zxid: int = 0       # session's last-seen zxid at completion


@dataclasses.dataclass
class OpRecord:
    """An invoke paired with its completion (or left pending)."""

    proc: str
    op: str
    key: str
    arg: Any
    status: str                 # "ok" | "fail" | "pending"
    result: Any
    invoke_time: float
    return_time: Optional[float]
    zxid: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def in_doubt(self) -> bool:
        """Fail/pending updates *may* have taken effect server-side."""
        return self.status != "ok"


class History:
    """Append-only event log shared by all recorded clients of one run."""

    def __init__(self) -> None:
        self.events: List[HistoryEvent] = []
        self._open: dict = {}   # token -> index of the invoke event

    # -- recording ---------------------------------------------------------

    def invoke(self, time: float, proc: str, op: str, key: str = "",
               value: Any = None) -> int:
        """Log an invocation; returns a token to close it with."""
        token = len(self.events)
        self.events.append(HistoryEvent(token, time, proc, "invoke",
                                        op, key, value))
        self._open[token] = token
        return token

    def ok(self, token: int, time: float, value: Any = None,
           zxid: int = 0) -> None:
        invoke = self.events[self._open.pop(token)]
        self.events.append(HistoryEvent(len(self.events), time, invoke.proc,
                                        "ok", invoke.op, invoke.key,
                                        value, zxid))

    def fail(self, token: int, time: float, error: str) -> None:
        invoke = self.events[self._open.pop(token)]
        self.events.append(HistoryEvent(len(self.events), time, invoke.proc,
                                        "fail", invoke.op, invoke.key,
                                        error))

    # -- consumption -------------------------------------------------------

    def ops(self) -> List[OpRecord]:
        """Pair invokes with completions; unmatched invokes are pending."""
        records: List[OpRecord] = []
        open_by_token: dict = {}
        for event in self.events:
            if event.phase == "invoke":
                record = OpRecord(event.proc, event.op, event.key,
                                  event.value, "pending", None,
                                  event.time, None)
                open_by_token[event.seq] = record
                records.append(record)
            else:
                # Completions close the oldest open op of the same
                # proc/op/key (each sim process has ≤1 outstanding op,
                # so this is unambiguous).
                for token, record in open_by_token.items():
                    if (record.proc == event.proc and record.op == event.op
                            and record.key == event.key):
                        record.status = event.phase
                        record.result = event.value
                        record.return_time = event.time
                        record.zxid = event.zxid
                        del open_by_token[token]
                        break
        return records

    def canonical(self) -> str:
        """Deterministic byte representation (replay comparisons)."""
        lines = []
        for e in self.events:
            lines.append(f"{e.seq}\t{e.time:.6f}\t{e.proc}\t{e.phase}\t"
                         f"{e.op}\t{e.key}\t{e.value!r}\t{e.zxid}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


class RecordingCoord(CoordClient):
    """A :class:`CoordClient` that logs every call to a :class:`History`.

    Also exposes :meth:`mark` for recipe-level operations (increment,
    remove, enter, ...) whose semantics the checkers reason about —
    the raw object ops underneath stay in the log for replay and
    debugging, but checkers filter on the recipe-level marks.
    """

    def __init__(self, inner: CoordClient, history: History, proc: str,
                 env) -> None:
        self.inner = inner
        self.history = history
        self.proc = proc
        self.env = env

    @property
    def client_id(self) -> str:
        return self.inner.client_id

    def _zxid(self) -> int:
        zk = getattr(self.inner, "zk", None)
        return getattr(zk, "last_zxid", 0) if zk is not None else 0

    def _record(self, op: str, key: str, arg: Any, gen):
        token = self.history.invoke(self.env.now, self.proc, op, key, arg)
        try:
            value = yield from gen
        except Exception as exc:
            self.history.fail(token, self.env.now,
                              f"{exc.__class__.__name__}: {exc}")
            raise
        self.history.ok(token, self.env.now, value, self._zxid())
        return value

    def mark(self, op: str, key: str, arg: Any, gen):
        """Record a recipe-level operation wrapping generator ``gen``."""
        return self._record(op, key, arg, gen)

    # -- CoordClient surface (all delegated + recorded) --------------------

    def create(self, object_id: str, data: bytes = b""):
        return self._record("create", object_id, data,
                            self.inner.create(object_id, data))

    def delete(self, object_id: str):
        return self._record("delete", object_id, None,
                            self.inner.delete(object_id))

    def read(self, object_id: str):
        return self._record("read", object_id, None,
                            self.inner.read(object_id))

    def update(self, object_id: str, data: bytes):
        return self._record("update", object_id, data,
                            self.inner.update(object_id, data))

    def cas(self, object_id: str, expected: bytes, new: bytes):
        return self._record("cas", object_id, (expected, new),
                            self.inner.cas(object_id, expected, new))

    def sub_objects(self, object_id: str, with_data: bool = True):
        return self._record("sub_objects", object_id, None,
                            self.inner.sub_objects(object_id, with_data))

    def block(self, object_id: str):
        return self._record("block", object_id, None,
                            self.inner.block(object_id))

    def monitor(self, object_id: str, data: bytes = b""):
        return self._record("monitor", object_id, data,
                            self.inner.monitor(object_id, data))

    def wait_deletion(self, object_id: str):
        return self._record("wait_deletion", object_id, None,
                            self.inner.wait_deletion(object_id))

    def register_extension(self, name: str, source: str):
        return self._record("register_extension", name, None,
                            self.inner.register_extension(name, source))

    def acknowledge_extension(self, name: str):
        return self._record("acknowledge_extension", name, None,
                            self.inner.acknowledge_extension(name))

    def __getattr__(self, name: str):
        # Adapter extras (ensure_liveness, zk, ds, ...) pass through.
        return getattr(self.inner, name)
