"""EXTENSIBLE DEPSPACE: the extension layer at the bottom of the stack.

Mirrors §5.2.2:

* a new **extension layer** sits directly above BFT ordering (the
  replica's ``extensions`` slot, :meth:`EdsBinding.intercept`): every
  ordered client request passes through it, and matches are redirected
  to operation extensions which execute **deterministically at every
  replica** via the direct state proxy;
* **events** are insertions, in-place updates and removals; event
  extensions run at every replica after the triggering request
  executes, and an extension can veto an unblock, making the blocked
  call block again (:meth:`EdsBinding.allow_unblock`);
* **registration** travels as ordinary tuples in the dedicated ``_em``
  space that regular operations cannot touch: ``("ext", name, source)``
  to register, ``("ack", name)`` to acknowledge, an ``inp`` on the
  extension tuple to deregister. The persisted tuples are the §3.8
  fault-tolerance state — recovery rebuilds the registry from them.
"""

from __future__ import annotations

import functools
from typing import Any, List, Optional, Tuple

from ..core import (EventNotice, ExtensionError, OperationRequest,
                    SandboxLimits, VerifierConfig)
from ..core.binding import ExtensionBinding
from ..depspace.bft import BftRequest
from ..depspace.policy import PolicyViolationError
from ..depspace.protocol import (CasOp, DsOp, InOp, InpOp, OutOp, RdAllOp,
                                 RdOp, RdpOp, ReplaceOp)
from ..depspace.server import BLOCKED, DsEvent, DsReplica, Waiter
from ..depspace.tuples import ANY, Prefix, _Any
from .state_proxy import EXT_SPACE, DsDirectState

__all__ = ["EdsBinding", "EM_SPACE", "describe_ds_op"]

EM_SPACE = "_em"
_MAX_EVENT_DEPTH = 8


def _by_template(op_type: str):
    """Describe an op whose ``(name, ANY)`` template names the object."""
    def describe(op, client_id: str) -> Optional[OperationRequest]:
        template = op.template
        if (len(template) == 2 and isinstance(template[0], str)
                and isinstance(template[1], _Any)):
            return OperationRequest(op_type, template[0], client_id)
        return None
    return describe


def _by_entry(op_type: str):
    """Describe an op whose ``(name, data)`` entry writes the object."""
    def describe(op, client_id: str) -> Optional[OperationRequest]:
        entry = op.entry
        if len(entry) == 2 and isinstance(entry[0], str):
            return OperationRequest(
                op_type, entry[0], client_id,
                entry[1] if isinstance(entry[1], bytes) else b"")
        return None
    return describe


def _describe_cas(op: CasOp, client_id: str) -> Optional[OperationRequest]:
    # The adapter realizes the object model's duplicate-rejecting create
    # as a name-unique conditional insert (cas) — same object operation.
    template, entry = op.template, op.entry
    if (len(template) == 2 and isinstance(template[0], str)
            and isinstance(template[1], _Any)
            and len(entry) == 2 and entry[0] == template[0]):
        return OperationRequest(
            "create", entry[0], client_id,
            entry[1] if isinstance(entry[1], bytes) else b"")
    return None


def _describe_rdall(op: RdAllOp, client_id: str) -> Optional[OperationRequest]:
    if len(op.template) == 2 and isinstance(op.template[0], Prefix):
        prefix = op.template[0].prefix.rstrip("/")
        return OperationRequest("sub_objects", prefix, client_id)
    return None


#: Exact-type dispatch for :func:`describe_ds_op` (no op subclasses).
_DESCRIBE = {
    RdpOp: _by_template("read"),
    RdOp: _by_template("block"),
    InOp: _by_template("block"),
    InpOp: _by_template("delete"),
    OutOp: _by_entry("create"),
    CasOp: _describe_cas,
    ReplaceOp: _by_entry("update"),
    RdAllOp: _describe_rdall,
}


def describe_ds_op(op: DsOp, client_id: str) -> Optional[OperationRequest]:
    """Normalize a DepSpace op under the (name, payload) object convention."""
    describe = _DESCRIBE.get(op.__class__)
    return describe(op, client_id) if describe is not None else None


#: DepSpace event kinds -> abstract event kinds.
_NOTICE_KINDS = {"inserted": "created", "updated": "changed",
                 "removed": "deleted", "expired": "deleted"}


def _event_notice(event: DsEvent) -> Optional[EventNotice]:
    if event.space != EXT_SPACE or len(event.entry) != 2:
        return None
    name = event.entry[0]
    if not isinstance(name, str):
        return None
    data = event.entry[1] if isinstance(event.entry[1], bytes) else b""
    return EventNotice(_NOTICE_KINDS[event.kind], name, data)


class EdsBinding(ExtensionBinding):
    """Installs an :class:`ExtensionManager` into one DepSpace replica."""

    describe = staticmethod(describe_ds_op)

    def __init__(self, replica: DsReplica,
                 verifier_config: Optional[VerifierConfig] = None,
                 limits: Optional[SandboxLimits] = None):
        super().__init__(verifier_config, limits)
        self.replica = replica
        replica.extensions = self
        self._event_depth = 0
        self._veto = functools.partial(self.manager.execute_event,
                                       handler="allow_unblock")

    def consumes(self, client_id: str, op: DsOp) -> bool:
        """Fast-read gate: extension-consumed reads must be ordered."""
        if getattr(op, "space", None) == EM_SPACE:
            return True
        return super().consumes(client_id, op)

    # -- operation interception (every replica, at execution) -----------------

    def intercept(self, request: BftRequest, ts: float,
                  events: List[DsEvent]) -> Optional[tuple]:
        client_id = request.request_id.client_id
        op = request.op
        if getattr(op, "space", None) == EM_SPACE:
            return self._handle_em_op(client_id, op)

        def begin(_record) -> DsDirectState:
            return DsDirectState(self.replica, client_id, ts, events,
                                 request_id=request.request_id)

        ran = self.run_operation(client_id, op, begin)
        if ran is None:
            return None
        proxy, result = ran
        self.replica._wake_waiters(EXT_SPACE, ts, events)
        return (BLOCKED if proxy.blocked else result,)

    # -- extension lifecycle via the _em space ---------------------------------

    def _handle_em_op(self, client_id: str, op: DsOp) -> Optional[tuple]:
        em_space = self.replica.space(EM_SPACE)
        if isinstance(op, OutOp) and len(op.entry) == 3 and \
                op.entry[0] == "ext":
            _tag, name, source = op.entry
            self.manager.register(name, source, owner=client_id)
            em_space.inp(("ext", name, ANY, ANY))
            em_space.out(("ext", name, source, client_id))
            return (True,)
        if isinstance(op, OutOp) and len(op.entry) == 2 and \
                op.entry[0] == "ack":
            _tag, name = op.entry
            self.manager.acknowledge(name, client_id)
            em_space.out(("ack", name, client_id))
            return (True,)
        if isinstance(op, InpOp) and len(op.template) >= 2 and \
                op.template[0] == "ext":
            name = op.template[1]
            self.manager.deregister(name)
            removed = em_space.inp(("ext", name, ANY, ANY))
            while em_space.inp(("ack", name, ANY)) is not None:
                pass
            return (removed is not None,)
        raise PolicyViolationError(
            "the extension-manager space accepts only registration, "
            "acknowledgement, and deregistration operations")

    # -- events (every replica, §5.2.2) ------------------------------------------

    def on_events(self, events: List[DsEvent], ts: float) -> None:
        """Run event extensions for ``events``; the writes of each run raise
        follow-up events in turn, up to ``_MAX_EVENT_DEPTH`` levels."""
        if (self._event_depth >= _MAX_EVENT_DEPTH
                or not self.manager.handles_events):
            # Registrations arrive as _em-space ops, never as events, so
            # nothing in this batch can subscribe the first extension.
            return
        replica = self.replica

        def begin(record) -> DsDirectState:
            return DsDirectState(replica, record.owner, ts, [])

        def commit(proxy: DsDirectState) -> None:
            replica._wake_waiters(EXT_SPACE, ts, proxy.events)
            if proxy.events:
                self.on_events(proxy.events, ts)

        self._event_depth += 1
        try:
            for event in events:
                notice = _event_notice(event)
                if notice is not None:
                    self.run_events(notice, begin, commit)
        finally:
            self._event_depth -= 1

    # -- unblock veto (§5.2.2) -----------------------------------------------------

    def allow_unblock(self, waiter: Waiter, entry: Tuple[Any, ...],
                      ts: float) -> bool:
        """False re-blocks the waiter; extensions opt in by defining
        ``allow_unblock(event, local)``, which runs sandboxed like any
        entry point. A veto rolls back the vetoing run's writes; a run
        that fails is contained, rolled back, and does not veto."""
        if len(entry) != 2 or not isinstance(entry[0], str):
            return True
        notice = EventNotice("created", entry[0],
                             entry[1] if isinstance(entry[1], bytes) else b"")
        client_id = waiter.request_id.client_id

        def begin(_record) -> DsDirectState:
            return DsDirectState(self.replica, client_id, ts, [])

        for record in self.manager.match_events(notice):
            if (not hasattr(record.instance, "allow_unblock")
                    or not record.authorized(client_id)):
                continue
            try:
                proxy, allowed = self._execute(begin, self._veto, record,
                                               notice)
            except ExtensionError:
                continue
            if not allowed:
                proxy.rollback()
                return False
        return True

    # -- recovery (§3.8) -------------------------------------------------------------

    def registrations(self) -> List[Tuple[str, str, str, List[str]]]:
        """The registry as persisted in the _em tuples."""
        em_space = self.replica.space(EM_SPACE)
        acks = em_space.rdall(("ack", ANY, ANY))
        return [(name, source, owner,
                 [client for _tag, ext, client in acks if ext == name])
                for _tag, name, source, owner
                in em_space.rdall(("ext", ANY, ANY, ANY))]
