"""EXTENSIBLE ZOOKEEPER: wiring the extension manager into the replica.

The binding sits in the server's ``extensions`` slot and mirrors §5.1.2
exactly:

* the extension manager intercepts requests at the **preprocessor
  stage** (:meth:`EzkBinding.intercept`) and redirects matches to
  extensions, which write the leader's speculative tree under a
  savepoint; the recorded write-set becomes one multi-transaction that
  travels the unchanged Zab pipeline, with the extension's result
  piggybacked for the final processor to hand to the client;
* **reads that match an extension** are routed to the leader like
  updates (:meth:`~repro.core.binding.ExtensionBinding.consumes`)
  instead of taking the local fast path;
* **event extensions** run at the primary when a watch-relevant state
  change applies; the original client notification is suppressed at the
  replica holding the watch when a matching acknowledged event
  extension exists;
* **registration** uses the standard API: ``create("/em/<name>", code)``.
  The leader verifies the code and writes the create into its
  speculative tree at prep time (a rejected extension, or a name already
  taken, aborts before anything is proposed); the committed create then
  registers the extension deterministically at every replica.
  Acknowledgement is a create of ``/em/<name>/ack-<client>``;
  deregistration deletes the extension's data object. ``/em``'s
  children are the index object that recovery reads (§3.8).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import (EventNotice, ExtensionError, OperationRequest,
                    SandboxLimits, VerifierConfig)
from ..core.binding import ExtensionBinding
from ..zk.errors import ZkError
from ..zk.server import StateEvent, ZkServer
from ..zk.txn import (CreateOp, CreateTxn, DeleteOp, ExistsOp, GetChildrenOp,
                      GetDataOp, MultiTxn, Op, RequestMeta, SetDataOp)
from ..zk.watches import EventType, WatchEvent
from .state_proxy import ZkBufferedState

__all__ = ["EzkBinding", "EM_ROOT", "describe_zk_op", "pack_registration",
           "unpack_registration"]

EM_ROOT = "/em"
_EM_PREFIX = EM_ROOT + "/"
_ACK_PREFIX = "ack-"


def describe_zk_op(op: Op, client_id: str) -> Optional[OperationRequest]:
    """Normalize a ZooKeeper operation for subscription matching."""
    describe = _DESCRIBERS.get(op.__class__)
    return describe(op, client_id) if describe is not None else None


# One describer per operation type, dispatched from describe_zk_op.

def _describe_get_data(op: GetDataOp, client_id: str) -> OperationRequest:
    return OperationRequest("read", op.path, client_id)


def _describe_set_data(op: SetDataOp, client_id: str) -> OperationRequest:
    return OperationRequest("update", op.path, client_id, op.data,
                            {"version": op.version})


def _describe_create(op: CreateOp, client_id: str) -> OperationRequest:
    return OperationRequest("create", op.path, client_id, op.data,
                            {"ephemeral": op.ephemeral,
                             "sequential": op.sequential})


def _describe_delete(op: DeleteOp, client_id: str) -> OperationRequest:
    return OperationRequest("delete", op.path, client_id,
                            params={"version": op.version})


def _describe_get_children(op: GetChildrenOp,
                           client_id: str) -> OperationRequest:
    return OperationRequest("sub_objects", op.path, client_id)


def _describe_exists(op: ExistsOp, client_id: str) -> OperationRequest:
    kind = "block" if op.watch else "exists"
    return OperationRequest(kind, op.path, client_id)


#: Exact-type dispatch for :func:`describe_zk_op`; other ops (sessions,
#: multi, ping, sync) match no subscription.
_DESCRIBERS = {
    GetDataOp: _describe_get_data,
    SetDataOp: _describe_set_data,
    CreateOp: _describe_create,
    DeleteOp: _describe_delete,
    GetChildrenOp: _describe_get_children,
    ExistsOp: _describe_exists,
}


def pack_registration(owner: str, source: str) -> bytes:
    """Encode (owner, source) into the extension data object's payload."""
    return f"{owner}\n{source}".encode("utf-8")


def unpack_registration(data: bytes) -> Tuple[str, str]:
    owner, _, source = data.decode("utf-8").partition("\n")
    return owner, source


#: State-change kinds event extensions subscribe to (children-changed
#: has no abstract counterpart).
_NOTICE_KINDS = {
    EventType.NODE_CREATED: "created",
    EventType.NODE_DELETED: "deleted",
    EventType.NODE_DATA_CHANGED: "changed",
}


def _as_zk_error(exc: ExtensionError) -> ZkError:
    error = ZkError(str(exc))
    error.code = exc.code
    return error


class EzkBinding(ExtensionBinding):
    """Installs an :class:`ExtensionManager` into one ZkServer replica."""

    describe = staticmethod(describe_zk_op)

    def __init__(self, server: ZkServer,
                 verifier_config: Optional[VerifierConfig] = None,
                 limits: Optional[SandboxLimits] = None,
                 helpers: Optional[dict] = None):
        # EZK is passively replicated: extensions execute only at the
        # primary, so helpers may be nondeterministic (§4.1.1) — e.g.
        # a wall-clock. EDS must not install such helpers.
        super().__init__(verifier_config, limits, helpers)
        self.server = server
        server.extensions = self

    @staticmethod
    def writes_registry(paths) -> bool:
        """True when writing ``paths`` can change the registry (§3.5)."""
        return any(path.startswith(_EM_PREFIX) for path in paths)

    def _begin(self, _record) -> ZkBufferedState:
        server = self.server
        return ZkBufferedState(server._spec_tree, server.broadcast.next_zxid,
                               server.env.now)

    # -- prep-stage interception (leader) -----------------------------------

    def intercept(self, meta: RequestMeta, op: Op) -> Optional[MultiTxn]:
        """The multi-transaction an extension rewrote ``op`` into, if any.

        The run writes the leader's speculative tree, which
        :meth:`ZkServer._propose` then finds already written. A failed
        extension raises :class:`ZkError` after its writes are rolled
        back, so the service state is untouched.
        """
        try:
            registration = self._intercept_registration(meta, op)
            if registration is not None:
                return registration
            ran = self.run_operation(str(meta.session_id), op, self._begin)
        except ExtensionError as exc:
            raise _as_zk_error(exc) from exc
        if ran is None:
            return None
        proxy, result = ran
        return proxy.to_multi_txn(result)

    def _intercept_registration(self, meta: RequestMeta,
                                op: Op) -> Optional[MultiTxn]:
        """Verify-and-rewrite ``create("/em/<name>", code)`` at prep time."""
        if not isinstance(op, CreateOp):
            return None
        if not op.path.startswith(_EM_PREFIX):
            return None
        relative = op.path[len(EM_ROOT) + 1:]
        if "/" in relative:
            return None  # an ack child: let the normal create proceed
        source = op.data.decode("utf-8")
        self.manager.verify_cached(source, relative)
        packed = pack_registration(str(meta.session_id), source)
        server = self.server
        path = server._spec_tree.create(op.path, packed,
                                        zxid=server.broadcast.next_zxid,
                                        now=server.env.now)
        return MultiTxn([CreateTxn(path, packed, None)],
                        result_payload=path, payload_set=True)

    # -- apply-stage hooks (every replica) ------------------------------------

    def on_events(self, events: List[StateEvent]) -> None:
        """§5.1.1 / §6.3: in EZK, event extensions execute only at the
        primary, which then distributes the resulting state modifications.
        A follower only applies registrations under ``/em``."""
        leader = self.server.broadcast.is_leader
        manager = self.manager
        for event in events:
            if event.path.startswith(_EM_PREFIX):
                self._handle_em_event(event)
                continue
            # Read per event: an /em event earlier in the batch may have
            # registered the first event extension.
            if not leader or not manager.handles_events:
                continue
            kind = _NOTICE_KINDS.get(event.event_type)
            if kind is not None:
                self.run_events(EventNotice(kind, event.path, event.data),
                                self._begin, self._propose)

    def _propose(self, proxy: ZkBufferedState) -> None:
        txn = proxy.to_multi_txn()
        if txn.txns:
            self.server._propose(txn, None)

    def _handle_em_event(self, event: StateEvent) -> None:
        relative = event.path[len(EM_ROOT) + 1:]
        parts = relative.split("/")
        if len(parts) == 1:
            name = parts[0]
            if event.event_type is EventType.NODE_CREATED:
                owner, source = unpack_registration(event.data)
                try:
                    self.manager.register(name, source, owner)
                except ExtensionError:
                    # Prep already verified; a failure here would mean
                    # nondeterministic verification — refuse the cache
                    # entry but keep the replica alive.
                    pass
            elif event.event_type is EventType.NODE_DELETED:
                self.manager.deregister(name)
        elif len(parts) == 2 and parts[1].startswith(_ACK_PREFIX):
            name, client_id = parts[0], parts[1][len(_ACK_PREFIX):]
            if event.event_type is EventType.NODE_CREATED:
                try:
                    self.manager.acknowledge(name, client_id)
                except ExtensionError:
                    pass

    def suppresses(self, session_id: int, event: WatchEvent) -> bool:
        """§5.1.2: drop a watch notification an acknowledged event
        extension takes over."""
        kind = _NOTICE_KINDS.get(event.event_type)
        if kind is None:
            return False
        return self.manager.suppresses_notification(
            str(session_id), EventNotice(kind, event.path))

    # -- recovery (§3.8) --------------------------------------------------------

    def registrations(self) -> List[Tuple[str, str, str, List[str]]]:
        """The registry as recorded by the /em index in the local tree."""
        tree = self.server.tree
        if EM_ROOT not in tree:
            return []
        records = []
        for name in tree.get_children(EM_ROOT):
            data, _stat = tree.get_data(f"{EM_ROOT}/{name}")
            owner, source = unpack_registration(data)
            acked = [
                child[len(_ACK_PREFIX):]
                for child in tree.get_children(f"{EM_ROOT}/{name}")
                if child.startswith(_ACK_PREFIX)
            ]
            records.append((name, source, owner, acked))
        return records
