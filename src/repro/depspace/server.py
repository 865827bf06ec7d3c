"""A DepSpace replica: the layer stack of the paper's Figure 4.

From the bottom up: BFT ordering → **extension manager slot** → policy
enforcement → access control → tuple space. Every replica executes every
ordered request deterministically and replies; clients wait for
``f + 1`` matching answers, which masks up to ``f`` wrong replies. The
test suites inject only corrupted replies: replicas that misbehave in
the ordering protocol itself stay unchecked until the ROADMAP's
Byzantine-nemesis item.

The slot is one attribute, ``extensions`` (``None`` for plain DepSpace,
or the replica's :class:`~repro.eds.integration.EdsBinding`):
``intercept`` returns ``(value,)`` for an ordered request an extension
consumed, ``on_events`` sees its state changes, ``allow_unblock`` may
veto a waiter's release (§5.2.2), ``consumes`` orders a fast read an
extension consumes, and ``rebuild`` reloads the registry after a state
transfer (§3.8).

Blocking semantics: ``rd``/``in`` with no match register a waiter (in
delivery order, identically at every correct replica); each insertion
re-evaluates waiters.

Client failure detection: tuples inserted with a lease expire unless
renewed; expiry is evaluated deterministically against the **agreed
timestamp** each ordered request carries, so all correct replicas purge
the same tuples at the same logical instant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.binding import ExtensionBinding
from ..core.errors import ExtensionError
from ..obs import (M_INGRESS, M_REPLY, FourLetterReply, FourLetterRequest,
                   Observability, ObsConfig)
from ..sim import Environment, FifoResource, Network
from .access import AccessControl, AccessDeniedError
from .bft import BftConfig, BftPeer, BftRequest, RequestId
from .policy import Policy, PolicyViolationError
from .protocol import (CasOp, DsOp, DsReply, InOp, InpOp, OutOp, RdAllOp,
                       RdOp, RdpOp, RenewOp, ReplaceOp, StateRequest,
                       StateResponse)
from .space import LeaseRecord, TupleSpace
from .tuples import BadTupleError, TupleSpaceError

__all__ = ["DsTimings", "DsConfig", "DsReplica", "DsEvent", "Waiter", "BLOCKED"]


@dataclass
class DsTimings:
    """Per-request CPU service times (ms) at one replica.

    BFT processing is more expensive than crash-tolerant processing
    (MAC verification on every protocol message); ``order_ms`` bundles
    that per-request protocol cost.
    """

    verify_ms: float = 0.015      # request authentication on arrival
    order_ms: float = 0.03        # per-request share of the 3-phase protocol
    execute_ms: float = 0.02      # tuple-space execution
    extension_exec_ms: float = 0.015
    fast_read_ms: float = 0.02    # unordered read-only execution


@dataclass
class DsConfig:
    timings: DsTimings = field(default_factory=DsTimings)
    bft: BftConfig = field(default_factory=BftConfig)
    lease_ms: float = 2000.0
    #: BFT-SMaRt's read-only optimization: rdp/rdAll answered directly
    #: from local state without ordering; clients then need 2f+1 (not
    #: f+1) matching replies. Off by default — the paper's DepSpace
    #: numbers are reproduced without it (see the ablation benchmark).
    unordered_reads: bool = False
    #: observability plane (tracing + metrics + four-letter words).
    #: None (the default) leaves ``env.obs`` unset: no hook fires and
    #: simulated behaviour is byte-identical to pre-obs builds.
    obs: Optional[ObsConfig] = None


@dataclass
class DsEvent:
    """State-change event for EDS event extensions."""

    #: "inserted" | "removed" | "expired", or "updated" (an EDS
    #: extension's in-place update; plain ``replace`` removes + inserts).
    kind: str
    space: str
    entry: Tuple[Any, ...]


@dataclass
class Waiter:
    """A blocked rd/in registered deterministically at every replica."""

    request_id: RequestId
    op: DsOp
    take: bool                    # True for in, False for rd


#: Sentinel result: the operation blocked; no reply goes out yet.
BLOCKED = object()


class DsReplica:
    """One replica of the (extensible-ready) DepSpace service."""

    def __init__(self, env: Environment, net: Network, node_id: str,
                 replica_ids: List[str], config: Optional[DsConfig] = None):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self.config = config or DsConfig()
        self.timings = self.config.timings

        self.spaces: Dict[str, TupleSpace] = {"main": TupleSpace()}
        self.policies: Dict[str, Policy] = {}
        self.acls: Dict[str, AccessControl] = {}
        self._waiters: Dict[str, List[Waiter]] = {}
        self.cpu = FifoResource(env, name=f"{node_id}.cpu")
        #: last reply per client, resent on duplicate requests.
        self._reply_cache: Dict[str, DsReply] = {}

        self.ordering = BftPeer(
            env, node_id, replica_ids,
            send=functools.partial(net.send, node_id),
            execute=self._execute_request, config=self.config.bft,
            # Fan-out path: size the payload once for the whole broadcast.
            send_many=functools.partial(net.broadcast, node_id))
        self.ordering.on_gap = self._on_gap

        #: the EDS binding (see module docstring); None = plain DepSpace.
        self.extensions: Optional[ExtensionBinding] = None

        if self.config.obs is not None:
            Observability.install(env, self.config.obs)

        #: fault-injection: corrupt every reply (Byzantine behaviour).
        self.byzantine = False
        self._alive = True
        self._state_synced = True
        self._resync_generation = 0
        net.register(node_id, self.handle_message)

    # -- administration ----------------------------------------------------

    def space(self, name: str = "main") -> TupleSpace:
        if name not in self.spaces:
            self.spaces[name] = TupleSpace()
        return self.spaces[name]

    def set_policy(self, space: str, policy: Policy) -> None:
        self.policies[space] = policy

    def set_acl(self, space: str, acl: AccessControl) -> None:
        self.acls[space] = acl

    # -- fault injection ---------------------------------------------------

    def crash(self) -> None:
        self._alive = False
        self.net.crash(self.node_id)
        self.ordering.crash()

    def recover(self) -> None:
        self._alive = True
        self.net.recover(self.node_id)
        self.ordering.recover()
        self._resync_generation += 1
        self.env.process(self._resync_loop(self._resync_generation))

    def _resync_loop(self, generation: int):
        """Retransmit StateRequest round-robin until a peer answers.

        A single-shot probe to a fixed peer is lost forever when that
        peer is itself crashed or partitioned away — the recovering
        replica would then stall behind the pipeline (missed slots
        never execute) while still counting as "live" for consistency
        checks. Rotating the target and retrying until a snapshot
        lands bounds the stall at however long the fault window keeps
        every eligible donor unreachable; the loop must not give up
        earlier, because an unsynced replica neither executes nor
        serves state.
        """
        peers = [p for p in self.replica_ids if p != self.node_id]
        self._state_synced = False
        attempt = 0
        while (self._alive and not self._state_synced
               and generation == self._resync_generation):
            self.net.send(self.node_id, peers[attempt % len(peers)],
                          StateRequest(self.ordering.exec_seq))
            attempt += 1
            yield self.env.timeout(self.config.bft.request_timeout_ms)

    # -- wiring ------------------------------------------------------------

    def handle_message(self, src: str, msg: object) -> None:
        if not self._alive:
            return
        handler = _INBOX.get(msg.__class__)
        if handler is None:
            self.ordering.handle(src, msg)
        else:
            handler(self, src, msg)

    def _on_four_letter_request(self, src: str,
                                msg: FourLetterRequest) -> None:
        self.net.send(self.node_id, src,
                      FourLetterReply(msg.xid, msg.command,
                                      self._four_letter(msg.command)))

    # -- request intake ----------------------------------------------------

    def _on_client_request(self, src: str, request: BftRequest) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("ds.requests", self.node_id)
            if obs.tracer is not None:
                obs.tracer.mark(request.request_id.client_id,
                                request.request_id.seq, M_INGRESS,
                                self.env.now, self.node_id)
        if self._is_fast_read(request):
            self.cpu.submit(self.timings.verify_ms + self.timings.fast_read_ms,
                            self._execute_fast_read, request)
            return
        if self.ordering.executed(request.request_id):
            cached = self._reply_cache.get(request.request_id.client_id)
            if (cached is not None and cached.request_key
                    == (request.request_id.client_id, request.request_id.seq)):
                self.net.send(self.node_id, src, cached)
            return
        self.cpu.submit(self.timings.verify_ms + self.timings.order_ms,
                        self.ordering.on_request, request)

    def _is_fast_read(self, request: BftRequest) -> bool:
        if not self.config.unordered_reads:
            return False
        op = request.op
        if not isinstance(op, (RdpOp, RdAllOp)):
            return False
        if self.extensions is not None and self.extensions.consumes(
                request.request_id.client_id, op):
            return False  # an extension consumes it: order normally
        return True

    def _execute_fast_read(self, request: BftRequest) -> None:
        """BFT-SMaRt read-only path: answer from local state, unordered.

        Correct replicas converge on ordered state, so 2f+1 matching
        replies (collected by the client) guarantee a value at least as
        fresh as the latest completed write.
        """
        if not self._alive:
            return
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("ds.fast_reads", self.node_id)
        client_id = request.request_id.client_id
        op = request.op
        try:
            space = self.space(op.space)
            if isinstance(op, RdpOp):
                self._check_layers("rdp", client_id, op.template, op.space)
                value = space.rdp(op.template)
            else:
                self._check_layers("rdall", client_id, op.template, op.space)
                value = space.rdall(op.template)
        except (TupleSpaceError, AccessDeniedError,
                PolicyViolationError) as error:
            self._reply_error(request.request_id, error, cache=False)
            return
        self._reply(request.request_id, value, cache=False)

    # -- ordered execution ------------------------------------------------------

    def _execute_request(self, request: BftRequest, ts: float) -> None:
        self.cpu.submit(self.timings.execute_ms, self._execute_now,
                        request, ts)

    def _execute_now(self, request: BftRequest, ts: float) -> None:
        if not self._alive:
            return
        obs = self.env.obs
        if obs is not None:
            obs.metrics.inc("ds.ordered", self.node_id)
        events: List[DsEvent] = []
        self._purge_leases(ts, events)
        extensions = self.extensions
        try:
            consumed = (extensions.intercept(request, ts, events)
                        if extensions is not None else None)
            value = (consumed[0] if consumed is not None else
                     self._execute_op(request.request_id.client_id,
                                      request.op, ts, events,
                                      request_id=request.request_id))
        except (TupleSpaceError, AccessDeniedError, PolicyViolationError,
                ExtensionError) as error:
            self._reply_error(request.request_id, error)
        else:
            if value is not BLOCKED:
                self._reply(request.request_id, value)
        if extensions is not None and events:
            extensions.on_events(list(events), ts)

    # -- the layer stack ---------------------------------------------------------

    def _check_layers(self, op_name: str, client_id: str,
                      argument, space_name: str) -> None:
        """Policy enforcement, then access control (Figure 4 order)."""
        policy = self.policies.get(space_name)
        if policy is not None:
            policy.check(op_name, client_id, argument,
                         self.space(space_name))
        acl = self.acls.get(space_name)
        if acl is not None:
            acl.check(op_name, client_id)

    def _execute_op(self, client_id: str, op: DsOp, ts: float,
                    events: List[DsEvent],
                    request_id: Optional[RequestId] = None) -> Any:
        """Run one operation through policy -> access -> tuple space.

        EDS extensions call this too (their ops run with the invoking
        client's privileges — the paper's sandbox requirement).
        """
        space = self.space(op.space)
        run = _OPS.get(op.__class__)
        if run is None:
            raise BadTupleError(f"unknown operation: {op!r}")
        return run(self, client_id, op, space, ts, events, request_id)

    # One runner per operation type, dispatched from _execute_op; all
    # share its signature: (client_id, op, space, ts, events, request_id).

    def _run_out(self, client_id, op, space, ts, events, request_id):
        self._check_layers("out", client_id, op.entry, op.space)
        self._insert(client_id, op, space, ts, events)
        return True

    def _run_rdp(self, client_id, op, space, ts, events, request_id):
        self._check_layers("rdp", client_id, op.template, op.space)
        return space.rdp(op.template)

    def _run_inp(self, client_id, op, space, ts, events, request_id):
        taken = self._take(client_id, op.space, op.template, events)
        return taken[1] if taken is not None else None

    def _run_rdall(self, client_id, op, space, ts, events, request_id):
        self._check_layers("rdall", client_id, op.template, op.space)
        return space.rdall(op.template)

    def _run_cas(self, client_id, op, space, ts, events, request_id):
        self._check_layers("cas", client_id, op.entry, op.space)
        if space.rdp(op.template) is not None:
            return False
        self._insert(client_id, op, space, ts, events)
        return True

    def _run_replace(self, client_id, op, space, ts, events, request_id):
        self._check_layers("replace", client_id, op.entry, op.space)
        old = space.replace(op.template, op.entry)
        if old is not None:
            events.append(DsEvent("removed", op.space, old))
            events.append(DsEvent("inserted", op.space, tuple(op.entry)))
            self._wake_waiters(op.space, ts, events)
        return old

    def _run_renew(self, client_id, op, space, ts, events, request_id):
        self._check_layers("renew", client_id, None, op.space)
        return space.renew_leases(client_id, ts + self.config.lease_ms)

    def _run_blocking(self, client_id, op, space, ts, events, request_id):
        take = op.__class__ is InOp
        if take:
            taken = self._take(client_id, op.space, op.template, events, "in")
            found = taken[1] if taken is not None else None
        else:
            self._check_layers("rd", client_id, op.template, op.space)
            found = space.rdp(op.template)
        if found is not None:
            return found
        if request_id is None:
            raise BadTupleError(
                "blocking operations cannot be nested in extensions")
        self._waiters.setdefault(op.space, []).append(
            Waiter(request_id, op, take))
        return BLOCKED

    def _insert(self, client_id: str, op, space: TupleSpace, ts: float,
                events: List[DsEvent]) -> None:
        """The insert half of ``out``/``cas``, after the layer checks."""
        space.out(op.entry, lease=self._lease_for(client_id, op.lease_ms, ts))
        events.append(DsEvent("inserted", op.space, tuple(op.entry)))
        self._wake_waiters(op.space, ts, events)

    def _take(self, client_id: str, space_name: str, template,
              events: List[DsEvent], op_name: str = "inp") -> Optional[
                  Tuple[int, Tuple[Any, ...], Optional[LeaseRecord]]]:
        """A take through policy -> access -> space, in one lookup.

        Returns ``(key, entry, lease)`` or None; the key and lease let
        the EDS proxy undo a delete exactly.
        """
        space = self.space(space_name)
        self._check_layers(op_name, client_id, template, space_name)
        taken = space.take(template)
        if taken is not None:
            events.append(DsEvent("removed", space_name, taken[1]))
        return taken

    def _lease_for(self, client_id: str, lease_ms: Optional[float],
                   ts: float) -> Optional[LeaseRecord]:
        if lease_ms is None:
            return None
        return LeaseRecord(owner=client_id, expires_at=ts + lease_ms)

    # -- waiters ----------------------------------------------------------------

    def _wake_waiters(self, space_name: str, ts: float,
                      events: List[DsEvent]) -> None:
        waiters = self._waiters.get(space_name)
        if not waiters:
            return
        space = self.space(space_name)
        still_blocked: List[Waiter] = []
        for waiter in waiters:
            template = waiter.op.template  # type: ignore[union-attr]
            found = space.rdp(template)
            if found is None:
                still_blocked.append(waiter)
                continue
            if (self.extensions is not None
                    and not self.extensions.allow_unblock(waiter, found, ts)):
                still_blocked.append(waiter)  # extension re-blocked it
                continue
            if waiter.take:
                space.inp(template)
                events.append(DsEvent("removed", space_name, found))
            self._reply(waiter.request_id, found)
        self._waiters[space_name] = still_blocked

    # -- lease expiry ------------------------------------------------------------

    def _purge_leases(self, ts: float, events: List[DsEvent]) -> None:
        for name, space in self.spaces.items():
            for entry in space.purge_expired(ts):
                events.append(DsEvent("expired", name, entry))

    # -- replies -----------------------------------------------------------------

    def _reply(self, request_id: RequestId, value: Any,
               cache: bool = True) -> None:
        if self.byzantine:
            value = ("CORRUPTED", value)
        reply = DsReply((request_id.client_id, request_id.seq),
                        self.node_id, True, value)
        if cache:
            self._reply_cache[request_id.client_id] = reply
        self._mark_reply(request_id)
        self.net.send(self.node_id, request_id.client_id, reply)

    def _reply_error(self, request_id: RequestId, error: Exception,
                     cache: bool = True) -> None:
        code = getattr(error, "code", "DS_ERROR")
        reply = DsReply((request_id.client_id, request_id.seq),
                        self.node_id, False, None, code, str(error))
        if cache:
            self._reply_cache[request_id.client_id] = reply
        self._mark_reply(request_id)
        self.net.send(self.node_id, request_id.client_id, reply)

    def _mark_reply(self, request_id: RequestId) -> None:
        obs = self.env.obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.mark(request_id.client_id, request_id.seq,
                            M_REPLY, self.env.now, self.node_id)

    # -- introspection ------------------------------------------------------------

    def _four_letter(self, command: str) -> str:
        """Answer a four-letter admin word from local state only."""
        if command == "ruok":
            return "imok"
        if command == "stat":
            waiting = sum(len(ws) for ws in self._waiters.values())
            return (f"node: {self.node_id}\n"
                    "kernel: pbft\n"
                    f"view: {self.ordering.view}\n"
                    f"exec_seq: {self.ordering.exec_seq}\n"
                    f"spaces: {len(self.spaces)}\n"
                    f"blocked_waiters: {waiting}")
        if command == "mntr":
            lines = ["ds_kernel\tpbft",
                     f"ds_exec_seq\t{self.ordering.exec_seq}",
                     f"ds_spaces\t{len(self.spaces)}"]
            obs = self.env.obs
            if obs is not None:
                lines.extend(obs.metrics.mntr_lines(self.node_id))
            return "\n".join(lines)
        if command == "wchs":
            # DepSpace has no watches; report blocked waiters instead
            # (the closest notion of "who is parked on state changes").
            spaces = sum(1 for ws in self._waiters.values() if ws)
            total = sum(len(ws) for ws in self._waiters.values())
            return f"{spaces} spaces with waiters\nTotal waiters: {total}"
        return f"unknown command: {command!r}"

    # -- state transfer -----------------------------------------------------------

    def _on_gap(self, seq: int) -> None:
        if not self._state_synced:
            return  # a resync loop is already chasing a snapshot
        self._state_synced = False
        self._resync_generation += 1
        self.env.process(self._resync_loop(self._resync_generation))

    def _on_state_request(self, src: str, msg: StateRequest) -> None:
        if not self.ordering.exec_truthful:
            # A view-change horizon skip advances exec_seq *before* the
            # matching snapshot arrives, so right now our spaces and
            # executed-ids lag the sequence number we would advertise.
            # Serving that snapshot poisons the receiver: it trusts
            # upto_seq, erases its own execution records, and later
            # re-executes requests behind the same client's reads. The
            # horizon maximum itself never skips (and crashed replicas
            # keep their state), so a truthful donor always exists.
            return
        snapshot = {
            "spaces": {name: sp.snapshot() for name, sp in self.spaces.items()},
            "exec_seq": self.ordering.exec_seq,
            "executed_ids": set(self.ordering.executed_ids),
            "view": self.ordering.view,
            # Blocked waiters are part of replicated state: they are
            # registered by ordered ops and consumed deterministically
            # by later inserts. A receiver that misses them would skip
            # the take a wake performs and diverge on the next insert.
            "waiters": {name: list(ws)
                        for name, ws in self._waiters.items() if ws},
            "reply_cache": dict(self._reply_cache),
        }
        fingerprint = self.fingerprint()
        self.net.send(self.node_id, src,
                      StateResponse(self.ordering.exec_seq, snapshot, fingerprint))

    def _on_state_response(self, src: str, msg: StateResponse) -> None:
        if msg.upto_seq < self.ordering.exec_seq:
            # The donor is behind us. If our own state is sound we are
            # provably not the replica that needs a snapshot — stop
            # polling (stall detection restarts the chase if commits
            # later show we fell behind). If we skipped, keep rotating
            # until a donor at or past our skip target answers.
            if self.ordering.exec_truthful:
                self._state_synced = True
            return
        self._state_synced = True
        for name, snap in msg.snapshot["spaces"].items():
            self.space(name).restore(snap)
        self._waiters = {name: list(ws)
                         for name, ws in msg.snapshot.get("waiters",
                                                          {}).items()}
        self._reply_cache.update(msg.snapshot.get("reply_cache", {}))
        self.ordering.install_state(msg.snapshot["exec_seq"],
                                    msg.snapshot["executed_ids"],
                                    msg.snapshot.get("view", 0))
        if self.extensions is not None:
            self.extensions.rebuild()

    def fingerprint(self) -> int:
        acc = 0
        for name, space in self.spaces.items():
            acc ^= hash(name) ^ space.fingerprint()
        return acc


#: Exact-type dispatch tables (no message or op subclasses exist).
_INBOX = {
    BftRequest: DsReplica._on_client_request,
    StateRequest: DsReplica._on_state_request,
    StateResponse: DsReplica._on_state_response,
    FourLetterRequest: DsReplica._on_four_letter_request,
}

_OPS = {
    OutOp: DsReplica._run_out,
    RdpOp: DsReplica._run_rdp,
    InpOp: DsReplica._run_inp,
    RdAllOp: DsReplica._run_rdall,
    CasOp: DsReplica._run_cas,
    ReplaceOp: DsReplica._run_replace,
    RenewOp: DsReplica._run_renew,
    RdOp: DsReplica._run_blocking,
    InOp: DsReplica._run_blocking,
}
