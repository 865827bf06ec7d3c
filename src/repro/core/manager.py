"""The extension manager (§3.5–3.8), backend-agnostic part.

One manager instance runs next to every replica. It owns the registry
of extensions, matches incoming operations/events against their
subscriptions, and executes matched extensions inside the sandbox.

Fault tolerance follows the paper's design: the manager itself is a
thin in-memory cache — the *authoritative* registration state lives in
regular coordination-service data objects (EZK: znodes under ``/em``;
EDS: tuples in the protected ``_em`` space). Backends persist through
their normal replication machinery and call :meth:`register` /
:meth:`acknowledge` / :meth:`deregister` at apply time (hence
deterministically at every replica); after a fault they rebuild the
cache via :meth:`reload` from the index object.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from .api import AbstractState, EventNotice, OperationRequest
from .errors import NotAuthorizedError, UnknownExtensionError
from .extension import EventSubscription, Extension, OperationSubscription
from .sandbox import (BudgetedState, SandboxLimits, compile_extension_source,
                      instantiate_extension, run_contained)
from .verifier import VerifierConfig

__all__ = ["RegisteredExtension", "ExtensionManager"]


#: Verified-and-compiled extension code, keyed by
#: (source sha256, verifier-config fingerprint). Every replica of an
#: ensemble registers the same handful of sources (and each EZK replica
#: re-registers them again on recovery, after its leader verified them
#: at prep time), so the expensive half of loading — AST parse, the
#: verifier's full-tree walk, byte-compilation — runs once per distinct
#: source. Only the immutable code object is shared; each registration
#: still executes it into a fresh namespace, so class objects (and any
#: class-attribute state) stay per-replica. Rejections are never cached,
#: so their messages are re-derived every time.
_COMPILE_CACHE: Dict[Tuple[str, tuple], CodeType] = {}

#: Bound so a pathological workload cannot grow the cache forever.
_CACHE_MAX = 512


def _source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _config_fingerprint(config: VerifierConfig) -> tuple:
    return (config.max_source_bytes, tuple(config.extra_names),
            config.enabled)


@dataclass
class RegisteredExtension:
    """One live registration (mirrors the extension's data object)."""

    name: str
    source: str
    owner: str
    instance: Extension
    op_subs: Tuple[OperationSubscription, ...]
    event_subs: Tuple[EventSubscription, ...]
    #: clients allowed to trigger this extension (§3.6): the owner plus
    #: everyone who acknowledged it.
    acked: Set[str] = field(default_factory=set)
    order: int = 0

    def authorized(self, client_id: str) -> bool:
        return client_id == self.owner or client_id in self.acked


class ExtensionManager:
    """Registry + matcher + sandboxed executor for one replica."""

    def __init__(self, verifier_config: Optional[VerifierConfig] = None,
                 limits: Optional[SandboxLimits] = None,
                 helpers: Optional[dict] = None):
        self.verifier_config = verifier_config or VerifierConfig()
        self.limits = limits or SandboxLimits()
        #: trusted callables injected into every extension namespace
        #: (§4.2); their names are white-listed automatically.
        self.helpers = dict(helpers or {})
        if self.helpers:
            extra = tuple(self.verifier_config.extra_names) + tuple(
                name for name in self.helpers
                if name not in self.verifier_config.extra_names)
            self.verifier_config = VerifierConfig(
                max_source_bytes=self.verifier_config.max_source_bytes,
                extra_names=extra,
                enabled=self.verifier_config.enabled)
        self._extensions: Dict[str, RegisteredExtension] = {}
        #: True while any registered extension subscribes to events;
        #: kept current by register/deregister/reload, so the backends'
        #: per-event hooks skip building notices while it is False.
        self.handles_events = False
        self._order = 0
        #: counters for the ablation benchmarks.
        self.executions = 0
        self.match_checks = 0

    # -- lifecycle (§3.6) ---------------------------------------------------

    def register(self, name: str, source: str,
                 owner: str) -> RegisteredExtension:
        """Verify + compile + instate an extension (idempotent re-register).

        Raises :class:`ExtensionRejectedError` when verification or
        instantiation fails — the registration must then be aborted by
        the backend (§4.1.1: "the registration aborts immediately").
        """
        code = self.verify_cached(source, name)
        instance = instantiate_extension(code, name, helpers=self.helpers)
        self._order += 1
        record = RegisteredExtension(
            name=name, source=source, owner=owner, instance=instance,
            op_subs=tuple(instance.ops_subscriptions()),
            event_subs=tuple(instance.event_subscriptions()),
            order=self._order)
        self._extensions[name] = record
        self._note_event_subs()
        return record

    def verify_cached(self, source: str, name: str = "") -> CodeType:
        """Verified, compiled code for ``source`` from the process cache;
        a miss raises like ``verify_source``. ``name`` only labels the
        code object."""
        key = (_source_hash(source),
               _config_fingerprint(self.verifier_config))
        code = _COMPILE_CACHE.get(key)
        if code is None:
            code = compile_extension_source(source, name,
                                            self.verifier_config)
            if len(_COMPILE_CACHE) >= _CACHE_MAX:
                _COMPILE_CACHE.clear()
            _COMPILE_CACHE[key] = code
        return code

    def deregister(self, name: str) -> None:
        self._extensions.pop(name, None)
        self._note_event_subs()

    def _note_event_subs(self) -> None:
        self.handles_events = any(
            record.event_subs for record in self._extensions.values())

    def acknowledge(self, name: str, client_id: str) -> None:
        """A non-owner client opts in to the extension (§3.6)."""
        record = self._extensions.get(name)
        if record is None:
            raise UnknownExtensionError(name)
        record.acked.add(client_id)

    def get(self, name: str) -> RegisteredExtension:
        record = self._extensions.get(name)
        if record is None:
            raise UnknownExtensionError(name)
        return record

    def names(self) -> List[str]:
        return sorted(self._extensions)

    def __len__(self) -> int:
        return len(self._extensions)

    # -- recovery (§3.8) ---------------------------------------------------------

    def export_records(self) -> List[Tuple[str, str, str, List[str]]]:
        """Serializable view: (name, source, owner, acked clients)."""
        return [
            (r.name, r.source, r.owner, sorted(r.acked))
            for r in sorted(self._extensions.values(), key=lambda r: r.order)
        ]

    def reload(self, records: Iterable[Tuple[str, str, str, List[str]]]) -> None:
        """Rebuild the cache from persisted registration records."""
        self._extensions.clear()
        self._note_event_subs()
        for name, source, owner, acked in records:
            record = self.register(name, source, owner)
            record.acked.update(acked)

    # -- matching (§3.7) -----------------------------------------------------------

    def match_operation(self, request: OperationRequest
                        ) -> Optional[RegisteredExtension]:
        """The extension that consumes this operation, or None.

        Only extensions the requesting client registered or acknowledged
        are considered; among several matches the **last registered
        wins** (§3.3's execution model).
        """
        self.match_checks += 1
        best: Optional[RegisteredExtension] = None
        for record in self._extensions.values():
            if not record.authorized(request.client_id):
                continue
            if any(sub.matches(request) for sub in record.op_subs):
                if best is None or record.order > best.order:
                    best = record
        return best

    def match_events(self, event: EventNotice) -> List[RegisteredExtension]:
        """Event extensions for this state change, in registration order."""
        matching = [
            record for record in self._extensions.values()
            if any(sub.matches(event) for sub in record.event_subs)
        ]
        return sorted(matching, key=lambda r: r.order)

    def suppresses_notification(self, client_id: str,
                                event: EventNotice) -> bool:
        """§5.1.2: an event extension acknowledged by this client exists
        for the triggering change, so the original notification is
        suppressed (the extension may send a custom one instead)."""
        for record in self.match_events(event):
            if record.authorized(client_id):
                return True
        return False

    # -- execution (§3.7) ------------------------------------------------------------

    def execute_operation(self, record: RegisteredExtension,
                          request: OperationRequest,
                          backend_state: AbstractState) -> Any:
        """Run an operation extension in the sandbox; returns its result.

        Raises ExtensionCrashedError / BudgetExceededError on failure;
        the backend must then discard the proxy's buffered changes.
        """
        if not record.authorized(request.client_id):
            raise NotAuthorizedError(
                f"{request.client_id} has not acknowledged {record.name!r}")
        return self._run_contained(record.instance.handle_operation,
                                   request, backend_state)

    def execute_event(self, record: RegisteredExtension, event: EventNotice,
                      backend_state: AbstractState,
                      handler: str = "handle_event") -> Any:
        """Run an event-time entry point (``handle_event``, or EDS's
        unblock veto ``allow_unblock``) in the sandbox."""
        return self._run_contained(getattr(record.instance, handler), event,
                                   backend_state)

    def _run_contained(self, entry: Callable[[Any, AbstractState], Any],
                       argument: Any, backend_state: AbstractState) -> Any:
        self.executions += 1
        proxy = BudgetedState(backend_state, self.limits)
        return run_contained(entry, argument, proxy,
                             max_steps=self.limits.max_steps)
