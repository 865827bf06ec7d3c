"""Extension sandbox: restricted execution + monitored state access (§4.1.2).

Three layers of containment:

1. **Restricted namespace** — verified source executes with a builtins
   table containing only :data:`~repro.core.verifier.SAFE_BUILTINS`
   plus the extension base classes; nothing else is reachable.
2. **State proxy** — extensions never touch service state directly.
   The manager hands them a :class:`BudgetedState` wrapper that counts
   every state operation and object creation against
   :class:`SandboxLimits` and applies the backend's access rules
   (Figure 2's proxy).
3. **Crash containment** — any exception escaping the extension is
   wrapped in :class:`ExtensionCrashedError`; the caller discards or
   rolls back the extension's buffered writes.

An optional interpreter-step limiter (:class:`StepLimiter`, built on
``sys.settrace``) bounds even pathological verified code; it is off by
default because the verifier already excludes unbounded loops and
tracing costs ~2× per call (see the ablation benchmark).
"""

from __future__ import annotations

import builtins as _builtins
import sys
from dataclasses import dataclass
from types import CodeType
from typing import Any, Callable, Dict, List, Optional

from .api import AbstractState, ObjectRecord
from .errors import (BudgetExceededError, ExtensionCrashedError,
                     ExtensionRejectedError)
from .extension import EventSubscription, Extension, OperationSubscription
from .verifier import SAFE_BUILTINS, VerifierConfig, verify_source

__all__ = ["SandboxLimits", "BudgetedState", "StepLimiter",
           "compile_extension", "compile_extension_source",
           "instantiate_extension", "run_contained"]


@dataclass
class SandboxLimits:
    """Resource budgets for one extension invocation (§4.1.2)."""

    max_state_ops: int = 256
    max_new_objects: int = 64
    #: interpreter-step ceiling; None disables the (costly) tracer.
    max_steps: Optional[int] = None


class BudgetedState(AbstractState):
    """State proxy that charges every access against the sandbox budget."""

    def __init__(self, backend: AbstractState, limits: SandboxLimits):
        self._backend = backend
        self._limits = limits
        self.state_ops = 0
        self.objects_created = 0

    def _charge(self, creates: bool = False) -> None:
        self.state_ops += 1
        if self.state_ops > self._limits.max_state_ops:
            raise BudgetExceededError(
                f"extension exceeded {self._limits.max_state_ops} state ops")
        if creates:
            self.objects_created += 1
            if self.objects_created > self._limits.max_new_objects:
                raise BudgetExceededError(
                    f"extension exceeded {self._limits.max_new_objects} "
                    "object creations")

    # -- proxied API -------------------------------------------------------

    def create(self, object_id: str, data: bytes = b"") -> str:
        self._charge(creates=True)
        return self._backend.create(object_id, data)

    def delete(self, object_id: str) -> None:
        self._charge()
        self._backend.delete(object_id)

    def read(self, object_id: str) -> bytes:
        self._charge()
        return self._backend.read(object_id)

    def exists(self, object_id: str) -> bool:
        self._charge()
        return self._backend.exists(object_id)

    def update(self, object_id: str, data: bytes) -> None:
        self._charge()
        self._backend.update(object_id, data)

    def cas(self, object_id: str, expected: bytes, new: bytes) -> bool:
        self._charge()
        return self._backend.cas(object_id, expected, new)

    def sub_objects(self, object_id: str) -> List[ObjectRecord]:
        self._charge()
        return self._backend.sub_objects(object_id)

    def block(self, object_id: str) -> None:
        self._charge()
        self._backend.block(object_id)

    def monitor(self, client_id: str, object_id: str,
                data: bytes = b"") -> None:
        self._charge(creates=True)
        self._backend.monitor(client_id, object_id, data)


class StepLimiter:
    """Context manager bounding interpreter line-steps via sys.settrace."""

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.steps = 0
        self._previous = None

    def _trace(self, frame, event, arg):
        if event == "line":
            self.steps += 1
            if self.steps > self.max_steps:
                raise BudgetExceededError(
                    f"extension exceeded {self.max_steps} interpreter steps")
        return self._trace

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, exc_type, exc, tb):
        sys.settrace(self._previous)
        return False


def _restricted_builtins() -> Dict[str, Any]:
    table = {name: getattr(_builtins, name) for name in SAFE_BUILTINS}
    # Required by the `class` statement itself; grants no extra authority
    # beyond defining classes, which the verifier already constrains.
    table["__build_class__"] = _builtins.__build_class__
    table["__name__"] = "extension"
    return table


def compile_extension_source(source: str, name: str = "",
                             config: Optional[VerifierConfig] = None
                             ) -> CodeType:
    """Verify and byte-compile extension source; returns the code object.

    This is the expensive half of loading an extension (AST parse, the
    verifier's full-tree walk, byte-compilation) and depends only on the
    source and the verifier config — :class:`ExtensionManager` caches
    its result by source hash so the n-th replica registering the same
    extension skips straight to :func:`instantiate_extension`.
    """
    verify_source(source, config)
    try:
        return compile(source, f"<extension:{name or 'anonymous'}>", "exec")
    except Exception as exc:
        raise ExtensionRejectedError(
            [f"extension source failed to compile: {exc}"]) from exc


def instantiate_extension(code: CodeType, name: str = "",
                          helpers: Optional[Dict[str, Callable]] = None
                          ) -> Extension:
    """Execute compiled extension code and instantiate its class.

    Runs per registration, never cached: each replica's registration
    gets its own class object, so class-attribute state can never leak
    between replicas (the verifier allows class-level assignments).

    ``helpers`` are trusted callables statically added to the sandbox
    interface (§4.2's escape hatch for functionality the white list
    cannot express); their names must also appear in the verifier
    config's ``extra_names``, which :class:`ExtensionManager` arranges
    automatically. Actively-replicated backends must only install
    deterministic helpers (§4.1.1).
    """
    namespace: Dict[str, Any] = {
        "__builtins__": _restricted_builtins(),
        "Extension": Extension,
        "OperationSubscription": OperationSubscription,
        "EventSubscription": EventSubscription,
        "ObjectRecord": ObjectRecord,
    }
    if helpers:
        namespace.update(helpers)
    try:
        exec(code, namespace)
    except Exception as exc:
        raise ExtensionRejectedError(
            [f"extension source failed to load: {exc}"]) from exc

    classes = [
        value for value in namespace.values()
        if isinstance(value, type) and issubclass(value, Extension)
        and value is not Extension
    ]
    if len(classes) != 1:
        raise ExtensionRejectedError(
            [f"expected exactly one Extension subclass, found {len(classes)}"])
    try:
        instance = classes[0]()
    except Exception as exc:
        raise ExtensionRejectedError(
            [f"extension failed to instantiate: {exc}"]) from exc
    instance.name = name or classes[0].__name__
    return instance


def compile_extension(source: str, name: str = "") -> Extension:
    """Verify, compile, and instantiate one extension from source, under
    the default verifier config and with no helpers (an
    :class:`ExtensionManager` supplies both for registered extensions).

    Returns the instantiated :class:`Extension`. Raises
    :class:`ExtensionRejectedError` when verification fails or the
    source does not define exactly one Extension subclass.
    """
    return instantiate_extension(compile_extension_source(source, name),
                                 name)


def run_contained(fn: Callable[..., Any], *args: Any,
                  max_steps: Optional[int] = None) -> Any:
    """Run an extension entry point with crash containment.

    Budget errors pass through unchanged (they carry a precise message);
    everything else becomes :class:`ExtensionCrashedError`.
    """
    try:
        if max_steps is not None:
            with StepLimiter(max_steps):
                return fn(*args)
        return fn(*args)
    except BudgetExceededError:
        raise
    except Exception as exc:
        raise ExtensionCrashedError(
            f"{type(exc).__name__}: {exc}") from exc
