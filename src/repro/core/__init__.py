"""Extensible distributed coordination — the paper's core model.

* :mod:`~repro.core.api` — the abstract coordination API extensions
  program against (Table 2) and the normalized operation/event
  descriptors;
* :mod:`~repro.core.extension` — the basic extension interface
  (Figure 1) and subscriptions;
* :mod:`~repro.core.verifier` — registration-time AST white-listing
  (§4.1.1);
* :mod:`~repro.core.sandbox` — restricted execution, the budgeted state
  proxy, and crash containment (§4.1.2);
* :mod:`~repro.core.manager` — the extension manager: lifecycle,
  matching, execution, recovery (§3.5–3.8);
* :mod:`~repro.core.binding` — the integration loop EZK and EDS share.
"""

from .api import (EVENT_TYPES, OP_TYPES, AbstractState, EventNotice,
                  ObjectRecord, OperationRequest)
from .errors import (BudgetExceededError, CoordStateError,
                     ExtensionCrashedError, ExtensionError,
                     ExtensionRejectedError, NoObjectError,
                     NotAuthorizedError, ObjectExistsError,
                     UnknownExtensionError)
from .extension import (EventSubscription, Extension, OperationSubscription,
                        match_pattern)
from .manager import ExtensionManager, RegisteredExtension
from .memory_state import MemoryState
from .retry import DS_RETRY_POLICY, ZK_RETRY_POLICY, Backoff, RetryPolicy
from .sandbox import (BudgetedState, SandboxLimits, StepLimiter,
                      compile_extension, run_contained)
from .verifier import (SAFE_ATTRIBUTES, SAFE_BUILTINS, STATE_API_METHODS,
                       VerifierConfig, verify_source)

__all__ = [
    "AbstractState", "ObjectRecord", "OperationRequest", "EventNotice",
    "OP_TYPES", "EVENT_TYPES",
    "Extension", "OperationSubscription", "EventSubscription",
    "match_pattern",
    "ExtensionManager", "RegisteredExtension", "MemoryState",
    "RetryPolicy", "Backoff", "ZK_RETRY_POLICY", "DS_RETRY_POLICY",
    "VerifierConfig", "verify_source", "SAFE_BUILTINS", "SAFE_ATTRIBUTES",
    "STATE_API_METHODS",
    "SandboxLimits", "BudgetedState", "StepLimiter", "compile_extension",
    "run_contained",
    "ExtensionError", "ExtensionRejectedError", "ExtensionCrashedError",
    "BudgetExceededError", "UnknownExtensionError", "NotAuthorizedError",
    "CoordStateError", "NoObjectError", "ObjectExistsError",
]
