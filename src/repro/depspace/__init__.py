"""DepSpace-like coordination service (PBFT-style replication).

An augmented tuple space (Linda-style matching plus test-and-set-like
``cas``/``replace``), stacked layers for policy enforcement and access
control, and a PBFT-style total-order broadcast standing in for
BFT-SMaRt. Clients multicast to all ``3f + 1`` replicas and vote on
``f + 1`` matching replies. The only Byzantine fault the test suites
inject is reply corruption; a replica that lies in the ordering
protocol itself is unchecked until the ROADMAP's Byzantine-nemesis item.
"""

from .access import AccessControl, AccessDeniedError
from .bft import BftConfig, BftPeer, BftRequest, RequestId
from .client import DsClient, DsClientError
from .ensemble import DsEnsemble
from .policy import (Policy, PolicyViolationError, deny_ops, protect_prefix,
                     require_arity, require_field_type)
from .protocol import (CasOp, DsOp, DsReply, InOp, InpOp, OutOp, RdAllOp,
                       RdOp, RdpOp, RenewOp, ReplaceOp)
from .server import (BLOCKED, DsConfig, DsEvent, DsReplica, DsTimings, Waiter)
from .space import LeaseRecord, TupleSpace
from .tuples import (ANY, BadTupleError, Prefix, TupleSpaceError, is_template,
                     make_tuple, matches)

__all__ = [
    "DsClient", "DsClientError", "DsEnsemble", "DsReplica", "DsConfig",
    "DsTimings", "DsEvent", "Waiter", "BLOCKED",
    "TupleSpace", "LeaseRecord",
    "ANY", "Prefix", "make_tuple", "matches", "is_template",
    "TupleSpaceError", "BadTupleError",
    "AccessControl", "AccessDeniedError",
    "Policy", "PolicyViolationError", "deny_ops", "require_arity",
    "require_field_type", "protect_prefix",
    "BftPeer", "BftConfig", "BftRequest", "RequestId",
    "DsOp", "OutOp", "RdpOp", "InpOp", "RdOp", "InOp", "CasOp", "ReplaceOp",
    "RdAllOp", "RenewOp", "DsReply",
]
