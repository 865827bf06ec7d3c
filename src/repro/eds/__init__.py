"""EXTENSIBLE DEPSPACE (EDS): the paper's §5.2 prototype.

The PBFT-replicated DepSpace substrate plus an extension layer
at the bottom of the replica stack: operation extensions execute
deterministically at every replica inside the ordered request; event
extensions react to tuple insertions/removals/lease expiries and may
re-block unblocked operations.
"""

from .client import EdsClient
from .ensemble import EdsEnsemble
from .integration import EM_SPACE, EdsBinding, describe_ds_op
from .state_proxy import DsDirectState

__all__ = ["EdsClient", "EdsEnsemble", "EdsBinding", "DsDirectState",
           "EM_SPACE", "describe_ds_op"]
