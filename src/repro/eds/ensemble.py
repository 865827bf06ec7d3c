"""Builder for an EXTENSIBLE DEPSPACE ensemble."""

from __future__ import annotations

from typing import List, Optional

from ..core import SandboxLimits, VerifierConfig
from ..depspace.ensemble import DsEnsemble
from .client import EdsClient
from .integration import EdsBinding

__all__ = ["EdsEnsemble"]


class EdsEnsemble(DsEnsemble):
    """DepSpace ensemble with an extension layer at every replica.

    The verifier stays on the strict deterministic white list — EDS is
    actively replicated, so nondeterministic extensions would diverge
    replicas (§4.1.1, §6.3).
    """

    client_class = EdsClient

    def __init__(self, *args,
                 verifier_config: Optional[VerifierConfig] = None,
                 limits: Optional[SandboxLimits] = None, **kwargs):
        super().__init__(*args, name_prefix="eds", **kwargs)
        self.bindings: List[EdsBinding] = [
            EdsBinding(replica, verifier_config, limits)
            for replica in self.replicas
        ]

    def binding(self, node_id: str) -> EdsBinding:
        return self.bindings[self.replica_ids.index(node_id)]
