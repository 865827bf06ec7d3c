"""Builder for an EXTENSIBLE ZOOKEEPER ensemble."""

from __future__ import annotations

from typing import List, Optional

from ..core import SandboxLimits, VerifierConfig
from ..zk.ensemble import ZkEnsemble
from .client import EzkClient
from .integration import EM_ROOT, EzkBinding

__all__ = ["EzkEnsemble"]


class EzkEnsemble(ZkEnsemble):
    """ZooKeeper ensemble with an extension manager at every replica.

    The extension manager's communication object (``/em``, §3.5) exists
    from boot; everything else is regular ZooKeeper.
    """

    client_class = EzkClient

    def __init__(self, *args,
                 verifier_config: Optional[VerifierConfig] = None,
                 limits: Optional[SandboxLimits] = None,
                 helpers: Optional[dict] = None, **kwargs):
        super().__init__(*args, name_prefix="ezk", **kwargs)
        self.bindings: List[EzkBinding] = [
            EzkBinding(server, verifier_config, limits, helpers)
            for server in self.servers
        ]
        # The built-in extension-manager data object (§3.5) is part of
        # the initial state at every replica.
        for server in self.servers:
            server.tree.create(EM_ROOT)

    def binding(self, node_id: str) -> EzkBinding:
        return self.bindings[self.all_ids.index(node_id)]
