"""Convenience builder: a DepSpace ensemble (3f + 1 replicas) + clients."""

from __future__ import annotations

from typing import List, Optional

from ..sim import Environment, LatencyModel, Network
from .client import DsClient
from .server import DsConfig, DsReplica

__all__ = ["DsEnsemble"]


class DsEnsemble:
    """``3f + 1`` DepSpace replicas on one simulated network."""

    #: client implementation handed out by :meth:`client` (EDS overrides).
    client_class = DsClient

    def __init__(self, f: int = 1, config: Optional[DsConfig] = None,
                 seed: int = 0, latency: Optional[LatencyModel] = None,
                 name_prefix: str = "ds"):
        if f < 1:
            raise ValueError("f must be >= 1")
        self.env = Environment()
        self.net = Network(self.env, latency=latency, seed=seed)
        self.config = config or DsConfig()
        self.f = f
        n = 3 * f + 1
        self.replica_ids = [f"{name_prefix}{i}" for i in range(n)]
        self.replicas: List[DsReplica] = [
            DsReplica(self.env, self.net, node_id, self.replica_ids,
                      self.config)
            for node_id in self.replica_ids
        ]
        self._client_count = 0

    def start(self) -> None:
        """Present for symmetry with ZkEnsemble (no bootstrap needed)."""

    def replica(self, node_id: str) -> DsReplica:
        return self.replicas[self.replica_ids.index(node_id)]

    @property
    def primary(self) -> DsReplica:
        view = max(r.ordering.view for r in self.replicas if r._alive)
        return self.replicas[view % len(self.replicas)]

    def client(self, node_id: Optional[str] = None,
               unordered_reads: Optional[bool] = None) -> DsClient:
        """Create a client.

        ``unordered_reads`` overrides the ensemble default per client
        (mirroring ZK's per-session read knobs): a recipe that tolerates
        BFT-SMaRt's weaker read guarantee opts in and pays 2f+1 matching
        replies instead of f+1, skipping the ordering protocol entirely.
        Only meaningful when the replicas run with
        ``DsConfig.unordered_reads`` — the fast path must exist
        server-side for the larger quorum to be answered.
        """
        if node_id is None:
            node_id = f"dsclient{self._client_count}"
        self._client_count += 1
        if unordered_reads is None:
            unordered_reads = self.config.unordered_reads
        return self.client_class(self.env, self.net, node_id,
                                 self.replica_ids, f=self.f,
                                 lease_ms=self.config.lease_ms,
                                 unordered_reads=unordered_reads)

    def spaces_consistent(self) -> bool:
        """True when every live replica holds the same tuple state."""
        fingerprints = {
            replica.fingerprint()
            for replica in self.replicas if replica._alive
        }
        return len(fingerprints) == 1
