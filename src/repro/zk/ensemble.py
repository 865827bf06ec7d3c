"""Convenience builder: a ZooKeeper ensemble plus its clients on one network."""

from __future__ import annotations

from typing import List, Optional

from ..sim import Environment, LatencyModel, Network
from .client import ZkClient
from .server import ZkConfig, ZkServer

__all__ = ["ZkEnsemble"]


class ZkEnsemble:
    """``2f + 1`` ZooKeeper replicas (plus observers) on a simulated network.

    The ensemble boots with replica 0 as the established leader (no
    initial election round), matching how benchmarks bring up a healthy
    cluster; elections still run on failure.

    ``n_observers`` adds non-voting learners: they receive the committed
    stream and serve reads, but never ack proposals or vote, so read
    capacity grows without widening the write quorum.
    """

    #: client implementation handed out by :meth:`client` (EZK overrides).
    client_class = ZkClient

    def __init__(self, n_replicas: int = 3,
                 config: Optional[ZkConfig] = None, seed: int = 0,
                 latency: Optional[LatencyModel] = None,
                 name_prefix: str = "zk", n_observers: int = 0):
        if n_replicas < 1 or n_replicas % 2 == 0:
            raise ValueError("ensemble size must be odd and positive")
        if n_observers < 0:
            raise ValueError("n_observers must be non-negative")
        self.env = Environment()
        self.net = Network(self.env, latency=latency, seed=seed)
        self.config = config or ZkConfig()
        self.replica_ids = [f"{name_prefix}{i}" for i in range(n_replicas)]
        self.observer_ids = [f"{name_prefix}{n_replicas + i}"
                             for i in range(n_observers)]
        #: every state-holding node, voters first (indexes ``servers``).
        self.all_ids = self.replica_ids + self.observer_ids
        self.servers: List[ZkServer] = []
        for node_id in self.replica_ids:
            peers = [p for p in self.replica_ids if p != node_id]
            self.servers.append(
                ZkServer(self.env, self.net, node_id, peers, self.config,
                         observer_ids=self.observer_ids))
        for node_id in self.observer_ids:
            # An observer's peer list is the full voting set: whichever
            # of them leads is where its syncs and forwards go.
            self.servers.append(
                ZkServer(self.env, self.net, node_id, list(self.replica_ids),
                         self.config, is_observer=True))
        self._client_count = 0
        self._started = False

    def start(self) -> None:
        """Bootstrap the ensemble (replica 0 leads)."""
        for server in self.servers:
            server.start(self.replica_ids[0])
        self._started = True

    @property
    def leader(self) -> Optional[ZkServer]:
        for server in self.servers:
            if server.is_leader:
                return server
        return None

    def server(self, node_id: str) -> ZkServer:
        return self.servers[self.all_ids.index(node_id)]

    def _assign_replica(self) -> str:
        """Round-robin connection spread for ensemble-built clients.

        With the read-scaling knobs off this reproduces the historical
        assignment (voting replicas only, leader included) exactly. With
        ``local_reads`` on, clients spread over followers and observers
        so local reads actually land on the scaled-out capacity; the
        bootstrap leader only preps/broadcasts writes.
        """
        pool = self.all_ids
        if self.config.local_reads and len(pool) > 1:
            pool = pool[1:]
        return pool[self._client_count % len(pool)]

    def client(self, node_id: Optional[str] = None,
               session_timeout_ms: float = 2000.0,
               replica: Optional[str] = None,
               resilient: bool = True,
               cached_reads: bool = False) -> ZkClient:
        """Create a client; connection replica assigned round-robin.

        Every client runs the session state machine: automatic failover
        with backoff, session re-establishment, and watch
        re-registration with missed-event synthesis (see
        :class:`~repro.zk.client.SessionState`).
        ``cached_reads=True`` (pair with ``ZkConfig.leases``) adds the
        lease-protected read cache: hot-key reads served locally at
        0 RTT (see :mod:`repro.zk.leases`).
        """
        # ``resilient`` is accepted only for the failover row's
        # ``client_kwargs={"resilient": True}`` in
        # benchmarks/ledger/workloads.py; there is no other client.
        if not resilient:
            raise ValueError("every ZkClient runs the session state machine")
        if not self._started:
            raise RuntimeError("start() the ensemble before creating clients")
        if node_id is None:
            node_id = f"zkclient{self._client_count}"
        if replica is None:
            replica = self._assign_replica()
        self._client_count += 1
        return self.client_class(self.env, self.net, node_id,
                                 self.all_ids, replica=replica,
                                 session_timeout_ms=session_timeout_ms,
                                 track_zxid=self.config.local_reads,
                                 cached_reads=cached_reads)

    def trees_consistent(self) -> bool:
        """True when every live replica holds the same tree (test helper)."""
        fingerprints = {
            server.tree.fingerprint()
            for server in self.servers if server._alive
        }
        return len(fingerprints) == 1
