"""Builders for the four evaluated systems (ZK, EZK, DS, EDS).

The paper's configuration: every system tolerates one faulty server —
three replicas for (E)ZK, four for (E)DS — and each closed-loop client
has at most one request outstanding (§6).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..depspace import DsEnsemble
from ..depspace.bft import BftConfig
from ..depspace.server import DsConfig
from ..eds import EdsEnsemble
from ..ezk import EzkEnsemble
from ..raft import RaftConfig
from ..recipes import CoordClient, DsCoordClient, ZkCoordClient
from ..zk import ZkEnsemble
from ..zk.server import ZkConfig

__all__ = ["SYSTEMS", "EXTENSIBLE", "make_ensemble", "make_coords",
           "make_chaos_ensemble", "run_all"]

SYSTEMS = ("zk", "ezk", "ds", "eds")
EXTENSIBLE = frozenset({"ezk", "eds"})


def make_ensemble(kind: str, seed: int = 11, **kwargs):
    """Build and start one of the four evaluated systems."""
    if kind == "zk":
        ensemble = ZkEnsemble(n_replicas=3, seed=seed, **kwargs)
    elif kind == "ezk":
        ensemble = EzkEnsemble(n_replicas=3, seed=seed, **kwargs)
    elif kind == "ds":
        ensemble = DsEnsemble(f=1, seed=seed, **kwargs)
    elif kind == "eds":
        ensemble = EdsEnsemble(f=1, seed=seed, **kwargs)
    else:
        raise ValueError(f"unknown system {kind!r}")
    ensemble.start()
    return ensemble


def make_chaos_ensemble(kind: str, seed: int = 11, n_clients: int = 3,
                        kernel: Optional[str] = None, obs=None):
    """Ensemble + connected raw clients tuned for the chaos harness.

    ZK-family ensembles run with ``local_reads`` and one observer so
    fault schedules exercise the read-parking and observer-resync
    machinery; sessions and leases are stretched to 8 s so a ≤2 s
    fault window cannot expire a healthy-but-disconnected client (which
    would turn network faults into spurious session churn the checkers
    cannot distinguish from real violations). Clients connect before
    this returns — the harness injects faults into running workloads,
    not into bootstrap.

    ``kernel`` selects the consensus kernel (``None`` keeps the family
    default: Zab for ZK, PBFT for DS). ``"raft"`` runs the same
    ensembles over :mod:`repro.raft`, seeding the election-timeout RNG
    from the schedule seed so replays stay byte-identical.

    ``obs`` attaches an :class:`~repro.obs.ObsConfig` so chaos replays
    can dump a causal trace of the exact faulted run (``--trace`` on
    the replay CLI); ``None`` keeps the plane uninstalled and replays
    byte-identical to historical cells.
    """
    if kind in ("zk", "ezk"):
        cls = ZkEnsemble if kind == "zk" else EzkEnsemble
        config = ZkConfig(local_reads=True, obs=obs)
        if kernel is not None and kernel != "zab":
            config.kernel = kernel
            config.raft = RaftConfig(seed=seed)
        ensemble = cls(n_replicas=3, seed=seed, config=config, n_observers=1)
        ensemble.start()
        raw = [ensemble.client(session_timeout_ms=8000.0)
               for _ in range(n_clients)]

        def connect_all():
            for client in raw:
                yield from client.connect()

        proc = ensemble.env.process(connect_all())
        ensemble.env.run(until=proc)
    elif kind in ("ds", "eds"):
        cls = DsEnsemble if kind == "ds" else EdsEnsemble
        # Status gossip on: without PBFT's checkpoint stand-in a replica
        # healed from a partition after the last client request never
        # learns it missed a view (liveness, not figure-relevant).
        config = DsConfig(lease_ms=8000.0,
                          bft=BftConfig(status_interval_ms=500.0),
                          obs=obs)
        if kernel is not None and kernel != "pbft":
            config.kernel = kernel
            config.raft = RaftConfig(seed=seed)
        ensemble = cls(f=1, seed=seed, config=config)
        ensemble.start()
        raw = [ensemble.client() for _ in range(n_clients)]
    else:
        raise ValueError(f"unknown system {kind!r}")
    return ensemble, raw


def make_coords(ensemble, kind: str, n: int,
                replica: Optional[str] = None,
                client_kwargs: Optional[dict] = None
                ) -> Tuple[List[CoordClient], list]:
    """``n`` connected abstract clients plus the raw client objects.

    ``replica`` pins every client to one replica (ZK-family only) —
    the read-scaling benchmark uses it for its leader-only baseline.
    ``client_kwargs`` is forwarded to ``ensemble.client`` (e.g.
    ``{"cached_reads": True}`` for the lease-cache benchmarks).
    """
    extra = client_kwargs or {}
    if replica is not None:
        raw = [ensemble.client(replica=replica, **extra) for _ in range(n)]
    else:
        raw = [ensemble.client(**extra) for _ in range(n)]
    if kind in ("zk", "ezk"):
        def connect_all():
            for client in raw:
                yield from client.connect()

        proc = ensemble.env.process(connect_all())
        ensemble.env.run(until=proc)
        coords: List[CoordClient] = [ZkCoordClient(c) for c in raw]
    else:
        coords = [DsCoordClient(c) for c in raw]
    return coords, raw


def run_all(ensemble, *generators):
    """Run client processes to completion; returns their results."""
    procs = [ensemble.env.process(gen) for gen in generators]
    return [ensemble.env.run(until=proc) for proc in procs]
