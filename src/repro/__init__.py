"""Extensible distributed coordination (EuroSys '15) — full reproduction.

A production-quality Python library reproducing Distler, Bahn, Bessani,
Fischer, and Junqueira, *Extensible Distributed Coordination*
(EuroSys 2015): a model for safely extending coordination services with
sandboxed server-side code, implemented over two complete substrates —
a crash-tolerant ZooKeeper (primary-backup, Zab-like broadcast) and a
DepSpace built for Byzantine faults (tuple space over PBFT-style
ordering; only reply corruption is injected, so Byzantine replicas
stay unchecked) — plus the paper's recipes, benchmarks, and use cases.

Package map
-----------

========================  ==================================================
``repro.sim``             deterministic discrete-event substrate
``repro.zk``              ZooKeeper-like service (CFT, primary-backup)
``repro.depspace``        DepSpace-like service (BFT, active replication)
``repro.core``            the paper's model: extensions, verifier, sandbox,
                          extension manager
``repro.ezk``             EXTENSIBLE ZOOKEEPER (§5.1)
``repro.eds``             EXTENSIBLE DEPSPACE (§5.2)
``repro.recipes``         Table 2 abstract API + the four recipes (§6.1)
``repro.bench``           workload drivers + one generator per table/figure
========================  ==================================================

Quickstart
----------

>>> from repro.bench import make_ensemble, make_coords, run_all
>>> from repro.recipes import ExtensionSharedCounter
>>> ensemble = make_ensemble("ezk")
>>> coords, _ = make_coords(ensemble, "ezk", 2)
>>> counters = [ExtensionSharedCounter(c) for c in coords]
>>> run_all(ensemble, counters[0].setup(register=True))  # doctest: +ELLIPSIS
[...]
>>> run_all(ensemble, counters[1].setup(register=False))  # doctest: +ELLIPSIS
[...]
>>> run_all(ensemble, counters[0].increment(), counters[1].increment())
[1, 2]
"""

from . import bench, core, depspace, eds, ezk, recipes, sim, zk

__version__ = "1.0.0"

__all__ = ["sim", "zk", "depspace", "core", "ezk", "eds", "recipes",
           "bench", "__version__"]
