"""Open-loop aggregate clients: modeling 100k+ client populations.

The closed-loop drivers in :mod:`repro.bench.workload` spawn one
simulated process (and one session) per client, which caps the modeled
population at a few hundred before per-client kernel overhead dominates.
This module decouples the *modeled* population from the *simulated*
machinery, following the methodology critique in "How to Evaluate
Distributed Coordination Systems?" (PAPERS.md): real coordination
traffic is open-loop — arrivals do not wait for completions — with
skewed key popularity and tail-dominated latency.

One **arrival generator** process emits the aggregate request stream of
``Workload.clients`` virtual clients (Poisson, uniform, or bursty), each
request drawing a key from a Zipf-skewed popularity distribution and an
op from the read/write mix. A small pool of real sessions — each
pipelining many in-flight RPCs, like the multiplexed connections of a
proxy tier — executes the stream. Latency is measured from *arrival*
(not dispatch), so queueing delay under overload shows up in the tail
percentiles exactly as it would for a real open-loop population.

Usage::

    from repro.bench.openloop import Workload, run_openloop_workload
    result = run_openloop_workload(
        "ezk", Workload(mix={"read": 0.9, "write": 0.1},
                        skew=0.99, arrival="poisson",
                        clients=100_000, ops_per_client_s=0.5))
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..recipes import ensure_object
from .systems import make_coords, make_ensemble, run_all
from .workload import WorkloadResult, _Window

__all__ = ["Workload", "run_openloop_workload", "ARRIVALS"]

ARRIVALS = ("poisson", "uniform", "bursty")
#: bursty arrivals: length of one peak + off-peak cycle.
BURST_PERIOD_MS = 50.0


@dataclass(frozen=True)
class Workload:
    """Declarative spec of an aggregate open-loop client population."""

    #: op mix; fractions must sum to 1 (keys: "read", "write").
    mix: Dict[str, float] = field(
        default_factory=lambda: {"read": 0.9, "write": 0.1})
    #: Zipf exponent over the key space (0 = uniform popularity;
    #: 0.99 matches the YCSB default).
    skew: float = 0.99
    #: arrival process: "poisson" | "uniform" | "bursty".
    arrival: str = "poisson"
    #: modeled client population (virtual clients, not sessions).
    clients: int = 100_000
    #: per-virtual-client request rate; the generator emits the
    #: aggregate ``clients * ops_per_client_s`` stream.
    ops_per_client_s: float = 0.5
    #: distinct objects the population touches.
    keys: int = 512
    #: bursty arrivals: peak-to-mean rate ratio and the fraction of
    #: each period spent at peak (mean rate is preserved).
    burst_factor: float = 5.0
    burst_fraction: float = 0.1
    #: session churn: short-lived sessions opened per second alongside
    #: the op stream (connect → ephemeral create → close, with every
    #: 4th abandoned to exercise expiry + reaping). 0 = off; zk family
    #: only.
    churn_per_s: float = 0.0
    #: watcher fleet pinned to the hottest key: every write to it fans
    #: out this many notifications. 0 = off; zk family only.
    watch_fanout: int = 0
    #: lease-protected client caching (``ZkConfig.leases`` +
    #: ``cached_reads=True`` sessions): hot reads served sub-RTT from
    #: client memory. Off = the historical plain read path; zk family
    #: only.
    cached_reads: bool = False
    #: Zipf exponent for the *write* key choice; ``None`` reuses
    #: ``skew``. Read-hot configuration data is rarely also write-hot —
    #: ``zipf_hot`` sets 0.0 (uniform writes) so leases on hot keys
    #: survive long enough to matter.
    write_skew: Optional[float] = None

    @property
    def rate_ops_per_ms(self) -> float:
        return self.clients * self.ops_per_client_s / 1000.0

    def validate(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"arrival {self.arrival!r}: expected one of {ARRIVALS}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix fractions sum to {total}, expected 1.0")
        if unknown := set(self.mix) - {"read", "write"}:
            raise ValueError(f"unknown mix ops: {sorted(unknown)}")
        if self.rate_ops_per_ms <= 0.0:
            raise ValueError("clients * ops_per_client_s must be positive")
        if not 0.0 <= self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in [0, 1)")
        if self.arrival == "bursty" and \
                self.burst_factor * self.burst_fraction >= 1.0:
            raise ValueError(
                "burst_factor * burst_fraction must stay below 1 so the "
                "off-peak rate remains positive")
        if self.churn_per_s < 0.0:
            raise ValueError("churn_per_s must be non-negative")
        if self.watch_fanout < 0:
            raise ValueError("watch_fanout must be non-negative")


def _zipf_cdf(n_keys: int, skew: float) -> List[float]:
    """Cumulative popularity of ``n_keys`` ranks under a Zipf(skew) law."""
    weights = [1.0 / (rank ** skew) for rank in range(1, n_keys + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def run_openloop_workload(
        kind: str, workload: Workload, warmup_ms: float = 100.0,
        measure_ms: float = 500.0, seed: int = 41, object_bytes: int = 256,
        sessions: int = 16, inflight_per_session: int = 64,
        local_reads: bool = True, n_observers: int = 2) -> WorkloadResult:
    """Drive ``kind`` with the aggregate stream described by ``workload``.

    ``sessions * inflight_per_session`` bounds simultaneously in-flight
    requests (the aggregate pipe width); arrivals beyond it queue, and
    their queueing delay is charged to their latency. Read scaling
    (``local_reads`` + observers, ZK family) defaults on — the point of
    the open-loop driver is large populations, which are read-path
    bound.

    Returns a :class:`WorkloadResult` whose ``clients`` field is the
    *modeled* population; extras carry offered vs achieved rate, the
    arrival/backlog accounting, and ``sim_events`` for the wall-clock
    bench.
    """
    workload.validate()
    if kind not in ("zk", "ezk") and \
            (workload.churn_per_s or workload.watch_fanout
             or workload.cached_reads):
        raise ValueError(
            "churn_per_s / watch_fanout / cached_reads require "
            "the zk family (sessions, watches and leases are ZooKeeper "
            "machinery)")
    kwargs = {}
    if kind in ("zk", "ezk"):
        if local_reads or workload.cached_reads:
            from ..zk.server import ZkConfig
            leases = None
            if workload.cached_reads:
                from ..zk.leases import LeaseConfig
                leases = LeaseConfig()
            kwargs["config"] = ZkConfig(local_reads=local_reads,
                                        leases=leases)
        if n_observers:
            kwargs["n_observers"] = n_observers
    elif local_reads:
        from ..depspace.server import DsConfig
        kwargs["config"] = DsConfig(unordered_reads=True)
    ensemble = make_ensemble(kind, seed=seed, **kwargs)
    env = ensemble.env
    client_kwargs = {"cached_reads": True} if workload.cached_reads else None
    coords, raw = make_coords(ensemble, kind, sessions,
                              client_kwargs=client_kwargs)
    payload = b"x" * object_bytes
    paths = [f"/ol{key}" for key in range(workload.keys)]

    def prepare(coord, path):
        yield from ensure_object(coord, path, payload)

    for index, path in enumerate(paths):
        run_all(ensemble, prepare(coords[index % sessions], path))

    window = _Window(ensemble, raw, warmup_ms, measure_ms)
    rng = random.Random(f"openloop-{kind}-{seed}")
    cdf = _zipf_cdf(workload.keys, workload.skew) if workload.skew else None
    if workload.write_skew is None:
        write_cdf = cdf
    else:
        write_cdf = _zipf_cdf(workload.keys, workload.write_skew) \
            if workload.write_skew else None
    read_fraction = workload.mix.get("read", 0.0)
    rate = workload.rate_ops_per_ms

    #: (arrival_time, is_read, path) requests awaiting a free slot.
    pending: deque = deque()
    #: parked executor slots waiting for work.
    idle: deque = deque()
    stats = {"arrivals": 0, "executed": 0, "max_backlog": 0,
             "reads": 0, "writes": 0}
    #: arrival-to-completion read latencies inside the measure window
    #: (the sub-RTT cache headline is a *read* percentile, and mixing
    #: revocation-delayed writes into one pool would bury it).
    read_lat: List[float] = []

    def next_gap() -> float:
        if workload.arrival == "uniform":
            return 1.0 / rate
        if workload.arrival == "bursty":
            period = BURST_PERIOD_MS
            in_burst = (env.now % period) < workload.burst_fraction * period
            factor = workload.burst_factor if in_burst else (
                (1.0 - workload.burst_factor * workload.burst_fraction)
                / (1.0 - workload.burst_fraction))
            return rng.expovariate(rate * factor)
        return rng.expovariate(rate)

    def generator():
        while window.open_:
            yield env.timeout(next_gap())
            if not window.open_:
                return
            # Draw order (key draw, then op coin) is part of the
            # recorded baselines: keep it even though the op now picks
            # which cdf interprets the key draw.
            if cdf is not None:
                u, base_key = rng.random(), None
            else:
                u, base_key = None, rng.randrange(workload.keys)
            is_read = rng.random() < read_fraction
            pick = cdf if is_read else write_cdf
            if pick is not None:
                key = bisect_right(
                    pick, u if u is not None
                    else (base_key + 0.5) / workload.keys)
            else:
                key = base_key if base_key is not None \
                    else int(u * workload.keys)
            if key >= workload.keys:  # guard the cdf[-1] == 1.0 edge
                key = workload.keys - 1
            request = (env.now, is_read, paths[key])
            pending.append(request)
            stats["arrivals"] += 1
            if len(pending) > stats["max_backlog"]:
                stats["max_backlog"] = len(pending)
            if idle:
                idle.popleft().succeed()

    def executor(coord):
        while True:
            while not pending:
                if not window.open_:
                    return
                slot = env.event()
                idle.append(slot)
                yield slot
            arrived, is_read, path = pending.popleft()
            if is_read:
                yield from coord.read(path)
            else:
                yield from coord.update(path, payload)
            stats["executed"] += 1
            # Latency runs from *arrival*: open-loop queueing delay is
            # part of what the population experiences.
            window.record(arrived)
            if env.now >= window.start and env.now <= window.end:
                if is_read:
                    stats["reads"] += 1
                    read_lat.append(env.now - arrived)
                else:
                    stats["writes"] += 1

    # Session churn + watch fan-out riders (zk family, flag-gated).
    # Their RNG is a separate stream and their processes exist only
    # when the knobs are set, so default runs stay byte-identical.
    side_stats = {"churn_connects": 0, "churn_closed": 0,
                  "churn_abandoned": 0, "watch_notifications": 0}

    def churn_session(i: int):
        from ..zk.errors import ZkError
        client = ensemble.client(node_id=f"olchurn{i}",
                                 session_timeout_ms=2000.0, resilient=True)
        try:
            yield from client.connect()
        except ZkError:
            return
        side_stats["churn_connects"] += 1
        try:
            yield from client.create(f"/olchurn{i}", b"c", ephemeral=True)
        except ZkError:
            pass
        if i % 4 == 3:
            client.abandon()        # expiry sweep reaps the ephemeral
            side_stats["churn_abandoned"] += 1
            return
        try:
            yield from client.close()
            side_stats["churn_closed"] += 1
        except ZkError:
            pass

    def churner():
        churn_rng = random.Random(f"openloop-churn-{kind}-{seed}")
        rate_ms = workload.churn_per_s / 1000.0
        i = 0
        while window.open_:
            yield env.timeout(churn_rng.expovariate(rate_ms))
            if not window.open_:
                return
            env.process(churn_session(i))
            i += 1

    def watcher(i: int):
        from ..zk.errors import ZkError
        client = ensemble.client(node_id=f"olwatch{i}",
                                 session_timeout_ms=8000.0, resilient=True)
        try:
            yield from client.connect()
        except ZkError:
            return
        hot = paths[0]   # Zipf rank 1: the key writes hit most often
        while window.open_:
            waiter = client.wait_for_event(hot)
            try:
                yield from client.get_data(hot, watch=True)
            except ZkError:
                client.discard_waiter(hot, waiter)
                yield env.timeout(100.0)
                continue
            note = yield from client.await_notification(
                hot, waiter, deadline=env.timeout(1000.0))
            client.discard_waiter(hot, waiter)
            if note is not None:
                side_stats["watch_notifications"] += 1

    env.process(generator())
    if workload.churn_per_s:
        env.process(churner())
    for i in range(workload.watch_fanout):
        env.process(watcher(i))
    for coord in coords:
        for _slot in range(inflight_per_session):
            env.process(executor(coord))
    window.run()

    result = window.result(kind, workload.clients)
    result.extra.update({
        "modeled_clients": float(workload.clients),
        "offered_ops_per_s": workload.rate_ops_per_ms * 1000.0,
        "arrivals": float(stats["arrivals"]),
        "executed": float(stats["executed"]),
        "max_backlog": float(stats["max_backlog"]),
        "sessions": float(sessions),
        "inflight_per_session": float(inflight_per_session),
        "sim_events": float(env.events_processed),
    })
    if workload.churn_per_s:
        result.extra.update({
            "churn_per_s": workload.churn_per_s,
            "churn_connects": float(side_stats["churn_connects"]),
            "churn_closed": float(side_stats["churn_closed"]),
            "churn_abandoned": float(side_stats["churn_abandoned"]),
        })
    if workload.watch_fanout:
        result.extra.update({
            "watch_fanout": float(workload.watch_fanout),
            "watch_notifications": float(
                side_stats["watch_notifications"]),
        })
    measured_s = measure_ms / 1000.0
    read_lat.sort()

    def read_pct(p: float) -> float:
        if not read_lat:
            return float("nan")
        rank = max(1, math.ceil(p / 100.0 * len(read_lat)))
        return read_lat[rank - 1]

    result.extra.update({
        "read_ops_per_s": stats["reads"] / measured_s,
        "write_ops_per_s": stats["writes"] / measured_s,
        "read_p50_ms": read_pct(50.0),
        "read_p99_ms": read_pct(99.0),
    })
    if workload.cached_reads:
        hits = sum(c._cache.stats["hits"] for c in raw)
        misses = sum(c._cache.stats["misses"] for c in raw)
        result.extra.update({
            "cache_hits": float(hits),
            "cache_misses": float(misses),
            "cache_hit_rate": hits / (hits + misses)
            if hits + misses else 0.0,
            "lease_revokes": float(
                sum(c._cache.stats["revokes"] for c in raw)),
        })
    return result
