"""Closed-loop workload drivers for every experiment in §6.

Each driver builds one of the four systems, spawns ``n`` closed-loop
clients (at most one outstanding request each, as in the paper), runs a
warm-up phase, measures for a fixed window of simulated time, and
returns a :class:`WorkloadResult` carrying the same metrics the paper's
figures plot: throughput, mean latency, and data sent by clients per
operation.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..recipes import (ExtensionBarrier, ExtensionElection, ExtensionQueue,
                       ExtensionSharedCounter, TraditionalBarrier,
                       TraditionalElection, TraditionalQueue,
                       TraditionalSharedCounter, ensure_object)
from ..sim import IntervalThroughput, LatencyRecorder
from .systems import EXTENSIBLE, make_coords, make_ensemble, run_all

__all__ = [
    "WorkloadResult",
    "run_counter_workload",
    "run_queue_workload",
    "run_barrier_workload",
    "run_election_workload",
    "run_queue_with_regular_clients",
    "run_regular_op_latency",
    "run_read_heavy_workload",
]

#: size of each regular client's object (§6.2's 256-byte objects).
OBJECT_BYTES = 256
#: §6.2's mixed workload: 15 readers and 15 writers beside the queue.
REGULAR_READERS = 15
REGULAR_WRITERS = 15
#: the read-heavy driver's read share (90/10).
READ_FRACTION = 0.9
#: barrier rounds set up (and at most entered) per cell.
BARRIER_ROUNDS = 4000


@dataclass
class WorkloadResult:
    """One figure cell: a (system, #clients) measurement."""

    system: str
    clients: int
    throughput_ops: float
    mean_latency_ms: float
    p99_latency_ms: float
    client_kb_per_op: float
    completed_ops: int
    p50_latency_ms: float = float("nan")
    p999_latency_ms: float = float("nan")
    extra: Dict[str, float] = field(default_factory=dict)

    def row(self) -> str:
        return (f"{self.system:<5} n={self.clients:<3d} "
                f"tput={self.throughput_ops:>10.1f} ops/s  "
                f"lat={self.mean_latency_ms:>8.3f} ms  "
                f"p50/p99/p999={self.p50_latency_ms:.3f}/"
                f"{self.p99_latency_ms:.3f}/{self.p999_latency_ms:.3f} ms  "
                f"KB/op={self.client_kb_per_op:>8.3f}  "
                f"(ops={self.completed_ops})")


class _Window:
    """Measurement bookkeeping shared by all drivers."""

    def __init__(self, ensemble, raw_clients, warmup_ms: float,
                 measure_ms: float):
        self.env = ensemble.env
        self.net = ensemble.net
        self.nodes = [c.node_id for c in raw_clients]
        self.start = self.env.now + warmup_ms
        self.end = self.start + measure_ms
        self.latency = LatencyRecorder(warmup_until=self.start)
        self.throughput = IntervalThroughput(self.start, self.end)
        self._bytes_at_start = 0

        def snap(_event):
            self._bytes_at_start = self._client_bytes()

        timer = self.env.timeout(warmup_ms)
        timer.add_callback(snap)

    def _client_bytes(self) -> int:
        return sum(self.net.bytes_sent[node] for node in self.nodes)

    @property
    def open_(self) -> bool:
        return self.env.now < self.end

    def record(self, started_at: float) -> None:
        now = self.env.now
        self.latency.record(now, now - started_at)
        self.throughput.record(now)

    def result(self, system: str, clients: int,
               extra: Optional[Dict[str, float]] = None) -> WorkloadResult:
        ops = self.throughput.completed
        window_bytes = self._client_bytes() - self._bytes_at_start
        kb_per_op = (window_bytes / 1024.0 / ops) if ops else float("nan")
        # One sort for all three percentiles (the sample list can run to
        # hundreds of thousands of entries under open-loop drivers).
        ordered = sorted(self.latency.samples)

        def pct(p: float) -> float:
            if not ordered:
                return float("nan")
            rank = max(1, math.ceil(p / 100.0 * len(ordered)))
            return ordered[rank - 1]

        return WorkloadResult(
            system=system, clients=clients,
            throughput_ops=self.throughput.ops_per_second,
            mean_latency_ms=self.latency.mean,
            p50_latency_ms=pct(50.0),
            p99_latency_ms=pct(99.0),
            p999_latency_ms=pct(99.9),
            client_kb_per_op=kb_per_op,
            completed_ops=ops,
            extra=dict(extra or {}))

    def run(self, drain_ms: float = 50.0) -> None:
        self.env.run(until=self.end)
        # Let the bytes snapshot settle exactly at the window edge.
        self.env.run(until=self.end + drain_ms)


def _setup_recipes(ensemble, kind, coords, traditional_cls, extension_cls,
                   **kwargs):
    """Instantiate + set up one recipe object per client."""
    if kind in EXTENSIBLE:
        recipes = [extension_cls(c, **kwargs) for c in coords]
        run_all(ensemble, recipes[0].setup(register=True))
        for recipe in recipes[1:]:
            run_all(ensemble, recipe.setup(register=False))
    else:
        recipes = [traditional_cls(c, **kwargs) for c in coords]
        run_all(ensemble, recipes[0].setup())
    return recipes


# ---------------------------------------------------------------------------
# Figure 6: shared counter
# ---------------------------------------------------------------------------

def run_counter_workload(kind: str, n_clients: int, warmup_ms: float = 100.0,
                         measure_ms: float = 500.0,
                         seed: int = 31) -> WorkloadResult:
    """Closed-loop counter increments (Figure 6)."""
    ensemble = make_ensemble(kind, seed=seed)
    coords, raw = make_coords(ensemble, kind, n_clients)
    counters = _setup_recipes(ensemble, kind, coords,
                              TraditionalSharedCounter,
                              ExtensionSharedCounter)
    window = _Window(ensemble, raw, warmup_ms, measure_ms)

    def worker(counter):
        while window.open_:
            started = window.env.now
            yield from counter.increment()
            window.record(started)

    for counter in counters:
        ensemble.env.process(worker(counter))
    window.run()
    extra = {}
    if kind not in EXTENSIBLE:
        attempts = sum(c.attempts for c in counters)
        successes = max(1, sum(c.successes for c in counters))
        extra["tries_per_success"] = attempts / successes
    return window.result(kind, n_clients, extra)


# ---------------------------------------------------------------------------
# Figure 8: distributed queue
# ---------------------------------------------------------------------------

def run_queue_workload(kind: str, n_clients: int, warmup_ms: float = 100.0,
                       measure_ms: float = 500.0, seed: int = 32,
                       config=None) -> WorkloadResult:
    """Each client repeatedly adds one element then removes one (§6.1.2).

    Throughput counts *elements through the queue* (add+remove pairs);
    KB/op is client-sent data per element, the paper's cost metric.
    ``config`` optionally overrides the ensemble's service config (the
    wall-clock microbenchmark uses it to toggle Zab batching); the
    result's ``extra['sim_events']`` reports how many kernel events the
    run processed so events/s per wall-clock second can be derived.
    """
    kwargs = {"config": config} if config is not None else {}
    ensemble = make_ensemble(kind, seed=seed, **kwargs)
    coords, raw = make_coords(ensemble, kind, n_clients)
    queues = _setup_recipes(ensemble, kind, coords, TraditionalQueue,
                            ExtensionQueue)
    window = _Window(ensemble, raw, warmup_ms, measure_ms)

    def worker(queue):
        while window.open_:
            started = window.env.now
            yield from queue.add(b"")
            yield from queue.remove()
            window.record(started)

    for queue in queues:
        ensemble.env.process(worker(queue))
    window.run()
    result = window.result(kind, n_clients)
    result.extra["sim_events"] = float(ensemble.env.events_processed)
    return result


# ---------------------------------------------------------------------------
# Figure 10: distributed barrier
# ---------------------------------------------------------------------------

def run_barrier_workload(kind: str, n_clients: int, warmup_ms: float = 100.0,
                         measure_ms: float = 500.0,
                         seed: int = 33) -> WorkloadResult:
    """Repeated barrier episodes; latency is the per-enter latency.

    Throughput (extra key ``rounds_per_second``) counts completed
    rounds; the headline metrics are the paper's: average enter latency
    and client data per enter call.
    """
    ensemble = make_ensemble(kind, seed=seed)
    coords, raw = make_coords(ensemble, kind, n_clients)
    barriers = _setup_recipes(ensemble, kind, coords, TraditionalBarrier,
                              ExtensionBarrier, threshold=n_clients)
    if kind not in EXTENSIBLE:
        # Traditional ZooKeeper needs each round's registration parent.
        def presetup():
            for round_id in range(BARRIER_ROUNDS):
                yield from barriers[0].setup_round(round_id)

        run_all(ensemble, presetup())
    window = _Window(ensemble, raw, warmup_ms, measure_ms)

    def worker(barrier):
        for round_id in range(BARRIER_ROUNDS):
            if not window.open_:
                return
            started = window.env.now
            yield from barrier.enter(round_id)
            window.record(started)

    for barrier in barriers:
        ensemble.env.process(worker(barrier))
    window.run()
    result = window.result(kind, n_clients)
    result.extra["rounds_per_second"] = (
        result.throughput_ops / max(1, n_clients))
    return result


# ---------------------------------------------------------------------------
# Figure 12: leader election
# ---------------------------------------------------------------------------

def run_election_workload(kind: str, n_clients: int,
                          warmup_ms: float = 100.0,
                          measure_ms: float = 500.0,
                          seed: int = 34) -> WorkloadResult:
    """Stress test: a newly appointed leader immediately abdicates.

    Throughput is leader changes per second; ``signaling latency`` is
    the delay between an abdication completing and the *next* leader's
    become_leader call returning (the paper's §6.1.4 metric, stored both
    as the latency column and in ``extra['signaling_latency_ms']``).
    """
    ensemble = make_ensemble(kind, seed=seed)
    coords, raw = make_coords(ensemble, kind, n_clients)
    elections = _setup_recipes(ensemble, kind, coords, TraditionalElection,
                               ExtensionElection)
    window = _Window(ensemble, raw, warmup_ms, measure_ms)
    last_abdication: List[Optional[float]] = [None]

    def worker(election, index):
        while window.open_:
            started = window.env.now
            yield from election.become_leader()
            now = window.env.now
            signal_origin = last_abdication[0]
            if signal_origin is not None and signal_origin >= started:
                window.latency.record(now, now - signal_origin)
            window.throughput.record(now)
            yield from election.abdicate()
            last_abdication[0] = window.env.now

    for index, election in enumerate(elections):
        ensemble.env.process(worker(election, index))
    window.run()
    result = window.result(kind, n_clients)
    result.extra["signaling_latency_ms"] = result.mean_latency_ms
    return result


# ---------------------------------------------------------------------------
# Figure 13: queue extension vs. regular clients
# ---------------------------------------------------------------------------

def run_queue_with_regular_clients(
        kind: str, queue_clients: int, warmup_ms: float = 100.0,
        measure_ms: float = 500.0, seed: int = 35) -> WorkloadResult:
    """§6.2's mixed workload: the distributed-queue experiment plus 30
    regular clients reading/writing 256-byte objects.

    Returns queue throughput plus ``extra['regular_read_ms']`` and
    ``extra['regular_write_ms']``.
    """
    if kind not in EXTENSIBLE:
        raise ValueError("Figure 13 runs on the extensible systems only")
    ensemble = make_ensemble(kind, seed=seed)
    total = queue_clients + REGULAR_READERS + REGULAR_WRITERS
    coords, raw = make_coords(ensemble, kind, total)
    queue_coords = coords[:queue_clients]
    reader_coords = coords[queue_clients:queue_clients + REGULAR_READERS]
    writer_coords = coords[queue_clients + REGULAR_READERS:]

    queues = [ExtensionQueue(c) for c in queue_coords]
    run_all(ensemble, queues[0].setup(register=True))
    for queue in queues[1:]:
        run_all(ensemble, queue.setup(register=False))

    # Regular clients touch their own 256-byte objects.
    payload = b"x" * OBJECT_BYTES

    def prepare(coord, index):
        yield from ensure_object(coord, f"/reg{index}", payload)

    for index, coord in enumerate(reader_coords + writer_coords):
        run_all(ensemble, prepare(coord, index))

    window = _Window(ensemble, raw[:queue_clients], warmup_ms, measure_ms)
    read_lat = LatencyRecorder(warmup_until=window.start)
    write_lat = LatencyRecorder(warmup_until=window.start)

    def queue_worker(queue):
        while window.open_:
            started = window.env.now
            yield from queue.add(b"")
            yield from queue.remove()
            window.record(started)

    def reader(coord, index):
        while window.open_:
            started = window.env.now
            yield from coord.read(f"/reg{index}")
            read_lat.record(window.env.now, window.env.now - started)

    def writer(coord, index):
        while window.open_:
            started = window.env.now
            yield from coord.update(f"/reg{index}", payload)
            write_lat.record(window.env.now, window.env.now - started)

    for queue in queues:
        ensemble.env.process(queue_worker(queue))
    for index, coord in enumerate(reader_coords):
        ensemble.env.process(reader(coord, index))
    for offset, coord in enumerate(writer_coords):
        ensemble.env.process(writer(coord, REGULAR_READERS + offset))
    window.run()
    result = window.result(kind, queue_clients)
    result.extra["regular_read_ms"] = read_lat.mean
    result.extra["regular_write_ms"] = write_lat.mean
    return result


# ---------------------------------------------------------------------------
# Read-path scaling: 90/10 read-heavy regular clients
# ---------------------------------------------------------------------------

def run_read_heavy_workload(
        kind: str, n_clients: int, warmup_ms: float = 100.0,
        measure_ms: float = 500.0, seed: int = 37,
        local_reads: bool = False, n_observers: int = 0,
        pin_leader: bool = False, config=None) -> WorkloadResult:
    """Fig-13-style regular clients, but read-dominated (90/10).

    Each client loops over its own 256-byte object, choosing read vs
    update with a per-client deterministic RNG. This is the workload the
    read-scaling layer is judged on:

    * ``pin_leader`` connects every client to replica 0 — the
      leader-only baseline in which all reads serialize on one CPU;
    * ``local_reads`` turns on session-consistent local reads (ZK
      family) or the BFT-SMaRt unordered-read optimization (DS family);
    * ``n_observers`` adds non-voting learners (ZK family only), which
      the ensemble's client spread then exercises;
    * ``config`` overrides the service config wholesale (e.g. a
      ``ZkConfig(kernel="raft")`` for the consensus-kernel comparison);
      ``local_reads`` is then applied on top of it.

    Extras carry split read/write latencies, in-window op counts, and
    ``sim_events`` for the wall-clock bench.
    """
    kwargs = {}
    if config is not None:
        kwargs["config"] = config
    if kind in ("zk", "ezk"):
        if local_reads:
            from ..zk.server import ZkConfig
            kwargs["config"] = dataclasses.replace(
                config or ZkConfig(), local_reads=True)
        if n_observers:
            kwargs["n_observers"] = n_observers
    else:
        if n_observers or pin_leader:
            raise ValueError(
                "observers / leader pinning apply to the ZK family only")
        if local_reads:
            from ..depspace.server import DsConfig
            kwargs["config"] = dataclasses.replace(
                config or DsConfig(), unordered_reads=True)
    ensemble = make_ensemble(kind, seed=seed, **kwargs)
    replica = ensemble.replica_ids[0] if pin_leader else None
    coords, raw = make_coords(ensemble, kind, n_clients, replica=replica)
    payload = b"x" * OBJECT_BYTES

    def prepare(coord, index):
        yield from ensure_object(coord, f"/robj{index}", payload)

    for index, coord in enumerate(coords):
        run_all(ensemble, prepare(coord, index))

    window = _Window(ensemble, raw, warmup_ms, measure_ms)
    read_lat = LatencyRecorder(warmup_until=window.start)
    write_lat = LatencyRecorder(warmup_until=window.start)
    counts = {"reads": 0, "writes": 0}

    def worker(coord, index):
        rng = random.Random(f"read-heavy-{seed}-{index}")
        path = f"/robj{index}"  # built once, not per op
        while window.open_:
            started = window.env.now
            if rng.random() < READ_FRACTION:
                yield from coord.read(path)
                read_lat.record(window.env.now, window.env.now - started)
                if started >= window.start:
                    counts["reads"] += 1
            else:
                yield from coord.update(path, payload)
                write_lat.record(window.env.now, window.env.now - started)
                if started >= window.start:
                    counts["writes"] += 1
            window.record(started)

    for index, coord in enumerate(coords):
        ensemble.env.process(worker(coord, index))
    window.run()
    result = window.result(kind, n_clients)
    result.extra["read_ms"] = read_lat.mean
    result.extra["write_ms"] = write_lat.mean
    result.extra["reads"] = float(counts["reads"])
    result.extra["writes"] = float(counts["writes"])
    result.extra["sim_events"] = float(ensemble.env.events_processed)
    return result


# ---------------------------------------------------------------------------
# §6.2: extensibility overhead on regular operations
# ---------------------------------------------------------------------------

def run_regular_op_latency(kind: str, n_clients: int = 10,
                           warmup_ms: float = 100.0,
                           measure_ms: float = 500.0,
                           seed: int = 36) -> WorkloadResult:
    """Plain read/write latency with no extensions registered.

    Comparing ZK↔EZK and DS↔EDS quantifies the cost of the extension
    machinery on clients that never trigger it (§6.2: < 0.4 %).
    """
    ensemble = make_ensemble(kind, seed=seed)
    coords, raw = make_coords(ensemble, kind, n_clients)
    payload = b"x" * OBJECT_BYTES

    def prepare(coord, index):
        yield from ensure_object(coord, f"/obj{index}", payload)

    for index, coord in enumerate(coords):
        run_all(ensemble, prepare(coord, index))

    window = _Window(ensemble, raw, warmup_ms, measure_ms)
    read_lat = LatencyRecorder(warmup_until=window.start)
    write_lat = LatencyRecorder(warmup_until=window.start)

    def worker(coord, index):
        toggle = index % 2 == 0
        while window.open_:
            started = window.env.now
            if toggle:
                yield from coord.read(f"/obj{index}")
                read_lat.record(window.env.now, window.env.now - started)
            else:
                yield from coord.update(f"/obj{index}", payload)
                write_lat.record(window.env.now, window.env.now - started)
            window.record(started)

    for index, coord in enumerate(coords):
        ensemble.env.process(worker(coord, index))
    window.run()
    result = window.result(kind, n_clients)
    result.extra["regular_read_ms"] = read_lat.mean
    result.extra["regular_write_ms"] = write_lat.mean
    return result
