"""The ledger's four workload drivers.

Each driver is the benchmark's own code, composed from the program's
public entry points only (``repro.bench.systems``, ``repro.recipes``,
``repro.chaos``, ``repro.sim``). One :class:`Cell` is one fresh
ensemble under one seed; its life is three calls::

    cell.setup()      # build, connect, register, preload, warm up
    cell.measure()    # the sim window plus its drain
    cell.finish()     # output checks; returns the sim metrics

``setup`` and ``measure`` are what the harness times (``setup_s`` and
``wall_us_per_op``); ``finish`` is outside both. Everything a cell
feeds the program derives from ``seed``: the ensemble (network jitter)
seed, the arrival and key RNGs and ``RaftConfig.seed``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional

from repro.bench.systems import make_coords, make_ensemble, run_all
from repro.chaos import FaultAction, Nemesis, Schedule
from repro.depspace.server import DsConfig
from repro.raft import RaftConfig
from repro.recipes import ExtensionQueue, ensure_object
from repro.sim import LatencyRecorder
from repro.zk.leases import LeaseConfig
from repro.zk.server import ZkConfig

__all__ = ["WORKLOADS", "CheckFailed", "Cell", "QueueClosed", "ZipfOpen",
           "RaftFailoverOpen", "make_cell"]


class CheckFailed(AssertionError):
    """An output check failed; ``str()`` starts with the check's name."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _zipf_cdf(n_keys: int, skew: float) -> List[float]:
    weights = [1.0 / (rank ** skew) for rank in range(1, n_keys + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


class Cell:
    """One ensemble under one seed: bookkeeping shared by all drivers.

    An *op* is measured when it completes (or fails) at or after the
    window start — the same rule ``repro.bench.workload`` applies, so
    ops still in flight at the window end count once they drain.
    Throughput, KiB/op and stalls are taken over the window proper.
    """

    #: overridden per driver
    name = ""
    kind = ""
    warmup_ms = 100.0
    window_ms = 1000.0
    drain_ms = 50.0
    #: no fault is injected, so a single failed op fails the run
    fault_free = True

    def __init__(self, seed: int, window_ms: Optional[float] = None,
                 obs=None):
        self.seed = seed
        if window_ms is not None:
            self.window_ms = float(window_ms)
        self.obs = obs
        self.ensemble = None
        self.raw: list = []
        self.ok_times: List[float] = []     # completions inside the window
        self.failed = 0                      # failures at/after window start
        self.issued = 0                      # every op handed to a client
        self._settled_early = 0              # ... that finished in warm-up
        self.backlog_max = 0
        self.reads_in_window = 0
        self.extra: Dict[str, float] = {}

    # -- life cycle --------------------------------------------------------

    def setup(self) -> None:
        self.build()
        self.env = self.ensemble.env
        self.net = self.ensemble.net
        self.nodes = [client.node_id for client in self.raw]
        self.start = self.env.now + self.warmup_ms
        self.end = self.start + self.window_ms
        self.latency = LatencyRecorder(warmup_until=self.start)
        self.load()
        self.env.run(until=self.start)
        self._at_start = self._counters()

    def measure(self, pause=None, slices: int = 20) -> None:
        """Run the window and its drain. ``pause()`` is called before
        each of ``slices`` equal parts of the window, so the harness
        can sample the host's speed in between; running the simulation
        in parts changes nothing that is simulated."""
        if pause is not None:
            step = self.window_ms / slices
            for part in range(1, slices):
                pause()
                self.env.run(until=self.start + part * step)
            pause()
        self.env.run(until=self.end)
        self._at_end = self._counters()
        self.drain()
        self._events_drained = self.env.events_processed

    def drain(self) -> None:
        self.env.run(until=self.end + self.drain_ms)

    def finish(self) -> Dict[str, float]:
        self.check()
        sim = self.sim_metrics()
        failed = f"{sim['ops_failed']} of {sim['ops_attempted']} ops " \
                 "failed or never completed"
        if self.fault_free and sim["ops_failed"]:
            raise CheckFailed("ops_failed", failed + " with no fault injected")
        if not math.isfinite(sim["sim_p99_ms"]):
            raise CheckFailed("p99_finite", failed + ", so the p99 is +inf")
        return sim

    # -- to be provided by drivers -----------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    # -- recording ---------------------------------------------------------

    @property
    def open_(self) -> bool:
        return self.env.now < self.end

    def record_ok(self, since: float) -> None:
        now = self.env.now
        if now < self.start:
            self._settled_early += 1
            return
        self.latency.record(now, now - since)
        if now < self.end:
            self.ok_times.append(now)

    def record_failed(self) -> None:
        if self.env.now < self.start:
            self._settled_early += 1
        else:
            self.failed += 1

    def _counters(self) -> Dict[str, float]:
        """Public counters of the program, read at the window's edges."""
        net = self.net
        managers = [binding.manager for binding
                    in getattr(self.ensemble, "bindings", ())]
        out = {
            "events": self.env.events_processed,
            "msgs": sum(net.msgs_sent.values()),
            "bytes": sum(net.bytes_sent.values()),
            "client_bytes": sum(net.bytes_sent[n] for n in self.nodes),
            "ext_execs": sum(m.executions for m in managers),
            "ext_matches": sum(m.match_checks for m in managers),
        }
        if self.obs is not None:
            # The metrics registry keys on (name, node); the ledger
            # wants per-name totals, prefixed so they cannot collide.
            for (name, _node), value in \
                    self.obs.runtime.metrics.counters.items():
                out["obs:" + name] = out.get("obs:" + name, 0.0) + value
        return out

    @property
    def obs_delta(self) -> Dict[str, float]:
        """Obs-plane counters over the window, summed across nodes."""
        return {key[4:]: value - self._at_start.get(key, 0.0)
                for key, value in self._at_end.items()
                if key.startswith("obs:")}

    # -- results -----------------------------------------------------------

    def sim_metrics(self) -> Dict[str, float]:
        """Everything in the simulated currency (deterministic per seed)."""
        ops = len(self.ok_times)
        if not ops:
            raise CheckFailed("ops_completed", "no op completed in the window")
        measured = len(self.latency.samples)
        attempted = self.issued - self._settled_early
        bad = attempted - measured          # failed, or never completed
        # ... and those sit at +inf in the percentiles.
        ranked = LatencyRecorder()
        ranked.samples = self.latency.samples + [math.inf] * bad
        edges = [self.start] + self.ok_times + [self.end]
        stall = max(b - a for a, b in zip(edges, edges[1:]))
        delta = {k: self._at_end[k] - self._at_start.get(k, 0.0)
                 for k in self._at_end}
        out = {
            "n_ops": ops,
            "ops_measured": measured,
            "ops_attempted": attempted,
            "ops_failed": bad,
            "failed_op_share": bad / attempted,
            "sim_ops_per_s": ops / (self.window_ms / 1000.0),
            "sim_mean_ms": self.latency.mean,
            "sim_p50_ms": ranked.p50,
            "sim_p99_ms": ranked.p99,
            "client_kb_per_op": delta["client_bytes"] / 1024.0 / ops,
            "max_stall_ms": stall,
            "events_per_op": delta["events"] / ops,
            "msgs_per_op": delta["msgs"] / ops,
            "bytes_per_op": delta["bytes"] / ops,
            "measured_events":
                self._events_drained - self._at_start["events"],
            "ext_execs_per_op": delta["ext_execs"] / ops,
            "ext_matches_per_op": delta["ext_matches"] / ops,
            "reads_in_window": self.reads_in_window,
            "backlog_max": self.backlog_max,
        }
        out.update(self.extra)
        return out


# ---------------------------------------------------------------------------
# closed loop: the Figure-8 extension queue (EZK and EDS)
# ---------------------------------------------------------------------------

class QueueClosed(Cell):
    """``clients`` closed-loop clients; one op is ``add`` then ``remove``.

    Every element carries a ``<client>:<n>`` tag so the drained history
    can be checked for exactly-once delivery. ``tagged=False`` sends the
    empty payload ``repro.bench.workload.run_queue_workload`` sends: the
    continuity check uses it to reproduce the recorded BENCH_core row.
    """

    def __init__(self, seed: int, kind: str, name: str, clients: int = 32,
                 tagged: bool = True, **kwargs):
        super().__init__(seed, **kwargs)
        self.kind = kind
        self.name = name
        self.clients = clients
        self.tagged = tagged
        self.added: List[bytes] = []
        self.removed: List[Optional[bytes]] = []

    def build(self) -> None:
        config = ZkConfig if self.kind == "ezk" else DsConfig
        self.ensemble = make_ensemble(self.kind, seed=self.seed,
                                      config=config(obs=self.obs))
        coords, self.raw = make_coords(self.ensemble, self.kind, self.clients)
        self.queues = [ExtensionQueue(coord) for coord in coords]
        run_all(self.ensemble, self.queues[0].setup(register=True))
        for queue in self.queues[1:]:
            run_all(self.ensemble, queue.setup(register=False))

    def load(self) -> None:
        for index, queue in enumerate(self.queues):
            self.env.process(self._worker(index, queue))

    def _worker(self, index: int, queue: ExtensionQueue):
        count = 0
        while self.open_:
            since = self.env.now
            self.issued += 1
            tag = f"{index}:{count}".encode() if self.tagged else b""
            count += 1
            yield from queue.add(tag)
            self.added.append(tag)
            self.removed.append((yield from queue.remove()))
            self.record_ok(since)

    def check(self) -> None:
        if len(self.removed) != len(self.added):
            raise CheckFailed("queue_drained",
                              f"{len(self.added)} adds but "
                              f"{len(self.removed)} removes returned")
        if self.tagged:
            if len(set(self.removed)) != len(self.removed):
                raise CheckFailed("queue_exactly_once",
                                  "an element was removed twice")
            if set(self.removed) != set(self.added):
                raise CheckFailed("queue_exactly_once",
                                  "removed elements differ from added ones")
        consistent = (self.ensemble.trees_consistent if self.kind == "ezk"
                      else self.ensemble.spaces_consistent)
        if not consistent():
            raise CheckFailed("replicas_consistent",
                              "live replicas hold different state")


# ---------------------------------------------------------------------------
# open loop: shared arrival/executor machinery
# ---------------------------------------------------------------------------

class _OpenLoop(Cell):
    """Requests fall due on a schedule whatever the service is doing.

    A generator process appends ``(due, is_read, key)`` to a backlog;
    ``sessions * inflight`` executor slots pull from it. Latency runs
    from the *due* time, so the wait a stall imposes on later requests
    is charged to them.
    """

    sessions = 16
    inflight = 64
    keys = 512
    object_bytes = 256
    read_fraction = 0.95
    rate_per_ms = 50.0

    def next_gap(self) -> float:
        raise NotImplementedError

    def pick_key(self, is_read: bool) -> int:
        raise NotImplementedError

    def value(self, key: int, n: int) -> bytes:
        """A ``object_bytes`` payload naming its key and write number."""
        return f"{key}:{n}:".encode().ljust(self.object_bytes, b".")

    def preload(self, coords) -> None:
        self.paths = [f"/ol{key}" for key in range(self.keys)]
        self.writes = [0] * self.keys          # update() calls issued
        self.acked = [0] * self.keys           # ... acknowledged
        for key, path in enumerate(self.paths):
            run_all(self.ensemble, ensure_object(
                coords[key % len(coords)], path, self.value(key, 0)))

    def load(self) -> None:
        self.pending: deque = deque()
        self.idle: deque = deque()
        self.bad_reads = 0
        self.env.process(self._generator())
        for coord in self.coords:
            for _slot in range(self.inflight):
                self.env.process(self._executor(coord))

    def _generator(self):
        env, pending, idle, rng = self.env, self.pending, self.idle, self.rng
        while True:
            yield env.timeout(self.next_gap())
            if not self.open_:
                break
            is_read = rng.random() < self.read_fraction
            pending.append((env.now, is_read, self.pick_key(is_read)))
            self.issued += 1
            if len(pending) > self.backlog_max:
                self.backlog_max = len(pending)
            if idle:
                idle.popleft().succeed()
        while idle:                  # window closed: release parked slots
            idle.popleft().succeed()

    def _executor(self, coord):
        env, pending = self.env, self.pending
        while True:
            while not pending:
                if not self.open_:
                    return
                slot = env.event()
                self.idle.append(slot)
                yield slot
            due, is_read, key = pending.popleft()
            path = self.paths[key]
            try:
                if is_read:
                    data = yield from coord.read(path)
                    if not data.startswith(f"{key}:".encode()) \
                            or len(data) != self.object_bytes:
                        self.bad_reads += 1
                    if self.start <= env.now < self.end:
                        self.reads_in_window += 1
                else:
                    self.writes[key] += 1
                    yield from coord.update(
                        path, self.value(key, self.writes[key]))
                    self.acked[key] += 1
            except Exception:      # noqa: BLE001 - any client error is a failed op
                self.record_failed()
                continue
            self.record_ok(due)

    def drain(self) -> None:
        # Ops due in the window finish however long the backlog is; the
        # deadline turns a hung op into a reported failure, not a hang.
        deadline = self.end + 60_000.0
        step = self.drain_ms
        while self.env.now < deadline:
            self.env.run(until=self.env.now + step)
            settled = len(self.latency.samples) + self.failed \
                + self._settled_early
            if settled >= self.issued:
                break

    def check(self) -> None:
        if self.bad_reads:
            raise CheckFailed("read_values",
                              f"{self.bad_reads} reads returned a value "
                              "that was never written to their key")
        if not self.ensemble.trees_consistent():
            raise CheckFailed("replicas_consistent",
                              "live replicas hold different trees")
        # No acknowledged write is lost: each update bumps the version
        # once, and an update that failed or was never answered is in
        # doubt — it may or may not have been applied.
        tree = self.ensemble.leader.tree
        for key, path in enumerate(self.paths):
            _data, stat = tree.get_data(path)
            if not self.acked[key] <= stat.version <= self.writes[key]:
                raise CheckFailed(
                    "no_lost_write",
                    f"{path}: final version {stat.version} outside [acked "
                    f"{self.acked[key]}, acked+in_doubt {self.writes[key]}]")


class ZipfOpen(_OpenLoop):
    """EZK read path: Poisson arrivals, Zipf-hot reads, leases + cache."""

    name = "ezk_zipf_open"
    kind = "ezk"
    clients_modeled = 100_000
    skew = 0.99

    def build(self) -> None:
        self.rng = random.Random(f"ledger-zipf-{self.seed}")
        config = ZkConfig(local_reads=True, leases=LeaseConfig(),
                          obs=self.obs)
        self.ensemble = make_ensemble("ezk", seed=self.seed, config=config,
                                      n_observers=2)
        coords, raw = make_coords(
            self.ensemble, "ezk", self.sessions + 1,
            client_kwargs={"cached_reads": True})
        # §6.2: regular traffic next to a registered extension. One
        # extra, otherwise idle session owns the queue extension; the
        # loaded sessions never acknowledge it, so each of their ops
        # pays the manager's subscription check and nothing else.
        run_all(self.ensemble, ExtensionQueue(coords[-1]).setup(register=True))
        self.coords, self.raw = coords[:-1], raw[:-1]
        self.preload(self.coords)
        self.cdf = _zipf_cdf(self.keys, self.skew)

    def next_gap(self) -> float:
        return self.rng.expovariate(self.rate_per_ms)

    def pick_key(self, is_read: bool) -> int:
        if is_read:
            return min(bisect_right(self.cdf, self.rng.random()),
                       self.keys - 1)
        return self.rng.randrange(self.keys)


class RaftFailoverOpen(_OpenLoop):
    """Plain ZK over Raft; the leader crashes inside the window."""

    name = "zk_raft_failover_open"
    kind = "zk"
    window_ms = 10_000.0
    sessions = 8
    inflight = 16
    keys = 64
    read_fraction = 0.30
    rate_per_ms = 2.0
    crash_at_ms = 3000.0
    crash_for_ms = 2000.0
    fault_free = False

    def build(self) -> None:
        self.rng = random.Random(f"ledger-failover-{self.seed}")
        config = ZkConfig(kernel="raft", raft=RaftConfig(seed=self.seed),
                          obs=self.obs)
        self.ensemble = make_ensemble("zk", seed=self.seed, config=config)
        # Every session attaches to one follower, as most ZooKeeper
        # clients do. Spread over all replicas, the share of sessions
        # that happen to sit on the *new* leader (and so skip the
        # forward hop) would depend on who wins the election, and the
        # p50 would flip between two values from seed to seed.
        self.coords, self.raw = make_coords(
            self.ensemble, "zk", self.sessions,
            replica=self.ensemble.replica_ids[-1],
            client_kwargs={"resilient": True})
        self.preload(self.coords)

    def load(self) -> None:
        super().load()
        # Window-relative fault times scale with a shortened window
        # (the smoke test), keeping the crash and the restart inside it.
        scale = self.window_ms / RaftFailoverOpen.window_ms
        self.crash_at = self.start + self.crash_at_ms * scale
        self.restart_at = self.crash_at + self.crash_for_ms * scale
        schedule = Schedule(
            (FaultAction(at_ms=self.crash_at, kind="crash_leader",
                         duration_ms=self.restart_at - self.crash_at),),
            quiesce_ms=self.end)
        self.nemesis = Nemesis(self.ensemble, schedule)
        self.nemesis.start()
        if self.obs is not None:
            self.env.process(self._time_recovery())

    def _time_recovery(self):
        """``failover_ms``: crash until another replica is established
        leader (Raft commits its barrier no-op first, so that is the
        first commit under the new leadership). ``catchup_ms``: restart
        until the restarted replica's log holds what the others held at
        that instant. Polls public state once per simulated ms, in the
        obs repeat only, where a few extra timer events are harmless."""
        env, ensemble = self.env, self.ensemble
        yield env.timeout(self.crash_at - env.now)
        yield env.timeout(0.001)            # let the nemesis act first
        crashed = next(line for line in self.nemesis.log if " crash " in line)
        victim = ensemble.server(crashed.split()[-1])
        while ensemble.leader in (None, victim):
            yield env.timeout(1.0)
        self.extra["failover_ms"] = env.now - self.crash_at
        yield env.timeout(self.restart_at + 0.001 - env.now)
        target = max(server.broadcast.last_zxid for server in ensemble.servers)
        while victim.broadcast.last_zxid < target:
            yield env.timeout(1.0)
        self.extra["catchup_ms"] = env.now - self.restart_at

    def next_gap(self) -> float:
        return 1.0 / self.rate_per_ms

    def pick_key(self, is_read: bool) -> int:
        return self.rng.randrange(self.keys)

    def check(self) -> None:
        log = self.nemesis.log
        if not any(" crash " in line for line in log) \
                or not any(" restart " in line for line in log):
            raise CheckFailed("fault_injected",
                              f"nemesis log shows no crash+restart: {log}")
        super().check()


WORKLOADS = ("ezk_queue_closed", "ezk_zipf_open", "eds_queue_closed",
             "zk_raft_failover_open")


def make_cell(name: str, seed: int, window_ms: Optional[float] = None,
              obs=None) -> Cell:
    if name == "ezk_queue_closed":
        return QueueClosed(seed, "ezk", name, window_ms=window_ms, obs=obs)
    if name == "eds_queue_closed":
        return QueueClosed(seed, "eds", name, window_ms=window_ms, obs=obs)
    if name == "ezk_zipf_open":
        return ZipfOpen(seed, window_ms=window_ms, obs=obs)
    if name == "zk_raft_failover_open":
        return RaftFailoverOpen(seed, window_ms=window_ms, obs=obs)
    raise ValueError(f"unknown workload {name!r}: expected one of {WORKLOADS}")
