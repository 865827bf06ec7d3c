"""Session churn and watch fan-out storms (zk family).

The classic chaos matrix stresses the *replicas* — crashes, partitions,
message bursts — while a fixed set of long-lived clients works through
a recipe. Storms stress the *session machinery* itself:

* a **session storm** (``churn`` scenario) spawns a wave of short-lived
  clients over the storm window. Each connects, drops an
  ephemeral beat node, then either closes gracefully or goes silent
  (``abandon()``) and keeps probing a shared persistent node until the
  expiry fence answers ``SESSION_EXPIRED`` — a zombie write applied
  *after* its close commits is the exact bug fencing exists to stop;
* a **watch storm** (``watch_storm`` scenario) spawns a fleet of
  watchers of one hot path plus a writer hammering it, so every write
  fans out to every watcher while the overlapped classic fault forces
  reconnects mid-wait (watch re-registration + missed-event synthesis);
* a **lease storm** (``lease_storm`` scenario) spawns a fleet of
  lease-caching readers (``cached_reads=True``) hammering one hot path
  while writers mutate it, under leader crashes and partitions. Every
  write ack and every cache-served read is recorded as a
  ``(kind, time, mzxid)`` observation; the post-run
  :func:`~repro.chaos.checker.check_lease_reads` invariant is the
  protocol's whole claim — no cache hit may return a value older than
  a write acknowledged before the read began. On EZK one writer also
  registers, mid-window, an extension that writes the hot path when it
  consumes an update of another path, writes through it, and
  deregisters it, so the fences meet a changing registry.

:func:`run_session_chaos` is the driver — the session-flavored sibling
of :func:`repro.chaos.explorer.run_chaos`, replayable the same way::

    PYTHONPATH=src python -m repro.chaos --system zk --recipe churn --seed 7

The verdict combines :func:`~repro.chaos.checker.check_session_log`
over the healed leader's committed log (fencing, exactly-once reaping,
no resurrection) with scenario liveness floors (every abandoned session
eventually fenced; watchers actually notified).
"""

from __future__ import annotations

from ..ezk import EzkEnsemble
from ..raft import RaftConfig
from ..zk import (NodeExistsError, NoNodeError, SessionExpiredError,
                  ZkEnsemble, ZkError)
from ..zk.leases import LeaseConfig
from ..zk.server import ZkConfig
from ..zk.txn import MultiTxn, SetDataTxn
from .checker import CheckResult, check_lease_reads, check_session_log
from .explorer import (ChaosRun, _DEADLINE_MARGIN_MS, _SETTLE_MS,
                       _await_consistency, _run_to)
from .history import History
from .nemesis import Nemesis
from .schedule import random_storm_schedule

__all__ = ["SESSION_SCENARIOS", "run_session_chaos",
           "check_committed_sessions", "spawn_session_storm",
           "spawn_watch_storm", "spawn_lease_storm"]

#: scenario names accepted as ``--recipe`` values by ``repro.chaos``.
SESSION_SCENARIOS = ("churn", "watch_storm", "lease_storm")

#: storm-client session timeout: short enough that an abandoned session
#: expires well inside the run, long enough (≫ election timeout) that a
#: fault window alone cannot expire a healthy client.
_CHURN_TIMEOUT_MS = 1500.0
#: persistent node abandoned clients keep writing to probe the fence.
_FENCE_PATH = "/fence-probe"
#: persistent node the watch storm's writer hammers.
_FANOUT_PATH = "/fanout"
#: persistent node lease-caching readers and writers fight over.
_LEASE_PATH = "/lease-hot"
#: path whose updates the EZK lease storm's extension turns into writes
#: of ``_LEASE_PATH`` (the update itself names no leased path).
_LEASE_EXT_PATH = "/lease-bump"
_LEASE_EXT = f'''
class LeaseBump(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("update",), "{_LEASE_EXT_PATH}")]

    def handle_operation(self, request, local):
        local.update("{_LEASE_PATH}", request.data)
        return "bumped"
'''
#: lease knobs for the storm: the defaults are short enough that grants,
#: revokes and expiries all recur many times per window.
_STORM_LEASES = LeaseConfig()
#: how long a zombie may keep probing before the run calls it lost
#: (covers a pause/rebase-delayed expiry plus the fault window).
_ZOMBIE_PATIENCE_MS = 30_000.0


# ---------------------------------------------------------------------------
# storm client processes (spawned by the nemesis)
# ---------------------------------------------------------------------------


def spawn_session_storm(nemesis: Nemesis, action, storm_id: int) -> list:
    env = nemesis.env
    return [env.process(_churn_client(nemesis, action, storm_id, i))
            for i in range(action.count)]


def spawn_watch_storm(nemesis: Nemesis, action, storm_id: int) -> list:
    env = nemesis.env
    procs = [env.process(_fanout_writer(nemesis, action, storm_id))]
    procs += [env.process(_watcher(nemesis, action, storm_id, i))
              for i in range(action.count)]
    return procs


def spawn_lease_storm(nemesis: Nemesis, action, storm_id: int) -> list:
    env = nemesis.env
    procs = [env.process(_lease_writer(nemesis, action, storm_id, w))
             for w in range(2)]
    procs += [env.process(_lease_reader(nemesis, action, storm_id, i))
              for i in range(action.count)]
    return procs


def _churn_client(nemesis: Nemesis, action, storm_id: int, i: int):
    env, stats = nemesis.env, nemesis.storm_stats
    # Stagger connects across the window: an instantaneous thundering
    # herd would miss the overlapped fault entirely.
    yield env.timeout(action.duration_ms * i / max(1, action.count))
    client = nemesis.ensemble.client(
        node_id=f"churn{storm_id}x{i}",
        session_timeout_ms=_CHURN_TIMEOUT_MS)
    try:
        yield from client.connect()
    except ZkError:
        return
    stats["churn_connects"] += 1
    try:
        yield from client.create(f"/churn{storm_id}x{i}", b"live",
                                 ephemeral=True)
    except ZkError:
        pass
    if i % 2 == 0:
        try:
            yield from client.close()
            stats["churn_closed"] += 1
        except ZkError:
            pass
        return
    # Silent half: liveness signal dies, in-flight traffic does not.
    client.abandon()
    stats["churn_abandoned"] += 1
    yield env.timeout(2.0 * _CHURN_TIMEOUT_MS)
    deadline = env.now + _ZOMBIE_PATIENCE_MS
    while env.now < deadline:
        try:
            # Writes before the leader expires the session are legal
            # (it is merely silent, not closed); what must never happen
            # is one applied after the close commits — the log checker
            # would catch it, and the fence must eventually answer.
            yield from client.set_data(
                _FENCE_PATH, f"zombie{storm_id}x{i}".encode())
            stats["zombie_applied"] += 1
        except SessionExpiredError:
            stats["zombie_fenced"] += 1
            return
        except ZkError:
            pass
        # Probe *slower* than the session timeout: an applied probe is
        # a legitimate liveness touch (requests reset the timeout, as
        # in ZooKeeper), so a faster cadence could keep the session
        # alive indefinitely when an election rebases its deadline past
        # the probe start. Spaced wider than the timeout, the session
        # must expire between probes and the fence must answer.
        yield env.timeout(2.0 * _CHURN_TIMEOUT_MS)
    stats["zombie_lost"] += 1


def _fanout_writer(nemesis: Nemesis, action, storm_id: int):
    env = nemesis.env
    client = nemesis.ensemble.client(
        node_id=f"fanwriter{storm_id}", session_timeout_ms=8000.0)
    try:
        yield from client.connect()
    except ZkError:
        return
    end = env.now + action.duration_ms
    beat = max(20.0, action.duration_ms / 24.0)
    k = 0
    while env.now < end:
        try:
            yield from client.set_data(_FANOUT_PATH,
                                       f"s{storm_id}:{k}".encode())
        except ZkError:
            pass
        k += 1
        yield env.timeout(beat)
    try:
        yield from client.close()
    except ZkError:
        pass


def _watcher(nemesis: Nemesis, action, storm_id: int, i: int):
    env, stats = nemesis.env, nemesis.storm_stats
    client = nemesis.ensemble.client(
        node_id=f"fanwatch{storm_id}x{i}", session_timeout_ms=8000.0)
    try:
        yield from client.connect()
    except ZkError:
        return
    # Watch past the window's end: notifications for the writer's last
    # beats (and synthesized missed events) arrive during the fault's
    # heal, which is precisely the reconnect path under test.
    end = env.now + action.duration_ms + 1000.0
    notified = 0
    while env.now < end:
        waiter = client.wait_for_event(_FANOUT_PATH)
        try:
            yield from client.get_data(_FANOUT_PATH, watch=True)
        except ZkError:
            client.discard_waiter(_FANOUT_PATH, waiter)
            if client.state.value in ("EXPIRED", "CLOSED"):
                break
            yield env.timeout(200.0)
            continue
        note = yield from client.await_notification(
            _FANOUT_PATH, waiter,
            deadline=env.timeout(max(1.0, end - env.now)))
        client.discard_waiter(_FANOUT_PATH, waiter)
        if note is None:
            break
        notified += 1
        stats["watch_notifications"] += 1
    if notified:
        stats["watchers_served"] += 1
    try:
        yield from client.close()
    except ZkError:
        pass


def _lease_writer(nemesis: Nemesis, action, storm_id: int, w: int):
    env, stats = nemesis.env, nemesis.storm_stats
    beat = max(30.0, action.duration_ms / 16.0)
    yield env.timeout(w * beat / 2.0)
    client = nemesis.ensemble.client(
        node_id=f"leasew{storm_id}x{w}", session_timeout_ms=8000.0)
    try:
        yield from client.connect()
    except ZkError:
        return
    # On EZK, writer 0 changes the registry under the readers' leases:
    # it registers an extension that writes the hot path mid-window,
    # writes through it on odd beats, and deregisters it later.
    registry = (_LeaseRegistry(client, storm_id)
                if w == 0 and isinstance(nemesis.ensemble, EzkEnsemble)
                else None)
    end = env.now + action.duration_ms
    k = 0
    while env.now < end:
        data = f"s{storm_id}w{w}:{k}".encode()
        try:
            if registry is not None:
                yield from registry.step(k)
            if registry is not None and registry.live and k % 2:
                yield from client.set_data(_LEASE_EXT_PATH, data)
                # The writer sees only the extension's result: the
                # mzxid is read back from the committed log by the data
                # (see _resolve_ext_writes).
                stats["lease_ext_acks"].append((env.now, data))
            else:
                stat = yield from client.set_data(_LEASE_PATH, data)
                # Record the *ack*: only once set_data returns is the
                # write committed-and-visible by the lease contract
                # (every cached copy revoked or expired). An errored
                # write is in-doubt and constrains nothing.
                stats["lease_events"].append(("write", env.now, stat.mzxid))
            stats["lease_writes"] += 1
        except ZkError:
            if client.state.value in ("EXPIRED", "CLOSED"):
                return
        k += 1
        yield env.timeout(beat)
    try:
        yield from client.close()
    except ZkError:
        pass


class _LeaseRegistry:
    """The EZK lease storm's extension, registered by one writer from
    beat ``REGISTER_AT`` and deregistered at beat ``DEREGISTER_AT``."""

    REGISTER_AT, DEREGISTER_AT = 4, 12

    def __init__(self, client, storm_id: int):
        self.client = client
        self.name = f"lease-bump{storm_id}"
        self.live = False
        self.done = False

    def step(self, k: int):
        """Advance the lifecycle; an in-doubt attempt is retried next beat."""
        if not self.live and not self.done and k >= self.REGISTER_AT:
            try:
                yield from self.client.register_extension(self.name,
                                                          _LEASE_EXT)
            except NodeExistsError:
                pass                # an earlier in-doubt attempt landed
            self.live = True
        elif self.live and k >= self.DEREGISTER_AT:
            try:
                yield from self.client.deregister_extension(self.name)
            except NoNodeError:
                pass                # an earlier in-doubt attempt landed
            self.live = False
            self.done = True


def _lease_reader(nemesis: Nemesis, action, storm_id: int, i: int):
    env, stats = nemesis.env, nemesis.storm_stats
    # Stagger starts across the first half of the window so every
    # reader still overlaps the classic fault and the writers.
    yield env.timeout(action.duration_ms * i / max(1, 2 * action.count))
    client = nemesis.ensemble.client(
        node_id=f"leaser{storm_id}x{i}", session_timeout_ms=8000.0,
        cached_reads=True)
    try:
        yield from client.connect()
    except ZkError:
        return
    end = env.now + action.duration_ms
    while env.now < end:
        hits_before = client._cache.stats["hits"]
        started = env.now
        try:
            _data, stat = yield from client.get_data(_LEASE_PATH)
        except ZkError:
            if client.state.value in ("EXPIRED", "CLOSED"):
                break
            yield env.timeout(100.0)
            continue
        stats["lease_reads"] += 1
        if client._cache.stats["hits"] > hits_before:
            # Only cache-served reads feed the invariant: a miss falls
            # back to the plain (session-monotonic, not linearizable)
            # read path, whose staleness is ordinary ZooKeeper
            # semantics, not a lease bug.
            stats["lease_events"].append(("read", started, stat.mzxid))
        yield env.timeout(10.0)
    stats["lease_cache_hits"] += client._cache.stats["hits"]
    try:
        yield from client.close()
    except ZkError:
        pass


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_session_chaos(system: str, scenario: str, seed: int,
                      kernel: str = None, obs=None):
    """One storm cell: scenario × system × seeded storm schedule.

    ``kernel`` adds the consensus-kernel axis (``"raft"`` runs the same
    storm over the Raft backend; ``None`` keeps Zab). ``obs`` traces
    the replay (see :func:`repro.chaos.explorer.run_chaos`).
    """
    if scenario not in SESSION_SCENARIOS:
        raise ValueError(f"unknown storm scenario {scenario!r}")
    if system not in ("zk", "ezk"):
        raise ValueError(f"session storms require the zk family, "
                         f"not {system!r}")
    schedule = random_storm_schedule(seed, scenario)
    repro = (f"PYTHONPATH=src python -m repro.chaos "
             f"--system {system} --recipe {scenario} --seed {seed}")
    if kernel is not None:
        # Historical (pre-kernel-axis) repro lines stay byte-identical.
        repro += f" --kernel {kernel}"

    cls = ZkEnsemble if system == "zk" else EzkEnsemble
    # Leases only in the lease scenario: churn/watch runs must replay
    # byte-identically against their historical (system, seed) cells.
    leases = _STORM_LEASES if scenario == "lease_storm" else None
    config = ZkConfig(local_reads=True, leases=leases, obs=obs)
    if kernel is not None and kernel != "zab":
        config.kernel = kernel
        config.raft = RaftConfig(seed=seed)
    ensemble = cls(n_replicas=3, seed=seed, config=config,
                   n_observers=1)
    ensemble.start()
    env = ensemble.env
    base = [ensemble.client(session_timeout_ms=8000.0)
            for _ in range(2)]

    def setup():
        for client in base:
            yield from client.connect()
        yield from base[0].create(_FENCE_PATH, b"v0")
        yield from base[0].create(_FANOUT_PATH, b"v0")
        if scenario == "lease_storm":
            yield from base[0].create(_LEASE_PATH, b"v0")

    env.run(until=env.process(setup()))

    nemesis = Nemesis(ensemble, schedule, clients=base)
    nemesis.start()
    # Base load across the span keeps ordinary traffic flowing through
    # every storm — fencing must reject zombies *without* collateral
    # damage to healthy sessions.
    workers = [env.process(_base_worker(base[i], i, schedule.quiesce_ms))
               for i in range(len(base))]
    deadline = schedule.quiesce_ms + _DEADLINE_MARGIN_MS

    def verdict(result: CheckResult) -> ChaosRun:
        return ChaosRun(system, scenario, seed, schedule, History(),
                        result, nemesis.log, repro, kernel=kernel)

    if not _run_to(env, env.all_of(workers), deadline):
        return verdict(CheckResult(
            False, f"liveness: base workers stuck at t={env.now:g}ms"))
    if nemesis.storm_procs:
        if not _run_to(env, env.all_of(nemesis.storm_procs),
                       env.now + _DEADLINE_MARGIN_MS):
            return verdict(CheckResult(
                False, f"liveness: storm clients stuck at t={env.now:g}ms"))
    env.run(until=env.now + _SETTLE_MS)

    def teardown():
        for client in base:
            try:
                yield from client.close()
            except ZkError:
                pass

    if not _run_to(env, env.process(teardown()),
                   env.now + _DEADLINE_MARGIN_MS):
        return verdict(CheckResult(False, "liveness: teardown stuck"))
    if not _await_consistency(ensemble):
        return verdict(CheckResult(False, "replicas diverged after heal"))

    result = check_committed_sessions(ensemble)
    if result.ok:
        _resolve_ext_writes(ensemble, nemesis.storm_stats)
        result = _check_storm_liveness(scenario, nemesis.storm_stats)
    return verdict(result)


def _resolve_ext_writes(ensemble, stats: dict) -> None:
    """Add each acked extension write to the lease observations with
    the mzxid its multi-txn gave ``_LEASE_PATH``, found in the committed
    log by the (unique) data it wrote. An acked write is committed, so
    a miss raises."""
    acks = stats["lease_ext_acks"]
    if not acks:
        return
    broadcast = ensemble.leader.broadcast
    mzxids = {}
    for record in broadcast.log:
        if record.zxid > broadcast.committed_zxid:
            break
        if record.txn.__class__ is MultiTxn:
            for sub in record.txn.txns:
                if sub.__class__ is SetDataTxn and sub.path == _LEASE_PATH:
                    mzxids[sub.data] = record.zxid
    stats["lease_events"].extend(("write", at, mzxids[data])
                                 for at, data in acks)


def check_committed_sessions(ensemble) -> CheckResult:
    """:func:`check_session_log` over a healed ensemble's committed log."""
    leader = ensemble.leader
    if leader is None:
        return CheckResult(False, "no leader after quiesce")
    committed = [r for r in leader.broadcast.log
                 if r.zxid <= leader.broadcast.committed_zxid]
    owners = {
        server.node_id: set(server.tree._ephemerals)
        for server in ensemble.servers if server._alive
    }
    return check_session_log(committed, owners, set(leader.sessions.ids()))


def _base_worker(client, i: int, span_ms: float):
    env = client.env
    ops = 12
    gap = span_ms / ops
    yield env.timeout(gap * i / 2.0)
    for k in range(ops):
        try:
            yield from client.set_data(_FENCE_PATH, f"base{i}:{k}".encode())
            yield from client.get_data(_FENCE_PATH)
        except ZkError:
            pass
        yield env.timeout(gap)


def _check_storm_liveness(scenario: str, stats: dict) -> CheckResult:
    """Scenario floors: the storm must have actually exercised the path."""
    if scenario == "lease_storm":
        # Safety first: no cache hit served a value older than a write
        # acknowledged before the read began.
        result = check_lease_reads(stats["lease_events"])
        if not result.ok:
            return result
        if not stats["lease_writes"]:
            return CheckResult(False, "lease storm: no write ever acked")
        if not stats["lease_cache_hits"]:
            return CheckResult(False, "lease storm: no read was ever "
                                      "served from cache")
        return CheckResult(True)
    if scenario == "churn":
        if not stats["churn_connects"]:
            return CheckResult(False, "churn storm: no session ever "
                                      "connected")
        if stats["zombie_fenced"] != stats["churn_abandoned"]:
            return CheckResult(
                False, f"expiry fence never answered: "
                       f"{stats['zombie_fenced']} fenced of "
                       f"{stats['churn_abandoned']} abandoned "
                       f"({stats['zombie_lost']} lost)")
        return CheckResult(True)
    if not stats["watch_notifications"]:
        return CheckResult(False, "watch storm: no watcher was ever "
                                  "notified")
    return CheckResult(True)
