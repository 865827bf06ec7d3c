"""Read leases under extensions: fences that follow what an extension
can actually write (DESIGN §11, "Leases under extensions").

Every case gives a ``cached_reads`` reader a lease on ``/p`` and then
changes ``/p`` by a route the request itself does not name. The reader
must never serve the old value past that change, and a reader whose
reads an extension consumes must reach the extension. The commit fence
reads the txn an extension produced, so a consumed op is fenced on the
paths it really writes. Each remaining rule has a case named after it:

* R1 — ``/em`` registry writes fence every lease;
* R2 — no grant while a registry txn is in flight, nor one for a read
  an extension consumes;
* R4 — no grant while an event extension is registered.

Plain EZK writes, on the other hand, fence only their own paths. Every
case runs over Zab, and again over Raft as ``TestOverRaft::<case>``.
"""

from __future__ import annotations

import pytest

from repro.ezk import EzkEnsemble
from repro.obs import ObsConfig
from repro.zk.leases import (CACHE_MISS, LeaseConfig, LeaseRequest,
                             LeaseRevokeAck)
from repro.zk.server import ZkConfig

#: consumes the reads of /trigger and rewrites /p.
POKE_EXT = '''
class Poke(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/trigger")]

    def handle_operation(self, request, local):
        local.update("/p", b"new")
        return "poked"
'''

#: runs on every data change of /trigger and rewrites /p.
RELAY_EXT = '''
class Relay(Extension):
    def event_subscriptions(self):
        return [EventSubscription(("changed",), "/trigger")]

    def handle_event(self, event, local):
        local.update("/p", b"new")
'''

#: consumes the updates of /q and writes their data to /p instead.
REDIRECT_EXT = '''
class Redirect(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("update",), "/q")]

    def handle_operation(self, request, local):
        local.update("/p", request.data)
        return "redirected"
'''

#: consumes the reads of /p itself.
READ_P_EXT = '''
class ReadP(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/p")]

    def handle_operation(self, request, local):
        return b"from-extension"
'''


@pytest.fixture
def kernel():
    """The consensus kernel under the module-level cases: Zab. Every
    case runs again over Raft in :class:`TestOverRaft`."""
    return "zab"


def make_ensemble(kernel, obs=None):
    ens = EzkEnsemble(n_replicas=3, seed=1, config=ZkConfig(
        kernel=kernel, local_reads=True, leases=LeaseConfig(), obs=obs))
    ens.start()
    return ens


def run(ens, *generators):
    procs = [ens.env.process(gen) for gen in generators]
    return [ens.env.run(until=proc) for proc in procs]


def connected(ens, **kwargs):
    client = ens.client(**kwargs)

    def go():
        yield from client.connect()
        return client

    return run(ens, go())[0]


def run_until(ens, predicate, step_ms=1.0, limit_ms=2000.0):
    env = ens.env
    deadline = env.now + limit_ms
    while not predicate() and env.now < deadline:
        env.run(until=env.now + step_ms)
    assert predicate(), f"condition never held by t={env.now:g}ms"


def cached(client, path):
    return client._cache.data(path, client.env.now) is not CACHE_MISS


def heat_up(client, *paths):
    """Read each path enough times to earn a lease on it."""
    for path in paths:
        for _ in range(3):
            yield from client.get_data(path)


def everywhere(ens, path, data):
    """True once every replica has applied ``path`` = ``data``."""
    return lambda: all(server.tree.get_data(path)[0] == data
                       for server in ens.servers)


def setup(ens, source, name, *paths):
    """Owner registers ``source``; every path starts as ``b"old"``."""
    owner = connected(ens)

    def go():
        for path in paths:
            yield from owner.create(path, b"old")
        yield from owner.register_extension(name, source)

    run(ens, go())
    return owner


def test_plain_write_leaves_other_leases_alive(kernel):
    # §6.2: a registered extension costs regular clients nothing. A
    # write no extension consumes fences its own path and no other.
    ens = make_ensemble(kernel)
    setup(ens, POKE_EXT, "poke", "/p", "/q")
    reader = connected(ens, cached_reads=True)
    writer = connected(ens)
    run(ens, heat_up(reader, "/p"))
    assert cached(reader, "/p")
    run(ens, writer.set_data("/q", b"new"))
    assert cached(reader, "/p")
    assert reader._cache.stats["revokes"] == 0


def test_r1_consumed_read_fences_every_lease(kernel):
    # (a) An acknowledged extension, triggered by a read of /trigger,
    # rewrites /p: the read names no path, but the txn it becomes
    # writes /p, so /p's lease is revoked before that txn commits.
    ens = make_ensemble(kernel)
    setup(ens, POKE_EXT, "poke", "/p")
    reader = connected(ens, cached_reads=True)
    writer = connected(ens)
    run(ens, writer.acknowledge_extension("poke"))
    run(ens, heat_up(reader, "/p"))
    assert cached(reader, "/p")
    manager = ens.binding(ens.leader.node_id).manager
    executions = manager.executions
    assert run(ens, writer.get_data("/trigger"))[0] == "poked"
    # Fenced at propose, the extension runs once.
    assert manager.executions == executions + 1
    run_until(ens, everywhere(ens, "/p", b"new"))
    data, _stat = run(ens, reader.get_data("/p"))[0]
    assert data == b"new"


def test_r1_registry_write_fences_every_lease(kernel):
    # (d) The reader acknowledges an extension that consumes its reads
    # of a path it has cached: its next read must reach the extension.
    ens = make_ensemble(kernel)
    setup(ens, READ_P_EXT, "readp", "/p")
    reader = connected(ens, cached_reads=True)
    run(ens, heat_up(reader, "/p"))
    assert cached(reader, "/p")
    run(ens, reader.acknowledge_extension("readp"))
    assert run(ens, reader.get_data("/p"))[0] == b"from-extension"


@pytest.mark.parametrize("delay_ms,reason", [(0.05, "registry"),
                                              (0.3, "consumed")])
def test_r2_no_grant_for_a_read_the_registry_is_taking_over(kernel,
                                                             delay_ms,
                                                             reason):
    # The reader's lease-earning read races its own acknowledgement. A
    # delay rule lands the grant request at the leader either while the
    # ack is proposed but not applied there (the registry is about to
    # change), or just after (the registry says an extension consumes
    # this reader's reads of /p). Either grant would leave the reader
    # serving /p from its cache after the ack returned.
    ens = make_ensemble(kernel, obs=ObsConfig(trace=False))
    setup(ens, READ_P_EXT, "readp", "/p")
    reader = connected(ens, replica="ezk1", cached_reads=True)
    run(ens, reader.get_data("/p"))           # first read: heat, no lease
    ens.net.add_delay_rule(delay_ms, msg_types=[LeaseRequest])
    run(ens, reader.get_data("/p"), reader.acknowledge_extension("readp"))
    assert run(ens, reader.get_data("/p"))[0] == b"from-extension"
    metrics = ens.env.obs.metrics
    assert metrics.total("leases.denied." + reason) == 1


def test_rewritten_write_commit_waits_for_the_revoke(kernel):
    # (c) The writer's update of /q is rewritten by an extension into a
    # write of /p. The commit fence reads the txn the extension
    # produced, so it holds that commit until the reader's /p lease is
    # revoked (the ack is delayed), and leaves the /q lease the update
    # named, but does not write, alone.
    ens = make_ensemble(kernel)
    setup(ens, REDIRECT_EXT, "redirect", "/p", "/q")
    reader = connected(ens, cached_reads=True)
    writer = connected(ens)
    run(ens, writer.acknowledge_extension("redirect"))
    run(ens, heat_up(reader, "/p", "/q"))
    assert cached(reader, "/p") and cached(reader, "/q")
    p_lease = reader._cache.entries["/p"].lease_id
    env = ens.env
    ens.net.add_delay_rule(20.0, msg_types=[LeaseRevokeAck],
                           src=reader.node_id)
    update = env.process(writer.set_data("/q", b"new"))
    env.run(until=env.now + 5.0)
    leader = ens.leader
    gates = leader.leases.table.gates
    assert [gate.waiting for gate in gates] == [{p_lease}]
    held = gates[0]
    # The rewrite replicated; only its commit waits.
    assert all(server.broadcast.last_zxid >= held.zxid
               for server in ens.servers)
    assert leader.broadcast.committed_zxid < held.zxid
    stale = []
    while not update.triggered:
        if cached(reader, "/p") and any(
                server.tree.get_data("/p")[0] == b"new"
                for server in ens.servers):
            stale.append(env.now)
        env.run(until=env.now + 0.05)
    assert update.value == "redirected"
    assert not stale, stale
    assert env.now - held.held_at >= 20.0
    assert cached(reader, "/q")
    run_until(ens, everywhere(ens, "/p", b"new"))
    data, _stat = run(ens, reader.get_data("/p"))[0]
    assert data == b"new"


def test_r4_no_grant_while_an_event_extension_is_registered(kernel):
    # (b) An event extension rewrites /p when /trigger changes; the
    # triggering write is a plain set_data that names /trigger only,
    # and the extension's own write commits without passing the gate.
    ens = make_ensemble(kernel, obs=ObsConfig(trace=False))
    owner = setup(ens, RELAY_EXT, "relay", "/p", "/trigger")
    reader = connected(ens, cached_reads=True)
    run(ens, heat_up(reader, "/p"))
    run(ens, owner.set_data("/trigger", b"go"))
    run_until(ens, everywhere(ens, "/p", b"new"))
    data, _stat = run(ens, reader.get_data("/p"))[0]
    assert data == b"new"
    assert ens.env.obs.metrics.total("leases.denied.events") > 0


def mixed_run(kernel, obs):
    """Cached readers of /p and /q beside a writer that updates /p and
    triggers an extension that rewrites it."""
    ens = make_ensemble(kernel, obs=obs)
    owner = setup(ens, POKE_EXT, "poke", "/p", "/q")
    # One reader on each replica and one more on a follower: the
    # leader's own reader meets the in-flight fence; the followers'
    # readers also meet their lag behind the leader (moved).
    readers = [connected(ens, replica=replica, cached_reads=True)
               for replica in ens.replica_ids + ens.replica_ids[1:2]]
    env = ens.env

    def reads(client):
        for _ in range(60):
            for path in ("/p", "/q"):
                yield from client.get_data(path)
            yield env.timeout(2.0)

    def writes():
        for k in range(20):
            yield from owner.set_data("/p", b"v%d" % k)
            yield from owner.get_data("/trigger")
            yield env.timeout(5.0)

    run(ens, writes(), *[reads(client) for client in readers])
    return ens, readers


def test_denial_counters_leave_the_run_unchanged(kernel):
    plain, plain_readers = mixed_run(kernel, obs=None)
    observed, observed_readers = mixed_run(kernel, obs=ObsConfig(
        trace=False))
    assert observed.env.now == plain.env.now
    assert observed.env.events_processed == plain.env.events_processed
    assert ([r._cache.stats for r in observed_readers]
            == [r._cache.stats for r in plain_readers])


def test_denial_reasons_sum_to_the_total(kernel):
    ens, _readers = mixed_run(kernel, obs=ObsConfig(trace=False))
    counters = ens.env.obs.metrics.counters
    total = sum(value for (name, _node), value in counters.items()
                if name == "leases.denied")
    by_reason = {}
    for (name, _node), value in counters.items():
        if name.startswith("leases.denied."):
            reason = name[len("leases.denied."):]
            by_reason[reason] = by_reason.get(reason, 0) + value
    assert total > 0
    assert sum(by_reason.values()) == total
    assert len(by_reason) >= 2, by_reason


class TestOverRaft:
    """Every case of this module, over Raft.

    The commit fence, the inherited hold and the grant rules all sit
    behind the kernel-neutral broadcast contract, so each rule must
    hold over both kernels. Only the ``kernel`` fixture differs; the
    cases are attached below, so one added above runs here as well.
    """

    @pytest.fixture
    def kernel(self):
        return "raft"


for _name, _case in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestOverRaft, _name, staticmethod(_case))
