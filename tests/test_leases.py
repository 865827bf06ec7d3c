"""Lease-protected client caching: grants, revocation, races, fencing.

Unit-tests the passive bookkeeping (LeaseTable, ClientReadCache) and
then drives the full protocol end-to-end: sub-RTT cache hits, writes
blocking on revocation with no stale read past a committed write, the
sync() cache bypass, leader failover mid-lease (epoch fence), dead
lease holders (gate deadline), and expiry-sweep close gating when the
dying session's ephemeral is leased. The last three cases run over both
consensus kernels: a dark leader's grant timeout, a gated update whose
leader crashes, and a follower relaying its client's sync release.
"""

from __future__ import annotations

import pytest

from repro.zk import NoNodeError, Stat, ZkEnsemble
from repro.zk.client import _DEFAULT_TIMEOUT_MS
from repro.zk.leases import (CACHE_MISS, ClientReadCache, LeaseConfig,
                             LeaseRequest, LeaseRevoke, LeaseTable)
from repro.zk.server import ZkConfig

LEASES = LeaseConfig()
KERNELS = ["zab", "raft"]


def make_ensemble(kernel="zab"):
    ens = ZkEnsemble(n_replicas=3, seed=1,
                     config=ZkConfig(kernel=kernel, leases=LEASES))
    ens.start()
    return ens


@pytest.fixture
def ensemble():
    return make_ensemble()


def run(ensemble, *generators):
    procs = [ensemble.env.process(gen) for gen in generators]
    results = []
    for proc in procs:
        results.append(ensemble.env.run(until=proc))
    return results


def connected_client(ensemble, **kwargs):
    client = ensemble.client(**kwargs)

    def _connect():
        yield from client.connect()
        return client

    return run(ensemble, _connect())[0]


def run_until(ensemble, predicate, step_ms=50.0, limit_ms=15_000.0):
    env = ensemble.env
    deadline = env.now + limit_ms
    while not predicate() and env.now < deadline:
        env.run(until=env.now + step_ms)
    assert predicate(), f"condition never held by t={env.now:g}ms"


# ---------------------------------------------------------------------------
# unit: LeaseTable
# ---------------------------------------------------------------------------


def test_lease_config_validates():
    with pytest.raises(ValueError):
        LeaseConfig(duration_ms=0.0).validate()
    with pytest.raises(ValueError):
        LeaseConfig(grace_ms=-1.0).validate()
    LEASES.validate()


def test_grant_denied_while_write_pending():
    table = LeaseTable(LEASES)
    table.acquire_pending(("/k",))
    assert table.grant("/k", session_id=1, client_node="c", now=0.0) is None
    table.release_pending(("/k",))
    assert table.grant("/k", session_id=1, client_node="c", now=0.0)


def test_active_on_prunes_past_grace():
    table = LeaseTable(LEASES)
    lease = table.grant("/k", session_id=1, client_node="c", now=0.0)
    assert table.active_on(("/k",), now=lease.expires_at) == [lease]
    # still within grace: the holder's clock may lag ours
    assert table.active_on(
        ("/k",), now=lease.expires_at + LEASES.grace_ms - 0.01) == [lease]
    # writers resume at expiry + grace exactly
    assert table.active_on(
        ("/k",), now=lease.expires_at + LEASES.grace_ms) == []


def test_reset_for_leadership_fences_recovery():
    table = LeaseTable(LEASES)
    table.grant("/k", session_id=1, client_node="c", now=0.0)
    table.reset_for_leadership(epoch=2, now=100.0, fence=True)
    assert table.leases == {}
    assert table.recovery_until == 100.0 + LEASES.duration_ms + LEASES.grace_ms
    # epoch-scoped ids can never collide across leaderships
    lease = table.grant("/k", session_id=1, client_node="c", now=600.0)
    assert lease.lease_id >= 2_000_000


# ---------------------------------------------------------------------------
# unit: ClientReadCache
# ---------------------------------------------------------------------------


class FakeLeased:
    def __init__(self, lease_id, expires_at):
        self.lease_id = lease_id
        self.lease_expires_at = expires_at
        self.zxid = 1


def test_cache_serves_strictly_before_expiry():
    cache = ClientReadCache()
    stat = Stat()
    cache.install("/k", (b"v", stat), FakeLeased(1, 100.0), now=0.0)
    assert cache.data("/k", now=99.99) == (b"v", stat)
    assert cache.data("/k", now=100.0) is CACHE_MISS


def test_cache_revoked_ring_discards_late_grant():
    # The revoke won the race against the grant's reply: installing
    # that lease afterwards must be a no-op.
    cache = ClientReadCache()
    cache.revoke("/k", lease_id=7)
    cache.install("/k", (b"v", Stat()), FakeLeased(7, 100.0), now=0.0)
    assert cache.data("/k", now=1.0) is CACHE_MISS


def test_cache_drop_all_reports_lease_ids():
    cache = ClientReadCache()
    cache.install("/a", (b"v", Stat()), FakeLeased(3, 100.0), now=0.0)
    cache.install("/b", (b"v", Stat()), FakeLeased(5, 100.0), now=0.0)
    assert cache.drop_all() == [3, 5]
    assert cache.data("/a", now=1.0) is CACHE_MISS


# ---------------------------------------------------------------------------
# end-to-end: hits, revocation, sync bypass
# ---------------------------------------------------------------------------


def heat_up(client, path, n=3):
    """Read ``path`` enough times to earn a lease on the last read."""
    for _ in range(n):
        yield from client.get_data(path)


def test_cached_read_hits_at_sub_rtt(ensemble):
    client = connected_client(ensemble, cached_reads=True)
    env = ensemble.env
    latencies = {}

    def scenario():
        yield from client.create("/hot", b"v1")
        yield from heat_up(client, "/hot")
        t0 = env.now
        data, _stat = yield from client.get_data("/hot")
        latencies["hit"] = env.now - t0
        assert data == b"v1"

    run(ensemble, scenario())
    assert client._cache.stats["hits"] >= 1
    assert latencies["hit"] < 0.01          # sub-RTT: no network round


def test_follower_connected_client_gets_lease(ensemble):
    # Grants are leader-mediated: the follower parks the reply and
    # round-trips a LeaseRequest before attaching the lease.
    client = connected_client(ensemble, replica="zk1", cached_reads=True)

    def scenario():
        yield from client.create("/hot", b"v1")
        yield from heat_up(client, "/hot")
        data, _stat = yield from client.get_data("/hot")
        assert data == b"v1"

    run(ensemble, scenario())
    assert client._cache.stats["hits"] >= 1


def test_no_stale_read_past_committed_write(ensemble):
    reader = connected_client(ensemble, cached_reads=True)
    writer = connected_client(ensemble, replica="zk1")

    def scenario():
        yield from writer.create("/hot", b"old")
        yield from heat_up(reader, "/hot")
        assert reader._cache.data("/hot", ensemble.env.now) is not CACHE_MISS
        # The write blocks until the reader's lease is revoked; once it
        # returns, the reader must observe the new value.
        yield from writer.set_data("/hot", b"new")
        data, _stat = yield from reader.get_data("/hot")
        assert data == b"new"

    run(ensemble, scenario())
    assert reader._cache.stats["revokes"] >= 1


def test_sync_bypasses_cache_unconditionally(ensemble):
    client = connected_client(ensemble, cached_reads=True)

    def scenario():
        yield from client.create("/hot", b"v1")
        yield from heat_up(client, "/hot")
        hits_before = client._cache.stats["hits"]
        yield from client.get_data("/hot")
        assert client._cache.stats["hits"] == hits_before + 1
        # sync() is the linearization point clients reach for when
        # they need to see the latest state: it must drop every cached
        # entry so the next read round-trips even with no write around.
        yield from client.sync()
        misses_before = client._cache.stats["misses"]
        yield from client.get_data("/hot")
        assert client._cache.stats["misses"] == misses_before + 1

    run(ensemble, scenario())


# ---------------------------------------------------------------------------
# end-to-end: races
# ---------------------------------------------------------------------------


def test_leader_failover_mid_lease(ensemble):
    # zk0 leads at bootstrap; connect the lease holder elsewhere so it
    # survives the crash.
    reader = connected_client(ensemble, replica="zk1", cached_reads=True)
    writer = connected_client(ensemble, replica="zk2")
    env = ensemble.env

    def setup():
        yield from writer.create("/hot", b"old")
        yield from heat_up(reader, "/hot")
        assert reader._cache.data("/hot", env.now) is not CACHE_MISS

    run(ensemble, setup())
    ensemble.server("zk0").crash()
    run_until(ensemble, lambda: ensemble.leader is not None
              and ensemble.leader.node_id != "zk0")
    # The new leader lost the lease table; the epoch fence holds all
    # writes for a full lease duration + grace, so the orphan lease
    # expires before any post-failover write can commit.
    recovery = ensemble.leader.leases.table.recovery_until
    assert recovery > env.now

    def after():
        yield from writer.set_data("/hot", b"new")
        assert env.now >= recovery
        data, _stat = yield from reader.get_data("/hot")
        assert data == b"new"

    run(ensemble, after())


def test_dead_lease_holder_does_not_block_writes_forever(ensemble):
    reader = connected_client(ensemble, cached_reads=True)
    writer = connected_client(ensemble, replica="zk1")
    env = ensemble.env

    def setup():
        yield from writer.create("/hot", b"old")
        yield from heat_up(reader, "/hot")

    run(ensemble, setup())
    # The holder vanishes: revokes go unanswered, so the write gate
    # must fall through at lease expiry + grace, not wait on the ack.
    ensemble.net.crash(reader.node_id)
    t0 = env.now
    durations = {}

    def write():
        yield from writer.set_data("/hot", b"new")
        durations["write"] = env.now - t0

    run(ensemble, write())
    assert durations["write"] <= LEASES.duration_ms + LEASES.grace_ms + 50.0
    leader = ensemble.leader
    assert leader.tree.get_data("/hot")[0] == b"new"


def test_expiry_close_gated_on_leased_ephemeral(ensemble):
    # The dying session's ephemeral is leased by another client: the
    # CloseSession proposal must wait for that lease, and the holder
    # must never serve the ephemeral from cache after the delete.
    owner = connected_client(ensemble, session_timeout_ms=2000.0)
    holder = connected_client(ensemble, replica="zk1", cached_reads=True)
    env = ensemble.env

    def setup():
        yield from owner.create("/eph", b"mine", ephemeral=True)
        yield from heat_up(holder, "/eph")

    run(ensemble, setup())
    sid = owner.session_id
    ensemble.net.crash(owner.node_id)
    # keep the lease warm until the expiry sweep fires
    holder_alive = {"stop": False}

    def keep_reading():
        while not holder_alive["stop"]:
            try:
                yield from holder.get_data("/eph")
            except NoNodeError:
                return
            yield env.timeout(100.0)

    proc = env.process(keep_reading())
    run_until(ensemble, lambda: sid not in ensemble.leader.sessions,
              limit_ms=30_000.0)
    run_until(ensemble,
              lambda: ensemble.leader.tree.exists("/eph") is None,
              limit_ms=10_000.0)
    holder_alive["stop"] = True
    env.run(until=proc)

    def final_read():
        with pytest.raises(NoNodeError):
            yield from holder.get_data("/eph")

    run(ensemble, final_read())


# ---------------------------------------------------------------------------
# end-to-end, both kernels: the grant timeout, the gate drain, the relay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_dark_leader_read_is_answered_plain_after_grant_timeout(kernel):
    # The follower parks a hot read's reply on its LeaseRequest. The
    # leader never hears it: the grant timeout answers plain, so a dark
    # leader delays reads by one timeout and never stalls them.
    ens = make_ensemble(kernel)
    client = connected_client(ens, replica="zk1", cached_reads=True)
    env = ens.env
    run(ens, client.create("/hot", b"v1"))
    ens.net.add_drop_rule(msg_types=[LeaseRequest], dst=ens.leader.node_id)
    latencies = []

    def reads():
        for _ in range(LEASES.min_reads):
            t0 = env.now
            data, _stat = yield from client.get_data("/hot")
            assert data == b"v1"
            latencies.append(env.now - t0)

    run(ens, reads())
    cold, parked = latencies
    assert cold < 1.0                     # below min_reads: no grant asked
    assert LEASES.grant_timeout_ms <= parked < LEASES.grant_timeout_ms + 1.0
    assert client._cache.stats["installs"] == 0
    assert client._cache.data("/hot", env.now) is CACHE_MISS


@pytest.mark.parametrize("kernel", KERNELS)
def test_update_gated_when_its_leader_crashes_applies_once(kernel):
    # The update waits at zk0's gate on a lease whose holder never acks.
    # zk0 crashes, a new leader is elected, the gate's deadline passes
    # while zk0 is down, and zk0 recovers: its role change drains the
    # gate with ConnectionLoss, and the client's retry through zk0
    # applies the write once, well inside the client's RPC deadline.
    ens = make_ensemble(kernel)
    reader = connected_client(ens, replica="zk1", cached_reads=True)
    writer = connected_client(ens, replica="zk0")
    env = ens.env
    run(ens, reader.create("/hot", b"old"))
    run(ens, heat_up(reader, "/hot"))
    assert reader._cache.data("/hot", env.now) is not CACHE_MISS
    ens.net.crash(reader.node_id)
    old = ens.server("zk0")
    assert old.is_leader
    sent_at = env.now
    update = env.process(writer.set_data("/hot", b"new"))
    env.run(until=env.now + 5.0)
    gates = old.leases.table.gates
    assert gates, "the update must wait at the gate"
    gate = gates[0]
    old.crash()
    run_until(ens, lambda: ens.leader is not None and ens.leader is not old)
    run_until(ens, lambda: env.now >= gate.parked_at + LEASES.duration_ms
              + LEASES.grace_ms)
    assert not gate.fired
    old.recover()
    env.run(until=update)
    assert gate.fired
    assert env.now - sent_at < _DEFAULT_TIMEOUT_MS
    run_until(ens, lambda: all(server.tree.exists("/hot").version == 1
                               for server in ens.servers))


@pytest.mark.parametrize("kernel", KERNELS)
def test_follower_relays_sync_release_to_free_a_parked_writer(kernel):
    # The revoke never reaches the reader, so only its release can free
    # the writer before the lease expires. The reader's sync() drops its
    # cache and hands the lease ids to its follower, which relays them.
    ens = make_ensemble(kernel)
    reader = connected_client(ens, replica="zk1", cached_reads=True)
    writer = connected_client(ens, replica="zk2")
    env = ens.env
    run(ens, reader.create("/hot", b"old"))
    run(ens, heat_up(reader, "/hot"))
    expires_at = reader._cache.entries["/hot"].expires_at
    ens.net.add_drop_rule(msg_types=[LeaseRevoke], dst=reader.node_id)
    update = env.process(writer.set_data("/hot", b"new"))
    run_until(ens, lambda: ens.leader.leases.table.gates, step_ms=0.5)
    run(ens, reader.sync())
    env.run(until=update)
    assert env.now < expires_at
    assert ens.leader.tree.get_data("/hot")[0] == b"new"
