"""Election-bounded failover: replicas re-route stranded forwards.

A follower remembers every update/sync it relays to the leader until it
sees the request settled. When leadership moves it re-routes what is
left, so a write that was in flight to a leader that died is answered
one election later — not when the client's 3 s RPC deadline fires — and
answered exactly once, because the new leader's at-most-once guard
recognises what the old leader managed to replicate.

Every scenario runs over both consensus kernels: the hook is the
kernel-neutral ``AtomicBroadcast.on_role_change``.
"""

from __future__ import annotations

import pytest

from repro.ezk import EzkEnsemble
from repro.raft import RaftConfig
from repro.recipes import ExtensionBarrier, ExtensionQueue, ZkCoordClient
from repro.zk import ZkEnsemble
from repro.zk.server import ZkConfig

KERNELS = ("zab", "raft")

#: the client library's RPC deadline; a stranded write used to wait it out.
_RPC_DEADLINE_MS = 3000.0


def _cluster(kernel, cls=ZkEnsemble, seed=7):
    config = ZkConfig(kernel=kernel)
    if kernel == "raft":
        config.raft = RaftConfig(seed=seed)
    ensemble = cls(n_replicas=3, seed=seed, config=config)
    ensemble.start()
    return ensemble


def _run(ensemble, gen):
    proc = ensemble.env.process(gen)
    return ensemble.env.run(until=proc)


def _follower_client(ensemble, **kwargs):
    """A connected client pinned to a follower (the last voter)."""
    client = ensemble.client(replica=ensemble.replica_ids[-1], **kwargs)
    _run(ensemble, client.connect())
    return client


def _time_election(ensemble, old_leader, out):
    """Record when a replica other than ``old_leader`` is established."""
    env = ensemble.env
    while ensemble.leader in (None, old_leader):
        yield env.timeout(1.0)
    out.append(env.now)


def _relay_tables(ensemble):
    return {server.node_id: dict(server._relayed)
            for server in ensemble.servers}


def _hold_commits(ensemble):
    """Let the leader replicate but never commit: its acks are dropped."""
    return ensemble.net.add_drop_rule(
        1.0, msg_types=("Ack", "AppendReply"), dst=ensemble.leader.node_id)


# ---------------------------------------------------------------------------
# (1) the outage a client sees is the election, not its RPC deadline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_write_forwarded_to_dead_leader_completes_within_election(kernel):
    ensemble = _cluster(kernel)
    env = ensemble.env
    client = _follower_client(ensemble)
    _run(ensemble, client.create("/a", b"0"))
    origin = ensemble.server(client.replica)
    leader = ensemble.leader

    leader.crash()
    crashed_at = env.now
    # The follower has not noticed yet: it still names the dead leader,
    # so this write is forwarded into the void.
    assert origin.broadcast.leader_id == leader.node_id
    established = []
    timer = env.process(_time_election(ensemble, leader, established))
    stat = _run(ensemble, client.set_data("/a", b"1"))

    outage = env.now - crashed_at
    env.run(until=timer)
    election = established[0] - crashed_at
    assert stat.version == 1
    assert outage <= election + 200.0, (
        f"{kernel}: write took {outage:.0f} ms, election {election:.0f} ms")
    assert outage < _RPC_DEADLINE_MS / 2
    assert client.replica == origin.node_id, "client must not have hopped"


# ---------------------------------------------------------------------------
# (2) replicated by the old leader, never acknowledged: answered once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_replicated_unacked_write_is_answered_exactly_once(kernel):
    ensemble = _cluster(kernel)
    env = ensemble.env
    client = _follower_client(ensemble)
    _run(ensemble, client.create("/a", b"0"))
    origin = ensemble.server(client.replica)
    leader = ensemble.leader

    rule = _hold_commits(ensemble)
    before = origin.broadcast.last_zxid
    call = env.process(client.set_data("/a", b"1"))
    env.run(until=env.now + 5.0)
    # On the follower's disk, not committed anywhere, not answered.
    assert origin.broadcast.last_zxid > before
    assert origin.tree.get_data("/a")[1].version == 0
    assert not call.triggered
    leader.crash()
    crashed_at = env.now
    ensemble.net.remove_rule(rule)

    stat = env.run(until=call)
    assert env.now - crashed_at < _RPC_DEADLINE_MS / 2
    assert stat.version == 1
    env.run(until=env.now + 500.0)
    for server in ensemble.servers:
        if server._alive:
            data, stat = server.tree.get_data("/a")
            assert (data, stat.version) == (b"1", 1), server.node_id


@pytest.mark.parametrize("kernel", KERNELS)
def test_rerouted_queue_remove_does_not_eat_a_second_element(kernel):
    ensemble = _cluster(kernel, cls=EzkEnsemble)
    env = ensemble.env
    client = _follower_client(ensemble)
    queue = ExtensionQueue(ZkCoordClient(client))
    _run(ensemble, queue.setup(register=True))
    for payload in (b"first", b"second", b"third"):
        _run(ensemble, queue.add(payload))
    leader = ensemble.leader

    rule = _hold_commits(ensemble)
    call = env.process(queue.remove())
    env.run(until=env.now + 5.0)
    assert not call.triggered
    leader.crash()
    ensemble.net.remove_rule(rule)

    assert env.run(until=call) == b"first"
    env.run(until=env.now + 500.0)
    survivor = ensemble.leader
    left = [survivor.tree.get_data(f"/queue/{name}")[0]
            for name in survivor.tree.get_children("/queue")]
    assert left == [b"second", b"third"]
    assert ensemble.trees_consistent()


# ---------------------------------------------------------------------------
# (3) a session's requests keep their xid order across the re-route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_session_order_survives_the_reroute(kernel):
    ensemble = _cluster(kernel)
    env = ensemble.env
    client = _follower_client(ensemble)
    _run(ensemble, client.create("/seq"))
    ensemble.leader.crash()

    # Pipelined on one session while the forwards still go to the dead
    # leader: xid order is issue order.
    calls = [env.process(client.create("/seq/n-", str(i).encode(),
                                       sequential=True))
             for i in range(6)]
    env.run(until=env.all_of(calls))

    tree = ensemble.leader.tree
    in_sequence = [tree.get_data(f"/seq/{name}")[0]
                   for name in sorted(tree.get_children("/seq"))]
    assert in_sequence == [str(i).encode() for i in range(6)]


# ---------------------------------------------------------------------------
# (4) the relay table is bounded: empty at quiesce, dropped on crash
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_relay_table_empty_after_failover_quiesce(kernel):
    ensemble = _cluster(kernel)
    env = ensemble.env
    client = _follower_client(ensemble)
    _run(ensemble, client.create("/a", b"0"))
    origin = ensemble.server(client.replica)
    old_leader = ensemble.leader
    old_leader.crash()

    calls = [env.process(client.set_data("/a", str(i).encode()))
             for i in range(4)]
    calls.append(env.process(client.sync()))
    env.run(until=env.now + 1.0)
    assert len(origin._relayed) == 5
    env.run(until=env.all_of(calls))
    old_leader.recover()
    env.run(until=env.now + 1000.0)

    assert not any(_relay_tables(ensemble).values()), _relay_tables(ensemble)
    assert ensemble.trees_consistent()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("call", ("set_data", "sync"))
def test_no_leak_when_client_timed_out_and_retried_elsewhere(kernel, call):
    ensemble = _cluster(kernel)
    env = ensemble.env
    # A session long enough to outlive the partition below.
    client = _follower_client(ensemble, session_timeout_ms=8000.0)
    _run(ensemble, client.create("/a", b"0"))
    origin = ensemble.server(client.replica)
    leader = ensemble.leader

    # The forward is lost on a link that comes back before the kernel
    # notices, so leadership never moves: the client waits out its
    # deadline and retries the same xid through another replica.
    ensemble.net.partition_oneway([origin.node_id], [leader.node_id])
    pending = env.process(client.set_data("/a", b"1") if call == "set_data"
                          else client.sync())
    env.run(until=env.now + 5.0)
    ensemble.net.heal()
    assert len(origin._relayed) == 1, "the lost forward is still held"
    epoch = origin.broadcast.leadership_epoch

    env.run(until=pending)
    assert client.replica != origin.node_id
    env.run(until=env.now + 500.0)
    # The write's record applied under the same (client, xid); the sync
    # left no record behind, so its entry was aged out instead.
    assert not any(_relay_tables(ensemble).values()), _relay_tables(ensemble)
    assert origin.broadcast.leadership_epoch == epoch, "no role change"
    if call == "set_data":
        assert origin.tree.get_data("/a")[1].version == 1
    assert ensemble.trees_consistent()


@pytest.mark.parametrize("kernel", KERNELS)
def test_forwarded_sync_is_answered_in_one_hop_and_settled(kernel):
    ensemble = _cluster(kernel)
    env = ensemble.env
    client = _follower_client(ensemble)
    origin = ensemble.server(client.replica)
    # Nothing leader -> origin gets through promptly: the sync answer
    # must not depend on that channel, only the settle notice does.
    ensemble.net.add_delay_rule(400.0, src=ensemble.leader.node_id,
                                dst=frozenset({origin.node_id}))
    started = env.now
    _run(ensemble, client.sync())
    assert env.now - started < 50.0
    assert len(origin._relayed) == 1
    env.run(until=env.now + 500.0)
    assert not origin._relayed


def test_relay_ttl_is_the_client_rpc_deadline():
    from repro.zk import client as zk_client, server as zk_server
    assert zk_server._RELAY_TTL_MS == zk_client._DEFAULT_TIMEOUT_MS \
        == _RPC_DEADLINE_MS


@pytest.mark.parametrize("kernel", KERNELS)
def test_deferred_block_reply_leaves_no_relay_entry(kernel):
    ensemble = _cluster(kernel, cls=EzkEnsemble)
    env = ensemble.env
    clients = [_follower_client(ensemble) for _ in range(2)]
    barriers = [ExtensionBarrier(ZkCoordClient(c), threshold=2)
                for c in clients]
    _run(ensemble, barriers[0].setup(register=True))
    _run(ensemble, barriers[1].setup(register=False))
    origin = ensemble.server(clients[0].replica)

    first = env.process(barriers[0].enter(0))
    env.run(until=env.now + 50.0)
    # The enter committed and its reply is parked at the origin until
    # the barrier opens: settled as far as the relay table goes.
    assert not first.triggered
    assert origin._deferred_blocks
    assert not origin._relayed
    # A blocked client re-sends its request every second or so; each
    # copy is relayed afresh and answered only when the barrier opens.
    env.run(until=env.now + 2500.0)
    assert not first.triggered

    second = env.process(barriers[1].enter(0))
    env.run(until=env.all_of([first, second]))
    env.run(until=env.now + 50.0)
    assert not any(_relay_tables(ensemble).values())


@pytest.mark.parametrize("kernel", KERNELS)
def test_crash_drops_the_relay_table(kernel):
    ensemble = _cluster(kernel)
    env = ensemble.env
    client = _follower_client(ensemble)
    _run(ensemble, client.create("/a", b"0"))
    origin = ensemble.server(client.replica)
    ensemble.leader.crash()

    env.process(client.set_data("/a", b"1"))
    env.run(until=env.now + 1.0)
    assert len(origin._relayed) == 1
    origin.crash()
    assert not origin._relayed
    origin.recover()
    env.run(until=env.now + 1500.0)
    assert not origin._relayed
