"""Raft kernel: unit behavior, ZK-over-Raft end to end, epoch fencing.

The conformance suite (`test_broadcast_conformance.py`) proves the
AtomicBroadcast contract holds; this file pins the Raft-specific
mechanics the contract leaves open — deterministic seeded election
timeouts, pre-vote term hygiene, the NotLeaderError surface — and then
runs the ZooKeeper tree over the Raft kernel end to end, including the
satellite regression this PR exists for: lease epoch fencing must key
on ``broadcast.leadership_epoch`` (a Raft term here), not on Zab
internals, so a Raft leader change fences old-leadership leases exactly
as a Zab one does.
"""

from __future__ import annotations

import pytest

from repro.core.broadcast import NotLeaderError
from repro.raft import RaftConfig, RaftPeer, RaftRole
from repro.raft import peer as raft_peer_module
from repro.sim import Environment
from repro.zk import ZkEnsemble
from repro.zk.leases import CACHE_MISS, LeaseConfig
from repro.zk.server import ZkConfig
from tests.broadcast_harness import BroadcastCluster, detector_wakeups

LEASES = LeaseConfig()


# ---------------------------------------------------------------------------
# unit: the peer itself
# ---------------------------------------------------------------------------


def test_election_timeouts_are_seeded_and_per_node():
    def draws(node_id, seed):
        peer = RaftPeer(Environment(), node_id, ["a", "b"],
                        send=lambda *_: None, deliver=lambda *_: None,
                        config=RaftConfig(seed=seed))
        return [peer._draw_timeout() for _ in range(4)]

    assert draws("a", 1) == draws("a", 1), "same node+seed must replay"
    assert draws("a", 1) != draws("a", 2), "seed must matter"
    assert draws("a", 1) != draws("b", 1), \
        "nodes must draw distinct timeouts or every election split-votes"
    low = raft_peer_module.ELECTION_TIMEOUT_MIN_MS
    high = raft_peer_module.ELECTION_TIMEOUT_MAX_MS
    assert all(low <= t < high for t in draws("a", 3))


def test_propose_requires_established_leadership():
    cluster = BroadcastCluster("raft")
    follower = cluster.endpoints["n1"]
    with pytest.raises(NotLeaderError):
        follower.kernel.propose("nope")
    # A newly elected leader is not `is_leader` until its barrier no-op
    # commits: the inherited suffix is not safely readable before that.
    cluster.crash("n0")
    leader = cluster.await_leader()
    assert leader is not None and leader.kernel._established


def test_pre_vote_spares_the_term_from_partition_churn():
    cluster = BroadcastCluster("raft")
    assert cluster.await_leader() is not None
    cluster.try_propose("v1")
    cluster.run(500.0)
    term_before = cluster.endpoints["n0"].kernel.current_term
    # A minority node cut off for many election timeouts keeps timing
    # out; pre-vote polls fail without a quorum, so its term must not
    # inflate — rejoin then cannot depose the stable leader.
    cluster.partition(["n2"])
    cluster.run(5_000.0)
    assert cluster.endpoints["n2"].kernel.current_term == term_before
    cluster.heal()
    cluster.run(500.0)
    assert cluster.endpoints["n0"].kernel.is_leader
    assert cluster.endpoints["n0"].kernel.current_term == term_before


@pytest.mark.parametrize("n", [3, 5])
def test_ranked_pre_vote_picks_the_winner_not_the_timeouts(n):
    # The seeded timeouts pick who *starts* the election; the ranked
    # pre-vote picks the winner among equally up-to-date survivors, in
    # one round. With three replicas the poller needs the one other
    # survivor, so the outcome is unique: the higher id, whoever timed
    # out first. With five, two lower-ranked grants can carry a poller
    # before a higher-ranked survivor's own poll lands, so the winner
    # is only never *below* the first poller.
    first_to_poll = set()
    for seed in range(12):
        cluster = BroadcastCluster("raft", n=n, seed=seed)
        cluster.try_propose("v1")
        cluster.run(300.0)
        survivors = [cluster.endpoints[i].kernel for i in cluster.node_ids[1:]]
        first = min(survivors, key=lambda k: k._timeout_ms)
        first_to_poll.add(first.node_id)
        first_timeout = first._timeout_ms  # redrawn once it polls
        cluster.crash("n0")
        crashed_at = cluster.env.now
        leader = cluster.await_leader(step_ms=1.0)
        assert leader is not None and leader.node_id >= first.node_id
        if n == 3:
            assert leader.node_id == "n2"
        # The first poller suspects the leader at its drawn timeout after
        # the last AppendEntries (in flight at the crash, so at most one
        # hop later), not on the heartbeat tick after it; the election
        # itself is a few round trips.
        assert cluster.env.now - crashed_at < first_timeout + 5.0
        assert [k.current_term for k in survivors] == [2] * len(survivors), \
            "one real election: no split vote, no second round"
    assert len(first_to_poll) > 1, "seeds must vary who times out first"


def test_first_prevote_starts_at_the_drawn_deadline(monkeypatch):
    # The failure detector fires at last contact + drawn timeout, not on
    # the heartbeat tick after it (a 0–50 ms overshoot per failover).
    polls = []
    real = RaftPeer._start_prevote

    def spy(self):
        polls.append((self.node_id, self.env.now,
                      self._last_leader_contact + self._timeout_ms))
        real(self)

    monkeypatch.setattr(RaftPeer, "_start_prevote", spy)
    for seed in range(12):
        cluster = BroadcastCluster("raft", seed=seed)
        cluster.try_propose("v1")
        cluster.run(300.0 + 7.0 * seed)  # vary the crash's tick phase
        cluster.crash("n0")
        polls.clear()
        assert cluster.await_leader() is not None
        node, fired_at, deadline = polls[0]
        assert abs(fired_at - deadline) <= 1e-6, \
            f"seed {seed}: {node} polled at {fired_at}, deadline {deadline}"


def test_partitioned_follower_detector_never_spins(monkeypatch):
    # Across 5 s of failed pre-votes the cut-off follower's detector
    # wakes at most once per heartbeat plus once per deadline; a zero
    # sleep would spin at one instant instead.
    cluster = BroadcastCluster("raft", seed=3)
    cluster.run(300.0)
    peer = cluster.endpoints["n2"].kernel
    wakeups = detector_wakeups(monkeypatch, raft_peer_module, peer)
    polls = []
    real = RaftPeer._start_prevote

    def spy(self):
        if self is peer:
            polls.append(self.env.now)
        real(self)

    monkeypatch.setattr(RaftPeer, "_start_prevote", spy)
    window_ms = 5_000.0
    cluster.partition(["n2"])
    cluster.run(window_ms)
    assert len(wakeups) <= (window_ms / raft_peer_module.HEARTBEAT_MS
                            + len(polls) + 1)
    assert len(polls) >= window_ms // raft_peer_module.ELECTION_TIMEOUT_MAX_MS, \
        "the cut-off follower must keep polling"
    assert peer.current_term == 1, "failed pre-votes never bump the term"


def test_longer_log_outranks_higher_id():
    for seed in range(6):
        cluster = BroadcastCluster("raft", seed=seed)
        cluster.partition(["n2"])
        cluster.try_propose("only-n0-and-n1-hold-this")
        cluster.run(100.0)
        cluster.crash("n0")
        cluster.heal()
        leader = cluster.await_leader()
        assert leader is not None and leader.node_id == "n1"


def test_deposed_leader_rejoins_as_follower():
    cluster = BroadcastCluster("raft")
    assert cluster.await_leader() is not None
    cluster.try_propose("v1")
    cluster.run(300.0)
    cluster.partition(["n0"])
    survivors = [cluster.endpoints["n1"], cluster.endpoints["n2"]]
    assert any(
        cluster.run(100.0) or any(e.kernel.is_leader for e in survivors)
        for _ in range(100)), "majority side failed to re-elect"
    cluster.heal()
    assert cluster.settle() is None
    n0 = cluster.endpoints["n0"].kernel
    assert n0.role is RaftRole.FOLLOWER
    assert n0.current_term > 1


# ---------------------------------------------------------------------------
# end to end: the ZooKeeper tree over Raft
# ---------------------------------------------------------------------------


@pytest.fixture
def raft_ensemble():
    ens = ZkEnsemble(n_replicas=3,
                     config=ZkConfig(kernel="raft", leases=LEASES), seed=1)
    ens.start()
    return ens


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


def test_zk_tree_survives_raft_leader_change(raft_ensemble):
    ens = raft_ensemble
    client = connected_client(ens, replica="zk1")

    def before():
        yield from client.create("/k", b"v1")

    run(ens, before())
    assert ens.leader is not None and ens.leader.node_id == "zk0"
    ens.server("zk0").crash()
    run_until(ens, lambda: ens.leader is not None
              and ens.leader.node_id != "zk0")

    def after():
        yield from client.set_data("/k", b"v2")
        data, stat = yield from client.get_data("/k")
        assert data == b"v2"
        assert stat.version == 1

    run(ens, after())


def test_raft_leader_change_fences_leases(raft_ensemble):
    """The satellite regression: lease fencing keys on the
    kernel-neutral leadership epoch. Over Raft that is the term — after
    a failover the new leader must (a) report a strictly larger epoch,
    (b) hold writes for a full lease term + grace, and (c) mint lease
    ids scoped to the new epoch so old-leadership ids can never
    collide."""
    ens = raft_ensemble
    reader = connected_client(ens, replica="zk1", cached_reads=True)
    writer = connected_client(ens, replica="zk2")
    env = ens.env

    def setup():
        yield from writer.create("/hot", b"old")
        for _ in range(3):
            yield from reader.get_data("/hot")
        assert reader._cache.data("/hot", env.now) is not CACHE_MISS

    run(ens, setup())
    epoch_before = ens.leader.broadcast.leadership_epoch
    assert epoch_before == 1  # bootstrap leadership, no fence yet
    ens.server("zk0").crash()
    run_until(ens, lambda: ens.leader is not None
              and ens.leader.node_id != "zk0")

    new_leader = ens.leader
    epoch_after = new_leader.broadcast.leadership_epoch
    assert epoch_after > epoch_before, \
        "a Raft leader change must raise the leadership epoch"
    recovery = new_leader.leases.table.recovery_until
    assert recovery >= env.now, \
        "the epoch fence must hold writes for a full lease term"

    def write():
        yield from writer.set_data("/hot", b"new")
        assert env.now >= recovery, \
            "no write may commit inside the recovery fence"

    run(ens, write())
    # Raft followers learn the commit index from the *next*
    # AppendEntries, so give the reader's replica one heartbeat to
    # apply before the (session-consistency-off) follower read.
    run_until(ens, lambda: ens.server("zk1")._applied_zxid
              >= new_leader.broadcast.committed_zxid)

    def read_back():
        data, _stat = yield from reader.get_data("/hot")
        assert data == b"new"

    run(ens, read_back())
    # Fresh grants are scoped to the new epoch: ids from the old
    # leadership (epoch 1: ids 1_000_000 + seq) cannot collide.
    def regrant():
        for _ in range(3):
            yield from reader.get_data("/hot")

    run(ens, regrant())
    run_until(ens, lambda: any(
        lease_id >= epoch_after * 1_000_000
        for holders in new_leader.leases.table.leases.values()
        for lease_id in holders),
        limit_ms=5_000.0)
