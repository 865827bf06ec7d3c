"""Protocol-level unit tests for the Zab-like broadcast.

These drive :class:`ZabPeer` instances directly over a simulated
network (no servers on top) so commit rules, epoch filtering, and
recovery behaviour are observable in isolation.
"""

import pytest

from repro.sim import Environment, LatencyModel, Network
from repro.zk import zab as zab_module
from repro.zk.txn import SetDataTxn
from repro.zk.zab import (CurrentLeader, NotLeaderError, Role, Vote,
                          ZabConfig, ZabPeer, make_zxid, zxid_counter,
                          zxid_epoch)
from tests.broadcast_harness import detector_wakeups


def build_cluster(n=3, heartbeat=20.0, election=80.0, window=30.0):
    env = Environment()
    net = Network(env, latency=LatencyModel(jitter_ms=0.0), seed=5)
    ids = [f"p{i}" for i in range(n)]
    delivered = {node: [] for node in ids}
    peers = {}

    for node in ids:
        def make_send(node=node):
            return lambda dst, msg: net.send(node, dst, msg)

        def make_deliver(node=node):
            return lambda record: delivered[node].append(record)

        peer = ZabPeer(env, node, ids, send=make_send(),
                       deliver=make_deliver(),
                       config=ZabConfig(heartbeat_ms=heartbeat,
                                        election_timeout_ms=election,
                                        election_window_ms=window))
        peers[node] = peer

        def make_handler(peer=peer):
            return lambda src, msg: peer.handle(src, msg)

        net.register(node, make_handler())

    for peer in peers.values():
        peer.bootstrap("p0")
    return env, net, peers, delivered


def assert_exactly_once_in_order(delivered, expect_payloads, skip=()):
    """Every live replica delivered exactly ``expect_payloads``, zxid-sorted."""
    for node, log in delivered.items():
        if node in skip:
            continue
        zxids = [r.zxid for r in log]
        assert zxids == sorted(zxids), f"{node}: delivery out of zxid order"
        assert len(set(zxids)) == len(zxids), f"{node}: duplicate delivery"
        assert [r.txn.data for r in log] == expect_payloads, node


class TestZxid:
    def test_round_trip(self):
        zxid = make_zxid(3, 17)
        assert zxid_epoch(zxid) == 3
        assert zxid_counter(zxid) == 17

    def test_later_epoch_always_larger(self):
        assert make_zxid(2, 1) > make_zxid(1, 0xFFFFFFFF)


class TestReplication:
    def test_propose_commits_everywhere(self):
        env, _net, peers, delivered = build_cluster()
        peers["p0"].propose(SetDataTxn("/a", b"1"))
        env.run(until=50.0)
        for node, log in delivered.items():
            assert [r.txn.data for r in log] == [b"1"], node

    def test_delivery_order_matches_proposal_order(self):
        env, _net, peers, delivered = build_cluster()
        for i in range(10):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=100.0)
        for log in delivered.values():
            assert [r.txn.data for r in log] == [
                str(i).encode() for i in range(10)]
            zxids = [r.zxid for r in log]
            assert zxids == sorted(zxids)

    def test_only_leader_may_propose(self):
        _env, _net, peers, _delivered = build_cluster()
        with pytest.raises(NotLeaderError):
            peers["p1"].propose(SetDataTxn("/a", b"x"))

    def test_commit_requires_quorum(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p1")
        net.crash("p2")
        peers["p0"].propose(SetDataTxn("/a", b"x"))
        env.run(until=60.0)
        assert delivered["p0"] == []  # no majority ack -> no commit

    def test_commit_with_one_follower_down(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p2")
        peers["p0"].propose(SetDataTxn("/a", b"x"))
        env.run(until=60.0)
        assert len(delivered["p0"]) == 1
        assert len(delivered["p1"]) == 1

    def test_exactly_once_delivery(self):
        env, _net, peers, delivered = build_cluster()
        for i in range(5):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=200.0)  # heartbeats re-announce the commit point
        for log in delivered.values():
            assert len(log) == 5

    def test_exactly_once_in_zxid_order(self):
        env, _net, peers, delivered = build_cluster()
        payloads = [str(i).encode() for i in range(25)]
        for p in payloads:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=300.0)  # heartbeats re-announce the commit point
        assert_exactly_once_in_order(delivered, payloads)


class TestElection:
    def test_leader_crash_elects_highest_zxid(self):
        env, net, peers, delivered = build_cluster()
        peers["p0"].propose(SetDataTxn("/a", b"1"))
        env.run(until=50.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        leaders = [p for p in peers.values() if p.is_leader]
        assert len(leaders) == 1
        assert leaders[0].node_id != "p0"
        assert leaders[0].epoch > 1

    def test_new_leader_can_propose(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        leader = next(p for p in peers.values() if p.is_leader)
        leader.propose(SetDataTxn("/b", b"post-failover"))
        env.run(until=env.now + 50.0)
        for node in peers:
            if node == "p0":
                continue
            assert delivered[node][-1].txn.data == b"post-failover"

    def test_committed_entries_survive_failover(self):
        env, net, peers, delivered = build_cluster()
        for i in range(5):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=50.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        leader = next(p for p in peers.values() if p.is_leader)
        assert len(leader.log) >= 5
        assert leader.committed_zxid >= make_zxid(1, 5)

    def test_recovered_old_leader_rejoins_as_follower(self):
        env, net, peers, delivered = build_cluster()
        peers["p0"].propose(SetDataTxn("/a", b"old"))
        env.run(until=50.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        net.recover("p0")
        peers["p0"].recover()
        env.run(until=env.now + 600.0)
        assert peers["p0"].role is Role.FOLLOWER
        leader = next(p for p in peers.values() if p.is_leader)
        assert leader.node_id != "p0"

    def test_recovered_follower_catches_up_via_sync(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p2")
        peers["p2"].crash()
        for i in range(4):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=80.0)
        net.recover("p2")
        peers["p2"].recover()
        env.run(until=env.now + 600.0)
        assert len(delivered["p2"]) == 4

    def test_recovered_follower_syncs_suffix_only(self):
        """Incremental sync: the rejoining follower receives the missing
        suffix and still ends up exactly-once."""
        env, net, peers, delivered = build_cluster()
        pre = [str(i).encode() for i in range(6)]
        for p in pre:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=100.0)
        net.crash("p2")
        peers["p2"].crash()
        post = [f"x{i}".encode() for i in range(6)]
        for p in post:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=env.now + 100.0)
        bytes_before = net.bytes_received["p2"]
        net.recover("p2")
        peers["p2"].recover()
        env.run(until=env.now + 600.0)
        assert_exactly_once_in_order(delivered, pre + post, skip=("p0", "p1"))
        assert_exactly_once_in_order({"p2": delivered["p2"]}, pre + post)
        resync_bytes = net.bytes_received["p2"] - bytes_before
        assert resync_bytes > 0

    def test_healed_follower_catches_up_without_election(self):
        """A follower partitioned through many commits — but for less
        than the election timeout, and with no proposal after the heal
        to trip its gap check — learns from the leader's heartbeats that
        it is behind and fetches the missing suffix; nobody elects."""
        env, net, peers, delivered = build_cluster()
        env.run(until=30.0)
        net.partition(["p2"], ["p0", "p1"])
        payloads = [str(i).encode() for i in range(24)]
        for p in payloads:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=env.now + 50.0)
        assert delivered["p2"] == []
        net.heal()
        env.run(until=env.now + 600.0)
        assert peers["p0"].is_leader
        assert all(p.epoch == 1 for p in peers.values())
        assert peers["p2"].role is Role.FOLLOWER
        for node, log in delivered.items():
            assert [r.txn.data for r in log] == payloads, node

    def test_unacked_proposal_of_crashed_leader_never_delivered(self):
        """A proposal no follower received dies with its leader: the
        committed prefix survives, the new leader keeps committing, and
        the orphan is never delivered — not even by the old leader,
        whose log still ends in it when it recovers and hears the new
        leader's heartbeats before its resync gets through."""
        env, net, peers, delivered = build_cluster()
        committed = [str(i).encode() for i in range(3)]
        for p in committed:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=200.0)
        net.add_drop_rule(msg_types=("Proposal",), src="p0")
        peers["p0"].propose(SetDataTxn("/a", b"orphan"))
        env.run(until=env.now + 1.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=env.now + 800.0)
        leaders = [p for p in peers.values() if p.is_leader]
        assert len(leaders) == 1 and leaders[0].node_id != "p0"
        leaders[0].propose(SetDataTxn("/b", b"post-failover"))
        env.run(until=env.now + 100.0)
        net.clear_rules()
        net.add_drop_rule(msg_types=("SyncRequest",), src="p0")
        net.recover("p0")
        peers["p0"].recover()
        env.run(until=env.now + 200.0)
        assert [r.txn.data for r in delivered["p0"]] == committed
        net.clear_rules()
        env.run(until=env.now + 600.0)
        for node, log in delivered.items():
            data = [r.txn.data for r in log]
            assert data == committed + [b"post-failover"], node

    def test_election_starts_at_the_timeout_deadline(self, monkeypatch):
        """The failure detector fires at last contact + election
        timeout, not on the heartbeat tick after it."""
        starts = []
        real = ZabPeer._start_election

        def spy(self):
            starts.append((self.node_id, self.env.now,
                           self._last_leader_contact
                           + self.config.election_timeout_ms))
            real(self)

        monkeypatch.setattr(ZabPeer, "_start_election", spy)
        for offset in range(12):  # vary the crash's tick phase
            env, net, peers, _delivered = build_cluster()
            env.run(until=50.0 + 3.0 * offset)
            net.crash("p0")
            peers["p0"].crash()
            starts.clear()
            env.run(until=env.now + 400.0)
            node, started_at, deadline = starts[0]
            assert abs(started_at - deadline) <= 1e-6, \
                f"offset {offset}: {node} at {started_at}, due {deadline}"
            assert sum(p.is_leader for p in peers.values()) == 1

    def test_partitioned_follower_detector_never_spins(self, monkeypatch):
        """Across 5 s cut off, the follower's detector wakes at most once
        per heartbeat plus once per deadline — including while it is
        LOOKING with ``_election_pending`` set, when its deadline has
        already passed and a zero sleep would spin at one instant."""
        env, net, peers, _delivered = build_cluster()
        env.run(until=30.0)
        peer = peers["p2"]
        wakeups = detector_wakeups(monkeypatch, zab_module, peer)
        starts = []
        real = ZabPeer._start_election

        def spy(self):
            if self is peer:
                starts.append(self.env.now)
            real(self)

        monkeypatch.setattr(ZabPeer, "_start_election", spy)
        window_ms = 5_000.0
        net.partition(["p2"], ["p0", "p1"])
        env.run(until=env.now + window_ms)
        config = peer.config
        assert len(wakeups) <= window_ms / config.heartbeat_ms + len(starts) + 1
        assert len(starts) >= window_ms // (config.election_timeout_ms
                                            + config.election_window_ms)
        assert any(role is Role.LOOKING and pending
                   for _now, role, pending in wakeups), \
            "the detector must have woken during a pending election"

    def test_vote_from_own_leader_joins_its_election(self):
        """A follower that hears a Vote from the leader it follows joins
        the election: that leader is not leading any more. Answering
        ``CurrentLeader`` would point the candidate at itself, and a
        LOOKING replica adopts it — which, once exact-deadline detection
        kept three replicas' timeouts in step, livelocked a 25-seed
        interleaving with everyone following a leader that never led."""
        env, _net, peers, _delivered = build_cluster()
        env.run(until=50.0)
        follower = peers["p1"]
        assert follower.leader_id == "p0" and follower.role is Role.FOLLOWER
        sent = []
        follower._send = lambda dst, msg: sent.append((dst, msg))
        follower.handle("p0", Vote(follower._term + 1, 0, "p0"))
        assert follower.role is Role.LOOKING
        assert not any(isinstance(msg, CurrentLeader) for _dst, msg in sent)

    def test_no_election_while_leader_healthy(self):
        env, _net, peers, _delivered = build_cluster()
        env.run(until=1000.0)
        assert peers["p0"].is_leader
        assert peers["p0"].epoch == 1  # nobody bumped the epoch

    def test_stale_leader_demoted_on_higher_epoch_heartbeat(self):
        env, net, peers, _delivered = build_cluster()
        # Partition the leader away; the others elect.
        net.partition(["p0"], ["p1", "p2"])
        env.run(until=800.0)
        new_leader = next(
            p for p in peers.values() if p.is_leader and p.node_id != "p0")
        net.heal()
        env.run(until=env.now + 300.0)
        assert peers["p0"].role is Role.FOLLOWER
        assert peers["p0"].epoch == new_leader.epoch


class TestEpochFiltering:
    def test_old_epoch_proposals_ignored(self):
        env, net, peers, delivered = build_cluster()
        net.partition(["p0"], ["p1", "p2"])
        # The isolated old leader keeps proposing into the void.
        peers["p0"].propose(SetDataTxn("/a", b"doomed"))
        env.run(until=800.0)
        net.heal()
        env.run(until=env.now + 400.0)
        new_leader = next(p for p in peers.values() if p.is_leader)
        new_leader.propose(SetDataTxn("/b", b"kept"))
        env.run(until=env.now + 100.0)
        # The uncommitted 'doomed' entry never reaches anyone's delivery.
        for log in delivered.values():
            assert all(r.txn.data != b"doomed" for r in log)
        assert delivered["p1"][-1].txn.data == b"kept"

    def test_partitioned_leader_proposal_never_delivered(self):
        """A deposed leader's unacked proposal must never be delivered."""
        env, net, peers, delivered = build_cluster()
        env.run(until=30.0)
        net.partition(["p0"], ["p1", "p2"])
        peers["p0"].propose(SetDataTxn("/a", b"doomed"))
        env.run(until=800.0)  # majority side elects a new leader
        net.heal()
        env.run(until=env.now + 400.0)
        new_leader = next(p for p in peers.values() if p.is_leader)
        assert new_leader.node_id != "p0"
        new_leader.propose(SetDataTxn("/b", b"kept"))
        env.run(until=env.now + 100.0)
        for log in delivered.values():
            assert all(r.txn.data != b"doomed" for r in log)
        assert delivered["p1"][-1].txn.data == b"kept"
        assert delivered["p0"][-1].txn.data == b"kept"
