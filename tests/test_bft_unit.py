"""Protocol-level unit tests for the PBFT-style ordering layer."""

import pytest

from repro.depspace.bft import (BftConfig, BftPeer, BftRequest, Commit,
                                PrePrepare, Prepare, RequestId, ViewChange)
from repro.sim import Environment, LatencyModel, Network


def build_cluster(n=4, request_timeout=100.0, sweep=25.0):
    env = Environment()
    net = Network(env, latency=LatencyModel(jitter_ms=0.0), seed=8)
    ids = [f"r{i}" for i in range(n)]
    executed = {node: [] for node in ids}
    peers = {}

    for node in ids:
        def make_send(node=node):
            return lambda dst, msg: net.send(node, dst, msg)

        def make_execute(node=node):
            return lambda request, ts: executed[node].append(
                (request.request_id, ts))

        peer = BftPeer(env, node, ids, send=make_send(),
                       execute=make_execute(),
                       config=BftConfig(request_timeout_ms=request_timeout,
                                        sweep_interval_ms=sweep))
        peers[node] = peer

        def make_handler(peer=peer):
            def handler(src, msg):
                if isinstance(msg, BftRequest):
                    peer.on_request(msg)
                else:
                    peer.handle(src, msg)
            return handler

        net.register(node, make_handler())
    return env, net, peers, executed


def send_request(net, peers, client, seq, op="op"):
    request = BftRequest(RequestId(client, seq), op)
    for node in peers:
        net.send(client, node, request)
    # Deliver straight into the peers (no server layer here).
    return request


class TestConfiguration:
    def test_requires_3f_plus_1(self):
        env = Environment()
        with pytest.raises(ValueError):
            BftPeer(env, "a", ["a", "b", "c"], send=lambda d, m: None,
                    execute=lambda r, t: None)

    def test_primary_is_view_mod_n(self):
        _env, _net, peers, _ex = build_cluster()
        assert peers["r0"].is_primary
        assert not peers["r1"].is_primary


class TestOrdering:
    def test_request_executes_everywhere_once(self):
        env, net, peers, executed = build_cluster()
        send_request(net, peers, "c1", 1)
        env.run(until=50.0)
        for node, log in executed.items():
            assert [rid.seq for rid, _ts in log] == [1], node

    def test_total_order_identical_across_replicas(self):
        env, net, peers, executed = build_cluster()
        for i in range(8):
            send_request(net, peers, f"c{i % 3}", i // 3 + 1)
        env.run(until=200.0)
        orders = [[rid for rid, _ts in log] for log in executed.values()]
        assert all(order == orders[0] for order in orders)
        assert len(orders[0]) == 8

    def test_agreed_timestamp_identical_across_replicas(self):
        env, net, peers, executed = build_cluster()
        send_request(net, peers, "c1", 1)
        env.run(until=50.0)
        timestamps = {log[0][1] for log in executed.values()}
        assert len(timestamps) == 1

    def test_duplicate_request_not_reexecuted(self):
        env, net, peers, executed = build_cluster()
        request = send_request(net, peers, "c1", 1)
        env.run(until=50.0)
        for node in peers:
            net.send("c1", node, request)  # retransmission
        env.run(until=100.0)
        for log in executed.values():
            assert len(log) == 1

    def test_one_crashed_backup_tolerated(self):
        env, net, peers, executed = build_cluster()
        net.crash("r3")
        peers["r3"].crash()
        send_request(net, peers, "c1", 1)
        env.run(until=80.0)
        for node in ("r0", "r1", "r2"):
            assert len(executed[node]) == 1

    def test_two_crashes_block_progress(self):
        env, net, peers, executed = build_cluster()
        for node in ("r2", "r3"):
            net.crash(node)
            peers[node].crash()
        send_request(net, peers, "c1", 1)
        env.run(until=80.0)
        assert all(not executed[n] for n in ("r0", "r1"))


class TestViewChange:
    def test_primary_crash_triggers_view_change(self):
        env, net, peers, executed = build_cluster()
        net.crash("r0")
        peers["r0"].crash()
        send_request(net, peers, "c1", 1)
        env.run(until=1500.0)
        live = [peers[n] for n in ("r1", "r2", "r3")]
        assert all(p.view >= 1 for p in live)
        assert peers[live[0].primary_id].is_primary
        for node in ("r1", "r2", "r3"):
            assert [rid.seq for rid, _ts in executed[node]] == [1]

    def test_requests_flow_in_new_view(self):
        env, net, peers, executed = build_cluster()
        net.crash("r0")
        peers["r0"].crash()
        send_request(net, peers, "c1", 1)
        env.run(until=1500.0)
        send_request(net, peers, "c1", 2)
        env.run(until=env.now + 100.0)
        for node in ("r1", "r2", "r3"):
            assert [rid.seq for rid, _ts in executed[node]] == [1, 2]

    def test_view_does_not_change_spuriously(self):
        env, net, peers, executed = build_cluster()
        for i in range(5):
            send_request(net, peers, "c1", i + 1)
        env.run(until=1000.0)
        assert all(p.view == 0 for p in peers.values())


class TestVoteSenders:
    """A vote counts for the replica that sent it over the transport,
    whatever ``replica_id`` the message claims; a sender that is not a
    replica casts none."""

    FORGED = ("r0", "r1", "r2", "r3")

    def _forge(self, peer, sender, make):
        for claimed in self.FORGED:
            if claimed != sender:
                peer.handle(sender, make(claimed))

    def test_one_sender_cannot_complete_a_prepare_quorum(self):
        _env, _net, peers, _ex = build_cluster()
        primary = peers["r0"]
        request = BftRequest(RequestId("c1", 1), "op")
        primary.on_request(request)     # the pre-prepare: r0's vote
        slot = primary._slots[1]
        for sender in ("r3", "c9"):
            self._forge(primary, sender,
                        lambda claimed: Prepare(0, 1, request.request_id,
                                                claimed))
        assert slot.prepares == {"r0", "r3"}
        assert not slot.prepared

    def test_one_sender_cannot_complete_a_commit_quorum(self):
        _env, _net, peers, executed = build_cluster()
        backup = peers["r1"]
        request = BftRequest(RequestId("c1", 1), "op")
        backup.handle("r0", PrePrepare(0, 1, 0.0, request))
        backup.handle("r2", Prepare(0, 1, request.request_id, "r2"))
        slot = backup._slots[1]
        assert slot.prepared and slot.commits == {"r1"}
        for sender in ("r3", "c9"):
            self._forge(backup, sender,
                        lambda claimed: Commit(0, 1, request.request_id,
                                               claimed))
        assert slot.commits == {"r1", "r3"}
        assert not slot.committed and not executed["r1"]

    def test_one_sender_cannot_complete_a_view_change_quorum(self):
        _env, _net, peers, _ex = build_cluster()
        backup = peers["r1"]
        for sender in ("r3", "c9"):
            self._forge(backup, sender,
                        lambda claimed: ViewChange(1, 0, claimed))
        # One vote is not f + 1: r1 neither joins nor installs view 1.
        assert backup._view_votes[1] == {"r3": 0}
        assert backup.view == 0
