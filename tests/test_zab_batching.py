"""Delivery invariants first written for leader-side proposal batching.

Batching is gone: the leader sends one ``Proposal`` per transaction and
followers ack cumulatively. The guarantees these scenarios checked still
hold on that path: every live replica delivers committed entries exactly
once, in zxid order, a recovered follower resyncs from the leader, and a
deposed leader's unacked proposal is never delivered.
"""

from repro.sim import Environment, LatencyModel, Network
from repro.zk.txn import SetDataTxn
from repro.zk.zab import ZabConfig, ZabPeer


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


class TestBatchedReplication:
    def test_exactly_once_in_zxid_order(self):
        env, _net, peers, delivered = build_cluster()
        payloads = [str(i).encode() for i in range(25)]
        for p in payloads:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=300.0)  # heartbeats re-announce the commit point
        assert_exactly_once_in_order(delivered, payloads)


class TestBatchedFailover:
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

    def test_batch_from_stale_epoch_ignored(self):
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
