"""Unit tests for the two backend state proxies (EZK buffered, EDS direct)."""

import pytest

from repro.core import CoordStateError, NoObjectError, ObjectExistsError
from repro.ezk import ZkBufferedState
from repro.zk import DataTree
from repro.zk.txn import CreateTxn, DeleteTxn, SetDataTxn


@pytest.fixture
def tree():
    tree = DataTree()
    tree.create("/queue", zxid=1)
    tree.create("/queue/a", b"first", zxid=2)
    tree.create("/queue/b", b"second", zxid=3)
    tree.create("/ctr", b"41", zxid=4)
    return tree


class TestZkBufferedState:
    def test_read_update_cycle(self, tree):
        proxy = ZkBufferedState(tree)
        assert proxy.read("/ctr") == b"41"
        proxy.update("/ctr", b"42")
        assert proxy.read("/ctr") == b"42"
        assert tree.get_data("/ctr")[0] == b"42"  # written into the tree
        proxy.rollback()
        assert tree.get_data("/ctr")[0] == b"41"  # and undone

    def test_multi_txn_reflects_write_set(self, tree):
        proxy = ZkBufferedState(tree)
        proxy.update("/ctr", b"42")
        proxy.create("/new", b"x")
        proxy.delete("/queue/a")
        txn = proxy.to_multi_txn(result="done")
        assert txn.payload_set and txn.result_payload == "done"
        assert [type(t) for t in txn.txns] == [SetDataTxn, CreateTxn,
                                               DeleteTxn]

    def test_reads_produce_no_txns(self, tree):
        proxy = ZkBufferedState(tree)
        proxy.read("/ctr")
        proxy.sub_objects("/queue")
        proxy.exists("/missing")
        assert proxy.to_multi_txn().txns == []

    def test_sub_objects_ordered_by_creation(self, tree):
        proxy = ZkBufferedState(tree)
        records = proxy.sub_objects("/queue")
        assert [r.object_id for r in records] == ["/queue/a", "/queue/b"]
        assert records[0].seq < records[1].seq

    def test_pending_creations_sort_youngest(self, tree):
        proxy = ZkBufferedState(tree)
        proxy.create("/queue/c", b"third")
        records = proxy.sub_objects("/queue")
        assert [r.object_id for r in records] == [
            "/queue/a", "/queue/b", "/queue/c"]

    def test_cas_semantics(self, tree):
        proxy = ZkBufferedState(tree)
        assert proxy.cas("/ctr", b"41", b"42") is True
        assert proxy.cas("/ctr", b"41", b"43") is False
        assert proxy.read("/ctr") == b"42"

    def test_error_mapping(self, tree):
        proxy = ZkBufferedState(tree)
        with pytest.raises(NoObjectError):
            proxy.read("/ghost")
        with pytest.raises(ObjectExistsError):
            proxy.create("/ctr")
        with pytest.raises(NoObjectError):
            proxy.update("/ghost", b"")
        with pytest.raises(NoObjectError):
            proxy.cas("/ghost", b"", b"")

    def test_single_block_per_invocation(self, tree):
        proxy = ZkBufferedState(tree)
        proxy.block("/gate")
        assert proxy.block_path == "/gate"
        with pytest.raises(CoordStateError):
            proxy.block("/other")

    def test_monitor_creates_ephemeral_for_session(self, tree):
        tree.create("/clients", zxid=5)
        proxy = ZkBufferedState(tree)
        proxy.monitor("12345", "/clients/12345")
        create = proxy.to_multi_txn().txns[0]
        assert create.ephemeral_owner == 12345

    def test_monitor_rejects_non_session_client(self, tree):
        proxy = ZkBufferedState(tree)
        with pytest.raises(CoordStateError):
            proxy.monitor("not-a-session", "/clients/x")


def make_replica():
    from repro.depspace import DsReplica
    from repro.sim import Environment, Network

    env = Environment()
    net = Network(env)
    replica = DsReplica(env, net, "solo", ["solo", "x1", "x2", "x3"])
    return replica


class TestDsDirectState:
    def proxy(self, replica, events=None):
        from repro.eds import DsDirectState
        return DsDirectState(replica, "client-1", ts=10.0,
                             events=events if events is not None else [])

    def test_create_read_update_delete(self):
        replica = make_replica()
        proxy = self.proxy(replica)
        proxy.create("/a", b"1")
        assert proxy.read("/a") == b"1"
        proxy.update("/a", b"2")
        assert proxy.read("/a") == b"2"
        proxy.delete("/a")
        assert not proxy.exists("/a")

    def test_mutations_are_direct(self):
        replica = make_replica()
        proxy = self.proxy(replica)
        proxy.create("/a", b"1")
        assert replica.space().rdp(("/a", b"1")) is not None

    def test_rollback_restores_everything(self):
        replica = make_replica()
        space = replica.space()
        space.out(("/keep", b"old"))
        space.out(("/victim", b"data"))
        fingerprint = replica.fingerprint()

        proxy = self.proxy(replica)
        proxy.create("/new", b"x")
        proxy.update("/keep", b"new")
        proxy.delete("/victim")
        proxy.rollback()
        assert space.rdp(("/keep", b"old")) is not None
        assert space.rdp(("/victim", b"data")) is not None
        assert space.rdp(("/new", b"x")) is None

    def test_rollback_restores_leases(self):
        from repro.depspace import LeaseRecord
        replica = make_replica()
        space = replica.space()
        space.out(("/leased", b""), lease=LeaseRecord("owner", 500.0))
        proxy = self.proxy(replica)
        proxy.delete("/leased")
        proxy.rollback()
        lease = space.lease_of(("/leased", b""))
        assert lease is not None and lease.owner == "owner"

    def test_sub_objects_in_insertion_order(self):
        replica = make_replica()
        proxy = self.proxy(replica)
        proxy.create("/q/z", b"first")
        proxy.create("/q/a", b"second")
        records = proxy.sub_objects("/q")
        assert [r.object_id for r in records] == ["/q/z", "/q/a"]
        assert records[0].seq < records[1].seq

    def test_cas_and_errors(self):
        replica = make_replica()
        proxy = self.proxy(replica)
        proxy.create("/a", b"1")
        assert proxy.cas("/a", b"1", b"2") is True
        assert proxy.cas("/a", b"1", b"3") is False
        with pytest.raises(NoObjectError):
            proxy.read("/ghost")
        with pytest.raises(ObjectExistsError):
            proxy.create("/a")
        with pytest.raises(NoObjectError):
            proxy.delete("/ghost")

    def test_block_requires_operation_context(self):
        replica = make_replica()
        proxy = self.proxy(replica)  # no request_id
        with pytest.raises(CoordStateError):
            proxy.block("/gate")

    def test_monitor_creates_lease_for_client(self):
        replica = make_replica()
        events = []
        proxy = self.proxy(replica, events)
        proxy.monitor("other-client", "/clients/other", b"")
        lease = replica.space().lease_of(("/clients/other", b""))
        assert lease is not None
        assert lease.owner == "other-client"
        assert events and events[0].kind == "inserted"

    def test_ops_respect_policy_layers(self):
        from repro.depspace import Policy, PolicyViolationError, deny_ops
        replica = make_replica()
        replica.set_policy("main", Policy([deny_ops("out")]))
        proxy = self.proxy(replica)
        with pytest.raises(PolicyViolationError):
            proxy.create("/a", b"1")
