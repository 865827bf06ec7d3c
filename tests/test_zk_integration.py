"""End-to-end tests: clients against a replicated ZooKeeper ensemble."""

import pytest

from repro.zk import (BadVersionError, NodeExistsError, NoNodeError,
                      ZkEnsemble)
from repro.zk.txn import CreateOp, SetDataOp


@pytest.fixture
def ensemble():
    ens = ZkEnsemble(n_replicas=3, seed=1)
    ens.start()
    return ens


def run(ensemble, *generators):
    """Run generator(s) as processes; returns their results."""
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


class TestBasicOps:
    def test_connect_assigns_session(self, ensemble):
        client = connected_client(ensemble)
        assert client.session_id is not None
        assert client.session_id > 0

    def test_create_and_get(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            path = yield from client.create("/app", b"config")
            data, stat = yield from client.get_data("/app")
            return path, data, stat.version

        path, data, version = run(ensemble, scenario())[0]
        assert path == "/app"
        assert data == b"config"
        assert version == 0

    def test_set_and_conditional_set(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/n", b"v0")
            stat = yield from client.set_data("/n", b"v1", version=0)
            assert stat.version == 1
            try:
                yield from client.set_data("/n", b"bad", version=0)
            except BadVersionError:
                return "rejected"
            return "accepted"

        assert run(ensemble, scenario())[0] == "rejected"

    def test_delete_and_exists(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/gone", b"")
            assert (yield from client.exists("/gone")) is not None
            yield from client.delete("/gone")
            return (yield from client.exists("/gone"))

        assert run(ensemble, scenario())[0] is None

    def test_duplicate_create_raises(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/dup")
            try:
                yield from client.create("/dup")
            except NodeExistsError:
                return "exists"

        assert run(ensemble, scenario())[0] == "exists"

    def test_get_missing_raises(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            try:
                yield from client.get_data("/ghost")
            except NoNodeError:
                return "missing"

        assert run(ensemble, scenario())[0] == "missing"

    def test_children_listing(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/dir")
            yield from client.create("/dir/b")
            yield from client.create("/dir/a")
            return (yield from client.get_children("/dir"))

        assert run(ensemble, scenario())[0] == ["a", "b"]

    def test_multi_is_atomic(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/m", b"")
            # Second op fails (bad version) -> nothing applied.
            try:
                yield from client.multi([
                    CreateOp("/m/child"),
                    SetDataOp("/m", b"x", version=99),
                ])
            except BadVersionError:
                pass
            return (yield from client.exists("/m/child"))

        assert run(ensemble, scenario())[0] is None


class TestSequentialNodes:
    def test_two_clients_get_distinct_suffixes(self, ensemble):
        c1 = connected_client(ensemble)
        c2 = connected_client(ensemble)

        def setup():
            yield from c1.create("/q")

        run(ensemble, setup())
        paths = []

        def producer(client):
            path = yield from client.create("/q/e-", sequential=True)
            paths.append(path)

        run(ensemble, producer(c1), producer(c2))
        assert len(set(paths)) == 2

    def test_sequential_creates_in_successive_multis(self, ensemble):
        """The committed txn names the suffix a multi resolved; applying it
        to the leader's speculative tree must advance the counter too."""
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/q")
            paths = []
            for _ in range(2):
                paths += yield from client.multi(
                    [CreateOp("/q/m-", b"", sequential=True)])
            paths.append((yield from client.create("/q/m-", sequential=True)))
            return paths

        assert run(ensemble, scenario())[0] == [
            "/q/m-0000000000", "/q/m-0000000001", "/q/m-0000000002"]


class TestWatches:
    def test_data_watch_fires_on_set(self, ensemble):
        watcher = connected_client(ensemble)
        writer = connected_client(ensemble)
        events = []
        watcher.watch_callbacks.append(lambda n: events.append(n))

        def scenario():
            yield from writer.create("/w", b"0")
            yield from watcher.get_data("/w", watch=True)
            yield from writer.set_data("/w", b"1")
            yield ensemble.env.timeout(10.0)

        run(ensemble, scenario())
        assert any(e.event_type == "NODE_DATA_CHANGED" and e.path == "/w"
                   for e in events)

    def test_watch_is_one_shot(self, ensemble):
        watcher = connected_client(ensemble)
        writer = connected_client(ensemble)
        events = []
        watcher.watch_callbacks.append(lambda n: events.append(n))

        def scenario():
            yield from writer.create("/w", b"0")
            yield from watcher.get_data("/w", watch=True)
            yield from writer.set_data("/w", b"1")
            yield ensemble.env.timeout(10.0)
            yield from writer.set_data("/w", b"2")  # not re-armed
            yield ensemble.env.timeout(10.0)

        run(ensemble, scenario())
        assert len(events) == 1

    def test_child_watch_fires_on_create(self, ensemble):
        watcher = connected_client(ensemble)
        writer = connected_client(ensemble)
        events = []
        watcher.watch_callbacks.append(lambda n: events.append(n))

        def scenario():
            yield from writer.create("/dir")
            yield from watcher.get_children("/dir", watch=True)
            yield from writer.create("/dir/kid")
            yield ensemble.env.timeout(10.0)

        run(ensemble, scenario())
        assert any(e.event_type == "NODE_CHILDREN_CHANGED" and e.path == "/dir"
                   for e in events)

    def test_block_unblocks_on_create(self, ensemble):
        blocker = connected_client(ensemble)
        creator = connected_client(ensemble)
        order = []

        def blocked():
            order.append(("blocking", ensemble.env.now))
            yield from blocker.block("/gate")
            order.append(("unblocked", ensemble.env.now))

        def opener():
            yield ensemble.env.timeout(50.0)
            yield from creator.create("/gate", b"")

        run(ensemble, blocked(), opener())
        assert order[0][0] == "blocking"
        assert order[1][0] == "unblocked"
        assert order[1][1] >= 50.0

    def test_block_returns_immediately_if_exists(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            yield from client.create("/present", b"")
            before = ensemble.env.now
            yield from client.block("/present")
            return ensemble.env.now - before

        elapsed = run(ensemble, scenario())[0]
        assert elapsed < 5.0


class TestEphemerals:
    def test_close_reaps_ephemerals(self, ensemble):
        owner = connected_client(ensemble)
        observer = connected_client(ensemble)

        def scenario():
            yield from owner.create("/lock", b"", ephemeral=True)
            yield from owner.close()
            yield ensemble.env.timeout(50.0)
            return (yield from observer.exists("/lock"))

        assert run(ensemble, scenario())[0] is None

    def test_session_expiry_reaps_ephemerals(self, ensemble):
        owner = connected_client(ensemble, session_timeout_ms=300.0)
        observer = connected_client(ensemble)

        def scenario():
            yield from owner.create("/lease", b"", ephemeral=True)
            owner.kill()  # abrupt death: no close-session call
            yield ensemble.env.timeout(1000.0)
            return (yield from observer.exists("/lease"))

        assert run(ensemble, scenario())[0] is None

    def test_live_session_keeps_ephemerals(self, ensemble):
        owner = connected_client(ensemble, session_timeout_ms=300.0)
        observer = connected_client(ensemble)

        def scenario():
            yield from owner.create("/alive", b"", ephemeral=True)
            yield ensemble.env.timeout(1500.0)  # pings keep it alive
            return (yield from observer.exists("/alive"))

        assert run(ensemble, scenario())[0] is not None


class TestReplication:
    def test_replicas_converge(self, ensemble):
        client = connected_client(ensemble)

        def scenario():
            for i in range(20):
                yield from client.create(f"/n{i}", str(i).encode())
            yield from client.set_data("/n0", b"updated")
            yield from client.delete("/n19")
            yield ensemble.env.timeout(100.0)

        run(ensemble, scenario())
        assert ensemble.trees_consistent()
        for server in ensemble.servers:
            assert server.tree.get_data("/n0")[0] == b"updated"
            assert "/n19" not in server.tree

    def test_reads_served_by_follower(self, ensemble):
        # Client connected to a follower still sees committed writes.
        writer = connected_client(ensemble, replica="zk0")
        reader = connected_client(ensemble, replica="zk2")

        def scenario():
            yield from writer.create("/shared", b"payload")
            yield ensemble.env.timeout(20.0)
            return (yield from reader.get_data("/shared"))

        data, _stat = run(ensemble, scenario())[0]
        assert data == b"payload"
        # The follower served the read itself (no leader hop): its CPU
        # processed at least the read item.
        assert ensemble.server("zk2").cpu.items_served > 0


class TestFailover:
    def test_follower_crash_does_not_stop_service(self, ensemble):
        client = connected_client(ensemble, replica="zk0")

        def scenario():
            yield from client.create("/before", b"")
            ensemble.server("zk2").crash()
            yield from client.create("/after", b"")
            return True

        assert run(ensemble, scenario())[0]

    def test_leader_crash_triggers_failover(self, ensemble):
        client = connected_client(ensemble, replica="zk1")

        def scenario():
            yield from client.create("/pre", b"")
            ensemble.server("zk0").crash()  # the leader
            yield ensemble.env.timeout(1500.0)  # election
            yield from client.create("/post", b"")
            return True

        assert run(ensemble, scenario())[0]
        leader = ensemble.leader
        assert leader is not None
        assert leader.node_id != "zk0"
        assert leader.tree.exists("/pre") is not None
        assert leader.tree.exists("/post") is not None

    def test_committed_writes_survive_leader_crash(self, ensemble):
        client = connected_client(ensemble, replica="zk1")

        def scenario():
            for i in range(10):
                yield from client.create(f"/d{i}", b"x")
            ensemble.server("zk0").crash()
            yield ensemble.env.timeout(1500.0)
            found = []
            for i in range(10):
                stat = yield from client.exists(f"/d{i}")
                found.append(stat is not None)
            return found

        assert all(run(ensemble, scenario())[0])

    def test_recovered_follower_catches_up(self, ensemble):
        client = connected_client(ensemble, replica="zk0")

        def scenario():
            yield from client.create("/r0", b"")
            ensemble.server("zk2").crash()
            for i in range(5):
                yield from client.create(f"/while-down{i}", b"")
            ensemble.server("zk2").recover()
            yield ensemble.env.timeout(2000.0)

        run(ensemble, scenario())
        recovered = ensemble.server("zk2").tree
        for i in range(5):
            assert recovered.exists(f"/while-down{i}") is not None
        assert ensemble.trees_consistent()

    def test_client_fails_over_to_another_replica(self, ensemble):
        client = connected_client(ensemble, replica="zk2")

        def scenario():
            yield from client.create("/x0", b"")
            ensemble.server("zk2").crash()  # the client's replica
            yield from client.create("/x1", b"")  # should retry elsewhere
            return client.replica

        new_replica = run(ensemble, scenario())[0]
        assert new_replica != "zk2"
