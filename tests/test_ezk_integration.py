"""End-to-end tests for EXTENSIBLE ZOOKEEPER."""

import pytest

from repro.core import ExtensionRejectedError
from repro.ezk import EzkEnsemble
from repro.ezk.integration import pack_registration
from repro.zk import ZkError
from repro.zk.server import StateEvent
from repro.zk.watches import EventType

COUNTER_EXT = '''
class CounterIncrement(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/ctr-increment")]

    def handle_operation(self, request, local):
        c = int(local.read("/ctr"))
        local.update("/ctr", str(c + 1).encode())
        return c + 1
'''

QUEUE_EXT = '''
class QueueRemove(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/queue/head")]

    def handle_operation(self, request, local):
        objs = local.sub_objects("/queue")
        if len(objs) == 0:
            return None
        head = objs[0]
        local.delete(head.object_id)
        return head.data
'''

CRASHY_EXT = '''
class Crashy(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/crashy")]

    def handle_operation(self, request, local):
        local.create("/partial-write")
        return 1 // 0
'''

EVENT_EXT = '''
class OnDelete(Extension):
    def event_subscriptions(self):
        return [EventSubscription(("deleted",), "/watched/*")]

    def handle_event(self, event, local):
        name = event.object_id.split("/")[-1]
        local.create("/tombstones/" + name)
'''


@pytest.fixture
def ensemble():
    ens = EzkEnsemble(n_replicas=3, seed=5)
    ens.start()
    return ens


def run(ensemble, *gens):
    procs = [ensemble.env.process(g) for g in gens]
    return [ensemble.env.run(until=p) for p in procs]


def connected(ensemble, **kwargs):
    client = ensemble.client(**kwargs)

    def go():
        yield from client.connect()
        return client

    return run(ensemble, go())[0]


class TestRegistration:
    def test_register_creates_data_object(self, ensemble):
        client = connected(ensemble)

        def scenario():
            path = yield from client.register_extension("ctr", COUNTER_EXT)
            stat = yield from client.exists("/em/ctr")
            return path, stat

        path, stat = run(ensemble, scenario())[0]
        assert path == "/em/ctr"
        assert stat is not None

    def test_registration_reaches_every_replica(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.register_extension("ctr", COUNTER_EXT)
            yield ensemble.env.timeout(50.0)

        run(ensemble, scenario())
        for binding in ensemble.bindings:
            assert binding.manager.names() == ["ctr"]

    def test_bad_extension_rejected_and_not_registered(self, ensemble):
        client = connected(ensemble)

        def scenario():
            try:
                yield from client.register_extension("bad", "import os\n")
            except ExtensionRejectedError:
                pass
            else:
                return "accepted"
            stat = yield from client.exists("/em/bad")
            return stat

        assert run(ensemble, scenario())[0] is None
        for binding in ensemble.bindings:
            assert binding.manager.names() == []

    def test_deregister_removes_everywhere(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.register_extension("ctr", COUNTER_EXT)
            yield from client.deregister_extension("ctr")
            yield ensemble.env.timeout(50.0)

        run(ensemble, scenario())
        for binding in ensemble.bindings:
            assert binding.manager.names() == []


class TestOperationExtensions:
    def test_counter_increment_single_rpc(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.create("/ctr", b"0")
            yield from client.register_extension("ctr-inc", COUNTER_EXT)
            values = []
            for _ in range(5):
                value = yield from client.get_data("/ctr-increment")
                values.append(value)
            actual, _stat = yield from client.get_data("/ctr")
            return values, actual

        values, actual = run(ensemble, scenario())[0]
        assert values == [1, 2, 3, 4, 5]
        assert actual == b"5"

    def test_extension_result_piggybacked(self, ensemble):
        # The reply value is the extension's return value, not node data.
        client = connected(ensemble)

        def scenario():
            yield from client.create("/ctr", b"41")
            yield from client.register_extension("ctr-inc", COUNTER_EXT)
            value = yield from client.get_data("/ctr-increment")
            return value

        assert run(ensemble, scenario())[0] == 42

    def test_unacked_client_gets_plain_read(self, ensemble):
        owner = connected(ensemble)
        stranger = connected(ensemble)

        def scenario():
            yield from owner.create("/ctr", b"0")
            yield from owner.register_extension("ctr-inc", COUNTER_EXT)
            # The stranger's read is NOT intercepted: /ctr-increment does
            # not exist as a node, so it sees NoNode.
            try:
                yield from stranger.get_data("/ctr-increment")
            except ZkError as exc:
                return exc.code

        assert run(ensemble, scenario())[0] == "NO_NODE"

    def test_acknowledge_enables_extension(self, ensemble):
        owner = connected(ensemble)
        friend = connected(ensemble)

        def scenario():
            yield from owner.create("/ctr", b"0")
            yield from owner.register_extension("ctr-inc", COUNTER_EXT)
            yield from friend.acknowledge_extension("ctr-inc")
            value = yield from friend.get_data("/ctr-increment")
            return value

        assert run(ensemble, scenario())[0] == 1

    def test_multi_txn_applies_at_all_replicas(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.create("/ctr", b"0")
            yield from client.register_extension("ctr-inc", COUNTER_EXT)
            yield from client.get_data("/ctr-increment")
            yield ensemble.env.timeout(50.0)

        run(ensemble, scenario())
        assert ensemble.trees_consistent()
        for server in ensemble.servers:
            assert server.tree.get_data("/ctr")[0] == b"1"

    def test_queue_extension_atomic_remove(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.create("/queue", b"")
            yield from client.register_extension("q-remove", QUEUE_EXT)
            yield from client.create("/queue/e-", b"first", sequential=True)
            yield from client.create("/queue/e-", b"second", sequential=True)
            head1 = yield from client.get_data("/queue/head")
            head2 = yield from client.get_data("/queue/head")
            head3 = yield from client.get_data("/queue/head")
            return head1, head2, head3

        head1, head2, head3 = run(ensemble, scenario())[0]
        assert head1 == b"first"
        assert head2 == b"second"
        assert head3 is None

    def test_crashing_extension_leaves_no_partial_state(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.register_extension("crashy", CRASHY_EXT)
            try:
                yield from client.get_data("/crashy")
            except ZkError as exc:
                code = exc.code
            else:
                code = "no-error"
            partial = yield from client.exists("/partial-write")
            return code, partial

        code, partial = run(ensemble, scenario())[0]
        assert code == "EXTENSION_CRASHED"
        assert partial is None


class TestEventExtensions:
    def test_event_extension_runs_on_delete(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.create("/watched", b"")
            yield from client.create("/tombstones", b"")
            yield from client.create("/watched/a", b"")
            yield from client.register_extension("on-del", EVENT_EXT)
            yield from client.delete("/watched/a")
            yield ensemble.env.timeout(100.0)
            return (yield from client.exists("/tombstones/a"))

        assert run(ensemble, scenario())[0] is not None

    def test_event_extension_registered_mid_batch_sees_later_events(
            self, ensemble):
        """The leader reads the event-extension flag per event: an /em
        registration early in an applied batch runs for the events
        after it in that batch."""
        client = connected(ensemble)

        def setup():
            yield from client.create("/watched", b"")
            yield from client.create("/tombstones", b"")

        run(ensemble, setup())
        leader = ensemble.leader
        binding = ensemble.binding(leader.node_id)
        assert not binding.manager.handles_events
        binding.on_events([
            StateEvent(EventType.NODE_CREATED, "/em/on-del",
                       pack_registration(str(client.session_id), EVENT_EXT)),
            StateEvent(EventType.NODE_DELETED, "/watched/c"),
        ])
        assert binding.manager.handles_events
        ensemble.env.run(until=ensemble.env.now + 100.0)
        assert leader.tree.exists("/tombstones/c") is not None

    def test_event_extension_state_replicated(self, ensemble):
        client = connected(ensemble)

        def scenario():
            yield from client.create("/watched", b"")
            yield from client.create("/tombstones", b"")
            yield from client.create("/watched/b", b"")
            yield from client.register_extension("on-del", EVENT_EXT)
            yield from client.delete("/watched/b")
            yield ensemble.env.timeout(100.0)

        run(ensemble, scenario())
        for server in ensemble.servers:
            assert server.tree.exists("/tombstones/b") is not None

    def test_notification_suppressed_for_acked_clients(self, ensemble):
        watcher = connected(ensemble)
        events = []
        watcher.watch_callbacks.append(lambda n: events.append(n))

        def scenario():
            yield from watcher.create("/watched", b"")
            yield from watcher.create("/tombstones", b"")
            yield from watcher.create("/watched/c", b"")
            yield from watcher.register_extension("on-del", EVENT_EXT)
            yield from watcher.get_data("/watched/c", watch=True)
            yield from watcher.delete("/watched/c")
            yield ensemble.env.timeout(100.0)

        run(ensemble, scenario())
        # The deletion notification was suppressed by the event extension.
        assert not any(e.event_type == "NODE_DELETED" for e in events)


class TestRecovery:
    def test_extensions_survive_replica_recovery(self, ensemble):
        client = connected(ensemble, replica="ezk0")

        def scenario():
            yield from client.create("/ctr", b"0")
            yield from client.register_extension("ctr-inc", COUNTER_EXT)
            ensemble.server("ezk2").crash()
            yield from client.get_data("/ctr-increment")
            ensemble.server("ezk2").recover()
            yield ensemble.env.timeout(2000.0)

        run(ensemble, scenario())
        assert ensemble.binding("ezk2").manager.names() == ["ctr-inc"]

    def test_extension_usable_after_leader_failover(self, ensemble):
        client = connected(ensemble, replica="ezk1")

        def scenario():
            yield from client.create("/ctr", b"0")
            yield from client.register_extension("ctr-inc", COUNTER_EXT)
            yield from client.get_data("/ctr-increment")
            ensemble.server("ezk0").crash()  # the leader
            yield ensemble.env.timeout(1500.0)
            value = yield from client.get_data("/ctr-increment")
            return value

        assert run(ensemble, scenario())[0] == 2
