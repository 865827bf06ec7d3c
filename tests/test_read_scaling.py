"""Read-path scaling: local reads, session consistency, observers, sync.

Covers the zxid-consistent read layer end to end: follower-local reads
under partition, read-your-writes across a fail-over to a lagging
replica, watch-notification-then-read ordering, ``sync()``
linearizability, observer quorum behaviour, the ConnectionLoss retry
backoff, the EDS unordered-read opt-in, and the read-heavy driver's
scaling claim.
"""

import pytest

from repro.bench.workload import run_read_heavy_workload
from repro.depspace import DsEnsemble
from repro.depspace.server import DsConfig
from repro.ezk import EzkEnsemble
from repro.zk import ZkEnsemble
from repro.zk.client import ZkClient
from repro.zk.errors import ConnectionLossError
from repro.zk.server import ZkConfig
from repro.zk.sessions import ConsistencyTracker
from repro.zk.txn import (ClientReply, ClientRequest,
                          ZxidWatchNotification)


def run(ensemble, *generators):
    procs = [ensemble.env.process(gen) for gen in generators]
    return [ensemble.env.run(until=proc) for proc in procs]


def connected_client(ensemble, **kwargs):
    client = ensemble.client(**kwargs)

    def _connect():
        yield from client.connect()
        return client

    return run(ensemble, _connect())[0]


def local_reads_ensemble(n_observers=0, seed=7):
    ens = ZkEnsemble(n_replicas=3, n_observers=n_observers,
                     config=ZkConfig(local_reads=True), seed=seed)
    ens.start()
    return ens


# ---------------------------------------------------------------------------
# ConsistencyTracker unit behaviour
# ---------------------------------------------------------------------------

class TestConsistencyTracker:
    def test_floor_defaults_to_zero(self):
        tracker = ConsistencyTracker()
        assert tracker.floor(42) == 0

    def test_note_is_monotonic(self):
        tracker = ConsistencyTracker()
        tracker.note(1, 10)
        tracker.note(1, 5)          # lower zxid never lowers the floor
        assert tracker.floor(1) == 10
        tracker.note(1, 12)
        assert tracker.floor(1) == 12

    def test_forget_clears_session(self):
        tracker = ConsistencyTracker()
        tracker.note(1, 10)
        tracker.forget(1)
        assert tracker.floor(1) == 0


# ---------------------------------------------------------------------------
# Follower-local reads
# ---------------------------------------------------------------------------

class TestLocalReads:
    def test_client_tracks_zxid(self):
        ens = local_reads_ensemble()
        client = connected_client(ens)

        def scenario():
            yield from client.create("/z", b"v")
            after_write = client.last_zxid
            yield from client.get_data("/z")
            return after_write

        after_write = run(ens, scenario())[0]
        assert after_write > 0
        assert client.last_zxid >= after_write

    def test_flags_off_keeps_plain_replies(self):
        ens = ZkEnsemble(n_replicas=3, seed=7)
        ens.start()
        client = connected_client(ens)

        def scenario():
            yield from client.create("/p", b"v")
            yield from client.get_data("/p")

        run(ens, scenario())
        assert client.last_zxid == 0          # no zxid ever reached it
        assert client.track_zxid is False

    def test_read_served_while_leader_partitioned(self):
        """A follower keeps serving reads it can answer consistently even
        when it cannot reach the leader — the definition of a local read."""
        ens = local_reads_ensemble()
        client = connected_client(ens, replica="zk1")

        def scenario():
            yield from client.create("/local", b"before")
            yield from client.get_data("/local")   # floor now known at zk1
            ens.net.partition(["zk1"], ["zk0", "zk2"])
            data, _ = yield from client.get_data("/local")
            ens.net.heal()
            return data

        assert run(ens, scenario())[0] == b"before"


# ---------------------------------------------------------------------------
# Session consistency across fail-over
# ---------------------------------------------------------------------------

class TestSessionConsistency:
    def test_read_your_writes_at_lagging_follower(self):
        """A read moved to a replica that missed the session's last write
        parks until the replica catches up, then sees the write."""
        ens = local_reads_ensemble()
        client = connected_client(ens, replica="zk1")

        def scenario():
            yield from client.create("/ryw", b"old")
            # zk2 misses the next write entirely.
            ens.net.partition(["zk2"], ["zk0", "zk1"])
            yield from client.set_data("/ryw", b"new")
            # Fail the session over to the lagging replica, then heal so
            # the heartbeat-driven resync can eventually catch zk2 up.
            client.replica = "zk2"
            ens.net.heal()
            data, _ = yield from client.get_data("/ryw")
            return data

        assert run(ens, scenario())[0] == b"new"

    def test_watch_notification_then_read(self):
        """After a watch fires, a read — even at a replica that has not
        applied the triggering txn yet — observes the notified change."""
        ens = local_reads_ensemble()
        watcher = connected_client(ens, replica="zk1")
        writer = connected_client(ens, replica="zk0")
        seen = []
        watcher.watch_callbacks.append(seen.append)

        def scenario():
            yield from writer.create("/wn", b"v0")
            yield from watcher.get_data("/wn", watch=True)
            ens.net.partition(["zk2"], ["zk0", "zk1"])
            yield from writer.set_data("/wn", b"v1")
            # Wait for the notification to reach the watcher.
            while not seen:
                yield ens.env.timeout(1.0)
            # Read at the replica that missed the write.
            watcher.replica = "zk2"
            ens.net.heal()
            data, _ = yield from watcher.get_data("/wn")
            return data

        assert run(ens, scenario())[0] == b"v1"
        notification = seen[0]
        assert isinstance(notification, ZxidWatchNotification)
        assert notification.zxid > 0

    def test_sync_then_read_is_linearizable(self):
        """sync() raises the session's floor to the leader's commit point,
        so the next read cannot return a state older than any write that
        completed before the sync."""
        ens = local_reads_ensemble()
        reader = connected_client(ens, replica="zk2")
        writer = connected_client(ens, replica="zk1")

        def scenario():
            yield from writer.create("/lin", b"v0")
            ens.net.partition(["zk2"], ["zk0", "zk1"])
            yield from writer.set_data("/lin", b"v1")
            write_zxid = writer.last_zxid
            ens.net.heal()
            sync_zxid = yield from reader.sync()
            data, _ = yield from reader.get_data("/lin")
            return write_zxid, sync_zxid, data

        write_zxid, sync_zxid, data = run(ens, scenario())[0]
        assert sync_zxid >= write_zxid
        assert data == b"v1"

    def test_sync_works_without_local_reads(self):
        ens = ZkEnsemble(n_replicas=3, seed=9)
        ens.start()
        client = connected_client(ens)

        def scenario():
            yield from client.create("/s", b"")
            zxid = yield from client.sync()
            return zxid

        assert run(ens, scenario())[0] > 0


# ---------------------------------------------------------------------------
# Observers
# ---------------------------------------------------------------------------

class TestObservers:
    def test_observer_applies_stream_and_serves_reads(self):
        ens = local_reads_ensemble(n_observers=2)
        client = connected_client(ens, replica="zk3")   # an observer

        def scenario():
            yield from client.create("/obs", b"data")
            data, _ = yield from client.get_data("/obs")
            return data

        assert run(ens, scenario())[0] == b"data"
        assert ens.server("zk3").is_observer
        assert ens.trees_consistent()

    def test_observer_crash_does_not_affect_write_quorum(self):
        ens = local_reads_ensemble(n_observers=2)
        client = connected_client(ens, replica="zk1")

        def scenario():
            yield from client.create("/q", b"v0")
            ens.server("zk3").crash()
            ens.server("zk4").crash()
            # Writes must still commit: the quorum is voters-only.
            yield from client.set_data("/q", b"v1")
            ens.server("zk3").recover()
            ens.server("zk4").recover()
            yield ens.env.timeout(500.0)
            data, _ = yield from client.get_data("/q")
            return data

        assert run(ens, scenario())[0] == b"v1"
        assert ens.trees_consistent()

    def test_observer_never_becomes_leader(self):
        ens = local_reads_ensemble(n_observers=1)
        client = connected_client(ens, replica="zk1")

        def scenario():
            yield from client.create("/lead", b"v0")
            ens.server("zk0").crash()      # kill the bootstrap leader
            yield ens.env.timeout(1000.0)  # election + establishment
            yield from client.set_data("/lead", b"v1")
            data, _ = yield from client.get_data("/lead")
            return data

        assert run(ens, scenario())[0] == b"v1"
        leader = ens.leader
        assert leader is not None
        assert leader.node_id in ("zk1", "zk2")
        assert not ens.server("zk3").is_leader

    def test_client_spread_avoids_bootstrap_leader(self):
        ens = local_reads_ensemble(n_observers=2)
        replicas = {ens.client().replica for _ in range(8)}
        assert "zk0" not in replicas
        assert replicas == {"zk1", "zk2", "zk3", "zk4"}

    def test_flags_off_spread_unchanged(self):
        ens = ZkEnsemble(n_replicas=3, seed=3)
        ens.start()
        replicas = [ens.client().replica for _ in range(6)]
        assert replicas == ["zk0", "zk1", "zk2", "zk0", "zk1", "zk2"]


# ---------------------------------------------------------------------------
# ConnectionLoss retry backoff
# ---------------------------------------------------------------------------

class TestRetryBackoff:
    def _bounce_ensemble(self):
        """An ensemble plus a fake replica that always answers
        ConnectionLoss, so every retry goes through the backoff path."""
        ens = ZkEnsemble(n_replicas=3, seed=5)
        ens.start()
        arrivals = []

        def bouncer(src, msg):
            if isinstance(msg, ClientRequest):
                arrivals.append(ens.env.now)
                ens.net.send("bounce", src, ClientReply(
                    msg.xid, False, None, ConnectionLossError.code, "down"))

        ens.net.register("bounce", bouncer)
        return ens, arrivals

    def test_backoff_grows_and_caps(self):
        ens, arrivals = self._bounce_ensemble()
        # Five "replicas" allow 2*5+1 = 11 attempts before giving up.
        client = ZkClient(ens.env, ens.net, "cx", ["bounce"] * 5)

        def scenario():
            try:
                yield from client.exists("/x")
            except ConnectionLossError:
                return True
            return False

        assert run(ens, scenario())[0] is True
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert len(gaps) >= 6
        # First retry keeps the historical fixed delay.
        assert gaps[0] == pytest.approx(50.0, abs=1.0)
        # Later retries grow: 100/200/400/800 ms scaled by [0.5, 1.5).
        assert 50.0 < gaps[1] < 151.0
        assert gaps[2] > gaps[1] * 0.9
        # The cap bounds every delay even after many retries.
        assert max(gaps) < 800.0 * 1.5 + 1.0

    def test_backoff_is_deterministic_per_client(self):
        ens1, arrivals1 = self._bounce_ensemble()
        client1 = ZkClient(ens1.env, ens1.net, "cx", ["bounce"] * 4)
        ens2, arrivals2 = self._bounce_ensemble()
        client2 = ZkClient(ens2.env, ens2.net, "cx", ["bounce"] * 4)

        def scenario(client):
            try:
                yield from client.exists("/x")
            except ConnectionLossError:
                pass

        run(ens1, scenario(client1))
        run(ens2, scenario(client2))
        assert arrivals1 == arrivals2


# ---------------------------------------------------------------------------
# EZK with the read-scaling knobs
# ---------------------------------------------------------------------------

class TestEzkReadScaling:
    def test_extensible_ensemble_with_observers(self):
        ens = EzkEnsemble(n_replicas=3, n_observers=1,
                          config=ZkConfig(local_reads=True), seed=11)
        ens.start()
        client = connected_client(ens, replica="ezk3")   # the observer

        def scenario():
            yield from client.create("/app", b"cfg")
            data, _ = yield from client.get_data("/app")
            return data

        assert run(ens, scenario())[0] == b"cfg"
        # The observer carries a binding like every other replica.
        assert ens.binding("ezk3") is ens.bindings[3]

    def test_extension_reads_still_route_to_leader(self):
        """A registered extension must keep consuming matched reads even
        when unmatched reads are served locally."""
        from repro.recipes import ExtensionQueue, ZkCoordClient
        ens = EzkEnsemble(n_replicas=3, n_observers=1,
                          config=ZkConfig(local_reads=True), seed=12)
        ens.start()
        client = connected_client(ens, replica="ezk1")
        queue = ExtensionQueue(ZkCoordClient(client))

        def scenario():
            yield from queue.setup(register=True)
            yield from queue.add(b"first")
            yield from queue.add(b"second")
            element = yield from queue.remove()
            return element

        assert run(ens, scenario())[0] == b"first"


# ---------------------------------------------------------------------------
# EDS/DepSpace unordered-read opt-in
# ---------------------------------------------------------------------------

class TestDsUnorderedReadOptIn:
    def test_per_client_override(self):
        ens = DsEnsemble(f=1, config=DsConfig(unordered_reads=True), seed=13)
        ens.start()
        default = ens.client()
        opted_out = ens.client(unordered_reads=False)
        assert default.unordered_reads is True
        assert opted_out.unordered_reads is False

    def test_opt_in_client_reads_correctly(self):
        ens = DsEnsemble(f=1, config=DsConfig(unordered_reads=True), seed=14)
        ens.start()
        client = ens.client(unordered_reads=True)

        def scenario():
            yield from client.out("k", 1)
            value = yield from client.rdp("k", 1)
            return value

        assert run(ens, scenario())[0] == ("k", 1)


# ---------------------------------------------------------------------------
# The read-heavy driver: local reads + observers beat the leader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", ["zab", "raft"])
def test_measure_read_heavy_scales(kernel):
    """Local reads plus two observers out-serve the leader-only baseline
    on the 90/10 read-heavy driver (the README's read-scaling claim),
    over either consensus kernel."""
    config = ZkConfig(kernel=kernel)
    base = run_read_heavy_workload("zk", 16, measure_ms=200.0,
                                   pin_leader=True, config=config)
    scaled = run_read_heavy_workload("zk", 16, measure_ms=200.0,
                                     local_reads=True, n_observers=2,
                                     config=config)
    assert base.completed_ops > 0 and scaled.completed_ops > 0
    assert scaled.throughput_ops > base.throughput_ops
