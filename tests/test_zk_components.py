"""Unit tests for ZooKeeper-side components: watches, sessions, resources."""

import pytest

from repro.sim import Environment, FifoResource
from repro.zk.sessions import HeartbeatTracker, SessionTable
from repro.zk.watches import EventType, WatchManager


class TestWatchManager:
    def test_data_watch_fires_once(self):
        manager = WatchManager()
        manager.add_data_watch("/a", session_id=1)
        fired = manager.trigger("/a", EventType.NODE_DATA_CHANGED)
        assert [(sid, e.path) for sid, e in fired] == [(1, "/a")]
        assert manager.trigger("/a", EventType.NODE_DATA_CHANGED) == []

    def test_multiple_watchers_all_notified_sorted(self):
        manager = WatchManager()
        for sid in (3, 1, 2):
            manager.add_data_watch("/a", sid)
        fired = manager.trigger("/a", EventType.NODE_DELETED)
        assert [sid for sid, _e in fired] == [1, 2, 3]

    def test_child_watch_independent_of_data_watch(self):
        manager = WatchManager()
        manager.add_data_watch("/a", 1)
        manager.add_child_watch("/a", 2)
        assert manager.trigger_children("/a")[0][0] == 2
        assert manager.trigger("/a", EventType.NODE_CREATED)[0][0] == 1

    def test_remove_session_drops_watches(self):
        manager = WatchManager()
        manager.add_data_watch("/a", 1)
        manager.add_child_watch("/b", 1)
        manager.add_data_watch("/a", 2)
        manager.remove_session(1)
        assert manager.data_watchers("/a") == {2}
        assert manager.child_watchers("/b") == set()

    def test_trigger_unwatched_path_is_empty(self):
        assert WatchManager().trigger("/x", EventType.NODE_CREATED) == []

    def test_unwatched_triggers_leave_armed_watches_alone(self):
        manager = WatchManager()
        assert not manager.armed
        manager.add_data_watch("/a", 1)
        manager.add_child_watch("/p", 2)
        assert manager.armed
        assert manager.trigger("/b", EventType.NODE_CREATED) == []
        assert manager.trigger("/p", EventType.NODE_DELETED) == []
        assert manager.trigger_children("/a") == []
        assert manager.trigger_children("/q") == []
        fired = manager.trigger("/a", EventType.NODE_DATA_CHANGED)
        assert [(sid, e.event_type, e.path) for sid, e in fired] == [
            (1, EventType.NODE_DATA_CHANGED, "/a")]
        assert manager.trigger("/a", EventType.NODE_DATA_CHANGED) == []
        assert manager.armed
        fired = manager.trigger_children("/p")
        assert [(sid, e.event_type, e.path) for sid, e in fired] == [
            (2, EventType.NODE_CHILDREN_CHANGED, "/p")]
        assert manager.trigger_children("/p") == []
        assert not manager.armed


class TestSessionTable:
    def test_create_close(self):
        table = SessionTable()
        table.create(7, 1000.0, "client-a")
        assert 7 in table
        closed = table.close(7)
        assert closed.closed
        assert 7 not in table

    def test_close_unknown_returns_none(self):
        assert SessionTable().close(99) is None

    def test_snapshot_restore(self):
        table = SessionTable()
        table.create(1, 500.0, "a")
        table.create(2, 800.0, "b")
        clone = SessionTable()
        clone.restore(table.snapshot())
        assert clone.ids() == [1, 2]
        assert clone.get(2).timeout_ms == 800.0


class TestHeartbeatTracker:
    def test_expiry_after_silence(self):
        tracker = HeartbeatTracker()
        tracker.track(1, timeout_ms=100.0, now=0.0)
        assert tracker.expired(now=50.0) == []
        assert tracker.expired(now=101.0) == [1]

    def test_touch_defers_expiry(self):
        tracker = HeartbeatTracker()
        tracker.track(1, timeout_ms=100.0, now=0.0)
        tracker.touch(1, now=90.0)
        assert tracker.expired(now=150.0) == []
        assert tracker.expired(now=191.0) == [1]

    def test_touch_untracked_is_noop(self):
        tracker = HeartbeatTracker()
        tracker.touch(9, now=1.0)
        assert tracker.expired(now=1000.0) == []

    def test_forget(self):
        tracker = HeartbeatTracker()
        tracker.track(1, timeout_ms=10.0, now=0.0)
        tracker.forget(1)
        assert tracker.expired(now=1000.0) == []


class TestFifoResource:
    def test_serial_execution(self):
        env = Environment()
        cpu = FifoResource(env)
        finished = []
        for i, cost in enumerate((5.0, 3.0, 2.0)):
            cpu.submit(cost, lambda i=i: finished.append((i, env.now)))
        env.run()
        assert finished == [(0, 5.0), (1, 8.0), (2, 10.0)]

    def test_busy_accounting(self):
        env = Environment()
        cpu = FifoResource(env)
        cpu.submit(4.0)
        cpu.submit(6.0)
        env.run()
        assert cpu.busy_ms == 10.0
        assert cpu.items_served == 2
        assert cpu.utilization(20.0) == 0.5
        assert cpu.utilization(5.0) == 1.0  # clamped

    def test_queue_length(self):
        env = Environment()
        cpu = FifoResource(env)
        cpu.submit(5.0)
        cpu.submit(5.0)
        assert cpu.queue_length == 2
        env.run()
        assert cpu.queue_length == 0

    def test_negative_cost_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FifoResource(env).submit(-1.0)

    def test_args_passthrough(self):
        env = Environment()
        cpu = FifoResource(env)
        seen = []
        cpu.submit(1.0, seen.append, "payload")
        cpu.submit(1.0, lambda *args: seen.append(args), 1, "two", None)
        env.run()
        assert seen == ["payload", (1, "two", None)]

    @pytest.mark.parametrize("kernel", ["heap", "calendar"])
    def test_completion_order_within_its_instant(self, kernel):
        """A completion is one occurrence filed when the item finishes:
        after everything already queued for that instant, before
        anything queued there later."""
        env = Environment(kernel=kernel)
        cpu = FifoResource(env)
        log = []

        def queued_after_the_timer():
            log.append("after")
            env.defer(0.0, log.append, "later")

        env.defer(5.0, log.append, "before")
        cpu.submit(5.0, log.append, "done")
        env.defer(5.0, queued_after_the_timer)
        env.defer(3.0, env.defer, 2.0, log.append, "from-3ms")
        env.run()
        assert log == ["before", "after", "from-3ms", "done", "later"]
        # Two kernel events per item (the service timer, the completion),
        # with or without a callback.
        assert env.events_processed == 7
        cpu.submit(1.0)
        env.run()
        assert env.events_processed == 9


class TestStats:
    def test_latency_percentiles(self):
        from repro.sim import LatencyRecorder
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(now=10.0, latency_ms=float(value))
        assert recorder.mean == pytest.approx(50.5)
        assert recorder.median == 50.0
        assert recorder.p99 == 99.0
        assert recorder.percentile(100.0) == 100.0

    def test_warmup_discards(self):
        from repro.sim import LatencyRecorder
        recorder = LatencyRecorder(warmup_until=100.0)
        recorder.record(now=50.0, latency_ms=999.0)
        recorder.record(now=150.0, latency_ms=1.0)
        assert recorder.count == 1
        assert recorder.mean == 1.0

    def test_empty_recorder_is_nan(self):
        import math
        from repro.sim import LatencyRecorder
        recorder = LatencyRecorder()
        assert math.isnan(recorder.mean)
        assert math.isnan(recorder.p99)

    def test_interval_throughput_window(self):
        from repro.sim import IntervalThroughput
        window = IntervalThroughput(100.0, 600.0)
        window.record(now=50.0)     # before: ignored
        window.record(now=100.0)    # inclusive start
        window.record(now=599.9)
        window.record(now=600.0)    # exclusive end: ignored
        assert window.completed == 2
        assert window.ops_per_second == pytest.approx(4.0)

    def test_bad_window_rejected(self):
        from repro.sim import IntervalThroughput
        with pytest.raises(ValueError):
            IntervalThroughput(5.0, 5.0)
