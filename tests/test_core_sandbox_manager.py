"""Unit tests for the sandbox (budgets, containment) and extension manager."""

import pytest

from repro.core import (BudgetedState, BudgetExceededError, EventNotice,
                        ExtensionCrashedError, ExtensionManager,
                        ExtensionRejectedError, MemoryState,
                        NotAuthorizedError, OperationRequest, SandboxLimits,
                        UnknownExtensionError, compile_extension,
                        run_contained)

COUNTER_EXT = '''
class CounterIncrement(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/ctr-increment")]

    def handle_operation(self, request, local):
        c = int(local.read("/ctr"))
        local.update("/ctr", str(c + 1).encode())
        return c + 1
'''

EVENT_EXT = '''
class DeletionLogger(Extension):
    def event_subscriptions(self):
        return [EventSubscription(("deleted",), "/clients/*")]

    def handle_event(self, event, local):
        local.create("/log/" + event.object_id.split("/")[-1])
'''

GREEDY_EXT = '''
class Greedy(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/greedy")]

    def handle_operation(self, request, local):
        for record in local.sub_objects("/data/"):
            local.read(record.object_id)
        return "done"
'''

CRASHY_EXT = '''
class Crashy(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/crashy")]

    def handle_operation(self, request, local):
        local.create("/partial")
        return 1 // 0
'''


class TestCompileExtension:
    def test_compiles_and_names(self):
        ext = compile_extension(COUNTER_EXT, "ctr-inc")
        assert ext.name == "ctr-inc"
        assert len(ext.ops_subscriptions()) == 1

    def test_default_name_is_class_name(self):
        ext = compile_extension(COUNTER_EXT)
        assert ext.name == "CounterIncrement"

    def test_rejects_zero_extension_classes(self):
        with pytest.raises(ExtensionRejectedError, match="exactly one"):
            compile_extension("X = 1\n")

    def test_rejects_two_extension_classes(self):
        source = COUNTER_EXT + '''
class Second(Extension):
    def handle_operation(self, request, local):
        return 2
'''
        with pytest.raises(ExtensionRejectedError, match="exactly one"):
            compile_extension(source)

    def test_namespace_is_restricted(self):
        # The class compiles, but dangerous builtins are absent at runtime.
        source = '''
class Sneaky(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/s")]

    def handle_operation(self, request, local):
        return len("ok")
'''
        ext = compile_extension(source)
        module_globals = ext.handle_operation.__globals__
        assert "open" not in module_globals["__builtins__"]
        assert "__import__" not in module_globals["__builtins__"]


class TestBudgets:
    def test_state_op_budget(self):
        state = MemoryState()
        for i in range(20):
            state.create(f"/data/{i}")
        ext = compile_extension(GREEDY_EXT)
        proxy = BudgetedState(state, SandboxLimits(max_state_ops=10))
        request = OperationRequest("read", "/greedy", client_id="c")
        with pytest.raises(BudgetExceededError, match="state ops"):
            ext.handle_operation(request, proxy)

    def test_creation_budget(self):
        source = '''
class Creator(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/mk")]

    def handle_operation(self, request, local):
        for record in local.sub_objects("/seeds/"):
            local.create(record.object_id.replace("seeds", "out"))
        return "ok"
'''
        state = MemoryState()
        for i in range(10):
            state.create(f"/seeds/{i}")
        ext = compile_extension(source)
        proxy = BudgetedState(
            state, SandboxLimits(max_state_ops=100, max_new_objects=3))
        with pytest.raises(BudgetExceededError, match="creation"):
            ext.handle_operation(
                OperationRequest("read", "/mk", client_id="c"), proxy)

    def test_within_budget_succeeds(self):
        state = MemoryState()
        state.create("/ctr", b"41")
        ext = compile_extension(COUNTER_EXT)
        proxy = BudgetedState(state, SandboxLimits())
        result = ext.handle_operation(
            OperationRequest("read", "/ctr-increment", client_id="c"), proxy)
        assert result == 42
        assert state.read("/ctr") == b"42"
        assert proxy.state_ops == 2

    def test_step_limiter(self):
        def spin():
            total = 0
            for i in (1,) * 10_000:
                total += i
            return total

        with pytest.raises(BudgetExceededError, match="steps"):
            run_contained(spin, max_steps=100)

    def test_step_limiter_allows_short_runs(self):
        assert run_contained(lambda: 1 + 1, max_steps=100) == 2


class TestCrashContainment:
    def test_crash_is_wrapped(self):
        state = MemoryState()
        ext = compile_extension(CRASHY_EXT)
        proxy = BudgetedState(state, SandboxLimits())
        with pytest.raises(ExtensionCrashedError, match="ZeroDivisionError"):
            run_contained(
                ext.handle_operation,
                OperationRequest("read", "/crashy", client_id="c"), proxy)

    def test_budget_error_passes_through(self):
        def exceed():
            raise BudgetExceededError("synthetic")

        with pytest.raises(BudgetExceededError, match="synthetic"):
            run_contained(exceed)


class TestManagerLifecycle:
    def test_register_and_match(self):
        manager = ExtensionManager()
        manager.register("ctr", COUNTER_EXT, owner="alice")
        request = OperationRequest("read", "/ctr-increment",
                                   client_id="alice")
        assert manager.match_operation(request).name == "ctr"

    def test_unacked_client_does_not_match(self):
        manager = ExtensionManager()
        manager.register("ctr", COUNTER_EXT, owner="alice")
        request = OperationRequest("read", "/ctr-increment", client_id="bob")
        assert manager.match_operation(request) is None

    def test_acknowledge_grants_access(self):
        manager = ExtensionManager()
        manager.register("ctr", COUNTER_EXT, owner="alice")
        manager.acknowledge("ctr", "bob")
        request = OperationRequest("read", "/ctr-increment", client_id="bob")
        assert manager.match_operation(request).name == "ctr"

    def test_acknowledge_unknown_raises(self):
        with pytest.raises(UnknownExtensionError):
            ExtensionManager().acknowledge("ghost", "bob")

    def test_deregister(self):
        manager = ExtensionManager()
        manager.register("ctr", COUNTER_EXT, owner="alice")
        manager.deregister("ctr")
        request = OperationRequest("read", "/ctr-increment",
                                   client_id="alice")
        assert manager.match_operation(request) is None

    def test_last_registered_wins(self):
        other = COUNTER_EXT.replace("CounterIncrement", "Newer")
        manager = ExtensionManager()
        manager.register("old", COUNTER_EXT, owner="alice")
        manager.register("new", other, owner="alice")
        request = OperationRequest("read", "/ctr-increment",
                                   client_id="alice")
        assert manager.match_operation(request).name == "new"

    def test_rejected_source_is_not_registered(self):
        manager = ExtensionManager()
        with pytest.raises(ExtensionRejectedError):
            manager.register("bad", "import os\n", owner="alice")
        assert manager.names() == []

    def test_event_matching_in_registration_order(self):
        manager = ExtensionManager()
        manager.register("first", EVENT_EXT, owner="a")
        manager.register(
            "second", EVENT_EXT.replace("DeletionLogger", "Another"),
            owner="a")
        event = EventNotice("deleted", "/clients/7")
        assert [r.name for r in manager.match_events(event)] == [
            "first", "second"]

    def test_event_pattern_mismatch(self):
        manager = ExtensionManager()
        manager.register("ev", EVENT_EXT, owner="a")
        assert manager.match_events(EventNotice("deleted", "/other/7")) == []
        assert manager.match_events(EventNotice("created", "/clients/7")) == []

    def test_suppresses_notification_requires_authorization(self):
        manager = ExtensionManager()
        manager.register("ev", EVENT_EXT, owner="a")
        event = EventNotice("deleted", "/clients/7")
        assert manager.suppresses_notification("a", event)
        assert not manager.suppresses_notification("stranger", event)

    def test_execute_operation_authorization(self):
        manager = ExtensionManager()
        record = manager.register("ctr", COUNTER_EXT, owner="alice")
        state = MemoryState()
        state.create("/ctr", b"0")
        with pytest.raises(NotAuthorizedError):
            manager.execute_operation(
                record,
                OperationRequest("read", "/ctr-increment", client_id="eve"),
                state)

    def test_execute_operation_end_to_end(self):
        manager = ExtensionManager()
        record = manager.register("ctr", COUNTER_EXT, owner="alice")
        state = MemoryState()
        state.create("/ctr", b"7")
        result = manager.execute_operation(
            record,
            OperationRequest("read", "/ctr-increment", client_id="alice"),
            state)
        assert result == 8
        assert manager.executions == 1

    def test_handles_events_tracks_the_registry(self):
        manager = ExtensionManager()
        assert not manager.handles_events
        manager.register("ctr", COUNTER_EXT, owner="a")
        assert not manager.handles_events
        manager.register("ev", EVENT_EXT, owner="a")
        assert manager.handles_events
        # Re-registering the name with operation-only code drops it.
        manager.register("ev", COUNTER_EXT, owner="a")
        assert not manager.handles_events
        manager.register("ev", EVENT_EXT, owner="a")
        manager.deregister("ev")
        assert not manager.handles_events
        manager.reload([("ev", EVENT_EXT, "a", [])])
        assert manager.handles_events
        manager.reload([("ctr", COUNTER_EXT, "a", [])])
        assert not manager.handles_events

    def test_execute_event_end_to_end(self):
        manager = ExtensionManager()
        record = manager.register("ev", EVENT_EXT, owner="a")
        state = MemoryState()
        state.create("/log", b"")
        manager.execute_event(record, EventNotice("deleted", "/clients/42"),
                              state)
        assert state.exists("/log/42")


class TestManagerRecovery:
    def test_export_reload_round_trip(self):
        manager = ExtensionManager()
        manager.register("ctr", COUNTER_EXT, owner="alice")
        manager.acknowledge("ctr", "bob")
        manager.register("ev", EVENT_EXT, owner="carol")

        fresh = ExtensionManager()
        fresh.reload(manager.export_records())
        assert fresh.names() == ["ctr", "ev"]
        request = OperationRequest("read", "/ctr-increment", client_id="bob")
        assert fresh.match_operation(request).name == "ctr"

    def test_reload_preserves_registration_order(self):
        manager = ExtensionManager()
        manager.register("old", COUNTER_EXT, owner="a")
        manager.register(
            "new", COUNTER_EXT.replace("CounterIncrement", "B"), owner="a")
        fresh = ExtensionManager()
        fresh.reload(manager.export_records())
        request = OperationRequest("read", "/ctr-increment", client_id="a")
        assert fresh.match_operation(request).name == "new"
