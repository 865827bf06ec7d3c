"""Unit tests for the discrete-event simulation kernel."""

import weakref

import pytest

from repro.sim import Environment, Infeasible, Interrupted


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.0)
        done.append(env.now)
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5.0, 7.5]


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        return value

    p = env.process(proc(env))
    assert env.run(until=p) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter(env):
        value = yield gate
        woke.append((env.now, value))

    def opener(env):
        yield env.timeout(3.0)
        gate.succeed(42)

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert woke == [(3.0, 42)]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            return str(exc)

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    p = env.process(waiter(env))
    env.process(failer(env))
    assert env.run(until=p) == "boom"


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)
    with pytest.raises(RuntimeError):
        gate.fail(RuntimeError())


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_return_value_propagates():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return 7

    def outer(env):
        result = yield env.process(inner(env))
        return result * 2

    p = env.process(outer(env))
    assert env.run(until=p) == 14


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        raise ValueError("inner died")

    def outer(env):
        try:
            yield env.process(inner(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(outer(env))
    assert env.run(until=p) == "caught inner died"


def test_unwaited_process_exception_raised_by_run():
    env = Environment()

    def doomed(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    p = env.process(doomed(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run(until=p)


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 5

    p = env.process(bad(env))
    with pytest.raises(TypeError):
        env.run(until=p)


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupted as interruption:
            log.append((env.now, interruption.cause))

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2.0, "wake up")]


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=4.5)
    assert env.now == 4.5
    assert ticks == [1.0, 2.0, 3.0, 4.0]


def test_run_backwards_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_queue_drained_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(Infeasible):
        env.run(until=never)


def test_fifo_order_for_simultaneous_events():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_any_of_returns_first():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(5.0, value="slow")
        result = yield env.any_of([fast, slow])
        return list(result.values())

    p = env.process(proc(env))
    assert env.run(until=p) == ["fast"]
    assert env.now == 1.0


def test_all_of_waits_for_everything():
    env = Environment()

    def proc(env):
        a = env.timeout(1.0, value="a")
        b = env.timeout(5.0, value="b")
        result = yield env.all_of([a, b])
        return sorted(result.values())

    p = env.process(proc(env))
    assert env.run(until=p) == ["a", "b"]
    assert env.now == 5.0


def test_all_of_empty_is_immediate():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    p = env.process(proc(env))
    assert env.run(until=p) == {}


def test_step_and_peek():
    env = Environment()
    env.timeout(2.0)
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0
    assert env.peek() is None
    with pytest.raises(Infeasible):
        env.step()


def test_yield_already_processed_event():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    env.run()  # process the gate before anyone waits

    def late(env):
        value = yield gate
        return value

    p = env.process(late(env))
    assert env.run(until=p) == "early"


# ---------------------------------------------------------------------------
# settled requests let go: withdrawn callbacks and detached conditions
# (both kernels, through the sim_kernel fixture)
# ---------------------------------------------------------------------------


@pytest.fixture(params=["calendar", "heap"])
def kernel_env(request, sim_kernel):
    sim_kernel(request.param)
    return Environment()


class _Payload:
    """Weak-referenceable stand-in for what a callback holds."""


def test_cancelled_callback_drops_args_and_leaves_the_queue(kernel_env):
    env = kernel_env
    order = []
    payload = _Payload()
    held = weakref.ref(payload)
    env.defer(1.0, order.append, "a")
    victim = env.defer(1.0, order.append, payload)
    env.defer(1.0, order.append, "b")
    env.defer(0.5, order.append, "early")
    victim.cancel()
    del payload
    assert held() is None
    assert victim not in env.queued()
    env.run()
    assert order == ["early", "a", "b"]
    # The withdrawn entry never ran and is not counted.
    assert env.events_processed == 3


# ---------------------------------------------------------------------------
# withdrawal from every place the calendar queue files an entry; the heap
# kernel runs the same scenarios and must agree on order and count
# ---------------------------------------------------------------------------


def _where(env, item):
    """The calendar structure holding ``item`` (None on the heap kernel)."""
    cal = env._cal
    if cal is None:
        return None
    if any(entry is item for entry in cal._imm):
        return "imm"
    if any(entry[2] is item for entry in cal._snap[cal._si:]):
        return "snap"
    if any(entry[2] is item for entry in cal._extra):
        return "extra"
    if any(entry[2] is item for bucket in cal._wheel.values()
           for entry in bucket):
        return "wheel"
    return "gone"


def _expect_place(env, item, place):
    assert _where(env, item) in (None, place)


def test_withdraw_from_a_future_bucket(kernel_env):
    env = kernel_env
    order = []
    env.defer(5.0, order.append, "a")
    victim = env.defer(5.0, order.append, "victim")
    env.defer(5.0, order.append, "b")
    _expect_place(env, victim, "wheel")
    victim.cancel()
    _expect_place(env, victim, "gone")
    env.run()
    assert order == ["a", "b"]
    assert env.events_processed == 2


def test_withdraw_the_only_entry_of_a_future_bucket(kernel_env):
    env = kernel_env
    order = []
    victim = env.defer(7.0, order.append, "victim")
    env.defer(9.0, order.append, "late")
    victim.cancel()
    assert env.peek() == 9.0
    # The emptied bucket's time slot is refilled after the withdrawal.
    env.defer(7.0, order.append, "refill")
    env.run()
    assert order == ["refill", "late"]
    assert env.now == 9.0 and env.events_processed == 2


def test_withdraw_from_the_drain_snapshot(kernel_env):
    env = kernel_env
    order = []
    handles = {}

    def canceller():
        order.append("canceller")
        _expect_place(env, handles["victim"], "snap")
        handles["victim"].cancel()

    env.defer(5.0, canceller)
    env.defer(5.0, order.append, "x")
    handles["victim"] = env.defer(5.0, order.append, "victim")
    env.defer(5.0, order.append, "y")
    env.defer(5.2, order.append, "z")
    env.run()
    assert order == ["canceller", "x", "y", "z"]
    assert env.events_processed == 4


def test_withdraw_from_extra(kernel_env):
    env = kernel_env
    order = []
    handles = {}

    def filer():
        order.append("filer")
        # Same bucket as now, later time: the calendar's extra heap.
        env.defer(0.2, order.append, "p")
        handles["victim"] = env.defer(0.2, order.append, "victim")
        env.defer(0.2, order.append, "q")
        env.defer(0.1, canceller)
        _expect_place(env, handles["victim"], "extra")

    def canceller():
        order.append("canceller")
        handles["victim"].cancel()
        _expect_place(env, handles["victim"], "gone")

    env.defer(5.0, filer)
    env.run()
    assert order == ["filer", "canceller", "p", "q"]
    assert env.events_processed == 4


def test_withdraw_from_imm(kernel_env):
    env = kernel_env
    order = []
    handles = {}

    def filer():
        order.append("filer")
        env.defer(0.0, order.append, "i0")
        handles["victim"] = env.defer(0.0, order.append, "victim")
        env.defer(0.0, order.append, "i1")
        _expect_place(env, handles["victim"], "imm")

    def canceller():
        # Queued at 5.0 before the clock got there: drains ahead of
        # every same-instant push the filer made.
        order.append("canceller")
        handles["victim"].cancel()

    env.defer(5.0, filer)
    env.defer(5.0, canceller)
    env.run()
    assert order == ["filer", "canceller", "i0", "i1"]
    assert env.events_processed == 4


def test_withdraw_after_run_until_jumped_past_the_cursor(kernel_env):
    env = kernel_env
    order = []
    env.run(until=1000.0)
    env.defer(0.0, order.append, "i0")
    victim = env.defer(0.0, order.append, "victim")
    future = env.defer(3.0, order.append, "later")
    victim.cancel()
    future.cancel()
    env.run()
    assert order == ["i0"]
    assert env.now == 1000.0 and env.events_processed == 1


def test_cancel_after_firing_is_a_no_op(kernel_env):
    env = kernel_env
    order = []
    fired = env.defer(1.0, order.append, "fired")
    env.run(until=1.0)
    # Same instant, already run: nothing else may be taken out.
    env.defer(0.0, order.append, "next")
    fired.cancel()
    fired.cancel()
    env.run()
    assert order == ["fired", "next"]
    assert env.events_processed == 2


def test_callback_cancelling_itself_while_running(kernel_env):
    env = kernel_env
    handles = {}
    env.defer(2.0, lambda: handles["self"].cancel())
    handles["self"] = env.queued()[0]
    env.defer(2.0, lambda: None)
    env.run()
    assert env.events_processed == 2


def test_timeout_cancel_withdraws_a_lost_race(kernel_env):
    env = kernel_env
    future = env.event()
    timer = env.timeout(100.0)

    def waiter():
        outcome = yield env.any_of([future, timer])
        timer.cancel()
        return list(outcome.values())

    proc = env.process(waiter())
    env.defer(1.0, future.succeed, "reply")
    assert env.run(until=proc) == ["reply"]
    assert timer not in env.queued()
    env.run()
    # The queue drained at the reply, not at the timer.
    assert env.now == 1.0 and not timer.processed


def test_timeout_cancel_refused_while_awaited(kernel_env):
    env = kernel_env
    timer = env.timeout(10.0, "woke")

    def sleeper():
        return (yield timer)

    proc = env.process(sleeper())
    env.run(until=1.0)
    with pytest.raises(RuntimeError, match="waits on"):
        timer.cancel()
    assert env.run(until=proc) == "woke"
    # Once fired, cancel is a no-op.
    timer.cancel()
    assert timer.processed and timer.value == "woke"


def test_any_of_won_by_future_detaches_from_the_losing_timer(kernel_env):
    env = kernel_env
    future = env.event()
    timer = env.timeout(100.0)

    def waiter():
        outcome = yield env.any_of([future, timer])
        return list(outcome.values())

    proc = env.process(waiter())
    env.defer(1.0, future.succeed, "reply")
    assert env.run(until=proc) == ["reply"]
    assert timer.callbacks == []
    env.run()
    assert env.now == 100.0 and timer.processed


def test_failed_all_of_detaches_from_the_rest(kernel_env):
    env = kernel_env
    bad = env.event()
    slow = env.timeout(50.0)

    def waiter():
        try:
            yield env.all_of([bad, slow])
        except ValueError as exc:
            return str(exc)

    proc = env.process(waiter())
    env.defer(1.0, bad.fail, ValueError("boom"))
    assert env.run(until=proc) == "boom"
    assert slow.callbacks == []


def test_interrupt_while_waiting_on_any_of(kernel_env):
    env = kernel_env
    future = env.event()
    timer = env.timeout(100.0)
    log = []

    def sleeper():
        try:
            yield env.any_of([future, timer])
        except Interrupted as interruption:
            log.append((env.now, interruption.cause))
        log.append((yield future))

    victim = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        victim.interrupt("wake up")
        yield env.timeout(1.0)
        future.succeed("late")

    env.process(interrupter())
    env.run(until=10.0)
    assert log == [(2.0, "wake up"), "late"]
    # The abandoned condition still settled on the future and let go of
    # the timer.
    assert timer.callbacks == []
