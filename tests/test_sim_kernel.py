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
# settled requests let go: cancelled callbacks and detached conditions
# (both kernels, through the sim_kernel fixture)
# ---------------------------------------------------------------------------


@pytest.fixture(params=["calendar", "heap"])
def kernel_env(request, sim_kernel):
    sim_kernel(request.param)
    return Environment()


class _Payload:
    """Weak-referenceable stand-in for what a callback holds."""


def test_cancelled_callback_drops_args_but_still_fires_in_place(kernel_env):
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
    env.run()
    assert order == ["early", "a", "b"]
    # The cancelled entry still fired: the event count is unchanged.
    assert env.events_processed == 4


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
