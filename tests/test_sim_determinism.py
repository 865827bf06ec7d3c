"""Cross-kernel determinism: calendar-queue and heap kernels must deliver
identically ordered event streams.

The calendar queue (repro.sim._calqueue) is a performance replacement for
the heapq kernel, not a semantic one: replay lines from the chaos
explorer and the committed figure JSONs must not depend on which kernel
ran them. These tests pin that equivalence at three levels — a synthetic
event soup engineered to hit bucket boundaries, a full protocol workload,
and the wallclock driver.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Environment, Interrupted
from repro.sim._calqueue import DEFAULT_BUCKET_MS

KERNELS = ("heap", "calendar")


def _soup_trace(kernel: str, seed: int, n_procs: int = 40,
                horizon: float = 400.0) -> list:
    """Run a randomized process soup and record every wakeup.

    Delays are drawn to stress the calendar queue's corner cases:
    zero-delay wakeups (the imm deque), exact bucket-width multiples
    (floating-point bucket boundaries), sub-bucket jitter (intra-bucket
    ordering), and far-future timers (cold buckets), plus events
    succeeded from other processes and interrupts.
    """
    env = Environment(kernel=kernel)
    rng = random.Random(seed)
    trace = []
    gates = [env.event() for _ in range(n_procs)]

    def proc(env, me):
        my_rng = random.Random(seed * 1000 + me)
        for step in range(30):
            roll = my_rng.random()
            if roll < 0.15:
                delay = 0.0
            elif roll < 0.35:
                delay = my_rng.randrange(1, 40) * DEFAULT_BUCKET_MS
            elif roll < 0.8:
                delay = my_rng.random() * 2.0
            elif roll < 0.95:
                delay = 50.0 + my_rng.random() * 100.0
            else:
                delay = 3000.0
            try:
                yield env.timeout(delay)
            except Interrupted:
                trace.append(("intr", me, step, env.now))
                continue
            trace.append(("wake", me, step, env.now))
            if my_rng.random() < 0.1:
                gate = gates[my_rng.randrange(n_procs)]
                if not gate.triggered:
                    gate.succeed((me, step))

    def watcher(env, me):
        try:
            value = yield gates[me]
            trace.append(("gate", me, value, env.now))
        except Interrupted:
            trace.append(("gate-intr", me, env.now))

    procs = [env.process(proc(env, i)) for i in range(n_procs)]
    for i in range(n_procs):
        env.process(watcher(env, i))

    def chaos_monkey(env):
        while True:
            yield env.timeout(7.0 + rng.random() * 11.0)
            victim = procs[rng.randrange(n_procs)]
            if victim.is_alive:
                victim.interrupt("poke")

    env.process(chaos_monkey(env))
    env.run(until=horizon)
    trace.append(("events", env.events_processed))
    return trace


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_event_soup_streams_identical(seed):
    assert _soup_trace("heap", seed) == _soup_trace("calendar", seed)


def test_soup_with_step_and_peek_identical():
    """Single-stepping interleaved with run() must also agree."""
    def stepped(kernel):
        env = Environment(kernel=kernel)
        log = []

        def ticker(env, period, tag):
            while True:
                yield env.timeout(period)
                log.append((tag, env.now))

        env.process(ticker(env, 0.05, "a"))    # exactly one bucket width
        env.process(ticker(env, 0.07, "b"))
        env.process(ticker(env, 1.0, "c"))
        for _ in range(200):
            log.append(("peek", env.peek()))
            env.step()
        env.run(until=30.0)
        log.append(("done", env.now, env.events_processed))
        return log

    assert stepped("heap") == stepped("calendar")


@pytest.mark.parametrize("system", ["zk", "ezk"])
def test_protocol_workload_identical_across_kernels(system, sim_kernel):
    """A full ensemble workload produces the same result on both kernels."""
    from repro.bench.workload import run_queue_workload

    results = {}
    for kernel in KERNELS:
        sim_kernel(kernel)
        results[kernel] = run_queue_workload(
            system, n_clients=8, warmup_ms=50.0, measure_ms=300.0)
    heap, cal = results["heap"], results["calendar"]
    assert heap == cal


@pytest.mark.parametrize("kernel", KERNELS)
def test_environment_kernel_override_beats_env_var(kernel, sim_kernel,
                                                   monkeypatch):
    """The explicit argument wins over the test-side default, and no
    environment variable selects a kernel."""
    other = "calendar" if kernel == "heap" else "heap"
    monkeypatch.setenv("REPRO_SIM_KERNEL", other)
    assert Environment().kernel == "calendar"
    sim_kernel(other)
    assert Environment(kernel=kernel).kernel == kernel
    assert Environment().kernel == other


def test_unknown_kernel_rejected(sim_kernel):
    with pytest.raises(ValueError):
        Environment(kernel="btree")
    sim_kernel("btree")
    with pytest.raises(ValueError):
        Environment()


def _cancel_soup_trace(kernel: str, seed: int, n_procs: int = 30,
                       horizon: float = 300.0) -> list:
    """A soup whose processes file deferred callbacks and race timers,
    then withdraw them at random: pending ones in every queue structure
    (zero delay, same bucket, far future), ones that already ran, and
    ones due at the current instant."""
    env = Environment(kernel=kernel)
    trace = []
    handles = []
    gates = [env.event() for _ in range(n_procs)]

    def fire(me, tag):
        trace.append(("fire", me, tag, env.now))

    def delay_for(rng):
        roll = rng.random()
        if roll < 0.2:
            return 0.0
        if roll < 0.4:
            return rng.randrange(1, 20) * DEFAULT_BUCKET_MS
        if roll < 0.8:
            return rng.random() * 2.0
        return 20.0 + rng.random() * 200.0

    def proc(env, me):
        rng = random.Random(seed * 1000 + me)
        for step in range(40):
            roll = rng.random()
            if roll < 0.45:
                handles.append(env.defer(delay_for(rng), fire, me, step))
            elif roll < 0.75 and handles:
                handles[rng.randrange(len(handles))].cancel()
            elif roll < 0.9:
                gate = gates[rng.randrange(n_procs)]
                timer = env.timeout(delay_for(rng))
                outcome = yield env.any_of([gate, timer])
                if gate in outcome:
                    timer.cancel()
                trace.append(("race", me, step, gate in outcome, env.now))
                continue
            elif not gates[me].triggered:
                gates[me].succeed(step)
            yield env.timeout(delay_for(rng))
            trace.append(("wake", me, step, env.now))

    for i in range(n_procs):
        env.process(proc(env, i))
    env.run(until=horizon)
    trace.append(("events", env.events_processed, len(env.queued())))
    env.run()
    trace.append(("drained", env.now, env.events_processed))
    return trace


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_soup_with_random_cancels_identical(seed):
    assert _cancel_soup_trace("heap", seed) == _cancel_soup_trace(
        "calendar", seed)


def _outlasting_run(system: str) -> tuple:
    """A few calls, then idle well past the ZooKeeper client's 3 s call
    deadline and the DepSpace client's 1 s retransmit timer."""
    from tests.recipe_helpers import make_ensemble, run_all

    ens = make_ensemble(system)
    env = ens.env
    client = ens.client()
    if system == "zk":
        def calls():
            yield from client.connect()
            for i in range(20):
                yield from client.create(f"/n{i}", b"x")
                yield from client.get_data(f"/n{i}")
    else:
        def calls():
            for i in range(20):
                yield from client.out("k", i)
                yield from client.rdp("k", i)

    run_all(ens, calls())
    settled = (env.now, env.events_processed)
    env.run(until=env.now + 5000.0)
    return settled, env.events_processed, len(env.queued())


@pytest.mark.parametrize("system", ["zk", "ds"])
def test_run_outlasting_withdrawn_timers_identical(system, sim_kernel):
    results = {}
    for kernel in KERNELS:
        sim_kernel(kernel)
        results[kernel] = _outlasting_run(system)
    assert results["heap"] == results["calendar"]
