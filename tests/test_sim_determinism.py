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
