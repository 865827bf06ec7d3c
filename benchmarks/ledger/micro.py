"""Microbenchmarks: a few public functions timed directly.

Each returns the median of a handful of rounds, so one preempted round
does not set the number. They run once per traced run, after the
workload, and exist to tell a host change from a code change
(``bare_events_per_wall_s``) and to price single layers in isolation.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro.core import ExtensionManager, MemoryState, OperationRequest
from repro.recipes import QUEUE_EXT
from repro.sim import Environment, Network

__all__ = ["run_micro"]

ROUNDS = 5


def _median_s(fn: Callable[[], None]) -> float:
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def bare_events_per_wall_s(chains: int = 64, horizon_ms: float = 300.0) -> float:
    """The event kernel with no model code: ``chains`` callbacks that
    re-arm themselves through ``Environment.defer`` at staggered
    sub-millisecond periods, drained by ``Environment.run``."""
    events = 0

    def spin():
        nonlocal events
        env = Environment()
        defer = env.defer

        def make(period: float):
            def fire():
                defer(period, fire)
            return fire

        for i in range(chains):
            period = 0.05 + (i % 20) * 0.037
            defer(period * (i + 1) / chains, make(period))
        env.run(until=horizon_ms)
        events = env.events_processed

    seconds = _median_s(spin)
    return events / seconds


def send_us(messages: int = 20_000) -> float:
    """Wall µs per ``Network.send`` plus its delivery, two bare nodes."""
    def pingpong():
        env = Environment()
        net = Network(env, seed=1)
        left = messages

        def on_b(src, msg):
            net.send("b", "a", msg)

        def on_a(src, msg):
            nonlocal left
            left -= 1
            if left > 0:
                net.send("a", "b", msg)

        net.register("a", on_a)
        net.register("b", on_b)
        net.send("a", "b", ("ping", 1, b"x" * 64))
        env.run()

    # One round trip is two sends and two deliveries.
    return _median_s(pingpong) / (2 * messages) * 1e6


def extension_us(execs: int = 2_000) -> Dict[str, float]:
    """Register (cold: parse + verify + compile; cached: instantiate
    only) and execute the queue extension on a ``MemoryState``."""
    # A source no run has registered yet, so the process-wide compile
    # cache cannot already hold it.
    source = QUEUE_EXT + f"\n# ledger-micro {time.perf_counter_ns()}\n"
    manager = ExtensionManager()
    start = time.perf_counter()
    manager.register("queue-remove", source, "owner")
    cold = time.perf_counter() - start
    cached = _median_s(lambda: manager.register("queue-remove", source,
                                                "owner"))

    record = manager.get("queue-remove")
    request = OperationRequest("read", "/queue/head", "owner")

    def run_execs():
        # An 8-element queue, topped up before every removal: the
        # number prices the sandbox round trip, not MemoryState's scan.
        state = MemoryState()
        state.create("/queue")
        for i in range(8):
            state.create(f"/queue/e{i:06d}", b"payload")
        for i in range(8, 8 + execs):
            state.create(f"/queue/e{i:06d}", b"payload")
            manager.execute_operation(record, request, state)

    return {
        "ext.register_cold_us": cold * 1e6,
        "ext.register_cached_us": cached * 1e6,
        "ext.exec_us": _median_s(run_execs) / execs * 1e6,
    }


def run_micro() -> Dict[str, float]:
    out = {
        "sim.kernel.bare_events_per_wall_s": bare_events_per_wall_s(),
        "sim.network.send_us": send_us(),
    }
    out.update(extension_us())
    return out
