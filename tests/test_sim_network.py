"""Unit tests for the simulated network and size estimation."""

import dataclasses

import pytest

from repro.sim import (MESSAGE_HEADER_BYTES, Environment, LatencyModel,
                       Network, estimate_size)


@dataclasses.dataclass
class Ping:
    payload: bytes


def make_net(jitter=0.0, **kwargs):
    env = Environment()
    net = Network(env, latency=LatencyModel(jitter_ms=jitter), **kwargs)
    return env, net


def test_message_delivery_and_latency():
    env, net = make_net()
    inbox = []
    net.register("b", lambda src, msg: inbox.append((env.now, src, msg)))
    net.send("a", "b", Ping(b"x"))
    env.run()
    assert len(inbox) == 1
    when, src, msg = inbox[0]
    assert src == "a"
    assert msg.payload == b"x"
    assert when > 0.0


def test_latency_scales_with_size():
    env, net = make_net()
    times = []
    net.register("b", lambda src, msg: times.append(env.now))
    net.send("a", "b", Ping(b""))
    env.run()
    small = times[-1]

    env2, net2 = make_net()
    times2 = []
    net2.register("b", lambda src, msg: times2.append(env2.now))
    net2.send("a", "b", Ping(b"x" * 100_000))
    env2.run()
    assert times2[-1] > small


def test_bytes_billed_to_sender():
    env, net = make_net()
    net.register("b", lambda src, msg: None)
    billed = net.send("a", "b", Ping(b"abcd"))
    assert billed == net.bytes_sent["a"]
    assert billed >= MESSAGE_HEADER_BYTES + 4
    assert net.msgs_sent["a"] == 1
    env.run()
    assert net.bytes_received["b"] == billed


def test_bytes_billed_even_when_dropped():
    env, net = make_net()
    net.register("b", lambda src, msg: None)
    net.crash("b")
    billed = net.send("a", "b", Ping(b"abcd"))
    assert billed > 0
    env.run()
    assert net.bytes_received["b"] == 0


def test_crashed_node_receives_nothing():
    env, net = make_net()
    inbox = []
    net.register("b", lambda src, msg: inbox.append(msg))
    net.crash("b")
    net.send("a", "b", Ping(b""))
    env.run()
    assert inbox == []
    net.recover("b")
    net.send("a", "b", Ping(b""))
    env.run()
    assert len(inbox) == 1


def test_crash_mid_flight_drops_message():
    env, net = make_net()
    inbox = []
    net.register("b", lambda src, msg: inbox.append(msg))
    net.send("a", "b", Ping(b""))
    net.crash("b")  # message is in flight; receiver crashes before delivery
    env.run()
    assert inbox == []


def test_partition_blocks_both_directions():
    env, net = make_net()
    inbox_a, inbox_b = [], []
    net.register("a", lambda src, msg: inbox_a.append(msg))
    net.register("b", lambda src, msg: inbox_b.append(msg))
    net.partition(["a"], ["b"])
    net.send("a", "b", Ping(b""))
    net.send("b", "a", Ping(b""))
    env.run()
    assert inbox_a == [] and inbox_b == []
    net.heal()
    net.send("a", "b", Ping(b""))
    env.run()
    assert len(inbox_b) == 1


def test_broadcast_bills_sum():
    env, net = make_net()
    for node in ("b", "c", "d"):
        net.register(node, lambda src, msg: None)
    total = net.broadcast("a", ["b", "c", "d"], Ping(b"zz"))
    assert total == net.bytes_sent["a"]
    assert net.msgs_sent["a"] == 3


def _no_faults(net):
    pass


def _crash(net):
    net.crash("c")


def _partition(net):
    net.partition(["a"], ["d"])


def _drop_rule(net):
    net.add_drop_rule(0.5, msg_types=[Ping], dst={"b", "e"})


def _delay_rule(net):
    net.add_delay_rule(0.3, dst="e")


def _obs_on(net):
    from repro.obs import ObsConfig, Observability
    Observability.install(net.env, ObsConfig())


def _fan_out_run(use_broadcast, fault):
    """Twelve fan-outs from "a" (one destination has no handler), with
    jitter, shrinking payloads (FIFO clamping) and an early prune."""
    env = Environment()
    net = Network(env, latency=LatencyModel(jitter_ms=0.05), seed=3)
    arrivals = []
    for node in ("b", "c", "d", "e"):
        net.register(node, lambda src, msg, node=node: arrivals.append(
            (env.now, node, src, msg.payload)))
    fault(net)
    net._sends_until_prune = 7
    dsts = ["b", "c", "ghost", "d", "e"]
    billed = []
    for i in range(12):
        msg = Ping(bytes(24 - 2 * i))
        if use_broadcast:
            billed.append(net.broadcast("a", dsts, msg))
        else:
            billed.append(sum(net.send("a", dst, msg) for dst in dsts))
        env.run(until=env.now + 0.02)
    env.run()
    counters = dict(env.obs.metrics.counters) if env.obs else None
    return (arrivals, billed, net._rng.getstate(), dict(net.bytes_sent),
            dict(net.msgs_sent), dict(net.bytes_received), counters,
            net._sends_until_prune, dict(net._last_delivery))


@pytest.mark.parametrize("fault", [_no_faults, _crash, _partition,
                                   _drop_rule, _delay_rule, _obs_on])
def test_broadcast_equals_one_send_per_destination(fault):
    assert (_fan_out_run(True, fault) == _fan_out_run(False, fault))


def test_broadcast_to_nobody_bills_nothing():
    _env, net = make_net()
    assert net.broadcast("a", [], Ping(b"x")) == 0
    assert "a" not in net.bytes_sent and "a" not in net.msgs_sent


def test_duplicate_registration_rejected():
    _env, net = make_net()
    net.register("a", lambda src, msg: None)
    with pytest.raises(ValueError):
        net.register("a", lambda src, msg: None)


def test_send_to_unknown_node_is_silent():
    env, net = make_net()
    net.send("a", "ghost", Ping(b""))
    env.run()  # no exception


def test_drop_probability_deterministic_per_seed():
    def count_delivered(seed):
        env = Environment()
        net = Network(env, latency=LatencyModel(jitter_ms=0.0), seed=seed)
        inbox = []
        net.register("b", lambda src, msg: inbox.append(msg))
        net.drop_probability = 0.5
        for _ in range(100):
            net.send("a", "b", Ping(b""))
        env.run()
        return len(inbox)

    first = count_delivered(7)
    assert first == count_delivered(7)
    assert 0 < first < 100


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(12345) == 8
        assert estimate_size(1.5) == 8
        assert estimate_size(b"abc") == 7
        assert estimate_size("abc") == 7

    def test_unicode_counts_encoded_bytes(self):
        assert estimate_size("é") == 4 + 2

    def test_containers_sum_elements(self):
        assert estimate_size([1, 2]) == 4 + 16
        assert estimate_size({"k": 1}) == 4 + (4 + 1) + 8

    def test_dataclass_sums_fields(self):
        assert estimate_size(Ping(b"abc")) == 2 + 7

    def test_wire_size_override(self):
        class Sized:
            def wire_size(self):
                return 1000

        assert estimate_size(Sized()) == 1000

    def test_nested(self):
        msg = {"ops": [Ping(b"a"), Ping(b"bb")]}
        assert estimate_size(msg) > 0
