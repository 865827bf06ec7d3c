"""A settled request leaves nothing reachable from the event queue.

Every request/reply wait files a timer that a fast reply beats: a
deadline callback (``arm_deadline``: ZooKeeper calls and re-establish
probes), a retransmit timer raced in an ``AnyOf`` (the DepSpace
client), a lease grant timeout, or a held commit's lease-term release.
The owner withdraws the timer once the reply wins, so it leaves the
queue: it never fires and is never counted.

Each scenario drives a few hundred settled calls while a sampler walks
every pending queue entry (calendar wheel, snapshot, ``extra`` and
``imm``, or the heap) every few simulated milliseconds. A walk follows
what an entry holds through callback arguments, containers, partials
and conditions, and fails on a processed ``Event``, a fired
``WriteGate`` (a released commit hold), or a reply message. It stops at objects of the program
(servers, clients, in-flight network deliveries): a message on the wire
is not a settled request. No sample may find a lease grant timeout
whose parked read was already answered, and once the workload is done
the queue must hold no dead entry either: a cancelled callback, or a
timer nothing waits on, either of which could only fire as a no-op.

The PBFT replica's at-most-once record is bounded the same way, by a
per-client watermark (``ExecutedIds``); a property test pins that it
answers exactly as the set of executed ids it replaces.
"""

from __future__ import annotations

import functools
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.depspace.bft import ExecutedIds, RequestId
from repro.depspace.protocol import DsReply
from repro.recipes import ExtensionQueue
from repro.sim import Callback, Event, Process, Timeout
from repro.sim.events import _Condition, _noop
from repro.zk.leases import LeaseConfig, LeaseStage, WriteGate
from repro.zk.server import ZkConfig
from repro.zk.txn import ClientReply
from tests.recipe_helpers import make_coords, make_ensemble, run_all

KERNELS = ("calendar", "heap")

SETTLED_REPLIES = (ClientReply, DsReply)


def _held_by(obj) -> list:
    """What a walk descends into from ``obj`` (nothing for leaves)."""
    if isinstance(obj, Callback):
        return [obj.fn, *obj.args]
    if isinstance(obj, (tuple, list, set, frozenset)):
        return list(obj)
    if isinstance(obj, dict):
        return [*obj.keys(), *obj.values()]
    if isinstance(obj, functools.partial):
        return [obj.func, *obj.args, *obj.keywords.values()]
    if isinstance(obj, types.MethodType):
        # A condition's observer holds the condition; any other bound
        # method belongs to a long-lived component.
        return [obj.__self__] if isinstance(obj.__self__, _Condition) else []
    if isinstance(obj, Process):
        return []
    if isinstance(obj, Event):
        # An unprocessed event's value is legitimately awaited; what
        # matters is who it would still notify.
        held = list(obj.callbacks or ())
        if isinstance(obj, _Condition):
            held.extend(obj.events)
        return held
    return []


def _settled(obj) -> bool:
    return ((isinstance(obj, Event) and obj.processed)
            or (isinstance(obj, WriteGate) and obj.fired)
            or isinstance(obj, SETTLED_REPLIES))


def settled_held(env) -> list:
    """``(entry, settled object)`` for every settled object still
    reachable from a pending queue entry."""
    found = []
    for entry in env.queued():
        seen = set()
        stack = _held_by(entry)
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if _settled(obj):
                found.append((entry, obj))
                continue
            stack.extend(_held_by(obj))
    return found


def dead_entries(env) -> list:
    """Queued entries that can only fire as no-ops: cancelled callbacks
    and timers nothing waits on."""
    return [entry for entry in env.queued()
            if (isinstance(entry, Callback) and entry.fn is _noop)
            or (isinstance(entry, Timeout) and not entry.callbacks)]


def orphaned_grant_timeouts(env) -> list:
    """Lease grant timeouts whose parked read was already answered: a
    timer nothing waits on, though it holds only an int key."""
    return [entry for entry in env.queued()
            if isinstance(entry, Callback)
            and getattr(entry.fn, "__func__", None)
            is LeaseStage._grant_timeout
            and entry.args[0] not in entry.fn.__self__.waits]


class QueueSampler:
    """Walks the queue every ``period_ms`` until stopped."""

    def __init__(self, env, period_ms: float = 5.0):
        self.env = env
        self.samples = 0
        self.held: list = []
        self.orphans = 0
        self._stopped = False
        env.process(self._run(period_ms))

    def _run(self, period_ms: float):
        while not self._stopped:
            yield self.env.timeout(period_ms)
            self.check()

    def check(self) -> None:
        self.samples += 1
        self.held.extend(settled_held(self.env))
        self.orphans += len(orphaned_grant_timeouts(self.env))

    def finish(self) -> None:
        self.check()
        self._stopped = True
        assert self.samples > 10
        described = sorted({
            f"{getattr(entry, 'fn', entry)!r} holds {type(obj).__name__}"
            for entry, obj in self.held})
        assert not self.held, "\n".join(described[:10])
        assert not self.orphans
        dead = dead_entries(self.env)
        assert not dead, sorted({repr(getattr(entry, "fn", entry))
                                 for entry in dead})[:10]


@pytest.fixture(params=KERNELS)
def kernel(request, sim_kernel):
    sim_kernel(request.param)
    return request.param


def connect(ensemble, clients) -> None:
    def connect_all():
        for client in clients:
            yield from client.connect()

    run_all(ensemble, connect_all())


def test_zk_lease_gates_and_reconnect_probes(kernel):
    ens = make_ensemble("zk", config=ZkConfig(leases=LeaseConfig()))
    leader = ens.leader.node_id
    followers = [r for r in ens.replica_ids if r != leader]
    readers = [ens.client(replica=followers[0], cached_reads=True),
               ens.client(replica=leader, cached_reads=True)]
    writer = ens.client(replica=leader)
    roamer = ens.client(replica=followers[1], resilient=True)
    connect(ens, readers + [writer, roamer])
    sampler = QueueSampler(ens.env)

    def workload():
        yield from writer.create("/k", b"0")
        for i in range(100):
            for reader in readers:
                yield from reader.get_data("/k")
                yield from reader.get_data("/k")
            yield from writer.set_data("/k", b"%d" % i)
            yield from roamer.exists("/k")

    run_all(ens, workload())
    # Commits were held behind revocation, and the acks released them.
    assert sum(r._cache.stats["revokes"] for r in readers) > 0

    # The roamer's replica dies: it re-establishes elsewhere with a
    # ping probe (no watches to re-arm) and then finishes its call.
    ens.server(followers[1]).crash()
    run_all(ens, roamer.get_data("/k"))
    assert roamer.replica != followers[1]
    sampler.finish()


def test_ezk_queue(kernel):
    ens = make_ensemble("ezk")
    coords, _raw = make_coords(ens, "ezk", 2)
    producer, consumer = (ExtensionQueue(c) for c in coords)
    run_all(ens, producer.setup(register=True))
    run_all(ens, consumer.setup(register=False))
    sampler = QueueSampler(ens.env)

    def produce():
        for i in range(150):
            yield from producer.add(b"%d" % i)

    def consume():
        for _ in range(150):
            yield from consumer.remove()

    run_all(ens, produce(), consume())
    sampler.finish()


@pytest.mark.parametrize("kind", ["ds", "eds"])
def test_ds_family_retransmit_races(kernel, kind):
    ens = make_ensemble(kind)
    coords, _raw = make_coords(ens, kind, 2)
    sampler = QueueSampler(ens.env)

    def worker(coord, tag):
        for i in range(75):
            yield from coord.create(f"{tag}{i}", b"x")
            assert (yield from coord.read(f"{tag}{i}")) == b"x"

    run_all(ens, worker(coords[0], "a"), worker(coords[1], "b"))
    sampler.finish()


#: Seqs around the watermark's edge: below 1, repeats, gaps, reordering.
_SEQS = st.integers(min_value=-2, max_value=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from("abc"), _SEQS),
                max_size=120))
def test_executed_ids_answer_exactly_as_a_set(steps):
    executed, reference = ExecutedIds(), set()
    for is_add, client, seq in steps:
        request_id = RequestId(client, seq)
        if is_add:
            executed.add(request_id)
            reference.add(request_id)
        assert (request_id in executed) == (request_id in reference)
    for client in "abc":
        for seq in range(-2, 42):
            request_id = RequestId(client, seq)
            assert (request_id in executed) == (request_id in reference)
    assert set(executed) == reference
    # A snapshot's ids rebuild the same record.
    rebuilt = ExecutedIds(set(executed))
    assert set(rebuilt) == reference
