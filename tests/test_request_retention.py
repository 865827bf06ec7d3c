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

What a ZK-family replica must keep for the whole run, its log and the
leader's at-most-once table, is kept small instead: no type the log
holds carries an instance ``__dict__``, the table is two int arrays per
client that answer as the dict they replace and are rebuilt exactly
from the log on election, a removed queue element's ``DeleteTxn``
names the very string its ``CreateTxn`` holds, and the traced bytes
retained per committed write on an EZK queue run stay under a bound.
A retried update is answered from its record, looked up without
building a view of the whole log.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.depspace.bft import ExecutedIds, RequestId
from repro.depspace.protocol import DsReply
from repro.raft import RaftConfig
from repro.raft.peer import RaftEntry, RaftPeer
from repro.recipes import ExtensionQueue
from repro.sim import Callback, Event, Process, Timeout
from repro.sim.events import _Condition, _noop
from repro.zk import ZkEnsemble
from repro.zk.leases import LeaseConfig, LeaseStage, WriteGate
from repro.zk.server import ZkConfig
from repro.zk.sessions import ProposedXids
from repro.zk.txn import (ClientReply, CreateOp, CreateTxn, DeleteTxn,
                          MultiTxn, RequestMeta, SetDataOp, SetDataTxn, Txn,
                          TxnRecord)
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


# -- what the log keeps for the whole run --------------------------------------


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def test_log_types_carry_no_instance_dict():
    # Every replica keeps every record for the whole run, so a dict per
    # record (one per nested transaction and per meta, too) was most of
    # a record's size. A new subclass or a base without __slots__
    # brings it back; this catches both.
    # dataclass(slots=True) replaces each class it decorates; until a
    # collection, the dict-carrying originals still show as subclasses.
    gc.collect()
    txn_types = _subclasses(Txn)
    assert len(txn_types) >= 7, txn_types
    for cls in [TxnRecord, RaftEntry, RequestMeta, *txn_types]:
        assert cls.__dictoffset__ == 0, f"{cls.__name__} has a __dict__"


def _proposed_pairs(server) -> dict:
    return {(client, xid): zxid
            for client, xids in server._proposed_xids.items()
            for xid, zxid in xids.items()}


def _logged_pairs(server) -> dict:
    return {(record.meta.client_node, record.meta.xid): record.zxid
            for record in server.broadcast.log if record.meta is not None}


@pytest.mark.parametrize("kernel", ["zab", "raft"])
def test_at_most_once_table_after_failover_is_the_log(kernel):
    config = ZkConfig(kernel=kernel)
    if kernel == "raft":
        config.raft = RaftConfig(seed=7)
    ens = ZkEnsemble(n_replicas=3, seed=7, config=config)
    ens.start()
    old = ens.leader
    clients = [ens.client(replica=node) for node in ens.replica_ids
               if node != old.node_id]
    connect(ens, clients)

    def writes(tag):
        for i, client in enumerate(clients):
            yield from client.create(f"/{tag}{i}", b"0")
            for k in range(5):
                yield from client.set_data(f"/{tag}{i}", b"%d" % k)

    run_all(ens, writes("a"))
    assert _proposed_pairs(old) == _logged_pairs(old)
    old.crash()

    def elected():
        while ens.leader in (None, old):
            yield ens.env.timeout(1.0)

    run_all(ens, elected())
    new = ens.leader
    # Rebuilt on election: the old leadership's sessions and writes.
    inherited = _logged_pairs(new)
    assert len(inherited) == 2 + 12
    assert _proposed_pairs(new) == inherited
    # Extended on propose: this leadership's writes join the same table.
    run_all(ens, writes("b"))
    assert len(_logged_pairs(new)) == 2 + 24
    assert _proposed_pairs(new) == _logged_pairs(new)
    assert all(new._proposed_xids.values())


#: Traced bytes a committed write may leave live on an EZK queue run:
#: three replica logs, the leader's at-most-once table and the tree's
#: own bookkeeping. Plain dataclass records and a tuple-keyed table
#: left about 776 B per write here; slotted ones about 551 B; one
#: string per znode path, no process-wide path cache and an int-array
#: table about 479 B. The bound is that plus 10%.
_RETAINED_BYTES_PER_WRITE = 530


def test_retained_bytes_per_committed_write():
    ens = make_ensemble("ezk")
    coords, _raw = make_coords(ens, "ezk", 2)
    producer, consumer = (ExtensionQueue(c) for c in coords)
    run_all(ens, producer.setup(register=True))
    run_all(ens, consumer.setup(register=False))

    def produce(n):
        for i in range(n):
            yield from producer.add(b"%d" % i)

    def consume(n):
        for _ in range(n):
            yield from consumer.remove()

    # Warm up first, so one-off allocations (caches, first-seen sizers,
    # interned paths) are not billed to the measured writes.
    run_all(ens, produce(20), consume(20))
    gc.collect()
    committed = len(ens.leader.broadcast.log)
    tracemalloc.start()
    try:
        run_all(ens, produce(250), consume(250))
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    writes = len(ens.leader.broadcast.log) - committed
    assert writes == 500
    assert retained / writes < _RETAINED_BYTES_PER_WRITE, retained / writes


#: Xids around the table's edges: repeats, gaps and out-of-order inserts.
_XIDS = st.integers(min_value=-3, max_value=30)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_XIDS, st.integers(min_value=0,
                                             max_value=(1 << 40)),
                          st.booleans()), max_size=80))
def test_proposed_xids_answer_exactly_as_a_dict(steps):
    table, reference = ProposedXids(), {}
    for xid, zxid, probe_first in steps:
        if probe_first:
            assert table.get(xid) == reference.get(xid)
            assert table.get(xid, -1) == reference.get(xid, -1)
        table[xid] = zxid
        reference[xid] = zxid
        assert len(table) == len(reference)
    for xid in range(-4, 32):
        assert table.get(xid) == reference.get(xid)
    assert dict(table.items()) == reference
    assert [xid for xid, _zxid in table.items()] == sorted(reference)


def test_queue_delete_names_the_string_its_create_holds():
    ens = make_ensemble("ezk")
    coords, _raw = make_coords(ens, "ezk", 2)
    producer, consumer = (ExtensionQueue(c) for c in coords)
    run_all(ens, producer.setup(register=True))
    run_all(ens, consumer.setup(register=False))

    def produce():
        for i in range(30):
            yield from producer.add(b"%d" % i)

    def consume():
        for _ in range(30):
            yield from consumer.remove()

    run_all(ens, produce(), consume())
    for server in ens.servers:
        created, deleted = {}, []
        for record in server.broadcast.log:
            txn = record.txn
            subs = txn.txns if isinstance(txn, MultiTxn) else [txn]
            for sub in subs:
                if isinstance(sub, CreateTxn):
                    created[sub.path] = sub.path
                elif isinstance(sub, DeleteTxn):
                    deleted.append(sub.path)
        assert len(deleted) == 30
        assert all(path is created[path] for path in deleted)


def _failed_over(kernel):
    """A three-replica ensemble that wrote from two follower clients,
    lost its leader, and elected a new one."""
    config = ZkConfig(kernel=kernel)
    if kernel == "raft":
        config.raft = RaftConfig(seed=7)
    ens = ZkEnsemble(n_replicas=3, seed=7, config=config)
    ens.start()
    old = ens.leader
    clients = [ens.client(replica=node) for node in ens.replica_ids
               if node != old.node_id]
    connect(ens, clients)

    def writes():
        for i, client in enumerate(clients):
            yield from client.create(f"/d{i}", b"0")
            yield from client.set_data(f"/d{i}", b"1")

    run_all(ens, writes())
    old.crash()

    def elected():
        while ens.leader in (None, old):
            yield ens.env.timeout(1.0)

    run_all(ens, elected())
    run_all(ens, clients[0].set_data("/d0", b"2"))
    return ens


@pytest.mark.parametrize("kernel", ["zab", "raft"])
def test_record_lookup_is_the_log_entry(kernel):
    ens = _failed_over(kernel)
    for server in ens.servers:
        log = server.broadcast.log
        assert len({record.zxid for record in log}) == len(log) > 4
        for record in log:
            assert server.broadcast.record(record.zxid) is record
        last = log[-1].zxid
        # Past the end, before the start, and the right counter under
        # another epoch: none is a record.
        for absent in (last + 1, 0, log[1].zxid + (7 << 32)):
            assert server.broadcast.record(absent) is None


@pytest.mark.parametrize("kernel", ["zab", "raft"])
def test_duplicate_after_failover_is_answered_from_its_record(
        kernel, monkeypatch):
    ens = _failed_over(kernel)
    new = ens.leader
    answers, views = [], []
    monkeypatch.setattr(new, "_succeed", lambda meta, value, zxid:
                        answers.append((meta, value, zxid)))
    if kernel == "raft":
        log_view = RaftPeer.log

        def counted(peer):
            views.append(peer)
            return log_view.fget(peer)

        monkeypatch.setattr(RaftPeer, "log", property(counted))
    # Updates the old leadership proposed, retried through the new one.
    inherited = [record for record in new.broadcast.log
                 if record.meta is not None
                 and isinstance(record.txn, (CreateTxn, SetDataTxn))
                 and record.zxid <= new._applied_zxid]
    assert len(inherited) >= 4
    views.clear()
    for record in inherited:
        txn, meta = record.txn, record.meta
        retry = RequestMeta(new.node_id, meta.client_node, meta.session_id,
                            meta.xid)
        op = (CreateOp(txn.path, b"0") if isinstance(txn, CreateTxn)
              else SetDataOp(txn.path, b"9"))
        new._prep(retry, op)
        value = (txn.path if isinstance(txn, CreateTxn)
                 else new.tree.exists(txn.path))
        assert answers == [(retry, value, record.zxid)]
        answers.clear()
    assert not views, "the duplicate path built a view of the whole log"
