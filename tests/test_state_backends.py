"""One state contract, three backends.

``MemoryState`` (the reference), EZK's buffered proxy (which writes the
tree under a savepoint and commits its write set as one
multi-transaction) and EDS's direct undo-logged proxy must agree, op by
op, on return values and exception classes, and after every extension
run on the objects' contents and ``sub_objects`` order — including
after a ``rollback()``, which must leave the pre-extension state.

The generator follows EZK's hierarchy discipline, which the flat
backends do not enforce: parents exist before their children, only
leaves are deleted, ``sub_objects`` lists an existing parent, and
``monitor`` takes numeric (session) client ids. A committed run creates
at most one object per parent: ZooKeeper stamps every node of one
multi-transaction with the same zxid, so their relative age is not
recorded (rolled-back runs are free of that limit).
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BudgetedState, MemoryState, SandboxLimits
from repro.depspace import ANY, DsReplica, LeaseRecord, Prefix
from repro.depspace.bft import RequestId
from repro.eds import DsDirectState, EdsEnsemble
from repro.ezk import ZkBufferedState
from repro.sim import Environment, Network
from repro.zk import DataTree

# -- the three backends, behind one harness interface -------------------------


class MemoryBackend:
    def __init__(self):
        self.state = MemoryState()

    def begin(self, rollback):
        # The reference has no undo log: a run that will be rolled back
        # executes on a copy, so the original stays the pre-run state.
        return copy.deepcopy(self.state) if rollback else self.state

    def finish(self, proxy, rollback):
        pass

    def view(self):
        return {r.object_id: r.data for r in self.state.sub_objects("/")}

    def proxy(self):
        return self.state


class ZkBackend:
    def __init__(self):
        self.tree = DataTree()
        self.zxid = 0

    def begin(self, rollback):
        # Each run is one multi-transaction with a zxid of its own.
        self.zxid += 1
        return ZkBufferedState(self.tree, self.zxid)

    def finish(self, proxy, rollback):
        if rollback:
            proxy.rollback()
            assert proxy.to_multi_txn().txns == []
            return
        proxy.to_multi_txn()

    def view(self):
        return {path: self.tree.get_data(path)[0]
                for path in self.tree.paths() if path != "/"}

    def proxy(self):
        # A reader between runs: its savepoint closes at once.
        proxy = ZkBufferedState(self.tree)
        self.tree.release()
        return proxy


def make_replica():
    env = Environment()
    return DsReplica(env, Network(env), "solo", ["solo", "x1", "x2", "x3"])


class DsBackend:
    def __init__(self):
        self.replica = make_replica()

    def begin(self, rollback):
        return self.proxy()

    def finish(self, proxy, rollback):
        if rollback:
            proxy.rollback()

    def view(self):
        return dict(self.replica.space().rdall((ANY, ANY)))

    def proxy(self):
        return DsDirectState(self.replica, "1", ts=1.0, events=[])


# -- abstract ops --------------------------------------------------------------

_PARENTS = ("/p", "/q")
_CHILDREN = tuple(f"{parent}/{leaf}" for parent in _PARENTS
                  for leaf in ("a", "b", "c"))
_IDS = st.sampled_from(_PARENTS + _CHILDREN)
_DATA = st.sampled_from([b"", b"x", b"y"])

_OP = st.one_of(
    st.tuples(st.just("create"), _IDS, _DATA),
    st.tuples(st.just("delete"), _IDS),
    st.tuples(st.just("read"), _IDS),
    st.tuples(st.just("exists"), _IDS),
    st.tuples(st.just("update"), _IDS, _DATA),
    st.tuples(st.just("cas"), _IDS, _DATA, _DATA),
    st.tuples(st.just("sub_objects"), st.sampled_from(_PARENTS)),
    st.tuples(st.just("monitor"), st.sampled_from(["1", "2", "3"]),
              st.sampled_from(_CHILDREN), _DATA),
)
#: Objects created one committed run each before the runs under test,
#: so the runs meet populated directories of distinct ages.
_SETUP = st.lists(st.sampled_from(_CHILDREN), unique=True, max_size=6)
#: (ops, rolled back?) per extension run.
_RUNS = st.lists(st.tuples(st.lists(_OP, min_size=1, max_size=8),
                           st.booleans()),
                 min_size=1, max_size=5)


def _parent(object_id):
    return object_id.rsplit("/", 1)[0] or "/"


def _allowed(op, reference, created_under, rollback):
    """EZK's hierarchy discipline, judged on the reference's state."""
    kind = op[0]
    object_id = op[2] if kind == "monitor" else op[1]
    parent = _parent(object_id)
    if kind in ("create", "monitor"):
        if parent != "/" and not reference.exists(parent):
            return False
        return rollback or parent not in created_under
    if kind == "delete" and object_id in _PARENTS:
        return not reference.sub_objects(object_id)
    if kind == "sub_objects":
        return reference.exists(object_id)
    return True


def _apply(proxy, op):
    """Outcome of one op: ("ok", normalised result) or ("raise", class)."""
    kind, args = op[0], op[1:]
    try:
        result = getattr(proxy, kind)(*args)
    except Exception as exc:  # the class is the outcome under comparison
        return ("raise", type(exc))
    if kind == "sub_objects":
        result = [(r.object_id, r.data) for r in result]
    return ("ok", result)


def _check_same_state(backends):
    views = [backend.view() for backend in backends]
    assert views[1] == views[0], "EZK diverged from the reference"
    assert views[2] == views[0], "EDS diverged from the reference"
    for parent in _PARENTS:
        if parent in views[0]:
            orders = [[r.object_id for r in backend.proxy().sub_objects(parent)]
                      for backend in backends]
            assert orders[1] == orders[0] and orders[2] == orders[0], orders


@settings(max_examples=300, deadline=None)
@given(_SETUP, _RUNS)
def test_backends_agree(setup, runs):
    backends = [MemoryBackend(), ZkBackend(), DsBackend()]
    seeded = []
    for child in setup:
        for object_id in (_parent(child), child):
            if object_id not in seeded:
                seeded.append(object_id)
    runs = [([("create", object_id, b"s")], False)
            for object_id in seeded] + runs
    for ops, rollback in runs:
        proxies = [backend.begin(rollback) for backend in backends]
        created_under = set()
        for op in ops:
            if not _allowed(op, proxies[0], created_under, rollback):
                continue
            outcomes = [_apply(proxy, op) for proxy in proxies]
            assert outcomes[1] == outcomes[0], (op, outcomes)
            assert outcomes[2] == outcomes[0], (op, outcomes)
            if op[0] in ("create", "monitor") and outcomes[0][0] == "ok":
                created_under.add(_parent(op[2] if op[0] == "monitor"
                                          else op[1]))
        for backend, proxy in zip(backends, proxies):
            backend.finish(proxy, rollback)
        _check_same_state(backends)


# -- named regressions: EDS and the reference used to disagree -----------------


def _queue(replica):
    space = replica.space()
    for name in ("/q/a", "/q/b", "/q/c"):
        space.out((name, b"v"))


def _order(replica):
    proxy = DsDirectState(replica, "1", ts=1.0, events=[])
    return [r.object_id for r in proxy.sub_objects("/q")]


def test_eds_undo_of_delete_keeps_the_queue_head():
    replica = make_replica()
    _queue(replica)
    proxy = DsDirectState(replica, "1", ts=1.0, events=[])
    proxy.delete("/q/a")
    proxy.rollback()
    assert _order(replica) == ["/q/a", "/q/b", "/q/c"]


def test_eds_update_keeps_creation_order():
    replica = make_replica()
    _queue(replica)
    proxy = DsDirectState(replica, "1", ts=1.0, events=[])
    proxy.update("/q/a", b"w")
    assert _order(replica) == ["/q/a", "/q/b", "/q/c"]
    proxy.rollback()
    assert _order(replica) == ["/q/a", "/q/b", "/q/c"]
    assert replica.space().rdp(("/q/a", ANY)) == ("/q/a", b"v")


def test_eds_update_keeps_a_monitored_objects_lease():
    replica = make_replica()
    space = replica.space()
    space.out(("/clients/7", b""), lease=LeaseRecord("other", 500.0))
    proxy = DsDirectState(replica, "1", ts=1.0, events=[])
    proxy.update("/clients/7", b"busy")
    lease = space.lease_of(("/clients/7", b"busy"))
    assert lease is not None and lease.owner == "other"
    # The object still dies with its client.
    assert space.purge_expired(600.0) == [("/clients/7", b"busy")]


CHANGED_WATCHER = '''
class OnChange(Extension):
    def event_subscriptions(self):
        return [EventSubscription(("created", "changed", "deleted"), "/ctr")]

    def handle_event(self, event, local):
        local.create("/seen/" + event.event_type + "/" + event.data.decode())
'''

INCREMENT = '''
class Increment(Extension):
    def ops_subscriptions(self):
        return [OperationSubscription(("read",), "/ctr-increment")]

    def handle_operation(self, request, local):
        local.update("/ctr", b"1")
        return 1
'''


def test_eds_update_raises_a_changed_notice():
    ensemble = EdsEnsemble(f=1, seed=3)
    ensemble.start()
    client = ensemble.client()

    def scenario():
        yield from client.out("/ctr", b"0")
        yield from client.register_extension("watch", CHANGED_WATCHER)
        yield from client.register_extension("inc", INCREMENT)
        yield from client.rdp("/ctr-increment", ANY)
        yield ensemble.env.timeout(100.0)

    ensemble.env.run(until=ensemble.env.process(scenario()))
    space = ensemble.replica("eds0").space()
    seen = [name for name, _data in space.rdall((Prefix("/seen/"), ANY))]
    assert seen == ["/seen/changed/1"]
    assert ensemble.spaces_consistent()


# -- EZK's side of the contract ------------------------------------------------


def test_zk_rollback_drops_the_buffered_write_set():
    tree = DataTree()
    tree.create("/a", b"old", zxid=1)
    zk = ZkBufferedState(tree)
    zk.update("/a", b"new")
    zk.create("/b")
    zk.block("/gate")
    zk.rollback()
    assert zk.to_multi_txn().txns == [] and zk.block_path is None
    assert zk.read("/a") == b"old" and not zk.exists("/b")


@pytest.mark.parametrize("make", [MemoryBackend, ZkBackend, DsBackend])
def test_overlay_creation_order_survives_delete_and_recreate(make):
    """Within one run, a path deleted and created again is the youngest."""
    backend = make()
    proxy = backend.begin(rollback=False)
    proxy.create("/q")
    proxy.create("/q/b")
    proxy.create("/q/a")
    proxy.delete("/q/a")
    proxy.delete("/q/b")
    proxy.create("/q/b")
    proxy.create("/q/a")
    assert [r.object_id for r in proxy.sub_objects("/q")] == ["/q/b", "/q/a"]


# -- the budgeted proxy an extension's ``local`` is, over each backend ---------

BACKENDS = [MemoryBackend, ZkBackend, DsBackend]


@pytest.mark.parametrize("make", BACKENDS)
def test_budgeted_cas_charges_one_op_per_call(make):
    local = BudgetedState(make().begin(rollback=False), SandboxLimits())
    local.create("/c", b"old")
    assert local.cas("/c", b"old", b"new") is True          # hit
    assert local.cas("/c", b"old", b"newer") is False       # miss
    assert local.state_ops == 3
    assert local.read("/c") == b"new"


def _operation_proxy(backend):
    """The proxy an operation extension runs on (EDS blocks only there)."""
    if isinstance(backend, DsBackend):
        return DsDirectState(backend.replica, "1", ts=1.0, events=[],
                             request_id=RequestId("1", 1))
    return backend.begin(rollback=False)


def _parked_on(backend, proxy):
    if isinstance(backend, MemoryBackend):
        return proxy.blocked_on
    if isinstance(backend, ZkBackend):
        return [proxy.block_path]
    assert proxy.blocked
    return [w.op.template[0] for w in backend.replica._waiters["main"]]


@pytest.mark.parametrize("make", BACKENDS)
def test_budgeted_block_parks_on_a_missing_object(make):
    backend = make()
    proxy = _operation_proxy(backend)
    local = BudgetedState(proxy, SandboxLimits())
    local.block("/gate")
    assert local.state_ops == 1
    assert _parked_on(backend, proxy) == ["/gate"]
