"""Property-based tests: DataTree vs. a naive model, savepoints under
the EZK state proxy (rollback and write-set replay)."""

import copy

from hypothesis import given, settings, strategies as st

from repro.core import CoordStateError
from repro.ezk import ZkBufferedState
from repro.zk import DataTree, ZkError
from repro.zk.server import _apply_txn_to_tree

# Small path alphabet so operations actually collide.
_NAMES = ("a", "b", "c")
_PATHS = tuple(
    f"/{x}" for x in _NAMES
) + tuple(
    f"/{x}/{y}" for x in _NAMES for y in _NAMES
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(_PATHS),
                  st.binary(max_size=4)),
        st.tuples(st.just("set"), st.sampled_from(_PATHS),
                  st.binary(max_size=4)),
        st.tuples(st.just("delete"), st.sampled_from(_PATHS),
                  st.just(b"")),
    ),
    max_size=30,
)


def _apply_model(model, op, path, data):
    """Naive dict model: path -> data, with parent/child checks."""
    parent = path.rsplit("/", 1)[0] or "/"
    children = [p for p in model if p != path and p.startswith(path + "/")]
    if op == "create":
        if path in model or (parent != "/" and parent not in model):
            raise KeyError
        model[path] = data
    elif op == "set":
        if path not in model:
            raise KeyError
        model[path] = data
    elif op == "delete":
        if path not in model or children:
            raise KeyError
        del model[path]


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_tree_matches_naive_model(ops):
    tree = DataTree()
    model = {}
    for op, path, data in ops:
        tree_failed = model_failed = False
        try:
            if op == "create":
                tree.create(path, data)
            elif op == "set":
                tree.set_data(path, data)
            else:
                tree.delete(path)
        except ZkError:
            tree_failed = True
        try:
            _apply_model(model, op, path, data)
        except KeyError:
            model_failed = True
        assert tree_failed == model_failed, (op, path)
    for path, data in model.items():
        assert tree.get_data(path)[0] == data
    assert len(tree) == len(model) + 1  # the root


def _seeded_tree() -> DataTree:
    tree = DataTree()
    tree.create("/a", b"seed", zxid=1)
    tree.create("/a/b", b"eph", ephemeral_owner=5, zxid=2)
    tree.create("/c", zxid=3)
    return tree


def _run_proxy(proxy, ops) -> None:
    """Drive an EZK state proxy with ``ops``; failures are skipped."""
    for op, path, data in ops:
        try:
            if op == "create":
                proxy.create(path, data)
            elif op == "set":
                proxy.update(path, data)
            else:
                proxy.delete(path)
        except CoordStateError:
            pass


def _nodes(tree) -> dict:
    return {path: (node.data, node.stat, sorted(node.children),
                   node.sequence_counter)
            for path, node in tree._nodes.items()}


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_write_set_replay_reproduces_released_tree(ops):
    """A proxy's write set, replayed on a snapshot of the pre-run tree
    under the run's zxid, reproduces the tree the run released."""
    tree = _seeded_tree()
    replay = DataTree()
    replay.restore(tree.snapshot())
    proxy = ZkBufferedState(tree, zxid=9, now=2.0)
    _run_proxy(proxy, ops)
    _apply_txn_to_tree(replay, proxy.to_multi_txn(), zxid=9, now=2.0)
    assert _nodes(replay) == _nodes(tree)
    assert replay.fingerprint() == tree.fingerprint()
    for owner in (5, 6):
        assert replay.ephemerals_of(owner) == tree.ephemerals_of(owner)


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_rollback_restores_every_node(ops):
    tree = _seeded_tree()
    fingerprint, nodes = tree.fingerprint(), copy.deepcopy(_nodes(tree))
    proxy = ZkBufferedState(tree, zxid=9, now=2.0)
    _run_proxy(proxy, ops)
    proxy.rollback()
    assert tree.fingerprint() == fingerprint
    assert _nodes(tree) == nodes
    assert tree.ephemerals_of(5) == ["/a/b"]


@settings(max_examples=40, deadline=None)
@given(_OPS)
def test_snapshot_restore_identity(ops):
    tree = DataTree()
    for op, path, data in ops:
        try:
            if op == "create":
                tree.create(path, data)
            elif op == "set":
                tree.set_data(path, data)
            else:
                tree.delete(path)
        except ZkError:
            pass
    clone = DataTree()
    clone.restore(tree.snapshot())
    assert clone.fingerprint() == tree.fingerprint()
    assert sorted(clone.paths()) == sorted(tree.paths())
