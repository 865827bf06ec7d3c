"""Unit tests for writes laid over a DataTree under a savepoint.

The leader's prep writes a ``MultiOp`` this way, and EZK's state proxy
writes an extension run this way: the tree is written directly while an
undo log keeps each touched node as it was, and the batch is then kept
(``release``) or undone (``rollback``) as a whole.
"""

import pytest

from repro.zk import (BadVersionError, DataTree, NodeExistsError, NoNodeError,
                      NotEmptyError)


@pytest.fixture
def base():
    tree = DataTree()
    tree.create("/a", b"base", zxid=1, now=1.0)
    tree.create("/a/x", zxid=2)
    tree.create("/q", zxid=3)
    tree.create("/q/e-", sequential=True, zxid=4)
    tree.create("/s", zxid=5)
    tree.create("/s/eph", ephemeral_owner=7, zxid=6)
    tree.savepoint()
    return tree


def _state(tree):
    """Everything a rollback must restore: nodes and ephemeral index."""
    nodes = {path: (node.data, node.stat.copy(), sorted(node.children),
                    node.sequence_counter, node.path)
             for path, node in tree._nodes.items()}
    return nodes, {owner: set(paths)
                   for owner, paths in tree._ephemerals.items()}


def test_reads_fall_through(base):
    assert base.get_data("/a")[0] == b"base"
    assert base.get_children("/a") == ["x"]
    assert base.exists("/missing") is None


def test_rollback_restores_data_and_stat(base):
    before = _state(base)
    base.set_data("/a", b"new", zxid=9, now=2.0)
    assert base.get_data("/a")[0] == b"new"
    base.rollback()
    assert _state(base) == before
    assert base.get_data("/a") == (b"base", before[0]["/a"][1])


def test_create_visible_to_overlay_reads(base):
    base.create("/a/y", b"fresh")
    assert base.get_data("/a/y")[0] == b"fresh"
    assert base.get_children("/a") == ["x", "y"]
    base.rollback()
    assert "/a/y" not in base
    assert base.get_children("/a") == ["x"]


def test_delete_hides_node(base):
    base.delete("/a/x")
    assert base.exists("/a/x") is None
    assert base.get_children("/a") == []
    base.rollback()
    assert base.exists("/a/x") is not None
    assert base.get_children("/a") == ["x"]


def test_delete_then_recreate(base):
    before = _state(base)
    base.delete("/a/x")
    base.create("/a/x", b"again")
    assert base.get_data("/a/x")[0] == b"again"
    base.rollback()
    assert _state(base) == before


def test_version_checks_respect_overlay_writes(base):
    base.set_data("/a", b"v1")  # version -> 1
    with pytest.raises(BadVersionError):
        base.set_data("/a", b"v2", version=0)
    base.set_data("/a", b"v2", version=1)


def test_sequential_create_uses_overlay_counter(base):
    first = base.create("/q/e-", sequential=True)
    second = base.create("/q/e-", sequential=True)
    assert first.endswith("0000000001")
    assert second.endswith("0000000002")
    base.rollback()
    assert base.node("/q").sequence_counter == 1
    assert base.create("/q/e-", sequential=True).endswith("0000000001")


def test_create_duplicate_of_base_node_rejected(base):
    with pytest.raises(NodeExistsError):
        base.create("/a/x")


def test_delete_with_overlay_children_rejected(base):
    base.create("/q/child")
    with pytest.raises(NotEmptyError):
        base.delete("/q")


def test_delete_missing_raises(base):
    with pytest.raises(NoNodeError):
        base.delete("/ghost")


def test_create_under_deleted_parent_rejected(base):
    base.delete("/a/x")
    base.delete("/a")
    with pytest.raises(NoNodeError):
        base.create("/a/z")


def test_rollback_restores_the_ephemeral_index(base):
    before = _state(base)
    base.delete("/s/eph")
    base.create("/s/mine", ephemeral_owner=8)
    base.create("/s/eph", ephemeral_owner=9)
    assert base.ephemerals_of(7) == []
    assert base.ephemerals_of(9) == ["/s/eph"]
    base.rollback()
    assert _state(base) == before
    assert base.ephemerals_of(7) == ["/s/eph"]
    assert base.ephemerals_of(8) == base.ephemerals_of(9) == []


def test_rollback_restores_deleted_subtree_and_parent(base):
    before = _state(base)
    base.delete("/a/x")
    base.delete("/a")
    base.rollback()
    assert _state(base) == before


def test_release_keeps_writes(base):
    base.create("/a/y", b"1")
    base.set_data("/a/y", b"2")
    base.delete("/a/x")
    kept = _state(base)
    base.release()
    assert _state(base) == kept
    assert base.get_children("/a") == ["y"]
    base.rollback()   # nothing open: nothing to undo
    assert _state(base) == kept


def test_savepoints_do_not_nest(base):
    with pytest.raises(RuntimeError):
        base.savepoint()
