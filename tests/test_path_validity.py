"""A tree checks a path against what it holds, and accepts exactly what
``validate_path`` accepts.

``DataTree`` skips the full check for a path it holds (it passed when
its node was created) and checks only the last component of a child of
a held path; nothing is cached between calls. It is checked bare and as
an overlay: with writes laid over it under an open savepoint, as the
leader's prep and EZK's state proxy write it.
Every entry point must still accept exactly the paths
:func:`~repro.zk.data_tree.validate_path` accepts, raise
``BadArgumentsError`` for any other before ``NoNodeError`` or
``NodeExistsError``, and, for a well-formed path, answer from the
tree's contents alone. ``validate_path`` is the oracle, and a small
model of which paths exist gives the answer for a well-formed one.
``DataTree.children_nodes``, the state proxy's bulk read, checks no
path: it raises ``NoNodeError`` for any path the tree does not hold,
and ``ZkBufferedState.sub_objects`` validates such a path before it
answers ``NoObjectError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import NoObjectError
from repro.ezk import ZkBufferedState
from repro.zk import (BadArgumentsError, DataTree, NodeExistsError,
                      NoNodeError, NotEmptyError)
from repro.zk.data_tree import parent_of, validate_path

#: Held by the base tree of every case.
_BASE = ("/a", "/a/b", "/a/b/c", "/x", "/a.b")
#: Created (and deleted) under a savepoint over that base.
_CREATED = ("/a/n", "/a/n/m")
_DELETED = ("/x",)

_COMPONENTS = st.sampled_from(
    ["a", "b", "c", "n", "m", "x", "a.b", "new", "", ".", "..", "..."])
_BUILT = st.builds(
    lambda lead, parts, trail: lead + "/".join(parts) + trail,
    st.sampled_from(["/", "", "//"]),
    st.lists(_COMPONENTS, max_size=4),
    st.sampled_from(["", "", "/"]))
_PATHS = st.one_of(
    st.sampled_from(("/",) + _BASE + _CREATED + ("/a/b/new", "/new")),
    _BUILT,
    st.text(alphabet="/a.", max_size=7))


def _well_formed(path: str) -> bool:
    try:
        validate_path(path)
    except BadArgumentsError:
        return False
    return True


def _base_tree() -> DataTree:
    tree = DataTree()
    for path in _BASE:
        tree.create(path, b"v")
    return tree


def _overlay() -> DataTree:
    overlay = _base_tree()
    overlay.savepoint()
    for path in _CREATED:
        overlay.create(path, b"v")
    for path in _DELETED:
        overlay.delete(path)
    return overlay


#: What the base tree holds, and what the overlay over it holds.
_HELD_BASE = frozenset({"/", *_BASE})
_HELD_OVERLAY = (_HELD_BASE | set(_CREATED)) - set(_DELETED)


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raise", type(exc))


def _expected(entry: str, path: str, held: set):
    """What the entry point answers for a well-formed ``path``."""
    present = path in held
    missing = ("raise", NoNodeError)
    if entry == "exists":
        return "ok" if present else ("ok", None)
    if entry in ("get_data", "get_children", "set_data"):
        return "ok" if present else missing
    if entry == "delete":
        if path == "/":
            return ("raise", BadArgumentsError)
        if not present:
            return missing
        has_children = any(p.startswith(path + "/") for p in held)
        return ("raise", NotEmptyError) if has_children else "ok"
    if entry in ("create", "create_sequential"):
        if path == "/":
            return ("raise", BadArgumentsError)
        if parent_of(path) not in held:
            return missing
        if present and entry == "create":
            return ("raise", NodeExistsError)
        return "ok"
    raise AssertionError(entry)


_ENTRIES = {
    "exists": lambda view, path: view.exists(path),
    "get_data": lambda view, path: view.get_data(path),
    "get_children": lambda view, path: view.get_children(path),
    "set_data": lambda view, path: view.set_data(path, b"w"),
    "delete": lambda view, path: view.delete(path),
    "create": lambda view, path: view.create(path, b"w"),
    "create_sequential": lambda view, path: view.create(path, b"w",
                                                        sequential=True),
}


def _check(view_factory, entry: str, call, path: str) -> None:
    view = view_factory()
    got = _outcome(lambda: call(view, path))
    if not _well_formed(path):
        assert got == ("raise", BadArgumentsError), (entry, path, got)
        return
    held = _HELD_OVERLAY if view_factory is _overlay else _HELD_BASE
    want = _expected(entry, path, held)
    if want == "ok":
        assert got[0] == "ok", (entry, path, got)
        if entry == "exists":
            assert got[1] is not None, (entry, path)
    else:
        assert got == want, (entry, path, got)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@settings(max_examples=150, deadline=None)
@given(path=_PATHS)
def test_data_tree_accepts_exactly_the_well_formed_paths(entry, path):
    _check(_base_tree, entry, _ENTRIES[entry], path)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@settings(max_examples=150, deadline=None)
@given(path=_PATHS)
def test_overlay_accepts_exactly_the_well_formed_paths(entry, path):
    _check(_overlay, entry, _ENTRIES[entry], path)


@settings(max_examples=300, deadline=None)
@given(path=_PATHS)
def test_children_nodes_checks_no_path(path):
    overlay = _overlay()
    got = _outcome(lambda: overlay.children_nodes(path))
    if path in _HELD_OVERLAY:
        assert got[0] == "ok", (path, got)
    else:
        assert got == ("raise", NoNodeError), (path, got)


@settings(max_examples=300, deadline=None)
@given(object_id=_PATHS, mutated=st.booleans())
def test_sub_objects_accepts_exactly_the_well_formed_paths(object_id,
                                                           mutated):
    state = ZkBufferedState(_base_tree())
    if mutated:
        for path in _CREATED:
            state.create(path, b"v")
        for path in _DELETED:
            state.delete(path)
    held = _HELD_OVERLAY if mutated else _HELD_BASE
    base = object_id.rstrip("/") or "/"
    got = _outcome(lambda: state.sub_objects(object_id))
    if not _well_formed(base):
        assert got == ("raise", BadArgumentsError), (object_id, got)
    elif base in held:
        children = sorted(p for p in held
                          if p != "/" and parent_of(p) == base)
        assert got[0] == "ok", (object_id, got)
        assert sorted(r.object_id for r in got[1]) == children
    else:
        assert got == ("raise", NoObjectError), (object_id, got)


def test_malformed_paths_are_named_cases():
    tree, overlay = _base_tree(), _overlay()
    for path in ("", "a", "a/b", "//", "//a", "/a//b", "/a/", "/a/b/",
                 "/.", "/..", "/a/.", "/a/..", "/a/../b", "/a/./b"):
        for view in (tree, overlay):
            for call in _ENTRIES.values():
                with pytest.raises(BadArgumentsError):
                    call(view, path)


def test_child_listing_hands_on_the_keys_the_tree_holds():
    tree = _overlay()
    keys = {path: path for path in tree.paths()}
    for node in tree.children_nodes("/a"):
        assert node.path is keys[node.path]
