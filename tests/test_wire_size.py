"""The flat wire sizer against the recursive reference walk.

``estimate_size`` sizes dataclasses with one flat, per-class cached
function (fixed-width fields folded into a constant, ASCII strings sized
inline, nested values sized by their type's cached sizer). Every
simulated latency and every byte counter depends on it, so it must
return exactly what the plain recursive walk below returns, for every
dataclass the protocol modules define.
"""

import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import repro.depspace
import repro.raft
import repro.zk
from repro.depspace import ANY, Prefix
from repro.sim import estimate_size

#: annotation -> bytes for fields whose cost is fixed by their type.
_FIXED = {"int": 8, "float": 8, "bool": 1, int: 8, float: 8, bool: 1}


def reference_size(obj) -> int:
    """The recursive walk ``estimate_size`` must agree with."""
    size = getattr(obj, "wire_size", None)
    if callable(size):
        return int(size())
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, bytes):
        return 4 + len(obj)
    if isinstance(obj, str):
        return 4 + len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 4 + sum(reference_size(item) for item in obj)
    if isinstance(obj, dict):
        return 4 + sum(reference_size(k) + reference_size(v)
                       for k, v in obj.items())
    if dataclasses.is_dataclass(obj):
        return 2 + sum(_FIXED.get(f.type)
                       or reference_size(getattr(obj, f.name))
                       for f in dataclasses.fields(obj))
    return 16


def _message_classes():
    names = ["repro.core.broadcast"]
    for package in (repro.zk, repro.depspace, repro.raft):
        names += [f"{package.__name__}.{info.name}"
                  for info in pkgutil.iter_modules(package.__path__)]
    classes = []
    for name in names:
        module = importlib.import_module(name)
        classes += [value for value in vars(module).values()
                    if isinstance(value, type)
                    and dataclasses.is_dataclass(value)
                    and value.__module__ == name]
    return sorted(classes, key=lambda cls: f"{cls.__module__}.{cls.__name__}")


_TEXT = st.one_of(st.text(alphabet="abz/-09", max_size=8),
                  st.text(max_size=5))           # non-ASCII, astral planes
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
                    st.floats(allow_nan=False), st.binary(max_size=6), _TEXT,
                    st.just(ANY), st.builds(Prefix, _TEXT))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(_TEXT, max_size=3),
        st.dictionaries(_TEXT, inner, max_size=2)),
    max_leaves=6)
_BASIC = {"int": st.integers(-2**40, 2**40),
          "float": st.floats(allow_nan=False), "bool": st.booleans(),
          "str": _TEXT, "bytes": st.binary(max_size=6)}
_WRAPPERS = {
    "Optional[": lambda inner: st.none() | inner,
    "List[": lambda inner: st.lists(inner, max_size=3),
    "Set[": lambda inner: st.sets(inner, max_size=3),
    "Tuple[": lambda inner: st.lists(inner, max_size=3).map(tuple),
}


def _strategy(annotation, module, depth):
    """Values for one field, steered by its (string) annotation."""
    text = annotation if isinstance(annotation, str) else getattr(
        annotation, "__name__", str(annotation))
    for prefix, wrap in _WRAPPERS.items():
        if text.startswith(prefix) and text.endswith("]"):
            inner = text[len(prefix):-1].split(",")[0].strip()
            return wrap(_strategy(inner, module, depth))
    if text in _BASIC:
        return _BASIC[text]
    target = getattr(module, text, None)
    if dataclasses.is_dataclass(target) and depth < 2:
        return _instances(target, depth + 1)
    if depth >= 2:
        return _VALUES
    # Untyped fields carry nested messages and containers of tuples too.
    return st.one_of(
        _VALUES,
        st.sampled_from(_CLASSES).flatmap(lambda cls: _instances(cls, 2)),
        st.lists(st.tuples(_TEXT, _VALUES), max_size=3).map(tuple))


def _instances(cls, depth=0):
    module = importlib.import_module(cls.__module__)
    fields = {f.name: _strategy(f.type, module, depth)
              for f in dataclasses.fields(cls)
              if f.init and not f.name.startswith("_")}
    return st.builds(cls, **fields)


_CLASSES = _message_classes()


def test_every_protocol_module_contributes():
    modules = {cls.__module__ for cls in _CLASSES}
    assert {"repro.depspace.bft", "repro.depspace.protocol", "repro.zk.zab",
            "repro.zk.txn", "repro.raft.peer"} <= modules


@pytest.mark.parametrize("cls", _CLASSES,
                         ids=[f"{c.__module__}.{c.__name__}" for c in _CLASSES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_flat_sizer_matches_reference_walk(cls, data):
    message = data.draw(_instances(cls))
    assert estimate_size(message) == reference_size(message)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_plain_values_match_reference_walk(value):
    assert estimate_size(value) == reference_size(value)
