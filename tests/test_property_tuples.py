"""Property-based tests for tuple matching and the tuple space."""

from hypothesis import given, settings, strategies as st

from repro.depspace import ANY, Prefix, TupleSpace, matches

_FIELDS = st.one_of(
    st.text(alphabet="abc/", max_size=6),
    st.integers(min_value=-5, max_value=5),
    st.binary(max_size=3),
    st.booleans(),
    st.none(),
)
_TUPLES = st.lists(_FIELDS, min_size=1, max_size=4).map(tuple)


@settings(max_examples=200)
@given(_TUPLES)
def test_concrete_tuple_matches_itself(entry):
    assert matches(entry, entry)


@settings(max_examples=200)
@given(_TUPLES)
def test_all_any_template_matches_everything(entry):
    template = tuple(ANY for _ in entry)
    assert matches(template, entry)


@settings(max_examples=200)
@given(_TUPLES, st.integers(min_value=0, max_value=3))
def test_single_any_generalizes(entry, index):
    index = index % len(entry)
    template = tuple(ANY if i == index else f
                     for i, f in enumerate(entry))
    assert matches(template, entry)


@settings(max_examples=200)
@given(_TUPLES, _TUPLES)
def test_length_mismatch_never_matches(a, b):
    if len(a) != len(b):
        assert not matches(a, b)


@settings(max_examples=200)
@given(st.text(alphabet="ab/", max_size=5), st.text(alphabet="ab/", max_size=8))
def test_prefix_semantics(prefix, value):
    template = (Prefix(prefix),)
    assert matches(template, (value,)) == value.startswith(prefix)


class _NaiveSpace:
    """List-based model of the tuple space."""

    def __init__(self):
        self.items = []

    def out(self, entry):
        self.items.append(tuple(entry))

    def rdp(self, template):
        for item in self.items:
            if matches(template, item):
                return item
        return None

    def inp(self, template):
        for i, item in enumerate(self.items):
            if matches(template, item):
                return self.items.pop(i)
        return None

    def rdall(self, template):
        return [item for item in self.items if matches(template, item)]

    def cas(self, template, entry):
        if self.rdp(template) is not None:
            return False
        self.out(entry)
        return True

    def replace(self, template, entry):
        old = self.inp(template)
        if old is not None:
            self.out(entry)
        return old


_SPACE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("out"), _TUPLES),
        st.tuples(st.just("rdp"), _TUPLES),
        st.tuples(st.just("inp"), _TUPLES),
        st.tuples(st.just("rdall"), _TUPLES),
    ),
    max_size=40,
)

# Templates that reach every index path: a str first field (bucket), a
# Prefix first field (name range, Prefix("") and prefixes ending in the
# highest code point included), ANY anywhere (full scan or tail test),
# and True/1/1.0 first fields sharing one bucket. The small alphabets
# make collisions, and so matches, common; the pairs of neighbouring
# code points put names right at the edge of a prefix range.
_NAMES = st.text(alphabet=st.sampled_from(
    ["a", "b", "/", "\u00e9", "\uffff", "\U00010000", "\U0010fffe",
     "\U0010ffff"]), max_size=3)
_MODEL_FIELDS = st.one_of(
    _NAMES,
    st.sampled_from([0, 1, True, False, 1.0, -1, None, b"", b"a"]),
)
_MODEL_TUPLES = st.lists(_MODEL_FIELDS, min_size=1, max_size=3).map(tuple)
_PATTERNS = st.one_of(_MODEL_FIELDS, st.just(ANY), st.builds(Prefix, _NAMES))
_TEMPLATES = st.one_of(
    _MODEL_TUPLES,
    st.tuples(_PATTERNS).flatmap(
        lambda head: st.lists(_PATTERNS, max_size=2).map(
            lambda tail: head + tuple(tail))),
)

_MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("out"), _MODEL_TUPLES),
        st.tuples(st.sampled_from(["rdp", "inp", "rdall"]), _TEMPLATES),
        st.tuples(st.sampled_from(["cas", "replace"]),
                  st.tuples(_TEMPLATES, _MODEL_TUPLES)),
    ),
    max_size=50,
)


def _check_against_model(ops):
    space = TupleSpace()
    model = _NaiveSpace()
    for op, arg in ops:
        if op == "out":
            space.out(arg)
            model.out(arg)
        elif op in ("cas", "replace"):
            assert getattr(space, op)(*arg) == getattr(model, op)(*arg)
        else:
            assert getattr(space, op)(arg) == getattr(model, op)(arg)
    assert sorted(map(repr, space)) == sorted(map(repr, model.items))


@settings(max_examples=100, deadline=None)
@given(_SPACE_OPS)
def test_space_matches_naive_model(ops):
    _check_against_model(ops)


@settings(max_examples=300, deadline=None)
@given(_MODEL_OPS)
def test_index_paths_match_naive_model(ops):
    """Index-aware matching agrees with the naive ``matches`` scan on
    wildcard, prefix, unicode, bool-vs-int and mixed-arity templates."""
    _check_against_model(ops)


@settings(max_examples=100, deadline=None)
@given(_SPACE_OPS)
def test_snapshot_restore_preserves_behaviour(ops):
    space = TupleSpace()
    for op, arg in ops:
        if op == "out":
            space.out(arg)
        elif op == "inp":
            space.inp(arg)
    clone = TupleSpace()
    clone.restore(space.snapshot())
    assert clone.fingerprint() == space.fingerprint()
    probe = (ANY,)
    assert clone.rdall(probe) == space.rdall(probe)
