import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import loopcat
from loopcat import fincat
from loopcat.cli import _monoid_from_json
from loopcat.fincat import (
    FiniteMonoid,
    FreeBoundary,
    FreeMonoidCategory,
    IntervalClass,
    Loop,
    MonoidCategory,
    NotComposable,
    TableCategory,
    compose_path,
    conjugacy_classes,
    cyclic_group,
    least_rotation,
    symmetric_group,
)
from oracles import BoundaryDatum
from test_pseudochar import relabeled, truncated_free_monoid


def walking_arrow() -> TableCategory:
    """Two objects, one non-identity arrow b: X -> Y."""
    morphisms = {"idX": ("X", "X"), "idY": ("Y", "Y"), "b": ("X", "Y")}
    table = {("idX", "idX"): "idX", ("idY", "idY"): "idY",
             ("b", "idX"): "b", ("idY", "b"): "b"}
    return TableCategory(["X", "Y"], morphisms, {"X": "idX", "Y": "idY"},
                         lambda m2, m1: table[(m2, m1)])


def two_object_loop_category() -> TableCategory:
    """Objects X, Y with arrows b: X->Y, c: Y->X and both composites collapsing
    to identities (an isomorphism pair)."""
    morphisms = {
        "idX": ("X", "X"), "idY": ("Y", "Y"),
        "b": ("X", "Y"), "c": ("Y", "X"),
    }
    table = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("b", "idX"): "b", ("idY", "b"): "b",
        ("c", "idY"): "c", ("idX", "c"): "c",
        ("c", "b"): "idX", ("b", "c"): "idY",
    }
    return TableCategory(["X", "Y"], morphisms, {"X": "idX", "Y": "idY"},
                         lambda m2, m1: table[(m2, m1)])


# --- monoid validation and composition --------------------------------------


def test_monoid_rejects_broken_identity() -> None:
    with pytest.raises(ValueError):
        FiniteMonoid([[0, 0], [0, 0]], 0)


def test_monoid_rejects_nonassociative_table() -> None:
    # a Latin square that is not a group table
    with pytest.raises(ValueError):
        FiniteMonoid([[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0)


def test_compose_path_in_cyclic_group() -> None:
    z3 = cyclic_group(3)
    cat = MonoidCategory(z3)
    # oracle: walk the table by hand, 1*1=2, 2*1=0
    g = 1
    assert z3.mul(z3.mul(g, g), g) == 0
    assert compose_path(cat, [g, g, g]) == 0
    assert compose_path(cat, [], at=0) == z3.identity


def test_compose_path_single_lookup() -> None:
    cat = two_object_loop_category()
    # path is in traversal order: b: X->Y first, then c: Y->X
    assert compose_path(cat, ["b", "c"]) == "idX"
    assert compose_path(cat, ["c", "b"]) == "idY"
    with pytest.raises(NotComposable):
        compose_path(cat, ["b", "b"])


def test_walking_arrow_has_no_cross_composition() -> None:
    cat = walking_arrow()
    assert cat.hom("Y", "X") == []
    assert cat.compose("b", "idX") == "b"


_ARROW = {"idX": ("X", "X"), "idY": ("Y", "Y"), "b": ("X", "Y")}
_ARROW_TABLE = {("idX", "idX"): "idX", ("idY", "idY"): "idY",
                ("b", "idX"): "b", ("idY", "b"): "b"}
# a unital magma on {0, 1, 2}, a.b = table[a][b], that is not
# associative: 1.(1.1) = 1.2 = 0, but (1.1).1 = 2.1 = 1
_NOT_ASSOCIATIVE = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]


@pytest.mark.parametrize("objects, morphisms, identities, table, message", [
    (["X", "Y"], dict(_ARROW, d=("X", "Z")), {"X": "idX", "Y": "idY"},
     _ARROW_TABLE, "morphism 'd' has unknown endpoint"),
    (["X", "Y"], _ARROW, {"X": "idX"}, _ARROW_TABLE,
     "missing or mistyped identity at 'Y'"),
    (["X", "Y"], _ARROW, {"X": "idX", "Y": "b"}, _ARROW_TABLE,
     "missing or mistyped identity at 'Y'"),
    (["X", "Y"], _ARROW, {"X": "idX", "Y": "idY"},
     {**_ARROW_TABLE, ("b", "idX"): "idY"}, "right identity fails at 'b'"),
    (["X", "Y"], _ARROW, {"X": "idX", "Y": "idY"},
     {**_ARROW_TABLE, ("idY", "b"): "idX"}, "left identity fails at 'b'"),
    (["X"], {m: ("X", "X") for m in range(3)}, {"X": 0},
     {(b, a): _NOT_ASSOCIATIVE[a][b] for a in range(3) for b in range(3)},
     "associativity fails at (1,1,1)"),
])
def test_table_category_checks_its_construction(objects, morphisms,
                                                identities, table,
                                                message) -> None:
    """Each of the construction checks raises its own message: endpoints
    are objects, every object has an identity of its own type, identities
    are two-sided, and composition is associative."""
    with pytest.raises(ValueError) as info:
        TableCategory(objects, morphisms, identities,
                      lambda m2, m1: table[(m2, m1)])
    assert str(info.value) == message


# --- conjugacy ---------------------------------------------------------------


def test_conjugacy_trivial_monoid() -> None:
    assert conjugacy_classes(FiniteMonoid([[0]], 0)) == [[0]]


def test_conjugacy_z2() -> None:
    assert conjugacy_classes(cyclic_group(2)) == [[0], [1]]


def _s3_classes_by_cycle_type() -> list[set[int]]:
    # oracle: fixed-point closure of gh ~ hg computed straight from the table,
    # independent of the union-find in the library
    s3 = symmetric_group(3)
    related = {g: {g} for g in range(6)}
    changed = True
    while changed:
        changed = False
        for g in range(6):
            for h in range(6):
                a, b = s3.mul(g, h), s3.mul(h, g)
                merged = related[a] | related[b]
                if merged != related[a] or merged != related[b]:
                    for x in merged:
                        related[x] = merged
                    changed = True
    return sorted({frozenset(v) for v in related.values()}, key=min)  # type: ignore[arg-type]


def test_conjugacy_s3() -> None:
    oracle = [set(c) for c in _s3_classes_by_cycle_type()]
    got = [set(c) for c in conjugacy_classes(symmetric_group(3))]
    assert got == oracle
    assert sorted(len(c) for c in got) == [1, 2, 3]


@given(st.integers(min_value=1, max_value=5))
def test_conjugacy_is_partition(n: int) -> None:
    m = cyclic_group(n)
    cls = conjugacy_classes(m)
    seen = sorted(x for c in cls for x in c)
    assert seen == list(range(n))


# --- loops -------------------------------------------------------------------


def test_free_monoid_loops_are_cyclic_words() -> None:
    fm = FreeMonoidCategory("ab")
    ab = [fm.word("a"), fm.word("b")]
    ba = [fm.word("b"), fm.word("a")]
    assert fm.loop_class(0, ab) == fm.loop_class(0, ba)
    assert fm.loop_class(0, [fm.word("ab")]).cycle == (0, 1)


def test_free_monoid_word_names_a_letter_outside_the_alphabet() -> None:
    fm = FreeMonoidCategory("ab")
    with pytest.raises(ValueError, match="^word 'abc' has a letter outside "
                                         "the alphabet 'ab'$"):
        fm.word("abc")


def test_two_object_loop_rotates() -> None:
    cat = two_object_loop_category()
    at_x = cat.loop_class("X", ["b", "c"])
    at_y = cat.loop_class("Y", ["c", "b"])
    assert at_x == at_y


def test_identity_loop() -> None:
    cat = two_object_loop_category()
    lp = cat.loop_class("X", ["idX"])
    assert lp == cat.loop_class("X", [])
    assert isinstance(lp, Loop)


def test_loop_and_interval_class_reprs() -> None:
    # MissingValue messages quote these texts
    assert repr(Loop(base=0, cycle=())) == "Loop(base=0, cycle=())"
    assert repr(Loop("X", ("b", "c"))) == "Loop(base='X', cycle=('b', 'c'))"
    assert repr(IntervalClass(0, (), (1,))) == \
        "IntervalClass(base=0, gl=(), gr=(1,))"


hashables = st.one_of(st.integers(-2, 2), st.text("xy", max_size=2),
                      st.tuples(st.integers(0, 2)))


@given(st.tuples(hashables, st.tuples(*[st.integers(0, 3)] * 2)),
       st.tuples(hashables, st.tuples(*[st.integers(0, 3)] * 2)),
       st.tuples(hashables, hashables, hashables),
       st.tuples(hashables, hashables, hashables))
def test_loop_and_interval_class_equality_is_by_fields(l1, l2, i1, i2) -> None:
    for cls, a, b in ((Loop, l1, l2), (IntervalClass, i1, i2)):
        assert cls(*a) == cls(*a) and hash(cls(*a)) == hash(cls(*a))
        assert (cls(*a) == cls(*b)) == (a == b)
        assert {cls(*a): 1}.get(cls(*b)) == (1 if a == b else None)
    assert Loop(*l1) != IntervalClass(*i1)
    assert Loop(0, ()) != IntervalClass(0, (), ())
    assert len({Loop(0, ()), IntervalClass(0, (), ())}) == 2


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=7))
def test_loop_rotation_invariance(letters, k) -> None:
    fm = FreeMonoidCategory("abc")
    chain = [fm.word(ch) for ch in letters]
    rotated = chain[k % len(chain):] + chain[: k % len(chain)]
    assert fm.loop_class(0, chain) == fm.loop_class(0, rotated)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=10))
def test_least_rotation_is_minimal(word) -> None:
    w = tuple(word)
    rots = [w[i:] + w[:i] for i in range(max(1, len(w)))]
    assert least_rotation(w) == min(rots)


def test_monoid_loop_class_is_conjugacy() -> None:
    s3 = symmetric_group(3)
    cat = MonoidCategory(s3)
    for cls in conjugacy_classes(s3):
        reps = {cat.loop_class(0, [g]) for g in cls}
        assert len(reps) == 1


@given(st.sampled_from(["a", "ab", "abc"]).flatmap(
    lambda letters: st.tuples(st.just(letters), st.lists(
        st.lists(st.sampled_from(letters), max_size=4).map("".join),
        max_size=4))))
def test_free_monoid_loop_class_is_the_least_rotation(case) -> None:
    """First and repeated calls give the least rotation of the
    concatenation; the repeated one, and any chain concatenating to a word
    met before, computes no rotation."""
    letters, texts = case
    fm = FreeMonoidCategory(letters)
    chain = [fm.word(t) for t in texts]
    want = Loop(0, least_rotation(fm.word("".join(texts))))
    with mock.patch.object(fincat, "least_rotation",
                           wraps=least_rotation) as spy:
        assert fm.loop_class(0, chain) == want
        assert spy.call_count == 1
        assert fm.loop_class(0, chain) == want
        assert fm.loop_class(0, [fm.word("".join(texts))]) == want
        assert fm.loop_class(0, [()] + chain) == want
        assert spy.call_count == 1


def test_free_monoid_loop_classes_store_the_rotations_paid_for() -> None:
    """Over the 511 words up to length 8 in two letters, in shortlex
    order, the least rotation runs for fewer than half of them: the first
    word met of a class stores its class under its other rotations.
    Every stored word maps to its own least rotation, and the stored
    words hold at most twice the letters met, the words themselves and
    the rotations they pay for.  A 3,000-letter word met first stores
    itself alone, not its 2,999 rotations."""
    fm = FreeMonoidCategory("ab")
    words = fm.words_up_to(8)
    with mock.patch.object(fincat, "least_rotation",
                           wraps=least_rotation) as spy:
        for w in words:
            assert fm.loop_class(0, [w]) == Loop(0, least_rotation(w))
    assert spy.call_count < len(words) // 2
    assert all(lp == Loop(0, least_rotation(w)) for w, lp in fm._loops.items())
    assert sum(map(len, fm._loops)) <= 2 * sum(map(len, words))
    fm = FreeMonoidCategory("ab")
    long_word = (0,) * 2999 + (1,)
    assert fm.loop_class(0, [long_word]) == Loop(0, long_word)
    assert list(fm._loops) == [long_word]


MONOIDS = [cyclic_group(n) for n in range(1, 6)] + [
    symmetric_group(3), truncated_free_monoid("ab", 2)[0],
    FiniteMonoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)]


@st.composite
def monoid_chains(draw):
    """A monoid, relabeled so its identity may sit anywhere, a chain of
    its elements, possibly empty, and a base object."""
    m = draw(st.sampled_from(MONOIDS))
    m = relabeled(m, draw(st.permutations(range(m.size))))
    chain = draw(st.lists(st.integers(0, m.size - 1), max_size=5))
    base = draw(st.one_of(st.just(0), st.integers(-2, 3), st.text(max_size=2)))
    return m, chain, base


@given(monoid_chains())
def test_monoid_loop_class_is_the_class_of_the_composite(case) -> None:
    """The conjugacy representative of the chain's composite at the one
    object, for an empty chain at any base too; a nonempty chain at any
    other base is not composable there."""
    m, chain, base = case
    cat = MonoidCategory(m)
    if chain and base != 0:
        with pytest.raises(NotComposable, match="does not start at"):
            compose_path(cat, chain, at=base)
        with pytest.raises(NotComposable, match="does not start at"):
            cat.loop_class(base, chain)
        return
    e = compose_path(cat, chain, at=base)
    rep = next(min(cls) for cls in conjugacy_classes(m) if e in cls)
    for _ in range(2):
        assert cat.loop_class(base, chain) == Loop(0, (rep,))
        assert cat.loop_class(base, tuple(chain)) == Loop(0, (rep,))


# --- boundary data -----------------------------------------------------------


def test_boundary_functoriality_is_checked() -> None:
    cat = walking_arrow()
    gr_sets = {"X": ["p"], "Y": ["q"]}
    gl_sets = {"X": ["u"], "Y": ["v"]}

    def gr(m, g):
        return {"idX": {"p": "p"}, "idY": {"q": "q"}, "b": {"p": "q"}}[m][g]

    def gl(m, g):
        return {"idX": {"u": "u"}, "idY": {"v": "v"}, "b": {"v": "u"}}[m][g]

    bd = BoundaryDatum(cat, gr_sets, gl_sets, gr, gl)
    # moving b across the pair: (gl(b,v), p) at X ~ (v, gr(b,p)) at Y
    assert bd.interval_class("X", "u", "p") == bd.interval_class("Y", "v", "q")

    # a datum whose identity action moves points must be rejected at load
    with pytest.raises(ValueError, match="right action violates identity"):
        BoundaryDatum(cat, gr_sets, gl_sets,
                      lambda m, g: {"p": "q", "q": "q"}.get(g, g), gl)


def test_boundary_axioms_are_checked_without_asserts() -> None:
    """Under `python -O`, the oracle `BoundaryDatum` and three package
    constructors still reject bad input, each with its exact message: a
    one-sided identity, a 1-dim nilpotent block and blocks that do not
    partition 1..m."""
    script = (
        "from loopcat.fincat import cyclic_group, MonoidCategory\n"
        "from oracles import BoundaryDatum\n"
        "assert False, 'asserts are not stripped'\n"
        "cat = MonoidCategory(cyclic_group(2))\n"
        "for gr, gl in ((lambda m, g: 1 - g, lambda m, g: g),\n"
        "               (lambda m, g: g, lambda m, g: 1 - g),\n"
        "               (lambda m, g: 0 if m else g, lambda m, g: g),\n"
        "               (lambda m, g: g, lambda m, g: 0 if m else g)):\n"
        "    try:\n"
        "        BoundaryDatum(cat, {0: [0, 1]}, {0: [0, 1]}, gr, gl)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "from loopcat.fincat import FiniteMonoid\n"
        "from loopcat.frobenius import ClassificationData\n"
        "from loopcat.statespaces import PartitionDiagram\n"
        "builds = (lambda: FiniteMonoid([[0, 1], [0, 1]], 0),\n"
        "          lambda: ClassificationData(0, 1, ()),\n"
        "          lambda: PartitionDiagram.make(2, [[1], [3]], [0, 0]))\n"
        "for build in builds:\n"
        "    try:\n"
        "        build()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n")
    src = str(Path(loopcat.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "right action violates identity", "left action violates identity",
        "right action violates composition",
        "left action violates composition",
        "ValueError identity is not two-sided",
        "Reject M1Forbidden: no algebra has a 1-dim nilpotent block",
        "ValueError blocks must partition 1..m"]


def test_free_boundary_reads_off_concatenation() -> None:
    fm = FreeMonoidCategory("xy")
    fb = FreeBoundary(fm)
    w = fm.word
    assert fb.gr(w("x"), w("y")) == w("yx")
    assert fb.gl(w("x"), w("y")) == w("xy")
    assert fb.interval_class(0, w("y"), w("x")) == fb.interval_class(0, w("xy"), ())


# --- JSON --------------------------------------------------------------------


def test_monoid_from_json() -> None:
    doc = {"monoid": {"size": 2, "identity": 0, "table": [[0, 1], [1, 0]]}}
    m = _monoid_from_json(doc["monoid"])
    assert m.mul(1, 1) == 0
    with pytest.raises(ValueError):
        _monoid_from_json({"size": 3, "identity": 0, "table": [[0, 1], [1, 0]]})
