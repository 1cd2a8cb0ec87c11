from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcat.diagrams import (
    MINUS,
    PLUS,
    BrauerMorphism,
    ObjectMismatch,
    close_up,
    compose,
    rotate,
    tensor,
    transpose,
)
from loopcat.fincat import (
    BoundaryDatum,
    FreeBoundary,
    FreeMonoidCategory,
    Loop,
    MonoidCategory,
    symmetric_group,
)
from oracles import (
    FormalSum,
    antisymmetrizer,
    cap,
    closed_diagram,
    cup,
    identity_diagram,
    ket,
    perm_diagram,
    perm_sign,
    sum_compose,
)

S3 = symmetric_group(3)
CAT = MonoidCategory(S3)
X = 0  # the unique object


def empty_diagram() -> BrauerMorphism:
    return BrauerMorphism(CAT, (), (), [])


# --- tensor ------------------------------------------------------------------


def test_tensor_unit() -> None:
    d = cup(CAT, 3)
    assert tensor(d, empty_diagram()) == d
    assert tensor(empty_diagram(), d) == d


def test_tensor_two_cups() -> None:
    d = tensor(cup(CAT, 1), cup(CAT, 2))
    assert d.source == ()
    assert len(d.target) == 4
    assert d.arcs == ((1, 0, 1), (3, 2, 2))


def test_tensor_associative() -> None:
    a, b, c = cup(CAT, 1), cap(CAT, 2), identity_diagram(CAT, ((X, PLUS),))
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


# --- compose -----------------------------------------------------------------


def test_cap_after_cup_is_a_loop() -> None:
    g, h = 1, 2
    d = compose(cap(CAT, h), cup(CAT, g))
    assert d.is_closed()
    assert d.arcs == ()
    assert d.loops == (CAT.loop_class(X, [g, h]),)


def test_compose_with_identity() -> None:
    for d in (cup(CAT, 4), cap(CAT, 5), perm_diagram(CAT, X, (1, 0), [2, 3])):
        if d.target:
            assert compose(identity_diagram(CAT, d.target), d) == d
        if d.source:
            assert compose(d, identity_diagram(CAT, d.source)) == d


def test_compose_requires_matching_interface() -> None:
    with pytest.raises(ObjectMismatch):
        compose(cap(CAT, 0), identity_diagram(CAT, ((X, PLUS),)))


ENTRY_CHECKS = {
    "perm": (lambda: perm_diagram(CAT, X, (0, 0)), "not a permutation"),
    "tensor-cat": (lambda: tensor(cup(CAT, 0), cup(OTHER_CAT, 0)),
                   "tensor across different categories"),
    "tensor-boundary": (lambda: tensor(cup(CAT, 0), cup(CAT, 0, TRIVIAL)),
                        "tensor across different boundary data"),
    "compose-cat": (lambda: compose(cap(OTHER_CAT, 0), cup(CAT, 0)),
                    "compose across different categories"),
    "sum-shapes": (lambda: FormalSum([(cup(CAT, 0), 1), (cap(CAT, 0), 1)]),
                   "mixed shapes in a sum"),
    "antisym-n": (lambda: antisymmetrizer(CAT, X, -1),
                  "antisymmetrizer needs n >= 0"),
}
OTHER_CAT = MonoidCategory(S3)
TRIVIAL = BoundaryDatum(CAT, {X: []}, {X: []}, lambda m, g: g,
                        lambda m, g: g)


@pytest.mark.parametrize("name", sorted(ENTRY_CHECKS))
def test_entry_checks_raise_value_error(name) -> None:
    make, message = ENTRY_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        make()


def test_half_interval_absorbs_arc() -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    g = fm.word("a")
    beta = fm.word("b")
    strand = BrauerMorphism(fm, ((0, PLUS),), ((0, PLUS),), [(0, 1, beta)],
                            boundary=fb)
    out = compose(strand, ket(fm, fb, 0, g))
    assert out == ket(fm, fb, 0, fm.word("ab"))


def test_closed_composition_is_multiset_union() -> None:
    l1 = CAT.loop_class(X, [1])
    l2 = CAT.loop_class(X, [3])
    d1 = closed_diagram(CAT, loops=[l1, l1])
    d2 = closed_diagram(CAT, loops=[l2])
    assert compose(d2, d1).loops == tuple(sorted([l1, l1, l2], key=repr))


# --- random diagrams on the shape (+,-) -> (+,-) ------------------------------


def _two_strand(matching: bool, lab1: int, lab2: int) -> BrauerMorphism:
    """All diagrams of the endomorphism shape ((X,+),(X,-)): either two
    through-strands or a bottom cap with a top cup."""
    seq = ((X, PLUS), (X, MINUS))
    if matching:
        arcs = [(0, 2, lab1), (3, 1, lab2)]  # through strands
    else:
        arcs = [(0, 1, lab1), (3, 2, lab2)]  # cap below, cup above
    return BrauerMorphism(CAT, seq, seq, arcs)


two_strands = st.builds(_two_strand, st.booleans(),
                        st.integers(0, 5), st.integers(0, 5))
FREE = FreeMonoidCategory("ab")
FREE_WORDS = FreeBoundary(FREE)
WORD_STRAND = BrauerMorphism(FREE, ((X, PLUS),), ((X, PLUS),),
                             [(0, 1, FREE.word("b"))], boundary=FREE_WORDS)


# the example closes a right element, the word strand and a left element:
# one bracketing absorbs the label into the right element, the other into
# the left one
@given(two_strands, two_strands, two_strands)
@example(ket(FREE, FREE_WORDS, X, FREE.word("a")), WORD_STRAND,
         transpose(ket(FREE, FREE_WORDS, X, FREE.word("ab"))))
@settings(max_examples=120)
def test_composition_associative(a, b, c) -> None:
    assert compose(c, compose(b, a)) == compose(compose(c, b), a)


@given(two_strands, two_strands, two_strands, two_strands)
@settings(max_examples=60)
def test_interchange_law(a, b, c, d) -> None:
    lhs = compose(tensor(a, b), tensor(c, d))
    rhs = tensor(compose(a, c), compose(b, d))
    assert lhs == rhs


# --- antisymmetrizer ----------------------------------------------------------


def test_antisymmetrizer_small() -> None:
    e1 = antisymmetrizer(CAT, X, 1)
    assert e1 == FormalSum.lift(identity_diagram(CAT, ((X, PLUS),)))
    e2 = antisymmetrizer(CAT, X, 2)
    assert len(e2) == 2
    ident = perm_diagram(CAT, X, (0, 1))
    swap = perm_diagram(CAT, X, (1, 0))
    assert e2.terms[ident] == 1 and e2.terms[swap] == -1
    e3 = antisymmetrizer(CAT, X, 3)
    assert len(e3) == 6
    assert sum(e3.terms.values()) == 0
    assert e3.terms[perm_diagram(CAT, X, (1, 2, 0))] == 1  # 3-cycle is even


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_antisymmetrizer_idempotent_up_to_factorial(n: int) -> None:
    import math

    e = antisymmetrizer(CAT, X, n)
    assert sum_compose(e, e) == e.scale(math.factorial(n))


def test_perm_sign_matches_inversion_parity() -> None:
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


# --- close_up -----------------------------------------------------------------


def test_close_up_identity() -> None:
    d = close_up(identity_diagram(CAT, ((X, PLUS),)))
    assert d.is_closed()
    assert d.loops == (CAT.loop_class(X, []),)


def test_close_up_swap_traces_the_two_cycle() -> None:
    g1, g2 = 1, 4
    d = perm_diagram(CAT, X, (1, 0), [g1, g2])
    got = close_up(d)
    # oracle: one loop, the cyclic product of both labels
    assert got.loops == (CAT.loop_class(X, [g2, g1]),)


def test_close_up_equals_nested_caps_and_cups() -> None:
    # trace(d) = caps o (d tensor dual-identity) o cups, nested matching
    d = perm_diagram(CAT, X, (1, 0), [2, 5])
    n = 2
    dual = ((X, MINUS),) * n
    cups = BrauerMorphism(CAT, (), ((X, PLUS),) * n + dual,
                          [(3, 0, S3.identity), (2, 1, S3.identity)])
    caps = BrauerMorphism(CAT, ((X, PLUS),) * n + dual, (),
                          [(0, 3, S3.identity), (1, 2, S3.identity)])
    nested = compose(caps, compose(tensor(d, identity_diagram(CAT, dual)), cups))
    assert close_up(d) == nested


def test_close_up_linearity() -> None:
    e2 = antisymmetrizer(CAT, X, 2)
    closed = e2.map_diagrams(close_up)
    ident_loops = close_up(perm_diagram(CAT, X, (0, 1)))
    swap_loops = close_up(perm_diagram(CAT, X, (1, 0)))
    assert closed == FormalSum([(ident_loops, 1), (swap_loops, -1)])


@given(st.permutations(list(range(4))),
       st.lists(st.integers(0, 5), min_size=4, max_size=4))
@settings(max_examples=60)
def test_close_up_one_loop_per_cycle(sigma, labels) -> None:
    d = perm_diagram(CAT, X, tuple(sigma), labels)
    got = close_up(d)
    # oracle: walk sigma's cycles directly, multiplying labels along the way
    seen = set()
    expect = []
    for start in range(4):
        if start in seen:
            continue
        cyc_labels = []
        i = start
        while i not in seen:
            seen.add(i)
            cyc_labels.append(labels[sigma[i]])
            i = sigma[i]
        expect.append(CAT.loop_class(X, cyc_labels))
    assert sorted(got.loops, key=repr) == sorted(expect, key=repr)


# --- transpose ----------------------------------------------------------------


def test_transpose_cup_is_cap() -> None:
    assert transpose(cup(CAT, 3)) == cap(CAT, 3)
    assert transpose(transpose(cap(CAT, 2))) == cap(CAT, 2)


def test_pairing_through_transpose() -> None:
    g, h = 2, 3
    pairing = compose(transpose(cup(CAT, h)), cup(CAT, g))
    assert pairing.loops == (CAT.loop_class(X, [g, h]),)


def test_rotate_cup_matches_transpose() -> None:
    # on a single cup the half-turn and the flip agree
    assert rotate(cup(CAT, 4)) == transpose(cup(CAT, 4))


def test_rotate_swaps_through_strand_labels() -> None:
    f = _two_strand(True, 2, 3)
    assert rotate(f) == _two_strand(True, 3, 2)


@given(two_strands)
def test_rotate_is_an_involution(d) -> None:
    assert rotate(rotate(d)) == d


@given(two_strands, two_strands)
@settings(max_examples=80)
def test_rotate_is_contravariant(a, b) -> None:
    assert rotate(compose(b, a)) == compose(rotate(a), rotate(b))
