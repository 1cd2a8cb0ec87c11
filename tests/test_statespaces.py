import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loopcat
from loopcat import statespaces
from loopcat.diagrams import (
    MINUS,
    PLUS,
    BrauerMorphism,
    compose,
    transpose,
)
from loopcat.errors import DomainError, InternalInconsistency
from loopcat.fincat import (
    FiniteMonoid,
    FreeBoundary,
    FreeMonoidCategory,
    MonoidCategory,
    TableCategory,
    cyclic_group,
    symmetric_group,
)
from loopcat.linalg import Matrix, _integral, det, rank, solve
from loopcat.statespaces import (
    COB2_MAX_SPANNING,
    MAX_KETS,
    Evaluation,
    MissingValue,
    PartitionDiagram,
    SequenceTooShort,
    WeightedAutomaton,
    cob2_spanning,
    cob2_spanning_size,
    cob2_state_space,
    enumerate_kets,
    evaluate_closed,
    evaluation_from_monoid,
    glue_partition_diagrams,
    hankel_minimize,
    ket_count,
    state_space_boolean,
    state_space_field,
)
from oracles import (BoundaryDatum, column_inverse, cup, fraction_times,
                     fraction_weight, gj_rank, rotate)

X = 0


# --- evaluation ---------------------------------------------------------------


def test_evaluate_empty_diagram_is_one() -> None:
    cat = MonoidCategory(cyclic_group(2))
    d = BrauerMorphism(cat, (), (), [])
    assert evaluate_closed(d, Evaluation()) == 1


def test_evaluate_single_loop_and_missing_value() -> None:
    cat = MonoidCategory(cyclic_group(2))
    alpha = evaluation_from_monoid(cat, [2, 0])
    d = compose(transpose(cup(cat, 1)), cup(cat, 0))  # loop of s
    assert evaluate_closed(d, alpha) == 0
    with pytest.raises(MissingValue):
        evaluate_closed(d, Evaluation())


def test_evaluate_is_multiplicative() -> None:
    fm = FreeMonoidCategory("a")
    fb = FreeBoundary(fm)
    lp = fm.loop_class(0, [fm.word("a")])
    iv = fb.interval_class(0, (), fm.word("a"))
    d = BrauerMorphism(fm, (), (), [], loops=[lp], intervals=[iv], boundary=fb)
    alpha = Evaluation({lp: Fraction(3)}, {iv: Fraction(1, 2)})
    assert evaluate_closed(d, alpha) == Fraction(3, 2)


# --- field state spaces ---------------------------------------------------------


def test_trivial_category_circle_values() -> None:
    cat = MonoidCategory(FiniteMonoid([[0]], 0))
    obj = ((X, PLUS), (X, MINUS))
    zero = state_space_field(cat, obj, evaluation_from_monoid(cat, [0]))
    assert zero.gram == Matrix([[0]])
    assert zero.dimension == 0
    two = state_space_field(cat, obj, evaluation_from_monoid(cat, [2]))
    assert two.dimension == 1


def test_z2_regular_state_space() -> None:
    # hand computation: pairing cup_g against cap_h closes into the loop of
    # g*h, so entries are alpha(e),alpha(s) arranged by parity:
    #   [e,e] -> 2   [e,s] -> 0   [s,e] -> 0   [s,s] -> 2
    cat = MonoidCategory(cyclic_group(2))
    ss = state_space_field(cat, ((X, PLUS), (X, MINUS)),
                           evaluation_from_monoid(cat, [2, 0]))
    assert len(ss.spanning) == 2
    assert ss.gram == Matrix([[2, 0], [0, 2]])
    assert ss.dimension == 2


def test_gram_symmetry_s3() -> None:
    # character values follow the lex one-line ordering of S3: identity,
    # three transpositions at indices 1,2,5, two 3-cycles at 3,4
    cat = MonoidCategory(symmetric_group(3))
    alpha = evaluation_from_monoid(cat, [2, 0, 0, -1, -1, 0])
    ss = state_space_field(cat, ((X, PLUS), (X, MINUS)), alpha)
    assert ss.gram == ss.gram.transpose()
    # translates of a degree-2 irreducible character span a 4-dim space
    assert ss.dimension == 4


def _word_evaluation(fm, fb, max_len: int,
                     mats=(Matrix([[1, 1], [0, 2]]), Matrix([[0, 1], [1, 3]]))
                     ) -> Evaluation:
    """Loop values tr(A_w) and interval values A_w[0][1] for the products
    A_w of two 2x2 matrices, by default integer ones, along the words w."""
    products = {(): Matrix.identity(2)}
    loops, intervals = {}, {}
    for w in fm.words_up_to(max_len):
        if w:
            products[w] = products[w[:-1]] * mats[w[-1]]
        a = products[w]
        loops[fm.loop_class(0, [w])] = a.trace()
        intervals[fb.interval_class(0, (), w)] = a.row(0)[1]
    return Evaluation(loops, intervals)


TWO = ((X, PLUS), (X, MINUS))
FOUR = ((X, PLUS), (X, MINUS), (X, PLUS), (X, MINUS))


@pytest.mark.parametrize("obj, cap, with_boundary", [
    (TWO, 1, False), (TWO, 2, False), (TWO, 3, False), (FOUR, 1, False),
    (FOUR, 2, False), (((X, PLUS),), 1, True), (((X, PLUS),), 3, True),
    (TWO, 1, True), (TWO, 2, True), ((), 3, False), ((), 3, True),
    (((X, PLUS),), 3, False), (((X, MINUS), (X, PLUS), (X, PLUS)), 1, True),
    (((X, PLUS), (X, PLUS), (X, MINUS), (X, MINUS)), 2, False)])
def test_restricted_state_space_equals_a_fresh_one(obj, cap, with_boundary):
    """The kets of a free monoid's state space below its cap, with their
    principal sub-Gram, are in order a fresh state space at the cap below,
    and the state space has stabilized when the two ranks agree, never at
    cap 0; its kets are enumerated once.  As for cob2, every cap up to
    `cap` is checked, here over one letter and two."""
    for alphabet in ("a", "ab"):
        fm = FreeMonoidCategory(alphabet)
        fb = FreeBoundary(fm)
        boundary = fb if with_boundary else None
        # a closed strand runs through at most one word per endpoint and
        # one half-interval word
        alpha = _word_evaluation(fm, fb, (len(obj) + 1) * cap)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statespaces, "enumerate_kets",
                       lambda *args: calls.append(args) or enumerate_kets(*args))
            spaces = [state_space_field(fm, obj, alpha, boundary, c)
                      for c in range(cap + 1)]
        assert len(calls) == cap + 1
        assert spaces[0].stabilized is False
        for c in range(1, cap + 1):
            ss, fresh = spaces[c], spaces[c - 1]
            assert ss.stabilized == (fresh.dimension == ss.dimension)
            words = set(fm.words_up_to(c - 1))
            below = [i for i, k in enumerate(ss.spanning) if words.issuperset(
                lab for *_, lab in k.arcs + k.half_intervals)]
            assert [ss.spanning[i] for i in below] == fresh.spanning
            assert statespaces._sub_gram(ss.gram, below) == fresh.gram
            if obj and ss.spanning:
                assert len(fresh.spanning) < len(ss.spanning)


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc"])
def test_shortlex_words_up_to_a_smaller_cap_are_a_prefix(alphabet) -> None:
    """The order of the kets below the cap, and so of their principal
    sub-Gram, rests on this prefix, at a negative cap too, which gives the
    empty word alone."""
    fm = FreeMonoidCategory(alphabet)
    for big in range(4):
        words = fm.words_up_to(big)
        for cap in range(-2, big + 1):
            small = fm.words_up_to(cap)
            assert small == words[:len(small)]
    assert fm.words_up_to(-1) == [()]


def test_restricted_monoid_state_space_is_the_whole_one() -> None:
    """Labels of a finite category do not depend on the cap, so every ket
    is below it: over S3 and over a table category, a state space is
    enumerated and ranked once, has stabilized at cap 1 and not at cap 0,
    and its kets and Gram are the same at each cap."""
    s3 = MonoidCategory(symmetric_group(3))
    retract = _retract()
    calls = defaultdict(int)

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    for cat, alpha, obj in (
            (s3, evaluation_from_monoid(s3, [2, 0, 0, -1, -1, 0]), FOUR),
            (retract, Evaluation({
                retract.loop_class("X", ["1X"]): Fraction(3),
                retract.loop_class("Y", ["1Y"]): Fraction(-2)}),
             (("Y", PLUS), ("Y", MINUS), ("Y", MINUS), ("Y", PLUS)))):
        spaces = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("enumerate_kets", "rank"):
                mp.setattr(statespaces, name,
                           counted(name, getattr(statespaces, name)))
            for cap in (0, 1):
                calls.clear()
                spaces.append(state_space_field(cat, obj, alpha,
                                                cap_words=cap))
                assert calls == {"enumerate_kets": 1, "rank": 1}, (cat, cap)
        assert [ss.stabilized for ss in spaces] == [False, True]
        assert spaces[0]._replace(stabilized=True) == spaces[1]


def test_fewer_below_the_cap_than_the_dimension_rank_once() -> None:
    """A sub-Gram's rank is at most its size, so a state space with fewer
    elements below the cap than its dimension has not stabilized, and its
    Gram is the one matrix ranked: over one letter at cap 3, the four
    kets a^0..a^3 against three below, on loop values 2^k + 3^k + 5^k +
    7^k, whose Hankel Gram has rank 4; and a one-circle cob2 space at
    genus cap 3, whose generic values give rank 4 against three below."""
    fm = FreeMonoidCategory("a")
    alpha = Evaluation({fm.loop_class(0, [fm.word("a" * k)]):
                        2 ** k + 3 ** k + 5 ** k + 7 ** k for k in range(7)})
    generic = [2 ** g + 3 ** g + Fraction(1, g + 1) for g in range(10)]
    ranked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespaces, "rank",
                   lambda gram: ranked.append(gram) or rank(gram))
        ss = state_space_field(fm, TWO, alpha, None, 3)
        assert (len(ranked), ss.dimension, ss.stabilized) == (1, 4, False)
        assert ranked == [ss.gram]
        assert cob2_state_space(1, generic, 3) == (4, False)
        assert len(ranked) == 2
    assert state_space_field(fm, TWO, alpha, None, 2).dimension == 3
    assert cob2_state_space(1, generic, 2) == (3, False)


def test_input_checks_survive_optimized_mode() -> None:
    """Input checks are raises, not asserts, so `python -O` keeps them:
    among them each of the seven in `BrauerMorphism._validate`, fired
    through the public constructor."""
    script = (
        "from loopcat.diagrams import BrauerMorphism\n"
        "from loopcat.fincat import Loop, MonoidCategory, cyclic_group\n"
        "from loopcat.linalg import Matrix, det, solve\n"
        "from loopcat.statespaces import (Evaluation, WeightedAutomaton,\n"
        "                                 evaluate_closed)\n"
        "assert False, 'asserts are not stripped'\n"
        "cat = MonoidCategory(cyclic_group(2))\n"
        "cup = BrauerMorphism(cat, (), ((0, 1), (0, -1)), [(1, 0, 0)])\n"
        "for make in (lambda: evaluate_closed(cup, Evaluation()),\n"
        "             lambda: WeightedAutomaton([1], {}, [1, 2]),\n"
        "             lambda: WeightedAutomaton(\n"
        "                 [1], {'a': Matrix.identity(2)}, [1]),\n"
        "             lambda: BrauerMorphism(cat, (), ((0, 1), (0, 1)),\n"
        "                                    [(0, 1, 0)]),\n"
        "             lambda: BrauerMorphism(cat, (), ((0, 1), (0, -1)), []),\n"
        "             lambda: BrauerMorphism(cat, (), ((0, -1), (0, -1)),\n"
        "                                    [(0, 1, 0)]),\n"
        "             lambda: BrauerMorphism(cat, (), ((0, 1), (1, -1)),\n"
        "                                    [(1, 0, 0)]),\n"
        "             lambda: BrauerMorphism(cat, (), ((1, 1), (0, -1)),\n"
        "                                    [(1, 0, 0)]),\n"
        "             lambda: BrauerMorphism(cat, (), ((0, 1),), [], [(0, 0)]),\n"
        "             lambda: BrauerMorphism(cat, (), (), [],\n"
        "                                    loops=[Loop(1, (0,))]),\n"
        "             lambda: Matrix.identity(2) + Matrix.identity(3),\n"
        "             lambda: Matrix.identity(2) * Matrix.identity(3),\n"
        "             lambda: Matrix([[1, 2]]).trace(),\n"
        "             lambda: Matrix([[1, 2]]) ** 2,\n"
        "             lambda: Matrix.identity(2) ** -1,\n"
        "             lambda: solve(Matrix.identity(2), [1]),\n"
        "             lambda: solve(Matrix([[1, 2]]), [1, 2]),\n"
        "             lambda: det(Matrix([[1, 2]])),\n"
        "             lambda: det(Matrix([[1], [2]]))):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    src = str(Path(loopcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "evaluation needs a closed diagram",
        "initial and final lengths differ",
        "bad shape at 'a'",
        "arc tail at 0 is not eff -",
        "endpoints not covered exactly once",
        "arc head at 1 is not eff +",
        "label 0 does not start at endpoint 1's object",
        "label 0 does not end at endpoint 0's object",
        "half-interval without boundary data",
        "loop base 1 is not an object",
        "shape mismatch", "shape mismatch",
        "matrix is not square", "matrix is not square",
        "negative matrix power", "right-hand side length mismatch",
        "right-hand side length mismatch", "matrix is not square",
        "matrix is not square"]


def _two_strand(cat, matching: bool, lab1: int, lab2: int) -> BrauerMorphism:
    seq = ((X, PLUS), (X, MINUS))
    if matching:
        arcs = [(0, 2, lab1), (3, 1, lab2)]
    else:
        arcs = [(0, 1, lab1), (3, 2, lab2)]
    return BrauerMorphism(cat, seq, seq, arcs)


@given(st.booleans(), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40)
def test_pairing_functoriality(matching, l1, l2, gu, gv) -> None:
    # Gram(f.u, v) = Gram(u, f*.v) with f* the rotated (dual) diagram;
    # (X+, X-) is fixed by the duality, so f* acts on the same kets
    cat = MonoidCategory(symmetric_group(3))
    alpha = evaluation_from_monoid(cat, [6, 0, 0, 0, 0, 0])  # regular character
    f = _two_strand(cat, matching, l1, l2)
    u, v = cup(cat, gu), cup(cat, gv)
    lhs = evaluate_closed(compose(transpose(v), compose(f, u)), alpha)
    rhs = evaluate_closed(compose(transpose(compose(rotate(f), v)), u), alpha)
    assert lhs == rhs


# --- the pairing kernel ------------------------------------------------------------
#
# state_space_field and state_space_boolean pair kets through one strand
# template per pair of matchings; the generic splice below is the reference.


def _spliced_gram(kets, alpha) -> list:
    bras = [transpose(k) for k in kets]
    return [[evaluate_closed(compose(b, k), alpha) for b in bras] for k in kets]


def _spliced_error(kets, alpha) -> str:
    """The message of the first entry, row by row, the splice cannot evaluate."""
    with pytest.raises(MissingValue) as info:
        _spliced_gram(kets, alpha)
    return str(info.value)


def _assert_kernel_matches_splice(cat, obj, alpha, boundary=None, cap=4):
    ss = state_space_field(cat, obj, alpha, boundary, cap)
    expected = _spliced_gram(ss.spanning, alpha)
    assert ss.gram == Matrix(expected)
    boolean = state_space_boolean(cat, obj, alpha, boundary, cap)
    assert boolean.rows == [tuple(1 if v else 0 for v in row)
                            for row in expected]
    return ss


FOUR_ORDERS = [tuple((X, s) for s in signs) for signs in (
    (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1),
    (-1, 1, 1, -1), (-1, -1, 1, 1), (-1, 1, -1, 1))]


@pytest.mark.parametrize("obj", FOUR_ORDERS)
def test_kernel_matches_splice_on_group_characters(obj) -> None:
    s3 = MonoidCategory(symmetric_group(3))
    ss = _assert_kernel_matches_splice(
        s3, obj, evaluation_from_monoid(s3, [2, 0, 0, -1, -1, 0]))
    # transpose keeps labels and so reverses loop words: S3 is not abelian
    assert len(ss.spanning) == 72 and ss.gram != ss.gram.transpose()
    c4 = MonoidCategory(cyclic_group(4))
    _assert_kernel_matches_splice(c4, obj,
                                  evaluation_from_monoid(c4, [3, 1, -1, 1]))


@pytest.mark.parametrize("obj", [((X, PLUS),), ((X, MINUS),), TWO,
                                 ((X, MINUS), (X, PLUS))])
@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("with_boundary", [False, True])
def test_kernel_matches_splice_on_word_tables(obj, cap, with_boundary) -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    alpha = _word_evaluation(fm, fb, (len(obj) + 1) * cap)
    _assert_kernel_matches_splice(fm, obj, alpha,
                                  fb if with_boundary else None, cap)


def _two_monoids() -> TableCategory:
    """Objects A (endomorphisms Z/2 = {1A, s}) and B (Z/3 = {1B, r, rr}),
    with no morphisms between them."""
    morphisms = {"1A": ("A", "A"), "s": ("A", "A"),
                 "1B": ("B", "B"), "r": ("B", "B"), "rr": ("B", "B")}
    z2, z3 = ["1A", "s"], ["1B", "r", "rr"]

    def rule(m2, m1):
        if m1 in z2:
            return z2[(z2.index(m1) + z2.index(m2)) % 2]
        return z3[(z3.index(m1) + z3.index(m2)) % 3]

    return TableCategory(["A", "B"], morphisms, {"A": "1A", "B": "1B"}, rule)


def _retract() -> TableCategory:
    """f: X -> Y and g: Y -> X with g.f = 1X, so f.g = e is an idempotent
    at Y; the loop of e at Y is the loop of 1X at X."""
    morphisms = {"1X": ("X", "X"), "1Y": ("Y", "Y"), "e": ("Y", "Y"),
                 "f": ("X", "Y"), "g": ("Y", "X")}
    table = {("g", "f"): "1X", ("f", "g"): "e", ("e", "e"): "e",
             ("e", "f"): "f", ("g", "e"): "g"}

    def rule(m2, m1):
        if m1 in ("1X", "1Y"):
            return m2
        if m2 in ("1X", "1Y"):
            return m1
        return table[(m2, m1)]

    return TableCategory(["X", "Y"], morphisms, {"X": "1X", "Y": "1Y"}, rule)


def test_kernel_matches_splice_on_two_object_categories() -> None:
    cat = _two_monoids()
    alpha = Evaluation({cat.loop_class(x, [m]): Fraction(v) for x, m, v in (
        ("A", "1A", 2), ("A", "s", -1), ("B", "1B", 3), ("B", "r", 1),
        ("B", "rr", 5))})
    for obj in ((("A", PLUS), ("B", PLUS), ("A", MINUS), ("B", MINUS)),
                (("B", MINUS), ("A", PLUS), ("B", PLUS), ("A", MINUS))):
        ss = _assert_kernel_matches_splice(cat, obj, alpha)
        assert len(ss.spanning) == 6
    cat = _retract()
    assert cat.loop_class("Y", ["e"]) == cat.loop_class("X", ["1X"])
    alpha = Evaluation({cat.loop_class("X", ["1X"]): Fraction(3),
                        cat.loop_class("Y", ["1Y"]): Fraction(-2)})
    ss = _assert_kernel_matches_splice(
        cat, (("Y", PLUS), ("Y", MINUS), ("Y", MINUS), ("Y", PLUS)), alpha)
    assert len(ss.spanning) == 8


class _Unread:
    """An evaluation that fails on any read of its values."""

    def __getattribute__(self, name):
        raise AssertionError(f"read the evaluation's {name}")


def test_a_state_space_takes_only_its_free_monoids_own_boundary(
        monkeypatch) -> None:
    """Any boundary but the FreeBoundary of the job's own free monoid is a
    ValueError, raised before a ket is built or a value read."""
    z2 = cyclic_group(2)
    cat = MonoidCategory(z2)
    datum = BoundaryDatum(cat, gr_sets={X: (0, 1)}, gl_sets={X: (0, 1)},
                          gr_action=lambda m, g: z2.mul(g, m),
                          gl_action=lambda m, g: z2.mul(m, g))
    fm = FreeMonoidCategory("ab")
    for build in (state_space_field, state_space_boolean):
        assert build(fm, TWO, _word_evaluation(fm, FreeBoundary(fm), 4),
                     FreeBoundary(fm), 1).spanning

    def unbuilt(*args, **kwargs):
        raise AssertionError("built a ket")

    monkeypatch.setattr(statespaces, "BrauerMorphism", unbuilt)
    for c, boundary in ((cat, datum), (fm, datum),
                        (fm, FreeBoundary(FreeMonoidCategory("ab"))),
                        (cat, FreeBoundary(fm)), (cat, FreeBoundary(cat)),
                        (FreeMonoidCategory("abc"), FreeBoundary(fm))):
        for obj in (((X, PLUS),), TWO, FOUR):
            for call in (lambda: enumerate_kets(c, obj, boundary, 2),
                         lambda: state_space_field(c, obj, _Unread(),
                                                   boundary, 2),
                         lambda: state_space_boolean(c, obj, _Unread(),
                                                     boundary, 2)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == (
                    "a state space's boundary must be the FreeBoundary of "
                    "its own free monoid")


def _by_canonical_words(alpha: Evaluation) -> Evaluation:
    """alpha with its values also held by word, as a job's reader holds
    them, its loop values by the canonical word of each class alone, so
    that every other rotation a Gram reads resolves its class."""
    return Evaluation(
        alpha.loop_values, alpha.interval_values,
        {lp.cycle: _integral(v) for lp, v in alpha.loop_values.items()},
        {iv.gr: _integral(v) for iv, v in alpha.interval_values.items()})


@pytest.mark.parametrize("loops, intervals", [
    (("", "ab"), ("", "a", "b", "ab", "ba", "bb", "aab")),
    (("", "a", "b", "ab", "aa", "bb"), ("", "a", "b", "ba")),
    ((), ("", "a")),
])
def test_kernel_reports_the_splices_missing_value(loops, intervals) -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    full = _word_evaluation(fm, fb, 6)
    keep = ({fm.loop_class(0, [fm.word(w)]) for w in loops}
            | {fb.interval_class(0, (), fm.word(w)) for w in intervals})

    def kept():
        return Evaluation(
            {k: v for k, v in full.loop_values.items() if k in keep},
            {k: v for k, v in full.interval_values.items() if k in keep})
    for alpha in (kept(), _by_canonical_words(kept())):
        for obj in (((X, PLUS),), TWO, ((X, MINUS), (X, PLUS)), FOUR):
            kets = enumerate_kets(fm, obj, fb, 2)
            message = _spliced_error(kets, alpha)
            for build in (state_space_field, state_space_boolean):
                with pytest.raises(MissingValue) as info:
                    build(fm, obj, alpha, fb, 2)
                assert str(info.value) == message


def test_kernel_takes_the_message_from_the_splice() -> None:
    # entry (0, 1) closes two intervals, "ba" (found first by the strand
    # walk) and "ab" (first in the splice's order); both are missing
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    alpha = Evaluation(interval_values={
        fb.interval_class(0, (), fm.word(w)): Fraction(1) for w in ("aa", "bb")})
    kets = [BrauerMorphism(fm, (), ((X, PLUS), (X, PLUS)), [],
                           [(0, fm.word(g0)), (1, fm.word(g1))], boundary=fb)
            for g0, g1 in (("b", "a"), ("a", "b"))]
    message = _spliced_error(kets, alpha)
    assert "(0, 1)" in message
    with pytest.raises(MissingValue) as info:
        statespaces._pairing(fm, kets, alpha, fb)
    assert str(info.value) == message


def test_cross_object_arcs_still_fail_to_transpose() -> None:
    # the arc from the minus Y end to the plus X end is labelled g: Y -> X;
    # transposing comes before any value is looked up
    cat = _retract()
    for build in (state_space_field, state_space_boolean):
        with pytest.raises(DomainError,
                           match="^transpose needs same-object strands$"):
            build(cat, (("X", PLUS), ("Y", MINUS)), Evaluation())


def test_a_later_cross_object_matching_still_fails_to_transpose() -> None:
    # the first matching joins X to X and Y to Y, so its entry (0, 0) would
    # miss a value; the second joins X to Y, and transposing still comes first
    cat = _retract()
    obj = (("X", PLUS), ("X", MINUS), ("Y", PLUS), ("Y", MINUS))
    kets = enumerate_kets(cat, obj)
    assert transpose(kets[0]).source == obj
    for build in (state_space_field, state_space_boolean):
        with pytest.raises(DomainError,
                           match="^transpose needs same-object strands$"):
            build(cat, obj, Evaluation())


def test_kernel_is_checked_against_the_splice(monkeypatch) -> None:
    monkeypatch.setattr(statespaces, "evaluate_closed",
                        lambda d, alpha: evaluate_closed(d, alpha) + 1)
    cat = MonoidCategory(cyclic_group(2))
    with pytest.raises(InternalInconsistency, match="disagrees with the splice"):
        state_space_field(cat, TWO, evaluation_from_monoid(cat, [2, 0]))


def test_template_is_checked_for_values_the_splice_has(monkeypatch) -> None:
    # the splice now values every closed diagram, while the empty
    # evaluation leaves the template's strands without one
    monkeypatch.setattr(statespaces, "evaluate_closed",
                        lambda d, alpha: Fraction(0))
    cat = MonoidCategory(cyclic_group(2))
    with pytest.raises(InternalInconsistency,
                       match=r"template misses a value the splice has at "
                             r"entry \(0, 0\)"):
        state_space_field(cat, TWO, Evaluation())


def _strand_misses(monkeypatch, splice_name) -> tuple[list, list]:
    """Lists that collect, while the patch lasts, every key a Gram
    template's strand evaluates on a miss of its memo, and every class
    `Evaluation` resolves outside the reference, whose function is
    `splice_name` in `statespaces`."""
    missed, resolved, splicing = [], [], []
    template_gram, splice = (statespaces._template_gram,
                             getattr(statespaces, splice_name))

    def counted(evaluate):
        return lambda key: missed.append(key) or evaluate(key)

    def counted_gram(items, template, reference, names):
        return template_gram(items, lambda r, c: [
            (*strand[:3], counted(strand[3]), *strand[4:])
            for strand in template(r, c)], reference, names)

    def counted_splice(*args):
        splicing.append(1)
        try:
            return splice(*args)
        finally:
            splicing.pop()

    def counted_resolve(resolve):
        def method(alpha, cls):
            if not splicing:
                resolved.append(cls)
            return resolve(alpha, cls)
        return method

    monkeypatch.setattr(statespaces, "_template_gram", counted_gram)
    monkeypatch.setattr(statespaces, splice_name, counted_splice)
    for name in ("loop", "interval"):
        monkeypatch.setattr(Evaluation, name,
                            counted_resolve(getattr(Evaluation, name)))
    return missed, resolved


def test_monoid_and_cob2_strands_read_complete_tables(monkeypatch) -> None:
    """An S3 Gram at a 4-strand object (72 x 72) and a cob2 Gram of two
    circles at genus cap 2 (12 x 12) evaluate no strand key and resolve
    no class outside the reference: each memo starts from every value
    its strands read, where an empty label memo missed each distinct
    chain once."""
    cat = MonoidCategory(symmetric_group(3))
    alpha = evaluation_from_monoid(cat, [2, 0, 0, -1, -1, 0])
    missed, resolved = _strand_misses(monkeypatch, "evaluate_closed")
    ss = state_space_field(cat, FOUR, alpha)
    assert (len(ss.spanning), missed, resolved) == (72, [], [])
    assert ss.gram == Matrix(_spliced_gram(ss.spanning, alpha))
    monkeypatch.undo()
    seq = [Fraction(g + 2, 2 * g + 1) for g in range(9)]
    missed, _ = _strand_misses(monkeypatch, "glue_partition_diagrams")
    rows, scale = statespaces._cob2_gram_rows(cob2_spanning(2, 2), seq)
    assert (len(rows), missed) == (12, [])
    assert _unscaled(rows, scale) == _glued_gram(cob2_spanning(2, 2), seq)


# integral and non-integral values, so that Gram entries are ints, integral
# Fractions and non-integral Fractions
drawn_values = st.one_of(st.integers(-3, 3),
                         st.fractions(-3, 3, max_denominator=4))


def _assert_gram_is_the_splices(ss, alpha) -> None:
    assert ss.gram == Matrix(_spliced_gram(ss.spanning, alpha))
    assert all(type(x) is Fraction for row in ss.gram.entries for x in row)
    assert ss.dimension == gj_rank(ss.gram)


# two monoids that are not groups: {1, x, y} with xy = x and yx = y, whose
# one loop class of x and y is no conjugacy class of a group, and
# {1, n, 0} with nn = 0
LEFT_ZERO = FiniteMonoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)
NILPOTENT = FiniteMonoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0)


@given(st.sampled_from([symmetric_group(3), cyclic_group(4), LEFT_ZERO,
                        NILPOTENT]),
       st.sampled_from([TWO] + FOUR_ORDERS), st.data())
@settings(max_examples=12, deadline=None)
def test_gram_on_drawn_characters_is_the_splices(group, obj, data) -> None:
    cat = MonoidCategory(group)
    classes = [cat.loop_class(0, [g]) for g in range(group.size)]
    value = {c: data.draw(drawn_values) for c in sorted(set(classes), key=repr)}
    alpha = evaluation_from_monoid(cat, [value[c] for c in classes])
    _assert_gram_is_the_splices(state_space_field(cat, obj, alpha), alpha)


@given(st.sampled_from([((X, PLUS),), ((X, MINUS),), TWO,
                        ((X, MINUS), (X, PLUS))]),
       st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_gram_on_drawn_word_tables_is_the_splices(obj, with_boundary,
                                                  data) -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    cap = data.draw(st.integers(0, 3 if len(obj) == 1 else 2))
    entries = st.lists(drawn_values, min_size=2, max_size=2)
    mats = tuple(Matrix(data.draw(st.lists(entries, min_size=2, max_size=2)))
                 for _ in "ab")
    alpha = _word_evaluation(fm, fb, (len(obj) + 1) * cap, mats)
    if data.draw(st.booleans()):
        alpha = _by_canonical_words(alpha)
    boundary = fb if with_boundary else None
    ss = state_space_field(fm, obj, alpha, boundary, cap)
    _assert_gram_is_the_splices(ss, alpha)
    assert state_space_boolean(fm, obj, alpha, boundary, cap).rows == [
        tuple(1 if v else 0 for v in row) for row in ss.gram.entries]


# strand values all integral, all non-integral, or drawn from both
value_kinds = {"int": st.integers(-3, 3),
               "fraction": st.fractions(-3, 3, max_denominator=4).filter(
                   lambda x: x.denominator > 1),
               "mixed": drawn_values}


@given(st.sampled_from(sorted(value_kinds)), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_template_gram_rows_are_the_references(kind, cob2,
                                                 data) -> None:
    values = value_kinds[kind]
    if cob2:
        m, cap = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
        spanning = cob2_spanning(m, cap)
        seq = data.draw(st.lists(values, min_size=2 * m * cap + m + 1,
                                 max_size=2 * m * cap + m + 1))
        expected = _glued_gram(spanning, seq)
        rows, scale = statespaces._cob2_gram_rows(spanning, seq)
        # the gluings times the scale, held as ints; int values, scale 1
        assert _unscaled(rows, scale) == expected
        assert kind != "int" or scale == 1
        gram = Matrix.from_ints(rows, scale)
    else:
        cat = MonoidCategory(data.draw(st.sampled_from(
            [symmetric_group(3), cyclic_group(4)])))
        classes = [cat.loop_class(0, [g]) for g in range(cat.monoid.size)]
        value = {c: data.draw(values)
                 for c in sorted(set(classes), key=repr)}
        alpha = evaluation_from_monoid(cat, [value[c] for c in classes])
        kets = enumerate_kets(cat, data.draw(st.sampled_from(
            [TWO] + FOUR_ORDERS)))
        expected = _spliced_gram(kets, alpha)
        rows = statespaces._pairing(cat, kets, alpha, None)
        assert rows == expected
        if kind == "int":  # int strand values give int entries, held as ints
            assert all(type(x) is int for row in rows for x in row)
        gram = Matrix(rows)
    assert gram == Matrix(expected)
    assert (gram.den == 1) == all(x.denominator == 1
                                  for row in expected for x in row)


# --- the block kernel on permuted item lists ---------------------------------
#
# `_template_gram` builds a row in blocks, one per run of columns of one
# shape.  Kets or diagrams drawn with repeats, in drawn order, give short
# runs and shapes that recur in several runs; the empty object and m = 0
# give templates with no strands.


def _marked(alpha: Evaluation) -> Evaluation:
    """alpha with each integral value 1 and each other 1/2, so that an
    entry is 1 under it exactly when all its factors are integral."""
    def mark(table):
        return {k: Fraction(1, 1 if Fraction(v).denominator == 1 else 2)
                for k, v in table.items()}
    return Evaluation(mark(alpha.loop_values), mark(alpha.interval_values))


def _assert_entries(rows, expected, marks) -> None:
    """The rows are the oracle's, and an entry is an int exactly when all
    its factors are integral (its mark is 1)."""
    assert rows == expected
    assert [[type(x) for x in row] for row in rows] == \
        [[int if m == 1 else Fraction for m in row] for row in marks]


@st.composite
def permuted_kets(draw):
    """(category, kets, evaluation, boundary): group characters or word
    tables, with int, fraction or mixed values, and up to 12 of the
    object's kets drawn with repeats, in drawn order.  A word table's
    values are held by class, and drawn to be held by canonical word
    too."""
    values = value_kinds[draw(st.sampled_from(sorted(value_kinds)))]
    if draw(st.booleans()):
        cat = MonoidCategory(draw(st.sampled_from(
            [cyclic_group(3), cyclic_group(4), symmetric_group(3), LEFT_ZERO,
             NILPOTENT])))
        classes = [cat.loop_class(0, [g]) for g in range(cat.monoid.size)]
        value = {c: draw(values) for c in sorted(set(classes), key=repr)}
        alpha = evaluation_from_monoid(cat, [value[c] for c in classes])
        obj, boundary, cap = draw(st.sampled_from([(), TWO] + FOUR_ORDERS)), \
            None, 4
    else:
        cat = FreeMonoidCategory("ab")
        boundary = draw(st.sampled_from([None, FreeBoundary(cat)]))
        obj = draw(st.sampled_from([(), TWO, ((X, MINUS), (X, PLUS))]
                                   + [((X, PLUS),)] * (boundary is not None)))
        cap = draw(st.integers(0, 2))
        # a class's value is one of three drawn, chosen by its word
        table = draw(st.lists(values, min_size=3, max_size=3))
        words = _word_evaluation(cat, FreeBoundary(cat),
                                 (len(obj) + 1) * cap)
        alpha = Evaluation(*({k: table[(len(k[-1]) + sum(k[-1])) % 3]
                              for k in classes}
                             for classes in (words.loop_values,
                                             words.interval_values)))
        if draw(st.booleans()):
            alpha = _by_canonical_words(alpha)
    kets = enumerate_kets(cat, obj, boundary, cap)
    picked = draw(st.lists(st.sampled_from(kets), min_size=1, max_size=12))
    return cat, picked, alpha, boundary


@given(permuted_kets())
@settings(max_examples=80, deadline=None)
def test_block_gram_of_permuted_kets_is_the_splices(case) -> None:
    cat, kets, alpha, boundary = case
    _assert_entries(statespaces._pairing(cat, kets, alpha, boundary),
                    _spliced_gram(kets, alpha),
                    _spliced_gram(kets, _marked(alpha)))


@given(st.sampled_from(sorted(value_kinds)), st.data())
@settings(max_examples=60, deadline=None)
def test_block_gram_of_permuted_diagrams_is_the_gluings(kind, data) -> None:
    m, cap = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    sample = data.draw(st.lists(st.sampled_from(cob2_spanning(m, cap)),
                                min_size=1, max_size=12))
    seq = data.draw(st.lists(value_kinds[kind], min_size=2 * m * cap + m + 1,
                             max_size=2 * m * cap + m + 1))
    rows, scale = statespaces._cob2_gram_rows(sample, seq)
    expected = _glued_gram(sample, seq)
    assert _unscaled(rows, scale) == expected
    assert Matrix.from_ints(rows, scale) == Matrix(expected)
    # an integral sequence gives the gluings themselves, at scale 1
    assert kind != "int" or scale == 1


def _assert_first_miss(cat, kets, alpha, boundary, dropped) -> None:
    """Without the class `dropped`, the pairing raises the splice's error;
    under a reference that has every value, it names the first entry, row
    by row, whose closed diagram has the class."""
    keep = lambda table: {k: v for k, v in table.items() if k != dropped}
    without = Evaluation(keep(alpha.loop_values), keep(alpha.interval_values))
    message = _spliced_error(kets, without)
    with pytest.raises(MissingValue) as info:
        statespaces._pairing(cat, kets, without, boundary)
    assert str(info.value) == message
    i, j = next((i, j) for i, k in enumerate(kets) for j, b in enumerate(kets)
                if dropped in (d := compose(transpose(b), k)).loops
                or dropped in d.intervals)
    with patch.object(statespaces, "evaluate_closed",
                      lambda d, _alpha: evaluate_closed(d, alpha)), \
            pytest.raises(InternalInconsistency,
                          match=rf"^pairing template misses a value the "
                                rf"splice has at entry \({i}, {j}\)$"):
        statespaces._pairing(cat, kets, without, boundary)


@given(permuted_kets(), st.data())
@settings(max_examples=60, deadline=None)
def test_block_gram_misses_a_value_where_the_splice_does(case, data) -> None:
    cat, kets, alpha, boundary = case
    k, b = (data.draw(st.sampled_from(kets)) for _ in "kb")
    closed = compose(transpose(b), k)
    assume(closed.loops or closed.intervals)
    _assert_first_miss(cat, kets, alpha, boundary, data.draw(st.sampled_from(
        sorted({*closed.loops, *closed.intervals}, key=repr))))


def test_block_gram_misses_at_an_earlier_column_of_a_later_strand() -> None:
    # C3 on (+, -, +, -): in row 0 the class of 1 first closes at column 1,
    # on the template's second strand, while its first strand first meets
    # it at column 3
    cat = MonoidCategory(cyclic_group(3))
    kets = enumerate_kets(cat, FOUR)
    _assert_first_miss(cat, kets, evaluation_from_monoid(cat, [2, -1, 3]),
                       None, cat.loop_class(0, [1]))


def test_pairing_splices_once_per_pair_of_matchings(monkeypatch) -> None:
    spliced = []

    def counting_compose(d2, d1):
        spliced.append(1)
        return compose(d2, d1)

    monkeypatch.setattr(statespaces, "compose", counting_compose)
    cat = MonoidCategory(symmetric_group(3))
    alpha = evaluation_from_monoid(cat, [2, 0, 0, -1, -1, 0])
    ss = state_space_field(cat, FOUR, alpha)
    matchings = 2  # each + end meets either - end
    assert len(ss.spanning) == 72
    assert 0 < len(spliced) <= matchings ** 2
    assert all(isinstance(x, Fraction) for row in ss.gram.entries for x in row)


def test_pairing_transposes_per_matching_not_per_ket(monkeypatch) -> None:
    # one bra per template reference, and one ket per matching checked
    # up front; each ket is otherwise read as its own bra
    transposed = []

    def counting_transpose(d):
        transposed.append(1)
        return transpose(d)

    monkeypatch.setattr(statespaces, "transpose", counting_transpose)
    cat = MonoidCategory(symmetric_group(3))
    alpha = evaluation_from_monoid(cat, [2, 0, 0, -1, -1, 0])
    ss = state_space_field(cat, FOUR, alpha)
    matchings = 2
    assert len(ss.spanning) == 72
    assert 0 < len(transposed) <= matchings ** 2 + matchings
    assert ss.gram == Matrix(_spliced_gram(ss.spanning, alpha))


# --- Boolean state spaces --------------------------------------------------------


def _ends_in_a_residual_rows(cap: int) -> set:
    """Independent oracle: enumerate residual rows of L = words ending in 'a'
    with plain string handling."""
    alphabet = "ab"
    words = [""]
    frontier = [""]
    for _ in range(cap):
        frontier = [w + c for w in frontier for c in alphabet]
        words.extend(frontier)
    in_l = lambda w: w.endswith("a")
    return {tuple(1 if in_l(u + v) else 0 for v in words) for u in words}


def _boolean_alpha_for_language(fm, fb, member, cap: int) -> Evaluation:
    # single-endpoint kets only ever close into intervals, never loops
    intervals = {}
    for w in fm.words_up_to(2 * cap):
        intervals[fb.interval_class(0, (), w)] = 1 if member(w) else 0
    return Evaluation({}, intervals)


def test_boolean_residuals_of_ends_in_a() -> None:
    cap = 3
    oracle_rows = _ends_in_a_residual_rows(cap)
    assert len(oracle_rows) == 2  # the 2-state minimal acceptor

    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    alpha = _boolean_alpha_for_language(
        fm, fb, lambda w: len(w) > 0 and w[-1] == fm.word("a")[0], cap)
    ss = state_space_boolean(fm, ((X, PLUS),), alpha, boundary=fb,
                             cap_words=cap)
    assert ss.n_states == 2
    assert set(ss.states) == oracle_rows
    assert ss.n_join_irreducible == 2


def test_a_language_table_keeps_its_default() -> None:
    """An evaluation holds each table as given, so a `defaultdict` keeps
    its default: a language tables its words alone, and every other
    interval reads 0, by class in the splice and by text in the pairing,
    with the same rows as a table that lists every word up to twice the
    cap."""
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    ab = fm.word("ab")
    classes = defaultdict(int, {fb.interval_class(0, (), ab): 1})
    words = defaultdict(int, {"ab": 1})
    sparse = Evaluation(interval_values=classes, interval_words=words)
    assert sparse.interval_values is classes
    assert sparse.interval_words is words
    assert sparse.interval(fb.interval_class(0, (), fm.word("ba"))) == 0
    dense = _boolean_alpha_for_language(fm, fb, lambda w: w == ab, 2)
    by_class = Evaluation(interval_values=defaultdict(int, classes))
    for alpha in (sparse, by_class):
        for obj in (((X, PLUS),), ((X, MINUS),), ((X, PLUS), (X, PLUS))):
            got = state_space_boolean(fm, obj, alpha, fb, 2)
            assert got.rows == state_space_boolean(fm, obj, dense, fb, 2).rows
    assert words == {"ab": 1}  # the pairing reads a copy


def test_boolean_full_language_has_one_state() -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    alpha = _boolean_alpha_for_language(fm, fb, lambda w: True, 2)
    ss = state_space_boolean(fm, ((X, PLUS),), alpha, boundary=fb, cap_words=2)
    assert ss.n_states == 1
    assert ss.states == [tuple([1] * len(ss.spanning))]


def test_boolean_empty_language_has_the_zero_state() -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    alpha = _boolean_alpha_for_language(fm, fb, lambda w: False, 2)
    ss = state_space_boolean(fm, ((X, PLUS),), alpha, boundary=fb, cap_words=2)
    assert ss.n_states == 1
    assert ss.states == [tuple([0] * len(ss.spanning))]
    assert ss.n_join_irreducible == 0  # the bottom row is the empty join


# --- weighted automata -----------------------------------------------------------


def _words(alphabet, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def _hankel_rank(a: WeightedAutomaton, half: int) -> int:
    ws = _words(sorted(a.transitions), half)
    return rank(Matrix([[fraction_weight(a, u + v) for v in ws] for u in ws]))


def test_hankel_one_state_constant() -> None:
    a = WeightedAutomaton([1], {"a": Matrix([[1]])}, [1])
    m = hankel_minimize(a)
    assert m.dimension == 1
    for w in _words(["a"], 4):
        assert fraction_weight(m, w) == 1


def test_hankel_duplicated_copy_collapses() -> None:
    a = WeightedAutomaton([Fraction(1, 2), Fraction(1, 2)],
                          {"a": Matrix([[1, 0], [0, 1]])}, [1, 1])
    assert _hankel_rank(a, 2) == 1  # oracle on the length-<=4 truncation
    m = hankel_minimize(a)
    assert m.dimension == 1
    for w in _words(["a"], 4):
        assert fraction_weight(m, w) == fraction_weight(a, w) == 1


def test_hankel_powers_of_two_with_redundancy() -> None:
    a = WeightedAutomaton(
        [Fraction(1, 3)] * 3,
        {"a": Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])},
        [1, 1, 1])
    assert _hankel_rank(a, 2) == 1
    m = hankel_minimize(a)
    assert m.dimension == 1
    for w in _words(["a"], 5):
        assert fraction_weight(m, w) == 2 ** len(w)


@given(st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_hankel_preserves_series(dim, data) -> None:
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    vec = st.lists(entry, min_size=dim, max_size=dim)
    mat = st.lists(vec, min_size=dim, max_size=dim)
    a = WeightedAutomaton(
        data.draw(vec),
        {"a": Matrix(data.draw(mat)), "b": Matrix(data.draw(mat))},
        data.draw(vec))
    m = hankel_minimize(a)
    assert m.dimension <= a.dimension
    horizon = 2 * max(a.dimension, m.dimension, 1)
    for w in _words(["a", "b"], min(horizon, 4)):
        assert fraction_weight(m, w) == fraction_weight(a, w)


@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_automaton_products_match_fraction_sums(dim, data) -> None:
    # integral entries, or mixed denominators, as hankel_minimize makes
    entry = data.draw(st.sampled_from([
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=6)]))
    vec = st.lists(entry.map(Fraction), min_size=dim, max_size=dim)
    mat = st.lists(vec, min_size=dim, max_size=dim).map(Matrix)
    a = WeightedAutomaton(data.draw(vec), {"a": data.draw(mat),
                                           "b": data.draw(mat)},
                          data.draw(vec))
    # `_forward_reduce` multiplies the vectors of a round as the rows of
    # one matrix
    vs = data.draw(st.lists(vec, min_size=1, max_size=3))
    for m in a.transitions.values():
        got = (Matrix(vs) * m).entries
        assert got == tuple(fraction_times(v, m) for v in vs)
        assert all(type(x) is Fraction for row in got for x in row)


def _echelon(vectors: list) -> list:
    basis, pivots = [], []
    for v in vectors:
        for b, p in zip(basis, pivots):
            v = tuple(x - v[p] * y for x, y in zip(v, b))
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            basis.append(tuple(x / v[p] for x in v))
            pivots.append(p)
    return basis


def _reference_forward_reduce(a: WeightedAutomaton) -> WeightedAutomaton:
    """The forward reduction before it expanded only basis-enlarging
    vectors: every round re-reduces the whole span, expands every vector,
    dependent or not, and reads coordinates by `solve`."""
    def times(v, m):
        return tuple(sum((x * e for x, e in zip(v, col)), Fraction(0))
                     for col in zip(*m.entries))

    letters = sorted(a.transitions)
    span, frontier = [], [a.initial]
    while frontier:
        grown = _echelon(span + frontier)
        if len(grown) == len(span):
            break
        span = grown
        frontier = [times(v, a.transitions[x])
                    for v in frontier for x in letters]
    if not span:
        return WeightedAutomaton([], {x: Matrix([]) for x in letters}, [])
    bt = Matrix(span).transpose()
    return WeightedAutomaton(
        solve(bt, a.initial)[0],
        {x: Matrix([solve(bt, times(b, a.transitions[x]))[0] for b in span])
         for x in letters},
        [sum((y * z for y, z in zip(b, a.final)), Fraction(0))
         for b in span])


@st.composite
def sparse_automata(draw):
    dim = draw(st.integers(1, 5))
    entry = st.sampled_from([Fraction(v) for v in (0, 0, 0, 1, -1, 2)]
                            + [Fraction(1, 2)])
    vec = st.lists(entry, min_size=dim, max_size=dim)
    # partial maps of the states reach the space along a sparse tree
    maps = st.lists(st.one_of(st.none(), st.integers(0, dim - 1)),
                    min_size=dim, max_size=dim).map(
        lambda f: [[int(f[i] == j) for j in range(dim)] for i in range(dim)])
    mat = st.one_of(st.lists(vec, min_size=dim, max_size=dim), maps)
    letters = draw(st.sampled_from(["a", "ab", "abc"]))
    return WeightedAutomaton(
        draw(vec), {x: Matrix(draw(mat)) for x in letters}, draw(vec))


@given(sparse_automata())
# pivots met out of column order: (0, 1) has its pivot at 1, its image
# (1, 0) at 0
@example(WeightedAutomaton([0, 1], {"a": Matrix([[0, 1], [1, 0]])}, [2, 3]))
# vectors that skip pivot steps: the basis is met as (2, 0, 0), (0, 6, 0),
# (0, 0, 30), and the image (1, 0, 1) of the first basis vector under "b"
# meets the third pivot after an applied step and a skipped one
@example(WeightedAutomaton(
    [2, 0, 0], {"a": Matrix([[0, 3, 0], [0, 0, 5], [1, 1, 1]]),
                "b": Matrix([[1, 0, 1], [0, 0, 0], [0, 2, 0]])}, [1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_forward_reduction_matches_expanding_every_vector(a) -> None:
    rev, ref = statespaces._reverse, _reference_forward_reduce
    got, want = hankel_minimize(a), rev(ref(rev(ref(a))))
    assert (got.initial, got.transitions, got.final) == (
        want.initial, want.transitions, want.final)


# --- cobordism gluing ------------------------------------------------------------


def test_glue_two_discs_is_a_sphere() -> None:
    d = PartitionDiagram.make(1, [(1,)], [0])
    assert glue_partition_diagrams(d, d, [7, 11]) == 7  # alpha_0


def test_glue_adds_genus_along_one_circle() -> None:
    a = PartitionDiagram.make(1, [(1,)], [2])
    b = PartitionDiagram.make(1, [(1,)], [3])
    seq = list(range(10, 20))
    assert glue_partition_diagrams(a, b, seq) == seq[5]


def test_glue_two_circles_makes_a_torus() -> None:
    # two blocks {1,2}, genus 0, glued along both circles: V=2, E=2, so the
    # component's first Betti number is 1 - a torus, alpha_1
    d = PartitionDiagram.make(2, [(1, 2)], [0])
    assert glue_partition_diagrams(d, d, [5, 13, 17]) == 13


def test_glue_names_a_circle_no_block_holds() -> None:
    # the constructor, unlike `make`, does not check that the blocks
    # partition 1..m: circle 2 lies in no block
    d = PartitionDiagram(2, ((1,),), (0,))
    with pytest.raises(ValueError, match="^circle 2 missing from partition$"):
        glue_partition_diagrams(d, d, [1, 2, 3])


def test_glue_sequence_too_short() -> None:
    a = PartitionDiagram.make(1, [(1,)], [2])
    with pytest.raises(SequenceTooShort):
        glue_partition_diagrams(a, a, [1, 1, 1, 1])


def test_cob2_empty_boundary() -> None:
    dim, stab = cob2_state_space(0, [Fraction(1)], 0)
    assert dim == 1


def test_cob2_unit_algebra_dimension_one() -> None:
    dim, stab = cob2_state_space(1, [1] * 12, 3)
    assert dim == 1 and stab


def test_cob2_split_two_eigenvalues() -> None:
    # B = Q x Q with counit (1, 1/2): handle eigenvalues {1, 2}, moments
    # alpha_g = 1 + 2^(g-1)
    seq = [Fraction(3, 2)] + [1 + Fraction(2) ** (g - 1) for g in range(1, 12)]
    moment = Matrix([[seq[i + j] for j in range(4)] for i in range(4)])
    # oracle: every 3x3 minor of the moment matrix is singular, some 2x2 isn't
    assert det(Matrix([r[:3] for r in moment.entries[:3]])) == 0
    assert det(Matrix([r[:2] for r in moment.entries[:2]])) != 0
    dim, stab = cob2_state_space(1, seq, 3)
    assert dim == 2 and stab


def test_cob2_monotone_stabilization() -> None:
    seq = [Fraction(3, 2)] + [1 + Fraction(2) ** (g - 1) for g in range(1, 16)]
    dims = [cob2_state_space(1, seq, cap)[0] for cap in range(4)]
    assert dims == sorted(dims)
    dim3, stab3 = cob2_state_space(1, seq, 3)
    dim4, stab4 = cob2_state_space(1, seq, 4)
    assert stab3 and stab4 and dim3 == dim4


@pytest.mark.parametrize("m", range(6))
def test_cob2_spanning_size_closed_form(m) -> None:
    """sum_k S(m, k) (cap + 1)^k counts the spanning set exactly up to the
    bound, and above it gives a lower bound that is still above it."""
    for cap in range(5):
        n = len(cob2_spanning(m, cap))
        size = cob2_spanning_size(m, cap)
        if n <= COB2_MAX_SPANNING:
            assert size == n, (m, cap)
        else:
            assert COB2_MAX_SPANNING < size <= n, (m, cap)


def test_cob2_spanning_size_stops_early() -> None:
    assert cob2_spanning_size(10 ** 9, 0) > COB2_MAX_SPANNING
    assert cob2_spanning_size(1, 10 ** 9) > COB2_MAX_SPANNING
    assert cob2_spanning_size(0, 10 ** 9) == 1
    with pytest.raises(ValueError, match="genus cap must be nonnegative"):
        cob2_spanning_size(3, -1)


@given(st.lists(st.sampled_from([PLUS, MINUS]), max_size=4),
       st.sampled_from(["monoid", "a", "ab"]), st.booleans(),
       st.integers(-1, 3))
@settings(max_examples=100, deadline=None)
def test_ket_count_is_the_number_of_kets(signs, kind, with_boundary,
                                         cap) -> None:
    """sum_k C(p, k) C(q, k) k! L^k B^(p + q - 2k) counts the kets of a
    one-object category exactly up to the bound, and above it gives a
    lower bound that is still above it."""
    obj = tuple((X, s) for s in signs)
    if kind == "monoid":
        cat, boundary = MonoidCategory(cyclic_group(3)), None
        labels = 3
    else:
        cat = FreeMonoidCategory(kind)
        cap = min(cap, 3 - len(kind))  # at most three words
        boundary = FreeBoundary(cat) if with_boundary else None
        labels = len(cat.words_up_to(cap))
    n = len(enumerate_kets(cat, obj, boundary, cap))
    p = signs.count(PLUS)
    size = ket_count(p, len(signs) - p, labels, labels if boundary else 0)
    assert size == n if n <= MAX_KETS else MAX_KETS < size <= n


def test_ket_count_stops_early() -> None:
    # the first term, 2^(p + q), passes the bound; the whole sum differs
    assert ket_count(3000, 3000, 2, 2) == 2 ** 6000
    # without a boundary only the perfect matchings count
    assert ket_count(3000, 2999, 6, 0) == 0
    assert ket_count(2, 2, 6, 0) == 2 * 6 ** 2
    assert ket_count(0, 0, 10 ** 9, 10 ** 9) == 1


def test_cob2_state_space_rejects_large_spanning_sets() -> None:
    seq = [Fraction(g * g + 1) for g in range(20)]
    with pytest.raises(ValueError, match="3 circles at genus cap 4 has more "
                                         "than 100 diagrams"):
        cob2_state_space(3, seq, 4)


def _fresh_cob2_rank(m: int, seq, cap: int) -> int:
    spanning = cob2_spanning(m, cap)
    return rank(Matrix([[glue_partition_diagrams(a, b, seq)
                         for b in spanning] for a in spanning]))


@pytest.mark.parametrize("m, caps", [(1, range(5)), (2, range(5)),
                                     (3, range(3))])
def test_cob2_stabilization_matches_fresh_grams(m, caps) -> None:
    low = [Fraction(3, 2)] + [1 + Fraction(2) ** (g - 1) for g in range(1, 30)]
    generic = [2 ** g + 3 ** g + Fraction(1, g + 1) for g in range(30)]
    for seq in (low, generic):
        for cap in caps:
            dim, stabilized = cob2_state_space(m, seq, cap)
            assert dim == _fresh_cob2_rank(m, seq, cap)
            assert stabilized == (
                cap >= 1 and dim == _fresh_cob2_rank(m, seq, cap - 1))


@st.composite
def cob2_grams(draw):
    """Up to ten diagrams, repeats allowed, of m = 0..4 circles at genus cap
    0..3, and a rational sequence from empty to long enough."""
    m, cap = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    sample = draw(st.lists(st.sampled_from(cob2_spanning(m, cap)),
                           min_size=1, max_size=10))
    # a gluing has genus at most 2 m cap from its blocks plus m - 1 from
    # its cycles
    seq = draw(st.lists(drawn_values, max_size=2 * m * cap + m + 1))
    return sample, seq


def _glued_gram(sample, seq):
    """The Gram glued entry by entry, row by row, or the first error."""
    try:
        return [[glue_partition_diagrams(a, b, seq) for b in sample]
                for a in sample]
    except SequenceTooShort as exc:
        return str(exc)


def _unscaled(rows, scale) -> list:
    """Int rows over their scale, as Fractions; a non-int entry fails."""
    assert all(type(x) is int for row in rows for x in row)
    return [[Fraction(x, scale) for x in row] for row in rows]


@given(cob2_grams())
@settings(max_examples=150, deadline=None)
def test_cob2_templates_match_the_gluing(case) -> None:
    sample, seq = case
    try:
        got = _unscaled(*statespaces._cob2_gram_rows(sample, seq))
    except SequenceTooShort as exc:
        got = str(exc)
    assert got == _glued_gram(sample, seq)


# ints, integral Fractions and other Fractions, zero and negative ones
cob2_values = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction),
                        st.fractions(-4, 4, max_denominator=6))


@given(st.integers(0, 3), st.integers(0, 2), st.data())
@settings(max_examples=150, deadline=None)
def test_cob2_int_gram_is_the_fraction_gram(m, cap, data) -> None:
    """`Matrix.from_ints` of the int rows over their scale holds the ints
    and den that `Matrix` of the glued Fraction rows holds, so `rank`
    reads the same input; a sequence too short for some gluing raises
    the gluing's `SequenceTooShort`, message and all."""
    sample = data.draw(st.lists(st.sampled_from(cob2_spanning(m, cap)),
                                min_size=1, max_size=10))
    seq = data.draw(st.lists(cob2_values, max_size=2 * m * cap + m + 1))
    expected = _glued_gram(sample, seq)
    if isinstance(expected, str):
        with pytest.raises(SequenceTooShort) as info:
            statespaces._cob2_gram_rows(sample, seq)
        assert str(info.value) == expected
        return
    gram = Matrix.from_ints(*statespaces._cob2_gram_rows(sample, seq))
    want = Matrix(expected)
    assert (gram.ints, gram.den) == (want.ints, want.den)
    assert all(type(x) is int for row in gram.ints for x in row)


@pytest.mark.parametrize("m, cap", [(1, 3), (2, 2), (3, 1)])
def test_cob2_state_space_takes_the_message_from_the_gluing(m, cap) -> None:
    spanning = cob2_spanning(m, cap)
    seq = []
    while isinstance(expected := _glued_gram(spanning, seq), str):
        with pytest.raises(SequenceTooShort) as info:
            cob2_state_space(m, seq, cap)
        assert str(info.value) == expected
        seq.append(Fraction(len(seq) + 2, len(seq) + 1))
    assert cob2_state_space(m, seq, cap)[0] == gj_rank(Matrix(expected))


def test_cob2_templates_are_checked_against_the_gluing(monkeypatch) -> None:
    seq = [Fraction(g + 2, g + 1) for g in range(12)]
    glue = glue_partition_diagrams
    monkeypatch.setattr(statespaces, "glue_partition_diagrams",
                        lambda a, b, s: glue(a, b, s) + 1)
    with pytest.raises(InternalInconsistency,
                       match=r"disagrees with the gluing at entry \(0, 0\)"):
        cob2_state_space(2, seq, 1)


def test_cob2_template_is_checked_for_values_the_gluing_has(monkeypatch) -> None:
    # the gluing now values every pair, while the empty sequence leaves the
    # template's components without one
    monkeypatch.setattr(statespaces, "glue_partition_diagrams",
                        lambda a, b, s: Fraction(0))
    with pytest.raises(InternalInconsistency,
                       match=r"template misses a value the gluing has at "
                             r"entry \(0, 0\)"):
        cob2_state_space(1, [], 1)


def test_cob2_gram_glues_once_per_pair_of_partitions(monkeypatch) -> None:
    glued = []

    def counting_glue(a, b, s):
        glued.append(1)
        return glue_partition_diagrams(a, b, s)

    monkeypatch.setattr(statespaces, "glue_partition_diagrams", counting_glue)
    spanning = cob2_spanning(3, 1)
    seq = [Fraction(g + 2, g + 1) for g in range(9)]
    rows = _unscaled(*statespaces._cob2_gram_rows(spanning, seq))
    partitions = 5  # Bell(3)
    assert len(spanning) == 22
    assert len(glued) == partitions ** 2
    assert rows == _glued_gram(spanning, seq)


# --- algebraic gluing oracle ------------------------------------------------------


class _Frob:
    """Plain tensor-calculus Frobenius algebra for cross-checking the
    combinatorial gluing: basis vectors, multiplication table, counit."""

    def __init__(self, mult, counit, unit):
        self.d = len(counit)
        self.mult = mult  # mult[i][j] = coefficient vector of e_i * e_j
        self.counit = [Fraction(x) for x in counit]
        self.unit = [Fraction(x) for x in unit]
        gram = Matrix([[self.eps(self.mul_basis(i, j)) for j in range(self.d)]
                       for i in range(self.d)])
        self.dual = column_inverse(gram).entries

    def mul_basis(self, i, j):
        return [Fraction(c) for c in self.mult[i][j]]

    def mul(self, x, y):
        out = [Fraction(0)] * self.d
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, c in enumerate(self.mul_basis(i, j)):
                    out[k] += xi * yj * c
        return out

    def eps(self, x):
        return sum((a * b for a, b in zip(x, self.counit)), Fraction(0))

    def basis_vec(self, i):
        return [Fraction(1) if k == i else Fraction(0) for k in range(self.d)]

    def dual_vec(self, j):
        out = [Fraction(0)] * self.d
        for k, c in enumerate(self.dual[j]):
            out[k] += c
        return out

    def handle(self):
        h = [Fraction(0)] * self.d
        for i in range(self.d):
            for k, c in enumerate(self.mul(self.basis_vec(i), self.dual_vec(i))):
                h[k] += c
        return h

    def handle_power(self, g):
        h = self.handle()
        out = list(self.unit)
        for _ in range(g):
            out = self.mul(out, h)
        return out

    def alpha_seq(self, n):
        return [self.eps(self.handle_power(g)) for g in range(n)]

    def delta_k(self, x, k):
        """Iterated comultiplication into k factors, as dict[index tuple]."""
        if k == 1:
            return {(i,): c for i, c in enumerate(x) if c != 0}
        prev = self.delta_k(x, k - 1)
        out = {}
        for idx, c in prev.items():
            first = self.basis_vec(idx[0])
            # Delta(e) = sum_i (e * u_i) (x) v_i
            for i in range(self.d):
                left = self.mul(first, self.basis_vec(i))
                right = self.dual_vec(i)
                for a, ca in enumerate(left):
                    if ca == 0:
                        continue
                    for b, cb in enumerate(right):
                        if cb == 0:
                            continue
                        key = (a, b) + idx[1:]
                        out[key] = out.get(key, Fraction(0)) + c * ca * cb
        return out

    def surface_value(self, d1: PartitionDiagram, d2: PartitionDiagram):
        """Contract the actual cobordism tensors along the circles."""
        m = d1.m
        # build the outgoing tensor: one factor per circle 1..m
        global_t = {(): Fraction(1)}
        factor_pos = {}
        pos = 0
        for bi, block in enumerate(d1.blocks):
            t = self.delta_k(self.handle_power(d1.genus[bi]), len(block))
            new = {}
            for idx0, c0 in global_t.items():
                for idx1, c1 in t.items():
                    new[idx0 + idx1] = new.get(idx0 + idx1, Fraction(0)) + c0 * c1
            global_t = new
            for c in block:
                factor_pos[c] = pos
                pos += 1
        total = Fraction(0)
        for idx, c in global_t.items():
            term = c
            for bj, block in enumerate(d2.blocks):
                x = self.handle_power(d2.genus[bj])
                for circ in block:
                    x = self.mul(x, self.basis_vec(idx[factor_pos[circ]]))
                term *= self.eps(x)
            total += term
        return total


def _example_algebras():
    one_dim = _Frob([[[1]]], [Fraction(1, 3)], [1])
    dual_numbers = _Frob(
        [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],  # Q[x]/(x^2)
        [5, 1], [1, 0])
    split = _Frob(
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],  # Q x Q
        [1, Fraction(1, 2)], [1, 1])
    return [one_dim, dual_numbers, split]


@pytest.mark.parametrize("algebra", _example_algebras(),
                         ids=["one-dim", "dual-numbers", "split"])
def test_gluing_matches_tensor_calculus(algebra) -> None:
    seq = algebra.alpha_seq(14)
    for m in (1, 2):
        spanning = cob2_spanning(m, 2)
        for a in spanning:
            for b in spanning:
                assert glue_partition_diagrams(a, b, seq) == \
                    algebra.surface_value(a, b), (a, b)
