import contextlib
import gc
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations, product
from math import comb, perm
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopcat.diagrams import (
    PLUS,
    BrauerMorphism,
    compose,
)
from loopcat.fincat import (
    FiniteMonoid,
    FreeBoundary,
    FreeMonoidCategory,
    MonoidCategory,
    conjugacy_classes,
    cyclic_group,
    symmetric_group,
)
from loopcat.frobenius import _dotted_strands
from loopcat.cli import _pseudochar_from_json
from loopcat.linalg import _Echelon, Matrix, det
from loopcat.pseudochar import (
    AdditivityReport,
    DegreeMismatch,
    DegreeResult,
    GraphHolonomy,
    Infeasible,
    NonInvertibleEdge,
    NotPseudo,
    PseudoCharacter,
    RepData,
    SingularTable,
    _TraceRecursion,
    _vanishing_level,
    _witness,
    alpha_charpoly,
    antisym_trace,
    char_of_rep,
    degree,
    degree_additivity_check,
    graph_pseudoholonomy,
    lift_with_table,
)
from loopcat.statespaces import Evaluation, evaluation_from_monoid
from oracles import (
    BoundaryDatum,
    _signed_cycle_decompositions,
    antisym_trace_boundary,
    close_up,
    column_eliminate,
    full_vanishing_level,
    perm_diagram,
    perm_sign,
    reference_holonomy,
    reference_walks,
    tensor,
    zero_matrix,
)

X = 0

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


# --- helpers -------------------------------------------------------------------


@lru_cache(maxsize=None)
def truncated_free_monoid(letters: str, cutoff: int):
    """Free monoid on `letters` truncated at word length `cutoff`: longer
    products fall into an absorbing zero.  Conjugacy classes are the cyclic
    rotation classes, so values on them are freely assignable symbols."""
    words = [""]
    frontier = [""]
    for _ in range(cutoff):
        frontier = [w + c for w in frontier for c in letters]
        words.extend(frontier)
    words.append("#")  # absorbing
    index = {w: i for i, w in enumerate(words)}

    def mul(u, v):
        if u == "#" or v == "#" or len(u) + len(v) > cutoff:
            return "#"
        return u + v

    table = [[index[mul(u, v)] for v in words] for u in words]
    return FiniteMonoid(table, 0), index


def class_symbol_character(monoid, seed: int) -> PseudoCharacter:
    """Distinct deterministic rational value per conjugacy class."""
    from loopcat.fincat import conjugacy_classes
    classes = conjugacy_classes(monoid)
    values = [Fraction(seed + 7 * ci + 1, 2 + (ci % 3)) for ci in range(len(classes))]
    return PseudoCharacter(monoid, values, classes)


def perm_matrix(monoid: FiniteMonoid, m: int) -> Matrix:
    rows = []
    for i in range(monoid.size):
        rows.append([1 if monoid.mul(i, m) == j else 0
                     for j in range(monoid.size)])
    return Matrix(rows)


def regular_rep(monoid: FiniteMonoid) -> RepData:
    return RepData(monoid, [perm_matrix(monoid, m) for m in range(monoid.size)])


# integer model of the 2-dim irreducible of S3: the permutation action on
# zero-sum triples in the basis (1,-1,0), (0,1,-1)
_S3_STD = {
    (0, 1, 2): [[1, 0], [0, 1]],
    (0, 2, 1): [[1, 1], [0, -1]],
    (1, 0, 2): [[-1, 0], [1, 1]],
    (1, 2, 0): [[0, 1], [-1, -1]],
    (2, 0, 1): [[-1, -1], [1, 0]],
    (2, 1, 0): [[0, -1], [-1, 0]],
}


def s3_standard_rep():
    s3 = symmetric_group(3)
    perms = sorted(_S3_STD)
    return RepData(s3, [Matrix(_S3_STD[p]) for p in perms]), s3


def labeled_strand(cat, g, boundary=None):
    return BrauerMorphism(cat, ((X, PLUS),), ((X, PLUS),), [(0, 1, g)],
                          boundary=boundary)


def diagram_antisym(cat, alpha_eval, g) -> Fraction:
    """Independent route: close up the labeled strands composed with each
    permutation diagram, with signs."""
    n = len(g)
    strands = reduce(tensor, (labeled_strand(cat, gi) for gi in g))
    total = Fraction(0)
    for sigma in permutations(range(n)):
        d = close_up(compose(strands, perm_diagram(cat, X, sigma)))
        total += perm_sign(sigma) * evaluate_closed_cached(d, alpha_eval)
    return total


def evaluate_closed_cached(d, alpha_eval):
    from loopcat.statespaces import evaluate_closed
    return evaluate_closed(d, alpha_eval)


# --- characters of representations ------------------------------------------------


def test_char_of_trivial_rep() -> None:
    z3 = cyclic_group(3)
    r = RepData(z3, [Matrix([[1]])] * 3)
    assert char_of_rep(r).values == (1, 1, 1)


def test_char_of_z2_regular() -> None:
    chi = char_of_rep(regular_rep(cyclic_group(2)))
    assert chi(0) == 2 and chi(1) == 0


def test_char_of_s3_standard() -> None:
    rep, s3 = s3_standard_rep()
    chi = char_of_rep(rep)
    # trace oracle per class: identity, transpositions (indices 1,2,5),
    # 3-cycles (indices 3,4)
    assert [chi(g) for g in range(6)] == [2, 0, 0, -1, -1, 0]


def test_rep_data_rejects_non_homomorphism() -> None:
    z2 = cyclic_group(2)
    with pytest.raises(ValueError):
        RepData(z2, [Matrix.identity(2), Matrix([[1, 0], [0, 2]])])


def test_pseudocharacter_requires_class_constancy() -> None:
    s3 = symmetric_group(3)
    with pytest.raises(ValueError):
        PseudoCharacter.from_element_values(s3, [2, 0, 1, -1, -1, 0])


def test_pseudocharacter_rejects_values_that_are_not_trace_like() -> None:
    # singleton classes let alpha(gh) and alpha(hg) differ
    s3 = symmetric_group(3)
    with pytest.raises(ValueError, match="trace-like"):
        PseudoCharacter(s3, range(6), [[g] for g in range(6)])


def test_pseudocharacter_accepts_singleton_classes_of_a_character() -> None:
    rep, s3 = s3_standard_rep()
    chi = char_of_rep(rep)
    alpha = PseudoCharacter(s3, [chi(g) for g in range(6)],
                            [[g] for g in range(6)])
    assert degree(alpha, 3) == degree(chi, 3)


# --- antisymmetrized traces -------------------------------------------------------


@given(rationals, rationals, rationals)
def test_antisym_pair_formula(va, vb, vab) -> None:
    monoid, idx = truncated_free_monoid("ab", 2)
    from loopcat.fincat import conjugacy_classes
    classes = conjugacy_classes(monoid)
    lookup = {idx["a"]: va, idx["b"]: vb, idx["ab"]: vab}
    values = []
    for c in classes:
        hits = [lookup[e] for e in c if e in lookup]
        values.append(hits[0] if hits else Fraction(0))
    alpha = PseudoCharacter(monoid, values, classes)
    a, b = idx["a"], idx["b"]
    assert antisym_trace(alpha, (a,)) == va
    assert antisym_trace(alpha, (a, b)) == va * vb - vab


@given(rationals, rationals, rationals, rationals, rationals)
def test_antisym_triple_formula(vx, vy, vxx, vxy, vxxy) -> None:
    monoid, idx = truncated_free_monoid("ab", 3)
    from loopcat.fincat import conjugacy_classes
    classes = conjugacy_classes(monoid)
    lookup = {idx["a"]: vx, idx["b"]: vy, idx["aa"]: vxx, idx["ab"]: vxy,
              idx["aab"]: vxxy}
    values = []
    for c in classes:
        hits = [lookup[e] for e in c if e in lookup]
        values.append(hits[0] if hits else Fraction(0))
    alpha = PseudoCharacter(monoid, values, classes)
    x, y = idx["a"], idx["b"]
    got = antisym_trace(alpha, (x, x, y))
    assert got == vx * vx * vy - vxx * vy - 2 * vx * vxy + 2 * vxxy


@given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=60)
def test_antisym_is_slot_symmetric(g) -> None:
    # justifies enumerating unordered tuples in the degree search
    alpha = class_symbol_character(symmetric_group(3), 3)
    base = antisym_trace(alpha, tuple(g))
    assert base == antisym_trace(alpha, tuple(sorted(g)))
    assert base == antisym_trace(alpha, tuple(reversed(g)))


def test_dual_route_three_letter_words() -> None:
    # orientation-sensitive check: distinct letters make cycle order visible
    monoid, idx = truncated_free_monoid("abc", 3)
    cat = MonoidCategory(monoid)
    alpha = class_symbol_character(monoid, 1)
    alpha_eval = evaluation_from_monoid(
        cat, [alpha(e) for e in range(monoid.size)])
    letters = [idx["a"], idx["b"], idx["c"]]
    for n in (2, 3):
        for tup in product(letters, repeat=n):
            assert antisym_trace(alpha, tup) == \
                diagram_antisym(cat, alpha_eval, tup), tup


def test_dual_route_exhaustive_small_monoid() -> None:
    # "first wins" 3-element monoid, all tuples up to length 4
    monoid = FiniteMonoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)
    cat = MonoidCategory(monoid)
    alpha = class_symbol_character(monoid, 5)
    alpha_eval = evaluation_from_monoid(
        cat, [alpha(e) for e in range(monoid.size)])
    for n in range(1, 5):
        for tup in product(range(3), repeat=n):
            assert antisym_trace(alpha, tup) == \
                diagram_antisym(cat, alpha_eval, tup), tup


def test_dual_route_four_letter_pairs() -> None:
    monoid, idx = truncated_free_monoid("ab", 4)
    cat = MonoidCategory(monoid)
    alpha = class_symbol_character(monoid, 2)
    alpha_eval = evaluation_from_monoid(
        cat, [alpha(e) for e in range(monoid.size)])
    letters = [idx["a"], idx["b"]]
    for tup in product(letters, repeat=4):
        assert antisym_trace(alpha, tup) == \
            diagram_antisym(cat, alpha_eval, tup), tup


# --- the trace recursion against the permutation sum -----------------------------


def permutation_sum(trace, multiply, g) -> Fraction:
    """Reference: the signed sum over all permutations of the slots of g."""
    total = Fraction(0)
    for sign, cycles in _signed_cycle_decompositions(len(g)):
        term = Fraction(sign)
        for cyc in cycles:
            term *= trace(reduce(multiply, [g[i] for i in cyc]))
        total += term
    return total


ORACLE_MONOIDS = (symmetric_group(3), cyclic_group(4),
                  truncated_free_monoid("ab", 2)[0])


@given(st.sampled_from(ORACLE_MONOIDS), st.data())
@settings(max_examples=80, deadline=None)
def test_recursion_matches_permutation_sum_on_class_functions(monoid,
                                                              data) -> None:
    classes = conjugacy_classes(monoid)
    values = data.draw(st.lists(rationals, min_size=len(classes),
                                max_size=len(classes)))
    alpha = PseudoCharacter(monoid, values, classes)
    g = data.draw(st.lists(st.integers(0, monoid.size - 1), max_size=6))
    assert antisym_trace(alpha, g) == permutation_sum(alpha, monoid.mul, g)


def _integer_matrices(n):
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return st.lists(st.lists(row, min_size=n, max_size=n).map(Matrix),
                    max_size=4)


@given(st.sampled_from((2, 3)).flatmap(_integer_matrices))
@settings(max_examples=80, deadline=None)
def test_recursion_matches_permutation_sum_on_matrices(mats) -> None:
    engine = _TraceRecursion(Matrix.trace, mul)
    ids = [engine.intern(m) for m in mats]
    for k in range(len(mats) + 1):  # later prefixes reuse the memo
        assert engine.antisym(ids[:k]) == \
            permutation_sum(Matrix.trace, mul, mats[:k])


def test_recursion_takes_long_tuples_without_deep_calls() -> None:
    # on a one-element monoid T(e, ..., e) is the falling factorial of alpha(e)
    alpha = PseudoCharacter(FiniteMonoid([[0]], 0), [2000])
    assert antisym_trace(alpha, (0,) * 1500) == perm(2000, 1500)


# --- the unit step ------------------------------------------------------------------


def relabelled(monoid: FiniteMonoid) -> FiniteMonoid:
    """The monoid with element x renamed size - 1 - x, so the identity of a
    monoid whose identity is 0 becomes its last element."""
    n = monoid.size
    table = [[n - 1 - monoid.mul(n - 1 - a, n - 1 - b) for b in range(n)]
             for a in range(n)]
    return FiniteMonoid(table, n - 1 - monoid.identity)


UNIT_MONOIDS = tuple(map(relabelled, ORACLE_MONOIDS))


@st.composite
def unit_engine_cases(draw):
    """(engine, trace, mul, unit, elements): an engine given the unit of
    its multiplication, the pair it was built from, the unit, and a
    strategy for its elements, which may draw the unit too.  The engines
    run on a class function of a relabelled monoid, on 2×2 or 3×3 integer
    matrices, and on dotted strands."""
    family = draw(st.sampled_from(["monoid", "matrices", "dots"]))
    if family == "monoid":
        monoid = draw(st.sampled_from(UNIT_MONOIDS))
        classes = conjugacy_classes(monoid)
        values = draw(st.lists(st.one_of(st.integers(0, 4), rationals),
                               min_size=len(classes), max_size=len(classes)))
        alpha = PseudoCharacter(monoid, values, classes)
        elements = st.integers(0, monoid.size - 1)
        return (alpha._antisym, alpha, monoid.mul, monoid.identity,
                elements)
    if family == "matrices":
        n = draw(st.sampled_from((2, 3)))
        unit = Matrix.identity(n)
        engine = _TraceRecursion(Matrix.trace, mul, unit=unit)
        elements = st.one_of(st.just(unit), st.lists(
            st.integers(-2, 2), min_size=n * n, max_size=n * n).map(
                lambda xs: Matrix([xs[i:i + n] for i in range(0, n * n, n)])))
        return engine, Matrix.trace, mul, unit, elements
    seq = draw(st.lists(st.one_of(st.integers(0, 6), rationals),
                        min_size=20, max_size=20))
    trace = seq[1:].__getitem__
    return _dotted_strands(seq), trace, add, 0, st.integers(0, 3)


@given(unit_engine_cases(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_unit_step_matches_permutation_sum(case, copies, data) -> None:
    # T(1, S) = (tr 1 - |S|)·T(S): each of the |S| permutations that move
    # the unit's slot merges the unit into one cycle, unchanged but for
    # the sign; the tuples hold 0-4 copies of the unit among the others
    engine, trace, multiply, unit, elements = case
    others = data.draw(st.lists(elements, max_size=6 - copies))
    g = data.draw(st.permutations(others + [unit] * copies))
    ids = [engine.intern(x) for x in g]
    assert engine.antisym(ids) == permutation_sum(trace, multiply, g)
    if copies:
        assert engine._unit_id == engine.intern(unit)


def test_unit_at_its_trace_settles_a_key_without_the_rest() -> None:
    # S3's standard character on the relabelled S3: the identity, element
    # 5, traces to 2, so T(1, a, b) is 0 at once and T(a, b) is not made
    s3 = relabelled(_S3)
    traces = [m.trace() for m in s3_standard_rep()[0].matrices]
    alpha = PseudoCharacter.from_element_values(s3, traces[::-1])
    engine = alpha._antisym
    a, b, one = (engine.intern(e) for e in (1, 2, s3.identity))
    assert engine.antisym([a, one, b]) == 0
    assert engine._memo[(a, b, one)] == 0
    assert (a, b) not in engine._memo
    assert engine.antisym([one, one, a]) == 0
    assert (a, one) not in engine._memo
    # a nonzero coefficient expands into T(S) and scales it
    assert engine.antisym([one, a]) == (2 - 1) * alpha(1) != 0


# --- integral values inside the recursion -----------------------------------------


@given(st.sampled_from(ORACLE_MONOIDS), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_antisym_trace_is_a_fraction_for_any_class_values(monoid, integral,
                                                          data) -> None:
    # integral values run through the recursion as ints, the others as
    # Fractions; either way the caller gets an exact Fraction
    classes = conjugacy_classes(monoid)
    values = data.draw(st.lists(
        st.integers(-6, 6) if integral else rationals,
        min_size=len(classes), max_size=len(classes)))
    if not integral:
        assume(any(v.denominator != 1 for v in values))
    alpha = PseudoCharacter(monoid, values, classes)
    g = data.draw(st.lists(st.integers(0, monoid.size - 1), max_size=6))
    got = antisym_trace(alpha, g)
    assert type(got) is Fraction
    assert got == permutation_sum(alpha, monoid.mul, g)


def test_int_and_fraction_traces_give_the_same_memo() -> None:
    # the S3 standard character handed in as ints and as Fractions: the
    # same search fills equal memos, and integral Fraction traces enter as
    # ints, so neither memo holds a Fraction
    rep, s3 = s3_standard_rep()
    traces = [int(m.trace()) for m in rep.matrices]
    runs = []
    for values in (traces, [Fraction(t) for t in traces]):
        engine = _TraceRecursion(values.__getitem__, s3.mul)
        ids = [engine.intern(e) for e in range(s3.size)]
        gram = [[values[s3.mul(g, h)] for h in range(s3.size)]
                for g in range(s3.size)]
        d, checked = _vanishing_level(engine, ids, gram, range(4))
        runs.append((engine._memo, d, checked, _witness(engine, ids, d)))
    (int_memo, *int_search), (frac_memo, *frac_search) = runs
    assert int_search == frac_search and int_search[0] == 2
    assert int_memo == frac_memo
    assert all(type(v) is int for v in int_memo.values())
    assert all(type(v) is int for v in frac_memo.values())


# --- degree ---------------------------------------------------------------------


def test_degree_trivial_group() -> None:
    one = FiniteMonoid([[0]], 0)
    alpha = PseudoCharacter(one, [1])
    res = degree(alpha, 4)
    assert res.d == 1 and res.witness == (0,)


def test_degree_z2_regular_with_oracle() -> None:
    z2 = cyclic_group(2)
    alpha = PseudoCharacter.from_element_values(z2, [2, 0])

    def brute(tup):  # independent: raw permutation loop, no shared helpers
        total = Fraction(0)
        for sigma in permutations(range(len(tup))):
            sign = perm_sign(sigma)
            seen, term = [False] * len(tup), Fraction(1)
            for i in range(len(tup)):
                if seen[i]:
                    continue
                j, prod = i, 0
                while not seen[j]:
                    seen[j] = True
                    prod = z2.mul(prod, tup[j])
                    j = sigma[j]
                term *= alpha(prod)
            total += sign * term
        return total

    assert all(brute(t) == 0 for t in product(range(2), repeat=3))
    assert brute((0, 0)) == 2  # 2^2 - 2
    res = degree(alpha, 5)
    assert res.d == 2


def test_degree_zero_character() -> None:
    z2 = cyclic_group(2)
    res = degree(PseudoCharacter.from_element_values(z2, [0, 0]), 3)
    assert res.d == 0 and res.witness == ()


def test_degree_rejects_fractional_identity() -> None:
    z2 = cyclic_group(2)
    with pytest.raises(NotPseudo):
        degree(PseudoCharacter.from_element_values(
            z2, [Fraction(3, 2), 0]), 4)


def test_degree_exceeds_bound() -> None:
    s3 = symmetric_group(3)
    alpha = PseudoCharacter.from_element_values(s3, [6, 0, 0, 0, 0, 0])
    with pytest.raises(NotPseudo):
        degree(alpha, 3)


def test_degree_matches_dimension_for_small_reps() -> None:
    z2, z3 = cyclic_group(2), cyclic_group(3)
    rep_std, s3 = s3_standard_rep()
    cases = [
        (RepData(z2, [Matrix([[1]])] * 2), 1),            # trivial
        (RepData(z2, [Matrix([[1]]), Matrix([[-1]])]), 1),  # sign
        (regular_rep(z2), 2),
        (regular_rep(z3), 3),
        (rep_std, 2),
    ]
    for rep, dim in cases:
        assert degree(char_of_rep(rep), dim + 1).d == dim


# --- characteristic polynomials --------------------------------------------------


def test_charpoly_degree_one() -> None:
    one = FiniteMonoid([[0]], 0)
    p = alpha_charpoly(PseudoCharacter(one, [1]), 0, 1)
    assert p.coeffs == (-1, 1)  # t - alpha(x)


def test_charpoly_degree_two_formula() -> None:
    rep, s3 = s3_standard_rep()
    alpha = char_of_rep(rep)
    for x in range(6):
        p = alpha_charpoly(alpha, x, 2)
        ax, axx = alpha(x), alpha(s3.mul(x, x))
        assert p[2] == 1 and p[1] == -ax and p[0] == Fraction(ax * ax - axx, 2)


def test_charpoly_matches_matrix_charpoly() -> None:
    rep, s3 = s3_standard_rep()
    alpha = char_of_rep(rep)
    for x in range(6):
        m = rep.matrices[x]
        p = alpha_charpoly(alpha, x, 2)
        # independent 2x2 characteristic polynomial: t^2 - tr t + det
        tr = m.trace()
        (a, b), (c, d) = m.entries
        dt = a * d - b * c
        assert (p[0], p[1], p[2]) == (dt, -tr, 1)
        # relative Cayley-Hamilton: substitute the matrix
        val = zero_matrix(2, 2)
        power = Matrix.identity(2)
        for k in range(3):
            val = val + power.scale(p[k])
            power = power * m
        assert val == zero_matrix(2, 2)


def test_charpoly_coefficients_are_fractions() -> None:
    # the recursion runs on ints here, and gamma_k / gamma_d must still be
    # an exact quotient: t^2 - 1 at a transposition, t^2 + t + 1 at a
    # 3-cycle
    rep, _ = s3_standard_rep()
    alpha = char_of_rep(rep)
    for x, want in ((1, (-1, 0, 1)), (3, (1, 1, 1))):
        assert rep.matrices[x].trace() == -want[1]
        p = alpha_charpoly(alpha, x, 2)
        assert p.coeffs == want
        assert all(type(c) is Fraction for c in p.coeffs)


def test_charpoly_rejects_wrong_degree() -> None:
    z2 = cyclic_group(2)
    alpha = PseudoCharacter.from_element_values(z2, [2, 0])
    with pytest.raises(DegreeMismatch):
        alpha_charpoly(alpha, 1, 1)


# --- boundary traces --------------------------------------------------------------


def _interval_value_table(fm, fb, words, seed=11):
    values = {}
    for k, w in enumerate(sorted(words)):
        values[fb.interval_class(X, (), fm.word(w))] = Fraction(seed + 3 * k, 2)
    return values


def test_boundary_trace_zero_slots_is_one() -> None:
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    got = antisym_trace_boundary(fm, fb, Evaluation(), (), [])
    # the recursion's root, the int 1, leaves as a Fraction
    assert got == 1 and type(got) is Fraction


def test_boundary_trace_six_term_expansion() -> None:
    fm = FreeMonoidCategory("abcd")
    fb = FreeBoundary(fm)
    x1, x2 = fm.word("a"), fm.word("b")
    y1, z1 = fm.word("c"), fm.word("d")
    loops = {fm.loop_class(X, [w]): v for w, v in
             [(x1, Fraction(2)), (x2, Fraction(3)),
              (fm.word("ab"), Fraction(5))]}
    ivals = _interval_value_table(fm, fb, ["cd", "cad", "cbd", "cabd", "cbad"])
    alpha = Evaluation(loops, ivals)
    v = {w: ivals[fb.interval_class(X, (), fm.word(w))]
         for w in ["cd", "cad", "cbd", "cabd", "cbad"]}
    got = antisym_trace_boundary(fm, fb, alpha, (x1, x2), [(y1, z1)])
    want = (2 * 3 * v["cd"] - 5 * v["cd"] - 2 * v["cbd"]
            + v["cabd"] + v["cbad"] - 3 * v["cad"])
    assert got == want


def _pair_strand(fm, fb, y, z):
    # a strand cut in the middle: left element z at the bottom end,
    # right element y at the top end
    return BrauerMorphism(fm, ((X, PLUS),), ((X, PLUS),), [],
                          half_intervals=[(0, z), (1, y)], boundary=fb)


def _boundary_diagram_route(fm, fb, alpha, x_labels, pairs):
    slots = [labeled_strand(fm, x, boundary=fb) for x in x_labels]
    slots += [_pair_strand(fm, fb, y, z) for y, z in pairs]
    n = len(slots)
    if n == 0:
        return Fraction(1)
    strands = reduce(tensor, slots)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        d = close_up(compose(strands, perm_diagram(fm, X, sigma, boundary=fb)))
        total += perm_sign(sigma) * evaluate_closed_cached(d, alpha)
    return total


def test_boundary_trace_diagram_route_one_pair() -> None:
    fm = FreeMonoidCategory("abcd")
    fb = FreeBoundary(fm)
    x1, x2 = fm.word("a"), fm.word("b")
    y1, z1 = fm.word("c"), fm.word("d")
    loops = {fm.loop_class(X, [fm.word(w)]): Fraction(2 + 3 * k, 3)
             for k, w in enumerate(["a", "b", "ab"])}
    ivals = _interval_value_table(fm, fb, ["cd", "cad", "cbd", "cabd", "cbad"])
    alpha = Evaluation(loops, ivals)
    assert antisym_trace_boundary(fm, fb, alpha, (x1, x2), [(y1, z1)]) == \
        _boundary_diagram_route(fm, fb, alpha, (x1, x2), [(y1, z1)])


def test_boundary_trace_diagram_route_two_pairs() -> None:
    fm = FreeMonoidCategory("acdef")
    fb = FreeBoundary(fm)
    x = fm.word("a")
    p1 = (fm.word("c"), fm.word("d"))
    p2 = (fm.word("e"), fm.word("f"))
    loops = {fm.loop_class(X, [x]): Fraction(7, 2)}
    ivals = _interval_value_table(
        fm, fb, ["cd", "cf", "ed", "ef", "cad", "caf", "ead", "eaf"])
    alpha = Evaluation(loops, ivals)
    assert antisym_trace_boundary(fm, fb, alpha, (x,), [p1, p2]) == \
        _boundary_diagram_route(fm, fb, alpha, (x,), [p1, p2])


def test_boundary_trace_rep_oracle() -> None:
    # right elements = basis vectors, left elements = covectors of the
    # regular representation of Z/2; interval value is the matrix pairing
    z2 = cyclic_group(2)
    cat = MonoidCategory(z2)
    datum = BoundaryDatum(
        cat, gr_sets={X: (0, 1)}, gl_sets={X: (0, 1)},
        gr_action=lambda m, g: z2.mul(g, m),
        gl_action=lambda m, g: z2.mul(m, g))
    ival = {}
    for gl in (0, 1):
        for gr in (0, 1):
            ival[datum.interval_class(X, gl, gr)] = \
                Fraction(1 if z2.mul(gr, gl) == 0 else 0)
    rep = regular_rep(z2)
    loops = {cat.loop_class(X, [g]): rep.matrices[g].trace() for g in (0, 1)}
    alpha = Evaluation(loops, ival)

    def matrix_route(x, y, z):
        # tr(rho(x)) <z, y> - <z, rho(x) y> via explicit entries
        m = rep.matrices[x]
        pair_xy = m.row(y)[z]
        return m.trace() * (1 if y == z else 0) - pair_xy

    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                got = antisym_trace_boundary(cat, datum, alpha, (x,), [(y, z)])
                assert got == matrix_route(x, y, z), (x, y, z)


def boundary_permutation_sum(cat, boundary, alpha, x_labels, boundary_pairs,
                             base=0) -> Fraction:
    """Reference: the signed sum over all permutations of the slots, each
    cycle through pair slots broken into interval classes at its cuts."""
    slots = [("x", lab) for lab in x_labels]
    slots += [("p", yz) for yz in boundary_pairs]
    n = len(slots)
    total = Fraction(0)
    for sign, cycles in _signed_cycle_decompositions(n):
        term = Fraction(sign)
        for cyc in cycles:
            cuts = [pos for pos, i in enumerate(cyc) if slots[i][0] == "p"]
            if not cuts:
                labels = [slots[i][1] for i in cyc]
                term *= alpha.loop(cat.loop_class(base, labels))
                continue
            for a, pos in enumerate(cuts):
                nxt = cuts[(a + 1) % len(cuts)]
                g = slots[cyc[pos]][1][0]  # start at this pair's y
                step = (pos + 1) % len(cyc)
                while step != nxt:
                    g = boundary.gr(slots[cyc[step]][1], g)
                    step = (step + 1) % len(cyc)
                z = slots[cyc[nxt]][1][1]
                term *= alpha.interval(boundary.interval_class(base, z, g))
        total += term
    return total


class _SeededEvaluation:
    """A pseudo-random rational on every loop and interval class, fixed by
    the seed and the class, and drawn once per class (a loop never equals
    an interval class)."""

    def __init__(self, seed):
        self.seed, self.values = seed, {}

    def loop(self, cls):
        value = self.values.get(cls)
        if value is None:
            rng = random.Random(f"{self.seed}:{cls!r}")
            value = self.values[cls] = Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 4))
        return value

    interval = loop


_FREE_ABC = FreeMonoidCategory("abc")
_S3 = symmetric_group(3)
_S3_CAT = MonoidCategory(_S3)
BOUNDARY_SETUPS = {
    "free-words": (_FREE_ABC, FreeBoundary(_FREE_ABC),
                   st.lists(st.integers(0, 2), max_size=3).map(tuple)),
    # S3 acting on itself: right elements by right, left ones by left
    # multiplication, so the order of every product shows
    "s3-on-itself": (_S3_CAT, BoundaryDatum(
        _S3_CAT, {X: range(6)}, {X: range(6)},
        gr_action=lambda m, g: _S3.mul(g, m),
        gl_action=lambda m, g: _S3.mul(m, g)), st.integers(0, 5)),
}


@st.composite
def boundary_cases(draw):
    """A setup name, 0-6 slots of which 0-3 are pairs, and a value seed."""
    setup = draw(st.sampled_from(sorted(BOUNDARY_SETUPS)))
    elements = BOUNDARY_SETUPS[setup][2]
    n_pairs = draw(st.integers(0, 3))
    n_labels = draw(st.integers(0, 6 - n_pairs))
    x_labels = draw(st.lists(elements, min_size=n_labels, max_size=n_labels))
    pairs = draw(st.lists(st.tuples(elements, elements),
                          min_size=n_pairs, max_size=n_pairs))
    return setup, x_labels, pairs, draw(st.integers(0, 2 ** 16))


# The recursion multiplies a cut word with a nonempty tail into one with a
# nonempty head only on larger tuples such as the six-slot example, where
# the order in which the closed interval reads them shows.
@given(boundary_cases())
@example(("free-words", [(1,), (1,), (0,), (1, 1)],
          [((0,), (1,)), ((2, 1), (0,))], 317))
@settings(max_examples=240, deadline=None)
def test_boundary_recursion_matches_permutation_sum(case) -> None:
    setup, x_labels, pairs, seed = case
    cat, boundary, _ = BOUNDARY_SETUPS[setup]
    alpha = _SeededEvaluation(seed)
    assert antisym_trace_boundary(cat, boundary, alpha, x_labels, pairs) == \
        boundary_permutation_sum(cat, boundary, alpha, x_labels, pairs)


# --- lifting ----------------------------------------------------------------------


def _s3_table():
    s3 = symmetric_group(3)
    triv = PseudoCharacter.from_element_values(s3, [1] * 6)
    sign = PseudoCharacter.from_element_values(s3, [1, -1, -1, 1, 1, -1])
    std = char_of_rep(s3_standard_rep()[0])
    return s3, [triv, sign, std]


def test_lift_trivial_plus_standard() -> None:
    s3, table = _s3_table()
    alpha = PseudoCharacter.from_element_values(
        s3, [3, 1, 1, 0, 0, 1])  # triv + std, elementwise sum
    assert lift_with_table(alpha, table) == (1, 0, 1)


def test_lift_single_character() -> None:
    _, table = _s3_table()
    assert lift_with_table(table[0], table) == (1, 0, 0)


def test_lift_infeasible_carries_solution() -> None:
    z2 = cyclic_group(2)
    table = [PseudoCharacter.from_element_values(z2, [1, 1]),
             PseudoCharacter.from_element_values(z2, [1, -1])]
    alpha = PseudoCharacter.from_element_values(z2, [1, 5])
    with pytest.raises(Infeasible) as exc:
        lift_with_table(alpha, table)
    assert exc.value.solution == (3, -2)


def test_lift_singular_table() -> None:
    z2 = cyclic_group(2)
    chi = PseudoCharacter.from_element_values(z2, [1, 1])
    chi2 = PseudoCharacter.from_element_values(z2, [2, 2])
    with pytest.raises(SingularTable):
        lift_with_table(chi, [chi, chi2])


def test_lift_eliminates_once() -> None:
    """One elimination of the table beside alpha decides a singular table
    (before alpha's span), alpha outside the span, and the solution."""
    z2 = cyclic_group(2)
    one, sign, twice, far = (PseudoCharacter.from_element_values(z2, v)
                             for v in ([1, 1], [1, -1], [2, 2], [2, 0]))
    made = []

    class Counting(_Echelon):
        def __init__(self, rows=()):
            made.append(1)
            super().__init__(rows)

    with mock.patch("loopcat.linalg._Echelon", Counting), \
            mock.patch("loopcat.pseudochar._Echelon", Counting):
        for alpha, table, error in [(far, [one, twice], SingularTable),
                                    (far, [one], Infeasible),
                                    (far, [one, sign], None)]:
            made.clear()
            if error is None:
                assert lift_with_table(alpha, table) == (1, 1)
            else:
                with pytest.raises(error) as exc:
                    lift_with_table(alpha, table)
                assert error is SingularTable or exc.value.solution is None
            assert len(made) == 1


def test_lift_reads_characters_per_element() -> None:
    """Table characters on other class lists than alpha's, singletons or
    reordered classes, are read element by element; a character on
    another monoid is rejected."""
    s3, (triv, sign, std) = _s3_table()
    singletons = [(e,) for e in range(6)]
    table = [PseudoCharacter(s3, [triv(e) for e in range(6)], singletons),
             PseudoCharacter(s3, sign.values[::-1], sign.classes[::-1]),
             std]
    alpha = PseudoCharacter.from_element_values(s3, [3, 1, 1, 0, 0, 1])
    assert lift_with_table(alpha, table) == (1, 0, 1)
    with pytest.raises(ValueError, match="live on a different monoid"):
        lift_with_table(alpha, [triv, PseudoCharacter.from_element_values(
            cyclic_group(6), [1] * 6)])


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=25)
def test_lift_reconstruction(n1, n2, n3) -> None:
    s3, table = _s3_table()
    values = [n1 * table[0].values[c] + n2 * table[1].values[c]
              + n3 * table[2].values[c] for c in range(3)]
    alpha = PseudoCharacter(s3, values)
    assert lift_with_table(alpha, table) == (n1, n2, n3)


# --- degree additivity ------------------------------------------------------------


def direct_sum_category(m1: FiniteMonoid, m2: FiniteMonoid):
    """Two-object category with End(X_i) the given monoids, no cross maps."""
    from loopcat.fincat import TableCategory
    morphisms = {}
    for e in range(m1.size):
        morphisms[("a", e)] = ("X1", "X1")
    for e in range(m2.size):
        morphisms[("b", e)] = ("X2", "X2")
    compose_rule = {}
    for a in range(m1.size):
        for b in range(m1.size):
            compose_rule[(("a", b), ("a", a))] = ("a", m1.mul(a, b))
    for a in range(m2.size):
        for b in range(m2.size):
            compose_rule[(("b", b), ("b", a))] = ("b", m2.mul(a, b))
    return TableCategory(("X1", "X2"), morphisms,
                         {"X1": ("a", m1.identity), "X2": ("b", m2.identity)},
                         lambda g, f: compose_rule[(g, f)])


def _loop_evaluation(cat, chars):
    loops = {}
    for tag, chi in chars.items():
        obj = "X1" if tag == "a" else "X2"
        for e in range(chi.monoid.size):
            loops[cat.loop_class(obj, [(tag, e)])] = chi(e)
    return Evaluation(loops)


def test_additivity_two_trivial_objects() -> None:
    one = FiniteMonoid([[0]], 0)
    cat = direct_sum_category(one, one)
    chi = PseudoCharacter(one, [1])
    report = degree_additivity_check(cat, _loop_evaluation(
        cat, {"a": chi, "b": chi}), max_d=4)
    assert report == AdditivityReport((1, 1), 2, True)


def test_additivity_z2_regular_plus_trivial() -> None:
    z2, one = cyclic_group(2), FiniteMonoid([[0]], 0)
    cat = direct_sum_category(z2, one)
    chars = {"a": char_of_rep(regular_rep(z2)),
             "b": PseudoCharacter(one, [1])}
    report = degree_additivity_check(cat, _loop_evaluation(cat, chars), max_d=4)
    assert report == AdditivityReport((2, 1), 3, True)


def test_additivity_sign_plus_standard() -> None:
    z2 = cyclic_group(2)
    rep_std, s3 = s3_standard_rep()
    cat = direct_sum_category(z2, s3)
    chars = {"a": char_of_rep(RepData(z2, [Matrix([[1]]), Matrix([[-1]])])),
             "b": char_of_rep(rep_std)}
    report = degree_additivity_check(cat, _loop_evaluation(cat, chars), max_d=4)
    assert report == AdditivityReport((1, 2), 3, True)


# --- graph holonomy ---------------------------------------------------------------


def test_holonomy_identity_loop() -> None:
    gh = GraphHolonomy(1, [(0, 0, Matrix.identity(2))])
    report = graph_pseudoholonomy(gh, 3)
    assert set(report.table.values()) == {2}
    assert report.degree.d == 2 == report.dimension


def test_holonomy_diagonal_powers() -> None:
    m = Matrix([[1, 0], [0, 2]])
    gh = GraphHolonomy(1, [(0, 0, m)])
    report = graph_pseudoholonomy(gh, 5)
    for n in range(1, 6):
        key = tuple([0] * n)
        assert report.table[key] == (m ** n).trace() == 1 + 2 ** n


def test_holonomy_two_vertices_trace_cyclicity() -> None:
    g = Matrix([[1, 1], [0, 1]])
    d = Matrix([[1, 0], [2, 1]])
    gh = GraphHolonomy(2, [(0, 1, g), (1, 0, d)])
    report = graph_pseudoholonomy(gh, 4)
    assert report.table[(0, 1)] == (g * d).trace() == (d * g).trace()


def test_holonomy_leaves_no_reference_cycles() -> None:
    gh = GraphHolonomy(1, [(0, 0, Matrix([[2]]))])
    gc.collect()
    gc.disable()
    try:
        report = graph_pseudoholonomy(gh, 3)
        assert report.degree.d == 1
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


# integers and rationals, some written unreduced, some integral in disguise
holonomy_entries = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["2/4", "-3/6", "4/2", "-6/3", "1/3", "3/2"]))


@st.composite
def holonomy_graphs(draw):
    """One or two vertices, one to three edges, one dimension from 1 to 3."""
    n_vertices = draw(st.integers(1, 2))
    dim = draw(st.integers(1, 3))
    vertex = st.integers(0, n_vertices - 1)
    # `Matrix` takes numbers: each row's strings are parsed first
    invertible = st.lists(st.lists(holonomy_entries, min_size=dim,
                                   max_size=dim),
                          min_size=dim, max_size=dim).map(
        lambda rows: Matrix([list(map(Fraction, r)) for r in rows])).filter(
        lambda m: det(m) != 0)
    edges = draw(st.lists(st.tuples(vertex, vertex, invertible),
                          min_size=1, max_size=3))
    return GraphHolonomy(n_vertices, edges)


def _holonomy_outcome(search, gh, cap):
    """The report as a tuple, its degree data left out when it has none,
    or the rejection."""
    try:
        r = search(gh, cap)
    except (NotPseudo, ValueError) as exc:
        return type(exc).__name__, str(exc)
    degree = () if r.degree is None else (
        r.degree.d, r.degree.witness, r.degree.tuples_checked)
    return (list(r.table.items()), r.dimension, *degree)


@given(holonomy_graphs(), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_holonomy_matches_matrix_search(gh, cap) -> None:
    # the reference runs the full element search over the walk matrices,
    # so this holds the closed-form degree report against it; above its
    # tuple limit it does not search, and the table and dimension are
    # held to its walk, and tuples_checked to its matrix count
    got = _holonomy_outcome(graph_pseudoholonomy, gh, cap)
    want = _holonomy_outcome(reference_holonomy, gh, cap)
    if len(want) == 2 and isinstance(want[0], list):  # no degree data
        _table, mats = reference_walks(gh, cap)
        dim = want[1]
        want += (dim, (Matrix.identity(dim),) * dim,
                 dim + comb(len(mats) + dim, dim + 1))
    assert got == want


def test_holonomy_evaluates_no_antisymmetrized_trace() -> None:
    # 20 distinct walk matrices at dimension 2: the report counts all
    # 1,540 triples at level 2 and builds no engine and no search
    gh = GraphHolonomy(2, [(0, 1, Matrix([[1, 1], [0, 1]])),
                           (1, 0, Matrix([[1, 0], [1, 1]])),
                           (0, 0, Matrix([[1, 2], [0, 1]]))])
    with mock.patch("loopcat.pseudochar._TraceRecursion") as engine, \
            mock.patch("loopcat.pseudochar._vanishing_level") as search:
        report = graph_pseudoholonomy(gh, 5)
    assert engine.call_count == search.call_count == 0
    assert len(reference_walks(gh, 5)[1]) == 20
    assert report.degree == DegreeResult(
        2, (Matrix.identity(2),) * 2, 2 + comb(20 + 2, 3))


def _walk_count(gh, cap) -> int:
    """Edge sequences of 1 to cap edges, each starting where the last ended."""
    count, ends = 0, [tgt for _src, tgt, _m in gh.edges]
    for _ in range(cap):
        count += len(ends)
        ends = [tgt for v in ends for src, tgt, _m in gh.edges if src == v]
    return count


@given(holonomy_graphs(), st.integers(1, 5), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_holonomy_walk_bound_counts_every_walk(gh, cap, bound) -> None:
    assume(0 in gh.vertex_dim)
    with mock.patch("loopcat.pseudochar.HOLONOMY_MAX_WALKS", bound):
        outcome = _holonomy_outcome(graph_pseudoholonomy, gh, cap)
    # a walk costs a product of n x n matrices: the bound is on walks · n³,
    # with n at least 2, against bound · 2³
    n = max(2, *gh.vertex_dim.values())
    limit = bound * 8 // n ** 3
    rejected = ("ValueError", f"more than {limit} walks of at most {cap} edges")
    assert (outcome == rejected) == (_walk_count(gh, cap) * n ** 3 > bound * 8)


def test_holonomy_rejects_singular_edge() -> None:
    with pytest.raises(NonInvertibleEdge):
        GraphHolonomy(1, [(0, 0, Matrix([[1, 1], [1, 1]]))])


# --- the basis search against the full search ------------------------------------


def full_search():
    """Run every vanishing search over all element tuples, by
    `oracles.full_vanishing_level`, in place of the basis search."""
    return mock.patch(
        "loopcat.pseudochar._vanishing_level",
        lambda engine, ids, _vectors, levels:
            full_vanishing_level(engine, ids, levels))


def _basis_and_full(fn, *args):
    """fn(*args), or the NotPseudo message, by both searches."""
    outcomes = []
    for search in (contextlib.nullcontext, full_search):
        with search():
            try:
                outcomes.append(fn(*args))
            except NotPseudo as exc:
                outcomes.append(("NotPseudo", str(exc)))
    return outcomes


def relabeled(monoid: FiniteMonoid, p) -> FiniteMonoid:
    """The same monoid with element x renamed p[x]."""
    table = [[0] * monoid.size for _ in range(monoid.size)]
    for a in range(monoid.size):
        for b in range(monoid.size):
            table[p[a]][p[b]] = p[monoid.mul(a, b)]
    return FiniteMonoid(table, p[monoid.identity])


def rep_characters(monoid: FiniteMonoid) -> list:
    """(element values, dimension) of the trivial and the right regular
    representation and, when the identity is the only unit, of the one
    sending every other element to 0."""
    n, e = monoid.size, monoid.identity
    chars = [([1] * n, 1),
             ([sum(monoid.mul(x, m) == x for x in range(n)) for m in range(n)],
              n)]
    if all(monoid.mul(a, b) != e for a in range(n) for b in range(n)
           if e not in (a, b)):
        chars.append(([int(x == e) for x in range(n)], 1))
    return chars


_S3_STD_REP = s3_standard_rep()[0]
_TRIPLE = FiniteMonoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)
# monoids with the characters beyond `rep_characters` they carry
SEARCH_MONOIDS = (
    (symmetric_group(3), [([m.trace() for m in _S3_STD_REP.matrices], 2),
                          ([det(m) for m in _S3_STD_REP.matrices], 1)]),
    (cyclic_group(4), [([1, -1, 1, -1], 1), ([2, 0, -2, 0], 2)]),
    (truncated_free_monoid("ab", 1)[0], []),
    (truncated_free_monoid("a", 3)[0], []),
    (_TRIPLE, []),
)
SMALL_MONOIDS = (
    (FiniteMonoid([[0]], 0), []),
    (cyclic_group(2), [([1, -1], 1)]),
    (cyclic_group(3), []),
    (truncated_free_monoid("a", 1)[0], []),
    (_TRIPLE, []),
)


@st.composite
def class_functions(draw, monoids, max_dim):
    """A trace-like class function on a relabeled monoid: a sum of
    characters of representations of total dimension at most max_dim, a
    difference of two such sums, or values drawn per class with an
    integral identity value."""
    monoid, extra = draw(st.sampled_from(monoids))
    p = draw(st.permutations(range(monoid.size)))
    target = relabeled(monoid, p)
    kind = draw(st.sampled_from(("sum", "difference", "drawn")))
    if kind != "drawn":
        sums = st.lists(st.sampled_from(rep_characters(monoid) + extra),
                        max_size=3).filter(
            lambda cs: sum(dim for _, dim in cs) <= max_dim)
        plus = draw(sums)
        minus = draw(sums) if kind == "difference" else []
        values = [0] * monoid.size
        for x in range(monoid.size):
            values[p[x]] = sum(v[x] for v, _ in plus) - \
                sum(v[x] for v, _ in minus)
        return PseudoCharacter.from_element_values(target, values)
    classes = conjugacy_classes(target)
    return PseudoCharacter(target, [
        draw(st.integers(0, max_dim)) if target.identity in c
        else draw(rationals) for c in classes], classes)


@given(class_functions(SEARCH_MONOIDS, 6),
       st.one_of(st.just(6), st.integers(0, 5)))
# the basis is the first ids with independent trace vectors, not the
# first rank-many ids: here a zero and an idempotent come first, and both
# trace to 0 against everything
@example(PseudoCharacter.from_element_values(
    FiniteMonoid([[0, 0, 0], [0, 1, 1], [0, 1, 2]], 2), [0, 0, 1]), 3)
@settings(max_examples=120, deadline=None)
def test_degree_basis_search_matches_full_search(alpha, max_d) -> None:
    got, want = _basis_and_full(degree, alpha, max_d)
    assert got == want


def test_vanishing_level_evaluates_only_basis_tuples() -> None:
    # A level-2 key holds three entries and is only made by the level-2
    # search itself, so the memo shows which tuples that level evaluated.
    # The S3 standard character spans a 4-dimensional space of trace
    # functionals, so 4 of the 6 elements make the basis.
    alpha = char_of_rep(s3_standard_rep()[0])
    assert degree(alpha, 3).tuples_checked == 2 + comb(6 + 2, 3)
    level2 = [k for k in alpha._antisym._memo if len(k) == 3]
    assert len(level2) == comb(4 + 2, 3)
    assert len({x for k in level2 for x in k}) == 4


class _VanishingEngine:
    """A stand-in engine whose antisymmetrized traces all vanish, so
    `_vanishing_level` decides level 0 on its basis alone; it records the
    tuples it is asked for."""

    def __init__(self):
        self.asked = []

    def antisym(self, tup):
        self.asked.append(tup)
        return 0


@st.composite
def dependent_vectors(draw):
    """n vectors of length m in a span of dimension at most k, some zero,
    entries integral or rational."""
    n, m, k = (draw(st.integers(0, top)) for top in (6, 5, 3))
    entry = draw(st.sampled_from([st.integers(-3, 3), rationals]))
    coeffs = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                           min_size=n, max_size=n))
    span = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=k, max_size=k))
    zero = draw(st.sets(st.integers(0, max(n - 1, 0))))
    return [[0 if i in zero else sum(c * b[j] for c, b in zip(row, span))
             for j in range(m)] for i, row in enumerate(coeffs)]


@given(dependent_vectors())
@example([[0, 1], [1, 0]])
@example([[0, 0], [2, 4], [1, 2], [0, 3]])
@example([[], []])
@settings(max_examples=100, deadline=None)
def test_vanishing_level_basis_is_the_transposed_pivot_basis(vectors) -> None:
    ids = list(range(10, 10 + len(vectors)))
    engine = _VanishingEngine()
    assert _vanishing_level(engine, ids, vectors, [0])[0] == 0
    pivots = column_eliminate(list(zip(*vectors)))[0]
    assert engine.asked == [(ids[c],) for c, _, _ in pivots]


def linked_category(m: FiniteMonoid, back: bool):
    """Two objects, each with End = m, and Hom(X1, X2) = m; with `back`
    also Hom(X2, X1) = m.  (i, j, a) then (j, k, b) is (i, k, a·b)."""
    from loopcat.fincat import TableCategory
    pairs = [(0, 0), (1, 1), (0, 1)] + [(1, 0)] * back
    morphisms = {(i, j, a): (f"X{i + 1}", f"X{j + 1}")
                 for i, j in pairs for a in range(m.size)}
    return TableCategory(("X1", "X2"), morphisms,
                         {"X1": (0, 0, m.identity), "X2": (1, 1, m.identity)},
                         lambda g, f: (f[0], g[1], m.mul(f[2], g[2])))


@st.composite
def two_object_cases(draw):
    """A two-object category with loop values: a direct sum of two monoids
    with a class function each, or one monoid linked one way or both ways
    with one class function at both objects."""
    chars = class_functions(SMALL_MONOIDS, 2)
    kind = draw(st.sampled_from(("sum", "one-way", "both-ways")))
    if kind == "sum":
        a, b = draw(chars), draw(chars)
        cat = direct_sum_category(a.monoid, b.monoid)
        return cat, _loop_evaluation(cat, {"a": a, "b": b})
    alpha = draw(chars)
    cat = linked_category(alpha.monoid, kind == "both-ways")
    return cat, Evaluation({
        cat.loop_class(obj, [(i, i, x)]): alpha(x)
        for i, obj in enumerate(cat.objects)
        for x in range(alpha.monoid.size)})


@given(two_object_cases(), st.one_of(st.just(4), st.integers(0, 3)))
@settings(max_examples=60, deadline=None)
def test_additivity_basis_search_matches_full_search(case, max_d) -> None:
    cat, evaluation = case
    got, want = _basis_and_full(degree_additivity_check, cat, evaluation,
                                None, max_d)
    assert got == want


# --- JSON ------------------------------------------------------------------------


def test_pseudochar_json_round_trip() -> None:
    s3 = symmetric_group(3)
    alpha = PseudoCharacter.from_element_values(s3, [2, 0, 0, -1, -1, 0])
    doc = {"pseudocharacter": {"classes": [list(c) for c in alpha.classes],
                               "values": [str(v) for v in alpha.values]}}
    back = _pseudochar_from_json(s3, doc["pseudocharacter"])
    assert back.values == alpha.values and back.classes == alpha.classes
