import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopcat
from loopcat import errors, frobenius, linalg, pseudochar, statespaces
from loopcat.errors import DomainError
from loopcat.frobenius import (
    ClassificationData,
    DimensionMismatch,
    FirstViolation,
    FrobeniusAlgebra,
    InternalInconsistency,
    NondegeneracyFailure,
    NotAssociative,
    NotCommutative,
    NotUnital,
    PIHSystem,
    Reject,
    SingularT,
    _dotted_strands,
    classify_genfun,
    cob2_pseudochar_check,
    generating_function,
    handle_element,
    pih_check,
    pih_solve,
    product_algebra,
    surface_eval,
    truncated_poly_algebra,
    validate,
    witness_synthesis,
)
from loopcat.cli import (_classification_from_json, _classification_to_json,
                         _frobenius_from_json, _frobenius_to_json,
                         _genfun_from_json, _genfun_to_json)
from loopcat.linalg import Matrix, Polynomial, RationalFunction
from loopcat.statespaces import SequenceTooShort
from oracles import (_signed_cycle_decompositions, cell_reader,
                     classification_genfun, column_det, column_solve,
                     confluent_matrix, dense_algebra, dense_cells,
                     dense_multiply, dense_product_algebra,
                     dense_truncated_poly_algebra, dense_validate,
                     dual_basis, f1_pullback, fraction_eps,
                     fraction_multiply, fraction_validate)


def diagonal_algebra(counit_values) -> FrobeniusAlgebra:
    """Q x ... x Q with componentwise product."""
    n = len(counit_values)
    structure = [[[Fraction(i == j == k) for k in range(n)]
                  for j in range(n)] for i in range(n)]
    return dense_algebra(n, structure, [1] * n, counit_values)


def nilpotent_counit(m: int, mu=0) -> list:
    counit = [Fraction(0)] * m
    counit[0] = Fraction(mu)
    counit[m - 1] = Fraction(1)
    return counit


def rf(num, den=(1,)) -> RationalFunction:
    return RationalFunction(Polynomial(num), Polynomial(den))


# --- validation --------------------------------------------------------------------


def test_validate_accepts_truncated_polynomials() -> None:
    for m in range(1, 5):
        validate(truncated_poly_algebra(m, nilpotent_counit(m, mu=7)))


def test_validate_rejects_singular_counit() -> None:
    # Q[x]/x^2 with eps = (1, 0): the form has a null vector x
    with pytest.raises(NondegeneracyFailure):
        validate(truncated_poly_algebra(2, [1, 0]))


def _unital_structure(n):
    """Structure constants with e_0 acting as the unit, zero elsewhere."""
    s = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            s[0][j][k] = s[j][0][k] = Fraction(j == k)
    return s


def test_validate_rejects_noncommutative() -> None:
    s = _unital_structure(3)
    s[1][2][1] = s[2][1][2] = Fraction(1)  # e1 e2 = e1 but e2 e1 = e2
    with pytest.raises(NotCommutative):
        validate(dense_algebra(3, s, [1, 0, 0], [0, 1, 1]))


def test_validate_rejects_nonassociative() -> None:
    s = _unital_structure(3)
    s[1][1][2] = Fraction(1)  # e1^2 = e2
    s[2][2][1] = Fraction(1)  # e2^2 = e1, so (e1 e1) e2 = e1 but e1 (e1 e2) = 0
    with pytest.raises(NotAssociative, match=r"^\(e_1 e_1\) e_2 differs$"):
        validate(dense_algebra(3, s, [1, 0, 0], [0, 1, 1]))


def _one_failing_pair() -> FrobeniusAlgebra:
    """e2^2 = e2 and e1 e2 = 2 e2: associativity fails at (1, 1, 2) and
    (2, 1, 1) only, one pair (i, j, k), (k, j, i) with i < k."""
    s = _unital_structure(3)
    s[2][2][2] = Fraction(1)
    s[1][2][2] = s[2][1][2] = Fraction(2)
    return dense_algebra(3, s, [1, 0, 0], [0, 1, 1])


def test_one_failing_pair_fails_only_there() -> None:
    fa = _one_failing_pair()
    basis = [tuple(Fraction(i == k) for i in range(3)) for k in range(3)]
    failing = [(i, j, k) for i, j, k in product(range(3), repeat=3)
               if fa.multiply(fa.multiply(basis[i], basis[j]), basis[k])
               != fa.multiply(basis[i], fa.multiply(basis[j], basis[k]))]
    assert failing == [(1, 1, 2), (2, 1, 1)]
    with pytest.raises(NotAssociative, match=r"^\(e_1 e_1\) e_2 differs$"):
        validate(fa)


@st.composite
def planted_structures(draw):
    """Q[x]/x^n or e_0 times zero, dim 1-5, with up to three structure
    constants planted away from e_0 symmetrically (commutative and unital)
    or on one side only (non-commutative), or anywhere with a drawn unit
    (non-unital)."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        s = [[[Fraction(i + j == k) for k in range(n)] for j in range(n)]
             for i in range(n)]
    else:
        s = _unital_structure(n)
    unit = [int(k == 0) for k in range(n)]
    kind = draw(st.sampled_from(["commutative", "noncommutative", "nonunital"]))
    lo = 0 if kind == "nonunital" else 1
    slots = st.integers(lo, n - 1)
    for _ in range(draw(st.integers(0, 3)) if lo < n else 0):
        i, j, k = draw(slots), draw(slots), draw(slots)
        s[i][j][k] = Fraction(draw(st.integers(-2, 2)))
        if kind != "noncommutative":
            s[j][i][k] = s[i][j][k]
    if kind == "nonunital" and draw(st.booleans()):
        unit = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    counit = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return dense_algebra(n, s, unit, counit)


def _outcome(check, fa):
    try:
        check(fa)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


@given(planted_structures())
@example(_one_failing_pair())
@settings(max_examples=200, deadline=None)
def test_validate_matches_dense_reference(fa) -> None:
    """Associativity on i < k only, skipping the triples with
    e_i e_j = e_j e_k = 0, raises what the dense check on every triple
    raises, or passes with it."""
    assert _outcome(validate, fa) == _outcome(dense_validate, fa)


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def sparse_and_dense_algebras(draw):
    """A witness-shaped product of Q[x]/x^m blocks, or dim 1-4 structure
    constants, unit and counit drawn densely from small signed fractions."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        return product_algebra(*(truncated_poly_algebra(m, nilpotent_counit(m))
                                 for m in sizes))
    n = draw(st.integers(1, 4))
    cells = st.lists(SMALL_FRACTIONS, min_size=n, max_size=n)
    structure = [[draw(cells) for _ in range(n)] for _ in range(n)]
    return dense_algebra(n, structure, draw(cells), draw(cells))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_multiply_matches_dense_reference(data) -> None:
    """The int kernel on a = x/s and b = y/t, over s t D, is the dense
    Fraction product."""
    fa = data.draw(sparse_and_dense_algebras())
    entries = st.one_of(st.just(0), st.integers(-3, 3), SMALL_FRACTIONS)
    vectors = st.lists(entries, min_size=fa.dim, max_size=fa.dim)
    a, b = data.draw(vectors), data.draw(vectors)
    assert fraction_multiply(fa, a, b) == dense_multiply(dense_cells(fa), a, b)


NONZERO_FRACTIONS = SMALL_FRACTIONS.filter(bool)


@st.composite
def witness_algebras(draw):
    """`witness_synthesis` of drawn classification data, dimension <= 8."""
    m = draw(st.sampled_from([0, 2, 3, 4]))
    lams = draw(st.lists(NONZERO_FRACTIONS, unique=True, min_size=int(m == 0),
                         max_size=2))
    poles = tuple((lam, draw(st.integers(1, 2))) for lam in
                  sorted(lams, key=lambda l: (l.numerator, l.denominator)))
    mu = draw(SMALL_FRACTIONS) if m else 0
    return witness_synthesis(ClassificationData(mu, m, poles))


def rescaled(fa: FrobeniusAlgebra, lam) -> FrobeniusAlgebra:
    """fa in the basis lam_i e_i: c_ijk lam_i lam_j / lam_k, unit_k / lam_k
    and lam_k eps_k."""
    s = [[[c * lam[i] * lam[j] / lam[k] for k, c in enumerate(row)]
          for j, row in enumerate(plane)]
         for i, plane in enumerate(dense_cells(fa))]
    return dense_algebra(fa.dim, s, [u / l for u, l in zip(fa.unit, lam)],
                         [e * l for e, l in zip(fa.counit, lam)])


@st.composite
def corrupted_algebras(draw):
    """Products of one or two witness algebras, sometimes in a rescaled
    basis e_i -> lam_i e_i (the same algebra with non-integral structure
    constants, unit and counit), with at most one structure constant
    changed: in a row of the unit, to break unitality on the left or the
    right; off the unit on one side, to break commutativity; or on both
    sides, which keeps commutativity and may break associativity; or
    with a counit entry zeroed, which may make the pairing singular.  Or
    dense drawn constants, which seldom satisfy any axiom."""
    if draw(st.integers(0, 4)) == 0:
        return draw(sparse_and_dense_algebras())
    fa = product_algebra(*draw(st.lists(witness_algebras(), min_size=1,
                                        max_size=2)))
    n = fa.dim
    if draw(st.booleans()):
        fa = rescaled(fa, draw(st.lists(NONZERO_FRACTIONS, min_size=n,
                                        max_size=n)))
    s = [[list(row) for row in plane] for plane in dense_cells(fa)]
    unit, counit = list(fa.unit), list(fa.counit)
    kind = draw(st.sampled_from(["none", "left unit", "right unit",
                                 "commutativity", "associativity", "counit"]))
    ones = [i for i in range(n) if unit[i]]
    rest = [i for i in range(n) if not unit[i]]
    delta, k = draw(NONZERO_FRACTIONS), draw(st.integers(0, n - 1))
    if kind == "counit":
        counit[k] = 0
    elif kind in ("left unit", "right unit"):
        i, j = draw(st.sampled_from(ones)), draw(st.integers(0, n - 1))
        if kind == "right unit":
            i, j = j, i
        s[i][j][k] += delta
    elif kind != "none":
        order = draw(st.permutations(rest if len(rest) > 1 else range(n)))
        i, j = (order * 2)[:2]  # distinct unless n = 1
        s[i][j][k] += delta
        if kind == "associativity":
            s[j][i][k] += delta
    return dense_algebra(n, s, unit, counit)


@given(corrupted_algebras())
@settings(max_examples=200, deadline=None)
def test_int_validate_matches_fraction_validate(fa) -> None:
    """The int kernel raises the exception, with its message, that the
    Fraction loops raise, or passes where they pass."""
    assert _outcome(validate, fa) == _outcome(fraction_validate, fa)


def test_validate_forms_only_the_triples_with_a_nonzero_product(
        monkeypatch) -> None:
    """On a dim-12 witness of the surfaces chains' shape (m = 2 and ten
    one-dimensional factors: 13 nonzero structure constants of 1,728),
    associativity forms the two sides of the 142 triples i < k with
    e_i e_j or e_j e_k nonzero, of 792, in lexicographic order, and runs
    the vector product kernel only for the unit: the witness's handle is
    built already."""
    fa = witness_synthesis(ClassificationData(3, 2, (
        (Fraction(-2), 2), (Fraction(-1, 2), 1), (Fraction(1, 3), 3),
        (Fraction(5, 2), 2), (Fraction(7), 2))))
    t, n = fa._terms, fa.dim
    assert (n, sum(len(row) for plane in t for row in plane)) == (12, 13)
    expected = [(i, j, k) for i in range(n) for j in range(n)
                for k in range(i + 1, n) if t[i][j] or t[j][k]]
    associator, multiply, formed, products = (frobenius._associator,
                                              fa.multiply, [], [])

    def counted_associator(terms, i, j, k):
        formed.append((i, j, k))
        return associator(terms, i, j, k)

    def counted_multiply(a, b):
        products.append(None)
        return multiply(a, b)
    monkeypatch.setattr(frobenius, "_associator", counted_associator)
    monkeypatch.setattr(fa, "multiply", counted_multiply)
    validate(fa)
    assert formed == expected and len(formed) == 142
    assert len(products) == 2 * n  # unit e_i and e_i unit for each i


def test_validate_passes_sides_whose_terms_cancel() -> None:
    """Q^3 in the basis (-1, 1, -1), (2, -1, 0), (1, 1, 2) of idempotent
    coordinates: (e_1 e_2) e_2 = e_1 e_2 = e_1, while e_1 (e_2 e_2) sums
    terms at e_0 and e_2 that cancel.  The algebra is associative."""
    structure = [[["3/5", "2/5", "4/5"], ["-8/5", "-7/5", "-4/5"],
                  ["8/5", "2/5", "-1/5"]],
                 [["-8/5", "-7/5", "-4/5"], ["12/5", "13/5", "6/5"],
                  ["0", "1", "0"]],
                 [["8/5", "2/5", "-1/5"], ["0", "1", "0"],
                  ["-6/5", "-4/5", "7/5"]]]
    fa = dense_algebra(3, structure, ["3/5", "2/5", "4/5"], [1, 1, 1])
    assert frobenius._associator(fa._terms, 1, 2, 2) == {0: 0, 1: 0, 2: 0}
    assert _outcome(validate, fa) is None
    assert _outcome(dense_validate, fa) is None


def test_validate_rejects_bad_unit() -> None:
    fa = truncated_poly_algebra(2, [0, 1])
    broken = dense_algebra(2, dense_cells(fa), [0, 1], [0, 1])
    with pytest.raises(NotUnital):
        validate(broken)


def test_malformed_shapes_raise_value_error() -> None:
    with pytest.raises(ValueError):
        dense_algebra(2, [[[1]]], [1, 0], [0, 1])
    with pytest.raises(ValueError):
        dense_algebra(0, [], [], [])


# --- dual bases and handles --------------------------------------------------------


@st.composite
def handle_algebras(draw):
    """Witness products, sometimes in a rescaled basis, with their counit
    times a drawn nonzero fraction (non-integral in most draws) and, in a
    fifth of the draws, one counit entry zeroed, which may make the
    pairing singular."""
    fa = product_algebra(*draw(st.lists(witness_algebras(), min_size=1,
                                        max_size=2)))
    n = fa.dim
    if draw(st.booleans()):
        fa = rescaled(fa, draw(st.lists(NONZERO_FRACTIONS, min_size=n,
                                        max_size=n)))
    c = draw(NONZERO_FRACTIONS)
    counit = [c * e for e in fa.counit]
    if draw(st.integers(0, 4)) == 0:
        counit[draw(st.integers(0, n - 1))] = 0
    return dense_algebra(n, dense_cells(fa), fa.unit, counit)


@given(handle_algebras())
@settings(max_examples=100, deadline=None)
def test_handle_is_the_dual_basis_sum(fa) -> None:
    """The solve of G h = t gives sum_i e_i u_i over the oracle's dual
    basis, and fails with NondegeneracyFailure exactly when det G = 0."""
    if column_det(fa.gram()) == 0:
        with pytest.raises(NondegeneracyFailure,
                           match="^the pairing eps\\(ab\\) is singular$"):
            handle_element(fa)
        return
    basis = [tuple(Fraction(i == k) for i in range(fa.dim))
             for k in range(fa.dim)]
    mul = partial(dense_multiply, dense_cells(fa))
    terms = [mul(e, u) for e, u in zip(basis, dual_basis(fa))]
    assert handle_element(fa).element == tuple(map(sum, zip(*terms)))


def test_dual_basis_frozen_example() -> None:
    mu = Fraction(3)
    fa = truncated_poly_algebra(2, [mu, 1])
    assert dual_basis(fa) == [(0, 1), (1, -mu)]  # x and 1 - mu x


@given(st.fractions(min_value=-3, max_value=3, max_denominator=3),
       st.fractions(min_value=1, max_value=3, max_denominator=2))
@settings(max_examples=20)
def test_dual_basis_pairing_property(mu, c) -> None:
    fa = product_algebra(truncated_poly_algebra(2, [mu, 1]),
                         diagonal_algebra([c]))
    duals = dual_basis(fa)
    basis = [tuple(Fraction(i == k) for i in range(fa.dim))
             for k in range(fa.dim)]
    for i in range(fa.dim):
        for j in range(fa.dim):
            assert fraction_eps(fa, fraction_multiply(fa, duals[i],
                                                      basis[j])) == (i == j)


def test_handle_of_nilpotent_algebra() -> None:
    for m in range(1, 6):
        hd = handle_element(truncated_poly_algebra(m, nilpotent_counit(m)))
        want = [Fraction(0)] * m
        want[m - 1] = Fraction(m)  # m * x^(m-1)
        assert hd.element == tuple(want)


def test_handle_of_scaled_point() -> None:
    gamma = Fraction(5, 3)
    hd = handle_element(diagonal_algebra([1 / gamma]))
    assert hd.element == (gamma,)


def test_handle_of_split_pair() -> None:
    assert handle_element(diagonal_algebra([1, 1])).element == (1, 1)


def test_handle_is_multiplication_matrix() -> None:
    fa = truncated_poly_algebra(3, nilpotent_counit(3, mu=2))
    hd = handle_element(fa)
    e1 = (Fraction(0), Fraction(1), Fraction(0))
    assert hd.matrix.row(1) == fraction_multiply(fa, hd.element, e1)


# --- surface values ----------------------------------------------------------------


def test_surface_values_of_diagonal_algebra() -> None:
    # eps = (c_1, ..., c_n) gives alpha_g = sum c_i^(1-g)
    cs = [Fraction(1), Fraction(1, 2), Fraction(3)]
    fa = diagonal_algebra(cs)
    for g in range(6):
        assert surface_eval(fa, g) == sum(c ** (1 - g) for c in cs)


def test_surface_values_of_nilpotent_algebra() -> None:
    fa = truncated_poly_algebra(2, [7, 1])
    assert [surface_eval(fa, g) for g in range(5)] == [7, 2, 0, 0, 0]


def test_cross_checks_catch_dishonest_structure() -> None:
    # commutative and unital at e0 but not associative.  h solves
    # eps(h a) = tr(a .), so eps(h^2) = tr(M_h) still holds, but eps(h^g)
    # and tr(M_h^(g-1)) part ways from g = 3 on
    s = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 1, 0], [2, 0, 0], [2, -2, 1]],
         [[0, 0, 1], [2, -2, 1], [-1, -2, -1]]]
    fa = dense_algebra(3, s, [1, 0, 0], [-2, 0, 1])
    with pytest.raises(InternalInconsistency, match=r"eps\(h\^3\) disagrees"):
        generating_function(fa)
    with pytest.raises(InternalInconsistency, match=r"eps\(h\^3\) disagrees"):
        surface_eval(fa, 3)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_cross_checks_catch_a_wrong_trace_series(monkeypatch, j) -> None:
    """tr(M_h^j) raised by one disagrees with eps(h^(j+1)) taken on ints,
    on an algebra with non-integral structure constants and handle: in
    `generating_function` the series' T^j coefficient is raised, in
    `surface_eval` the trace of the power M_h^j.  The honest routes
    agree."""
    plain = product_algebra(
        truncated_poly_algebra(2, [Fraction(1, 3), Fraction(2, 5)]),
        diagonal_algebra([Fraction(3, 7)]))
    fa = rescaled(plain, [Fraction(2, 3), Fraction(-5, 2), Fraction(7)])
    assert fa.scale > 1
    assert any(x.denominator > 1 for x in handle_element(fa).element)
    assert generating_function(fa) == generating_function(plain)
    assert surface_eval(fa, j + 1) == surface_eval(plain, j + 1)
    honest = frobenius.trace_series

    def altered(m):
        num, den = honest(m)
        return num + Polynomial([0] * j + [1]) * den, den

    monkeypatch.setattr(frobenius, "trace_series", altered)
    with pytest.raises(InternalInconsistency,
                       match=rf"^eps\(h\^{j + 1}\) disagrees"):
        generating_function(fa)
    honest_power = Matrix.__pow__

    def raised(m, n):  # adds one at entry (0, 0), so one to the trace
        return honest_power(m, n) + Matrix.from_ints(
            [[int(r == c == 0) for c in range(m.cols)] for r in range(m.rows)])

    monkeypatch.setattr(Matrix, "__pow__", raised)
    with pytest.raises(InternalInconsistency,
                       match=rf"^eps\(h\^{j + 1}\) disagrees"):
        surface_eval(fa, j + 1)


def test_genus_one_is_dimension() -> None:
    examples = [
        diagonal_algebra([1, Fraction(1, 2)]),
        truncated_poly_algebra(4, nilpotent_counit(4, mu=1)),
        product_algebra(truncated_poly_algebra(2, [0, 1]),
                        diagonal_algebra([2, 3])),
    ]
    for fa in examples:
        assert surface_eval(fa, 1) == fa.dim


# --- generating functions ----------------------------------------------------------


def test_genfun_of_nilpotent_blocks() -> None:
    for m in range(2, 6):
        mu = Fraction(m, 2)
        fa = truncated_poly_algebra(m, nilpotent_counit(m, mu=mu))
        assert generating_function(fa) == rf([mu, m])


def test_genfun_of_point() -> None:
    for gamma in [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]:
        fa = diagonal_algebra([1 / gamma])
        assert generating_function(fa) == rf([1 / gamma], [1, -gamma])


def test_genfun_of_split_pair_by_hand() -> None:
    # eps = (1, 1/2): alpha_g = 1 + 2^(g-1), so F = 1/(1-T) + (1/2)/(1-2T)
    fa = diagonal_algebra([1, Fraction(1, 2)])
    want = rf([1], [1, -1]) + rf([Fraction(1, 2)], [1, -2])
    assert generating_function(fa) == want


def test_genfun_additive_on_products() -> None:
    a = truncated_poly_algebra(3, nilpotent_counit(3, mu=1))
    b = diagonal_algebra([2, Fraction(1, 3)])
    c = truncated_poly_algebra(2, [Fraction(1, 2), 1])
    assert generating_function(product_algebra(a, b)) == \
        generating_function(a) + generating_function(b)
    assert generating_function(product_algebra(a, b, c)) == \
        generating_function(a) + generating_function(b) + generating_function(c)


def test_product_algebra_of_any_number_of_factors() -> None:
    a = truncated_poly_algebra(3, nilpotent_counit(3, mu=1))
    b = diagonal_algebra([2, Fraction(1, 3)])
    c = truncated_poly_algebra(2, [Fraction(1, 2), 1])

    def data(fa):
        return fa.dim, dense_cells(fa), fa.unit, fa.counit

    assert data(product_algebra(a, b, c)) == \
        data(product_algebra(product_algebra(a, b), c))
    assert data(product_algebra(a, b, c)) == \
        data(product_algebra(a, product_algebra(b, c)))
    assert data(product_algebra(a)) == data(a)


# --- classification ----------------------------------------------------------------


def test_classify_frozen_accept() -> None:
    f = rf([5, 2]) + rf([Fraction(1, 2)], [1, -2])
    cd = classify_genfun(f)
    assert cd == ClassificationData(5, 2, ((Fraction(2), 1),))


def test_classify_geometric_series() -> None:
    assert classify_genfun(rf([1], [1, -1])) == \
        ClassificationData(0, 0, ((Fraction(1), 1),))


def test_classify_m1_forbidden() -> None:
    with pytest.raises(Reject) as exc:
        classify_genfun(rf([5, 1]))
    assert exc.value.reason == "M1Forbidden"


def test_classify_reject_reasons() -> None:
    cases = [
        (rf([1], [1, -1, -1]), "NonSplitDenominator"),  # golden-ratio poles
        (rf([1], [1, -2, 1]), "MultiplePole"),          # (1-T)^2
        (rf([Fraction(1, 3)], [1, -1]), "NonIntegerMultiplicity"),
        (rf([-1], [1, -1]), "NonIntegerMultiplicity"),  # negative count
        (rf([0, 0, 1]), "PolynomialDegreeTooHigh"),     # T^2
        (rf([5], [1]) + rf([1], [1, -1]), "ConstantTermMismatch"),
    ]
    for f, reason in cases:
        with pytest.raises(Reject) as exc:
            classify_genfun(f)
        assert exc.value.reason == reason, reason


def test_classification_data_validates() -> None:
    with pytest.raises(Reject) as exc:
        ClassificationData(0, 1, ())
    assert exc.value.reason == "M1Forbidden"
    with pytest.raises(ValueError):
        ClassificationData(3, 0, ((Fraction(1), 1),))  # mu needs a block
    with pytest.raises(ValueError):
        ClassificationData(0, 2, ((Fraction(0), 1),))  # zero eigenvalue
    with pytest.raises(ValueError):
        ClassificationData(0, 2, ((Fraction(1), 1), (Fraction(1), 2)))


def test_classify_round_trips_generating_functions() -> None:
    cd = ClassificationData(Fraction(7, 2), 3,
                            ((Fraction(-1), 2), (Fraction(1, 2), 1),
                             (Fraction(2), 1)))
    assert classify_genfun(classification_genfun(cd)) == cd


def test_partial_fractions_divide_each_pole_once(monkeypatch) -> None:
    """One division splits off the polynomial part, and each simple pole
    takes two: its quotient w, at which its coefficient is read, and the
    one that leaves a remainder.  So k poles cost 1 + 2k divisions."""
    cd = ClassificationData(Fraction(7, 2), 3,
                            ((Fraction(-1), 2), (Fraction(1, 2), 1),
                             (Fraction(2), 1)))
    rf, calls = classification_genfun(cd), []
    divide = Polynomial.__divmod__

    def counted(self, other):
        calls.append(other)
        return divide(self, other)

    monkeypatch.setattr(Polynomial, "__divmod__", counted)
    assert classify_genfun(rf) == cd
    assert len(calls) == 1 + 2 * len(cd.poles)


def test_classify_builds_no_matrix_and_calls_no_solve(monkeypatch) -> None:
    """Each pole's coefficient is read in closed form: classifying three
    poles builds no `Matrix` and runs no `solve`."""
    cd = ClassificationData(Fraction(7, 2), 3,
                            ((Fraction(-1), 2), (Fraction(1, 2), 1),
                             (Fraction(2), 1)))
    rf, calls = classification_genfun(cd), []
    for name in ("Matrix", "solve"):
        def counted(*args, real=getattr(linalg, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(linalg, name, counted)
    assert classify_genfun(rf) == cd
    assert calls == []


# --- witnesses ---------------------------------------------------------------------


def test_witness_frozen_example() -> None:
    cd = ClassificationData(5, 2, ((Fraction(2), 1),))
    fa = witness_synthesis(cd)
    validate(fa)
    assert fa.dim == 3
    assert classify_genfun(generating_function(fa)) == cd


def test_witness_pure_semisimple() -> None:
    cd = ClassificationData(0, 0, ((Fraction(1), 2), (Fraction(3), 1)))
    fa = witness_synthesis(cd)
    assert fa.dim == 3
    assert generating_function(fa) == classification_genfun(cd)


def test_witness_that_fails_to_classify_back_is_caught(monkeypatch) -> None:
    """A witness block whose counit is shifted by one changes the witness's
    generating function, and the round trip names it."""
    cd = ClassificationData(5, 2, ((Fraction(2), 1),))
    honest = frobenius.truncated_poly_algebra

    def shifted(m, counit):
        return honest(m, [counit[0] + 1, *counit[1:]])

    monkeypatch.setattr(frobenius, "truncated_poly_algebra", shifted)
    with pytest.raises(InternalInconsistency,
                       match="^witness fails to classify back$"):
        witness_synthesis(cd)
    monkeypatch.undo()
    assert (generating_function(witness_synthesis(cd))
            == classification_genfun(cd))


def test_witness_empty_rejected() -> None:
    with pytest.raises(ValueError):
        witness_synthesis(ClassificationData(0, 0, ()))


_lam_pool = [Fraction(1), Fraction(2), Fraction(3), Fraction(-1),
             Fraction(1, 2)]


@st.composite
def classification_data(draw):
    m = draw(st.sampled_from([0, 2, 3, 4]))
    mu = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)) \
        if m else Fraction(0)
    k = draw(st.integers(1 if m == 0 else 0, 3))
    lams = sorted(draw(st.permutations(_lam_pool))[:k],
                  key=lambda l: (l.numerator, l.denominator))
    mults = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return ClassificationData(mu, m, tuple(zip(lams, mults)))


@given(classification_data())
@settings(max_examples=25, deadline=None)
def test_witness_classify_identity(cd) -> None:
    assert classify_genfun(generating_function(witness_synthesis(cd))) == cd


@st.composite
def witness_classifications(draw):
    """Classification data of witness dimension <= 12: a nilpotent block of
    size 0 or 2..4 and up to four distinct poles of multiplicity 1 or 2,
    at small nonzero fractions of either sign."""
    m = draw(st.sampled_from([0, 2, 3, 4]))
    lams = draw(st.lists(NONZERO_FRACTIONS, unique=True, min_size=int(m == 0),
                         max_size=4))
    poles = tuple((lam, draw(st.integers(1, 2))) for lam in
                  sorted(lams, key=lambda l: (l.numerator, l.denominator)))
    return ClassificationData(draw(SMALL_FRACTIONS) if m else 0, m, poles)


@given(witness_classifications())
@settings(max_examples=60, deadline=None)
def test_witness_series_check_agrees_with_the_generating_function(cd) -> None:
    """The witness passes the comparison of its surface values with cd's
    series, and the round trip through generating functions, the witness's
    against `classification_genfun(cd)`, holds for it."""
    assert (generating_function(witness_synthesis(cd))
            == classification_genfun(cd))


@given(handle_algebras())
@settings(max_examples=60, deadline=None)
def test_surface_values_match_surface_eval(fa) -> None:
    """A singular pairing fails `_surface_values` as it fails
    `surface_eval`; a nonsingular one gives n int pairs.  The values are
    held to the Fraction reference, on rescaled bases too, by
    `test_surface_eval_matches_the_fraction_reference`."""
    n = 2 * fa.dim + 3
    try:
        surface_eval(fa, 0)
    except NondegeneracyFailure:
        with pytest.raises(NondegeneracyFailure):
            frobenius._surface_values(fa, n)
        return
    pairs = frobenius._surface_values(fa, n)
    assert len(pairs) == n
    assert all(type(a) is type(b) is int and b > 0 for a, b in pairs)


@st.composite
def surface_algebras(draw):
    """The cell-by-cell product of one or two witnesses of drawn
    classification data, each with its counit times a drawn nonzero
    fraction and, in a fifth of the draws, one counit entry zeroed, which
    may make the pairing singular; in half the draws, in a rescaled basis
    (non-integral structure constants and unit), as `handle_algebras`
    draws.  No handle is built."""
    factors = []
    for fa in draw(st.lists(witness_algebras(), min_size=1, max_size=2)):
        c = draw(NONZERO_FRACTIONS)
        counit = [c * e for e in fa.counit]
        if draw(st.integers(0, 4)) == 0:
            counit[draw(st.integers(0, fa.dim - 1))] = 0
        factors.append(dense_algebra(fa.dim, dense_cells(fa), fa.unit, counit))
    fa = dense_product_algebra(*factors)
    if draw(st.booleans()):
        fa = rescaled(fa, draw(st.lists(NONZERO_FRACTIONS, min_size=fa.dim,
                                        max_size=fa.dim)))
    return fa


@given(surface_algebras(), st.integers(-3, -1))
@settings(max_examples=40, deadline=None)
def test_surface_eval_matches_the_fraction_reference(fa, negative) -> None:
    """surface_eval(fa, g), g = 0 .. 2 dim + 2, is eps(h^g) taken on
    Fractions: h the sum of e_i u_i over the oracle's dual basis, its
    powers by the dense product, then the counit.  A negative genus
    raises ValueError before a handle is built, and a singular pairing
    raises NondegeneracyFailure."""
    with pytest.raises(ValueError, match="^genus must be nonnegative$"):
        surface_eval(fa, negative)
    assert fa._handle is None
    if column_det(fa.gram()) == 0:
        with pytest.raises(NondegeneracyFailure,
                           match="^the pairing eps\\(ab\\) is singular$"):
            surface_eval(fa, 0)
        return
    mul = partial(dense_multiply, dense_cells(fa))
    basis = [tuple(Fraction(i == k) for i in range(fa.dim))
             for k in range(fa.dim)]
    terms = [mul(e, u) for e, u in zip(basis, dual_basis(fa))]
    h = tuple(map(sum, zip(*terms)))
    power, want = fa.unit, []
    for _ in range(2 * fa.dim + 3):
        want.append(fraction_eps(fa, power))
        power = mul(power, h)
    assert [surface_eval(fa, g) for g in range(len(want))] == want


# x^2 = 1 in place of 0: Q[x]/(x^2 - 1), an honest algebra of another
# series; e_0 e_1 = 2 e_1 on one side only; the point's e_2 e_2 = 2 e_2
@pytest.mark.parametrize("cell", [(1, 1, 0), (0, 1, 1), (2, 2, 2)])
def test_witness_with_a_wrong_structure_constant_is_caught(monkeypatch,
                                                           cell) -> None:
    """One structure constant of the witness Q[x]/x^2 x Q, raised by one,
    changes its surface values, and the series comparison names it."""
    cd = ClassificationData(5, 2, ((Fraction(2), 1),))
    honest = frobenius.product_algebra

    def perturbed(*factors):
        fa = honest(*factors)
        cells = [[list(row) for row in plane] for plane in dense_cells(fa)]
        i, j, k = cell
        cells[i][j][k] += 1
        return dense_algebra(fa.dim, cells, fa.unit, fa.counit)

    monkeypatch.setattr(frobenius, "product_algebra", perturbed)
    with pytest.raises(InternalInconsistency,
                       match="^witness fails to classify back$"):
        witness_synthesis(cd)


# --- (p, h, iota) ------------------------------------------------------------------


def test_pih_dim_one_frozen() -> None:
    lam = Fraction(3)
    pih = PIHSystem((1,), Matrix([[lam]]), (1 / lam,))
    seq = [lam ** (n - 1) for n in range(6)]
    assert pih_check(pih, seq) == PIHReport_ok(1)


def PIHReport_ok(dim):
    from loopcat.frobenius import PIHReport
    return PIHReport(dim, True, None)


def test_pih_from_algebra() -> None:
    fa = product_algebra(truncated_poly_algebra(2, [1, 1]),
                         diagonal_algebra([Fraction(1, 2)]))
    hd = handle_element(fa)
    # row convention: p is the prepared state (unit), iota the readout (counit)
    pih = PIHSystem(fa.unit, hd.matrix, fa.counit)
    seq = [surface_eval(fa, g) for g in range(2 * fa.dim + 3)]
    assert pih_check(pih, seq).ok


def test_pih_reports_first_violation() -> None:
    lam = Fraction(2)
    pih = PIHSystem((1,), Matrix([[lam]]), (1 / lam,))
    seq = [lam ** (n - 1) for n in range(6)]
    seq[2] += 1  # breaks the trace check at n = 1 before phi at n = 2
    report = pih_check(pih, seq)
    assert not report.ok
    assert report.first_violation == FirstViolation(1, "trace")
    seq2 = [lam ** (n - 1) for n in range(6)]
    seq2[0] += 1
    assert pih_check(pih, seq2).first_violation == FirstViolation(0, "phi")


def test_pih_shape_and_length_errors() -> None:
    with pytest.raises(DimensionMismatch):
        pih_check(PIHSystem((1, 0), Matrix([[1]]), (1,)), [1] * 6)
    with pytest.raises(SequenceTooShort):
        pih_check(PIHSystem((1,), Matrix([[1]]), (1,)), [1, 1])


# --- confluent solves --------------------------------------------------------------


def test_pih_solve_frozen_block() -> None:
    cs = pih_solve([(1, 2, 2)])
    assert confluent_matrix(cs.blocks) == Matrix([[1, 2], [1, 3]])
    assert cs.r == (2, 2)
    assert cs.gamma == (2, 0)
    assert cs.verdict is None


def test_pih_solve_two_blocks() -> None:
    cs = pih_solve([(2, 1, 3), (3, 2, 1)])
    assert cs.gamma == (Fraction(3, 2), Fraction(1, 3), 0)


def test_pih_solve_verdicts() -> None:
    blocks = [(2, 2, 3), (3, 1, 2)]  # sum of multiplicities 5
    assert pih_solve(blocks, alpha1=5).verdict == "consistent"
    assert pih_solve(blocks, alpha1=6).verdict == "inconsistent"
    assert pih_solve(blocks, alpha1=7).verdict == "consistent"
    assert pih_solve(blocks, alpha1=Fraction(11, 2)).verdict == "inconsistent"


def test_pih_solve_singular_on_repeated_eigenvalue() -> None:
    with pytest.raises(SingularT):
        pih_solve([(2, 1, 1), (2, 1, 1)])


def test_vandermonde_det_single_block() -> None:
    for lam in [Fraction(2), Fraction(1, 2), Fraction(-3)]:
        for n in range(1, 4):
            cs = pih_solve([(lam, n, 1)])
            d, u = cs.det, cs.unit
            assert u == 1
            assert d == lam ** (2 * n)


def test_vandermonde_det_formula() -> None:
    configs = [
        [(1, 1), (2, 1)],
        [(1, 2), (2, 1)],
        [(2, 1), (3, 2)],
        [(1, 1), (2, 2), (3, 1)],
        [(Fraction(1, 2), 2), (-1, 1)],
    ]
    for blocks in configs:
        cs = pih_solve([(lam, n, 1) for lam, n in blocks])
        d, u = cs.det, cs.unit
        assert u == (-1) ** sum(n_i * n_j for i, (_, n_i) in enumerate(blocks)
                                for _, n_j in blocks[i + 1:]), blocks
        magnitude = Fraction(1)
        lams = [Fraction(l) for l, _ in blocks]
        sizes = [n for _, n in blocks]
        for lam, n in zip(lams, sizes):
            magnitude *= lam ** (2 * n)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                magnitude *= (lams[i] - lams[j]) ** (sizes[i] * sizes[j])
        assert d == u * magnitude


@st.composite
def confluent_blocks(draw):
    """0-4 blocks of sizes 1-4 with zero, negative and fractional
    multiplicities; about one draw in three repeats an eigenvalue."""
    lam = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(
        bool)
    lams = draw(st.lists(lam, max_size=4, unique=True))
    if len(lams) > 1 and draw(st.integers(0, 2)) == 0:
        lams[-1] = draw(st.sampled_from(lams[:-1]))
    return [(x, draw(st.integers(1, 4)),
             draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)))
            for x in lams]


@given(confluent_blocks())
@example([(Fraction(2), 1, Fraction(1)), (Fraction(2), 2, Fraction(0))])
@settings(max_examples=150, deadline=None)
def test_pih_solve_matches_confluent_elimination(blocks) -> None:
    """r, Gamma, det T and its unit, read in closed form, are those of an
    elimination of T itself; T is singular exactly when pih_solve says so."""
    t = confluent_matrix(blocks)
    d = column_det(t)
    if len({lam for lam, _n, _m in blocks}) < len(blocks):
        assert d == 0
        with pytest.raises(SingularT, match="eigenvalues repeat"):
            pih_solve(blocks)
        return
    cs = pih_solve(blocks)
    assert cs.r == tuple(sum((m * lam ** n for lam, _n, m in blocks),
                             Fraction(0)) for n in range(1, t.rows + 1))
    assert cs.gamma == column_solve(t, cs.r)
    assert cs.det == d != 0
    magnitude = Fraction(1)
    for i, (lam_i, n_i, _) in enumerate(blocks):
        magnitude *= lam_i ** (2 * n_i)
        for lam_j, n_j, _ in blocks[i + 1:]:
            magnitude *= (lam_i - lam_j) ** (n_i * n_j)
    assert cs.unit == d / magnitude == (-1) ** sum(
        n_i * n_j for i, (_, n_i, _) in enumerate(blocks)
        for _, n_j, _ in blocks[i + 1:])


# --- circle/interval pullbacks ----------------------------------------------------


def test_f1_pullback_values() -> None:
    seq = [Fraction(n * n) for n in range(8)]
    assert f1_pullback(seq, [("circle", 2)]) == 9
    assert f1_pullback(seq, [("interval", 2)]) == 4
    assert f1_pullback(seq, [("circle", 1), ("interval", 3)]) == 4 * 9
    assert f1_pullback(seq, []) == 1


def test_f1_pullback_matches_matrix_traces() -> None:
    fa = product_algebra(truncated_poly_algebra(2, [0, 1]),
                         diagonal_algebra([1, Fraction(1, 3)]))
    hd = handle_element(fa)
    seq = [surface_eval(fa, g) for g in range(10)]
    for n in range(6):
        assert f1_pullback(seq, [("circle", n)]) == (hd.matrix ** n).trace()
        assert f1_pullback(seq, [("interval", n)]) == seq[n]


def test_f1_pullback_too_short() -> None:
    with pytest.raises(SequenceTooShort):
        f1_pullback([1, 1], [("circle", 1)])


# --- sequence-level degree check ---------------------------------------------------


def test_cob2_check_all_ones() -> None:
    report = cob2_pseudochar_check([1] * 12, 1)
    assert report.ok and report.witness is None


def test_cob2_check_catches_bad_constant() -> None:
    seq = [5, 1] + [0] * 10
    report = cob2_pseudochar_check(seq, 1)
    assert not report.ok
    assert report.witness == ("interval", (0, 1))


def test_cob2_check_accepts_real_algebras() -> None:
    examples = [
        diagonal_algebra([1]),
        diagonal_algebra([1, 1]),
        truncated_poly_algebra(2, [0, 1]),
        product_algebra(truncated_poly_algebra(2, [1, 1]),
                        diagonal_algebra([Fraction(1, 2)])),
    ]
    for fa in examples:
        d = fa.dim
        need = (d + 1) * (d + 2) + 2
        seq = [surface_eval(fa, g) for g in range(need)]
        assert cob2_pseudochar_check(seq, d).ok, fa.dim


def closure_by_permutations(seq, dots, open_slot) -> Fraction:
    """Reference: close up every signed permutation of the dotted strands;
    the cycle through the open slot becomes an interval."""
    total = Fraction(0)
    for sign, cycles in _signed_cycle_decompositions(len(dots)):
        parts = [("interval" if open_slot in cyc else "circle",
                  sum(dots[i] for i in cyc)) for cyc in cycles]
        total += sign * f1_pullback(seq, parts)
    return total


class FixedDraws:
    """Stands in for `st.data()` in an explicit example, which cannot take
    a strategy: each draw returns the next of the given values."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, _strategy):
        return next(self._values)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.data())
# an open strand without dots is the strand -1, traced as alpha_0
@example([0, 2], FixedDraws([Fraction(1), 2, -3, Fraction(1, 2)]))
@settings(max_examples=100, deadline=None)
def test_dotted_strand_recursion_matches_permutation_sum(dots, data) -> None:
    seq = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        min_size=sum(dots) + 2, max_size=sum(dots) + 4))
    strands = _dotted_strands(seq)
    circles = [strands.intern(k) for k in dots]
    assert strands.antisym(circles) == \
        closure_by_permutations(seq, dots, None)
    interval = [strands.intern(dots[0] - 1)] + circles[1:]
    assert strands.antisym(interval) == \
        closure_by_permutations(seq, dots, 0)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_cob2_circle_witness_is_the_all_cap_tuple(d, cap, data) -> None:
    """An open strand with h dots is the strand with h - 1, so a circle
    tuple with an entry below the cap repeats an interval tuple scanned
    before it.  For cap >= 1 only the all-cap circle tuple reads the last
    value, so a constant run with its last value moved fails there."""
    need = (d + 1) * cap + 2
    bumped = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(
        lambda cb: [cb[0]] * (need - 1) + [cb[0] + cb[1]])
    seq = data.draw(st.one_of(
        bumped, st.lists(st.integers(-2, 2), min_size=need, max_size=need)))
    report = cob2_pseudochar_check(seq, d, cap)
    if report.witness is not None and report.witness[0] == "circle":
        assert report.witness[1] == (cap,) * (d + 1)


def test_cob2_check_rejects_at_low_degree() -> None:
    fa = diagonal_algebra([1, 1])
    seq = [surface_eval(fa, g) for g in range(12)]
    report = cob2_pseudochar_check(seq, 1)
    assert not report.ok


# --- JSON --------------------------------------------------------------------------


def test_frobenius_json_round_trip() -> None:
    fa = product_algebra(truncated_poly_algebra(2, [Fraction(1, 2), 1]),
                         diagonal_algebra([3]))
    back = _frobenius_from_json(_frobenius_to_json(fa))
    assert (back.dim, dense_cells(back), back.unit, back.counit) == \
        (fa.dim, dense_cells(fa), fa.unit, fa.counit)


@given(sparse_and_dense_algebras())
@example(dense_algebra(2, [[["-1/2", "0"], ["3", "0"]],
                           [["0", "-2"], ["0", "5/3"]]], [1, 0], [0, 1]))
@settings(max_examples=100, deadline=None)
def test_frobenius_json_formats_every_cell(fa) -> None:
    assert _frobenius_to_json(fa)["structure"] == [
        [[str(x) for x in row] for row in plane]
        for plane in dense_cells(fa)]


@st.composite
def witness_factors(draw):
    """Q[x]/x^m, m = 1-4, with a drawn counit, as built or in a rescaled
    basis, whose structure constants have a drawn common denominator."""
    m = draw(st.integers(1, 4))
    fa = truncated_poly_algebra(m, draw(st.lists(SMALL_FRACTIONS, min_size=m,
                                                 max_size=m)))
    if draw(st.booleans()):
        fa = rescaled(fa, draw(st.lists(NONZERO_FRACTIONS, min_size=m,
                                        max_size=m)))
    return fa


def _built(fa) -> tuple:
    return (fa.dim, fa.scale, fa._terms, dense_cells(fa), fa.unit, fa.counit,
            json.dumps(_frobenius_to_json(fa)))


@given(st.integers(1, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_truncated_poly_algebra_matches_dense_reference(m, data) -> None:
    counit = data.draw(st.lists(SMALL_FRACTIONS, min_size=m, max_size=m))
    assert _built(truncated_poly_algebra(m, counit)) == \
        _built(dense_truncated_poly_algebra(m, counit))


@given(st.lists(witness_factors(), min_size=1, max_size=4))
@example([truncated_poly_algebra(2, [0, 1]),
          rescaled(truncated_poly_algebra(1, [1]), [Fraction(1, 2)]),
          rescaled(truncated_poly_algebra(2, [1, 1]),
                   [Fraction(2, 3), Fraction(3)])])
@settings(max_examples=100, deadline=None)
def test_product_algebra_matches_dense_reference(factors) -> None:
    """The sparse product moves each factor's terms to its block over the
    lcm of the factors' scales: the same cells, scale, report bytes and
    nonzero terms as the product assembled cell by cell."""
    assert _built(product_algebra(*factors)) == \
        _built(dense_product_algebra(*factors))


ZERO_CELLS = st.sampled_from([0, "0", "0/7", "-0"])
CELLS = st.one_of(ZERO_CELLS, st.integers(-3, 3), SMALL_FRACTIONS,
                  SMALL_FRACTIONS.map(str))


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_dense_cells_parse_to_their_nonzero_terms(n, data) -> None:
    """`from_dense_cells` keeps the nonzero cells, in order, over the
    lcm of their denominators, and stores no dense structure."""
    cells = st.lists(CELLS, min_size=n, max_size=n)
    structure = [[data.draw(cells) for _ in range(n)] for _ in range(n)]
    fa = dense_algebra(n, structure, data.draw(cells), data.draw(cells))
    parsed = tuple(tuple(tuple(map(Fraction, row)) for row in plane)
                   for plane in structure)
    assert dense_cells(fa) == parsed
    assert fa.scale == lcm(*(c.denominator for plane in parsed
                             for row in plane for c in row))
    for plane, terms in zip(parsed, fa._terms):
        for row, pairs in zip(plane, terms):
            assert pairs == tuple((k, c * fa.scale)
                                  for k, c in enumerate(row) if c)
    assert "structure" not in vars(fa)


ZERO_SPELLINGS = st.sampled_from([0, "0", "-0", "0/7", " 0"])
GOOD_CELLS = st.one_of(st.just("0"), ZERO_SPELLINGS, st.integers(-3, 3),
                       st.integers(-3, 3).map(str), SMALL_FRACTIONS,
                       SMALL_FRACTIONS.map(str))
BAD_CELLS = st.sampled_from([True, False, None, 1.5, 0.0, [], "x", "1/0",
                             "1e5000"])


@st.composite
def algebra_documents(draw):
    """A job's `frobenius` section of dimension 1-4: rows of "0" cells or
    of drawn cells, unit and counit, then sometimes made malformed: a bad
    cell in the structure, unit or counit, a ragged row, one plane too
    many or too few, a short unit, or a dimension of 0 or -1."""
    n = draw(st.integers(1, 4))
    cells = st.lists(GOOD_CELLS, min_size=n, max_size=n)
    structure = [[["0"] * n if draw(st.booleans()) else draw(cells)
                  for _ in range(n)] for _ in range(n)]
    doc = {"dim": n, "structure": structure, "unit": draw(cells),
           "counit": draw(cells)}
    slot, kinds = st.integers(0, n - 1), ["cell", "unit", "counit", "ragged",
                                          "planes", "short unit", "dim"]
    # the cells are changed before any list is shortened
    for kind in sorted(draw(st.lists(st.sampled_from(kinds), max_size=2)),
                       key=kinds.index):
        if kind == "cell":
            structure[draw(slot)][draw(slot)][draw(slot)] = draw(BAD_CELLS)
        elif kind in ("unit", "counit"):
            doc[kind][draw(slot)] = draw(BAD_CELLS)
        elif kind == "ragged":
            row = structure[draw(slot)][draw(slot)]
            if draw(st.booleans()):
                row.append(draw(GOOD_CELLS))
            else:
                del row[-1:]
        elif kind == "planes":
            if draw(st.booleans()):
                structure.append([["0"] * n for _ in range(n)])
            else:
                del structure[-1:]
        elif kind == "short unit":
            del doc["unit"][-1:]
        else:
            doc["dim"] = draw(st.sampled_from([0, -1]))
    return doc


def _read(reader, doc):
    """The algebra's terms, scale, unit and counit, or the type and
    message of the exception reading it raises."""
    try:
        fa = reader(doc)
    except Exception as exc:  # every error the readers raise is compared
        return type(exc), str(exc)
    return fa._terms, fa.scale, fa.unit, fa.counit


@given(algebra_documents())
@example({"dim": 3, "structure": [[["0", "0", True]] * 3] * 3,
          "unit": ["1", "0", "0"], "counit": ["1", "0", "0"]})
@example({"dim": 2, "structure": [[[0, "-0"], ["0/7", " 0"]],
                                  [["0", "0"], ["0", "1/2"]]],
          "unit": ["x"], "counit": []})
@example({"dim": -1, "structure": [[["0", [], "0"]]], "unit": [],
          "counit": []})
@settings(max_examples=300, deadline=None)
def test_row_pass_reader_matches_cell_reader(doc) -> None:
    """Reading each row in one pass, and parsing only the cells of the
    rows that are not all "0", gives the terms, scale, unit and counit
    of parsing every cell, or raises the same exception with the same
    message."""
    assert _read(_frobenius_from_json, doc) == _read(cell_reader, doc)


def test_genfun_json_round_trip() -> None:
    f = rf([5, 2]) + rf([Fraction(1, 2)], [1, -2])
    assert _genfun_from_json(_genfun_to_json(f)) == f


def test_classification_json_round_trip() -> None:
    cd = ClassificationData(Fraction(1, 2), 2, ((Fraction(1, 2), 2),))
    assert _classification_from_json(_classification_to_json(cd)) == cd


# one of each result record, with stand-in field values, and a field of it
RECORDS = [
    (frobenius.HandleData((Fraction(1),), Matrix([[1]]), ((1,), 1)), "matrix"),
    (ClassificationData(0, 2, ()), "m"),
    (PIHSystem((1,), Matrix([[1]]), (1,)), "h"),
    (FirstViolation(0, "phi"), "which"),
    (frobenius.PIHReport(1, True, None), "ok"),
    (frobenius.ConfluentSystem((), (), (), None, Fraction(1), 1), "det"),
    (frobenius.Cob2PseudoReport(1, 2, True, None), "witness"),
    (pseudochar.DegreeResult(0, (), 1), "d"),
    (pseudochar.AdditivityReport((0,), 0, True), "additive"),
    (pseudochar.HolonomyReport({}, 0, 1, pseudochar.DegreeResult(0, (), 1)),
     "table"),
    (statespaces.StateSpace((), [], Matrix([[1]]), 1, 4), "cap_words"),
    (statespaces.BooleanStateSpace((), [], [], [], 0, 0, 4), "cap_words"),
    (statespaces.PartitionDiagram.make(1, [(1,)], [0]), "genus"),
]


@pytest.mark.parametrize("record, field", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_refuse_attribute_assignment(record, field) -> None:
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = None


def test_frobenius_loads_no_diagram_layer() -> None:
    """`SequenceTooShort` is one class, raised by `frobenius` and
    `statespaces` alike from `errors`, so a fresh `import loopcat.frobenius`
    loads neither `statespaces` nor `diagrams`."""
    assert (frobenius.SequenceTooShort is statespaces.SequenceTooShort
            is errors.SequenceTooShort is SequenceTooShort)
    src = str(Path(loopcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\nimport loopcat.frobenius\n"
         "print(sorted({'loopcat.statespaces', 'loopcat.diagrams'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
