import json
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcat import frobenius
from loopcat.errors import DomainError
from loopcat.frobenius import (
    ClassificationData,
    Cob2PseudoReport,
    ConfluentSystem,
    DimensionMismatch,
    FirstViolation,
    FrobeniusAlgebra,
    HandleData,
    InternalInconsistency,
    NondegeneracyFailure,
    NotAssociative,
    NotCommutative,
    NotUnital,
    PIHSystem,
    Reject,
    SingularT,
    _dotted_strands,
    classification_from_json,
    classification_to_json,
    classify_genfun,
    cob2_pseudochar_check,
    frobenius_from_json,
    frobenius_to_json,
    generating_function,
    genfun_from_json,
    genfun_to_json,
    handle_element,
    pih_check,
    pih_solve,
    product_algebra,
    surface_eval,
    truncated_poly_algebra,
    validate,
    witness_synthesis,
)
from loopcat.linalg import Matrix, Polynomial, RationalFunction, rat, rat_str
from loopcat.statespaces import SequenceTooShort
from oracles import (_signed_cycle_decompositions, column_det, dense_algebra,
                     dense_cells, dense_multiply, dense_product_algebra,
                     dense_truncated_poly_algebra, dense_validate, dual_basis,
                     f1_pullback, fraction_validate)


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
    fa = data.draw(sparse_and_dense_algebras())
    entries = st.one_of(st.just(0), st.integers(-3, 3), SMALL_FRACTIONS)
    vectors = st.lists(entries, min_size=fa.dim, max_size=fa.dim)
    a, b = data.draw(vectors), data.draw(vectors)
    assert fa.multiply(a, b) == dense_multiply(dense_cells(fa), a, b)


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
            assert fa.eps(fa.multiply(duals[i], basis[j])) == (i == j)


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
    assert hd.matrix.row(1) == fa.multiply(hd.element, e1)


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
    """The series with its T^j coefficient raised by one disagrees with
    eps(h^(j+1)) taken on ints, on an algebra with non-integral structure
    constants and handle; the honest series agrees."""
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
        series = honest(m)
        bump = Polynomial([0] * j + [1]) * series.den
        return RationalFunction(series.num + bump, series.den)

    monkeypatch.setattr(frobenius, "trace_series", altered)
    with pytest.raises(InternalInconsistency,
                       match=rf"^eps\(h\^{j + 1}\) disagrees"):
        generating_function(fa)
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
    assert classify_genfun(cd.genfun()) == cd


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
    assert generating_function(fa) == cd.genfun()


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
    assert cs.t == Matrix([[1, 2], [1, 3]])
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
        assert u in (1, -1), blocks
        magnitude = Fraction(1)
        lams = [Fraction(l) for l, _ in blocks]
        sizes = [n for _, n in blocks]
        for lam, n in zip(lams, sizes):
            magnitude *= lam ** (2 * n)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                magnitude *= (lams[i] - lams[j]) ** (sizes[i] * sizes[j])
        assert d == u * magnitude


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
    back = frobenius_from_json(frobenius_to_json(fa))
    assert (back.dim, dense_cells(back), back.unit, back.counit) == \
        (fa.dim, dense_cells(fa), fa.unit, fa.counit)


@given(sparse_and_dense_algebras())
@example(dense_algebra(2, [[["-1/2", "0"], ["3", "0"]],
                           [["0", "-2"], ["0", "5/3"]]], [1, 0], [0, 1]))
@settings(max_examples=100, deadline=None)
def test_frobenius_json_formats_every_cell(fa) -> None:
    assert frobenius_to_json(fa)["frobenius"]["structure"] == [
        [[rat_str(x) for x in row] for row in plane]
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
            json.dumps(frobenius_to_json(fa)))


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
                  SMALL_FRACTIONS.map(rat_str))


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_dense_cells_parse_to_their_nonzero_terms(n, data) -> None:
    """`frobenius_from_json` keeps the nonzero cells, in order, over the
    lcm of their denominators, and stores no dense structure."""
    cells = st.lists(CELLS, min_size=n, max_size=n)
    structure = [[data.draw(cells) for _ in range(n)] for _ in range(n)]
    fa = dense_algebra(n, structure, data.draw(cells), data.draw(cells))
    parsed = tuple(tuple(tuple(map(rat, row)) for row in plane)
                   for plane in structure)
    assert dense_cells(fa) == parsed
    assert fa.scale == lcm(*(c.denominator for plane in parsed
                             for row in plane for c in row))
    for plane, terms in zip(parsed, fa._terms):
        for row, pairs in zip(plane, terms):
            assert pairs == tuple((k, c * fa.scale)
                                  for k, c in enumerate(row) if c)
    assert "structure" not in vars(fa)


def test_genfun_json_round_trip() -> None:
    f = rf([5, 2]) + rf([Fraction(1, 2)], [1, -2])
    assert genfun_from_json(genfun_to_json(f)) == f


def test_classification_json_round_trip() -> None:
    cd = ClassificationData(Fraction(1, 2), 2, ((Fraction(1, 2), 2),))
    assert classification_from_json(classification_to_json(cd)) == cd
