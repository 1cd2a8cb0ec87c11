from fractions import Fraction
from math import gcd, isqrt, lcm
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcat import linalg
from loopcat.linalg import (
    _Echelon,
    _gcd_mod,
    _pseudo_divmod,
    _rational_roots,
    Matrix,
    NonSplitDenominator,
    Polynomial,
    RationalFunction,
    det,
    format_poly,
    partial_fractions,
    poly_gcd,
    rank,
    solve,
    trace_series,
)
from loopcat.cli import _exact_int as exact_int, _rat as rat
from loopcat.frobenius import (FrobeniusAlgebra, generating_function,
                               handle_element, product_algebra,
                               truncated_poly_algebra, validate)
from loopcat.fincat import MonoidCategory, cyclic_group
from loopcat.statespaces import (_sub_gram, evaluation_from_monoid,
                                 state_space_field)
from oracles import (apply, column_det, column_eliminate, column_solve,
                     column_solve_unique, dense_partial_fractions,
                     dot_matmul, euclid_gcd,
                     fraction_add, fraction_divmod, fraction_eps, fraction_mul,
                     fraction_scale, fraction_taylor, from_poly,
                     gauss_jordan, gj_rank, zero_matrix)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
small_ints = st.integers(min_value=-6, max_value=6)


# --- matrices ---------------------------------------------------------------


def test_det_and_inverse() -> None:
    m = Matrix([[1, 2], [3, 4]])
    assert det(m) == -2
    columns = [solve(m, e)[0] for e in Matrix.identity(2).entries]
    assert Matrix(list(zip(*columns))) * m == Matrix.identity(2)
    assert det(Matrix([[1, 2], [2, 4]])) == 0


def test_solve_inconsistent_returns_none() -> None:
    assert solve(Matrix([[1, 1], [1, 1]]), [0, 1]) == (None, 1)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_multiplicative_in_row_swap(rows) -> None:
    m = Matrix(rows)
    swapped = Matrix([rows[1], rows[0], rows[2]])
    assert det(swapped) == -det(m)


def _cofactor_det(rows) -> Fraction:
    if not rows:
        return Fraction(1)
    return sum((Fraction((-1) ** j) * x
                * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, x in enumerate(rows[0]) if x), Fraction(0))


@st.composite
def low_rank_rows(draw, square=False):
    """A rational n x k times k x m product, some rows and columns zeroed."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    m = n if square else draw(st.integers(0, 6))
    a = draw(st.lists(st.lists(rationals, min_size=k, max_size=k),
                      min_size=n, max_size=n))
    b = draw(st.lists(st.lists(rationals, min_size=m, max_size=m),
                      min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(m - 1, 0))))
    return [[Fraction(0) if i in zero_rows or j in zero_cols
             else sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def _gj_solve(m: Matrix, b):
    rows = [list(r) + [Fraction(y)] for r, y in zip(m.entries, b)]
    pivots = gauss_jordan(rows)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx][-1]
    return tuple(x)


def _gj_inverse(m: Matrix):
    """The inverse, or None for a singular matrix."""
    n = m.rows
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m.entries)]
    if gauss_jordan(rows) != list(range(n)):
        return None
    return Matrix([r[n:] for r in rows])


@given(low_rank_rows(), st.booleans(), st.data())
@example([], True, None)  # 0 x 0
@example([[], [], []], False, None)  # 3 x 0, inconsistent right side
@example([[], []], True, None)  # 2 x 0, zero right side
@settings(max_examples=100, deadline=None)
def test_kernel_matches_gauss_jordan(rows, consistent, data) -> None:
    m = Matrix(rows)
    assert rank(m) == gj_rank(m)
    # underdetermined, overdetermined, consistent and inconsistent systems
    if data is None:
        b = [Fraction(0 if consistent else 1)] * m.rows
    elif consistent:
        b = apply(m, data.draw(st.lists(rationals, min_size=m.cols,
                                        max_size=m.cols)))
    else:
        b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    x, r = solve(m, b)
    assert x == _gj_solve(m, b)
    assert r == gj_rank(m)
    assert x is None or (apply(m, x) == tuple(b)
                         and all(type(v) is Fraction for v in x))
    if consistent:
        assert x is not None


@given(low_rank_rows(square=True), st.data())
@example([], None)
@example([[0, 0], [0, 0]], None)
@settings(max_examples=100, deadline=None)
def test_square_kernel_matches_gauss_jordan(rows, data) -> None:
    m = Matrix(rows)
    b = ([Fraction(1)] * m.rows if data is None else
         data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    ref = _gj_inverse(m)
    x, r = solve(m, b)
    if ref is None:
        assert r < m.rows
        assert det(m) == 0
    else:
        assert r == m.rows
        assert x == _gj_solve(m, b) == apply(ref, b)
        assert det(m) != 0


@given(low_rank_rows())
@settings(max_examples=120, deadline=None)
def test_rank_and_det_match_gauss_jordan(rows) -> None:
    m = Matrix(rows)
    assert rank(m) == gj_rank(m)
    # the leading square block, up to 5 x 5, against cofactor expansion
    k = min(m.rows, m.cols, 5)
    block = [r[:k] for r in rows[:k]]
    assert det(Matrix(block)) == _cofactor_det(block)


@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4,
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_det_of_full_rank_rational_matrices(rows) -> None:
    assert det(Matrix(rows)) == _cofactor_det(rows)


def test_rank_and_det_of_degenerate_shapes() -> None:
    assert rank(Matrix([])) == 0 and det(Matrix([])) == 1
    assert rank(Matrix([[], [], []])) == 0  # 3 x 0
    assert rank(zero_matrix(2, 5)) == 0
    assert rank(Matrix([[Fraction(-3, 7)]])) == 1
    assert det(Matrix([[Fraction(-3, 7)]])) == Fraction(-3, 7)
    assert det(Matrix([[0]])) == 0
    # a pivot deeper than the first row, and a column with no pivot
    assert rank(Matrix([[0, 0, 1], [0, 0, 2], [1, 0, 0]])) == 2
    assert det(Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert det(Matrix([[0, 1], [1, 0]])) == -1


# --- rank's phases ----------------------------------------------------------


def _independent(draw, n: int, entries: list) -> tuple[list, list]:
    """Independent int rows of length n, row k drawn from entries[k], and
    the columns that are no row's pivot.  The pivot columns come in a drawn
    order: row k is nonzero at pivot k and 0 at the pivots before it, so
    the minor on the pivots is triangular."""
    order = draw(st.permutations(range(n)))
    rows = []
    for k, entry in enumerate(entries):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        for p in order[:k]:
            row[p] = 0
        row[order[k]] = row[order[k]] or 1
        rows.append(row)
    return rows, order[len(entries):]


def _combination(draw, rows: list, n: int) -> list[int]:
    """A combination of rows with small coefficients, not all 0."""
    cs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                       max_size=len(rows)).filter(any))
    return [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)]


def _signed(lo: int, hi: int):
    return st.integers(lo, hi).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def phase_rows(draw, kind: str):
    """Int rows for `rank`, shaped to run the phases `kind` names.
    "full" rows are independent, or reach full column rank before any
    dependent row, so `_Echelon` ranks them alone.  "packed" rows are a
    small low-rank product with zero and duplicate rows, which a packed
    span finishes.  "crossing" rows give the span a pivot of small
    entries before rows of 2^20-2^40 entries, whose minors, or a later
    entry of 2^63 or more, stop it.  "wide" rows have entries of 2^62 or
    more from the start, so the span stops on the rows kept before it.
    Entries are signed, pivot columns out of order, and up to two other
    columns are 0."""
    small = st.integers(-4, 4)
    if kind == "full":
        n = draw(st.integers(1, 8))
        r = draw(st.integers(1, n))
        rows, _ = _independent(
            draw, n, [st.one_of(small, _signed(0, 2**80))] * r)
        if r == n:  # tall: dependent rows after full column rank
            rows += [_combination(draw, rows, n)
                     for _ in range(draw(st.integers(0, 3)))]
        return rows
    if kind == "packed":
        n = draw(st.integers(2, 10))
        basis, free = _independent(
            draw, n, [small] * draw(st.integers(1, min(n - 1, 4))))
        rows = basis + [_combination(draw, basis, n)
                        for _ in range(draw(st.integers(1, 6)))]
    elif kind == "crossing":
        n = draw(st.integers(6, 10))
        basis, free = _independent(
            draw, n, [small] * 2 + [_signed(2**20, 2**40)] * 3)
        huge = draw(st.lists(_signed(2**63, 2**70), min_size=n, max_size=n))
        rows = [basis[0], *basis, huge]
    else:  # "wide"
        n = draw(st.integers(2, 8))
        entries = st.one_of(_signed(2**62, 2**64), _signed(2**64, 2**80))
        basis, free = _independent(
            draw, n, [entries] * draw(st.integers(1, n - 1)))
        rows = basis + [_combination(draw, basis, n)]
    rows += draw(st.lists(st.sampled_from(rows + [[0] * n]), max_size=4))
    zero = draw(st.sets(st.sampled_from(free), max_size=2)) if free else ()
    rows = [[0 if j in zero else x for j, x in enumerate(row)]
            for row in rows]
    if kind == "packed":
        rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return rows


def _rank_phases(rows) -> tuple[int, list]:
    """rank(Matrix(rows)) and, in order, the results of the calls it made:
    ("echelon", independent) per `_Echelon.add_ints` and ("span",
    independent or None) per `_PackedSpan.add`."""
    log = []
    add_ints, add = _Echelon.add_ints, linalg._PackedSpan.add

    def echelon(self, x):
        log.append(("echelon", add_ints(self, x)))
        return log[-1][1]

    def span(self, x):
        log.append(("span", add(self, x)))
        return log[-1][1]

    with patch.object(_Echelon, "add_ints", echelon), \
            patch.object(linalg._PackedSpan, "add", span):
        return rank(Matrix(rows)), log


@given(st.sampled_from(["full", "packed", "crossing", "wide"])
       .flatmap(lambda kind: st.tuples(st.just(kind), phase_rows(kind))))
# a residual whose top word is 1 over a 0 word and a negative word: its
# highest set bit lies in the 0 word, a pivot column
@example(("packed", [[0, 1, 0], [0, 2, 0], [-5, 0, 1], [-5, 1, 1]]))
@settings(max_examples=300, deadline=None)
def test_rank_phases_match_gauss_jordan(case) -> None:
    """`rank` agrees with Gauss-Jordan over Fraction in every phase, and
    each kind of draw runs the phases it is built for."""
    kind, rows = case
    r, log = _rank_phases(rows)
    assert r == gj_rank(Matrix(rows))
    span = [added for name, added in log if name == "span"]
    stop = span.index(None) if None in span else None
    if kind == "full":
        assert not span
    elif kind == "packed":
        assert span and stop is None
    elif kind == "crossing":
        assert stop is not None and True in span[:stop]
    else:
        assert stop == 0
    if stop is not None:  # every row after the stop goes to `_Echelon`
        after = log[log.index(("span", None)) + 1:]
        assert all(name == "echelon" for name, _ in after)


@pytest.mark.parametrize("character, signs, handed_back", [
    # rank 16: its carried bounds reach 2^62 while its entries stay
    # below, so its measured bounds keep every row in the span
    ((4, 2, 0, 2), (1, -1, 1, -1), False),
    # rank 17: its pivot minors pass 2^62 themselves
    ((5, -3, 1, 1), (-1, -1, 1, 1), True)])
def test_measured_bounds_hand_back_only_past_the_word(character, signs,
                                                      handed_back) -> None:
    """The 32-ket Grams of two C4 characters: `rank` measures the span's
    entries before it hands back, and hands back only past the word."""
    cat = MonoidCategory(cyclic_group(4))
    rows = state_space_field(cat, tuple((0, s) for s in signs),
                             evaluation_from_monoid(cat, character)).gram.ints
    measured = []
    largest = linalg._PackedSpan._largest

    def spy(self, y):
        measured.append(1)
        return largest(self, y)

    with patch.object(linalg._PackedSpan, "_largest", spy):
        r, log = _rank_phases(rows)
    assert r == gj_rank(Matrix(rows))
    assert measured  # a carried bound reached 2^62
    assert (("span", None) in log) == handed_back


@st.composite
def sparse_rows(draw, square=False):
    """Mostly zero rows, so most rows meet a pivot column at 0; entries
    integral or rational as drawn."""
    n = draw(st.integers(0, 7))
    m = n if square else draw(st.integers(0, 7))
    values = draw(st.sampled_from([small_ints.map(Fraction), rationals]))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), values)
    return draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))


@given(sparse_rows(), st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_kernel_matches_gauss_jordan(rows, data) -> None:
    m = Matrix(rows)
    assert rank(m) == gj_rank(m)
    b = data.draw(st.lists(small_ints.map(Fraction), min_size=m.rows,
                           max_size=m.rows))
    assert solve(m, b) == (_gj_solve(m, b), gj_rank(m))


@given(sparse_rows(square=True), st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_square_kernel_matches_gauss_jordan(rows, data) -> None:
    m = Matrix(rows)
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    assert det(m) == _cofactor_det(rows)
    ref = _gj_inverse(m)
    x, r = solve(m, b)
    if ref is None:
        assert r < m.rows
    else:
        assert r == m.rows
        assert x == _gj_solve(m, b)


@given(st.lists(st.lists(st.one_of(st.just(0), small_ints), min_size=5,
                         max_size=5), max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_int_rows_eliminate_like_their_fraction_twins(rows, data) -> None:
    """ints, integral Fractions and a mix of the two, added one at a time,
    give the pivot rows of the int rows eliminated at once."""
    def added(rs):
        e = _Echelon()
        for r in rs:
            e.add(r)
        return e.pivots

    mixed = [[data.draw(st.sampled_from([x, Fraction(x)])) for x in r]
             for r in rows]
    reference = _Echelon(rows).pivots
    assert added([[Fraction(x) for x in r] for r in rows]) == reference
    assert added(rows) == added(mixed) == reference
    assert len(reference) == gj_rank(Matrix(rows))


# --- one row at a time against the column-order reference ----------------------


def _thin(n: int, m: int):
    """n x m rows of small entries, mostly zero."""
    entry = st.one_of(st.just(Fraction(0)), small_ints.map(Fraction),
                      rationals)
    return st.lists(st.lists(entry, min_size=m, max_size=m),
                    min_size=n, max_size=n)


@st.composite
def reordered_rows(draw, square=False):
    """Rows with zero and dependent ones, and a drawn order of them.
    Besides low-rank and sparse rows, 1 x n and n x 1 shapes, and
    for a non-square matrix scaled copies of some rows."""
    shapes = [low_rank_rows(square), sparse_rows(square)]
    if not square:
        shapes += [st.integers(1, 6).flatmap(lambda n: _thin(1, n)),
                   st.integers(1, 6).flatmap(lambda n: _thin(n, 1))]
    rows = draw(st.one_of(shapes))
    if not square and rows:
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.sampled_from(rows))
            c = draw(rationals)
            rows = rows + [[c * x for x in row]]
    return rows, draw(st.permutations(range(len(rows))))


@given(reordered_rows(), st.booleans(), st.data())
@example(([], []), True, None)  # 0 x 0
@example(([[0, 1], [1, 0]], [0, 1]), True, None)  # out of column order
@example(([[0, 0, 2]], [0]), False, None)  # 1 x n
@example(([[0], [3], [0]], [0, 2, 1]), False, None)  # n x 1
# runs of zero multipliers: identity and block-diagonal rows, whose later
# rows skip every earlier step and become pivot rows through the final
# scaling only when a skipped pivot is not 1
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 0, 1]), True, None)
@example(([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [2, 1, 0]), False, None)
@example(([[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 4, 1], [0, 0, 1, 5]],
          [3, 2, 1, 0]), False, None)
# rows that vanish after skipped steps, one of them after a step applied
# past the skipped ones
@example(([[2, 0, 0], [0, 3, 0], [0, 0, 5], [0, 0, 7], [0, 6, 10]],
          [4, 3, 2, 1, 0]), True, None)
# a skipped step between applied ones, then trailing skipped steps before
# the row becomes a pivot row
@example(([[2, 1, 0], [0, 0, 3], [0, 4, 1], [0, 0, 0]], [1, 0, 3, 2]),
         False, None)
@example(([[3, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0], [0, 0, 0, 7]],
          [3, 1, 0, 2]), False, None)
@settings(max_examples=100, deadline=None)
def test_echelon_matches_column_order_elimination(case, consistent,
                                                  data) -> None:
    """In any order of the rows, the pivot columns are the reference's
    (the leading columns of the reduced echelon form), and `rank` and
    `solve` agree with it."""
    rows, order = case
    columns = [c for c, _, _ in column_eliminate(rows)[0]]
    for rs in (rows, [rows[i] for i in order]):
        assert sorted(c for c, _, _ in _Echelon(Matrix(rs).ints).pivots) \
            == columns
        m = Matrix(rs)
        assert rank(m) == len(columns)
        if data is None:
            b = [Fraction(0 if consistent else 1)] * m.rows
        elif consistent:
            b = apply(m, data.draw(st.lists(rationals, min_size=m.cols,
                                            max_size=m.cols)))
        else:
            b = data.draw(st.lists(rationals, min_size=m.rows,
                                   max_size=m.rows))
        assert solve(m, b) == (column_solve(m, b), len(columns))


def _inversions(order) -> int:
    return sum(a > b for i, a in enumerate(order) for b in order[i + 1:])


@given(reordered_rows(square=True), st.data())
@example(([], []), None)  # 0 x 0
@example(([[0, 2], [3, 0]], [1, 0]), None)  # anti-diagonal, 2 x 2
@example(([[0, 0, 1], [0, 2, 0], [Fraction(1, 3), 0, 0]], [2, 0, 1]), None)
@example(([[0, 0, 0, 5], [0, 0, 1, 0], [0, -2, 0, 0], [7, 0, 0, 0]],
          [2, 0, 3, 1]), None)
@example(([[1, 2], [2, 4]], [1, 0]), None)  # dependent rows
# zero multipliers: identity and block-diagonal rows, a row that vanishes
# after skipped steps, and pivot rows made after trailing skipped steps
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 0, 1]), None)
@example(([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [1, 2, 0]), None)
@example(([[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 4, 1], [0, 0, 1, 5]],
          [2, 3, 0, 1]), None)
@example(([[2, 0, 0], [0, 3, 0], [0, 6, 0]], [0, 2, 1]), None)
@example(([[3, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0], [0, 0, 0, 7]],
          [3, 1, 0, 2]), None)
@settings(max_examples=100, deadline=None)
def test_square_echelon_matches_column_order_elimination(case, data) -> None:
    """det, with its sign, and `solve`'s rank and unique solution agree
    with the column-order reference in any order of the rows, and a
    reordering changes the determinant by the sign of the permutation."""
    rows, order = case
    shuffled = [rows[i] for i in order]
    for rs in (rows, shuffled):
        m = Matrix(rs)
        b = ([Fraction(1)] * m.rows if data is None else
             data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
        assert det(m) == column_det(m)
        x, r = solve(m, b)
        assert (x if r == m.rows else None) == column_solve_unique(m, b)
    assert det(Matrix(shuffled)) == \
        (-1) ** _inversions(order) * det(Matrix(rows))


def test_solve_and_det_each_read_one_elimination() -> None:
    m = Matrix([[2, 1], [1, 3]])
    assert solve(m, [3, 5]) == ((Fraction(4, 5), Fraction(7, 5)), 2)
    assert det(m) == 5
    assert solve(Matrix([]), []) == ((), 0)
    assert det(Matrix([])) == 1
    for singular, b, x in ((Matrix([[1, 2], [2, 4]]), [1, 2],  # consistent
                            (1, 0)),
                           (Matrix([[1, 2], [2, 4]]), [1, 0], None),
                           (Matrix([[0, 1], [0, 1]]), [1, 1], (0, 1))):
        assert solve(singular, b) == (x, 1)
        assert det(singular) == 0
    assert solve(Matrix([[1, 2]]), [1]) == ((1, 0), 1)
    assert solve(Matrix([[1], [2]]), [1, 3]) == (None, 1)
    # rational rows and right side: t·den clears both
    half = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert solve(half, [Fraction(1, 5), 1]) == ((Fraction(2, 5), 3), 2)
    assert det(half) == Fraction(1, 6)
    made = []

    class Counting(_Echelon):
        def __init__(self, rows=()):
            made.append(1)
            super().__init__(rows)

    with patch.object(linalg, "_Echelon", Counting):
        solve(m, [3, 5])
        det(m)
    assert len(made) == 2


def _rows(n: int, m: int):
    """n x m rows of zero, integral or rational entries."""
    entry = st.one_of(st.just(0), small_ints, rationals)
    return st.lists(st.lists(entry, min_size=m, max_size=m),
                    min_size=n, max_size=n)


@st.composite
def built_matrices(draw):
    """A matrix from the constructor, or from a kernel that builds one from
    int rows: a product, a power, a transpose, a sum, a scaling, a
    principal sub-Gram, or an algebra's Gram or handle matrix."""
    route = draw(st.sampled_from(["constructor", "product", "power",
                                  "transpose", "sum", "scale", "sub-Gram",
                                  "algebra"]))
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = Matrix(draw(_rows(n, k)))
    if route == "product":
        return a * Matrix(draw(_rows(a.cols, draw(st.integers(0, 4)))))
    if route == "power":
        return Matrix(draw(_rows(n, n))) ** draw(st.integers(0, 4))
    if route == "transpose":
        return a.transpose()
    if route == "sum":
        return a + Matrix(draw(_rows(a.rows, a.cols)))
    if route == "scale":
        return a.scale(draw(rationals))
    if route == "sub-Gram":
        sub = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        return _sub_gram(Matrix(draw(_rows(n, n))), sub)
    if route == "algebra":
        fa = draw(truncated_products())
        return draw(st.sampled_from([fa.gram(), handle_element(fa).matrix]))
    return a


@given(built_matrices())
@example(Matrix([[Fraction(1, 2)]]) * Matrix([[2]]))  # the den cancels
@example(Matrix([[Fraction(2, 3), 1]]).scale(0))  # zero
@example(Matrix([[0, 0], [0, 0]]))
@example(Matrix([[]]))  # 1 x 0
@example(Matrix([]))  # 0 x 0
@settings(max_examples=150, deadline=None)
def test_matrices_are_held_in_lowest_terms(m) -> None:
    """den > 0 and gcd(den, ints) = 1 on every route, so a matrix built
    again from its entries holds the same ints: equal entries give equal
    matrices and equal hashes."""
    assert m.den > 0 and gcd(m.den, *(x for r in m.ints for x in r)) == 1
    assert len(m.ints) == m.rows and all(len(r) == m.cols for r in m.ints)
    twin = Matrix(m.entries)
    assert (twin.ints, twin.den) == (m.ints, m.den)
    assert twin == m and hash(twin) == hash(m)
    assert _fractions_only(m)


def test_matrix_power_matches_repeated_product() -> None:
    m = Matrix([[1, 1], [1, 0]])
    assert m**5 == m * m * m * m * m
    assert (m**0) == Matrix.identity(2)
    assert (m**6).trace() == 18  # Lucas number L_6


# integral entries, whose rows clear with scale 1, or mixed denominators
entry_kinds = st.sampled_from([small_ints, rationals])


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix of one entry kind, some rows and columns
    zeroed."""
    entry = draw(entry_kinds)
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return Matrix([[0 if i in zero_rows or j in zero_cols else draw(entry)
                    for j in range(cols)] for i in range(rows)])


def _fractions_only(m: Matrix) -> bool:
    return all(type(x) is Fraction for row in m.entries for x in row)


@given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(lambda rkc: st.tuples(
    matrices(rkc[0], rkc[1]), matrices(rkc[1], rkc[2]))))
@example((Matrix([[Fraction(1, 2), 3, 0]]),  # 1 x n times n x 1
          Matrix([[Fraction(-2, 3)], [0], [Fraction(1, 6)]])))
@example((Matrix([[Fraction(1, 2)], [3]]),  # n x 1 times 1 x n
          Matrix([[Fraction(-2, 3), 5]])))
def test_product_matches_fraction_dot_products(pair) -> None:
    a, b = pair
    p = a * b
    assert p == dot_matmul(a, b)
    assert (p.rows, p.cols) == (a.rows, b.cols) and _fractions_only(p)


@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)),
       st.integers(0, 6))
def test_power_matches_fraction_dot_products(m, n) -> None:
    power = Matrix.identity(m.rows)
    for _ in range(n):
        power = dot_matmul(power, m)
    assert m ** n == power and _fractions_only(m ** n)


def _dense_power_traces(m: Matrix, count: int) -> list:
    power, out = Matrix.identity(m.rows), []
    for _ in range(count):
        out.append(power.trace())
        power = power * m
    return out


# Berkowitz's recurrence does not pivot: a zero top-left entry, a
# rank-deficient matrix, and a dense 8 x 8 one of mixed denominators
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([[0, 1, 2], [3, 0, 1], [1, 1, 1]])
@example([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 1, Fraction(3, 2)]])
@example([[Fraction((-1) ** (i + j) * (1 + (3 * i + 5 * j) % 9),
                    1 + (i * j + i) % 7) for j in range(8)] for i in range(8)])
@settings(max_examples=60, deadline=None)
def test_power_traces_match_dense_powers(rows) -> None:
    m = Matrix(rows)
    count = 2 * m.rows + 2
    assert RationalFunction(*trace_series(m)).taylor(count) \
        == _dense_power_traces(m, count)


def test_power_traces_of_special_matrices() -> None:
    special = [
        Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),  # nilpotent
        Matrix([[0, 2], [0, 0]]),  # M_h of Q[x]/x^2, h = 2x
        Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 5]]),  # singular, not nilpotent
        Matrix([[0, 0, 1], [0, 0, 0], [4, 0, 0]]),  # zero subdiagonal pivot
        Matrix([[Fraction(-5, 3)]]),
        Matrix([[0]]),
        zero_matrix(4, 4),
    ]
    for m in special:
        assert RationalFunction(*trace_series(m)).taylor(11) \
            == _dense_power_traces(m, 11)
    assert RationalFunction(*trace_series(Matrix([[0, 2], [0, 0]]))).taylor(4) \
        == [2, 0, 0, 0]
    lucas = RationalFunction(*trace_series(Matrix([[1, 1], [1, 0]])))
    assert lucas.taylor(7)[6] == 18  # L_6


def test_trace_series_closed_form() -> None:
    # tr(m^k) = 2^k + 3^k: 1/(1 - 2T) + 1/(1 - 3T) = (2 - 5T) / (1 - 5T + 6T^2)
    assert RationalFunction(*trace_series(Matrix([[2, 0], [0, 3]]))) \
        == RationalFunction(Polynomial([2, -5]), Polynomial([1, -5, 6]))
    # nilpotent: the series is the constant n
    assert RationalFunction(*trace_series(Matrix([[0, 1], [0, 0]]))) \
        == RationalFunction(Polynomial([2]), Polynomial([1]))
    assert RationalFunction(*trace_series(Matrix([]))).is_zero()
    with pytest.raises(ValueError, match="matrix is not square"):
        trace_series(Matrix([[1, 2]]))


# --- polynomials ------------------------------------------------------------


polynomials = st.lists(st.one_of(small_ints, rationals), max_size=5).map(
    Polynomial)


@given(polynomials, polynomials, rationals)
@example(Polynomial([]), Polynomial([]), 0)
@example(Polynomial([Fraction(1, 2)]), Polynomial([2, 4]), 1)  # den cancels
@example(Polynomial([1, Fraction(2, 3)]), Polynomial([-1, Fraction(-2, 3)]),
         Fraction(-3, 2))  # f + g is zero
@example(Polynomial([6, -4]), Polynomial([Fraction(-1, 5)]), 0)  # lead < 0
def test_polynomials_are_held_in_lowest_terms(f, g, c) -> None:
    """den > 0, gcd(den, ints) = 1 and no trailing zero on every route, so
    a polynomial built again from its coefficients holds the same ints,
    and the zero polynomial is ((), 1)."""
    made = [f, g, f + g, f * g, f.scale(c), poly_gcd(f, g),
            *(divmod(f, g) if not g.is_zero() else ())]
    for p in made:
        assert p.den > 0 and gcd(p.den, *p.ints) == 1
        assert not p.ints or p.ints[-1] != 0
        twin = Polynomial(p.coeffs)
        assert (twin.ints, twin.den) == (p.ints, p.den) and twin == p
        assert all(type(x) is Fraction for x in p.coeffs)
    for zero in (Polynomial(), Polynomial([0, 0]), f.scale(0), f + f.scale(-1)):
        assert (zero.ints, zero.den) == ((), 1)


@given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5),
       rationals)
@example([], [1, 2], Fraction(1, 2))
@example([Fraction(1, 3), 2, -5, 7], [Fraction(1, 2), 0, Fraction(-2, 3)], 0)
@example([4, 0, 0, 9], [1, -3], -1)  # negative integer lead
@example([1, Fraction(1, 2)], [3, 0, 5], 3)  # dividend below the divisor
def test_polynomial_arithmetic_matches_fraction_lists(f, g, c) -> None:
    p, q = Polynomial(f), Polynomial(g)
    assert list((p + q).coeffs) == fraction_add(f, g)
    assert list((p * q).coeffs) == fraction_mul(f, g)
    assert list(p.scale(c).coeffs) == fraction_scale(f, c)
    assert p(c) == sum((a * c ** k for k, a in enumerate(f)), Fraction(0))
    if not q.is_zero():
        quo, rem = divmod(p, q)
        assert (list(quo.coeffs), list(rem.coeffs)) == fraction_divmod(f, g)


@given(st.lists(rationals, max_size=5),
       st.tuples(rationals.filter(bool), st.lists(rationals, max_size=4)),
       st.integers(0, 9))
@example([1], (1, [Fraction(1, 2), Fraction(-1, 3)]), 8)  # e != 1
@example([Fraction(2, 7), 0, 3], (Fraction(5, 3), [0, Fraction(4, 9)]), 9)
@example([], (1, [2]), 5)  # zero numerator
@example([1, Fraction(2, 3), 5], (3, []), 6)  # constant denominator
def test_taylor_matches_fraction_recurrence(num, den, n) -> None:
    rf = RationalFunction(Polynomial(num), Polynomial([den[0], *den[1]]))
    got = rf.taylor(n)
    assert got == fraction_taylor(rf, n)
    assert all(type(x) is Fraction for x in got)


@given(polynomials, polynomials, polynomials)
@example(Polynomial([]), Polynomial([]), Polynomial([]))
@example(Polynomial([Fraction(3, 2)]), Polynomial([]), Polynomial([1, 1]))
@example(Polynomial([0, 2]), Polynomial([-4]), Polynomial([-1, 0, 1]))
def test_poly_gcd_matches_euclid(f, g, h) -> None:
    # f·h and g·h have h as a common factor
    for a, b in ((f, g), (g, f), (f * h, g * h), (h, f * h)):
        gcd = poly_gcd(a, b)
        assert gcd == euclid_gcd(a, b)
        assert all(type(c) is Fraction for c in gcd.coeffs)


# --- recurrences ------------------------------------------------------------

# The recurrence fit that generating_function used before it read the trace
# series off det(I - T M_h), kept as the reference for that route.


class NoRecurrence(Exception):
    pass


def fit_linear_recurrence(seq, max_order: int) -> Polynomial:
    """Least-order c, c[0] = 1, with sum_j c[j] seq[n-j] = 0 for n >= deg c."""
    s = [rat(x) for x in seq]
    if len(s) < 2 * max_order:
        raise ValueError("sequence too short for requested order")
    for d in range(max_order + 1):
        if d == 0:
            if all(x == 0 for x in s):
                return Polynomial([1])
            continue
        m = Matrix([[s[n - j] for j in range(1, d + 1)]
                    for n in range(d, len(s))])
        x = solve(m, [-s[n] for n in range(d, len(s))])[0]
        if x is not None:
            return Polynomial([Fraction(1), *x])
    raise NoRecurrence(f"no linear recurrence of order <= {max_order}")


def series_to_rational_function(prefix, recurrence: Polynomial
                                ) -> RationalFunction:
    """The function with denominator `recurrence` whose expansion starts
    with `prefix`: the numerator is their truncated convolution."""
    s = [rat(x) for x in prefix]
    c = recurrence.coeffs
    if not c or c[0] != 1:
        raise ValueError("recurrence must have constant term 1")
    num = [sum((c[j] * s[n - j] for j in range(min(n, len(c) - 1) + 1)),
               Fraction(0))
           for n in range(len(s))]
    return RationalFunction(Polynomial(num), recurrence)


def _fitted_generating_function(fa: FrobeniusAlgebra) -> RationalFunction:
    """eps(1) followed by tr(M_h^k), k < 2 dim, through the fitted recurrence."""
    n = fa.dim
    traces = _dense_power_traces(handle_element(fa).matrix, 2 * n)
    rec = fit_linear_recurrence(traces, n)
    return series_to_rational_function([fraction_eps(fa, fa.unit)] + traces,
                                       rec)


def test_fit_constant_sequence() -> None:
    assert fit_linear_recurrence([1] * 6, 2) == Polynomial([1, -1])


def test_fit_geometric_sequence() -> None:
    assert fit_linear_recurrence([1, 2, 4, 8, 16, 32], 2) == Polynomial([1, -2])


def test_fit_fibonacci() -> None:
    seq = [1, 1, 2, 3, 5, 8, 13, 21]
    # oracle: the claimed recurrence holds on every listed term
    for n in range(2, len(seq)):
        assert seq[n] - seq[n - 1] - seq[n - 2] == 0
    assert fit_linear_recurrence(seq, 3) == Polynomial([1, -1, -1])


def test_fit_factorials_has_no_recurrence() -> None:
    with pytest.raises(NoRecurrence):
        fit_linear_recurrence([1, 1, 2, 6, 24, 120], 2)


def test_fit_rejects_short_sequence() -> None:
    with pytest.raises(ValueError):
        fit_linear_recurrence([1, 2, 3], 2)


def test_series_geometric() -> None:
    rf = series_to_rational_function([1], Polynomial([1, -1]))
    assert rf == RationalFunction(Polynomial([1]), Polynomial([1, -1]))
    assert rf.taylor(4) == [1, 1, 1, 1]


def test_series_one_dimensional_handle_form() -> None:
    # prefix gamma^-1 with denominator 1 - gamma*T expands to gamma^(n-1)
    g = Fraction(3)
    rf = series_to_rational_function([1 / g], Polynomial([1, -g]))
    assert rf.taylor(5) == [Fraction(1, 3), 1, 3, 9, 27]


def test_series_polynomial_case() -> None:
    rf = series_to_rational_function([5, 2], Polynomial([1]))
    assert rf.den == Polynomial([1])
    assert rf.num == Polynomial([5, 2])
    assert format_poly(rf.num) == "5 + 2T"


@given(
    st.lists(rationals, min_size=2, max_size=5),
    st.lists(rationals, min_size=0, max_size=2),
)
@settings(max_examples=60)
def test_fit_is_idempotent_through_expansion(init, tail) -> None:
    rec = Polynomial([1, *tail])
    seq = list(init)
    deg = rec.degree
    # a sequence with arbitrary prefix needs a fit window as wide as the prefix
    order = len(init) + len(tail)
    while len(seq) < 2 * order + 2:
        nxt = -sum(rec[j] * seq[len(seq) - j] for j in range(1, deg + 1))
        seq.append(nxt)
    c = fit_linear_recurrence(seq, max_order=order)
    rf = series_to_rational_function(seq[:order], c)
    expanded = rf.taylor(len(seq))
    assert expanded == seq
    assert fit_linear_recurrence(expanded, max_order=order) == c


@st.composite
def truncated_products(draw):
    """Products of Q[x]/x^m blocks, m <= 4, with counits from small pools,
    so that eigenvalues of M_h repeat and nilpotent blocks recur."""
    last = st.sampled_from([Fraction(v) for v in (-2, -1, 1, 2, 3)]
                           + [Fraction(1, 2), Fraction(-3, 2)])
    out = None
    for m in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        counit = [draw(st.sampled_from([0, 1, -1, 2])) for _ in range(m - 1)]
        block = truncated_poly_algebra(m, counit + [draw(last)])
        out = block if out is None else product_algebra(out, block)
    return out


@given(truncated_products())
@settings(max_examples=40, deadline=None)
@example(product_algebra(truncated_poly_algebra(2, [0, 1]),
                         truncated_poly_algebra(2, [0, 1])))
@example(product_algebra(truncated_poly_algebra(1, [2]),
                         truncated_poly_algebra(1, [2])))
def test_generating_function_matches_fitted_recurrence(fa) -> None:
    validate(fa)
    assert generating_function(fa) == _fitted_generating_function(fa)


# --- partial fractions ------------------------------------------------------


def _reassemble(poly_part, terms) -> RationalFunction:
    total = from_poly(poly_part)
    for lam, mult, coeffs in terms:
        for k, c in enumerate(coeffs):
            den = Polynomial([1])
            for _ in range(k + 1):
                den = den * Polynomial([1, -lam])
            total = total + RationalFunction(Polynomial([c]), den)
    return total


def _split_as_dense(rf: RationalFunction):
    """partial_fractions(rf), each term's c held to the top coefficient of
    `dense_partial_fractions`, whose full coefficients reassemble rf."""
    poly, terms = partial_fractions(rf)
    dense_poly, dense_terms = dense_partial_fractions(rf)
    assert poly == dense_poly
    assert terms == [(lam, mult, coeffs[-1])
                     for lam, mult, coeffs in dense_terms]
    assert _reassemble(dense_poly, dense_terms) == rf
    return poly, terms


def test_partial_fractions_single_pole() -> None:
    rf = RationalFunction(Polynomial([1]), Polynomial([1, -2]))
    poly, terms = _split_as_dense(rf)
    assert poly.is_zero()
    assert terms == [(Fraction(2), 1, Fraction(1))]


def test_partial_fractions_with_polynomial_part() -> None:
    # 5 + 2T + (1/2)/(1-2T), assembled exactly and split back apart
    rf = from_poly(Polynomial([5, 2])) + RationalFunction(
        Polynomial([Fraction(1, 2)]), Polynomial([1, -2])
    )
    poly, terms = _split_as_dense(rf)
    assert poly == Polynomial([5, 2])
    assert terms == [(Fraction(2), 1, Fraction(1, 2))]


def test_partial_fractions_double_pole() -> None:
    rf = RationalFunction(Polynomial([1]), Polynomial([1, -1]) * Polynomial([1, -1]))
    poly, terms = _split_as_dense(rf)
    assert poly.is_zero()
    assert terms == [(Fraction(1), 2, Fraction(1))]
    assert dense_partial_fractions(rf)[1] == [
        (Fraction(1), 2, [Fraction(0), Fraction(1)])]


def test_partial_fractions_rejects_irrational_poles() -> None:
    with pytest.raises(NonSplitDenominator):
        partial_fractions(RationalFunction(Polynomial([1]), Polynomial([1, -1, -1])))


def test_partial_fractions_sorted_by_pole() -> None:
    rf = RationalFunction(Polynomial([1]), Polynomial([1, -2]) * Polynomial([1, -1]))
    _, terms = partial_fractions(rf)
    assert [t[0] for t in terms] == [1, 2]


@given(
    st.lists(rationals, min_size=0, max_size=2),
    st.lists(
        st.tuples(
            st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(
                lambda x: x != 0
            ),
            st.integers(min_value=1, max_value=2),
            rationals,
        ),
        min_size=1,
        max_size=2,
        unique_by=lambda t: t[0],
    ),
)
@settings(max_examples=60)
def test_partial_fractions_round_trip(poly_coeffs, pole_specs) -> None:
    rf = from_poly(Polynomial(poly_coeffs))
    for lam, mult, c in pole_specs:
        den = Polynomial([1])
        for _ in range(mult):
            den = den * Polynomial([1, -lam])
        rf = rf + RationalFunction(Polynomial([c]), den)
    _split_as_dense(rf)


# The trial-division root search that partial_fractions used before exact
# isolation, kept as the reference: its cost grows with the square roots of
# the end coefficients, so it only suits small ones.


def _trial_division_root(p: Polynomial) -> Fraction | None:
    """Some rational root of p, or None, by the rational root theorem."""
    cs = p.coeffs
    denlcm = lcm(*(c.denominator for c in cs))
    ints = [int(c * denlcm) for c in cs]
    if ints[0] == 0:
        return Fraction(0)
    for p_div in _divisors(abs(ints[0])):
        for q_div in _divisors(abs(ints[-1])):
            for s in (1, -1):
                cand = Fraction(s * p_div, q_div)
                if p(cand) == 0:
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _reference_roots(p: Polynomial) -> set[Fraction]:
    roots, work = set(), p
    while work.degree > 0:
        root = _trial_division_root(work)
        if root is None:
            break
        roots.add(root)
        lin = Polynomial([-root, 1])
        while (work % lin).is_zero():
            work = work // lin
    return roots


def _from_factors(lead, linear, others=()) -> Polynomial:
    """lead * prod (x - r)^mult * prod others."""
    p = Polynomial([lead])
    for r, mult in linear:
        for _ in range(mult):
            p = p * Polynomial([-r, 1])
    for cs in others:
        p = p * Polynomial(cs)
    return p


nonzero_leads = st.integers(min_value=-6, max_value=6).filter(bool)
linear_factors = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3),
              st.integers(min_value=1, max_value=3)),
    max_size=3, unique_by=lambda t: t[0])
# quadratics and cubics without a rational root are irreducible over Q
irreducible_factors = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=4)
    .filter(lambda cs: cs[0] and cs[-1]
            and not _reference_roots(Polynomial(cs))),
    max_size=2)


@given(nonzero_leads, linear_factors, irreducible_factors)
@example(1, [(Fraction(0), 1)], [])
@example(-1, [(Fraction(1), 1), (Fraction(-1), 2)], [[-2, 0, 1]])
@example(3, [(Fraction(0), 2), (Fraction(1), 1), (Fraction(-1), 1),
             (Fraction(1, 2), 3)], [[1, 0, 1]])
@example(-4, [(Fraction(2), 3), (Fraction(-2), 1), (Fraction(4), 1)],
         [[-2, 0, 0, 1]])
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_trial_division(lead, linear, others) -> None:
    p = _from_factors(lead, linear, others)
    roots = _rational_roots(p)
    assert len(roots) == len(set(roots))
    assert set(roots) == {r for r, _ in linear} == _reference_roots(p)


def test_rational_roots_of_small_roots_with_companions() -> None:
    # every root y/s with |y| <= 9, alone and with companions.  Together
    # they force each lifting prime from 2 to 11: the leads 2 and -3 rule
    # out 2 and 3, roots two apart collide mod 2, r and -r - 2 mod the
    # primes of 2r + 2, x^2 - 2, x^2 + 3 and x^3 - 2 rule out those of
    # their discriminants, and the repeated roots force the square-free
    # part.
    for s in (1, 2, -3):
        for y in range(-9, 10):
            r = Fraction(y, s)
            for linear, others in (
                ([(r, 1)], []),
                ([(r, 1)], [[-2, 0, 1]]),
                ([(r, 1), (r + 1, 1), (r - 1, 1)], []),
                ([(r, 3), (-r - 2, 2)], [[3, 0, 1]]),
                ([(r, 1), (r + Fraction(1, 2), 1)], [[-2, 0, 0, 1]]),
            ):
                p = _from_factors(s, linear, others)
                roots = _rational_roots(p)
                assert sorted(roots) == sorted({t for t, _ in linear}), p


@pytest.mark.parametrize("linear, others, tried", [
    # the lead 210 = 2·3·5·7 rules out each of its primes untried
    ([(Fraction(1, 210), 1), (Fraction(2), 1)], [], [11]),
    # 30031 - 1 = 30030 = 2·3·5·7·11·13: a double root mod each
    ([(Fraction(1), 1), (Fraction(30031), 1)], [], [2, 3, 5, 7, 11, 13, 17]),
    # -1 lifts from the residue q - 1, where 30029 falls mod each of 2..13
    ([(Fraction(-1), 1), (Fraction(30029), 1)], [], [2, 3, 5, 7, 11, 13, 17]),
    # f' = 2x - 4 vanishes mod 2, so gcd(f, f') mod 2 is f itself
    ([(Fraction(1), 1), (Fraction(3), 1)], [], [2, 3]),
    # y = 5·(10^44 + 7) takes six Newton doublings from 11 to pass 2B
    ([(Fraction(10**44 + 7, 3), 1), (Fraction(1, 5), 1)], [], [2, 7, 11]),
    # roots 1 and 16 collide mod 3 and 5, and 2 divides disc(x^2 - 2):
    # mod 7, 3 and 4 are roots of x^2 - 2 whose lifts the exact test drops
    ([(Fraction(1), 1), (Fraction(16), 1)], [[-2, 0, 1]], [2, 3, 5, 7]),
    # likewise mod 11, after 7 | disc(x^2 + 7), with the roots 2 and 9
    ([(Fraction(1), 1), (Fraction(16), 1)], [[7, 0, 1]], [2, 3, 5, 7, 11]),
], ids=["lead-210", "1-and-30031", "-1-and-30029", "zero-derivative-mod-2",
        "45-digit-root", "x^2-2", "x^2+7"])
def test_rational_roots_past_unlucky_primes(monkeypatch, linear, others,
                                            tried) -> None:
    seen = []

    def spy(f, g, q):
        seen.append(q)
        return _gcd_mod(f, g, q)

    monkeypatch.setattr(linalg, "_gcd_mod", spy)
    p = _from_factors(1, linear, others)
    assert sorted(_rational_roots(p)) == sorted(r for r, _ in linear)
    assert seen == tried  # the primes the square-free test ran at
    for cs in others:  # each irrational pair has roots mod the last one
        assert sum(Polynomial(cs)(x) % tried[-1] == 0
                   for x in range(tried[-1])) == 2


def test_gcd_mod() -> None:
    assert _gcd_mod([6, 5, 1], [3, 1], 5) == [3, 1]  # (x + 2)(x + 3), x + 3
    assert _gcd_mod([1, 0, 1], [0, 2], 2) == [1, 0, 1]  # (x + 1)^2, 0
    assert _gcd_mod([-2, 0, 1], [0, 2], 7) == [1]  # x^2 - 2, 2x
    assert _gcd_mod([2, 4], [6], 2) == []


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@given(nonzero_leads,
       st.lists(st.tuples(st.builds(Fraction,
                                    st.integers(-10**30, 10**30),
                                    st.integers(1, 10**6)),
                          st.integers(1, 3)),
                max_size=3, unique_by=lambda t: t[0]),
       # a quadratic whose discriminant is not a square is irreducible
       st.lists(st.lists(st.integers(-10**20, 10**20).filter(bool),
                         min_size=3, max_size=3)
                .filter(lambda cs: not _is_square(cs[1] ** 2
                                                  - 4 * cs[0] * cs[2])),
                max_size=2))
@example(-6, [(Fraction(10**30, 999983), 3),
              (Fraction(1 - 10**30, 10**6), 2), (Fraction(7), 1)],
         [[10**20, -1, -(10**20)], [3, 10**20, 10**20 - 1]])
@settings(max_examples=60, deadline=None)
def test_rational_roots_of_large_coefficients_match_construction(
        lead, linear, others) -> None:
    # far beyond trial division: held to the roots p is built from
    p = _from_factors(lead, linear, others)
    assert sorted(_rational_roots(p)) == sorted(r for r, _ in linear)


@given(nonzero_leads, linear_factors.map(
    lambda fs: [(r, m) for r, m in fs if r]), irreducible_factors)
@settings(max_examples=80, deadline=None)
def test_partial_fractions_agrees_with_trial_division(lead, linear,
                                                      others) -> None:
    den = _from_factors(lead, linear, others)
    rf = RationalFunction(Polynomial([1]), den)
    reference = _reference_roots(rf.den)
    if others:
        assert reference == {r for r, _ in linear}
        with pytest.raises(NonSplitDenominator):
            partial_fractions(rf)
        return
    _, terms = _split_as_dense(rf)
    assert [(lam, mult) for lam, mult, _ in terms] == sorted(
        ((1 / r, mult) for r, mult in linear),
        key=lambda t: (t[0].numerator, t[0].denominator))
    assert {1 / lam for lam, _, _ in terms} == reference


def test_rational_roots_of_large_coefficients() -> None:
    # 31 digits: the trial-division search would run ~10^15 steps
    assert _rational_roots(Polynomial([1, 0, -(10**30 + 57)])) == []
    roots = [Fraction(10**20 + 39, 7), Fraction(-(10**19) - 51, 3),
             Fraction(99991)]
    p = _from_factors(-11, [(r, 2) for r in roots], [[10**40 + 1, 0, 3]])
    assert sorted(_rational_roots(p)) == sorted(roots)


# --- misc -------------------------------------------------------------------


def test_rat_rejects_zero_denominator_strings() -> None:
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        rat("1/0")
    assert rat("-3/6") == Fraction(-1, 2)
    assert rat(4) == 4 and rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_bounds_decimal_exponents_before_building() -> None:
    assert rat("1e3") == 1000 and rat("-2.5E-2") == Fraction(-1, 40)
    for ok in ("1e4300", "1e-4300", "1e+0004300", "1e4_300"):
        assert rat(ok) == Fraction(ok)
    # each of these would build an integer of more than 14,000 bits, the
    # first two one of 33 million
    for bad in ("1e10000000", "1e-10000000", "1e4301", "-1E+4301 ",
                "1e4_301"):
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            rat(bad)
    with pytest.raises(ValueError, match="4300 digits"):  # int() refuses it
        rat("1e" + "9" * 5000)


def test_exact_int_refuses_to_truncate() -> None:
    assert [exact_int(x) for x in (3, "3", 3.0, Fraction(6, 2), -0.0)] == [
        3, 3, 3, 3, 0]
    for bad in (2.5, Fraction(5, 2), float("inf"), float("nan"), "2.5"):
        with pytest.raises(ValueError):
            exact_int(bad)
    with pytest.raises(TypeError):
        exact_int(None)


def test_rational_string_round_trip_is_bit_identical() -> None:
    for s in ["0", "7", "-3", "1/2", "-22/7", "1000000000000/7"]:
        assert str(Fraction(s)) == s


@given(st.lists(rationals, max_size=4), st.lists(rationals, min_size=1, max_size=4))
@example([], [1, 2])  # zero dividend
@example([1, Fraction(1, 2)], [3, 0, 5])  # dividend below the divisor's degree
@example([Fraction(1, 3), 2, -5, 7], [Fraction(1, 2), 0, Fraction(-2, 3)])
@example([4, 0, 0, 9], [1, -3])  # negative integer lead
def test_polynomial_divmod_round_trip(a, b) -> None:
    p, q = Polynomial(a), Polynomial(b)
    if q.is_zero():
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


def _trimmed(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


int_polys = st.lists(st.integers(-30, 30), max_size=6).map(_trimmed)


@given(int_polys, int_polys.filter(bool))
@example([], [5])
@example([1, 2], [0, 0, -3])
@example([7, -1, 0, 4], [2, 6])
def test_pseudo_divmod_is_a_pseudo_division(f, g) -> None:
    q, r, m = _pseudo_divmod(f, g)
    assert Polynomial(q) * Polynomial(g) + Polynomial(r) == \
        Polynomial(f).scale(m)
    assert len(r) < len(g) and (not r or r[-1] != 0)
    a = abs(g[-1])
    assert m > 0
    while a > 1 and m % a == 0:
        m //= a
    assert m == 1


@given(int_polys.filter(bool), st.sampled_from([1, -1]), int_polys)
@example([3], -1, [])
@example([2, -3], 1, [0, 0, 5])
def test_pseudo_divmod_divides_exactly_by_a_unit_lead(g, lead, h) -> None:
    g = g[:-1] + [lead]
    f = [c.numerator for c in (Polynomial(g) * Polynomial(h)).coeffs]
    assert _pseudo_divmod(f, g) == (h, [], 1)


def test_format_poly() -> None:
    assert format_poly(Polynomial([1, -1, -1])) == "1 - T - T^2"
    assert format_poly(Polynomial([])) == "0"
    assert format_poly(Polynomial([0, Fraction(1, 2)])) == "1/2T"
    assert format_poly(Polynomial([-1, 0, 3])) == "-1 + 3T^2"
