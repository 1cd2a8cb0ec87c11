"""Reference expansions shared by the test modules.

`_signed_cycle_decompositions` lists every permutation of n slots with its
sign and cycles, so a test can evaluate an antisymmetrized trace as the
plain n!-term permutation sum and hold the trace recursion against it.
`FormalSum`, `sum_compose` and `antisymmetrizer` give the same sum on the
diagram side: the signed permutation diagrams, which `close_up` turns into
loops.  `identity_diagram`, `cup`, `cap`, `perm_diagram`, `ket` and
`closed_diagram` build the generating diagrams, and `perm_sign` is a
permutation's sign.  `tensor`, `close_up` and `rotate` are the rest of
the rigid structure: side by side, joined target to source, and turned
by a half turn; `close_up` splices with the package's own
`diagrams._splice_run`.  `BoundaryDatum` is a general finite boundary
datum, right and left actions checked for functoriality, and
`antisym_trace_boundary` is the antisymmetrized trace with boundary-cut
strands, evaluated on `pseudochar._TraceRecursion`.  `f1_pullback`
values the dotted circles and intervals such a closure of dotted
strands leaves.  `dense_cells` reads
a Frobenius algebra's Fraction cells c[i][j][k] off its int terms, and
`dense_multiply` multiplies two vectors through every one of them, the
reference for the int kernel `FrobeniusAlgebra.multiply`.
`fraction_multiply` is that kernel on rational vectors, cleared and read
back over the product of their denominators and the algebra's, and
`fraction_eps` is the counit of a rational vector: the Fraction product
and counit that the handle and surface tests evaluate with.
`dense_validate` checks the
Frobenius axioms from its basis-vector products on every associativity
triple, the reference for `frobenius.validate`, and `fraction_validate`
is `validate` as it ran on Fraction products (the same loops, skip rule
and messages), the reference for its int kernel.  Each builds the cells
once per algebra.  `dual_basis` inverts the Gram, and the sum of e_i u_i
over its dual basis is the reference for `frobenius.handle_element`.
`from_dense_cells` builds an algebra from dense Fraction cells, keeping
the nonzero ones over the lcm of their denominators, and `dense_algebra`
converts number or 'a/b' string cells with `Fraction` and builds one
through it; `dense_truncated_poly_algebra` and `dense_product_algebra`
build the witness blocks and their products cell by cell through that,
the references for the sparse witness builders.  `cell_reader` reads a
job's algebra as the CLI once did, parsing every cell, zeros included,
and handing the dense cells to `from_dense_cells`: the reference for
the row pass of `cli._frobenius_from_json`.
`full_vanishing_level` is the
vanishing search over every element tuple, the reference for the basis
search of `pseudochar._vanishing_level`.  `reference_walks` enumerates
a graph's closed walks recursively, and `reference_holonomy` runs the
full search on their `Matrix` values, the reference for the degree
report `graph_pseudoholonomy` reads in closed form.
`gauss_jordan` reduces Fraction rows to reduced row echelon form,
independent of linalg's fraction-free kernel, and `gj_rank` counts the
pivots of forward Fraction elimination, without clearing above them.  `column_eliminate` is the fraction-free elimination that picks
its pivots column by column, linalg's kernel before it took rows one at a
time, and `column_solve`, `column_solve_unique`, `column_det` and
`column_inverse` read their results off it as linalg did, on rows of
[m | b] they build themselves.
`confluent_matrix` builds the confluent system T of `frobenius.pih_solve`
entry by entry, the reference for the closed forms it reads instead.
`classification_genfun` writes classification data's generating
function over its common denominator, the reference for the
classification round trip and the witnesses' surface values.
`dot_matmul`, `fraction_times` and `fraction_weight` form
matrix, vector-by-matrix and automaton products as sums of Fraction
products, the references for linalg's cleared-integer product kernel,
and `euclid_gcd` runs Euclid's algorithm over Fraction, the reference for
the integer `poly_gcd`.  `dense_partial_fractions` solves for every
coefficient of every pole at once, the reference for the closed-form top
coefficients of `partial_fractions`.  `fraction_add`, `fraction_mul`,
`fraction_scale` and `fraction_divmod` work on lowest-first lists of Fraction
coefficients, the references for the int `Polynomial` arithmetic, and
`fraction_taylor` is `RationalFunction.taylor` as it ran on Fraction
coefficients, the reference for its int recurrence.  `zero_matrix`, `apply` and `from_poly` build and
evaluate test data.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, permutations
from math import comb, lcm
import operator

from loopcat.cli import _exact_int, _rat, _rats, _value_list, _value_object
from loopcat.diagrams import (MINUS, PLUS, BrauerMorphism, ObjectMismatch,
                              _splice_run, compose)
from loopcat.fincat import IntervalClass, _UnionFind, least_rotation
from loopcat.frobenius import (
    FrobeniusAlgebra,
    NondegeneracyFailure,
    NotAssociative,
    NotCommutative,
    NotUnital,
)
from loopcat.linalg import (Matrix, Polynomial, RationalFunction, _cleared,
                            _rational_roots, det)
from loopcat.pseudochar import (
    DegreeResult,
    GraphHolonomy,
    HolonomyReport,
    NotPseudo,
    _TraceRecursion,
    _witness,
)
from loopcat.statespaces import SequenceTooShort


def gauss_jordan(rows: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon; returns the pivot column list."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def gj_rank(m: Matrix) -> int:
    """Pivots of forward Fraction elimination: each pivot clears the rows
    below it, and the rows above are left as they are."""
    rows, r = [list(x) for x in m.entries], 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / top[c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        r += 1
        if r == len(rows):
            break
    return r


def column_eliminate(rows) -> tuple[list, int, int]:
    """Forward-only fraction-free elimination of rational rows.

    Each row is scaled to ints by the lcm of its denominators.  After k
    pivots each entry left is a (k+1)-minor (Sylvester's identity, Bareiss
    1968), so dividing by the previous pivot is exact.  Finished pivot rows
    and vanished rows leave the working set.  Returns the pivot rows as
    (pivot column, pivot, the row's ints right of the pivot), the sign of
    their order, and the product of the row scales.
    """
    work, scale = [], 1
    for r in rows:
        ints, s = _cleared(r)
        scale *= s
        if any(ints):
            work.append(ints)
    pivots, sign, prev, base, c = [], 1, 1, 0, 0
    while work:
        i = next((i for i, row in enumerate(work) if row[c]), None)
        if i is None:
            c += 1
            continue
        top, sign = work.pop(i), -sign if i % 2 else sign
        p, tail = top[c], top[c + 1:]
        below = []
        for row in work:
            f = row[c]
            new = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            if any(new):
                below.append(new)
        pivots.append((base + c, p, tail))
        work, prev, base, c = below, p, base + c + 1, 0
    return pivots, sign, scale


def _column_back_substitute(pivots: list, col: int, n: int) -> list[Fraction]:
    """The x in Q^n, 0 off the pivot columns, with U x = U[:, col] for U
    the pivot rows of `column_eliminate`."""
    d = pivots[-1][1] if pivots else 1
    xs = [0] * n  # d·x
    for c, p, tail in reversed(pivots):
        s = d * tail[col - c - 1] if col > c else 0
        xs[c] = (s - sum(a * x for a, x in zip(tail, xs[c + 1:]))) // p
    return [Fraction(x, d) for x in xs]


def _augmented(m: Matrix, b) -> list[tuple]:
    """The rational rows of [m | b]."""
    return [(*r, Fraction(y)) for r, y in zip(m.entries, b, strict=True)]


def column_solve(m: Matrix, b) -> tuple | None:
    pivots = column_eliminate(_augmented(m, b))[0]
    if pivots and pivots[-1][0] == m.cols:  # pivot in b's column: inconsistent
        return None
    return tuple(_column_back_substitute(pivots, m.cols, m.cols))


def column_solve_unique(m: Matrix, b) -> tuple | None:
    """The unique solution of square m x = b, or None if there is none."""
    pivots = column_eliminate(_augmented(m, b))[0]
    if [c for c, _, _ in pivots] != list(range(m.cols)):
        return None
    return tuple(_column_back_substitute(pivots, m.cols, m.cols))


def column_det(m: Matrix) -> Fraction:
    pivots, sign, scale = column_eliminate(m.entries)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * (pivots[-1][1] if pivots else 1), scale)


def column_inverse(m: Matrix) -> Matrix | None:
    """m's inverse, or None if m is singular."""
    n = m.rows
    pivots = column_eliminate([r + tuple(Fraction(int(i == j)) for j in range(n))
                               for i, r in enumerate(m.entries)])[0]
    if pivots and pivots[-1][0] >= n:
        return None
    return Matrix(list(zip(*(_column_back_substitute(pivots, n + j, n)
                             for j in range(n)))))


def confluent_matrix(blocks) -> Matrix:
    """Rows n = 1..N, and for each block (lam, size, mult) the columns
    j < size: the j-th scaled derivative of lam^(n+1), C(n+1, j) lam^(n+1-j)."""
    total = sum(n for _lam, n, _mult in blocks)
    return Matrix([[comb(n + 1, j) * Fraction(lam) ** (n + 1 - j)
                    for lam, size, _mult in blocks for j in range(size)]
                   for n in range(1, total + 1)])


def _fraction_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def dot_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a·b, each entry a sum of Fraction products."""
    cols = list(zip(*b.entries))
    return Matrix([[_fraction_dot(r, c) for c in cols] for r in a.entries])


def fraction_times(v, m: Matrix) -> tuple:
    """The row vector v times m, each entry a sum of Fraction products."""
    return tuple(_fraction_dot(v, col) for col in zip(*m.entries))


def fraction_weight(a, word) -> Fraction:
    """The weight of word in the WeightedAutomaton a, on Fraction sums."""
    v = a.initial
    for letter in word:
        v = fraction_times(v, a.transitions[letter])
    return _fraction_dot(v, a.final)


def euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The monic gcd by Euclid's algorithm over Fraction."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a if a.is_zero() else a.scale(1 / a[a.degree])


def classification_genfun(cd) -> RationalFunction:
    """The generating function of `frobenius.ClassificationData` cd,
    mu + m T + sum_i m_i lam_i^-1 / (1 - lam_i T), over its common
    denominator prod_i (1 - lam_i T), normalized once."""
    den = Polynomial([1])
    for lam, _ in cd.poles:
        den = den * Polynomial([1, -lam])
    num = Polynomial([cd.mu, cd.m]) * den
    for lam, mult in cd.poles:
        num = num + (den // Polynomial([1, -lam])).scale(mult / lam)
    return RationalFunction(num, den)


def dense_partial_fractions(rf: RationalFunction):
    """partial_fractions as one dense solve: (poly_part, terms) with terms
    (lam, mult, coeffs), coeffs[k-1] multiplying 1/(1 - lam*T)^k, sorted
    by (lam.numerator, lam.denominator), for rf whose denominator splits
    over Q.  rem = num mod den is solved exactly as
    sum c_{i,k} den / (1 - lam_i T)^k, the quotients of den met dividing
    it by each 1 - lam_i T in turn."""
    poly_part, rem = divmod(rf.num, rf.den)
    den, n = rf.den, rf.den.degree
    factors = []
    for root in _rational_roots(den):
        lin, quotients, work = Polynomial([1, -1 / root]), [], den
        while (qr := divmod(work, lin))[1].is_zero():
            work = qr[0]
            quotients.append(work)
        factors.append((1 / root, quotients))
    factors.sort(key=lambda t: (t[0].numerator, t[0].denominator))
    columns = [col for _, qs in factors for col in qs]
    x = column_solve_unique(
        Matrix([[col[r] for col in columns] for r in range(n)]),
        [rem[r] for r in range(n)])
    assert x is not None, "the denominator does not split over Q"
    x = iter(x)
    return poly_part, [(lam, len(qs), [next(x) for _ in qs])
                       for lam, qs in factors]


def _trimmed(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fraction_add(f, g) -> list[Fraction]:
    n = max(len(f), len(g))
    return _trimmed([(f[k] if k < len(f) else 0) + (g[k] if k < len(g) else 0)
                     for k in range(n)])


def fraction_mul(f, g) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trimmed(out)


def fraction_scale(f, c) -> list[Fraction]:
    return _trimmed([c * a for a in f])


def fraction_divmod(f, g) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder by long division over Fraction, g nonzero."""
    r, g = _trimmed(f), _trimmed(g)
    q = [Fraction(0)] * max(0, len(r) - len(g) + 1)
    while len(r) >= len(g):
        c, k = r[-1] / g[-1], len(r) - len(g)
        q[k] = c
        r = _trimmed([x - c * g[j - k] if j >= k else x
                      for j, x in enumerate(r)])
    return _trimmed(q), r


def fraction_taylor(rf: RationalFunction, n: int) -> list[Fraction]:
    """The first n power-series coefficients of rf, den(0) = 1, each from
    the Fraction coefficients and the ones before it."""
    out: list[Fraction] = []
    d = rf.den.coeffs
    for k in range(n):
        a = rf.num[k]
        for j in range(1, min(k, len(d) - 1) + 1):
            a -= d[j] * out[k - j]
        out.append(a)
    return out


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def apply(m: Matrix, v) -> tuple:
    """Matrix times column vector."""
    if len(v) != m.cols:
        raise ValueError("shape mismatch")
    vv = [Fraction(x) for x in v]
    return tuple(sum((a * b for a, b in zip(r, vv)), Fraction(0))
                 for r in m.entries)


def from_poly(p: Polynomial) -> RationalFunction:
    return RationalFunction(p, Polynomial([1]))


@lru_cache(maxsize=None)
def _signed_cycle_decompositions(n: int):
    """All permutations of n slots as (sign, cycles), cycles in traversal
    order starting from each orbit's least slot."""
    out = []
    for sigma in permutations(range(n)):
        seen = [False] * n
        cycles = []
        for i in range(n):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = sigma[j]
            cycles.append(tuple(cyc))
        out.append((perm_sign(sigma), tuple(cycles)))
    return tuple(out)


def from_dense_cells(dim: int, cells, unit, counit) -> FrobeniusAlgebra:
    """The algebra of dense Fraction cells c[i][j][k]: only the nonzero
    ones are kept, over the lcm of their denominators."""
    if dim <= 0:
        raise ValueError("dimension must be positive")
    if len(cells) != dim or any(len(p) != dim or any(len(r) != dim for r in p)
                                for p in cells):
        raise ValueError("structure constants must be dim^3")
    nonzero = [[[(k, c) for k, c in enumerate(row) if c] for row in plane]
               for plane in cells]
    scale = lcm(*{c.denominator for plane in nonzero for row in plane
                  for _, c in row})
    terms = tuple(tuple(tuple((k, c.numerator * (scale // c.denominator))
                              for k, c in row) for row in plane)
                  for plane in nonzero)
    return FrobeniusAlgebra(terms, scale, unit, counit)


def cell_reader(body) -> FrobeniusAlgebra:
    """A job's algebra read cell by cell: the four keys, every cell in
    row-major order, each distinct string once, then the unit and the
    counit, then `from_dense_cells`."""
    dim, structure, unit, counit = operator.itemgetter(
        "dim", "structure", "unit", "counit")(_value_object(body))
    dim, parsed = _exact_int(dim), {}

    def cell(x):
        if isinstance(x, str):
            return parsed[x] if x in parsed else parsed.setdefault(x, _rat(x))
        return _rat(x)
    cells = [[list(map(cell, _value_list(row))) for row in _value_list(plane)]
             for plane in _value_list(structure)]
    return from_dense_cells(dim, cells, _rats(unit), _rats(counit))


def dense_algebra(dim, structure, unit, counit):
    """The algebra of dense cells c[i][j][k], each a number or an 'a/b'
    string."""
    return from_dense_cells(dim, [[list(map(Fraction, row)) for row in plane]
                                  for plane in structure], unit, counit)


def dense_truncated_poly_algebra(m: int, counit):
    """Q[x]/x^m from its m^3 cells."""
    structure = [[[Fraction(i + j == k) for k in range(m)]
                  for j in range(m)] for i in range(m)]
    unit = [Fraction(k == 0) for k in range(m)]
    return dense_algebra(m, structure, unit, counit)


def dense_product_algebra(*factors):
    """The direct product, its block-diagonal cells copied from the
    factors' cells."""
    n = sum(f.dim for f in factors)
    structure = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    offset = 0
    for f in factors:
        for i, plane in enumerate(dense_cells(f)):
            for j, row in enumerate(plane):
                structure[offset + i][offset + j][offset:offset + f.dim] = row
        offset += f.dim
    return dense_algebra(n, structure, sum((f.unit for f in factors), ()),
                         sum((f.counit for f in factors), ()))


def dense_cells(fa) -> tuple:
    """The Fraction cells c[i][j][k] of `fa`, rebuilt from its terms."""
    s, ks = fa.scale, range(fa.dim)
    return tuple(tuple(tuple(Fraction(row.get(k, 0), s) for k in ks)
                       for row in map(dict, plane)) for plane in fa._terms)


def dense_multiply(cells, a, b) -> tuple:
    """a b = sum a_i b_j c[i][j][k] e_k over the cells of `dense_cells`."""
    out = [Fraction(0)] * len(cells)
    for ai, plane in zip(a, cells):
        if ai == 0:
            continue
        for bj, row in zip(b, plane):
            if bj == 0:
                continue
            coeff = ai * bj
            for k, c in enumerate(row):
                out[k] += coeff * c
    return tuple(out)


def fraction_multiply(fa, a, b) -> tuple:
    """a b for rational vectors a = x/s and b = y/t: the kernel's D x y
    over s t D."""
    (x, s), (y, t) = _cleared(a), _cleared(b)
    return tuple(Fraction(v, s * t * fa.scale) for v in fa.multiply(x, y))


def fraction_eps(fa, a) -> Fraction:
    """eps(a) = sum a_k eps_k for a rational vector a."""
    return sum(map(operator.mul, a, fa.counit), Fraction(0))


def dense_validate(fa) -> None:
    """Check each axiom, raising the matching error for the first failure."""
    n, s = fa.dim, dense_cells(fa)
    basis = [tuple(Fraction(i == k) for i in range(n)) for k in range(n)]
    mul = partial(dense_multiply, s)
    for i in range(n):
        if mul(fa.unit, basis[i]) != basis[i]:
            raise NotUnital(f"unit * e_{i} != e_{i}")
        if mul(basis[i], fa.unit) != basis[i]:
            raise NotUnital(f"e_{i} * unit != e_{i}")
    for i in range(n):
        for j in range(i + 1, n):
            if s[i][j] != s[j][i]:
                raise NotCommutative(f"e_{i} e_{j} != e_{j} e_{i}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(mul(basis[i], basis[j]), basis[k])
                rhs = mul(basis[i], mul(basis[j], basis[k]))
                if lhs != rhs:
                    raise NotAssociative(f"(e_{i} e_{j}) e_{k} differs")
    if det(fa.gram()) == 0:
        raise NondegeneracyFailure("the pairing eps(ab) is singular")


def dual_basis(fa) -> list[tuple]:
    """Vectors u_i with eps(u_i e_j) = delta_ij, the rows of the inverse
    Gram; a singular pairing is a NondegeneracyFailure."""
    inv = column_inverse(fa.gram())
    if inv is None:
        raise NondegeneracyFailure("the pairing eps(ab) is singular")
    return [inv.row(i) for i in range(fa.dim)]


def fraction_validate(fa) -> None:
    """`frobenius.validate` on Fractions: unitality, then commutativity on
    the nonzero terms, then associativity on i < k skipping the triples
    with e_i e_j = e_j e_k = 0, then a singular Gram."""
    n, s = fa.dim, dense_cells(fa)
    basis = [tuple(Fraction(i == k) for i in range(n)) for k in range(n)]
    mul = partial(dense_multiply, s)
    for i in range(n):
        if mul(fa.unit, basis[i]) != basis[i]:
            raise NotUnital(f"unit * e_{i} != e_{i}")
        if mul(basis[i], fa.unit) != basis[i]:
            raise NotUnital(f"e_{i} * unit != e_{i}")
    t = [[tuple((k, c) for k, c in enumerate(row) if c) for row in plane]
         for plane in s]
    for i in range(n):
        for j in range(i + 1, n):
            if t[i][j] != t[j][i]:
                raise NotCommutative(f"e_{i} e_{j} != e_{j} e_{i}")
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                if (t[i][j] or t[j][k]) and (
                        mul(s[i][j], basis[k]) != mul(basis[i], s[j][k])):
                    raise NotAssociative(f"(e_{i} e_{j}) e_{k} differs")
    gram = Matrix([[sum((c * fa.counit[k] for k, c in terms), Fraction(0))
                    for terms in plane] for plane in t])
    if det(gram) == 0:
        raise NondegeneracyFailure("the pairing eps(ab) is singular")


def identity_diagram(cat, seq, boundary=None) -> BrauerMorphism:
    seq = tuple(seq)
    n = len(seq)
    arcs = []
    for k, (x, s) in enumerate(seq):
        i = cat.identity(x)
        if s == PLUS:
            arcs.append((k, n + k, i))
        else:
            arcs.append((n + k, k, i))
    return BrauerMorphism(cat, seq, seq, arcs, boundary=boundary)


def cup(cat, label, boundary=None) -> BrauerMorphism:
    """From the empty sequence to ((target(label), +), (source(label), -))."""
    tgt = ((cat.target(label), PLUS), (cat.source(label), MINUS))
    return BrauerMorphism(cat, (), tgt, [(1, 0, label)], boundary=boundary)


def cap(cat, label, boundary=None) -> BrauerMorphism:
    """From ((source(label), +), (target(label), -)) to the empty sequence."""
    src = ((cat.source(label), PLUS), (cat.target(label), MINUS))
    return BrauerMorphism(cat, src, (), [(0, 1, label)], boundary=boundary)


def perm_diagram(cat, x, sigma, labels=None, boundary=None) -> BrauerMorphism:
    """(g_1 tensor ... tensor g_n) after the permutation sigma on (x,+)^n.

    sigma is one-line notation (source strand i ends at target sigma[i]);
    labels[j] decorates the strand arriving at target j, so the arc from
    source i carries labels[sigma[i]] (identity labels if omitted).
    """
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError("not a permutation")
    if labels is None:
        labels = [cat.identity(x)] * n
    seq = ((x, PLUS),) * n
    arcs = [(i, n + sigma[i], labels[sigma[i]]) for i in range(n)]
    return BrauerMorphism(cat, seq, seq, arcs, boundary=boundary)


def perm_sign(sigma) -> int:
    inv = sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma))
              if sigma[i] > sigma[j])
    return -1 if inv % 2 else 1


def ket(cat, boundary, x, gr_elem) -> BrauerMorphism:
    """Half-interval from the empty sequence to ((x,+)); inner end decorated."""
    return BrauerMorphism(cat, (), ((x, PLUS),), [], [(0, gr_elem)],
                          boundary=boundary)


def closed_diagram(cat, loops=(), intervals=(), boundary=None) -> BrauerMorphism:
    return BrauerMorphism(cat, (), (), [], [], loops, intervals,
                          boundary=boundary)


def tensor(d1: BrauerMorphism, d2: BrauerMorphism) -> BrauerMorphism:
    """Place d2 to the right of d1; endpoint indices of d2 shift accordingly."""
    if d1.cat is not d2.cat:
        raise ValueError("tensor across different categories")
    if d1.boundary is not d2.boundary:
        raise ValueError("tensor across different boundary data")
    ns1, ns2, nt1 = len(d1.source), len(d2.source), len(d1.target)

    def remap1(e: int) -> int:
        return e if e < ns1 else e + ns2

    def remap2(e: int) -> int:
        return ns1 + e if e < ns2 else ns1 + nt1 + e

    arcs = [(remap1(t), remap1(h), lab) for t, h, lab in d1.arcs]
    arcs += [(remap2(t), remap2(h), lab) for t, h, lab in d2.arcs]
    half = [(remap1(e), g) for e, g in d1.half_intervals]
    half += [(remap2(e), g) for e, g in d2.half_intervals]
    return BrauerMorphism(
        d1.cat, d1.source + d2.source, d1.target + d2.target, arcs, half,
        d1.loops + d2.loops, d1.intervals + d2.intervals, boundary=d1.boundary)




def close_up(d: BrauerMorphism) -> BrauerMorphism:
    """Join target strand k back onto source strand k for every k.

    Requires source = target (an endomorphism diagram); the result is closed.
    Equivalent to sandwiching between nested identity cups and caps — in the
    matching representation that is exactly this wiring.
    """
    if d.source != d.target:
        raise ObjectMismatch("close_up needs an endomorphism diagram")
    ns = len(d.source)
    arcs = {(0, t): ((0, h), lab) for t, h, lab in d.arcs}
    half = {(0, e): g for e, g in d.half_intervals}
    wire = {}
    for k in range(ns):
        a, b = (0, ns + k), (0, k)
        wire[a], wire[b] = b, a

    # with no outer end, the splice leaves no open arc or half-interval
    _, _, loops, intervals = _splice_run(
        d.cat, d.boundary, arcs, half, wire, {},
        lambda n: d.endpoint_object(n[1]), lambda n: d.endpoint_eff(n[1]))
    return BrauerMorphism(d.cat, (), (), [], [],
                          d.loops + tuple(loops),
                          d.intervals + tuple(intervals), boundary=d.boundary)




def rotate(d: BrauerMorphism) -> BrauerMorphism:
    """Half-turn rotation: the rigid dual Hom(A, B) -> Hom(B*, A*).

    The dual of a signed sequence reverses the order and negates every sign.
    Rotating preserves each strand's orientation relative to its endpoints
    (tails stay tails), so labels keep their typing in any base category.
    Contravariant: rotate(compose(a, b)) == compose(rotate(b), rotate(a)).
    Unlike `transpose` this is the honest adjoint for the pairing, but it
    lands on the dual sequence, so only alternating-sign objects are fixed.
    """
    ns, nt = len(d.source), len(d.target)
    dual = lambda seq: tuple((x, -s) for x, s in reversed(seq))

    def remap(e: int) -> int:
        if e < ns:
            return nt + (ns - 1 - e)
        return nt - 1 - (e - ns)

    arcs = [(remap(t), remap(h), lab) for t, h, lab in d.arcs]
    half = [(remap(e), g) for e, g in d.half_intervals]
    return BrauerMorphism(d.cat, dual(d.target), dual(d.source), arcs, half,
                          d.loops, d.intervals, boundary=d.boundary)


class BoundaryDatum:
    """Finite action data: sets Gr(X), Gl(X) and compatible morphism actions.

    `gr_action(m, g)` maps g in Gr(source(m)) to Gr(target(m)); `gl_action(m, g)`
    maps g in Gl(target(m)) to Gl(source(m)).  Functoriality is checked at load
    for finite categories.
    """

    def __init__(self, cat, gr_sets, gl_sets, gr_action, gl_action):
        self.cat = cat
        self.gr_sets = {x: tuple(v) for x, v in gr_sets.items()}
        self.gl_sets = {x: tuple(v) for x, v in gl_sets.items()}
        self._gr = gr_action
        self._gl = gl_action
        self._interval_reps: dict | None = None
        self._validate()

    def _validate(self):
        for x in self.cat.objects:
            i = self.cat.identity(x)
            for g in self.gr_sets[x]:
                if self.gr(i, g) != g:
                    raise ValueError("right action violates identity")
            for g in self.gl_sets[x]:
                if self.gl(i, g) != g:
                    raise ValueError("left action violates identity")
        for x in self.cat.objects:
            for y in self.cat.objects:
                for b in self.cat.hom(x, y):
                    for z in self.cat.objects:
                        for c in self.cat.hom(y, z):
                            cb = self.cat.compose(c, b)
                            for g in self.gr_sets[x]:
                                if self.gr(cb, g) != self.gr(c, self.gr(b, g)):
                                    raise ValueError(
                                        "right action violates composition")
                            for g in self.gl_sets[z]:
                                if self.gl(cb, g) != self.gl(b, self.gl(c, g)):
                                    raise ValueError(
                                        "left action violates composition")

    def gr(self, m, g):
        return self._gr(m, g)

    def gl(self, m, g):
        return self._gl(m, g)

    def interval_class(self, obj, gl, gr) -> IntervalClass:
        """Canonical class of the pair (gl, gr) at obj under moving morphisms across."""
        if self._interval_reps is None:
            self._interval_reps = self._saturate_intervals()
        return IntervalClass(*self._interval_reps[(obj, gl, gr)])

    def _saturate_intervals(self) -> dict:
        uf = _UnionFind()
        oix = {x: i for i, x in enumerate(self.cat.objects)}
        key = {}
        for x in self.cat.objects:
            for gl in self.gl_sets[x]:
                for gr in self.gr_sets[x]:
                    k = (oix[x], repr(gl), repr(gr))
                    key[k] = (x, gl, gr)
                    uf.find(k)
        for x in self.cat.objects:
            for y in self.cat.objects:
                for b in self.cat.hom(x, y):
                    # (gl . b, gr) at x  ~  (gl, b . gr) at y
                    for gl in self.gl_sets[y]:
                        for gr in self.gr_sets[x]:
                            kx = (oix[x], repr(self.gl(b, gl)), repr(gr))
                            ky = (oix[y], repr(gl), repr(self.gr(b, gr)))
                            uf.union(kx, ky)
        return {key[k]: key[uf.find(k)] for k in key}


class FormalSum:
    """Rational combination of diagrams sharing source and target."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[BrauerMorphism, Fraction] = {}
        shape = None
        for d, c in terms:
            if shape is None:
                shape = (d.source, d.target)
            elif (d.source, d.target) != shape:
                raise ValueError("mixed shapes in a sum")
            acc[d] = acc.get(d, Fraction(0)) + Fraction(c)
        self.terms = {d: c for d, c in acc.items() if c != 0}

    @classmethod
    def lift(cls, d: BrauerMorphism) -> "FormalSum":
        return cls([(d, 1)])

    def scale(self, c) -> "FormalSum":
        return FormalSum([(d, c * v) for d, v in self.terms.items()])

    def __eq__(self, other):
        if isinstance(other, FormalSum):
            return self.terms == other.terms
        return NotImplemented

    def __len__(self):
        return len(self.terms)

    def map_diagrams(self, f) -> "FormalSum":
        return FormalSum([(f(d), c) for d, c in self.terms.items()])


def sum_compose(s2: FormalSum, s1: FormalSum) -> FormalSum:
    return FormalSum([(compose(d2, d1), c1 * c2)
                      for d1, c1 in s1.terms.items()
                      for d2, c2 in s2.terms.items()])


def antisymmetrizer(cat, x, n: int) -> FormalSum:
    """Signed sum over all n! permutation diagrams on (x,+)^n, id labels."""
    if n < 0:
        raise ValueError("antisymmetrizer needs n >= 0")
    return FormalSum([(perm_diagram(cat, x, sigma), perm_sign(sigma))
                      for sigma in permutations(range(n))])


def f1_pullback(alpha_seq, components) -> Fraction:
    """Value of a disjoint union of dotted circles and dotted intervals.

    A circle with n dots is alpha_{n+1} (a trace of the n-th handle
    power); an interval with n dots is alpha_n.  The value is the product
    over components."""
    seq = [Fraction(x) for x in alpha_seq]
    out = Fraction(1)
    for kind, dots in components:
        if dots < 0:
            raise ValueError("dot counts must be nonnegative")
        if kind == "circle":
            index = dots + 1
        elif kind == "interval":
            index = dots
        else:
            raise ValueError(f"unknown component kind {kind!r}")
        if index >= len(seq):
            raise SequenceTooShort(
                f"{kind} with {dots} dots needs alpha_{index}")
        out *= seq[index]
    return out


def antisym_trace_boundary(cat, boundary, alpha, x_labels, boundary_pairs,
                           base=0) -> Fraction:
    """Antisymmetrized trace where some slots are boundary-cut strands.

    An x slot is a strand labeled by an endomorphism; a pair slot (y, z) is
    a strand cut in the middle, restarting at a right element y and ending
    at a left element z.  A cycle through x slots only closes into a loop;
    a cycle through k pair slots breaks into k interval classes, each
    absorbing the x labels between consecutive cuts.

    Evaluated by `_TraceRecursion` over two kinds of element.  A label word
    ("x", w) is traced as the loop of w.  A cut word ("p", c, head, z, y,
    tail) is the strand head, then a cut ending at z and restarting at y,
    then tail, with c the product of the intervals already closed inside
    it; its trace closes the last interval, c·I(z, y·(tail + head)).
    Multiplying concatenates words, and two cut words close the interval
    from the first one's y to the second one's z.
    """
    def interval(z, y, labels):
        for lab in labels:
            y = boundary.gr(lab, y)
        return alpha.interval(boundary.interval_class(base, z, y))

    def trace(e):
        if e[0] == "x":
            return alpha.loop(cat.loop_class(base, e[1]))
        _, c, head, z, y, tail = e
        return c * interval(z, y, tail + head)

    def mul(e, f):
        if e[0] == f[0] == "x":
            return ("x", e[1] + f[1])
        if e[0] == "x":  # the word joins the head
            _, c, head, z, y, tail = f
            return ("p", c, e[1] + head, z, y, tail)
        _, c, head, z, y, tail = e
        if f[0] == "x":  # the word joins the tail
            return ("p", c, head, z, y, tail + f[1])
        _, c2, head2, z2, y2, tail2 = f
        return ("p", c * c2 * interval(z2, y, tail + head2), head, z, y2,
                tail2)

    engine = _TraceRecursion(trace, mul)
    return Fraction(engine.antisym(
        [engine.intern(("x", (lab,))) for lab in x_labels]
        + [engine.intern(("p", Fraction(1), (), z, y, ()))
           for y, z in boundary_pairs]))


def full_vanishing_level(engine: _TraceRecursion, ids: list, levels):
    """The first d in levels at which the antisymmetrized trace of every
    unordered (d+1)-tuple drawn from ids vanishes (None if none does), and
    the number of tuples evaluated; each level stops at its first nonzero
    tuple."""
    checked = 0
    for d in levels:
        for tup in combinations_with_replacement(ids, d + 1):
            checked += 1
            if engine.antisym(tup) != 0:
                break
        else:
            return d, checked
    return None, checked


# Most level-dim tuples `reference_holonomy` searches: its full search
# evaluates every one of them, so it keeps the tests' searches small.
REFERENCE_HOLONOMY_MAX_TUPLES = 500


def reference_walks(gh: GraphHolonomy, max_len: int, base=0):
    """The holonomy table of `graph_pseudoholonomy`, and the distinct
    matrices of the closed walks at base with the identity first, by a
    recursive walk enumeration."""
    if max_len < 1:
        raise ValueError("walk-length cap must be at least 1")
    dim = gh.vertex_dim.get(base)
    if dim is None:
        raise ValueError(f"vertex {base} has no incident edge")
    table, mats = {}, {Matrix.identity(dim): None}

    def walk(path, vertex, mat):
        start = gh.edges[path[0]][0]
        if vertex == start:
            table.setdefault(least_rotation(tuple(path)), mat.trace())
            if start == base:
                mats.setdefault(mat)
        if len(path) < max_len:
            for ei, (src, tgt, m) in enumerate(gh.edges):
                if src == vertex:
                    walk(path + [ei], tgt, mat * m)

    for ei, (_src, tgt, m) in enumerate(gh.edges):
        walk([ei], tgt, m)
    return table, list(mats)


def reference_holonomy(gh: GraphHolonomy, max_len: int,
                       base=0) -> HolonomyReport:
    """`graph_pseudoholonomy` by `reference_walks` and a degree search over
    every tuple of the `Matrix` walk matrices, each key of two entries
    traced from their full product.  Walks that give more than
    REFERENCE_HOLONOMY_MAX_TUPLES tuples at level dim are not searched,
    and the report's degree is None."""
    table, mats = reference_walks(gh, max_len, base)
    dim = mats[0].rows
    if comb(len(mats) + dim, dim + 1) > REFERENCE_HOLONOMY_MAX_TUPLES:
        return HolonomyReport(table, dim, None)
    engine = _TraceRecursion(Matrix.trace, operator.mul)
    ids = [engine.intern(m) for m in mats]
    deg, checked = full_vanishing_level(engine, ids, range(dim + 2))
    if deg != dim:
        raise NotPseudo(
            f"holonomy at vertex {base} has degree {deg}, dimension {dim}")
    witness = tuple(mats[i] for i in _witness(engine, ids, deg))
    return HolonomyReport(table, dim, DegreeResult(deg, witness, checked))
