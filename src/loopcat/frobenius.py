"""Commutative Frobenius algebras and genus generating functions.

A commutative Frobenius algebra over the rationals is presented by
structure constants, a unit vector, and a counit functional whose induced
bilinear form is nondegenerate.  Closed surfaces evaluate through the
handle element h (sum of basis times dual basis): genus g gives eps(h^g).
The sequence of surface values has a rational generating function; this
module computes it, classifies which rational functions arise this way,
synthesizes a witness algebra from classification data, and checks the
related (p, h, iota) systems and confluent Vandermonde systems that
appear when recovering a direct-sum decomposition from the values alone;
the latter are read in closed form, determinant included.

An algebra keeps its nonzero structure constants as ints over one common
denominator, and its unit and counit as cleared int vectors.  Every
product of vectors runs one int kernel over the nonzero structure
constants (`FrobeniusAlgebra.multiply`): the unit check, multiplication
by h and the surface values eps(h^g) (`_surface_values`), which
`surface_eval`, generating functions and witnesses read, stay on ints.
The commutativity and associativity checks read the nonzero structure
constants themselves (`_associator`), with no table of basis products.

Its records are named tuples, as `fincat.Loop` is: immutable, and equal
to the plain tuple of their fields, which no report compares them with.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from typing import NamedTuple

from .errors import DomainError, InternalInconsistency, SequenceTooShort
from .linalg import (Matrix, NonSplitDenominator, Polynomial, RationalFunction,
                     _cleared, _fractions, partial_fractions, solve,
                     trace_series)
from .pseudochar import _TraceRecursion


class NotCommutative(DomainError):
    """Structure constants are not symmetric in the first two slots."""


class NotAssociative(DomainError):
    """Triple products disagree."""


class NotUnital(DomainError):
    """The declared unit does not act as identity."""


class NondegeneracyFailure(DomainError):
    """The counit pairing eps(ab) is singular."""


class Reject(DomainError):
    """Classification rejection; `reason` names the failed condition."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class SingularT(DomainError):
    """Confluent Vandermonde system is singular (duplicate eigenvalues)."""


class DimensionMismatch(DomainError):
    """(p, h, iota) shapes are inconsistent."""


# ---------------------------------------------------------------------------
# the algebra


class FrobeniusAlgebra:
    """Structure constants c[i][j][k] (e_i e_j = sum_k c[i][j][k] e_k),
    a unit vector, and a counit covector; `validate` checks the axioms.
    Only the nonzero c[i][j][k] are kept: `terms[i][j]` is the tuple of
    pairs (k, D c[i][j][k]), k increasing, over one denominator D = `scale`.
    The rational unit and counit are kept with their cleared ints."""

    def __init__(self, terms: tuple, scale: int, unit, counit):
        self._terms, self.scale, self.dim = terms, scale, len(terms)
        self.unit, self.counit = _fractions(unit), _fractions(counit)
        if len(self.unit) != self.dim or len(self.counit) != self.dim:
            raise ValueError("unit and counit must have length dim")
        # (i, ((j, terms of e_i e_j), ...)) over the nonzero products only
        self._products = tuple(
            (i, row) for i, row in enumerate(
                tuple((j, terms) for j, terms in enumerate(plane) if terms)
                for plane in self._terms) if row)
        self._unit = _cleared(self.unit)
        self._counit = _cleared(self.counit)
        self._handle = None  # HandleData, built by `handle_element`

    def multiply(self, a, b) -> list[int]:
        """D a b for int vectors a and b, D the structure constants'
        common denominator: the product kernel, over the nonzero products
        e_i e_j with a_i b_j != 0."""
        out = [0] * self.dim
        for i, row in self._products:
            ai = a[i]
            if ai:
                for j, terms in row:
                    bj = b[j]
                    if bj:
                        coeff = ai * bj
                        for k, c in terms:
                            out[k] += coeff * c
        return out

    def gram(self) -> Matrix:
        """eps(e_i e_j), read off the nonzero structure constants."""
        e, t = self._counit
        return Matrix.from_ints(
            [[sum(c * e[k] for k, c in terms) if terms else 0 for terms in p]
             for p in self._terms], self.scale * t)


def _int_basis(n: int) -> list[list[int]]:
    return [[int(i == k) for i in range(n)] for k in range(n)]


def _associator(t, i, j, k) -> dict:
    """D^2 ((e_i e_j) e_k - e_i (e_j e_k)), D the common denominator of
    the nonzero structure constants `t` (an algebra's `_terms`), as a map
    from basis index to coefficient: both sides are summed into it, so
    the triple associates iff every value is 0."""
    out = {}
    for m, c in t[i][j]:
        for l, d in t[m][k]:
            out[l] = out.get(l, 0) + c * d
    for m, c in t[j][k]:
        for l, d in t[i][m]:
            out[l] = out.get(l, 0) - c * d
    return out


def validate(fa: FrobeniusAlgebra) -> None:
    """Check each axiom, raising the matching error for the first failure.
    Unitality runs the product kernel (`FrobeniusAlgebra.multiply`) on the
    unit and each basis vector; commutativity and associativity (each
    triple's `_associator`) read the nonzero structure constants, which
    share one denominator, so the int sides are equal iff the rational
    ones are.  Given commutativity, (ab)c - a(bc) = c(ba) - (cb)a:
    (i, j, k) fails iff (k, j, i) does, and (i, j, i) never fails, so
    associativity is checked for i < k only.  A triple with e_i e_j =
    e_j e_k = 0 has both sides 0 and is skipped: for each i and j, the
    triples run over every k > i when e_i e_j != 0 and over the k > i
    with e_j e_k != 0 otherwise, in lexicographic order.  Nondegeneracy
    is decided by building the handle element (`handle_element`), one
    solve against the Gram."""
    n, t, mul = fa.dim, fa._terms, fa.multiply
    basis = _int_basis(n)
    unit, s = fa._unit
    for i in range(n):
        image = [s * fa.scale * x for x in basis[i]]  # unit e_i on ints
        if mul(unit, basis[i]) != image:
            raise NotUnital(f"unit * e_{i} != e_{i}")
        if mul(basis[i], unit) != image:
            raise NotUnital(f"e_{i} * unit != e_{i}")
    for i in range(n):
        for j in range(i + 1, n):
            if t[i][j] != t[j][i]:
                raise NotCommutative(f"e_{i} e_{j} != e_{j} e_{i}")
    nonzero = [[k for k, terms in enumerate(plane) if terms] for plane in t]
    for i in range(n):
        for j in range(n):
            ks = (range(i + 1, n) if t[i][j]
                  else [k for k in nonzero[j] if k > i])
            for k in ks:
                if any(_associator(t, i, j, k).values()):
                    raise NotAssociative(f"(e_{i} e_{j}) e_{k} differs")
    handle_element(fa)


class HandleData(NamedTuple):
    element: tuple
    matrix: Matrix  # multiplication by the element
    cleared: tuple  # (ints, scale) with element = ints / scale, in lowest terms


def handle_element(fa: FrobeniusAlgebra) -> HandleData:
    """h = sum_i e_i u_i, eps(u_i e_j) = delta_ij.  The coefficient of e_i
    in x is eps(u_i x), so tr(a ·) = eps(h a) and G h = t, G the Gram and
    t_j = tr(e_j ·) = sum_i c_jii.  One `solve` finds h and the rank of
    G; a rank below dim is a singular pairing, a NondegeneracyFailure.
    Kept on the algebra."""
    if fa._handle is None:
        t = [Fraction(sum(c for i, row in enumerate(plane) for k, c in row
                          if k == i), fa.scale) for plane in fa._terms]
        element, rank = solve(fa.gram(), t)
        if rank < fa.dim:
            raise NondegeneracyFailure("the pairing eps(ab) is singular")
        h, s = _cleared(element)
        # row i of multiplication by h is h e_i
        matrix = Matrix.from_ints(
            [fa.multiply(h, e) for e in _int_basis(fa.dim)], s * fa.scale)
        fa._handle = HandleData(element, matrix, (h, s))
    return fa._handle


def surface_eval(fa: FrobeniusAlgebra, genus: int) -> Fraction:
    """Value of the closed genus-g surface: eps(h^g), read off the int
    surface values (`_surface_values`).

    For g >= 1 this must equal tr(M_h^(g-1)) (trace of multiplication by a
    is eps(h a)), taken as the trace of the power; at g = 1 it is dim.
    Disagreement — possible only for inputs that are not honest Frobenius
    data — is an InternalInconsistency.  The handle is the algebra's one
    `handle_element`.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    hd = handle_element(fa)
    value = Fraction(*_surface_values(fa, genus + 1)[genus])
    if genus >= 1:
        if value != (hd.matrix ** (genus - 1)).trace():
            raise InternalInconsistency(
                f"eps(h^{genus}) disagrees with tr(M_h^{genus - 1})")
    return value


def _surface_values(fa: FrobeniusAlgebra, n: int) -> list[tuple[int, int]]:
    """eps(h^g) for g < n as int pairs (numerator, denominator), with no
    Fraction: h^g is an int vector whose content moves to a running int."""
    (power, s), (h, t), (e, r) = fa._unit, handle_element(fa).cleared, fa._counit
    content, den, values = 1, s * r, []
    for g in range(n):
        if g:
            power = fa.multiply(power, h)
            c = gcd(*power) or 1
            power = [x // c for x in power]
            content, den = content * c, den * t * fa.scale
        values.append((content * sum(map(operator.mul, power, e)), den))
    return values


def generating_function(fa: FrobeniusAlgebra) -> RationalFunction:
    """Rational function with Taylor coefficients eps(h^g), g = 0, 1, ...

    For g >= 1, eps(h^g) = tr(M_h^(g-1)), so with N/Q the unreduced trace
    series of M_h (`trace_series`, Q = det(I - T M_h)) the function is
    (eps(1) Q + T N) / Q, normalized once.  It is compared with the surface
    values (`_surface_values`) at g = 0 .. 2 dim + 2, and a disagreement is
    an InternalInconsistency.  Both series are P/Q with deg P, deg Q <= dim
    (see `witness_synthesis`), so agreement there makes them equal.
    """
    values = _surface_values(fa, 2 * fa.dim + 3)
    num, den = trace_series(handle_element(fa).matrix)
    rf = RationalFunction(
        den.scale(Fraction(*values[0])) + Polynomial([0, 1]) * num, den)
    for g, ((a, b), c) in enumerate(zip(values, rf.taylor(len(values)))):
        if a * c.denominator != c.numerator * b:
            raise InternalInconsistency(
                f"eps(h^{g}) disagrees with tr(M_h^{g - 1})")
    return rf


# ---------------------------------------------------------------------------
# classification


class _ClassificationFields(NamedTuple):
    mu: Fraction
    m: int
    poles: tuple  # ((lam_i, m_i), ...) sorted by lam


class ClassificationData(_ClassificationFields):
    """mu + m T + sum_i m_i lam_i^-1 / (1 - lam_i T), with m = 0 or m >= 2,
    lam_i distinct nonzero rationals, m_i positive integers; mu is free for
    m >= 2 and forced to 0 when m = 0.  Only the constructor checks this:
    `_make` and `_replace` bypass it, so the package calls neither."""

    __slots__ = ()

    def __new__(cls, mu, m, poles):
        mu = Fraction(mu)
        poles = tuple((Fraction(lam), mult) for lam, mult in poles)
        if m == 1:
            raise Reject("M1Forbidden", "no algebra has a 1-dim nilpotent block")
        if m < 0:
            raise ValueError("m must be 0 or >= 2")
        if m == 0 and mu != 0:
            raise ValueError("mu must vanish when m = 0")
        lams = [lam for lam, _ in poles]
        if any(lam == 0 for lam in lams) or len(set(lams)) != len(lams):
            raise ValueError("pole locations must be distinct and nonzero")
        if any(mult < 1 for _, mult in poles):
            raise ValueError("pole multiplicities must be positive")
        if lams != sorted(lams, key=lambda l: (l.numerator, l.denominator)):
            raise ValueError("poles must be sorted")
        return super().__new__(cls, mu, m, poles)


def classify_genfun(rf: RationalFunction) -> ClassificationData:
    """Decide whether rf is the generating function of some algebra.

    Accepts exactly: polynomial part of degree <= 1 with T-coefficient
    m in {0, 2, 3, ...} (vanishing entirely when m = 0), plus simple poles
    c_i/(1 - lam_i T) with m_i = c_i * lam_i a positive integer, c_i read by
    `partial_fractions`.  Rejections carry the name of the first failed
    condition.
    """
    try:
        poly, terms = partial_fractions(rf)
    except NonSplitDenominator as exc:
        raise Reject("NonSplitDenominator", str(exc)) from exc
    for lam, mult, _c in terms:
        if mult > 1:
            raise Reject("MultiplePole", f"pole at 1/{lam} has order {mult}")
    if poly.degree > 1:
        raise Reject("PolynomialDegreeTooHigh",
                     f"polynomial part has degree {poly.degree}")
    m = poly[1]
    if m.denominator != 1 or m < 0 or m == 1:
        raise Reject("M1Forbidden",
                     f"T-coefficient {m} is not 0 or an integer >= 2")
    m = int(m)
    poles = []
    for lam, _mult, c in terms:
        mi = c * lam
        if mi.denominator != 1 or mi <= 0:
            raise Reject("NonIntegerMultiplicity",
                         f"pole at eigenvalue {lam} has multiplicity {mi}")
        poles.append((lam, int(mi)))
    if m == 0 and poly[0] != 0:
        raise Reject("ConstantTermMismatch",
                     f"constant term {poly[0]} without a nilpotent block")
    return ClassificationData(poly[0], m, tuple(poles))


# ---------------------------------------------------------------------------
# witnesses


def truncated_poly_algebra(m: int, counit) -> FrobeniusAlgebra:
    """Q[x]/x^m with basis 1, x, ..., x^(m-1) and the given counit values."""
    terms = tuple(tuple(((i + j, 1),) if i + j < m else () for j in range(m))
                  for i in range(m))
    return FrobeniusAlgebra(terms, 1, [int(k == 0) for k in range(m)], counit)


def product_algebra(*factors: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Direct product of the factors, with block-diagonal structure: each
    factor's terms move to its block, over the lcm of the factors' scales."""
    n, scale = sum(f.dim for f in factors), lcm(*(f.scale for f in factors))
    terms, offset = [[()] * n for _ in range(n)], 0
    for f in factors:
        r = scale // f.scale
        for i, plane in enumerate(f._terms):
            terms[offset + i][offset:offset + f.dim] = [
                tuple((offset + k, r * c) for k, c in row) for row in plane]
        offset += f.dim
    return FrobeniusAlgebra(tuple(map(tuple, terms)), scale,
                            sum((f.unit for f in factors), ()),
                            sum((f.counit for f in factors), ()))


# Largest witness algebra (its report prints all dim^3 structure constants)
# and largest confluent system (N values of R, and exponents up to N^2 in
# det T): a job file of a few bytes could otherwise ask for any amount of
# memory and time.
WITNESS_MAX_DIM = 32


def witness_synthesis(cd: ClassificationData) -> FrobeniusAlgebra:
    """An algebra whose generating function classifies back to cd.

    Take Q[x]/x^m with eps(1) = mu, eps(x^(m-1)) = 1 (contributing
    mu + m T) when m >= 2, and m_i one-dimensional factors with
    eps(1) = 1/lam_i for each pole; a dimension above WITNESS_MAX_DIM is
    rejected up front.  The round trip compares the surface values a_g
    (`_surface_values`), g = 0 .. 2 dim + 2, with cd's series: c_0 = mu +
    sum m_i/lam_i, c_1 = m + sum m_i, c_g = sum m_i lam_i^(g-1).  That is
    exact.  a_g = eps(R^g 1), R the right multiplication by h, so by
    Cayley-Hamilton on R the a_g have a generating function P/Q with
    deg Q <= dim, deg P < dim.  cd's is over a denominator of degree k,
    the number of poles, with a numerator of degree <= k + 1.  The
    numerator of their difference, of degree <= dim + k + 1 < 2 dim + 3
    as k <= dim, is then divisible by T^(2 dim + 3), so it is 0.
    """
    dim = cd.m + sum(mult for _, mult in cd.poles)
    if dim > WITNESS_MAX_DIM:
        raise ValueError(f"witness dimension {dim} exceeds {WITNESS_MAX_DIM}")
    counit = [cd.mu] + [0] * (cd.m - 2) + [1]
    parts = [truncated_poly_algebra(cd.m, counit)] if cd.m >= 2 else []
    parts += [truncated_poly_algebra(1, [1 / lam])
              for lam, mult in cd.poles for _ in range(mult)]
    if not parts:
        raise ValueError("empty classification has no witness algebra")
    out = product_algebra(*parts)
    terms = [mult / lam for lam, mult in cd.poles]  # m_i lam_i^(g-1) at g = 0
    for g, (a, b) in enumerate(_surface_values(out, 2 * dim + 3)):
        c = sum(terms, (cd.mu, cd.m)[g] if g < 2 else 0)
        if a * c.denominator != c.numerator * b:
            raise InternalInconsistency("witness fails to classify back")
        terms = [x * lam for x, (lam, _) in zip(terms, cd.poles)]
    return out


# ---------------------------------------------------------------------------
# (p, h, iota) systems


class PIHSystem(NamedTuple):
    p: tuple
    h: Matrix
    iota: tuple


class FirstViolation(NamedTuple):
    n: int
    which: str  # "phi" or "trace"


class PIHReport(NamedTuple):
    dim: int
    ok: bool
    first_violation: FirstViolation | None


def pih_check(pih: PIHSystem, alpha_seq) -> PIHReport:
    """Verify p h^n iota = alpha_n and tr(h^n) = alpha_{n+1}, n <= 2 dim + 1."""
    h = pih.h
    if h.rows != h.cols:
        raise DimensionMismatch("h must be square")
    dim = h.rows
    if len(pih.p) != dim or len(pih.iota) != dim:
        raise DimensionMismatch("p and iota must have length dim")
    need = 2 * dim + 3
    if len(alpha_seq) < need:
        raise SequenceTooShort(f"need alpha_0..alpha_{need - 1}")
    (p, s), (iota, t) = _cleared(pih.p), _cleared(pih.iota)
    power = Matrix.identity(dim)
    for n in range(2 * dim + 2):
        h_iota = (sum(map(operator.mul, r, iota)) for r in power.ints)
        phi = Fraction(sum(map(operator.mul, p, h_iota)), s * t * power.den)
        if phi != alpha_seq[n]:
            return PIHReport(dim, False, FirstViolation(n, "phi"))
        if power.trace() != alpha_seq[n + 1]:
            return PIHReport(dim, False, FirstViolation(n, "trace"))
        power = power * h
    return PIHReport(dim, True, None)


# ---------------------------------------------------------------------------
# confluent Vandermonde systems


class ConfluentSystem(NamedTuple):
    blocks: tuple  # ((lam_i, n_i, mult_i), ...)
    r: tuple
    gamma: tuple
    verdict: str | None  # "consistent" / "inconsistent" when alpha1 given
    det: Fraction  # det T
    unit: int  # det T over its closed-form magnitude


def _confluent_magnitude(blocks) -> Fraction:
    """prod lam_i^(2 N_i) * prod_{i<j} (lam_i - lam_j)^(N_i N_j)."""
    magnitude = Fraction(1)
    for lam, n, _mult in blocks:
        magnitude *= lam ** (2 * n)
    for i, (lam_i, n_i, _mult) in enumerate(blocks):
        for lam_j, n_j, _mult in blocks[i + 1:]:
            magnitude *= (lam_i - lam_j) ** (n_i * n_j)
    return magnitude


def pih_solve(blocks, alpha1=None) -> ConfluentSystem:
    """Recover the expansion coefficients of alpha_n = sum M_i lam_i^n.

    blocks are (lam_i, N_i, M_i) with distinct nonzero lam_i.  The system
    T Gamma = R has rows n = 1..N (N = sum N_i), R_n = alpha_n, and
    columns T[n][(i, j)] = f_n^(j)(lam_i)/j!, j < N_i, f_n = x^2 x^(n-1).
    Every field is read in closed form, with no matrix.  Column (i, 0) is
    lam_i^(n+1), so Gamma is M_i/lam_i and then zeros, block by block.  By
    Leibniz's rule T = V B: V is the confluent Vandermonde of x^(n-1), with
    det V = prod_{i<j} (lam_j - lam_i)^(N_i N_j) (Kalman 1984), and B is
    block diagonal, block i upper-triangular with diagonal lam_i^2.  So
    det T = s * `_confluent_magnitude`, with the unit s = (-1)^(sum_{i<j}
    N_i N_j), and det T = 0, a SingularT, exactly when an eigenvalue
    repeats.  When alpha1 is supplied it is compared against sum M_i:
    equality or an excess >= 2 (a nilpotent block) is consistent, an
    excess of exactly 1 is not.
    """
    blocks = tuple((Fraction(lam), n, Fraction(mult)) for lam, n, mult in blocks)
    alpha1 = None if alpha1 is None else Fraction(alpha1)
    if any(lam == 0 for lam, _n, _m in blocks):
        raise ValueError("eigenvalues must be nonzero")
    if any(n < 1 for _lam, n, _m in blocks):
        raise ValueError("block sizes must be positive")
    total = sum(n for _lam, n, _mult in blocks)
    if total > WITNESS_MAX_DIM:
        raise ValueError(f"block size sum {total} exceeds {WITNESS_MAX_DIM}")
    r = tuple(
        sum((mult * lam ** n for lam, _size, mult in blocks), Fraction(0))
        for n in range(1, total + 1))
    magnitude = _confluent_magnitude(blocks)
    if magnitude == 0:
        raise SingularT("confluent system is singular; eigenvalues repeat?")
    # sum_{i<j} N_i N_j = (N^2 - sum N_i^2) / 2
    unit = (-1) ** ((total ** 2 - sum(n * n for _lam, n, _m in blocks)) // 2)
    gamma = []
    for lam, size, mult in blocks:
        gamma.append(mult / lam)
        gamma.extend([Fraction(0)] * (size - 1))
    verdict = None
    if alpha1 is not None:
        semisimple_dim = sum((mult for _lam, _size, mult in blocks),
                             Fraction(0))
        excess = alpha1 - semisimple_dim
        verdict = ("consistent"
                   if excess == 0 or (excess.denominator == 1 and excess >= 2)
                   else "inconsistent")
    return ConfluentSystem(blocks, r, tuple(gamma), verdict, unit * magnitude,
                           unit)


# ---------------------------------------------------------------------------
# dotted strands


# Most closures a `cob2-pseudo` scan may evaluate: (cap + 1) C(cap + d, d)
# interval tuples and one circle tuple.  The sequence needs only (d + 1) cap
# + 2 values, so without it 114 ones at d = 6, cap 16 took 8.7 s.  The
# slowest job measured at the bound (d = 6, cap 7, the surface values of
# eigenvalues 5/3, -7/2, 9/4, -2/3, 3/5, 4/7) takes 0.9 s in one CLI
# process on a 2-vCPU Xeon.  Like COB2_MAX_SPANNING, it counts closures,
# not the size of the values, which sets the cost of each; `--max-degree`
# bounds the strands per closure.
COB2_PSEUDO_MAX_CLOSURES = 25_000


class Cob2PseudoReport(NamedTuple):
    d: int
    cap_dots: int
    ok: bool
    witness: tuple | None  # (family, dot tuple)


def _dotted_strands(seq) -> _TraceRecursion:
    """Antisymmetrized closures of dotted strands.

    A strand is its dot count, strands multiply by adding dots, and a
    cycle of strands closes into a circle carrying their dots, valued
    alpha_{dots+1}.  An open strand with h dots closes into an interval
    valued alpha_h = alpha_{(h-1)+1} and gains dots like any strand, so it
    is the strand h - 1: h = 0 is the strand -1, traced as alpha_0.
    """
    return _TraceRecursion(lambda k: seq[k + 1], operator.add, unit=0)


def cob2_pseudochar_check(alpha_seq, d: int, cap_dots=None) -> Cob2PseudoReport:
    """Degree-d vanishing for a surface-value sequence.

    Antisymmetrize d+1 dotted strands and close up; each permutation cycle
    becomes a circle carrying the cycle's dots.  In the interval family
    one strand is left open, so its cycle closes into a dotted interval
    instead.  Both families must vanish identically when alpha comes from
    an algebra of dimension <= d; dot counts run up to cap_dots per
    strand (default d + 1).  The closures are evaluated by the trace
    recursion (`_dotted_strands`), where an open strand with h dots is the
    strand with h - 1.  So each circle tuple with an entry k < cap has
    the value of an interval tuple (k + 1, rest) scanned before it, and
    only the all-cap circle tuple is left to decide.  A scan of more than
    COB2_PSEUDO_MAX_CLOSURES closures is a ValueError before it starts.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    cap = d + 1 if cap_dots is None else cap_dots
    if cap < 0:
        raise ValueError(f"cap_dots must be nonnegative, got {cap}")
    seq = _fractions(alpha_seq)
    need = (d + 1) * cap + 2
    if len(seq) < need:
        raise SequenceTooShort(f"need alpha_0..alpha_{need - 1}")
    if (cap + 1) * comb(cap + d, d) + 1 > COB2_PSEUDO_MAX_CLOSURES:
        raise ValueError(f"d = {d} at cap_dots {cap} has more than "
                         f"{COB2_PSEUDO_MAX_CLOSURES} closures")
    strands = _dotted_strands(seq)
    dots = tuple(range(cap + 1))  # a range would be copied once per head
    dot_ids = [strands.intern(k) for k in dots]

    for head in dots:
        opened = strands.intern(head - 1)
        for rest in combinations_with_replacement(dots, d):
            if strands.antisym([opened] + [dot_ids[k] for k in rest]) != 0:
                return Cob2PseudoReport(d, cap, False,
                                        ("interval", (head,) + rest))
    if strands.antisym([dot_ids[cap]] * (d + 1)) != 0:
        return Cob2PseudoReport(d, cap, False, ("circle", (cap,) * (d + 1)))
    return Cob2PseudoReport(d, cap, True, None)
