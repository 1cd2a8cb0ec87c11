"""Commutative Frobenius algebras and genus generating functions.

A commutative Frobenius algebra over the rationals is presented by
structure constants, a unit vector, and a counit functional whose induced
bilinear form is nondegenerate.  Closed surfaces evaluate through the
handle element h (sum of basis times dual basis): genus g gives eps(h^g).
The sequence of surface values has a rational generating function; this
module computes it, classifies which rational functions arise this way,
synthesizes a witness algebra from classification data, and checks the
related (p, h, iota) systems and confluent Vandermonde solves that appear
when recovering a direct-sum decomposition from the values alone.

An algebra keeps its nonzero structure constants as ints over one common
denominator, and its unit and counit as cleared int vectors.  Every
product runs one int kernel over the nonzero structure constants
(`FrobeniusAlgebra._times`): the axiom checks, multiplication by the
handle and the eps(h^g) cross-check of the generating function stay on
ints, and `multiply` is the kernel's Fraction wrapper.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

from .errors import DomainError, InternalInconsistency
from .linalg import (
    Matrix,
    NonSplitDenominator,
    Polynomial,
    RationalFunction,
    _cleared,
    det,
    exact_int,
    partial_fractions,
    rat,
    rat_str,
    solve,
    solve_unique,
    trace_series,
)
from .pseudochar import _TraceRecursion
from .statespaces import SequenceTooShort


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
    The rational unit and counit are kept with their cleared ints.
    `frobenius_from_json` reads dense cells, and `frobenius_to_json`
    writes them."""

    def __init__(self, terms: tuple, scale: int, unit, counit):
        self._terms, self.scale, self.dim = terms, scale, len(terms)
        self.unit, self.counit = tuple(map(rat, unit)), tuple(map(rat, counit))
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

    def _times(self, a, b) -> list[int]:
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

    def multiply(self, a, b) -> tuple:
        (x, s), (y, t) = _cleared(a), _cleared(b)
        return tuple(Fraction(v, s * t * self.scale) for v in self._times(x, y))

    def eps(self, a) -> Fraction:
        (x, s), (e, t) = _cleared(a), self._counit
        return Fraction(sum(map(operator.mul, x, e)), s * t)

    def gram(self) -> Matrix:
        """eps(e_i e_j), read off the nonzero structure constants."""
        e, t = self._counit
        return Matrix.from_ints([[sum(c * e[k] for k, c in terms) for terms in p]
                                 for p in self._terms], self.scale * t)


def _int_basis(n: int) -> list[list[int]]:
    return [[int(i == k) for i in range(n)] for k in range(n)]


def validate(fa: FrobeniusAlgebra) -> None:
    """Check each axiom, raising the matching error for the first failure.
    Every product runs on the algebra's int structure constants
    (`FrobeniusAlgebra._times`), which share one denominator, so the int
    sides are equal iff the rational ones are.  Given commutativity,
    (ab)c - a(bc) = c(ba) - (cb)a: (i, j, k) fails iff (k, j, i) does,
    and (i, j, i) never fails, so associativity is checked for i < k
    only.  A triple with e_i e_j = e_j e_k = 0 has both sides 0 and is
    skipped.  Nondegeneracy is decided by building the handle element
    (`handle_element`), one solve against the Gram."""
    n, t, mul = fa.dim, fa._terms, fa._times
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
    products = [[mul(a, b) for b in basis] for a in basis]
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                if (t[i][j] or t[j][k]) and (
                        mul(products[i][j], basis[k])
                        != mul(basis[i], products[j][k])):
                    raise NotAssociative(f"(e_{i} e_{j}) e_{k} differs")
    handle_element(fa)


@dataclass(frozen=True)
class HandleData:
    element: tuple
    matrix: Matrix  # multiplication by the element
    cleared: tuple  # (ints, scale) with element = ints / scale, in lowest terms


def handle_element(fa: FrobeniusAlgebra) -> HandleData:
    """h = sum_i e_i u_i, eps(u_i e_j) = delta_ij.  The coefficient of e_i
    in x is eps(u_i x), so tr(a ·) = eps(h a) and G h = t, G the Gram and
    t_j = tr(e_j ·) = sum_i c_jii.  One `solve_unique` finds h, or a
    singular pairing, a NondegeneracyFailure.  Kept on the algebra."""
    if fa._handle is None:
        t = [Fraction(sum(c for i, row in enumerate(plane) for k, c in row
                          if k == i), fa.scale) for plane in fa._terms]
        try:
            element = solve_unique(fa.gram(), t)
        except DomainError:
            raise NondegeneracyFailure(
                "the pairing eps(ab) is singular") from None
        h, s = _cleared(element)
        # row i of multiplication by h is h e_i
        matrix = Matrix.from_ints([fa._times(h, e) for e in _int_basis(fa.dim)],
                                  s * fa.scale)
        fa._handle = HandleData(element, matrix, (h, s))
    return fa._handle


def surface_eval(fa: FrobeniusAlgebra, genus: int) -> Fraction:
    """Value of the closed genus-g surface: eps(h^g).

    For g >= 1 this must equal tr(M_h^(g-1)) (trace of multiplication by a
    is eps(h a)).  That trace is read off the trace series of M_h
    (`trace_series`), the same route as `generating_function`; the two
    routes are compared, and disagreement — possible only for inputs that
    are not honest Frobenius data — is an InternalInconsistency.  The
    handle is the algebra's one `handle_element`.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    hd = handle_element(fa)
    power = fa.unit
    for _ in range(genus):
        power = fa.multiply(power, hd.element)
    value = fa.eps(power)
    if genus >= 1:
        if value != trace_series(hd.matrix).taylor(genus)[genus - 1]:
            raise InternalInconsistency(
                f"eps(h^{genus}) disagrees with tr(M_h^{genus - 1})")
    return value


def generating_function(fa: FrobeniusAlgebra) -> RationalFunction:
    """Rational function with Taylor coefficients eps(h^g), g = 0, 1, ...

    For g >= 1, eps(h^g) = tr(M_h^(g-1)), so with N/Q the trace series of
    M_h (`trace_series`, Q = det(I - T M_h)) the function is
    (eps(1) Q + T N) / Q.  Its coefficients at g = 1 .. 2 dim + 2 are
    compared with eps(h^g) taken by repeated multiplication, and a
    disagreement is an InternalInconsistency.  The powers h^g stay int
    vectors times one rational scale: each step is one product on the
    int kernel, and the content of the ints moves into the scale.
    """
    hd = handle_element(fa)
    series = trace_series(hd.matrix)
    rf = RationalFunction(
        series.den.scale(fa.eps(fa.unit)) + Polynomial([0, 1]) * series.num,
        series.den)
    want = rf.taylor(2 * fa.dim + 3)
    (power, s), (h, t), (e, r) = fa._unit, hd.cleared, fa._counit
    scale = Fraction(1, s * r)  # eps(h^g) = scale * <power, e>
    for g in range(1, len(want)):
        power = fa._times(power, h)
        c = gcd(*power) or 1
        power = [x // c for x in power]
        scale *= Fraction(c, t * fa.scale)
        if scale * sum(map(operator.mul, power, e)) != want[g]:
            raise InternalInconsistency(
                f"eps(h^{g}) disagrees with tr(M_h^{g - 1})")
    return rf


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationData:
    """mu + m T + sum_i m_i lam_i^-1 / (1 - lam_i T), with m = 0 or m >= 2,
    lam_i distinct nonzero rationals, m_i positive integers; mu is free for
    m >= 2 and forced to 0 when m = 0."""

    mu: Fraction
    m: int
    poles: tuple  # ((lam_i, m_i), ...) sorted by lam

    def __post_init__(self):
        object.__setattr__(self, "mu", rat(self.mu))
        object.__setattr__(self, "poles", tuple(
            (rat(lam), exact_int(mult)) for lam, mult in self.poles))
        if self.m == 1:
            raise Reject("M1Forbidden", "no algebra has a 1-dim nilpotent block")
        if self.m < 0:
            raise ValueError("m must be 0 or >= 2")
        if self.m == 0 and self.mu != 0:
            raise ValueError("mu must vanish when m = 0")
        lams = [lam for lam, _ in self.poles]
        if any(lam == 0 for lam in lams) or len(set(lams)) != len(lams):
            raise ValueError("pole locations must be distinct and nonzero")
        if any(mult < 1 for _, mult in self.poles):
            raise ValueError("pole multiplicities must be positive")
        if lams != sorted(lams, key=lambda l: (l.numerator, l.denominator)):
            raise ValueError("poles must be sorted")

    def genfun(self) -> RationalFunction:
        """The sum above over its common denominator prod_i (1 - lam_i T),
        normalized once."""
        den = Polynomial([1])
        for lam, _ in self.poles:
            den = den * Polynomial([1, -lam])
        num = Polynomial([self.mu, self.m]) * den
        for lam, mult in self.poles:
            num = num + (den // Polynomial([1, -lam])).scale(mult / lam)
        return RationalFunction(num, den)


def classify_genfun(rf: RationalFunction) -> ClassificationData:
    """Decide whether rf is the generating function of some algebra.

    Accepts exactly: polynomial part of degree <= 1 with T-coefficient
    m in {0, 2, 3, ...} (vanishing entirely when m = 0), plus simple poles
    whose residue data lam_i, m_i = coeff * lam_i has m_i a positive
    integer.  Rejections carry the name of the first failed condition.
    """
    try:
        poly, terms = partial_fractions(rf)
    except NonSplitDenominator as exc:
        raise Reject("NonSplitDenominator", str(exc)) from exc
    for lam, mult, _coeffs in terms:
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
    for lam, _mult, coeffs in terms:
        mi = coeffs[0] * lam
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
# and largest confluent system (N^3 elimination steps): a job file of a few
# bytes could otherwise ask for any amount of memory and time.
WITNESS_MAX_DIM = 32


def witness_synthesis(cd: ClassificationData) -> FrobeniusAlgebra:
    """An algebra whose generating function classifies back to cd.

    Take Q[x]/x^m with eps(1) = mu, eps(x^(m-1)) = 1 (contributing
    mu + m T) when m >= 2, and m_i one-dimensional factors with
    eps(1) = 1/lam_i for each pole.  Its generating function is checked
    against `cd.genfun()`: partial fractions are unique, so that is the
    round trip.  A dimension above WITNESS_MAX_DIM is rejected up front.
    """
    dim = cd.m + sum(mult for _, mult in cd.poles)
    if dim > WITNESS_MAX_DIM:
        raise ValueError(f"witness dimension {dim} exceeds {WITNESS_MAX_DIM}")
    parts = []
    if cd.m >= 2:
        counit = [Fraction(0)] * cd.m
        counit[0] = cd.mu
        counit[cd.m - 1] = Fraction(1)
        parts.append(truncated_poly_algebra(cd.m, counit))
    for lam, mult in cd.poles:
        for _ in range(mult):
            parts.append(truncated_poly_algebra(1, [1 / lam]))
    if not parts:
        raise ValueError("empty classification has no witness algebra")
    out = product_algebra(*parts)
    if generating_function(out) != cd.genfun():
        raise InternalInconsistency("witness fails to classify back")
    return out


# ---------------------------------------------------------------------------
# (p, h, iota) systems


@dataclass(frozen=True)
class PIHSystem:
    p: tuple
    h: Matrix
    iota: tuple


@dataclass(frozen=True)
class FirstViolation:
    n: int
    which: str  # "phi" or "trace"


@dataclass(frozen=True)
class PIHReport:
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
    seq = [rat(x) for x in alpha_seq]
    need = 2 * dim + 3
    if len(seq) < need:
        raise SequenceTooShort(f"need alpha_0..alpha_{need - 1}")
    (p, s), (iota, t) = (_cleared([rat(x) for x in v])
                         for v in (pih.p, pih.iota))
    power = Matrix.identity(dim)
    for n in range(2 * dim + 2):
        h_iota = (sum(map(operator.mul, r, iota)) for r in power.ints)
        phi = Fraction(sum(map(operator.mul, p, h_iota)), s * t * power.den)
        if phi != seq[n]:
            return PIHReport(dim, False, FirstViolation(n, "phi"))
        if power.trace() != seq[n + 1]:
            return PIHReport(dim, False, FirstViolation(n, "trace"))
        power = power * h
    return PIHReport(dim, True, None)


# ---------------------------------------------------------------------------
# confluent Vandermonde solves


@dataclass(frozen=True)
class ConfluentSystem:
    blocks: tuple  # ((lam_i, n_i, mult_i), ...)
    t: Matrix
    r: tuple
    gamma: tuple
    verdict: str | None  # "consistent" / "inconsistent" when alpha1 given
    det: Fraction  # det T
    unit: Fraction  # det T over its closed-form magnitude


def _confluent_matrix(blocks) -> Matrix:
    """Columns: j-th scaled derivative in lam of (lam^2, ..., lam^(N+1))."""
    total = sum(n for _lam, n, _mult in blocks)
    if total > WITNESS_MAX_DIM:
        raise ValueError(f"block size sum {total} exceeds {WITNESS_MAX_DIM}")
    rows = []
    for n in range(1, total + 1):
        row = []
        for lam, size, _mult in blocks:
            for j in range(size):
                row.append(comb(n + 1, j) * lam ** (n + 1 - j))
        rows.append(row)
    return Matrix(rows)


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

    blocks are (lam_i, N_i, M_i) with distinct nonzero lam_i; the system
    T Gamma = R uses rows n = 1..N (N = sum N_i) and derivative columns,
    so the exact solution is gamma_{i,0} = M_i / lam_i with every
    higher-derivative coefficient zero — checked after solving.  det T
    and its unit, det T over `_confluent_magnitude`, ride along; the unit
    is a sign depending only on the block sizes.  When
    alpha1 is supplied it is compared against sum M_i: equality or an
    excess >= 2 (a nilpotent block) is consistent, an excess of exactly 1
    is not.
    """
    blocks = tuple((rat(lam), exact_int(n), rat(mult))
                   for lam, n, mult in blocks)
    if any(lam == 0 for lam, _n, _m in blocks):
        raise ValueError("eigenvalues must be nonzero")
    if any(n < 1 for _lam, n, _m in blocks):
        raise ValueError("block sizes must be positive")
    t = _confluent_matrix(blocks)
    total = t.rows
    r = tuple(
        sum((mult * lam ** n for lam, _size, mult in blocks), Fraction(0))
        for n in range(1, total + 1))
    d = det(t)
    if d == 0:
        raise SingularT("confluent system is singular; eigenvalues repeat?")
    gamma = solve(t, r)
    expected = []
    for lam, size, mult in blocks:
        expected.append(mult / lam)
        expected.extend([Fraction(0)] * (size - 1))
    if list(gamma) != expected:
        raise InternalInconsistency("solved coefficients break the pattern")
    verdict = None
    if alpha1 is not None:
        semisimple_dim = sum((mult for _lam, _size, mult in blocks),
                             Fraction(0))
        excess = rat(alpha1) - semisimple_dim
        verdict = ("consistent"
                   if excess == 0 or (excess.denominator == 1 and excess >= 2)
                   else "inconsistent")
    return ConfluentSystem(blocks, t, r, tuple(gamma), verdict, d,
                           d / _confluent_magnitude(blocks))


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


@dataclass(frozen=True)
class Cob2PseudoReport:
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
    cap = d + 1 if cap_dots is None else exact_int(cap_dots)
    if cap < 0:
        raise ValueError(f"cap_dots must be nonnegative, got {cap}")
    seq = [rat(x) for x in alpha_seq]
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


# ---------------------------------------------------------------------------
# JSON


def frobenius_to_json(fa: FrobeniusAlgebra) -> dict:
    def row(terms):
        cells = ["0"] * fa.dim
        for k, c in terms:
            cells[k] = rat_str(Fraction(c, fa.scale))
        return cells
    return {"frobenius": {
        "dim": fa.dim,
        "structure": [list(map(row, plane)) for plane in fa._terms],
        "unit": [rat_str(x) for x in fa.unit],
        "counit": [rat_str(x) for x in fa.counit],
    }}


def frobenius_from_json(doc: dict) -> FrobeniusAlgebra:
    """The algebra of a job's dense cells.  All four keys are read, then
    all values parsed, before any shape is checked."""
    body = doc["frobenius"]
    dim, structure, unit, counit = (body["dim"], body["structure"],
                                    body["unit"], body["counit"])
    n = exact_int(dim)
    if n <= 0:
        raise ValueError("dimension must be positive")
    parsed = {}  # a job's dim^3 string cells hold a few distinct values
    dens = set()  # the denominators of the cells
    def cell(x):
        if isinstance(x, str) and x in parsed:
            return parsed[x]
        c = rat(x)
        dens.add(c.denominator)
        if isinstance(x, str):
            parsed[x] = c
        return c
    cells = tuple(tuple(tuple(map(cell, row)) for row in plane)
                  for plane in structure)
    unit, counit = tuple(map(rat, unit)), tuple(map(rat, counit))
    if len(cells) != n or any(len(p) != n or any(len(r) != n for r in p)
                              for p in cells):
        raise ValueError("structure constants must be dim^3")
    scale = lcm(*dens)
    terms = tuple(tuple(tuple((k, c.numerator * (scale // c.denominator))
                              for k, c in enumerate(row) if c) for row in plane)
                  for plane in cells)
    return FrobeniusAlgebra(terms, scale, unit, counit)


def genfun_to_json(rf: RationalFunction) -> dict:
    return {"genfun": {"num": [rat_str(c) for c in rf.num.coeffs],
                       "den": [rat_str(c) for c in rf.den.coeffs]}}


def genfun_from_json(doc: dict) -> RationalFunction:
    body = doc["genfun"]
    return RationalFunction(Polynomial([rat(c) for c in body["num"]]),
                            Polynomial([rat(c) for c in body["den"]]))


def classification_to_json(cd: ClassificationData) -> dict:
    return {"classification": {
        "mu": rat_str(cd.mu),
        "m": cd.m,
        "poles": [[rat_str(lam), mult] for lam, mult in cd.poles],
    }}


def classification_from_json(doc: dict) -> ClassificationData:
    body = doc["classification"]
    return ClassificationData(
        rat(body["mu"]), exact_int(body["m"]),
        tuple((rat(lam), exact_int(mult)) for lam, mult in body["poles"]))
