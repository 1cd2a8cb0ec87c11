"""Exact linear and polynomial algebra over the rationals.

Every rational a caller gets back is a fractions.Fraction; no floats enter.
Polynomials are stored lowest-degree-first, rational functions are kept
normalized with denominator constant term 1.  The exact work runs on
Python ints, on vectors cleared of denominators by their lcm: a matrix or
automaton product makes each entry from one int inner product of a
cleared row and column and one division by their two scales.  Every
elimination (rank, determinant, solving, a basis of vectors met one
at a time and coordinates on it) runs one fraction-free kernel
(Bareiss 1968) that takes cleared rows one at a time and skips the steps
whose multiplier is zero, as a row meeting a pivot column at 0 would only
be rescaled; solutions are read off its pivot rows by one integer
back-substitution, exact by Cramer's rule.  Every polynomial division,
the gcds and the Sturm chains that isolate rational roots among them, runs
one integer pseudo-division on cleared coefficients.  Shape checks at the
entry points raise ValueError, so they hold under `python -O` too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError, InternalInconsistency


class NonSplitDenominator(DomainError):
    """Denominator does not factor into linear factors over Q."""


# Largest decimal exponent of a scalar string: Fraction("1e10000000") builds
# a 33-million-bit integer from 10 bytes.  Python refuses integer strings of
# more than 4,300 digits, so int() of a longer exponent is a ValueError too.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'a/b' strings to Fraction.  A string
    whose decimal exponent exceeds MAX_DECIMAL_EXPONENT in magnitude is a
    ValueError, raised before any number is built."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if exponent and int(exponent[1]) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {x!r} exceeds "
                             f"{MAX_DECIMAL_EXPONENT} in magnitude")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def exact_int(x) -> int:
    """int(x) for an integer field of job input, without truncation: a
    non-integral or infinite number is a ValueError."""
    try:
        n = int(x)
    except OverflowError:
        raise ValueError(f"not an integer: {x!r}") from None
    if n != x and not isinstance(x, str):
        raise ValueError(f"not an integer: {x!r}")
    return n


def _integral(x: Fraction) -> Fraction | int:
    """An integral value as an int, any other unchanged.  Private: it runs
    once per entry, interned trace or trace-recursion leaf (`pseudochar`),
    too small a step to be a traced span."""
    return x.numerator if x.denominator == 1 else x


def rat_str(x: Fraction) -> str:
    """Canonical 'a/b' form, '/1' omitted.  str(Fraction) already does this."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest-first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] + other[k] for k in range(n)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = rat(c)
        return Polynomial([c * a for a in self.coeffs])

    def __divmod__(self, other: "Polynomial"):
        """With self = f/s and other = g/t cleared, m·f = q·g + r gives
        the quotient t·q/(m·s) and the remainder r/(m·s)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        (f, s), (g, t) = _cleared(self.coeffs), _cleared(other.coeffs)
        q, r, m = _pseudo_divmod(f, g)
        return (Polynomial([Fraction(c * t, m * s) for c in q]),
                Polynomial([Fraction(c, m * s) for c in r]))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __call__(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The monic gcd, by the primitive pseudo-remainder sequence on ints.
    Each remainder is a rational multiple of Euclid's over Q, so the last
    nonzero one is the gcd up to a rational factor."""
    f, g = (_primitive(_cleared(p.coeffs)[0]) for p in (a, b))
    while g:
        f, g = g, _primitive(_pseudo_divmod(f, g)[1])
    return Polynomial([Fraction(c, f[-1]) for c in f])


def format_poly(p: Polynomial, var: str = "T") -> str:
    """Render '7 + 3T - T^2' style, ascending powers, exact coefficients."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(rat_str(c))
            continue
        pw = var if k == 1 else f"{var}^{k}"
        mag = abs(c)
        body = pw if mag == 1 else f"{rat_str(mag)}{pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


class RationalFunction:
    """Quotient of polynomials, reduced, denominator normalized to den(0) = 1.

    The normalization means every RationalFunction has a power-series
    expansion at 0; construction fails if T divides the denominator after
    reduction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ValueError("zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        c0 = den[0]
        if c0 == 0:
            raise DomainError("rational function has a pole at 0")
        self.num = num.scale(1 / c0)
        self.den = den.scale(1 / c0)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def taylor(self, n: int) -> list[Fraction]:
        """First n power-series coefficients at 0."""
        out: list[Fraction] = []
        d = self.den.coeffs
        for k in range(n):
            a = self.num[k]
            for j in range(1, min(k, len(d) - 1) + 1):
                a -= d[j] * out[k - j]
            out.append(a)
        return out

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den.degree <= 0:
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = tuple(tuple(rat(x) for x in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix([[c * x for x in r] for r in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return Matrix(_products(self.entries, zip(*other.entries)))

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.entries))) if self.entries else Matrix([])

    def trace(self) -> Fraction:
        _require_square(self)
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def __pow__(self, n: int) -> "Matrix":
        _require_square(self)
        if n < 0:
            raise ValueError("negative matrix power")
        out = Matrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.entries]!r})"


def _cleared(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """The ints s·v and their scale s, the lcm of v's denominators."""
    s = lcm(*[x.denominator for x in v])
    if s == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (s // x.denominator) for x in v], s


def _products(rows: Iterable[Sequence[Fraction]],
              cols: Iterable[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Every inner product of a row with a column.  Each vector is cleared
    once, so each product is one sum over ints and one division by the
    two scales."""
    cleared = [_cleared(c) for c in cols]
    out = []
    for r in rows:
        a, s = _cleared(r)
        row = []
        for b, t in cleared:
            n, d = sum(map(mul, a, b)), s * t
            row.append(Fraction(n) if d == 1 else Fraction(n, d))
        out.append(row)
    return out


def _require_square(m: Matrix) -> None:
    if m.rows != m.cols:
        raise ValueError("matrix is not square")


class _Echelon:
    """Fraction-free elimination (Bareiss 1968) of rational rows met one at
    a time.  `add` clears a row to ints and takes it through each pivot
    row y's step in order, x -> (p·x - f·y)/q for p the pivot, f the row's
    entry in p's column and q the pivot before (1 for the first).  After k
    steps each entry is a (k+1)-minor of the cleared rows (Sylvester's
    identity), so every division is exact and the k pivot columns hold 0.
    A step with f = 0 only scales the row by p/q, and consecutive scalings
    telescope, so such steps are skipped and q stays the pivot of the last
    step applied: the next step's result is again the true Bareiss row.
    A row that vanishes depends on the rows before it; any other is scaled
    once by the last pivot over that q and becomes a pivot row, its pivot
    at its first nonzero column.  The pivot columns are the leading
    columns of the reduced echelon form, whatever the order of the rows."""

    def __init__(self, rows: Iterable[Sequence[Fraction]] = ()):
        self.pivots = []  # (column, pivot, row ints) per pivot row
        self.scale = 1  # the product of the reduced rows' scales
        for r in rows:
            self.add(r)

    def reduce(self, v) -> tuple[list[int], list[tuple[int, int]], int, int]:
        """v cleared and reduced, short of the scalings of skipped steps;
        per pivot column the entry v met there and the q it was met at;
        v's scale; and the pivot of the last step applied (1 for none)."""
        x, s = _cleared(v)
        met, q = [], 1
        for c, p, y in self.pivots:
            f = x[c]
            met.append((f, q))
            if f:
                x = [(p * a - f * b) // q for a, b in zip(x, y)]
                q = p
        return x, met, s, q

    def add(self, v) -> bool:
        """Whether v is independent of the rows added before it."""
        if len(self.pivots) == len(v):  # every column holds a pivot
            return False
        x, _, s, q = self.reduce(v)
        self.scale *= s
        c = next((c for c, a in enumerate(x) if a), None)
        if c is None:
            return False
        last = self.pivots[-1][1] if self.pivots else 1
        if last != q:  # the skipped steps' scaling, exact as above
            x = [last * a // q for a in x]
        self.pivots.append((c, x[c], x))
        return True

    def coordinates(self, v) -> list[Fraction]:
        """v's coordinates on the pivot rows scaled to 1 at their pivots.
        After i steps v's true Bareiss ints are s·p_i times v less its
        first i terms (s its scale, p_i the i-th pivot, p_0 = 1), and the
        reduced ints are those over p_i/q for q the pivot of the last step
        applied, so an entry f met at pivot i + 1 is coordinate i + 1
        times s·q."""
        x, met, s, _ = self.reduce(v)
        if any(x):
            raise InternalInconsistency("vector escaped the span")
        return [Fraction(f, q * s) for f, q in met]


def _back_substitute(pivots: list, n: int) -> list[Fraction]:
    """The x in Q^n, 0 off the pivot columns, with U x = U[:, n] for U
    the pivot rows, each 0 at the pivot columns before its own.  Their
    cleared rows have determinant d, the last pivot, at the pivot columns,
    so d·x is integral (Cramer's rule) and each division is exact."""
    d = pivots[-1][1] if pivots else 1
    xs = [0] * n  # d·x
    for c, p, y in reversed(pivots):
        xs[c] = (d * y[n] - sum(map(mul, y, xs))) // p
    return [Fraction(x, d) for x in xs]


def _augmented(m: Matrix, b: Sequence) -> list[tuple]:
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    return [r + (rat(y),) for r, y in zip(m.entries, b)]


def rank(m: Matrix) -> int:
    return len(_Echelon(m.entries).pivots)


def solve(m: Matrix, b: Sequence) -> tuple | None:
    """One exact solution of m x = b (free variables set to 0), or None."""
    pivots = _Echelon(_augmented(m, b)).pivots
    if any(c == m.cols for c, _, _ in pivots):  # pivot in b: inconsistent
        return None
    return tuple(_back_substitute(pivots, m.cols))


def solve_unique(m: Matrix, b: Sequence) -> tuple:
    """Solution of a square system required to be uniquely solvable."""
    _require_square(m)
    pivots = _Echelon(_augmented(m, b)).pivots
    if sorted(c for c, _, _ in pivots) != list(range(m.cols)):  # full rank
        raise DomainError("linear system is not uniquely solvable")
    return tuple(_back_substitute(pivots, m.cols))


def det(m: Matrix) -> Fraction:
    """The sign of the pivot-column order times the last pivot, over the
    product of the row scales."""
    _require_square(m)
    e = _Echelon(m.entries)
    if len(e.pivots) < m.rows:
        return Fraction(0)
    cols = [c for c, _, _ in e.pivots]
    swaps = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return Fraction((-1) ** swaps * (e.pivots[-1][1] if e.pivots else 1),
                    e.scale)


def _charpoly(m: Matrix) -> list[Fraction]:
    """c_1..c_n with det(t I - m) = t^n + c_1 t^(n-1) + ... + c_n.

    Similarity-reduces m to upper Hessenberg form, then expands the
    determinant by the Hessenberg recurrence (Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 2.2.9); O(n^3).
    """
    n = m.rows
    h = [list(r) for r in m.entries]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        t = h[j + 1][j]
        for i in range(j + 2, n):
            u = h[i][j] / t
            if u == 0:
                continue
            h[i] = [x - u * y for x, y in zip(h[i], h[j + 1])]
            for row in h:
                row[j + 1] += u * row[i]
    # p[k] = charpoly of the leading k x k block, lowest degree first
    p = [[Fraction(1)]]
    for k in range(n):
        nxt = [Fraction(0)] + p[k]
        for d, c in enumerate(p[k]):
            nxt[d] -= h[k][k] * c
        sub = Fraction(1)
        for i in range(1, k + 1):
            sub *= h[k - i + 1][k - i]
            f = h[k - i][k] * sub
            if f != 0:
                for d, c in enumerate(p[k - i]):
                    nxt[d] -= f * c
        p.append(nxt)
    return p[n][-2::-1]


def trace_series(m: Matrix) -> RationalFunction:
    """sum_k tr(m^k) T^k as a rational function, without forming any power.

    With Q(T) = det(I - T m) = prod_i (1 - lam_i T), the series is
    sum_i 1 / (1 - lam_i T) = (n Q - T Q') / Q.  Q is the characteristic
    polynomial read backwards, so the cost is O(n^3).
    """
    _require_square(m)
    n = m.rows
    q = [Fraction(1), *_charpoly(m)]
    return RationalFunction(Polynomial([(n - k) * c for k, c in enumerate(q)]),
                            Polynomial(q))


# ---------------------------------------------------------------------------
# partial fractions


def partial_fractions(rf: RationalFunction):
    """Split rf as polynomial + sum of c/(1 - lam*T)^k terms.

    Returns (poly_part, terms) with terms a list of (lam, mult, coeffs),
    coeffs[k-1] multiplying 1/(1 - lam*T)^k, sorted by (lam.numerator,
    lam.denominator).  Raises NonSplitDenominator when the denominator has
    an irreducible factor of degree > 1 over Q.
    """
    poly_part, rem = divmod(rf.num, rf.den)
    den = rf.den
    # factor den = prod (1 - lam*T)^mult; den(0) = 1, so no root is 0
    factors: list[tuple[Fraction, int]] = []
    work = den
    for root in _rational_roots(den):
        lam = 1 / root
        lin = Polynomial([1, -lam])
        mult = 0
        while True:
            q, r = divmod(work, lin)
            if not r.is_zero():
                break
            work, mult = q, mult + 1
        factors.append((lam, mult))
    if work.degree > 0:
        raise NonSplitDenominator(
            "denominator has a non-linear irreducible factor"
        )
    factors.sort(key=lambda t: (t[0].numerator, t[0].denominator))

    if rem.is_zero():
        return poly_part, [(lam, mult, [Fraction(0)] * mult) for lam, mult in factors]

    # solve rem = sum c_{i,k} * den / (1 - lam_i T)^k  exactly
    columns: list[Polynomial] = []
    slots: list[tuple[int, int]] = []
    for i, (lam, mult) in enumerate(factors):
        lin = Polynomial([1, -lam])
        reduced = den
        for k in range(1, mult + 1):
            reduced = reduced // lin
            columns.append(reduced)
            slots.append((i, k))
    n = den.degree
    m = Matrix([[col[r] for col in columns] for r in range(n)])
    x = solve_unique(m, [rem[r] for r in range(n)])
    out = []
    for i, (lam, mult) in enumerate(factors):
        coeffs = [Fraction(0)] * mult
        for (ii, k), val in zip(slots, x):
            if ii == i:
                coeffs[k - 1] = val
        out.append((lam, mult, coeffs))
    return poly_part, out


def _rational_roots(p: Polynomial) -> list[Fraction]:
    """Every distinct rational root of p, exactly.

    p is scaled to a primitive integer polynomial P with lead N.  Its
    rational roots are the y/N for the integer roots y of the monic integer
    h(y) = N^(n-1) P(y/N) (rational root theorem), which is replaced by
    h / gcd(h, h') when p has a repeated root.  The integer roots of h are
    isolated by bisecting integer intervals (lo, hi], counting the roots
    in each by a Sturm sequence, and by the sign of h once only one is
    left.  Roots are counted in half-open intervals, so one on a bisection
    point is counted once.  All arithmetic is on ints and the depth is the
    bit length of the root bound, so the cost is polynomial in the bit
    length of p's coefficients.
    """
    if p.degree < 1:
        return []
    ints = _primitive(_cleared(p.coeffs)[0])
    lead, n = ints[-1], len(ints) - 1
    h = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    chain = _sturm_chain(h)
    if len(chain[-1]) > 1:  # repeated roots: keep h's square-free part
        # a primitive factor of monic h has a ±1 lead: the quotient is exact
        h = _pseudo_divmod(h, chain[-1])[0]
        chain = _sturm_chain(h)
    # all roots of h lie in (-bound, bound) (Fujiwara 1916)
    m = len(h) - 1
    bound = 2 << max((-(-abs(c).bit_length() // (m - k))
                      for k, c in enumerate(h[:-1])), default=0)
    roots = []
    todo = [(-bound, bound, _sign_changes(chain, -bound),
             _sign_changes(chain, bound))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo - v_hi > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _sign_changes(chain, mid)
            todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
        elif v_lo > v_hi:
            y = _integer_root(h, lo, hi)
            if y is not None:
                roots.append(Fraction(y, lead))
    return roots


def _primitive(f: list[int]) -> list[int]:
    g = gcd(*f)
    return [c // g for c in f]


def _horner(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _sturm_chain(h: list[int]) -> list[list[int]]:
    """h, h', then each -(c * remainder) with c > 0 made primitive, down to
    a positive multiple of ±gcd(h, h'); positive scalings keep the signs,
    so sign changes count roots as in Sturm's theorem."""
    chain = [h, _primitive([k * c for k, c in enumerate(h)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _pseudo_divmod(f: list[int],
                   g: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m·f = q·g + r and deg r < deg g, for integer
    polynomials with no trailing zeros, g nonzero.  A step whose leading
    coefficient lead(g) does not divide first scales the remainder and
    the quotient by |lead(g)|, so every quotient term is an int and m is
    a positive power of |lead(g)|: r is a positive multiple of f mod g
    (the sign Sturm chains need), and m = 1 when lead(g) = ±1."""
    r, q, m = list(f), [0] * max(0, len(f) - len(g) + 1), 1
    lead = g[-1]
    while len(r) >= len(g):
        if r[-1] % lead:
            a = abs(lead)
            r, q, m = [a * x for x in r], [a * x for x in q], m * a
        c, k = r[-1] // lead, len(r) - len(g)
        q[k] = c
        for j, d in enumerate(g):
            r[k + j] -= c * d
        while r and r[-1] == 0:
            r.pop()
    return q, r, m


def _sign_changes(chain: list[list[int]], x: int) -> int:
    changes, last = 0, 0
    for f in chain:
        v = _horner(f, x)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def _integer_root(h: list[int], lo: int, hi: int) -> int | None:
    """The integer root of square-free h in (lo, hi], or None, where
    (lo, hi] has width 1 or holds exactly one real root of h.  In the
    second case h has the sign of h(hi) right of the root and the other
    sign left of it, so the sign of h bisects."""
    s = _horner(h, hi)
    if s == 0:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = _horner(h, mid)
        if v == 0:
            return mid
        if (v > 0) == (s > 0):
            hi = mid
        else:
            lo = mid
    return None
