"""Exact linear and polynomial algebra over the rationals.

The algebra takes ints and Fractions and gives back Fractions, never a
float; job text is read in `cli` alone.  The exact work runs on Python
ints: a Matrix holds int rows and a Polynomial int coefficients, lowest
degree first, each over one denominator in lowest terms, and rational
vectors are cleared by the lcm of theirs.  Rational functions are kept
normalized with denominator constant term 1, and their power series come
from a division-free int recurrence.  A product makes each entry from one
int inner product.  Linear systems, a basis of vectors met one at a time
and coordinates on it run one fraction-free kernel (Bareiss 1968) on int
rows met one at a time, skipping the steps whose multiplier is zero.
`solve` eliminates a system once and reads its solution and rank off the
pivot rows, the solution by one integer back-substitution, exact by
Cramer's rule; `det` reads a determinant off the pivots of its own
elimination.  A rank starts on that kernel too, and from the first
dependent row tests each row against a fraction-free Gauss-Jordan basis
packed one 64-bit word per entry into one int, by one linear combination of
ints, until an entry could outgrow its word and the kernel takes the rest.
Characteristic polynomials come from Berkowitz's division-free recurrence
on the int rows.  Every polynomial division, the gcds among them, runs one
integer pseudo-division on the ints; rational roots are lifted from the
roots mod one prime and checked exactly; a polynomial's value at a/b is
one int Horner pass.  Shape checks at the entry points raise ValueError,
so they hold under `python -O` too.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain, count, zip_longest
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError, InternalInconsistency


class NonSplitDenominator(DomainError):
    """Denominator does not factor into linear factors over Q."""


def _fractions(values) -> tuple:
    """Numbers held as Fractions: a Fraction is kept, not built again."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def _integral(x: Fraction) -> Fraction | int:
    """An integral value as an int, any other unchanged, so that products
    of integral values stay ints and a Gram of them reaches `Matrix` as
    ints.  Private: it runs once per memoized strand value or
    per-element loop value (`statespaces`), word-table value read from a
    job (`cli`) and interned trace (`pseudochar`), too small a step to be
    a traced span."""
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Univariate polynomial over Q: Polynomial(cs, den) is the sum of
    (cs[k]/den) T^k, for ints and Fractions cs and an int den != 0.  It is
    held as int coefficients `ints`, no trailing zeros, over one positive
    `den`, in lowest terms as a Matrix is, so equal polynomials hold equal
    ints.  Arithmetic reads the ints; `coeffs` and `p[k]` give Fractions."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable = (), den: int = 1):
        ints, s = _cleared(list(coeffs))
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(s * den, *ints) if den != 1 else 1  # s alone is lowest
        g = -g if den < 0 else g
        self.ints, self.den = tuple(x // g for x in ints), s * den // g

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.ints[k] if 0 <= k < len(self.ints) else 0, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __add__(self, other: "Polynomial") -> "Polynomial":
        s, t = other.den, self.den
        return Polynomial([s * a + t * b for a, b in zip_longest(
            self.ints, other.ints, fillvalue=0)], s * t)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (len(self.ints) + len(other.ints) - 1)
        for i, a in enumerate(self.ints):
            for j, b in enumerate(other.ints):
                out[i + j] += a * b
        return Polynomial(out, self.den * other.den)

    def scale(self, c) -> "Polynomial":
        return Polynomial([c.numerator * a for a in self.ints],
                          c.denominator * self.den)

    def __divmod__(self, other: "Polynomial"):
        """With self = f/s and other = g/t, m·f = q·g + r gives the
        quotient t·q/(m·s) and the remainder r/(m·s)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r, m = _pseudo_divmod(self.ints, other.ints)
        return (Polynomial([c * other.den for c in q], m * self.den),
                Polynomial(r, m * self.den))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __call__(self, x) -> Fraction:
        """p(x), x = a/b: b^n·den·p(a/b) (`_homogeneous`) over b^n·den."""
        a, b = x.numerator, x.denominator
        return Fraction(_homogeneous(self.ints, a, b),
                        self.den * b ** max(self.degree, 0))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The monic gcd (`_gcd_ints` of the ints)."""
    f = _gcd_ints(a.ints, b.ints)
    return Polynomial(f, f[-1] if f else 1)


def _gcd_ints(f: list[int], g: list[int]) -> list[int]:
    """A primitive gcd of int polynomials by the primitive pseudo-remainder
    sequence: each remainder is a rational multiple of Euclid's over Q."""
    f, g = _primitive(f), _primitive(g)
    while g:
        f, g = g, _primitive(_pseudo_divmod(f, g)[1])
    return f


def format_poly(p: Polynomial, var: str = "T") -> str:
    """Render '7 + 3T - T^2' style, ascending powers, exact coefficients."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        pw = var if k == 1 else f"{var}^{k}"
        mag = abs(c)
        body = pw if mag == 1 else f"{mag}{pw}"
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

    def taylor(self, n: int) -> list[Fraction]:
        """First n power-series coefficients at 0, by a division-free int
        recurrence: with num = a/s and den = b/e (b_0 = e, as den(0) = 1),
        c_k = y_k/(s·e^k) for y_k = a_k·e^k - sum_j b_j·e^(j-1)·y_(k-j)."""
        a, s, b, e = self.num.ints, self.num.den, self.den.ints, self.den.den
        w = [c * e ** j for j, c in enumerate(b[1:])]  # b_j·e^(j-1), j >= 1
        ys = []
        for k in range(n):
            ys.append((a[k] * e ** k if k < len(a) else 0)
                      - sum(map(mul, w, reversed(ys))))
        return [Fraction(y, s * e ** k) for k, y in enumerate(ys)]

    def __str__(self) -> str:
        if self.den.degree <= 0:
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over Q of int and Fraction entries, held as
    int rows `ints` over `den`, the lcm of their denominators, so equal
    matrices hold equal ints; all-int entries are held as they are, over 1,
    on one type check.  Kernels read the ints; `entries`, `row` and `trace`
    give Fractions."""

    __slots__ = ("rows", "cols", "ints", "den")

    def __init__(self, entries: Sequence[Sequence]):
        types = set(map(type, chain.from_iterable(entries)))
        if types <= {int}:
            ints, den = tuple(map(tuple, entries)), 1  # held as they are
        else:
            den = lcm(*{x.denominator for r in entries for x in r})
            ints = tuple(tuple(x.numerator * (den // x.denominator)
                               for x in r) for r in entries)
        self.rows, self.cols = len(ints), len(ints[0]) if ints else 0
        if any(len(r) != self.cols for r in ints):
            raise ValueError("ragged matrix")
        self.ints, self.den = ints, den

    @classmethod
    def from_ints(cls, ints: Sequence[Sequence[int]], den: int = 1) -> "Matrix":
        """ints / den in lowest terms, for int rows of one length, den > 0."""
        g = gcd(den, *(x for r in ints for x in r)) if den != 1 else 1
        m = cls.__new__(cls)
        m.ints, m.den = tuple(tuple(x // g for x in r) for r in ints), den // g
        m.rows, m.cols = len(m.ints), len(m.ints[0]) if m.ints else 0
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_ints([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def entries(self) -> tuple:
        return tuple(map(self.row, range(self.rows)))

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.ints[i])

    def __eq__(self, other) -> bool:
        if isinstance(other, Matrix):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __hash__(self):
        return hash((self.ints, self.den))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        s, t = other.den, self.den
        return Matrix.from_ints([[s * a + t * b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.ints, other.ints)], s * t)

    def scale(self, c) -> "Matrix":
        return Matrix.from_ints([[c.numerator * x for x in r] for r in self.ints],
                                c.denominator * self.den)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.ints))
        return Matrix.from_ints([[sum(map(mul, r, c)) for c in cols]
                                 for r in self.ints], self.den * other.den)

    def transpose(self) -> "Matrix":
        return Matrix.from_ints(list(zip(*self.ints)), self.den)

    def trace(self) -> Fraction:
        _require_square(self)
        return Fraction(sum(r[i] for i, r in enumerate(self.ints)), self.den)

    def __pow__(self, n: int) -> "Matrix":
        _require_square(self)
        if n < 0:
            raise ValueError("negative matrix power")
        out, base = Matrix.identity(self.rows), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _cleared(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """The ints s·v and their scale s, the lcm of v's denominators."""
    s = lcm(*[x.denominator for x in v])
    if s == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (s // x.denominator) for x in v], s


def _require_square(m: Matrix) -> None:
    if m.rows != m.cols:
        raise ValueError("matrix is not square")


class _Echelon:
    """Fraction-free elimination (Bareiss 1968) of int rows met one at a
    time.  Each row goes through each pivot row y's step in order,
    x -> (p·x - f·y)/q for p the pivot, f the row's entry in p's column and
    q the pivot before (1 for the first).  After k steps each entry is a
    (k+1)-minor of the rows (Sylvester's identity), so every division is
    exact and the k pivot columns hold 0.  A step with f = 0 only scales
    the row by p/q, and consecutive scalings telescope, so such steps are
    skipped and q stays the pivot of the last step applied: the next
    step's result is again the true Bareiss row.  A row that vanishes
    depends on the rows before it; any other is scaled once by the last
    pivot over that q and becomes a pivot row, its pivot at its first
    nonzero column.  The pivot columns are the leading columns of the
    reduced echelon form, whatever the order of the rows.  The
    constructor, `add_ints` and `coordinates` take int rows, and `add`
    rational ones, cleared first; a row added is divided by its content, a
    factor that only grows the minors."""

    def __init__(self, rows: Iterable[Sequence[int]] = ()):
        self.pivots = []  # (column, pivot, row ints) per pivot row
        self.content = 1  # the product of the rows' contents
        for x in rows:
            self.add_ints(x)

    def reduce(self, x: Sequence[int]) -> tuple[list[int], list, int]:
        """The int row x reduced, short of the scalings of skipped steps;
        per pivot column the entry x met there and the q it was met at;
        and the pivot of the last step applied (1 for none)."""
        met, q = [], 1
        for c, p, y in self.pivots:
            f = x[c]
            met.append((f, q))
            if f:
                x = [(p * a - f * b) // q for a, b in zip(x, y)]
                q = p
        return x, met, q

    def add(self, v) -> bool:
        """Whether v is independent of the vectors added before it."""
        return self.add_ints(_cleared(v)[0])

    def add_ints(self, x: Sequence[int]) -> bool:
        g = gcd(*x)
        if len(self.pivots) == len(x) or not g:  # all pivots, or a zero row
            return False
        self.content *= g
        x, _, q = self.reduce([a // g for a in x] if g != 1 else x)
        c = next((c for c, a in enumerate(x) if a), None)
        if c is None:
            return False
        last = self.pivots[-1][1] if self.pivots else 1
        if last != q:  # the skipped steps' scaling, exact as above
            x = [last * a // q for a in x]
        self.pivots.append((c, x[c], x))
        return True

    def coordinates(self, x: Sequence[int], s: int) -> list[Fraction]:
        """The coordinates of v = x/s, for an int row x and a nonzero s, on
        the pivot rows scaled to 1 at their pivots.  After i steps v's true
        Bareiss ints are s·p_i times v less its first i terms (p_i the i-th
        pivot, p_0 = 1), and the reduced ints are those over p_i/q for q
        the pivot of the last step applied, so an entry f met at pivot
        i + 1 is coordinate i + 1 times s·q."""
        x, met, _ = self.reduce(x)
        if any(x):
            raise InternalInconsistency("vector escaped the span")
        return [Fraction(f, q * s) for f, q in met]


_WORD = 1 << 62  # every entry a packed span reads stays below this
_SLOT = (1 << 64) - 1


class _PackedSpan:
    """The span of int rows of n entries met one at a time, each row held
    as one int, one 64-bit word per entry: x packs to X = sum_j x_j·2^(64j)
    (Kronecker substitution).  The basis is d times the reduced row echelon
    form (Gauss-Jordan, fraction-free: Bareiss 1968; Nakos, Turner and
    Williams 1997): packed rows K_k with pivot columns C_k and
    K_k[C_l] = d·[k = l], where d is ± the determinant of the basis rows'
    pivot minor (d = 1 for none).  A row x leaves the residual
    D = d·X - sum_k x[C_k]·K_k, which is 0 at every C_l.  Each entry
    D_j is ± the minor of the basis rows and x on the columns C and j
    (cofactor expansion), so D = 0 exactly when x lies in the span.
    Otherwise its lowest nonzero column c joins the pivots, with δ = D[c]:
    each K_k becomes (δ·K_k - K_k[c]·D) / d, which is 0 at c and δ·[k = l]
    at C_l, and whose entries are minors of the new basis (Sylvester), so
    the division is exact; D is appended and d becomes δ.

    Every entry packed is below 2^62 < 2^63 in magnitude, so a packed int
    has exactly one set of balanced base-2^64 digits: D == 0 means every
    entry is 0, the lowest set bit of D lies in its lowest nonzero word,
    and adding 2^63 to every word (`bias`) leaves each word's entry
    biased by 2^63 and unborrowed, which `_slot` reads.  A row packs
    through `array("q")`, whose words are its entries in two's complement
    (swapped to little-endian on a big-endian host): flipping each word's
    top bit (xor `bias`) gives x_j + 2^63, and subtracting `bias` gives
    X.  `add` bounds every entry before it packs a row or keeps a basis,
    with b_k >= |K_k[j]|: |D_j| <= b_D = |d|·max|x| + sum_k |x[C_k]|·b_k,
    a bound on max|x| too as |d| >= 1, and
    |K'_k[j]| <= (|δ|·b_k + |K_k[c]|·b_D) / |d|.

    These bounds compound their slack pivot by pivot.  So before a bound
    stops the span, each b_k, and b_D before a pivot, is replaced by the
    largest entry it bounds (`_largest`), once per pivot, and the span
    stops only if the bound still reaches 2^62.  The entries measured are
    below 2^62 by the bounds they replace, so each read is exact, as
    above, and a measured maximum is the least bound there is."""

    def __init__(self, n: int):
        self.n = n
        self.bias = int.from_bytes((bytes(7) + b"\x80") * n, "little")
        self.d, self.cols, self.packed, self.bounds = 1, [], [], []
        self.measured = True  # whether each b_k is K_k's largest entry
        self.rows = []  # the rows kept, as given

    def _slot(self, y: int, c: int) -> int:
        return ((y + self.bias) >> 64 * c & _SLOT) - (1 << 63)

    def _largest(self, y: int) -> int:
        """The largest magnitude of the packed y's entries, each below 2^63:
        adding and then flipping `bias` leaves each word's entry in two's
        complement, which `array("q")` reads."""
        a = array("q", ((y + self.bias) ^ self.bias).to_bytes(8 * self.n,
                                                               "little"))
        if sys.byteorder == "big":
            a.byteswap()
        return max(map(abs, a))

    def _measure(self) -> bool:
        """Replace each b_k by K_k's largest entry, unless they are that
        already: whether any bound was replaced."""
        if self.measured:
            return False
        self.bounds = list(map(self._largest, self.packed))
        self.measured = True
        return True

    def _pivot_bounds(self, delta: int, g: list, b_d: int) -> list[int]:
        """The bounds b'_k after a pivot delta of a residual bounded by
        b_d, for the basis rows' entries g in its column."""
        d = abs(self.d)
        return [(abs(delta) * b + abs(h) * b_d) // d
                for b, h in zip(self.bounds, g)]

    def add(self, x: Sequence[int]) -> bool | None:
        """Whether x is independent of the rows kept before it; None, with
        the basis unchanged, when an entry could reach 2^62."""
        d, packed = self.d, self.packed
        f = list(map(x.__getitem__, self.cols))
        top = abs(d) * max(map(abs, x))
        b_d = top + sum(map(mul, map(abs, f), self.bounds))
        if b_d >= _WORD and self._measure():
            b_d = top + sum(map(mul, map(abs, f), self.bounds))
        if b_d >= _WORD:
            return None
        a = array("q", x)
        if sys.byteorder == "big":
            a.byteswap()
        u = int.from_bytes(a.tobytes(), "little")
        res = d * ((u ^ self.bias) - self.bias) - sum(map(mul, f, packed))
        if not res:
            return False
        c = (res & -res).bit_length() - 1 >> 6
        delta, g = self._slot(res, c), [self._slot(k, c) for k in packed]
        new = self._pivot_bounds(delta, g, b_d)
        if any(b >= _WORD for b in new):
            b_d = self._largest(res)
            self._measure()
            new = self._pivot_bounds(delta, g, b_d)
            if any(b >= _WORD for b in new):
                return None
        self.packed = [(delta * k - h * res) // d
                       for k, h in zip(packed, g)] + [res]
        self.bounds = new + [b_d]
        self.measured = False
        self.d = delta
        self.cols.append(c)
        self.rows.append(x)
        return True


def rank(m: Matrix) -> int:
    """The rank of m's int rows, in up to three phases.  Rows go to
    `_Echelon` until one that is nonzero turns out to depend on those
    before it, so a matrix of independent rows is ranked by `_Echelon`
    alone.  From that row on, a `_PackedSpan` of the rows kept so far tests
    each remaining row by one packed linear combination.  When an entry
    bound still reaches 2^62 once measured, the span stops: the rows it
    kept beyond `_Echelon`'s, then every row it has not tested, go to
    `_Echelon`."""
    e, kept, rows = _Echelon(), [], iter(m.ints)
    for x in rows:
        if e.add_ints(x):
            kept.append(x)
        elif any(x) and len(kept) < m.cols:  # below full column rank
            break
    else:
        return len(kept)
    span = _PackedSpan(m.cols)
    for i, x in enumerate(chain(kept, rows)):
        if span.add(x) is None:
            if i >= len(kept):  # _Echelon lacks the span's own rows and x
                rows = chain(span.rows[len(kept):], [x], rows)
            for y in rows:
                e.add_ints(y)
            return len(e.pivots)
    return len(span.cols)


def solve(m: Matrix, b: Sequence) -> tuple:
    """One elimination of [m | b], read two ways: (x, rank).  The rows are
    m's ints times t and b's cleared ints y = t·b times m's den, so the
    system is unchanged.  x is one exact solution of m x = b, 0 off the
    pivot columns, or None when a pivot lies in b's column.  Its int pivot
    rows U are each 0 at the pivot columns before their own and have
    determinant p, the last pivot, at the pivot columns, so p·x is
    integral (Cramer's rule) and each division of the back-substitution is
    exact.  rank is the number of pivots in m's columns."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    y, t = _cleared(b)
    n, den = m.cols, m.den
    e = _Echelon((*(t * a for a in r), den * z) for r, z in zip(m.ints, y))
    pivots = e.pivots
    rank = sum(c < n for c, _, _ in pivots)
    x = None
    if rank == len(pivots):  # no pivot in b: consistent
        p = pivots[-1][1] if pivots else 1
        xs = [0] * n  # p·x
        for c, q, u in reversed(pivots):
            xs[c] = (p * u[n] - sum(map(mul, u, xs))) // q
        x = tuple(Fraction(v, p) for v in xs)
    return x, rank


def det(m: Matrix) -> Fraction:
    """The determinant, read off the elimination of m's int rows.  It is 0
    below n pivots, and else the sign of the pivot-column order times the
    last pivot and the rows' contents, the determinant of the ints, over
    den^n."""
    _require_square(m)
    n, e = m.rows, _Echelon(m.ints)
    cols = [c for c, _, _ in e.pivots]
    if len(cols) < n:
        return Fraction(0)
    swaps = sum(a > c for i, a in enumerate(cols) for c in cols[i + 1:])
    return Fraction((-1) ** swaps * e.content
                    * (e.pivots[-1][1] if e.pivots else 1), m.den ** n)


def _charpoly(a: Sequence[Sequence[int]]) -> list[int]:
    """[1, c_1, ..., c_n] with det(t I - a) = t^n + c_1 t^(n-1) + ... + c_n,
    for int rows a, by Berkowitz's division-free recurrence (Berkowitz
    1984).  With a_k the leading k x k block, r and s the first k entries
    of row and column k and x = a[k][k], the charpoly of a_(k+1) is the
    convolution of a_k's with (1, -x, -r s, -r a_k s, ..., -r a_k^(k-1) s).
    Step k takes k products of a_k with a vector, O(n^4) in all, and none
    when r or s is 0, as on a block-diagonal matrix."""
    p = [1]
    for k, row in enumerate(a):
        lead, col = row[:k], [r[k] for r in a[:k]]
        c = [1, -row[k]] + [0] * k
        if any(lead) and any(col):
            block = [r[:k] for r in a[:k]]
            for j in range(2, k + 2):
                c[j] = -sum(map(mul, lead, col))
                col = [sum(map(mul, r, col)) for r in block]
        p = [sum(c[i - j] * p[j] for j in range(min(i, k) + 1))
             for i in range(k + 2)]
    return p


def trace_series(m: Matrix) -> tuple[Polynomial, Polynomial]:
    """sum_k tr(m^k) T^k = N/Q as the pair (N, Q), without forming a power.

    With Q(T) = det(I - T m) = prod_i (1 - lam_i T), the series is
    sum_i 1 / (1 - lam_i T) = (n Q - T Q') / Q.  Q is the characteristic
    polynomial read backwards.  For m held as int rows A over den,
    det(t I - A/den) = den^(-n) det(den t I - A), so c_k(m) = c_k(A)/den^k,
    with c_k(A) from `_charpoly`, in O(n^4) int steps and no division.
    Both polynomials are built on those ints over den^n and not reduced.
    """
    _require_square(m)
    n, d = m.rows, m.den
    q = [c * d ** (n - k) for k, c in enumerate(_charpoly(m.ints))]
    return (Polynomial([(n - k) * c for k, c in enumerate(q)], d ** n),
            Polynomial(q, d ** n))


# ---------------------------------------------------------------------------
# partial fractions


def partial_fractions(rf: RationalFunction):
    """Split rf as polynomial + sum of c/(1 - lam*T)^k terms.

    Returns (poly_part, terms) with terms a list of (lam, mult, c), c the
    coefficient of the top power 1/(1 - lam*T)^mult, sorted by (lam.numerator,
    lam.denominator).  With rem = num mod den and w = den/(1 - lam*T)^mult,
    rem/w is c plus a multiple of 1 - lam*T, so c = rem(1/lam)/w(1/lam).
    Raises NonSplitDenominator when the denominator has an irreducible
    factor of degree > 1 over Q.
    """
    poly_part, rem = divmod(rf.num, rf.den)
    # den = prod (1 - lam*T)^mult, den(0) = 1: dividing den by 1 - lam*T to
    # a remainder counts mult and ends on w, which 1 - lam*T does not divide
    terms, split = [], 0  # the degree of the linear factors met
    for root in _rational_roots(rf.den):
        lin, mult, w = Polynomial([1, -1 / root]), 0, rf.den
        while (qr := divmod(w, lin))[1].is_zero():
            w, mult = qr[0], mult + 1
        terms.append((1 / root, mult, rem(root) / w(root)))
        split += mult
    if split < rf.den.degree:
        raise NonSplitDenominator(
            "denominator has a non-linear irreducible factor"
        )
    terms.sort(key=lambda t: (t[0].numerator, t[0].denominator))
    return poly_part, terms


def _rational_roots(p: Polynomial) -> list[Fraction]:
    """Every distinct rational root of p, exactly, lifted from the roots of
    p mod one prime (Loos 1983).  f is the square-free part of p's
    primitive ints, of degree n and lead N.  A root z = a/b in lowest terms
    has b | N, so y = N z is an integer, and |y| <= B = |N| + max |f_k|
    (Cauchy).  q is the least prime not dividing N with f mod q
    square-free.  Newton's step lifts each root r of f mod q to the root
    of f mod M = q^(2^k) > 2B it determines (Hensel), and y/N is kept, for
    y the residue of N r nearest 0, when N^n f(y/N) = 0.  Complete: q does
    not divide b, so z mod q is a simple root of f mod q, its lift is
    z mod M, and N r = y mod M with |y| < M/2 gives y back.  Distinct: the
    lifts of distinct roots mod q are distinct mod q, and N is a unit mod
    q.  Sound: each y/N kept passed the exact test.  Terminating: for q
    not dividing N, f mod q has a repeated factor exactly when q divides
    Res(f, f') = ±N disc(f), nonzero as f is square-free; the primes below
    x multiply to about e^x, so q is at most about its bit length."""
    if p.degree < 1:
        return []
    f = _primitive(p.ints)
    g = _gcd_ints(f, [k * c for k, c in enumerate(f)][1:])
    if len(g) > 1:  # repeated roots: keep the square-free part
        f = _primitive(_pseudo_divmod(f, g)[0])
    df, lead = [k * c for k, c in enumerate(f)][1:], f[-1]
    bound = abs(lead) + max(map(abs, f[:-1]))
    q = next(q for q in count(2) if lead % q
             and all(q % d for d in range(2, isqrt(q) + 1))
             and len(_gcd_mod(f, df, q)) == 1)  # f mod q is square-free
    fq, roots = [c % q for c in f], []
    for r in [r for r in range(q) if not _horner(fq, r, q)]:
        m, s = q, pow(_horner(df, r, q), -1, q)  # s = 1/f'(r) mod m
        while m <= 2 * bound:  # each Newton step doubles the q-adic digits
            m *= m
            r = (r - _horner(f, r, m) * s) % m
            s = s * (2 - _horner(df, r, m) * s) % m
        y = (lead * r + m // 2) % m - m // 2
        if not _homogeneous(f, y, lead):  # N^n f(y/N)
            roots.append(Fraction(y, lead))
    return roots


def _gcd_mod(f: list[int], g: list[int], q: int) -> list[int]:
    """The monic gcd of int polynomials f and g mod a prime q, lowest
    degree first, by Euclid's algorithm; [] when both vanish mod q."""
    f, g = [c % q for c in f], [c % q for c in g]
    while any(g):
        while not g[-1]:
            g.pop()
        inv, n = pow(g[-1], -1, q), len(g) - 1
        while len(f) > n:  # f mod g, a zero lead term only dropped
            c, k = f.pop() * inv % q, len(f) - n
            for j in range(n):
                f[k + j] = (f[k + j] - c * g[j]) % q
        f, g = g, f
    while f and not f[-1]:
        f.pop()
    return [c * pow(f[-1], -1, q) % q for c in f]


def _primitive(f: list[int]) -> list[int]:
    g = gcd(*f)
    return [c // g for c in f]


def _homogeneous(f: Sequence[int], a: int, b: int) -> int:
    """b^n f(a/b) = sum_k f_k a^k b^(n-k), f of degree n, by Horner's rule."""
    acc, t = 0, 1
    for c in reversed(f):
        acc, t = acc * a + c * t, t * b
    return acc


def _horner(f: list[int], x: int, m: int) -> int:
    """f(x) mod m."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _pseudo_divmod(f: list[int],
                   g: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m·f = q·g + r and deg r < deg g, for integer
    polynomials with no trailing zeros, g nonzero.  A step whose leading
    coefficient lead(g) does not divide first scales the remainder and
    the quotient by |lead(g)|, so every quotient term is an int and m is
    a positive power of |lead(g)|: r is a positive multiple of f mod g,
    and m = 1 when lead(g) = ±1."""
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
