"""Exact arithmetic the oracles use, written apart from the code under test.

Nothing here imports `loopcat`: a report is checked against values this
module computes on its own, so a defect in a shared kernel cannot hide
itself.  Matrices are lists of lists of Fractions (or ints); polynomials
are coefficient lists, lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction

# A prime for rank checks on integer Gram matrices.  Rank mod p never
# exceeds rank over Q and equals it unless p divides every maximal
# nonzero minor, which a 61-bit prime makes negligible here.
PRIME = (1 << 61) - 1


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def mat_pow(a, k):
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


# 2x2 integer matrices as ((a, b), (c, d)), for the oracles' inner loops
ID2 = ((1, 0), (0, 1))


def mul2(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(b)
    return out


def _eliminate(rows):
    """Forward elimination over Q in place; returns (rank, det sign*pivots)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    prod = Fraction(1)
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            prod = -prod
        p = rows[rank][c]
        prod *= p
        for i in range(rank + 1, n_rows):
            f = rows[i][c] / p
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, prod


def rank_q(rows) -> int:
    return _eliminate(rows)[0] if rows else 0


def det_q(rows) -> Fraction:
    rank, prod = _eliminate(rows)
    return prod if rank == len(rows) else Fraction(0)


def solve_square(a, b):
    """Unique solution of a x = b by Gauss-Jordan; a must be invertible."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n] for row in aug]


def inverse_q(a):
    n = len(a)
    cols = [solve_square(a, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def rank_mod_p(rows, p: int = PRIME) -> int:
    """Rank of a rational matrix reduced mod p (denominators must be prime to p)."""
    m = [[(Fraction(x).numerator * pow(Fraction(x).denominator, -1, p)) % p
          for x in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [(x * inv) % p for x in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, n_rows):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        rank += 1
        if rank == n_rows:
            break
    return rank


# ---------------------------------------------------------------------------
# polynomials: coefficient lists, lowest degree first


def poly_trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_scale(a, c):
    return poly_trim([c * x for x in a])


def poly_at_matrix(p, m):
    n = len(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return acc


def charpoly_from_power_traces(power_traces, d):
    """Monic degree-d characteristic polynomial from p_k = tr(M^k), k = 1..d.

    Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i, and
    det(tI - M) = sum_k (-1)^k e_k t^(d-k).
    """
    e = [Fraction(1)]
    for k in range(1, d + 1):
        s = sum(((-1) ** (i - 1) * e[k - i] * power_traces[i - 1]
                 for i in range(1, k + 1)), Fraction(0))
        e.append(s / k)
    return [Fraction((-1) ** (d - j)) * e[d - j] for j in range(d + 1)]


def format_poly(coeffs, var: str) -> str:
    """'7 + 3T - T^2': ascending powers, unit coefficients dropped, exact values."""
    parts = []
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        power = var if k == 1 else f"{var}^{k}"
        body = power if abs(c) == 1 else f"{abs(c)}{power}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + body)
        else:
            parts.append(body if c > 0 else "-" + body)
    return " ".join(parts) if parts else "0"


def format_ratfun(num, den) -> str:
    if len(den) <= 1:
        return format_poly(num, "T")
    return f"({format_poly(num, 'T')}) / ({format_poly(den, 'T')})"


def least_rotation(word: tuple) -> tuple:
    if not word:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def strs(values):
    return [str(Fraction(v)) for v in values]
