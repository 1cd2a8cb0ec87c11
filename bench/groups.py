"""Small monoids and their representations, built without the code under test.

Tables follow the CLI's convention: table[a][b] is "a then b", and a
representation satisfies rho(a then b) = rho(a) rho(b).  Element 0 is
always the identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import exact


class Monoid:
    def __init__(self, name, table, irreps):
        self.name = name
        self.table = table
        self.size = len(table)
        self.irreps = irreps  # name -> list of matrices, one per element

    def relabel(self, rng) -> "Monoid":
        """The same monoid with its non-identity elements renamed at random."""
        rest = list(range(1, self.size))
        rng.shuffle(rest)
        new = [0] + rest  # new[old] = new name
        table = [[0] * self.size for _ in range(self.size)]
        for a in range(self.size):
            for b in range(self.size):
                table[new[a]][new[b]] = new[self.table[a][b]]
        irreps = {}
        for name, mats in self.irreps.items():
            out = [None] * self.size
            for old, m in enumerate(mats):
                out[new[old]] = m
            irreps[name] = out
        return Monoid(self.name, table, irreps)

    def doc(self) -> dict:
        return {"monoid": {"table": self.table, "identity": 0, "size": self.size}}

    def rep(self, mults: dict):
        """Block-diagonal matrices of the sum of irreducibles with multiplicities."""
        return [exact.block_diag([self.irreps[name][g]
                                  for name, k in sorted(mults.items())
                                  for _ in range(k)])
                for g in range(self.size)]

    def character(self, mults: dict):
        return [sum((k * exact.mat_trace(self.irreps[name][g])
                     for name, k in mults.items()), Fraction(0))
                for g in range(self.size)]

    def classes(self):
        """Finest partition closed under gh ~ hg, as lists in first-seen order."""
        parent = list(range(self.size))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for g in range(self.size):
            for h in range(self.size):
                a, b = find(self.table[g][h]), find(self.table[h][g])
                if a != b:
                    parent[max(a, b)] = min(a, b)
        out = {}
        for g in range(self.size):
            out.setdefault(find(g), []).append(g)
        return [sorted(c) for _, c in sorted(out.items())]

    def pseudochar(self, values, rng=None):
        """Class-function document; with rng, the classes come in shuffled
        order, which the CLI accepts and which varies the job file."""
        classes = self.classes()
        if rng is not None:
            rng.shuffle(classes)
        return {"classes": classes, "values": [str(values[c[0]]) for c in classes]}


def _companion(coeffs):
    """Companion matrix (row convention) of the monic x^n + c_(n-1) x^(n-1) + ..."""
    n = len(coeffs)
    m = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = 1
    m[n - 1] = [-c for c in coeffs]
    return [[Fraction(x) for x in row] for row in m]


def cyclic(n: int) -> Monoid:
    """C_n with rational irreducibles: trivial, sign (n even), and the
    companion block of the cyclotomic factor of x^n - 1 of largest degree."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    cyclotomic = {3: [1, 1], 4: [1, 0], 5: [1, 1, 1, 1]}[n]
    gen = _companion(cyclotomic)
    irreps = {"triv": [[[Fraction(1)]] for _ in range(n)],
              "rot": [exact.mat_pow(gen, k) for k in range(n)]}
    if n % 2 == 0:
        irreps["sign"] = [[[Fraction((-1) ** k)]] for k in range(n)]
    return Monoid(f"C{n}", table, irreps)


def symmetric3() -> Monoid:
    """S3 in lexicographic one-line order; the standard irreducible acts on
    the sum-zero row vectors with basis (1,-1,0), (0,1,-1)."""
    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(b[a[i]] for i in range(3))] for b in elems]
             for a in elems]
    basis = [[1, -1, 0], [0, 1, -1]]
    std, sign = [], []
    for p in elems:
        # row-vector action: e_i -> e_p(i); coordinates in `basis`
        rows = []
        for v in basis:
            w = [0, 0, 0]
            for i in range(3):
                w[p[i]] += v[i]
            # w = a (1,-1,0) + b (0,1,-1): a = w0, b = -w2
            rows.append([Fraction(w[0]), Fraction(-w[2])])
        std.append(rows)
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        sign.append([[Fraction((-1) ** inversions)]])
    irreps = {"triv": [[[Fraction(1)]] for _ in elems], "sign": sign, "std": std}
    return Monoid("S3", table, irreps)


def truncated(n: int) -> Monoid:
    """{1, a, ..., a^n} with a^i a^j = a^min(i+j, n); a acts as 0 or as 1."""
    table = [[min(a + b, n) for b in range(n + 1)] for a in range(n + 1)]
    irreps = {"one": [[[Fraction(1)]] for _ in range(n + 1)],
              "zero": [[[Fraction(int(k == 0))]] for k in range(n + 1)]}
    return Monoid(f"T{n}", table, irreps)

