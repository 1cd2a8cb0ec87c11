"""Pseudocharacters on finite monoids and their antisymmetrized traces.

A pseudocharacter is a class function that behaves like the trace of a
(possibly unknown) representation: the signed sum of cycle-products over
every permutation of d+1 arguments vanishes identically, with d minimal.
This module detects that degree, extracts the characteristic polynomial an
element satisfies relative to the class function, lifts class functions
against a supplied character table, extends the vanishing test to direct
sums of objects, and evaluates the holonomy pseudocharacter of an
edge-labeled graph.

Antisymmetrized traces are never expanded as the (d+1)!-term permutation
sum.  `_TraceRecursion` evaluates them by the classical trace recursion
(Procesi's trace identities; Chenevier's determinant laws), memoized on
multisets; class functions, matrix units of a direct sum and dotted
strands (`frobenius.cob2_pseudochar_check`) all go through it, as do
the boundary-cut strands of the test suite's boundary trace.  The
recursion is exact only for a trace-like function, tr(gh) = tr(hg), so
`PseudoCharacter` rejects class values that are not.  A strand labelled
by the unit is expanded in one term, T(1, S) = (tr 1 - |S|)·T(S), for
the monoid identity and the strand without dots; at the level d = tr 1
every tuple holding the unit is 0 at once, and every other key takes
the one recursion step.  Integral traces run through it as ints, and
results typed `Fraction` are converted on the way out.
The degree searches decide each level on a basis of the elements
(`_vanishing_level`).  The holonomy of a graph evaluates no
antisymmetrized trace: for dim×dim walk matrices the fundamental trace
identity and the unit rule fix its degree report in closed form
(`graph_pseudoholonomy`).  The permutation sum and the full element
search live on in the test suite, which holds the recursion against the
sum, both against the closed diagrams the tests build, the basis
search against the full one, and the holonomy report against a full
search over the walk matrices.

Its records are named tuples, as `fincat.Loop` is: immutable, and equal
to the plain tuple of their fields, which no report compares them with.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from typing import NamedTuple

from .errors import DomainError
from .fincat import (FiniteMonoid, class_values, conjugacy_classes,
                     least_rotation)
from .linalg import (Matrix, Polynomial, _Echelon, _fractions, _integral,
                     det, solve)


class NotPseudo(DomainError):
    """The class function has no admissible degree."""


class DegreeMismatch(DomainError):
    """alpha_charpoly called with a d other than degree(alpha)."""


class SingularTable(DomainError):
    """Supplied character table is linearly dependent."""


class Infeasible(DomainError):
    """No nonnegative-integer combination; carries the rational one."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class NonInvertibleEdge(DomainError):
    """A graph edge carries a singular matrix."""


# ---------------------------------------------------------------------------
# class functions


class PseudoCharacter:
    """Rational class function on a finite monoid, stored per class.

    The classes must partition the elements, and the values must be
    trace-like, alpha(gh) = alpha(hg) for every pair, which the
    antisymmetrized-trace recursion relies on; class values on a partition
    finer than `conjugacy_classes` are checked pair by pair.
    """

    def __init__(self, monoid: FiniteMonoid, class_values, classes=None):
        self.monoid = monoid
        self.classes = tuple(tuple(c) for c in
                             (classes if classes is not None
                              else conjugacy_classes(monoid)))
        self.values = _fractions(class_values)
        if len(self.values) != len(self.classes):
            raise ValueError("one value per conjugacy class required")
        self._class_of = {e: ci for ci, cls in enumerate(self.classes)
                          for e in cls}
        if not all(self.classes) or \
                len(self._class_of) != sum(map(len, self.classes)):
            raise ValueError("classes must be disjoint and non-empty")
        if set(self._class_of) != set(range(monoid.size)):
            raise ValueError("classes do not cover the monoid")
        values, class_of = self.values, self._class_of
        for g in range(monoid.size):
            for h in range(g + 1, monoid.size):
                a, b = class_of[monoid.mul(g, h)], class_of[monoid.mul(h, g)]
                if a != b and values[a] != values[b]:
                    raise ValueError(
                        f"values are not trace-like: alpha({g}*{h}) != "
                        f"alpha({h}*{g})")
        # a closure over the tables, not the instance: no reference cycle
        self._antisym = _TraceRecursion(lambda e: values[class_of[e]],
                                        monoid.mul, unit=monoid.identity)

    @classmethod
    def from_element_values(cls, monoid: FiniteMonoid, values):
        classes, per_class = class_values(monoid, values)
        return cls(monoid, per_class, classes)

    def __call__(self, element: int) -> Fraction:
        return self.values[self._class_of[element]]


class RepData:
    """Matrix representation of a finite monoid, one matrix per element.

    Multiplication is checked in reading order: r(a then b) = r(a)·r(b),
    the convention that makes row-indexed permutation matrices work.
    """

    def __init__(self, monoid: FiniteMonoid, matrices):
        self.monoid = monoid
        self.matrices = tuple(matrices)
        if len(self.matrices) != monoid.size:
            raise ValueError("one matrix per element required")
        dim = self.matrices[0].rows
        for m in self.matrices:
            if m.rows != dim or m.cols != dim:
                raise ValueError("matrices must be square of equal size")
        self.dimension = dim
        if self.matrices[monoid.identity] != Matrix.identity(dim):
            raise ValueError("identity element must map to the identity matrix")
        for a in range(monoid.size):
            for b in range(monoid.size):
                if self.matrices[monoid.mul(a, b)] != \
                        self.matrices[a] * self.matrices[b]:
                    raise ValueError(f"not multiplicative at ({a}, {b})")


def char_of_rep(r: RepData) -> PseudoCharacter:
    return PseudoCharacter.from_element_values(
        r.monoid, [m.trace() for m in r.matrices])


# ---------------------------------------------------------------------------
# antisymmetrized traces


class _TraceRecursion:
    """Antisymmetrized traces of a trace-like (trace, mul) pair.

    T(x0, ..., xn) = sum over each permutation sigma of the n+1 slots of
    sign(sigma) times the product, over the cycles of sigma, of the trace
    of the slot entries multiplied along the cycle.  Splitting on where
    sigma sends slot 0 (to itself, or to a slot j whose entry then merges
    with x0 into x0·xj, one cycle shorter and one sign flip) gives

        T(x0, S) = tr(x0)·T(S) - sum_{xj in S} T(S - {xj} + {x0·xj}),

    with T() = 1.  Rotating a cycle product changes nothing as long as
    tr(gh) = tr(hg), so T is symmetric and is memoized on sorted tuples
    of interned element ids; equal entries of S give equal terms and are
    merged once, times their count.  A product is interned when it enters
    a key, a one-entry key too, and its trace is read then, once.

    Given the `unit` of mul (a two-sided identity whose trace exists;
    None for none), a key holding it is expanded in one term,

        T(1, S) = (tr(1) - |S|)·T(S),

    exactly: a sigma that fixes the unit's slot contributes tr(1)·T(S),
    and each of the |S| others puts the unit into one cycle of a sigma
    of S's slots, where it leaves the cycle's product unchanged and flips
    the sign.  When tr(1) = |S| the key is stored as 0 and T(S) is not
    visited.  The unit is recognised when it is interned, so the engine
    reads no trace a caller did not ask for.

    Values enter the memo as the traces of interned elements, integral
    ones as ints (`_integral`), under the int root T() = 1, so integral
    traces keep the whole recursion on ints.  Callers that
    promise a `Fraction` convert the result.
    """

    def __init__(self, trace, mul, unit=None):
        self._trace = trace
        self._mul = mul
        self._unit = unit
        self._unit_id = None
        self._ids = {}
        self._elements = []
        self._traces = []
        self._products = {}
        self._memo = {(): 1}

    def intern(self, x) -> int:
        i = self._ids.get(x)
        if i is None:
            i = self._ids[x] = len(self._elements)
            if self._unit is not None and x == self._unit:
                self._unit_id = i
            self._elements.append(x)
            self._traces.append(_integral(self._trace(x)))
            self._memo[(i,)] = self._traces[i]
        return i

    def antisym(self, ids) -> Fraction | int:
        """T of interned ids, in any order."""
        return self._value(tuple(sorted(ids)))

    def _value(self, key: tuple) -> Fraction | int:
        # Depth first with an explicit stack: a key of a thousand entries
        # would exhaust the interpreter's recursion limit.  A key waiting
        # for its subkeys keeps its expansion in `pending`.  Keys of length
        # 0 and 1 are in the memo from the start.
        memo, unit = self._memo, self._unit_id
        pending = {}
        stack = [key]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            terms = pending.pop(top, None)
            if terms is None and unit in top:
                p = top.index(unit)
                rest = top[:p] + top[p + 1:]
                c = self._traces[unit] - len(rest)
                if not c:
                    memo[top] = 0
                    stack.pop()
                    continue
                terms = [(c, rest)]
            elif terms is None:
                x0, rest = top[0], top[1:]
                terms = [(-rest.count(x), tuple(sorted(
                            rest[:p] + rest[p + 1:] + (self._product(x0, x),))))
                         for p, x in enumerate(rest)
                         if not p or x != rest[p - 1]]
                if self._traces[x0]:
                    terms.append((self._traces[x0], rest))
            missing = [k for _, k in terms if k not in memo]
            if missing:
                pending[top] = terms
                stack.extend(missing)
                continue
            memo[top] = sum(c * memo[k] for c, k in terms)
            stack.pop()
        return memo[key]

    def _product(self, a: int, b: int) -> int:
        ab = self._products.get((a, b))
        if ab is None:
            ab = self._products[(a, b)] = self.intern(
                self._mul(self._elements[a], self._elements[b]))
        return ab


def antisym_trace(alpha: PseudoCharacter, g) -> Fraction:
    """Signed sum over every permutation of products of cycle values.

    Each permutation contributes its sign times the product, over its
    cycles, of alpha evaluated on the product of the tuple entries read
    along the cycle.  Equals the closed-diagram evaluation of the tuple
    composed with the antisymmetrizer.  Evaluated by the trace recursion
    of `_TraceRecursion`, whose memo lives on alpha, so the result is
    symmetric in the entries of g.
    """
    engine = alpha._antisym
    return Fraction(engine.antisym([engine.intern(x) for x in g]))


def _vanishing_level(engine: _TraceRecursion, ids: list, vectors, levels):
    """The first d in levels at which the antisymmetrized trace of every
    unordered (d+1)-tuple drawn from ids vanishes (None if none does), and
    the number of tuples decided.

    vectors[i] holds the traces of ids[i] against a spanning set of an
    algebra closed under the product.  T is multilinear and vanishes when
    one entry traces to zero against that whole algebra, so a level
    vanishes on ids iff it vanishes on the basis, the ids whose vectors
    `_Echelon.add` keeps: at most dim² matrices (Procesi 1976), the
    trace-Gram rank for a monoid (Chenevier 2014).  Such a level counts
    all C(len(ids) + d, d + 1) tuples; any other scans the ids up to its
    first nonzero tuple, as the full search does."""
    span = _Echelon()
    basis = [i for i, v in zip(ids, vectors) if span.add(v)]
    checked = 0
    for d in levels:
        if all(engine.antisym(tup) == 0
               for tup in combinations_with_replacement(basis, d + 1)):
            return d, checked + comb(len(ids) + d, d + 1)
        for tup in combinations_with_replacement(ids, d + 1):
            checked += 1
            if engine.antisym(tup) != 0:
                break
    return None, checked


def _witness(engine: _TraceRecursion, ids: list, d: int) -> tuple:
    """Positions into ids of the lexicographically first ordered d-tuple
    with nonzero antisymmetrized trace, for the level d at which
    `_vanishing_level` stopped over distinct ids.  One exists: level d - 1
    had a nonzero unordered d-tuple, and its sorted order is among the
    ordered ones (for d = 0 the empty tuple has trace 1)."""
    for tup in product(range(len(ids)), repeat=d):
        if engine.antisym([ids[i] for i in tup]) != 0:
            return tup


class DegreeResult(NamedTuple):
    d: int
    witness: tuple
    tuples_checked: int


def degree(alpha: PseudoCharacter, max_d: int) -> DegreeResult:
    """Smallest d with every (d+1)-fold antisymmetrized trace zero.

    The vanishing check runs over unordered tuples (the antisymmetrized
    trace is symmetric in its arguments), all sharing the memo on alpha,
    and is decided on a basis of the trace-Gram rows [alpha(g·h)]; the
    nonvanishing witness at level d is the lexicographically first
    ordered tuple.  Cross-checked against the characteristic-zero identity
    d = alpha(identity); disagreement, a fractional or negative identity
    value, or exhaustion of max_d all reject the class function.  A
    negative max_d is a ValueError, raised before any of these.
    """
    if max_d < 0:
        raise ValueError(f"degree ceiling {max_d} is negative")
    e_val = alpha(alpha.monoid.identity)
    if e_val.denominator != 1 or e_val < 0:
        raise NotPseudo(f"identity value {e_val} is not a nonnegative integer")
    engine, mul, size = alpha._antisym, alpha.monoid.mul, alpha.monoid.size
    ids = [engine.intern(e) for e in range(size)]
    gram = [[alpha(mul(g, h)) for h in range(size)] for g in range(size)]
    d, checked = _vanishing_level(engine, ids, gram, range(max_d + 1))
    if d is None:
        raise NotPseudo(f"no degree up to {max_d}")
    if e_val != d:
        raise NotPseudo(
            f"vanishing degree {d} disagrees with identity value {e_val}")
    # positions are the elements
    return DegreeResult(d, _witness(engine, ids, d), checked)


def alpha_charpoly(alpha: PseudoCharacter, x: int, d: int) -> Polynomial:
    """Monic degree-d polynomial killed by x relative to alpha.

    Expand the (d+1)-slot antisymmetrized trace with d copies of x and one
    free slot y; the result is a combination sum_k gamma_k(x) alpha(x^k y),
    and the polynomial is sum_k (gamma_k / gamma_d) t^k.  For alpha a
    character this is the ordinary characteristic polynomial of the matrix
    of x.
    """
    try:
        found = degree(alpha, d)
    except NotPseudo as exc:
        raise DegreeMismatch(str(exc)) from exc
    if found.d != d:
        raise DegreeMismatch(f"degree is {found.d}, not {d}")
    if not 0 <= x < alpha.monoid.size:
        raise ValueError(f"element {x} is not in the monoid")
    # The cycle through y holds k of the d copies of x, in d!/(d-k)! orders
    # and with sign (-1)^k; the other d - k copies permute freely.
    gamma = []
    orders = 1
    for k in range(d + 1):
        gamma.append((-1) ** k * orders * antisym_trace(alpha, (x,) * (d - k)))
        orders *= d - k
    lead = gamma[d]  # (-1)^d d!, counts full cycles through the free slot
    return Polynomial([c / lead for c in gamma])


# ---------------------------------------------------------------------------
# lifting against a character table


def lift_with_table(alpha: PseudoCharacter, table):
    """Solve alpha = sum n_i chi_i over the supplied characters.

    One equation alpha(e) = sum n_i chi_i(e) per element, taken once for
    the elements in one class of alpha and of every chi_i, so the
    characters' classes need not be listed alike.  One `solve` of the
    table beside alpha decides a singular table (rank below the table's
    length), alpha outside the span and the solution.  Returns the tuple
    of multiplicities when they are nonnegative integers; raises
    Infeasible carrying the exact rational solution (or None when alpha is
    outside the span) otherwise.
    """
    if any(chi.monoid.table != alpha.monoid.table for chi in table):
        raise ValueError("table characters live on a different monoid")
    reps = {tuple(c._class_of[e] for c in (alpha, *table)): e
            for e in range(alpha.monoid.size)}.values()
    a = Matrix([[chi(e) for chi in table] for e in reps])
    sol, rank = solve(a, [alpha(e) for e in reps])
    if rank != len(table):
        raise SingularTable("table characters are linearly dependent")
    if sol is None:
        raise Infeasible("alpha is not in the span of the table", None)
    if all(s.denominator == 1 and s >= 0 for s in sol):
        return tuple(int(s) for s in sol)
    raise Infeasible("multiplicities are not nonnegative integers", sol)


# ---------------------------------------------------------------------------
# degree additivity on a formal direct sum


class AdditivityReport(NamedTuple):
    degrees: tuple
    sum_degree: int
    additive: bool


def _end_monoid(cat, obj):
    """End(obj) of a finite category as a FiniteMonoid plus element list."""
    elems = list(cat.hom(obj, obj))
    index = {m: i for i, m in enumerate(elems)}
    table = [[index[cat.compose(b, a)] for b in elems] for a in elems]
    return FiniteMonoid(table, index[cat.identity(obj)]), elems


def degree_additivity_check(cat, alpha, objects=None, max_d=6):
    """Degree of a formal direct sum versus the sum of part degrees.

    Endomorphisms of the sum are matrix units (i, j, f) with f a morphism
    from objects[i] to objects[j]; by multilinearity it is enough to run
    the antisymmetrized-trace tests on tuples of matrix units, decided on
    a basis of their traces against each other.  Units multiply along
    unbroken chains and a broken chain is an absorbing zero, whose trace
    is 0; a closed chain is traced as a loop.
    """
    objs = tuple(objects if objects is not None else cat.objects)
    part_degrees = []
    for obj in objs:
        monoid, elems = _end_monoid(cat, obj)
        values = [alpha.loop(cat.loop_class(obj, [f])) for f in elems]
        part = PseudoCharacter.from_element_values(monoid, values)
        part_degrees.append(degree(part, max_d).d)

    def unit_trace(u):
        if u is None or u[0] != u[1]:
            return Fraction(0)
        return alpha.loop(cat.loop_class(objs[u[0]], [u[2]]))

    def unit_mul(u, v):
        if u is None or v is None or u[1] != v[0]:
            return None
        return (u[0], v[1], cat.compose(v[2], u[2]))

    engine = _TraceRecursion(unit_trace, unit_mul)
    units = [(i, j, f) for i in range(len(objs)) for j in range(len(objs))
             for f in cat.hom(objs[i], objs[j])]
    rows = [[unit_trace(unit_mul(u, v)) for v in units] for u in units]
    sum_degree, _ = _vanishing_level(
        engine, [engine.intern(u) for u in units], rows, range(max_d + 1))
    if sum_degree is None:
        raise NotPseudo(f"direct sum has no degree up to {max_d}")
    return AdditivityReport(tuple(part_degrees), sum_degree,
                            sum_degree == sum(part_degrees))


# ---------------------------------------------------------------------------
# graph holonomy


class GraphHolonomy:
    """Directed graph with an invertible square matrix on each edge."""

    def __init__(self, n_vertices: int, edges):
        self.n_vertices = n_vertices
        self.edges = tuple((src, tgt, m) for src, tgt, m in edges)
        self.vertex_dim = {}
        vertices = range(n_vertices)
        for src, tgt, m in self.edges:
            if src not in vertices or tgt not in vertices:
                raise ValueError(f"edge {src}->{tgt} has an endpoint outside "
                                 f"0..{n_vertices - 1}")
            if m.rows != m.cols:
                raise ValueError("edge matrices must be square")
            if det(m) == 0:
                raise NonInvertibleEdge(f"edge {src}->{tgt} is singular")
            for v in (src, tgt):
                if self.vertex_dim.setdefault(v, m.rows) != m.rows:
                    raise ValueError(f"inconsistent dimension at vertex {v}")


# Most walks a holonomy job may enumerate at dimension 2, one matrix
# product each.  At largest vertex dimension n > 2 a product costs n³
# multiplications, and the bound is HOLONOMY_MAX_WALKS · 8 / n³ walks; at
# n = 1 each walk's bookkeeping outweighs its product, so it stays.  At
# cap 4 on a 2.1 GHz Xeon vCPU, 12 loops of dihedral 2x2 matrices (22,620
# walks) take 0.8 s and 20 (168,420) 6.6 s with the bound lifted; 12 loops
# of a 4×4 (8×8) cyclic permutation took 2.3 s (7.1 s) lifted, and at the
# bound 7 (4) of them take 0.3 s (0.15 s).  Each walk adds at most one
# distinct matrix, so it bounds those too.
HOLONOMY_MAX_WALKS = 25_000


class HolonomyReport(NamedTuple):
    table: dict
    base: int
    dimension: int
    degree: DegreeResult


def graph_pseudoholonomy(gh: GraphHolonomy, max_len: int,
                         base=0) -> HolonomyReport:
    """Traces of edge-matrix products around closed walks.

    The table keys closed walks (as edge-index tuples) by their least
    cyclic rotation; the value is the trace of the ordered product, so
    rotations agree by trace cyclicity.

    The degree report is the one `degree`'s search would give over the n
    distinct matrices of the closed walks at `base` of at most max_len
    edges, the dim×dim identity first, and is read in closed form:
    - every (dim + 1)-fold antisymmetrized trace of dim×dim matrices
      vanishes, by the fundamental trace identity (Cayley–Hamilton;
      Procesi 1976, Razmyslov 1974), so level dim vanishes and all
      C(n + dim, dim + 1) of its tuples count as decided;
    - by the unit rule of `_TraceRecursion`, T(1^k) = dim!/(dim - k)! is
      nonzero for k <= dim, so each level k - 1 below dim stops at its
      first tuple, k copies of the identity, and counts one;
    - the witness, the first ordered dim-tuple with nonzero trace, is
      dim copies of the identity.
    So d = dim and tuples_checked = dim + C(n + dim, dim + 1), of which
    only n depends on max_len.

    Each walk of at most max_len edges costs one product of n×n matrices,
    n the largest vertex dimension, so a graph with more than
    HOLONOMY_MAX_WALKS · 8 / max(n, 2)³ of them, counted first from the
    powers of its adjacency matrix, is rejected with ValueError.
    """
    if max_len < 1:
        raise ValueError("walk-length cap must be at least 1")
    out_edges = {}
    for ei, (src, _tgt, _m) in enumerate(gh.edges):
        out_edges.setdefault(src, []).append(ei)

    dim = gh.vertex_dim.get(base)
    if dim is None:
        raise ValueError(f"vertex {base} has no incident edge")
    max_walks = HOLONOMY_MAX_WALKS * 8 // max(2, *gh.vertex_dim.values()) ** 3
    # walks of length k by end vertex: the column sums of A^k, A the
    # edge-count adjacency matrix, stepped along the out-edges
    ends = Counter(tgt for _s, tgt, _m in gh.edges)
    walks, length = len(gh.edges), 1
    while ends and walks <= max_walks and length < max_len:
        step = Counter()
        for v, k in ends.items():
            for ei in out_edges.get(v, ()):
                step[gh.edges[ei][1]] += k
        ends, walks, length = step, walks + step.total(), length + 1
    if walks > max_walks:
        raise ValueError(f"more than {max_walks} walks of at most "
                         f"{max_len} edges")
    table = {}
    identity = Matrix.identity(dim)
    # the distinct matrices of the closed walks at base, and the identity
    mats = {identity}
    # walks in depth-first preorder, on an explicit stack
    stack = [([ei], tgt, m, src)
             for ei, (src, tgt, m) in reversed(list(enumerate(gh.edges)))]
    while stack:
        walk, vertex, mat, start = stack.pop()
        if gh.edges[walk[-1]][1] == start:
            table.setdefault(least_rotation(tuple(walk)), mat.trace())
            if start == base:
                mats.add(mat)
        if len(walk) < max_len:
            for ei in reversed(out_edges.get(vertex, [])):
                _s, t, m = gh.edges[ei]
                stack.append((walk + [ei], t, mat * m, start))
    return HolonomyReport(table, base, dim, DegreeResult(
        dim, (identity,) * dim, dim + comb(len(mats) + dim, dim + 1)))
