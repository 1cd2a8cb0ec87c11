"""Small categories presented by finite data, and their loop/interval classes.

Three presentations are supported: a finite monoid (one object, Cayley
table), a finite multi-object category (explicit hom sets and composition
table), and the free monoid on a finite alphabet (one object, words as
morphisms, no cap stored — enumeration operations take one).

Composition convention, used everywhere in this package:
`compose(m2, m1)` is "m1 traversed first, then m2".  For a finite monoid
this is `table[m1][m2]`, i.e. the Cayley table is read left-to-right; for
the free monoid it is concatenation `m1 + m2`.

A loop is a closed chain of morphisms up to rotation: the class of
(X, g o f) equals the class of (Y, f o g) whenever f: X -> Y and g: Y -> X.
For finite presentations we saturate that relation by union-find over all
(object, endomorphism) pairs; for the one-object case it is exactly monoid
conjugacy, gh ~ hg, and a chain's class is read off the Cayley table, one
`Loop` per element.  Free-monoid loops are cyclic words, canonicalized to
the lexicographically least rotation, which each category computes at
most once per word, and stores under the word's other rotations too while
the letters met pay for them.

`Loop` and `IntervalClass` are named tuples: every value an evaluation
table holds, and every strand of a Gram entry, is looked up by one, so
their hashing and equality run in C, and building one builds one tuple.
Like any tuple they equal the plain tuple of their fields; no table
mixes the two.

Boundary data are right and left actions of the category on element
sets, with the interval classes they saturate.  The package ships one,
`FreeBoundary`, the free monoid acting on itself; a general finite
datum, with its functoriality checks, is the test suite's reference
(`tests/oracles.py`).
"""

from __future__ import annotations

from itertools import chain as _chain, product as _product
from typing import Callable, Hashable, NamedTuple, Sequence

from .errors import DomainError
from .linalg import _fractions

_letters = _chain.from_iterable  # the letters of a chain of words, in order


class NotComposable(DomainError):
    """Source/target mismatch in a composition."""


class Loop(NamedTuple):
    """Canonical closed chain: base object plus canonical cycle of morphism
    ids.  A named tuple, so hashing and equality run in C; it equals the
    plain tuple of its fields, which no evaluation table mixes with it."""

    base: Hashable
    cycle: tuple


class IntervalClass(NamedTuple):
    """Canonical (object, left element, right element) of a floating
    interval.  A named tuple like `Loop`, and never equal to one: a loop
    has two fields, an interval class three."""

    base: Hashable
    gl: Hashable
    gr: Hashable


def least_rotation(word: tuple) -> tuple:
    """Lexicographically minimal rotation (Booth's algorithm)."""
    n = len(word)
    if n == 0:
        return word
    s = word + word
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return s[k : k + n]


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller representative for determinism
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


# ---------------------------------------------------------------------------


class FiniteMonoid:
    """Monoid on {0..size-1} with table[a][b] = "a then b"; validated at load."""

    def __init__(self, table: Sequence[Sequence[int]], identity: int):
        self.table = tuple(tuple(row) for row in table)
        self.size = len(self.table)
        self.identity = identity
        n = self.size
        if not all(len(r) == n and all(type(x) is int and 0 <= x < n
                                       for x in r) for r in self.table):
            raise ValueError("malformed composition table")
        if not (0 <= identity < n):
            raise ValueError("identity index out of range")
        for g in range(n):
            if self.table[identity][g] != g or self.table[g][identity] != g:
                raise ValueError("identity is not two-sided")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(
                            f"composition not associative at ({a},{b},{c})"
                        )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


def conjugacy_classes(m: FiniteMonoid) -> list[list[int]]:
    """Finest partition closed under gh ~ hg; ordinary conjugacy for groups."""
    uf = _UnionFind()
    for g in range(m.size):
        uf.find(g)
        for h in range(m.size):
            uf.union(m.mul(g, h), m.mul(h, g))
    classes: dict[int, list[int]] = {}
    for g in range(m.size):
        classes.setdefault(uf.find(g), []).append(g)
    return [sorted(v) for _, v in sorted(classes.items())]


def class_values(m: FiniteMonoid, values) -> tuple[list[list[int]], list]:
    """`conjugacy_classes` and the value on each, from one number per
    element, constant on each class; the values are held as Fractions."""
    if len(values) != m.size:
        raise ValueError("one value per element required")
    values = _fractions(values)
    classes = conjugacy_classes(m)
    for c in classes:
        if len({values[e] for e in c}) != 1:
            raise ValueError(f"values not constant on class {c}")
    return classes, [values[c[0]] for c in classes]


class MonoidCategory:
    """The one-object category with endomorphism monoid `monoid`."""

    def __init__(self, monoid: FiniteMonoid):
        self.monoid = monoid
        self.objects = (0,)
        self._loops: list[Loop] | None = None  # per element, its class

    def source(self, m: int):
        return 0

    def target(self, m: int):
        return 0

    def identity(self, obj) -> int:
        return self.monoid.identity

    def hom(self, x, y) -> list[int]:
        return list(range(self.monoid.size))

    def compose(self, m2: int, m1: int) -> int:
        return self.monoid.mul(m1, m2)

    def loop_class(self, base, chain: Sequence[int]) -> Loop:
        """The class of the chain's composite, folded through the Cayley
        table; a nonempty chain must start at the one object, 0."""
        if chain and base != 0:
            raise NotComposable(f"path does not start at {base!r}")
        if self._loops is None:
            reps = {g: min(cls) for cls in conjugacy_classes(self.monoid)
                    for g in cls}
            self._loops = [Loop(0, (reps[g],)) for g in range(self.monoid.size)]
        table, e = self.monoid.table, self.monoid.identity
        for m in chain:
            e = table[e][m]
        return self._loops[e]


class TableCategory:
    """Finite category: explicit objects, hom sets, and composition rule.

    `morphisms` maps id -> (source, target); `compose_rule(m2, m1)` gives the
    composite id for composable pairs.  Associativity and identities are
    verified exhaustively at construction.
    """

    def __init__(
        self,
        objects: Sequence[Hashable],
        morphisms: dict,
        identities: dict,
        compose_rule: Callable,
    ):
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)
        self.identities = dict(identities)
        self._compose = compose_rule
        self._homs: dict[tuple, list] = {}
        for m, (s, t) in self.morphisms.items():
            if s not in self.objects or t not in self.objects:
                raise ValueError(f"morphism {m!r} has unknown endpoint")
            self._homs.setdefault((s, t), []).append(m)
        for hom in self._homs.values():
            hom.sort(key=repr)
        for x in self.objects:
            i = self.identities.get(x)
            if i is None or self.morphisms.get(i) != (x, x):
                raise ValueError(f"missing or mistyped identity at {x!r}")
        self._validate()
        self._loop_reps: dict | None = None

    def _validate(self):
        for m, (s, t) in self.morphisms.items():
            if self.compose(m, self.identities[s]) != m:
                raise ValueError(f"right identity fails at {m!r}")
            if self.compose(self.identities[t], m) != m:
                raise ValueError(f"left identity fails at {m!r}")
        # associativity over all composable triples
        for f, (fs, ft) in self.morphisms.items():
            for (s2, t2), gs in self._homs.items():
                if s2 != ft:
                    continue
                for g in gs:
                    gf = self.compose(g, f)
                    for (s3, t3), hs in self._homs.items():
                        if s3 != t2:
                            continue
                        for h in hs:
                            if self.compose(h, gf) != self.compose(
                                self.compose(h, g), f
                            ):
                                raise ValueError(
                                    f"associativity fails at ({h!r},{g!r},{f!r})"
                                )

    def source(self, m):
        return self.morphisms[m][0]

    def target(self, m):
        return self.morphisms[m][1]

    def identity(self, obj):
        return self.identities[obj]

    def hom(self, x, y) -> list:
        return list(self._homs.get((x, y), []))

    def compose(self, m2, m1):
        if self.target(m1) != self.source(m2):
            raise NotComposable(f"cannot compose {m2!r} after {m1!r}")
        return self._compose(m2, m1)

    def loop_class(self, base, chain: Sequence) -> Loop:
        e = compose_path(self, list(chain), at=base)
        if self._loop_reps is None:
            self._loop_reps = self._saturate_loops()
        obj, endo = self._loop_reps[(base, e)]
        return Loop(obj, (endo,))

    def _saturate_loops(self) -> dict:
        uf = _UnionFind()
        key = {}  # sortable key -> (obj, endo)
        for x in self.objects:
            for e in self.hom(x, x):
                k = (self.objects.index(x), repr(e))
                key[k] = (x, e)
                uf.find(k)
        for x in self.objects:
            for y in self.objects:
                for b in self.hom(x, y):
                    for c in self.hom(y, x):
                        kx = (self.objects.index(x), repr(self.compose(c, b)))
                        ky = (self.objects.index(y), repr(self.compose(b, c)))
                        uf.union(kx, ky)
        return {
            key[k]: key[uf.find(k)] for k in key
        }


class FreeMonoidCategory:
    """One object; morphisms are words (tuples of letter indices)."""

    def __init__(self, alphabet: Sequence[str]):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters")
        self.objects = (0,)
        self._index = {a: i for i, a in enumerate(self.alphabet)}
        self._loops: dict[tuple, Loop] = {}  # per word, its class
        self._spare = 0  # letters met, less the rotations' letters stored

    def source(self, m):
        return 0

    def target(self, m):
        return 0

    def identity(self, obj) -> tuple:
        return ()

    def compose(self, m2: tuple, m1: tuple) -> tuple:
        return tuple(m1) + tuple(m2)

    def loop_class(self, base, chain: Sequence[tuple]) -> Loop:
        """The least rotation of the concatenated chain, computed once per
        word met.  The first word met of a class also stores its `Loop`
        under every other rotation of the word, when the letters met so
        far cover the rotations' letters: the rotations stored never hold
        more letters than the words met, so a long word costs no more
        than reading it, not its length squared."""
        word = tuple(_letters(chain))
        n = len(word)
        self._spare += n
        lp = self._loops.get(word)
        if lp is None:
            lp = self._loops[word] = Loop(0, least_rotation(word))
            if n * (n - 1) <= self._spare:
                self._spare -= n * (n - 1)
                for i in range(1, n):
                    self._loops[word[i:] + word[:i]] = lp
        return lp

    def word(self, text: str) -> tuple:
        """Letters by name, e.g. word('aba') over alphabet ('a','b')."""
        try:
            return tuple(map(self._index.__getitem__, text))
        except KeyError:
            raise ValueError(f"word {text!r} has a letter outside the "
                             f"alphabet {''.join(self.alphabet)!r}") from None

    def words_up_to(self, cap: int) -> list[tuple]:
        """All words of length <= cap, shortlex order."""
        k = len(self.alphabet)
        return [w for n in range(max(cap, 0) + 1)
                for w in _product(range(k), repeat=n)]


def compose_path(cat, path: Sequence, at=None):
    """Compose a traversal-ordered path of morphisms; empty path needs `at`."""
    if not path:
        if at is None:
            raise ValueError("empty path requires an object")
        return cat.identity(at)
    acc = path[0]
    if at is not None and cat.source(acc) != at:
        raise NotComposable(f"path does not start at {at!r}")
    for m in path[1:]:
        if cat.target(acc) != cat.source(m):
            raise NotComposable(f"cannot continue path with {m!r}")
        acc = cat.compose(m, acc)
    return acc


# ---------------------------------------------------------------------------
# boundary data: right-set and left-set actions with interval classes


class FreeBoundary:
    """The free monoid acting on itself on both sides; elements are words.

    Interval classes are read off by concatenation: the pair (gl, gr) at the
    single object is canonically the word gr + gl with empty left part.
    """

    def __init__(self, cat: FreeMonoidCategory):
        self.cat = cat

    def gr(self, m: tuple, g: tuple) -> tuple:
        return tuple(g) + tuple(m)

    def gl(self, m: tuple, g: tuple) -> tuple:
        return tuple(m) + tuple(g)

    def interval_class(self, obj, gl: tuple, gr: tuple) -> IntervalClass:
        return IntervalClass(0, (), tuple(gr) + tuple(gl))


# ---------------------------------------------------------------------------
# standard examples


def cyclic_group(n: int) -> FiniteMonoid:
    return FiniteMonoid([[(a + b) % n for b in range(n)] for a in range(n)], 0)


def symmetric_group(n: int) -> FiniteMonoid:
    """S_n with elements in lexicographic one-line order; table left-to-right."""
    from itertools import permutations

    elems = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    # "a then b": apply a first, then b
    table = [
        [index[tuple(b[a[i]] for i in range(n))] for b in elems] for a in elems
    ]
    return FiniteMonoid(table, index[tuple(range(n))])

