"""State spaces of the universal construction.

An evaluation assigns scalars to canonical loops and interval classes; it
extends multiplicatively to closed diagrams.  The state space at an object
is spanned by the open diagrams from the unit into it (kets); the pairing
closes one ket against the reflection (bra) of another and evaluates.  Over
the rationals the dimension is the Gram rank; a smaller cap's kets and
sub-Gram are filtered from the larger cap's, in order.  Over the Boolean
semiring the states are the distinct rows (residual languages), with the
join-irreducible rows counted separately.  The kets of a finite category
end on arcs alone; over the free monoid they may also end on its own
boundary (`fincat.FreeBoundary`), the automata case, whose intervals read
words as loops do.  No other boundary reaches a state space.

One kernel, `_template_gram`, builds every Gram.  An entry's strands depend
only on the shapes of its row and column, so each pair of shapes is traced
once into a template.  A strand is valued at the composite it reads, so
each strand reads one table of values, integral ones held as ints, by one
path: its keys go through C-level `map`s to its memo, which starts
complete wherever the category allows, and only a key the memo lacks is
evaluated.  Over the free monoid the key is the word read, the
decorations concatenated, and the memo starts from the words the job
listed; over a finite monoid it is the labels, and the memo starts from
the per-element values pushed through the Cayley table; a cob2 component
is keyed by its genus, and its memo starts from the surface values
cleared of their denominators, so a cob2 Gram is built on ints.  A row is
built block by block, one block per run of columns of one shape: a
strand's values over the run are read once per part of the row the
strand reads, and a block is their product column by column, taken by
`map`.  For diagrams the shapes are matchings, traced by the splice's own
chain walk (`diagrams._chains`), and each ket is its own bra.  The
reference, the splice after `transpose`, builds the only bras: it
evaluates each template's first entry as a cross-check, and any entry
that lacks a value, so that the error is its own.

Also here: exact weighted-automaton minimization (the Hankel pairing of the
non-monoidal construction) and the two-dimensional cobordism state spaces,
where spanning diagrams are partitions of the boundary circles with a genus
attached to each block and gluing is Euler-characteristic bookkeeping.
Their shapes are partitions, their strands the glued components, and the
generic gluing is their reference.

Its records are named tuples, as `fincat.Loop` is: immutable, and equal
to the plain tuple of their fields, which no report compares them with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, groupby, product as iproduct
from math import comb, factorial, lcm
from operator import itemgetter, le, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .diagrams import BrauerMorphism, _chains, compose, transpose
from .errors import DomainError, InternalInconsistency, SequenceTooShort
from .fincat import (FreeBoundary, FreeMonoidCategory, IntervalClass, Loop,
                     MonoidCategory, _UnionFind, class_values)
from .linalg import Matrix, _Echelon, _cleared, _fractions, _integral, rank


class MissingValue(DomainError):
    """A loop or interval class outside the evaluation's domain."""


class SpanningMismatch(DomainError):
    """A smaller spanning set is not contained in the larger one."""


class Evaluation(NamedTuple):
    """Values on canonical loops and interval classes; multiplicative on
    disjoint union.  `loop_words` and `interval_words` hold free-monoid
    values by the word a strand reads, integral ones as ints, as a job's
    reader has them (`cli._evaluation_from`), in agreement with the values
    by class.  Each table is held as given, so a `defaultdict` keeps its
    default: a language lists its words, and every other interval reads 0."""

    loop_values: Mapping = MappingProxyType({})
    interval_values: Mapping = MappingProxyType({})
    loop_words: Mapping = MappingProxyType({})
    interval_words: Mapping = MappingProxyType({})

    def loop(self, lp: Loop):
        try:
            return self.loop_values[lp]
        except KeyError:
            raise MissingValue(f"no value for loop {lp!r}") from None

    def interval(self, iv: IntervalClass):
        try:
            return self.interval_values[iv]
        except KeyError:
            raise MissingValue(f"no value for interval {iv!r}") from None


def evaluation_from_monoid(cat, values: Sequence) -> Evaluation:
    """Per-element values over a MonoidCategory, held per class by
    `class_values`: a loop class is a conjugacy class."""
    classes, per_class = class_values(cat.monoid, values)
    return Evaluation(loop_values={cat.loop_class(0, c[:1]): v
                                   for c, v in zip(classes, per_class)})


def evaluate_closed(d: BrauerMorphism, alpha: Evaluation):
    """Product of the values of the floating parts; empty diagram gives 1."""
    if not d.is_closed():
        raise ValueError("evaluation needs a closed diagram")
    out = Fraction(1)
    for lp in d.loops:
        out = out * alpha.loop(lp)
    for iv in d.intervals:
        out = out * alpha.interval(iv)
    return out


# ---------------------------------------------------------------------------
# spanning sets


def _cap_labels(cat, cap_words: int) -> list | None:
    """A free monoid labels every arc and every end with its words up to
    `cap_words`, in shortlex order; no other category's labels depend on
    the cap (None): its hom sets and its boundary's element sets."""
    words_up_to = getattr(cat, "words_up_to", None)
    return None if words_up_to is None else words_up_to(cap_words)


def enumerate_kets(cat, obj, boundary=None, cap_words: int = 4
                   ) -> list[BrauerMorphism]:
    """All diagrams from the unit to `obj`: matchings, labels, half-intervals.

    Floating components are excluded — they only rescale.  Enumeration order
    is deterministic: endpoints processed left to right, label lists in
    category order.  An object entry outside the category is a ValueError.

    The one `boundary` a state space takes is the `fincat.FreeBoundary` of
    its own free monoid, whose half-intervals take the capped words, as
    the arcs do; any other is a ValueError, raised before any ket is
    built.  Without a boundary every end lies on an arc.
    """
    if boundary is not None and not (
            isinstance(cat, FreeMonoidCategory)
            and isinstance(boundary, FreeBoundary) and boundary.cat is cat):
        raise ValueError("a state space's boundary must be the FreeBoundary "
                         "of its own free monoid")
    obj = tuple(obj)
    for x, _s in obj:
        if x not in cat.objects:
            raise ValueError(f"unknown object {x!r}")
    n = len(obj)
    effs = [s for _x, s in obj]  # kets: all endpoints are target entries
    if boundary is None and effs.count(1) != effs.count(-1):
        return []  # arcs pair a + with a -, and no end may stay open

    matchings: list[tuple] = []

    def backtrack(unmatched: list[int], partial: list):
        if not unmatched:
            matchings.append(tuple(partial))
            return
        e = unmatched[0]
        rest = unmatched[1:]
        for other in rest:
            if effs[other] == effs[e]:
                continue
            t, h = (e, other) if effs[e] == -1 else (other, e)
            remaining = [u for u in rest if u != other]
            backtrack(remaining, partial + [("arc", t, h)])
        if boundary is not None:
            backtrack(rest, partial + [("half", e)])

    backtrack(list(range(n)), [])

    words = _cap_labels(cat, cap_words)

    def slot(item):  # only a free monoid's kets have half-intervals
        if words is not None:
            return words
        return cat.hom(obj[item[1]][0], obj[item[2]][0])

    kets = []
    for matching in matchings:
        for choice in iproduct(*map(slot, matching)):
            labeled = [(*item, lab) for item, lab in zip(matching, choice)]
            kets.append(BrauerMorphism(
                cat, (), obj, [x[1:] for x in labeled if x[0] == "arc"],
                [x[1:] for x in labeled if x[0] == "half"], boundary=boundary))
    return kets


# Most kets a `statespace` or `boolean-statespace` job pairs; the CLI
# checks `ket_count` against it, and `enumerate_kets` takes any number.
# The kets grow with the object and the cap, not with the job file, and
# the Gram takes kets^2 entries.  Its rank takes about kets^3 steps at full
# rank; at a rank r below the kets, each row after the first dependent one
# costs about r multiply-adds of kets-word packed ints while the minors fit
# in 62 bits (`linalg.rank`).  A job at this bound with small values (one
# letter, object [+, -] at --cap-words 99, random loop values in -9..9, a
# full-rank 100 x 100 Gram) takes 0.4-0.7 s in process on a 2 GHz Xeon
# vCPU; the benchmark's largest job has 98 kets.  Like COB2_MAX_SPANNING,
# it counts kets, not the size of the values, which set the cost of each
# rank step; a certified modular rank, on word-size residues, would cut it.
MAX_KETS = 100


def ket_count(p: int, q: int, labels: int, ends: int) -> int:
    """len(enumerate_kets) at p plus and q minus strands of a one-object
    category with `labels` labels per arc and `ends` boundary elements per
    end (0 without a boundary): sum_k C(p, k) C(q, k) k! labels^k
    ends^(p + q - 2k), k arcs and a half-interval at every other end,
    while it is at most MAX_KETS.  The terms are added until the sum
    passes MAX_KETS, so a long object costs a few terms, and that sum, a
    lower bound above the constant, is returned."""
    total = 0
    for k in range(min(p, q) + 1) if ends else [p] if p == q else []:
        total += (comb(p, k) * comb(q, k) * factorial(k) * labels ** k
                  * ends ** (p + q - 2 * k))
        if total > MAX_KETS:
            break
    return total


class StateSpace(NamedTuple):
    object: tuple
    spanning: list
    gram: Matrix
    dimension: int
    cap_words: int


class BooleanStateSpace(NamedTuple):
    object: tuple
    spanning: list
    rows: list
    states: list
    n_states: int
    n_join_irreducible: int
    cap_words: int


# ---------------------------------------------------------------------------
# the pairing, one wiring template per pair of matchings


def _views(d: BrauerMorphism) -> tuple:
    """A ket's matching without its labels, then its decorations: arc
    labels, then half-interval elements.  `transpose` keeps both, so they
    are the ket's decorations as a bra too."""
    return ((tuple((t, h) for t, h, _lab in d.arcs),
             tuple(e for e, _g in d.half_intervals)),
            tuple(lab for _t, _h, lab in d.arcs)
            + tuple(g for _e, g in d.half_intervals))


def _strands(obj: tuple, ket_wiring: tuple, bra_wiring: tuple):
    """The closed strands of a bra of `bra_wiring` after a ket of
    `ket_wiring`, found by the splice's own chain walk, `diagrams._chains`.

    Ket endpoint e is node (1, e), bra endpoint e node (2, e), and a wire
    joins the two; each label is its position in the ket's decorations
    followed by the bra's.  Intervals come first, as (start object, end
    object, positions of the start element, the labels and the end
    element); loops follow, as (base object, positions of the labels).
    """
    at = count()
    arcs, half = {}, {}
    for side, (arc_wiring, half_wiring) in ((1, ket_wiring), (2, bra_wiring)):
        arcs.update({(side, t): ((side, h), next(at)) for t, h in arc_wiring})
        half.update({(side, e): next(at) for e in half_wiring})
    wire = {(side, e): (3 - side, e) for side in (1, 2)
            for e in range(len(obj))}
    intervals, loops = [], []
    for start, end, labels in _chains(
            arcs, half, wire, {},
            lambda n: obj[n[1]][1] if n[0] == 1 else -obj[n[1]][1]):
        if start in half:
            intervals.append((obj[start[1]][0], obj[end[1]][0],
                              (half[start], *labels, half[end])))
        else:
            loops.append((obj[start[1]][0], tuple(labels)))
    return intervals, loops


def _part(picks: list):
    """A getter of a strand's key part at `picks`, () for none."""
    return itemgetter(*picks) if picks else lambda decorations: ()


def _template_gram(items: list, template, reference,
                   names: tuple) -> list[list]:
    """Gram rows: entry (i, j) pairs item i as a row with item j as a
    column, each item a (shape, decorations) read the same either way.

    `template(row shape, col shape)`, made once per pair of shapes, lists
    the entry's strands as (picks, keys, values, evaluate): the strand's
    key is the row decorations followed by the column's, put through the
    C-level functions `keys` in turn, the first of which reads `picks`
    alone.  Its value is `values[key]`, a memo complete from the start
    wherever the category allows, or else `evaluate(key)`, memoized, an
    int when integral.  An entry is the product of its strands' values.

    A row is built block by block, one block per run of columns of one
    shape.  Per row shape and run, a plan splits each strand's picks into
    row and column positions, interns the run's column parts and keeps
    one column per part.  A row reads a strand's values at those columns
    once per row part, cached in the plan, and a block is the per-column
    product of its strands' values, made by `map`.  The first entry of
    each template, row by row, must agree with `reference(i, j)`.  A row
    that misses a value or fails that check is scanned again entry by
    entry, in column order, so that the error names the entry the
    per-entry loop would meet first; an entry missing a value is
    evaluated by the reference, so that the error is the reference's.
    `names` name the template and the reference.
    """
    shape_of: dict = {}
    shape_ids = [shape_of.setdefault(shape, len(shape_of))
                 for shape, _decs in items]
    shapes = list(shape_of)
    runs, stop = [], 0  # (shape, start, stop) per run of one shape
    for s, run in groupby(shape_ids):
        start, stop = stop, stop + len(list(run))
        runs.append((s, start, stop))
    first = {s: start for s, start, _stop in reversed(runs)}  # by shape
    decs = [d for _shape, d in items]
    templates: dict = {}
    plans: dict = {}  # per row shape, a plan per run

    def strands_of(r, c):
        strands = templates.get((r, c))
        if strands is None:
            strands = templates[r, c] = template(shapes[r], shapes[c])
        return strands

    def plan(strands, width, start, stop):
        """The strand plans of the columns start..stop, and their width.
        A strand's plan holds its row-part getter, key functions, memo
        and evaluate, one column per distinct column part, each column's
        part index (None when all differ) and the row cache."""
        out = []
        for picks, keys, values, evaluate in strands:
            part = _part([p - width for p in picks if p >= width])
            ids, reps, seen = [], [], {}
            for cd in decs[start:stop]:
                k = seen.setdefault(part(cd), len(reps))
                if k == len(reps):
                    reps.append(cd)
                ids.append(k)
            if len(reps) == stop - start:
                ids = None
            out.append((_part([p for p in picks if p < width]), keys, values,
                        evaluate, reps, ids, {}))
        return out, stop - start

    def rescan(i):
        """Row i entry by entry: the error the entry loop meets first."""
        r, rd = shape_ids[i], decs[i]
        for j, c in enumerate(shape_ids):
            strands, _ = plan(strands_of(r, c), len(rd), j, j + 1)
            if checked := i == first[r] and j == first[c]:
                expected = reference(i, j)
            try:
                entry = _block(strands, rd, 1)[0]
            except (MissingValue, SequenceTooShort):
                reference(i, j)
                raise InternalInconsistency(
                    f"{names[0]} template misses a value the {names[1]} has "
                    f"at entry ({i}, {j})") from None
            if checked and entry != expected:
                raise InternalInconsistency(
                    f"{names[0]} template disagrees with the {names[1]} at "
                    f"entry ({i}, {j})")
        raise InternalInconsistency(
            f"{names[0]} blocks disagree with their entries in row {i}")

    gram = []
    for i, (r, rd) in enumerate(zip(shape_ids, decs)):
        if checked := i == first[r]:
            plans[r] = [plan(strands_of(r, c), len(rd), start, stop)
                        for c, start, stop in runs]
        row = []
        try:
            for strand_plans, width in plans[r]:
                row += _block(strand_plans, rd, width)
            if checked and any(start == first[c] and row[start] != reference(
                    i, start) for c, start, _stop in runs):
                rescan(i)  # raises at the first entry that disagrees
        except (MissingValue, SequenceTooShort):
            rescan(i)
        gram.append(row)
    return gram


def _block(strand_plans: list, rd: tuple, width: int) -> list:
    """A row's entries over one run of `width` columns, given the run's
    strand plans (`_template_gram`) and the row's decorations `rd`.  Each
    strand reads its values by `map`s, through its key functions to its
    memo, and on a miss evaluates each key its memo lacks."""
    block = None
    for part, keys, values, evaluate, reps, ids, cache in strand_plans:
        p = part(rd)
        vals = cache.get(p)
        if vals is None:
            found = map(rd.__add__, reps)
            for key in keys:
                found = map(key, found)
            found = list(found)
            try:
                vals = list(map(values.__getitem__, found))
            except KeyError:
                for k in found:
                    if k not in values:
                        values[k] = _integral(evaluate(k))
                vals = list(map(values.__getitem__, found))
            cache[p] = vals
        if ids is not None:
            vals = list(map(vals.__getitem__, ids))
        block = vals if block is None else list(map(mul, block, vals))
    return [1] * width if block is None else block


def _pairing(cat, kets: list, alpha: Evaluation, boundary) -> list[list]:
    """Gram rows: entry (i, j) evaluates the bra of ket j after ket i.

    Each ket is read as its own bra (`_views`).  The shapes are matchings,
    traced into strands by `_strands`, and the reference splices
    `transpose(kets[j])` after `kets[i]`, so an entry missing a value names
    the class the splice names first (loops before intervals, each in
    `repr` order).  One ket per matching is transposed first, so that a
    cross-object arc fails before any value is read.

    A strand is valued at the composite it reads, and its memo starts
    from a table of those values.  Over the free monoid its key is the
    word it reads, the decorations concatenated, and its memos start from
    copies of the evaluation's tables by word, which keep a table's
    default; any other word the table lacks is resolved through its loop
    class (`loop_class`, its least rotation) or, on the free monoid's own
    boundary (`enumerate_kets`), its interval class.
    Over a finite monoid its key is its labels, and the loop memo starts
    from every chain of each length read whose composite, folded through
    the Cayley table, has a valued class (`_chain_values`).  Any other key
    is resolved through its class on a miss.
    """
    items = [_views(k) for k in kets]
    for k in dict(zip((shape for shape, _decs in items), kets)).values():
        transpose(k)
    free = isinstance(cat, FreeMonoidCategory)
    # per strand kind and objects, its values; a free monoid's one object
    # is 0, and its memos start from copies of the evaluation's word tables
    memo: dict = {("loop", 0): alpha.loop_words.copy(),
                  ("interval", 0, 0): alpha.interval_words.copy(),
                  } if free else {}
    as_word = (chain.from_iterable, tuple) if free else ()  # labels to word
    seeded: set = set()  # the chain lengths a monoid's loop memo holds

    def loop_strand(base, picks):
        values = memo.setdefault(("loop", base), {})
        if isinstance(cat, MonoidCategory) and len(picks) not in seeded:
            seeded.add(len(picks))
            values.update(_chain_values(cat, alpha, len(picks)))

        def evaluate(key):  # a word is a chain of one label
            return alpha.loop(cat.loop_class(base, (key,) if free else key))
        return picks, (itemgetter(*picks), *as_word), values, evaluate

    def interval_strand(start, end, picks):
        def evaluate(word):  # the class of the interval that reads it
            return alpha.interval(boundary.interval_class(end, (), word))
        return (picks, (itemgetter(*picks), *as_word),
                memo.setdefault(("interval", start, end), {}), evaluate)

    def template(ket_wiring, col_wiring):  # a bra arc runs head to tail
        bra_wiring = (tuple((h, t) for t, h in col_wiring[0]), col_wiring[1])
        intervals, loops = _strands(kets[0].target, ket_wiring, bra_wiring)
        return ([interval_strand(*strand) for strand in intervals]
                + [loop_strand(*strand) for strand in loops])

    return _template_gram(
        items, template,
        lambda i, j: evaluate_closed(compose(transpose(kets[j]), kets[i]),
                                     alpha),
        ("pairing", "splice"))


def _chain_values(cat, alpha: Evaluation, k: int) -> dict:
    """Each chain of k labels over a `MonoidCategory` whose composite has
    a valued class, valued at it, an int when integral: the per-element
    values pushed through the Cayley table, |M|^k chains.  A chain whose
    class has no value is left out, so that it misses and the splice
    names it."""
    n, table = cat.monoid.size, cat.monoid.table
    value = []
    for g in range(n):
        lp = cat.loop_class(0, (g,))
        value.append(_integral(alpha.loop_values[lp])
                     if lp in alpha.loop_values else None)
    composites = range(n)  # of the chains in `product` order
    for _ in range(k - 1):  # a chain's last label varies fastest
        composites = list(chain.from_iterable(
            map(table.__getitem__, composites)))
    return {c: v for c, v in zip(iproduct(range(n), repeat=k),
                                 map(value.__getitem__, composites))
            if v is not None}


def state_space_field(cat, obj, alpha: Evaluation, boundary=None,
                      cap_words: int = 4) -> StateSpace:
    kets = enumerate_kets(cat, obj, boundary, cap_words)
    gram = Matrix(_pairing(cat, kets, alpha, boundary))
    return StateSpace(tuple(obj), kets, gram, rank(gram), cap_words)


def _sub_gram(gram: Matrix, keep: Sequence[int]) -> Matrix:
    """The principal sub-Gram on the indices `keep`, in their order."""
    return Matrix.from_ints([[gram.ints[i][j] for j in keep] for i in keep],
                            gram.den)


def restrict_state_space(ss: StateSpace, cat, cap_words: int) -> StateSpace:
    """The state space at a smaller cap_words, read off `ss.gram`: no
    diagram is enumerated or paired again.  Its kets are those of `ss`
    whose labels are all words up to the cap, in their order, which is the
    order of a fresh `enumerate_kets`: the shortlex words up to c are a
    prefix of those up to C >= c (at c < 0, the empty word alone), the
    matchings do not depend on the cap, and `iproduct` runs in the
    lexicographic order of its slots' indices.  A larger cap needs kets
    `ss` lacks.  When the kets are all of them, as for a category whose
    labels do not depend on the cap, it is a copy of `ss` with the new cap
    that shares its kets and Gram, not ranked again."""
    words = _cap_labels(cat, cap_words)
    if words is None:
        return ss._replace(cap_words=cap_words)
    if cap_words > ss.cap_words:
        raise SpanningMismatch(
            "a diagram is missing from the larger spanning set")
    words = set(words)
    keep = [i for i, k in enumerate(ss.spanning) if words.issuperset(
        lab for *_, lab in k.arcs + k.half_intervals)]
    if len(keep) == len(ss.spanning):
        return ss._replace(cap_words=cap_words)
    gram = _sub_gram(ss.gram, keep)
    return StateSpace(ss.object, [ss.spanning[i] for i in keep], gram,
                      rank(gram), cap_words)


def _join_irreducible_count(rows: list[tuple]) -> int:
    """Rows not recovered as the union of the strictly smaller distinct rows."""
    def join_below(r):
        below = [s for s in rows if s != r and all(map(le, s, r))]
        return tuple(map(max, zip(*below))) if below else (0,) * len(r)
    return sum(join_below(r) != r for r in rows)


def state_space_boolean(cat, obj, alpha: Evaluation, boundary=None,
                        cap_words: int = 4) -> BooleanStateSpace:
    kets = enumerate_kets(cat, obj, boundary, cap_words)
    rows = [tuple(1 if v else 0 for v in row)
            for row in _pairing(cat, kets, alpha, boundary)]
    states = sorted(set(rows))
    return BooleanStateSpace(tuple(obj), kets, rows, states, len(states),
                             _join_irreducible_count(states), cap_words)


# ---------------------------------------------------------------------------
# weighted automata (the Hankel pairing, reduced exactly)


class WeightedAutomaton:
    """initial (row) -> transitions per letter -> final (column), over Q;
    row vectors go through the letters as the rows of `Matrix` products."""

    def __init__(self, initial: Sequence, transitions: Mapping[str, Matrix],
                 final: Sequence):
        self.initial = _fractions(initial)
        self.transitions = dict(transitions)
        self.final = _fractions(final)
        self.dimension = len(self.initial)
        if len(self.final) != self.dimension:
            raise ValueError("initial and final lengths differ")
        for a, m in self.transitions.items():
            if not m.rows == m.cols == self.dimension:
                raise ValueError(f"bad shape at {a!r}")


def _forward_reduce(a: WeightedAutomaton) -> WeightedAutomaton:
    """Restrict to the row space reachable from the initial vector.

    Vectors are met in breadth-first order and added to one `_Echelon`
    as int rows, whose positive scale the elimination divides out: each
    round multiplies the vectors it added by each letter in one product
    and meets the images vector by vector, letters in order.  Each basis
    vector is a pivot row scaled to 1 at its pivot: the one vector of the
    span so far that is 1 there and 0 at every earlier pivot.
    Coordinates on that basis are read off the elimination.  Only a
    vector that enlarged the basis is expanded: a dependent vector's
    images combine the images of the basis vectors before it, which come
    earlier in the same order, so they would enlarge nothing.
    """
    init, s = _cleared(a.initial)
    span, letters = _Echelon(), sorted(a.transitions.items())
    added = [init] if span.add_ints(init) else []
    while added:
        vectors = Matrix.from_ints(added)
        images = [(vectors * m).ints for _, m in letters]
        added = [v for vs in zip(*images) for v in vs if span.add_ints(v)]
    if not span.pivots:  # a zero initial vector reaches nothing
        return WeightedAutomaton((), {c: Matrix([]) for c, _ in letters}, ())
    basis = Matrix([[Fraction(x, p) for x in y] for _, p, y in span.pivots])
    images = {c: basis * m for c, m in letters}
    trans = {c: Matrix([span.coordinates(x, im.den) for x in im.ints])
             for c, im in images.items()}
    final = (Matrix([a.final]) * basis.transpose()).row(0)
    return WeightedAutomaton(span.coordinates(init, s), trans, final)


def _reverse(a: WeightedAutomaton) -> WeightedAutomaton:
    return WeightedAutomaton(
        a.final, {letter: m.transpose() for letter, m in a.transitions.items()},
        a.initial)


def hankel_minimize(a: WeightedAutomaton) -> WeightedAutomaton:
    """Exact minimization: forward reduction, then the same on the reversal."""
    return _reverse(_forward_reduce(_reverse(_forward_reduce(a))))


# ---------------------------------------------------------------------------
# 2d cobordism state spaces


class PartitionDiagram(NamedTuple):
    """Partition of circles {1..m} into blocks, each block carrying a genus."""

    m: int
    blocks: tuple  # tuple of sorted tuples
    genus: tuple  # one count per block

    @classmethod
    def make(cls, m: int, blocks, genus) -> "PartitionDiagram":
        normalized = [tuple(sorted(b)) for b in blocks]
        genus_in = list(genus)
        if len(genus_in) != len(normalized):
            raise ValueError("one genus per block required")
        pairs = sorted(zip(normalized, genus_in))
        seen = sorted(c for b in normalized for c in b)
        if seen != list(range(1, m + 1)):
            raise ValueError("blocks must partition 1..m")
        return cls(m, tuple(b for b, _ in pairs), tuple(g for _, g in pairs))


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def glue_partition_diagrams(d1: PartitionDiagram, d2: PartitionDiagram,
                            alpha_seq: Sequence) -> Fraction:
    """Glue along the m circles; product of genus values over components.

    Each connected component of the block-circle bipartite graph contributes
    alpha_seq[total genus], where total genus sums the blocks' genera plus
    the component's first Betti number E - V + 1.
    """
    if d1.m != d2.m:
        raise ValueError("circle counts differ")
    nodes = [(1, i) for i in range(len(d1.blocks))] + \
            [(2, j) for j in range(len(d2.blocks))]
    uf = _UnionFind()

    def block_of(d, tag, c):
        for i, b in enumerate(d.blocks):
            if c in b:
                return (tag, i)
        raise ValueError(f"circle {c} missing from partition")

    edges = []
    for c in range(1, d1.m + 1):
        u = block_of(d1, 1, c)
        v = block_of(d2, 2, c)
        edges.append((u, v))
        uf.union(u, v)

    comp_v: dict = {}
    comp_e: dict = {}
    comp_g: dict = {}
    for v in nodes:
        r = uf.find(v)
        comp_v[r] = comp_v.get(r, 0) + 1
        tag, i = v
        comp_g[r] = comp_g.get(r, 0) + (d1 if tag == 1 else d2).genus[i]
    for u, _v in edges:
        r = uf.find(u)
        comp_e[r] = comp_e.get(r, 0) + 1

    out = Fraction(1)
    for r in comp_v:
        g = comp_g.get(r, 0) + comp_e.get(r, 0) - comp_v[r] + 1
        if g >= len(alpha_seq):
            raise SequenceTooShort(
                f"need genus value {g}, have {len(alpha_seq)}")
        out = out * alpha_seq[g]
    return out


def _gluing(blocks1: tuple, blocks2: tuple) -> list[tuple]:
    """The components of two partitions of the same circles glued along
    them, as (positions of their blocks' genera, first Betti number E - V +
    1); positions index the genera of `blocks1`, then those of `blocks2`."""
    n1 = len(blocks1)
    block2 = {c: n1 + j for j, b in enumerate(blocks2) for c in b}
    uf = _UnionFind()
    for i, b in enumerate(blocks1):
        for c in b:
            uf.union(i, block2[c])
    parts: dict = {}
    for node in range(n1 + len(blocks2)):
        parts.setdefault(uf.find(node), []).append(node)
    return [(tuple(nodes),
             sum(len(blocks1[i]) for i in nodes if i < n1) - len(nodes) + 1)
            for nodes in parts.values()]


def _cob2_gram_rows(spanning: list, alpha_seq: Sequence) -> tuple[list, int]:
    """Int Gram rows of `spanning` and their scale: entry (i, j) is the
    gluing of diagrams i and j times the scale.  The shapes are
    partitions, glued into components by `_gluing`, each valued by its
    total genus, and the reference is `glue_partition_diagrams`.

    A component's genus is at most 2 s + m - 1, s the largest genus sum
    of a diagram, so only the values below 2 s + m are cleared, once, by
    the lcm D of their denominators: a component's value is the int
    D alpha_seq[genus], and the scale is D^m.  A template of c <= m
    components carries D^(m - c) on its first component.  Each memo, one
    per first Betti number and power of D, is keyed by the sum of the
    component's block genera and starts from every cleared value; a
    genus past the end of the sequence misses and raises
    `SequenceTooShort`."""
    m = max((d.m for d in spanning), default=0)
    top = 2 * max((sum(d.genus) for d in spanning), default=0) + m
    den = lcm(*[x.denominator for x in alpha_seq[:top]])
    cleared = [x.numerator * (den // x.denominator) for x in alpha_seq[:top]]
    memos: dict = {}  # (betti, power of D) -> (values, evaluate)

    def component(betti, power):
        if (betti, power) not in memos:
            def evaluate(genus):
                raise SequenceTooShort(f"need genus value {genus + betti}, "
                                       f"have {len(alpha_seq)}")
            factor = den ** (power - 1)
            memos[betti, power] = ({g: v * factor for g, v in
                                    enumerate(cleared[betti:])}, evaluate)
        return memos[betti, power]

    def template(blocks1, blocks2):
        parts = _gluing(blocks1, blocks2)
        extra = sum(map(len, blocks1)) - len(parts)  # the power m - c
        return [(positions, (itemgetter(*positions), sum),
                 *component(betti, 1 + extra if k == 0 else 1))
                for k, (positions, betti) in enumerate(parts)]

    scale = den ** m
    return _template_gram(
        [(d.blocks, d.genus) for d in spanning], template,
        lambda i, j: scale * glue_partition_diagrams(spanning[i], spanning[j],
                                                     alpha_seq),
        ("gluing", "gluing")), scale


# Most spanning diagrams a cob2 state space is built from.  The Gram takes
# size^2 gluings and its rank about size^3 steps, so a job file of a few
# bytes (m = 14 has Bell(14) > 10^8 partitions) could otherwise ask for any
# amount of time; m = 3 at genus cap 4 (205 diagrams) is over.  It counts
# diagrams, not entry size, which the surface values set: a 9.4 KB job at
# m = 1, genus cap 89 (90 diagrams, Gram entries of about 300 bits) takes
# 14-18 s in process on a 2 GHz Xeon vCPU.  The faster rank this needs is a
# certified modular rank, on word-size residues.
COB2_MAX_SPANNING = 100


def cob2_spanning_size(m: int, genus_cap: int) -> int:
    """len(cob2_spanning(m, genus_cap)) = sum_k S(m, k) (genus_cap + 1)^k,
    S the Stirling numbers of the second kind, while it is at most
    COB2_MAX_SPANNING.

    The rows S(n, .) are built for n = 0, 1, ..., m.  The size grows with
    n (circle n may always be a block of its own), so the first row whose
    size passes COB2_MAX_SPANNING ends the count: that size, a lower bound
    above the constant, is returned, and any m costs a few rows.
    """
    if m < 0:
        raise ValueError(f"circle count must be nonnegative, got {m}")
    if genus_cap < 0:
        raise ValueError(f"genus cap must be nonnegative, got {genus_cap}")
    n, row, size = 0, [1], 1  # row[k] = S(n, k)
    while n < m and size <= COB2_MAX_SPANNING:
        n, prev = n + 1, row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)]
        size = sum(s * (genus_cap + 1) ** k for k, s in enumerate(row))
    return size


def cob2_spanning(m: int, genus_cap: int) -> list[PartitionDiagram]:
    if m < 0:
        raise ValueError(f"circle count must be nonnegative, got {m}")
    out = []
    for blocks in _partitions(list(range(1, m + 1))):
        blocks_t = tuple(sorted(tuple(sorted(b)) for b in blocks))
        for genus in iproduct(range(genus_cap + 1), repeat=len(blocks_t)):
            out.append(PartitionDiagram.make(m, blocks_t, genus))
    return out


def cob2_state_space(m: int, alpha_seq: Sequence, genus_cap: int
                     ) -> tuple[int, bool]:
    """Dimension of the circle-count-m state space, plus a stabilization
    flag: whether the diagrams below the genus cap span as much.  A
    spanning set above COB2_MAX_SPANNING is rejected before it is built."""
    if cob2_spanning_size(m, genus_cap) > COB2_MAX_SPANNING:
        raise ValueError(
            f"spanning set of {m} circles at genus cap {genus_cap} has more "
            f"than {COB2_MAX_SPANNING} diagrams")
    spanning = cob2_spanning(m, genus_cap)
    gram = Matrix.from_ints(*_cob2_gram_rows(spanning, alpha_seq))
    dim = rank(gram)
    if genus_cap < 1:
        return dim, False
    # the diagrams below the cap are among these: compare a principal sub-Gram
    below = [i for i, d in enumerate(spanning)
             if max(d.genus, default=0) < genus_cap]
    return dim, dim == rank(_sub_gram(gram, below))
