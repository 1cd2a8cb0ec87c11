"""Decorated oriented matchings: the free rigid symmetric envelope of a category.

Objects are signed sequences ((X, +1), (Y, -1), ...) of objects of a base
category C.  A morphism from one signed sequence to another is drawn as a
diagram, but since every crossing is virtual the whole isotopy class is
captured by combinatorial data:

  * endpoints are indexed 0..(|source| + |target| - 1), source entries first;
  * each endpoint has an *effective* sign: a target entry keeps its sign, a
    source entry negates it (reading the diagram bottom-to-top, a positive
    source strand leaves the boundary, a positive target strand arrives);
  * strand segments are arcs (tail, head, label) with the tail at an
    effective minus, the head at an effective plus, and label a morphism of
    C from the tail's object to the head's object;
  * with boundary data attached, an endpoint may instead carry a
    half-interval: a strand with a free inner end decorated by a right-set
    element (at effective plus) or a left-set element (at effective minus);
  * components without endpoints float freely: loops (canonical closed
    chains of C-morphisms) and interval classes (left/right element pairs).

Cups, caps, curls, and orientation reversals are all just matchings here, so
the rigid-category identities hold by construction; composition is splicing
of matchings, which composes labels along each chain, closes some chains
into loops, and absorbs morphisms into boundary elements.

Formal rational combinations of diagrams with common source and target make
the enveloping linear category, where the antisymmetrizer lives.  The
package never expands it: antisymmetrized traces run on the trace
recursion in `pseudochar`, and state spaces enumerate their kets
directly.  So the package needs two operations on diagrams: `compose`
and `transpose`, which pair two kets into a closed diagram.  The rest
of the rigid structure (tensor, the half-turn rotation, closing up an
endomorphism), the generators (identities, cups, caps, permutation
diagrams), the formal sums and the antisymmetrizer live in
`tests/oracles.py`, as the references the package is tested against.
"""

from __future__ import annotations

from .errors import DomainError
from .fincat import compose_path

PLUS = 1
MINUS = -1


class ObjectMismatch(DomainError):
    """Composition interface disagrees."""


def _float_key(x):
    return repr(x)


class BrauerMorphism:
    """One decorated matching.  Immutable; equality/hash are structural.

    `cat` (and `boundary`, when present) ride along for operations but are
    not part of the identity of the diagram.
    """

    __slots__ = ("cat", "boundary", "source", "target", "arcs",
                 "half_intervals", "loops", "intervals")

    def __init__(self, cat, source, target, arcs, half_intervals=(),
                 loops=(), intervals=(), boundary=None):
        self.cat = cat
        self.boundary = boundary
        self.source = tuple((x, s) for x, s in source)
        self.target = tuple((x, s) for x, s in target)
        self.arcs = tuple(sorted(((t, h, lab) for t, h, lab in arcs),
                                 key=lambda a: (a[0], a[1])))
        self.half_intervals = tuple(sorted(half_intervals))
        self.loops = tuple(sorted(loops, key=_float_key))
        self.intervals = tuple(sorted(intervals, key=_float_key))
        self._validate()

    @property
    def n_endpoints(self) -> int:
        return len(self.source) + len(self.target)

    def endpoint_object(self, e: int):
        if e < len(self.source):
            return self.source[e][0]
        return self.target[e - len(self.source)][0]

    def endpoint_eff(self, e: int) -> int:
        """Effective sign: target keeps its sign, source negates it."""
        if e < len(self.source):
            return -self.source[e][1]
        return self.target[e - len(self.source)][1]

    def _validate(self):
        seen = [0] * self.n_endpoints
        for t, h, lab in self.arcs:
            seen[t] += 1
            seen[h] += 1
            if self.endpoint_eff(t) != MINUS:
                raise ValueError(f"arc tail at {t} is not eff -")
            if self.endpoint_eff(h) != PLUS:
                raise ValueError(f"arc head at {h} is not eff +")
            if self.cat.source(lab) != self.endpoint_object(t):
                raise ValueError(
                    f"label {lab!r} does not start at endpoint {t}'s object")
            if self.cat.target(lab) != self.endpoint_object(h):
                raise ValueError(
                    f"label {lab!r} does not end at endpoint {h}'s object")
        for e, _elem in self.half_intervals:
            seen[e] += 1
            if self.boundary is None:
                raise ValueError("half-interval without boundary data")
        if not all(c == 1 for c in seen):
            raise ValueError("endpoints not covered exactly once")
        for lp in self.loops:
            if lp.base not in self.cat.objects:
                raise ValueError(f"loop base {lp.base!r} is not an object")

    def __eq__(self, other):
        if isinstance(other, BrauerMorphism):
            return (self.source == other.source and self.target == other.target
                    and self.arcs == other.arcs
                    and self.half_intervals == other.half_intervals
                    and self.loops == other.loops
                    and self.intervals == other.intervals)
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.arcs,
                     self.half_intervals, self.loops, self.intervals))

    def is_closed(self) -> bool:
        return self.n_endpoints == 0

    def __repr__(self):
        return (f"BrauerMorphism(src={self.source}, tgt={self.target}, "
                f"arcs={self.arcs}, half={self.half_intervals}, "
                f"loops={self.loops}, intervals={self.intervals})")


# ---------------------------------------------------------------------------
# splicing


def _chains(arcs, half, wire, outer, eff_of):
    """The chains of a wired-up node graph, in the order the splice meets them.

    arcs: tail node -> (head node, label); half: node -> boundary element;
    wire: interface node <-> partner node; outer: node -> composite endpoint
    index.  Chains run tail-to-head through arcs and across wires.  Returns
    (start node, end node, labels) per chain: first those from outer
    endpoints (an untouched half-interval has no labels), then those from
    right-element inner ends, each ending at an outer effective-plus
    endpoint or a left-element inner end, then the closed loops, which end
    where they start.
    """
    chains = []
    used: set = set()

    def run(start, h, labels):
        """Arrived at effective-plus node h; walk until the chain ends."""
        while h not in outer:
            p = wire[h]
            if p in half or p == start:  # an inner end, or round a loop
                h = p
                break
            h, lab = arcs[p]
            used.add(p)
            labels.append(lab)
        chains.append((start, h, labels))

    for n in sorted(outer):
        if n in half:
            chains.append((n, n, []))  # untouched half-interval
        elif n in arcs:  # else a head side, reached from the other end
            h, lab = arcs[n]
            used.add(n)
            run(n, h, [lab])
    for n in sorted(k for k in half if k not in outer):
        if eff_of(n) != MINUS:  # left elements only end chains
            run(n, n, [])
    for n in sorted(arcs):
        if n not in used:
            h, lab = arcs[n]
            used.add(n)
            run(n, h, [lab])
    return chains


def _splice_run(cat, boundary, arcs, half, wire, outer, obj_of, eff_of):
    """Compose the labels of each chain of `_chains` into composite (arcs,
    half_intervals, loops, intervals): absorbed into the boundary element
    at an inner end, and into a loop class on a closed chain."""
    out_arcs, out_half, loops, intervals = [], [], [], []
    for start, end, labels in _chains(arcs, half, wire, outer, eff_of):
        if start in outer and start in half:  # untouched half-interval
            out_half.append((outer[start], half[start]))
        elif start in outer or start in half:
            beta = compose_path(cat, labels, at=obj_of(start))
            if start in outer and end in outer:
                out_arcs.append((outer[start], outer[end], beta))
            elif start in outer:
                out_half.append((outer[start], boundary.gl(beta, half[end])))
            elif end in outer:
                out_half.append((outer[end], boundary.gr(beta, half[start])))
            else:
                intervals.append(boundary.interval_class(
                    obj_of(end), half[end], boundary.gr(beta, half[start])))
        else:
            loops.append(cat.loop_class(obj_of(start), labels))
    return out_arcs, out_half, loops, intervals


def compose(d2: BrauerMorphism, d1: BrauerMorphism) -> BrauerMorphism:
    """Splice d1's target onto d2's source (d1 is traversed first)."""
    if d1.cat is not d2.cat:
        raise ValueError("compose across different categories")
    if d1.target != d2.source:
        raise ObjectMismatch(f"interface mismatch: {d1.target} vs {d2.source}")
    cat, boundary = d1.cat, d1.boundary
    ns1, nt1, ns2 = len(d1.source), len(d1.target), len(d2.source)

    arcs = {(1, t): ((1, h), lab) for t, h, lab in d1.arcs}
    arcs.update({(2, t): ((2, h), lab) for t, h, lab in d2.arcs})
    half = {(1, e): g for e, g in d1.half_intervals}
    half.update({(2, e): g for e, g in d2.half_intervals})
    wire = {}
    for k in range(nt1):
        a, b = (1, ns1 + k), (2, k)
        wire[a], wire[b] = b, a
    outer = {(1, i): i for i in range(ns1)}
    outer.update({(2, ns2 + j): ns1 + j for j in range(len(d2.target))})

    def obj_of(n):
        owner, e = n
        return (d1 if owner == 1 else d2).endpoint_object(e)

    def eff_of(n):
        owner, e = n
        return (d1 if owner == 1 else d2).endpoint_eff(e)

    out_arcs, out_half, loops, intervals = _splice_run(
        cat, boundary, arcs, half, wire, outer, obj_of, eff_of)
    return BrauerMorphism(
        cat, d1.source, d2.target, out_arcs, out_half,
        d1.loops + d2.loops + tuple(loops),
        d1.intervals + d2.intervals + tuple(intervals), boundary=boundary)


def transpose(d: BrauerMorphism) -> BrauerMorphism:
    """Duality: swap source and target, reversing every strand.

    Arc labels and boundary elements are kept, so each arc must connect an
    object to itself (automatic in one-object categories, which is where
    pairings live).
    """
    ns, nt = len(d.source), len(d.target)

    def remap(e: int) -> int:
        return e + nt if e < ns else e - ns

    arcs = []
    for t, h, lab in d.arcs:
        if d.endpoint_object(t) != d.endpoint_object(h):
            raise DomainError("transpose needs same-object strands")
        arcs.append((remap(h), remap(t), lab))
    half = [(remap(e), g) for e, g in d.half_intervals]
    return BrauerMorphism(d.cat, d.target, d.source, arcs, half,
                          d.loops, d.intervals, boundary=d.boundary)
