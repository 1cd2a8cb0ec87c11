"""`statespaces` workload: ket enumeration, Gram assembly and Gram rank.

Each round runs `statespace` on group characters at 2- and 4-strand
objects and on free-monoid loop tables (traces of words in two 2x2
matrices, some with interval tables), next to `boolean-statespace`,
`automaton-minimize` and `cob2-dim` jobs.  The Gram oracle closes every
ket against every bra itself, following the strands, and takes the rank
modulo a 61-bit prime.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import exact
import groups
from jobs import (Job, distinct, expect_equal, from_pool, load_report,
                  require)

LETTERS = "ab"
OBJ2 = [[0, 1], [0, -1]]
# the six orders of two +1 and two -1 strands
OBJ4 = tuple([[0, s] for s in signs] for signs in
             ((1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1),
              (-1, 1, 1, -1), (-1, -1, 1, 1), (-1, 1, -1, 1)))


def _words(cap: int):
    out = [()]
    for n in range(1, cap + 1):
        out += list(product(range(len(LETTERS)), repeat=n))
    return out


def _text(word) -> str:
    return "".join(LETTERS[i] for i in word)


# ---------------------------------------------------------------------------
# the Gram oracle


def _matchings(signs, with_halves: bool):
    """Every pairing of a -1 endpoint (tail) with a +1 endpoint (head);
    with halves, any endpoint may instead end in a half-interval."""
    out = []

    def rec(free, arcs, halves):
        if not free:
            out.append((tuple(arcs), tuple(halves)))
            return
        e, rest = free[0], free[1:]
        for o in rest:
            if signs[o] != signs[e]:
                t, h = (e, o) if signs[e] == -1 else (o, e)
                rec([u for u in rest if u != o], arcs + [(t, h)], halves)
        if with_halves:
            rec(rest, arcs, halves + [e])

    rec(list(range(len(signs))), [], [])
    return out


def _kets(signs, labels, with_halves):
    kets = []
    for arcs, halves in _matchings(signs, with_halves):
        for choice in product(labels, repeat=len(arcs) + len(halves)):
            kets.append(({t: (h, lab) for (t, h), lab in zip(arcs, choice)},
                         {e: g for e, g in zip(halves, choice[len(arcs):])}))
    return kets


def _pair(ket, bra, signs, loop_value, interval_value):
    """Value of the closed diagram bra-of-`bra` after `ket`.

    Strands run tail to head through ket arcs and head to tail through bra
    arcs, crossing between the two at every endpoint; words are read in
    that direction.  A strand that ends in half-intervals is an interval
    reading (start element, labels, end element); the rest are loops.
    """
    k_arcs, k_half = ket
    b_arcs, b_half = bra
    b_by_head = {h: (t, lab) for t, (h, lab) in b_arcs.items()}
    value = 1
    seen = set()
    # open strands start at a ket half on a +1 endpoint or a bra half on -1
    starts = [("k", e) for e in k_half if signs[e] == 1]
    starts += [("b", e) for e in b_half if signs[e] == -1]
    for side, e in starts:
        word = list(k_half[e] if side == "k" else b_half[e])
        while True:
            if side == "k":  # cross to the bra at e, a +1 endpoint
                if e in b_half:
                    word += b_half[e]
                    break
                e, lab = b_by_head[e]
                side = "b"
            else:  # cross to the ket at e, a -1 endpoint
                if e in k_half:
                    word += k_half[e]
                    break
                seen.add(e)
                e, lab = k_arcs[e]
                side = "k"
            word += lab
        value *= interval_value(tuple(word))
    for t0 in k_arcs:
        if t0 in seen:
            continue
        labels, t = [], t0
        while True:
            seen.add(t)
            h, lab = k_arcs[t]
            t, lab2 = b_by_head[h]
            labels += [lab, lab2]
            if t == t0:
                break
        value *= loop_value(labels)
    return value


def _gram_rank(signs, labels, with_halves, loop_value, interval_value):
    kets = _kets(signs, labels, with_halves)
    gram = [[_pair(k, b, signs, loop_value, interval_value) for b in kets]
            for k in kets]
    return len(kets), exact.rank_mod_p(gram)


# ---------------------------------------------------------------------------
# statespace on group characters


def _monoid_statespace(rng, group, obj, mults):
    """The character sum k_name * chi_name on a relabelled copy, with each
    k_name drawn from the span mults[name].

    The Gram rank, and with it the cost, depends on the character, so the
    costly 4-strand slots fix it and vary only the relabelling.
    """
    m = group.relabel(rng)
    mults = {name: rng.randint(*span) for name, span in mults.items()}
    alpha = m.character(mults)
    doc = dict(m.doc(), alpha=[str(v) for v in alpha], object=obj)
    return Job("statespace", doc, "statespace_monoid",
               {"table": m.table, "alpha": alpha})


def _check_statespace_monoid(job, code, out):
    r = load_report(code, out, 0)
    table, alpha = job.expect["table"], job.expect["alpha"]
    signs = [s for _, s in job.doc["object"]]

    def loop_value(labels):
        g = 0
        for lab in labels:
            g = table[g][lab]
        return alpha[g]

    n_kets, rank = _gram_rank(signs, range(len(table)), False, loop_value, None)
    expect_equal(r, {"command": "statespace", "object": job.doc["object"],
                     "spanning_size": n_kets, "gram_rows": n_kets,
                     "gram_cols": n_kets, "rank": rank, "stabilized": True,
                     "cap_words": 4})


# ---------------------------------------------------------------------------
# statespace on free-monoid loop tables


def _word_matrices(mats, cap):
    """rho(w) for every word of length <= cap, w read left to right."""
    out = {(): exact.ID2}
    for w in _words(cap):
        if w:
            out[w] = exact.mul2(out[w[:-1]], mats[w[-1]])
    return out


def _trace(m) -> int:
    return m[0][0] + m[1][1]


def _sandwich(u, m, v) -> int:
    return sum(u[i] * m[i][j] * v[j] for i in range(2) for j in range(2))


def _free_statespace(rng, obj, cap, with_intervals):
    while True:  # words of length <= 2 span M_2, so the Gram rank is steady
        mats = [tuple(tuple(rng.randint(-1, 1) for _ in range(2))
                      for _ in range(2)) for _ in LETTERS]
        rho = _word_matrices(mats, 2)
        if exact.rank_q([m[0] + m[1] for m in rho.values()]) == 4:
            break
    u = [rng.randint(-1, 2) for _ in range(2)]
    v = [rng.randint(-1, 2) for _ in range(2)]
    # a loop reads at most one label per endpoint; an interval also reads
    # the two half-interval elements at its ends
    n = len(obj)
    longest = (n + 1) * cap if with_intervals else n * cap
    rho = _word_matrices(mats, longest)
    doc = {"free_monoid": {"letters": LETTERS},
           "loops": {_text(w): str(_trace(rho[w])) for w in _words(n * cap)},
           "object": obj}
    if with_intervals:
        doc["intervals"] = {_text(w): str(_sandwich(u, rho[w], v))
                            for w in _words(longest)}
    return Job("statespace", doc, "statespace_free",
               {"mats": mats, "u": u, "v": v}, ("--cap-words", str(cap)))


def _check_statespace_free(job, code, out):
    r = load_report(code, out, 0)
    cap = int(job.flags[1])
    e = job.expect
    signs = [s for _, s in job.doc["object"]]
    with_halves = "intervals" in job.doc
    rho = _word_matrices(e["mats"], (len(signs) + 1) * cap)

    def loop_value(labels):
        return _trace(rho[sum(labels, ())])

    def interval_value(word):
        return _sandwich(e["u"], rho[word], e["v"])

    n_kets, rank = _gram_rank(signs, _words(cap), with_halves, loop_value,
                              interval_value)
    _, rank_below = _gram_rank(signs, _words(cap - 1), with_halves, loop_value,
                               interval_value)
    expect_equal(r, {"command": "statespace", "object": job.doc["object"],
                     "spanning_size": n_kets, "gram_rows": n_kets,
                     "gram_cols": n_kets, "rank": rank,
                     "stabilized": rank_below == rank, "cap_words": cap})


# ---------------------------------------------------------------------------
# boolean-statespace: residual languages of a finite language


def _boolean(rng, cap):
    pool = [w for w in _words(cap - 1)]
    accepted = sorted({_text(w) for w in pool if rng.random() < 0.4})
    return Job("boolean-statespace", {"alphabet": LETTERS, "accepted": accepted},
               "boolean", {}, ("--cap-words", str(cap)))


def _min_dfa_size(accepted, alphabet):
    """States of the minimal complete DFA: subset construction on the
    word-chain NFA, then Moore partition refinement."""
    words = list(accepted)
    start = frozenset((i, 0) for i in range(len(words)))
    dfa, todo = {}, [start]
    while todo:
        s = todo.pop()
        if s in dfa:
            continue
        dfa[s] = {}
        for a in alphabet:
            t = frozenset((i, k + 1) for i, k in s
                          if k < len(words[i]) and words[i][k] == a)
            dfa[s][a] = t
            todo.append(t)
    accepting = {s: any(k == len(words[i]) for i, k in s) for s in dfa}
    block = {s: int(accepting[s]) for s in dfa}
    while True:
        sig = {s: (block[s],) + tuple(block[dfa[s][a]] for a in alphabet)
               for s in dfa}
        ids = {v: i for i, v in enumerate(sorted(set(sig.values())))}
        new = {s: ids[sig[s]] for s in dfa}
        if len(set(new.values())) == len(set(block.values())):
            return len(ids)
        block = new


def _check_boolean(job, code, out):
    r = load_report(code, out, 0)
    cap = int(job.flags[1])
    accepted = set(job.doc["accepted"])
    words = [_text(w) for w in _words(cap)]
    rows = sorted({tuple(int(u + v in accepted) for v in words) for u in words})
    residuals = [frozenset(v for v, bit in zip(words, row) if bit) for row in rows]
    irreducible = 0
    for res in residuals:
        below = [s for s in residuals if s < res]
        if frozenset().union(*below) != res:
            irreducible += 1
    require(len(rows) == _min_dfa_size(accepted, LETTERS),
            "residual count is not the minimal DFA size")
    expect_equal(r, {"command": "boolean-statespace", "alphabet": LETTERS,
                     "object": [[0, 1]], "spanning_size": len(words),
                     "n_states": len(rows), "n_join_irreducible": irreducible,
                     "states": ["".join(map(str, row)) for row in rows],
                     "cap_words": cap})


# ---------------------------------------------------------------------------
# automaton-minimize: weights and Hankel rank


def _automaton(rng, dim):
    """A reachable part of size dim - 1 or dim - 2 plus unreachable states."""
    live = dim - rng.randint(1, 2)
    rnd = lambda: Fraction(rng.randint(-2, 2))
    initial = [rnd() for _ in range(live)] + [Fraction(0)] * (dim - live)
    final = [rnd() for _ in range(dim)]
    transitions = {}
    for a in LETTERS:
        m = [[rnd() for _ in range(dim)] for _ in range(dim)]
        for i in range(live, dim):
            for j in range(live):
                m[i][j] = Fraction(0)
        transitions[a] = [exact.strs(row) for row in m]
    doc = {"automaton": {"initial": exact.strs(initial),
                         "transitions": transitions, "final": exact.strs(final)}}
    return Job("automaton-minimize", doc, "automaton")


def _prefix_vectors(body, cap):
    """initial * M_w for every word w of length <= cap."""
    out = {(): [Fraction(x) for x in body["initial"]]}
    mats = [[[Fraction(x) for x in row] for row in body["transitions"][a]]
            for a in LETTERS]
    for w in _words(cap):
        if w:
            v, m = out[w[:-1]], mats[w[-1]]
            out[w] = [sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0))
                      for j in range(len(m[0]) if m else 0)]
    return out


def _suffix_vectors(body, cap):
    """M_w * final for every word w of length <= cap."""
    out = {(): [Fraction(x) for x in body["final"]]}
    mats = [[[Fraction(x) for x in row] for row in body["transitions"][a]]
            for a in LETTERS]
    for w in _words(cap):
        if w:
            v, m = out[w[1:]], mats[w[0]]
            out[w] = [sum((m[i][j] * v[j] for j in range(len(v))), Fraction(0))
                      for i in range(len(m))]
    return out


def _dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def _check_automaton(job, code, out):
    r = load_report(code, out, 0)
    body = job.doc["automaton"]
    dim = len(body["initial"])
    got = r["automaton"]
    n = len(got["initial"])
    require(set(got) == {"initial", "transitions", "final"}
            and len(got["final"]) == n
            and sorted(got["transitions"]) == list(LETTERS)
            and all(len(m) == n and all(len(row) == n for row in m)
                    for m in got["transitions"].values()),
            "minimized automaton has inconsistent shapes")
    final, got_final = ([Fraction(x) for x in b["final"]] for b in (body, got))
    before = _prefix_vectors(body, 6)
    for w, v in _prefix_vectors(got, 6).items():
        require(_dot(v, got_final) == _dot(before[w], final),
                f"minimized weight differs on {_text(w)!r}")
    # Hankel rank over prefixes and suffixes of length < dim
    fwd, bwd = _prefix_vectors(body, dim - 1), _suffix_vectors(body, dim - 1)
    hankel = [[_dot(u, v) for v in bwd.values()] for u in fwd.values()]
    expect_equal(r, {"command": "automaton-minimize", "dimension_before": dim,
                     "dimension_after": exact.rank_mod_p(hankel), "automaton": got})


# ---------------------------------------------------------------------------


S3 = groups.symmetric3()
C3, C4 = groups.cyclic(3), groups.cyclic(4)


def _small_group_4(group):
    return lambda rng: _monoid_statespace(rng, group, rng.choice(OBJ4),
                                          {"rot": (1, 3), "triv": (0, 2)})


def _group_2(group):
    def make(rng):
        while True:
            job = _monoid_statespace(rng, group, OBJ2,
                                     {n: (0, 3) for n in group.irreps})
            if any(job.expect["alpha"]):
                return job
    return make


ROUND_SECONDS = 2.2  # a round's wall time, about, on a 2 GHz Xeon vCPU


def make_round(rng, used: set, pool) -> list:
    """30 jobs.  Three are 72- or 98-ket Grams and p90 falls just below
    them, on the 2-strand interval Gram; more than half are 2-strand,
    Boolean, automaton and cob2 jobs of a few ms, so p50 falls inside that
    group.  Each slot fixes its group or monoid, because that sets the
    Gram size: the S3 standard character's cost does not depend on the
    seed, and a loop-table Gram's varies with the matrices drawn, which
    the slot median over rounds evens out."""
    jobs = [
        distinct(lambda r: _monoid_statespace(r, S3, r.choice(OBJ4),
                                              {"std": (1, 1)}), used, rng)
        for _ in range(2)
    ] + [
        distinct(lambda r: _free_statespace(r, r.choice(OBJ4), 2, False), used, rng),
        distinct(_small_group_4(C3), used, rng),
        distinct(_small_group_4(C4), used, rng),
        distinct(lambda r: _free_statespace(r, r.choice(OBJ4), 1, False), used, rng),
        distinct(lambda r: _free_statespace(r, OBJ2, 2, False), used, rng),
        distinct(lambda r: _free_statespace(r, OBJ2, 3, False), used, rng),
        distinct(lambda r: _free_statespace(r, [[0, 1]], 3, True), used, rng),
        distinct(lambda r: _free_statespace(r, OBJ2, 2, True), used, rng),
    ]
    for group in (S3, S3, S3, S3, C4, C4, C4):
        jobs.append(distinct(_group_2(group), used, rng))
    for cap in (3,) * 4 + (4,):
        jobs.append(distinct(lambda r: _boolean(r, cap), used, rng))
    for dim in (3,) * 4 + (4, 5):
        jobs.append(distinct(lambda r: _automaton(r, dim), used, rng))
    for m in (1, 2):
        jobs.append(from_pool(pool, used, rng, command="cob2-dim", m=m))
    return jobs


CHECKS = {
    "statespace_monoid": _check_statespace_monoid,
    "statespace_free": _check_statespace_free,
    "boolean": _check_boolean,
    "automaton": _check_automaton,
}
