"""`traces` workload: antisymmetrized traces and their permutation sums.

Each round runs `pseudochar-degree` on characters built as nonnegative sums
of irreducibles of S3, C3-C5 and a truncated free monoid, with known
degrees 2-5, beside `pseudochar-charpoly`, `pseudochar-lift` against the
S3 table (feasible and infeasible), `holonomy` at walk caps 3-5 and
`cob2-pseudo`.  Characters come from explicit representations, so the
degree, the polynomial and the lift are known before the program runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import exact
import groups
from jobs import (Job, distinct, expect_equal, expect_reject, from_pool,
                  load_report, require)

S3 = groups.symmetric3()
C3, C4, C5 = groups.cyclic(3), groups.cyclic(4), groups.cyclic(5)
T2, T3 = groups.truncated(2), groups.truncated(3)
MAX_DEGREE = 6


def _degree_of(m: groups.Monoid, mults: dict) -> int:
    return sum(k * len(m.irreps[name][0]) for name, k in mults.items())


def _draw_mults(rng, m, degree: int):
    """Multiplicities of the irreducibles of m adding up to `degree`."""
    names = sorted(m.irreps)
    while True:
        mults = {n: rng.randint(0, degree) for n in names}
        if _degree_of(m, mults) == degree:
            return {n: k for n, k in mults.items() if k}


# ---------------------------------------------------------------------------
# pseudochar-degree


def _degree_job(rng, m, degree, mults=None):
    m = m.relabel(rng)
    mults = mults or _draw_mults(rng, m, degree)
    doc = dict(m.doc(), pseudocharacter=m.pseudochar(m.character(mults), rng))
    return Job("pseudochar-degree", doc, "degree",
               {"d": degree, "size": m.size})


def _check_degree(job, code, out):
    r = load_report(code, out, 0)
    d, n = job.expect["d"], job.expect["size"]
    # Level k < d stops at its first tuple (the identity k+1 times, whose
    # trace d(d-1)...(d-k) is nonzero); level d checks every multiset.
    expect_equal(r, {"command": "pseudochar-degree", "d": d,
                     "witness": [0] * d,
                     "tuples_checked": d + comb(n + d, d + 1),
                     "max_degree": MAX_DEGREE})


# ---------------------------------------------------------------------------
# pseudochar-charpoly


def _charpoly_job(rng, m, degree):
    m = m.relabel(rng)
    mults = _draw_mults(rng, m, degree)
    x = rng.randrange(m.size)
    doc = dict(m.doc(), pseudocharacter=m.pseudochar(m.character(mults), rng),
               x=x, d=degree)
    return Job("pseudochar-charpoly", doc, "charpoly",
               {"rep": m.rep(mults), "table": m.table, "x": x, "d": degree})


def _check_charpoly(job, code, out):
    r = load_report(code, out, 0)
    e = job.expect
    mx = e["rep"][e["x"]]
    power_traces = [exact.mat_trace(exact.mat_pow(mx, k)) for k in range(1, e["d"] + 1)]
    want = exact.charpoly_from_power_traces(power_traces, e["d"])
    got = [Fraction(c) for c in r["coeffs"]]
    zero = [[0] * len(mx) for _ in mx]
    require(exact.poly_at_matrix(got, mx) == zero,
            "the polynomial does not annihilate the representation matrix")
    expect_equal(r, {"command": "pseudochar-charpoly", "x": e["x"], "d": e["d"],
                     "coeffs": exact.strs(want),
                     "display": exact.format_poly(want, "t")})


# ---------------------------------------------------------------------------
# pseudochar-lift against the S3 table


S3_TABLE_ORDER = ("triv", "sign", "std")


def _lift_job(rng, feasible: bool):
    m = S3.relabel(rng)
    if feasible:
        coeffs = [Fraction(rng.randint(0, 3)) for _ in S3_TABLE_ORDER]
        if not any(coeffs):
            coeffs[2] = Fraction(1)
    else:
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                  for _ in S3_TABLE_ORDER]
        if all(c.denominator == 1 and c >= 0 for c in coeffs):
            coeffs[rng.randrange(3)] = Fraction(-1)
    alpha = [sum((c * v for c, v in zip(coeffs, vals)), Fraction(0))
             for vals in zip(*(m.character({n: 1}) for n in S3_TABLE_ORDER))]
    doc = dict(m.doc(), pseudocharacter=m.pseudochar(alpha),
               table=[m.pseudochar(m.character({n: 1})) for n in S3_TABLE_ORDER])
    return Job("pseudochar-lift", doc, "lift", {"coeffs": coeffs})


def _check_lift(job, code, out):
    coeffs = job.expect["coeffs"]
    if all(c.denominator == 1 and c >= 0 for c in coeffs):
        r = load_report(code, out, 0)
        expect_equal(r, {"command": "pseudochar-lift",
                         "multiplicities": [int(c) for c in coeffs]})
        return
    r = load_report(code, out, 1)
    expect_reject(r, "Infeasible")
    require(r.get("solution") == exact.strs(coeffs),
            f"solution {r.get('solution')} != {exact.strs(coeffs)}")


# ---------------------------------------------------------------------------
# holonomy


def _invertible(rng):
    """A 2x2 integer matrix with entries in -2..2 and determinant +-1."""
    while True:
        (a, b), (c, d) = m = tuple(tuple(rng.randint(-2, 2) for _ in range(2))
                                   for _ in range(2))
        if a * d - b * c in (1, -1):
            return m


def _walks(edges, cap):
    """Trace table keyed by least rotation, and the list of distinct
    products of the closed walks based at vertex 0, in discovery order."""
    table, based = {}, []

    def walk(path, product):
        if edges[path[-1]][1] == edges[path[0]][0]:
            key = ",".join(map(str, exact.least_rotation(tuple(path))))
            table.setdefault(key, str(product[0][0] + product[1][1]))
            if edges[path[0]][0] == 0 and product not in based:
                based.append(product)
        if len(path) < cap:
            for ei, (s, _t, m) in enumerate(edges):
                if s == edges[path[-1]][1]:
                    walk(path + [ei], exact.mul2(product, m))

    for ei, (_s, _t, m) in enumerate(edges):
        walk([ei], m)
    return table, based


# closed walks at vertex 0 of length <= cap in the graph below: tilings of
# the length by the loop (1) and the round trip 0->1->0 (2)
BASED_WALKS = {3: 6, 4: 11, 5: 19}


def _holonomy_job(rng, cap):
    """Edges 0->1, 1->0 and a loop at 0.  The degree search runs over all
    triples of distinct closed-walk matrices at the base, so the shape is
    fixed and the matrices are drawn until every based walk gives a
    different matrix other than the identity: the search size, and with it
    the cost, is then the same for every seed."""
    while True:
        edges = [[0, 1, _invertible(rng)], [1, 0, _invertible(rng)],
                 [0, 0, _invertible(rng)]]
        _, based = _walks(edges, cap)
        if len(based) == BASED_WALKS[cap] and exact.ID2 not in based:
            break
    doc = {"graph": {"n_vertices": 2,
                     "edges": [[s, t, [[str(x) for x in r] for r in m]]
                               for s, t, m in edges]}}
    return Job("holonomy", doc, "holonomy", {"edges": edges},
               ("--cap-words", str(cap)))


def _check_holonomy(job, code, out):
    r = load_report(code, out, 0)
    cap = int(job.flags[1])
    table, based = _walks(job.expect["edges"], cap)
    n_mats = 1 + sum(1 for m in based if m != exact.ID2)
    identity = [["1", "0"], ["0", "1"]]
    # the identity leads the matrix list: levels 0 and 1 stop at their first
    # tuple, level 2 checks every multiset of the based walk matrices
    expect_equal(r, {"command": "holonomy", "base": 0, "dimension": 2, "d": 2,
                     "tuples_checked": 2 + comb(n_mats + 2, 3),
                     "witness": [identity, identity], "table": table,
                     "max_len": cap})


# ---------------------------------------------------------------------------


ROUND_SECONDS = 2.2  # a round's wall time, about, on a 2 GHz Xeon vCPU


def make_round(rng, used: set, pool) -> list:
    """27 jobs.  The C5 degree, the cap-5 holonomy and the S3 degree-4
    search are the costliest three, and p90 falls between the last of
    them and the cap-4 holonomy; more than half are lifts and degree-2/3
    searches of a few ms, so p50 falls inside that group.  Each slot fixes
    its monoid and degree, because those set the search size."""
    jobs = [
        distinct(lambda r: _degree_job(r, S3, 2), used, rng),
        distinct(lambda r: _degree_job(r, S3, 3), used, rng),
        distinct(lambda r: _degree_job(r, S3, 4), used, rng),
        distinct(lambda r: _degree_job(r, C4, 3), used, rng),
        distinct(lambda r: _degree_job(r, C4, 4), used, rng),
        # the regular character of C5: its level-6 check is the costliest
        # job, so its support is fixed; relabelling and class order vary
        distinct(lambda r: _degree_job(r, C5, 5, {"triv": 1, "rot": 1}),
                 used, rng),
        distinct(lambda r: _degree_job(r, T3, 3), used, rng),
        distinct(lambda r: _degree_job(r, T3, 4), used, rng),
        distinct(lambda r: _charpoly_job(r, S3, 3), used, rng),
        distinct(lambda r: _charpoly_job(r, C3, 4), used, rng),
        distinct(lambda r: _degree_job(r, S3, 2), used, rng),
        distinct(lambda r: _degree_job(r, T2, 2), used, rng),
    ]
    for feasible in (True,) * 7 + (False,) * 3:
        jobs.append(distinct(lambda r: _lift_job(r, feasible), used, rng))
    for cap in (3, 4, 5):
        jobs.append(distinct(lambda r: _holonomy_job(r, cap), used, rng))
    for d in (2, 3):
        jobs.append(from_pool(pool, used, rng, command="cob2-pseudo", d=d))
    return jobs


CHECKS = {
    "degree": _check_degree,
    "charpoly": _check_charpoly,
    "lift": _check_lift,
    "holonomy": _check_holonomy,
}
