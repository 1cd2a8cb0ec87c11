"""`surfaces` workload: Frobenius algebras and genus generating functions.

Each round runs seeded classification data through the full chain
witness -> frobenius-validate -> genfun -> classify at fixed witness
dimensions, plus classify rejections (two with 12- or 13-digit constant
terms, priced by trial division), and pih-solve / pih-check jobs.  Every
input is built here from known data, so each report is checked against
values computed without the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import exact
from jobs import (Job, distinct, expect_equal, expect_reject, load_report,
                  require)

# (witness dimension, nilpotent block size m, distinct poles) of the chains
# in one round.  The shapes are fixed so that the cost of a round hardly
# depends on the seed, which only draws mu, the poles and multiplicities.
CHAIN_SHAPES = ((3, 0, 2), (4, 2, 2), (5, 0, 3), (6, 2, 3), (8, 3, 4),
                (12, 2, 5))
POLE_CHOICES = tuple(sorted({Fraction(n, d) for n in range(-5, 6) if n
                             for d in (1, 2, 3) if d == 1 or abs(n) < 4}))
INTEGER_POLES = tuple(lam for lam in POLE_CHOICES if lam.denominator == 1)


def _pole_key(lam: Fraction):
    return (lam.numerator, lam.denominator)


def _draw_classification(rng, dim: int, m: int, k: int):
    """(mu, m, poles) with k poles and witness dimension dim."""
    rest = dim - m
    lams = sorted(rng.sample(POLE_CHOICES, k), key=_pole_key)
    mults = [1] * k
    for _ in range(rest - k):
        mults[rng.randrange(k)] += 1
    mu = Fraction(0) if m == 0 else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return mu, m, list(zip(lams, mults))


def _genfun(mu, m, poles):
    """mu + m T + sum mult/lam / (1 - lam T) as a reduced num/den pair."""
    den = [Fraction(1)]
    for lam, _ in poles:
        den = exact.poly_mul(den, [1, -lam])
    num = exact.poly_mul(exact.poly_trim([mu, m]), den)
    for i, (lam, mult) in enumerate(poles):
        others = [Fraction(1)]
        for j, (lam2, _) in enumerate(poles):
            if j != i:
                others = exact.poly_mul(others, [1, -lam2])
        num = exact.poly_add(num, exact.poly_scale(others, Fraction(mult) / lam))
    return num, den


def _witness_blocks(mu, m, poles):
    """Counit of each factor Q[x]/x^k of the witness product algebra."""
    blocks = []
    if m >= 2:
        counit = [Fraction(0)] * m
        counit[0] = Fraction(mu)
        counit[m - 1] = Fraction(1)
        blocks.append(counit)
    for lam, mult in poles:
        blocks.extend([[1 / lam]] * mult)
    return blocks


def _witness_algebra(blocks):
    """Block-diagonal structure constants of prod_i Q[x]/x^(m_i)."""
    n = sum(len(b) for b in blocks)
    structure = [[[0] * n for _ in range(n)] for _ in range(n)]
    unit, counit = [], []
    at = 0
    for b in blocks:
        size = len(b)
        for i in range(size):
            for j in range(size):
                if i + j < size:
                    structure[at + i][at + j][at + i + j] = 1
        unit += [1] + [0] * (size - 1)
        counit += b
        at += size
    return {"dim": n,
            "structure": [[[str(x) for x in r] for r in p] for p in structure],
            "unit": [str(x) for x in unit], "counit": exact.strs(counit)}


def _handle(blocks):
    """h = sum_ij (G^-1)_ij e_i e_j per block, G_ij = eps(e_i e_j)."""
    out = []
    for counit in blocks:
        size = len(counit)
        g = [[counit[i + j] if i + j < size else Fraction(0)
              for j in range(size)] for i in range(size)]
        ginv = exact.inverse_q(g)
        h = [Fraction(0)] * size
        for i in range(size):
            for j in range(size):
                if i + j < size:
                    h[i + j] += ginv[i][j]
        out += h
    return out


def _classification_json(mu, m, poles):
    return {"mu": str(mu), "m": m, "poles": [[str(lam), mult] for lam, mult in poles]}


def _chain(rng, shape):
    mu, m, poles = _draw_classification(rng, *shape)
    cls = _classification_json(mu, m, poles)
    blocks = _witness_blocks(mu, m, poles)
    algebra = _witness_algebra(blocks)
    num, den = _genfun(mu, m, poles)
    genfun = {"num": exact.strs(num), "den": exact.strs(den)}
    expect = {"mu": mu, "m": m, "poles": poles}
    return [
        Job("witness", {"classification": cls}, "witness", expect),
        Job("frobenius-validate", {"frobenius": algebra}, "validate", expect),
        Job("genfun", {"frobenius": algebra}, "genfun", expect),
        Job("classify", {"genfun": genfun}, "classify", expect),
    ]


def _check_witness(job, code, out):
    e = job.expect
    r = load_report(code, out, 0)
    algebra = _witness_algebra(_witness_blocks(e["mu"], e["m"], e["poles"]))
    expect_equal(r, {"command": "witness", "dim": algebra["dim"],
                     "frobenius": algebra})


def _check_validate(job, code, out):
    e = job.expect
    r = load_report(code, out, 0)
    blocks = _witness_blocks(e["mu"], e["m"], e["poles"])
    h = _handle(blocks)
    counit = [x for b in blocks for x in b]
    genus_one = sum((x * c for x, c in zip(h, counit)), Fraction(0))
    require(genus_one == len(counit), "eps(h) is not the dimension")
    expect_equal(r, {"command": "frobenius-validate", "ok": True,
                     "dim": len(counit), "handle": exact.strs(h),
                     "genus_one_value": str(genus_one)})


def _check_genfun(job, code, out):
    e = job.expect
    r = load_report(code, out, 0)
    num, den = _genfun(e["mu"], e["m"], e["poles"])
    dim = e["m"] + sum(mult for _, mult in e["poles"])
    expect_equal(r, {"command": "genfun", "dim": dim,
                     "genfun": {"num": exact.strs(num), "den": exact.strs(den)},
                     "display": exact.format_ratfun(num, den)})


def _check_classify(job, code, out):
    e = job.expect
    r = load_report(code, out, 0)
    num, den = _genfun(e["mu"], e["m"], e["poles"])
    expect_equal(r, {"command": "classify",
                     "classification": _classification_json(
                         e["mu"], e["m"], e["poles"]),
                     "display": exact.format_ratfun(num, den)})


def _check_reject(job, code, out):
    expect_reject(load_report(code, out, 1), "Reject", job.expect["reason"])


# ---------------------------------------------------------------------------
# rejections


def _reject_m1(rng):
    mu = Fraction(rng.randint(-5, 5))
    poles = [(lam, rng.randint(1, 3)) for lam in
             sorted(rng.sample(POLE_CHOICES, rng.randint(1, 3)), key=_pole_key)]
    num, den = _genfun(mu, 1, poles)
    return Job("classify", {"genfun": {"num": exact.strs(num),
                                       "den": exact.strs(den)}},
               "reject", {"reason": "M1Forbidden"})


def _reject_witness_m1(rng):
    poles = [(lam, rng.randint(1, 3)) for lam in
             sorted(rng.sample(POLE_CHOICES, rng.randint(1, 3)), key=_pole_key)]
    cls = _classification_json(Fraction(rng.randint(-5, 5)), 1, poles)
    return Job("witness", {"classification": cls}, "reject",
               {"reason": "M1Forbidden"})


def _reject_multiple_pole(rng):
    lams = rng.sample(POLE_CHOICES, rng.randint(1, 3))
    den = [Fraction(1)]
    for lam in lams + [lams[0]]:
        den = exact.poly_mul(den, [1, -lam])
    num = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))]
    return Job("classify", {"genfun": {"num": exact.strs(num),
                                       "den": exact.strs(den)}},
               "reject", {"reason": "MultiplePole"})


def _reject_nonsplit(rng, constant: int | None = None):
    """1 + b T + c T^2 with no rational root, times a split factor.

    With `constant`, the quadratic is 1 + T^2 / constant and the split
    factor has an integer root, so the rational root search runs trial
    division up to sqrt(constant), twice.
    """
    if constant is None:
        while True:
            b, c = rng.randint(-4, 4), rng.randint(1, 6)
            disc = b * b - 4 * c
            if disc < 0 or int(disc ** 0.5) ** 2 != disc:
                break
        quad = [Fraction(1), Fraction(b), Fraction(c)]
    else:
        quad = [Fraction(1), Fraction(0), Fraction(1, constant)]
    lams = POLE_CHOICES if constant is None else INTEGER_POLES
    den = exact.poly_mul(quad, [1, -rng.choice(lams)])
    num = [Fraction(rng.choice([-2, -1, 1, 2, 5]))]
    return Job("classify", {"genfun": {"num": exact.strs(num),
                                       "den": exact.strs(den)}},
               "reject", {"reason": "NonSplitDenominator"})


# ---------------------------------------------------------------------------
# confluent solves and (p, h, iota) checks


def _pih_solve(rng):
    k = rng.randint(1, 3)
    lams = rng.sample(POLE_CHOICES, k)
    blocks = [[str(lam), rng.randint(1, 2), str(Fraction(rng.randint(1, 4)))]
              for lam in lams]
    doc = {"blocks": blocks}
    if rng.random() < 0.75:
        doc["alpha1"] = str(sum(Fraction(b[2]) for b in blocks)
                            + rng.choice([0, 1, 2, 3]))
    return Job("pih-solve", doc, "pih_solve")


def _confluent(blocks):
    total = sum(n for _, n, _ in blocks)
    return [[comb(n + 1, j) * lam ** (n + 1 - j)
             for lam, size, _ in blocks for j in range(size)]
            for n in range(1, total + 1)]


def _check_pih_solve(job, code, out):
    doc = job.doc
    r = load_report(code, out, 0)
    blocks = [(Fraction(l), int(n), Fraction(mu)) for l, n, mu in doc["blocks"]]
    total = sum(n for _, n, _ in blocks)
    rvec = [sum((mu * lam ** n for lam, _, mu in blocks), Fraction(0))
            for n in range(1, total + 1)]
    gamma = []
    for lam, size, mu in blocks:
        gamma += [mu / lam] + [Fraction(0)] * (size - 1)
    d = exact.det_q(_confluent(blocks))
    magnitude = Fraction(1)
    for lam, n, _ in blocks:
        magnitude *= lam ** (2 * n)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            magnitude *= (blocks[i][0] - blocks[j][0]) ** (blocks[i][1] * blocks[j][1])
    require(abs(d) == abs(magnitude), "det breaks the closed form")
    verdict = None
    if "alpha1" in doc:
        excess = Fraction(doc["alpha1"]) - sum(mu for _, _, mu in blocks)
        verdict = ("consistent" if excess == 0 or excess >= 2 else "inconsistent")
    expect_equal(r, {"command": "pih-solve",
                     "blocks": [[str(l), n, str(mu)] for l, n, mu in blocks],
                     "r": exact.strs(rvec), "gamma": exact.strs(gamma),
                     "verdict": verdict, "det": str(d),
                     "unit": str(d / magnitude)})


def _pih_check(rng, violate: bool):
    k = rng.randint(1, 3)
    lams = rng.sample(POLE_CHOICES, k)
    h = [[lams[i] if i == j else Fraction(0) for j in range(k)] for i in range(k)]
    p = [Fraction(rng.choice([1, 2, 3, -1])) for _ in range(k)]
    iota = [1 / (lam * pi) for lam, pi in zip(lams, p)]
    # alpha_n = p h^n iota and alpha_(n+1) = tr(h^n) agree for diagonal h
    seq = [sum((pi * lam ** n * io for pi, lam, io in zip(p, lams, iota)),
               Fraction(0)) for n in range(2 * k + 3)]
    if violate:
        seq[rng.randrange(len(seq))] += rng.choice([-1, 1])
    doc = {"pih": {"p": exact.strs(p), "h": [exact.strs(r) for r in h],
                   "iota": exact.strs(iota)},
           "alpha": exact.strs(seq)}
    return Job("pih-check", doc, "pih_check")


def _check_pih_check(job, code, out):
    doc = job.doc
    r = load_report(code, out, 0)
    body = doc["pih"]
    p = [Fraction(x) for x in body["p"]]
    iota = [Fraction(x) for x in body["iota"]]
    h = [[Fraction(x) for x in row] for row in body["h"]]
    seq = [Fraction(x) for x in doc["alpha"]]
    dim = len(h)
    violation = None
    power = exact.identity(dim)
    for n in range(2 * dim + 2):
        phi = sum((p[i] * power[i][j] * iota[j]
                   for i in range(dim) for j in range(dim)), Fraction(0))
        if phi != seq[n]:
            violation = {"n": n, "which": "phi"}
            break
        if exact.mat_trace(power) != seq[n + 1]:
            violation = {"n": n, "which": "trace"}
            break
        power = exact.mat_mul(power, h)
    expect_equal(r, {"command": "pih-check", "dim": dim,
                     "ok": violation is None, "first_violation": violation})


# ---------------------------------------------------------------------------


ROUND_SECONDS = 2.5  # a round's wall time, about, on a 2 GHz Xeon vCPU


def make_round(rng, used: set, pool) -> list:
    """46 jobs.  More than half are small (a few ms: rejections, pih jobs,
    classify), so p50 falls inside that group; p90 falls between the
    12-digit rejection and the dimension-8 genfun, below the 13-digit
    rejection and the three costly dimension-12 steps.  Every slot has a seed-independent cost."""
    jobs = []
    for shape in CHAIN_SHAPES:
        while True:
            chain = _chain(rng, shape)
            keys = [j.key() for j in chain]
            if not used.intersection(keys):
                used.update(keys)
                jobs += chain
                break
    for make in ((_reject_witness_m1, _reject_m1, _reject_multiple_pole) * 2
                 + (_reject_nonsplit,) * 2):
        jobs.append(distinct(make, used, rng))
    # 12- and 13-digit constants: trial division to about 1e6 and 2e6
    jobs.append(distinct(lambda r: _reject_nonsplit(
        r, r.randrange(9 * 10 ** 11, 10 ** 12)), used, rng))
    jobs.append(distinct(lambda r: _reject_nonsplit(
        r, r.randrange(4 * 10 ** 12, 41 * 10 ** 11)), used, rng))
    for _ in range(6):
        jobs.append(distinct(_pih_solve, used, rng))
    for violate in (False,) * 4 + (True,) * 2:
        jobs.append(distinct(lambda r: _pih_check(r, violate), used, rng))
    return jobs


CHECKS = {
    "witness": _check_witness,
    "validate": _check_validate,
    "genfun": _check_genfun,
    "classify": _check_classify,
    "reject": _check_reject,
    "pih_solve": _check_pih_solve,
    "pih_check": _check_pih_check,
}
