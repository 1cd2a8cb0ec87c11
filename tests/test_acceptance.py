"""End-to-end gate: one test per shipped guarantee, exact equality throughout.

Each test covers one headline behavior of the library, re-deriving expected
values from independent routes (hand expansions, matrix traces, Hankel
ranks, subset constructions, tensor contractions) rather than from the code
under test, and enforces a wall-clock budget.
"""

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from loopcat.diagrams import (
    MINUS,
    PLUS,
    BrauerMorphism,
    compose,
)
from loopcat.fincat import (
    FiniteMonoid,
    FreeBoundary,
    FreeMonoidCategory,
    IntervalClass,
    MonoidCategory,
    TableCategory,
    conjugacy_classes,
    cyclic_group,
    symmetric_group,
)
from loopcat.frobenius import (
    ClassificationData,
    Reject,
    classify_genfun,
    generating_function,
    handle_element,
    pih_solve,
    product_algebra,
    surface_eval,
    truncated_poly_algebra,
    validate,
    witness_synthesis,
)
from loopcat.linalg import (
    Matrix,
    Polynomial,
    RationalFunction,
    rank,
)
from loopcat.pseudochar import (
    PseudoCharacter,
    RepData,
    alpha_charpoly,
    antisym_trace,
    char_of_rep,
    degree,
    degree_additivity_check,
)
from loopcat.statespaces import (
    Evaluation,
    cob2_spanning,
    cob2_state_space,
    evaluate_closed,
    evaluation_from_monoid,
    glue_partition_diagrams,
    state_space_boolean,
    state_space_field,
)
from oracles import (antisym_trace_boundary, classification_genfun, close_up,
                     column_inverse, fraction_eps, fraction_multiply,
                     perm_diagram, perm_sign, tensor)

X = 0


# --- shared constructions ----------------------------------------------------


def random_frobenius(rng: random.Random, max_dim: int = 4):
    """Random product of truncated-polynomial blocks; always a valid algebra."""
    dim = rng.randint(1, max_dim)
    parts = []
    left = dim
    while left:
        m = rng.randint(1, left)
        counit = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(m)]
        counit[m - 1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                                 rng.randint(1, 3))
        parts.append(truncated_poly_algebra(m, counit))
        left -= m
    return reduce(product_algebra, parts)


def truncated_free_monoid(letters: str, cutoff: int):
    """Free monoid on `letters`, words past `cutoff` collapsed to a zero."""
    words = [""]
    frontier = [""]
    for _ in range(cutoff):
        frontier = [w + c for w in frontier for c in letters]
        words.extend(frontier)
    words.append("#")
    index = {w: i for i, w in enumerate(words)}

    def mul(u, v):
        if u == "#" or v == "#" or len(u) + len(v) > cutoff:
            return "#"
        return u + v

    table = [[index[mul(u, v)] for v in words] for u in words]
    return FiniteMonoid(table, 0), index


def perm_matrix(monoid: FiniteMonoid, m: int) -> Matrix:
    return Matrix([[1 if monoid.mul(i, m) == j else 0
                    for j in range(monoid.size)] for i in range(monoid.size)])


def regular_rep(monoid: FiniteMonoid) -> RepData:
    return RepData(monoid, [perm_matrix(monoid, m)
                            for m in range(monoid.size)])


_S3_STD = {
    (0, 1, 2): [[1, 0], [0, 1]],
    (0, 2, 1): [[1, 1], [0, -1]],
    (1, 0, 2): [[-1, 0], [1, 1]],
    (1, 2, 0): [[0, 1], [-1, -1]],
    (2, 0, 1): [[-1, -1], [1, 0]],
    (2, 1, 0): [[0, -1], [-1, 0]],
}


def s3_standard_rep():
    s3 = symmetric_group(3)
    return RepData(s3, [Matrix(_S3_STD[p]) for p in sorted(_S3_STD)]), s3


# --- 1: handle powers against matrix traces -----------------------------------


def test_01_handle_trace_duality() -> None:
    start = time.monotonic()
    rng = random.Random(20260816)
    for _ in range(50):
        fa = random_frobenius(rng)
        validate(fa)
        hd = handle_element(fa)
        element = hd.element
        power = Matrix.identity(fa.dim)
        for _g in range(1, 11):
            assert fraction_eps(fa, element) == power.trace()
            element = fraction_multiply(fa, element, hd.element)
            power = power * hd.matrix
        assert fraction_eps(fa, hd.element) == fa.dim
    assert time.monotonic() - start < 5.0


# --- 2: generating-function closed forms --------------------------------------


def test_02_generating_function_forms() -> None:
    start = time.monotonic()
    for m, mu in [(2, Fraction(7)), (3, Fraction(0)), (4, Fraction(-3, 2)),
                  (5, Fraction(5))]:
        counit = [Fraction(0)] * m
        counit[0] = mu
        counit[m - 1] = Fraction(1)
        rf = generating_function(truncated_poly_algebra(m, counit))
        assert rf.num.coeffs == (mu, Fraction(m))
        assert rf.den.coeffs == (Fraction(1),)
    for gamma in [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5, 3),
                  Fraction(1)]:
        rf = generating_function(truncated_poly_algebra(1, [1 / gamma]))
        assert rf.num.coeffs == (1 / gamma,)
        assert rf.den.coeffs == (Fraction(1), -gamma)
    assert time.monotonic() - start < 1.0


# --- 3: classification round trip ----------------------------------------------


def test_03_classification_round_trip() -> None:
    start = time.monotonic()
    rng = random.Random(3)
    pool = sorted(
        [Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
         Fraction(5, 3), Fraction(-2, 7)],
        key=lambda l: (l.numerator, l.denominator))
    made = 0
    while made < 100:
        m = rng.choice([0, 2, 3, 4])
        k = rng.randint(0, 3)
        if m == 0 and k == 0:
            continue
        lams = sorted(rng.sample(pool, k),
                      key=lambda l: (l.numerator, l.denominator))
        poles = tuple((lam, rng.randint(1, 3)) for lam in lams)
        mu = Fraction(0) if m == 0 else Fraction(rng.randint(-6, 6),
                                                 rng.randint(1, 4))
        cd = ClassificationData(mu, m, poles)
        assert classify_genfun(classification_genfun(cd)) == cd
        assert classify_genfun(generating_function(witness_synthesis(cd))) == cd
        made += 1
    for _ in range(20):
        rf = RationalFunction(
            Polynomial([Fraction(rng.randint(-6, 6)), 1]), Polynomial([1]))
        for lam in rng.sample(pool, rng.randint(0, 2)):
            rf = rf + RationalFunction(
                Polynomial([Fraction(rng.randint(1, 3)) / lam]),
                Polynomial([1, -lam]))
        with pytest.raises(Reject) as err:
            classify_genfun(rf)
        assert err.value.reason == "M1Forbidden"
    assert time.monotonic() - start < 5.0


# --- 4: one-dimensional nilpotent block exclusion -------------------------------


def _compositions(parts: int, budget: int):
    if parts == 0:
        yield ()
        return
    for n in range(1, budget - (parts - 1) + 1):
        for rest in _compositions(parts - 1, budget - n):
            yield (n,) + rest


def test_04_nilpotent_block_exclusion() -> None:
    start = time.monotonic()
    pool = [Fraction(1), Fraction(2), Fraction(3), Fraction(-1),
            Fraction(1, 2)]
    configurations = 0
    for k in range(1, 6):
        for lams in combinations(pool, k):
            for sizes in _compositions(k, 5):
                blocks = [(lam, n, Fraction(i + 1))
                          for i, (lam, n) in enumerate(zip(lams, sizes))]
                excess_one = sum(mult for _l, _n, mult in blocks) + 1
                cs = pih_solve(blocks, alpha1=excess_one)
                expected = []
                for lam, n, mult in blocks:
                    expected.append(mult / lam)
                    expected.extend([Fraction(0)] * (n - 1))
                assert list(cs.gamma) == expected
                assert cs.verdict == "inconsistent"
                assert cs.unit == (-1) ** sum(
                    a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
                assert cs.det != 0
                configurations += 1
    assert configurations == 251
    assert time.monotonic() - start < 10.0


# --- 5: antisymmetrized-trace expansions ----------------------------------------


def test_05_trace_expansion_formulas() -> None:
    start = time.monotonic()
    monoid, idx = truncated_free_monoid("ab", 3)
    classes = conjugacy_classes(monoid)
    rng = random.Random(5)
    a, b = idx["a"], idx["b"]
    for _ in range(20):
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in classes]
        alpha = PseudoCharacter(monoid, values, classes)
        ab = monoid.mul(a, b)
        aa = monoid.mul(a, a)
        aab = monoid.mul(aa, b)
        assert antisym_trace(alpha, (a, b)) == \
            alpha(a) * alpha(b) - alpha(ab)
        assert antisym_trace(alpha, (a, a, b)) == (
            alpha(a) ** 2 * alpha(b) - alpha(aa) * alpha(b)
            - 2 * alpha(a) * alpha(ab) + 2 * alpha(aab))

    fm = FreeMonoidCategory("abcd")
    fb = FreeBoundary(fm)
    x1, x2 = fm.word("a"), fm.word("b")
    y1, z1 = fm.word("c"), fm.word("d")
    interval_words = ["cd", "cad", "cbd", "cabd", "cbad"]
    for _ in range(20):
        va, vb, vab = (Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(3))
        v = {w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for w in interval_words}
        alpha = Evaluation(
            {fm.loop_class(X, [x1]): va, fm.loop_class(X, [x2]): vb,
             fm.loop_class(X, [fm.word("ab")]): vab},
            {fb.interval_class(X, (), fm.word(w)): v[w]
             for w in interval_words})
        got = antisym_trace_boundary(fm, fb, alpha, (x1, x2), [(y1, z1)])
        want = (va * vb * v["cd"] - vab * v["cd"]
                - vb * v["cad"] - va * v["cbd"]
                + v["cabd"] + v["cbad"])
        assert got == want
    assert time.monotonic() - start < 1.0


# --- 6: degree equals representation dimension, dual route per term --------------


def _formula_term(monoid, chi, sigma, tup) -> Fraction:
    seen = [False] * len(tup)
    term = Fraction(perm_sign(sigma))
    for i in range(len(tup)):
        if seen[i]:
            continue
        j = i
        prod = None
        while not seen[j]:
            seen[j] = True
            prod = tup[j] if prod is None else monoid.mul(prod, tup[j])
            j = sigma[j]
        term *= chi(prod)
    return term


def _diagram_term(cat, alpha_eval, sigma, tup) -> Fraction:
    strands = reduce(tensor, (
        BrauerMorphism(cat, ((X, PLUS),), ((X, PLUS),), [(0, 1, g)])
        for g in tup))
    d = close_up(compose(strands, perm_diagram(cat, X, sigma)))
    return perm_sign(sigma) * evaluate_closed(d, alpha_eval)


def test_06_degree_matches_dimension() -> None:
    start = time.monotonic()
    z2, z3 = cyclic_group(2), cyclic_group(3)
    s3_std, s3 = s3_standard_rep()
    cases = [
        (z2, RepData(z2, [Matrix([[1]])] * 2)),
        (z2, RepData(z2, [Matrix([[1]]), Matrix([[-1]])])),
        (z2, regular_rep(z2)),
        (z3, RepData(z3, [Matrix([[1]])] * 3)),
        (z3, regular_rep(z3)),
        (s3, RepData(s3, [Matrix([[1]])] * 6)),
        (s3, RepData(s3, [Matrix([[1 if perm_sign(p) == 1 else -1]])
                          for p in sorted(_S3_STD)])),
        (s3, s3_std),
    ]
    for monoid, rep in cases:
        chi = char_of_rep(rep)
        res = degree(chi, 3)
        assert res.d == rep.dimension
        cat = MonoidCategory(monoid)
        alpha_eval = evaluation_from_monoid(
            cat, [chi(g) for g in range(monoid.size)])
        for level in (res.d, res.d + 1):
            for tup in combinations_with_replacement(range(monoid.size),
                                                     level):
                for sigma in permutations(range(level)):
                    assert _formula_term(monoid, chi, sigma, tup) == \
                        _diagram_term(cat, alpha_eval, sigma, tup)
    assert time.monotonic() - start < 30.0


# --- 7: the extracted polynomial annihilates the matrix --------------------------


def test_07_relative_cayley_hamilton() -> None:
    start = time.monotonic()
    rep, s3 = s3_standard_rep()
    chi = char_of_rep(rep)
    zero = Matrix([[0, 0], [0, 0]])
    rng = random.Random(7)
    for _ in range(20):
        x = rng.randrange(6)
        p = alpha_charpoly(chi, x, 2)
        m = rep.matrices[x]
        acc = zero
        for k, c in enumerate(p.coeffs):
            acc = acc + (m ** k).scale(c)
        assert acc == zero
    assert time.monotonic() - start < 1.0


# --- 8: degree is additive on direct sums ----------------------------------------


def direct_sum_category(m1: FiniteMonoid, m2: FiniteMonoid) -> TableCategory:
    morphisms = {}
    for e in range(m1.size):
        morphisms[("a", e)] = ("X1", "X1")
    for e in range(m2.size):
        morphisms[("b", e)] = ("X2", "X2")
    compose_rule = {}
    for u in range(m1.size):
        for w in range(m1.size):
            compose_rule[(("a", w), ("a", u))] = ("a", m1.mul(u, w))
    for u in range(m2.size):
        for w in range(m2.size):
            compose_rule[(("b", w), ("b", u))] = ("b", m2.mul(u, w))
    return TableCategory(("X1", "X2"), morphisms,
                         {"X1": ("a", m1.identity), "X2": ("b", m2.identity)},
                         lambda g, f: compose_rule[(g, f)])


def _loop_evaluation(cat, chars) -> Evaluation:
    loops = {}
    for tag, chi in chars.items():
        obj = "X1" if tag == "a" else "X2"
        for e in range(chi.monoid.size):
            loops[cat.loop_class(obj, [(tag, e)])] = chi(e)
    return Evaluation(loops)


def test_08_degree_additivity() -> None:
    start = time.monotonic()
    z2 = cyclic_group(2)
    s3_std, s3 = s3_standard_rep()

    cat = direct_sum_category(FiniteMonoid([[0]], 0), s3)
    chars = {"a": PseudoCharacter(FiniteMonoid([[0]], 0), [1]),
             "b": char_of_rep(s3_std)}
    report = degree_additivity_check(cat, _loop_evaluation(cat, chars),
                                     max_d=5)
    assert report.degrees == (1, 2)
    assert report.sum_degree == 3
    assert report.additive

    cat = direct_sum_category(s3, z2)
    chars = {"a": char_of_rep(s3_std), "b": char_of_rep(regular_rep(z2))}
    report = degree_additivity_check(cat, _loop_evaluation(cat, chars),
                                     max_d=5)
    assert report.degrees == (2, 2)
    assert report.sum_degree == 4
    assert report.additive
    assert time.monotonic() - start < 30.0


# --- 9: state-space dimensions against independent oracles -----------------------


def _minimal_dfa_size(nfa, initial, accepting, alphabet) -> int:
    """Subset construction then partition refinement; nfa[(q, a)] = states."""
    start = frozenset(initial)
    seen = {start}
    frontier = [start]
    delta = {}
    while frontier:
        s = frontier.pop()
        for a in alphabet:
            t = frozenset(q2 for q in s for q2 in nfa.get((q, a), ()))
            delta[(s, a)] = t
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    states = sorted(seen, key=lambda s: tuple(sorted(s)))
    label = {s: bool(s & accepting) for s in states}
    while True:
        sigs = {s: (label[s],) + tuple(label[delta[(s, a)]] for a in alphabet)
                for s in states}
        order = {}
        for s in states:
            order.setdefault(sigs[s], len(order))
        relabeled = {s: order[sigs[s]] for s in states}
        if relabeled == label:
            break
        label = relabeled
    return len(set(label.values()))


def test_09_state_space_dimensions() -> None:
    start = time.monotonic()
    # regular character of Z/2 at a strand pair
    cat = MonoidCategory(cyclic_group(2))
    alpha = evaluation_from_monoid(cat, [2, 0])
    ss = state_space_field(cat, ((X, PLUS), (X, MINUS)), alpha)
    assert ss.dimension == 2

    # circle-count-1 state spaces against Hankel ranks
    ones = [Fraction(1)] * 12
    split_fa = product_algebra(truncated_poly_algebra(1, [1]),
                               truncated_poly_algebra(1, [Fraction(1, 2)]))
    split = [surface_eval(split_fa, g) for g in range(12)]
    for seq, want in ((ones, 1), (split, 2)):
        assert cob2_state_space(1, seq, 4) == (want, True)
        hankel = Matrix([[seq[g1 + g2] for g2 in range(5)]
                         for g1 in range(5)])
        assert rank(hankel) == want

    # words ending in the first letter: residual rows vs subset construction
    fm = FreeMonoidCategory("ab")
    fb = FreeBoundary(fm)
    cap = 3
    table = {IntervalClass(X, (), w): Fraction(1 if w and w[-1] == 0 else 0)
             for w in fm.words_up_to(2 * cap)}
    bss = state_space_boolean(fm, ((X, PLUS),), Evaluation({}, table),
                              fb, cap)
    nfa = {(0, "a"): {0, 1}, (0, "b"): {0}}
    oracle = _minimal_dfa_size(nfa, {0}, {1}, "ab")
    assert bss.n_states == oracle == 2
    assert time.monotonic() - start < 10.0


# --- 10: gluing bookkeeping equals tensor contraction ----------------------------


def _block_value_fn(fa):
    hd = handle_element(fa)
    h_pow = [fa.unit]
    for _ in range(2):
        h_pow.append(fraction_multiply(fa, h_pow[-1], hd.element))
    basis = [tuple(Fraction(i == k) for i in range(fa.dim))
             for k in range(fa.dim)]
    memo = {}

    def value(genus: int, idxs: tuple) -> Fraction:
        key = (genus, tuple(sorted(idxs)))
        if key not in memo:
            vec = h_pow[genus]
            for k in key[1]:
                vec = fraction_multiply(fa, vec, basis[k])
            memo[key] = fraction_eps(fa, vec)
        return memo[key]

    return value


def _tensor_glue(fa, ginv, d1, d2, block_value) -> Fraction:
    m = d1.m
    total = Fraction(0)
    for left in product(range(fa.dim), repeat=m):
        for right in product(range(fa.dim), repeat=m):
            w = Fraction(1)
            for c in range(m):
                w *= ginv[left[c]][right[c]]
            if w == 0:
                continue
            for blocks, genus, assign in ((d1.blocks, d1.genus, left),
                                          (d2.blocks, d2.genus, right)):
                for blk, g in zip(blocks, genus):
                    w *= block_value(g, tuple(assign[c - 1] for c in blk))
            total += w
    return total


def test_10_gluing_oracle_equivalence() -> None:
    start = time.monotonic()
    algebras = [
        truncated_poly_algebra(2, [3, 1]),
        truncated_poly_algebra(3, [7, 0, 1]),
        product_algebra(truncated_poly_algebra(1, [1]),
                        truncated_poly_algebra(1, [Fraction(1, 2)])),
        reduce(product_algebra,
               [truncated_poly_algebra(1, [Fraction(1, d)])
                for d in (1, 2, 3)]),
        product_algebra(truncated_poly_algebra(2, [0, 1]),
                        truncated_poly_algebra(1, [2])),
    ]
    for fa in algebras:
        validate(fa)
        alpha_seq = [surface_eval(fa, g) for g in range(12)]
        ginv = column_inverse(fa.gram()).entries
        block_value = _block_value_fn(fa)
        for m in (1, 2):
            spanning = cob2_spanning(m, 2)
            for d1 in spanning:
                for d2 in spanning:
                    assert glue_partition_diagrams(d1, d2, alpha_seq) == \
                        _tensor_glue(fa, ginv, d1, d2, block_value)
    assert time.monotonic() - start < 10.0
