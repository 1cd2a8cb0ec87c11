"""Exit-code contract of the CLI on small adversarial job documents.

Every job of each of the 15 subcommands must exit 0, 1 or 2 without a
traceback, give the same bytes when run twice and finish within
JOB_BUDGET_S seconds.  The documents mix honest data (truncated
polynomial algebras and their classifications, diagonal (p, h, iota)
systems, surface values of diagonal algebras, invertible loops, monoid
characters and word tables) with wrong types, non-integral integer
fields, ragged shapes and missing keys; sizes stay small (dim <= 4,
m <= 6, multiplicities <= 3, monoids of order <= 6, degrees and dot caps
<= 3, `--max-degree` <= 6), except that confluent block sizes run up to
40, `cob2-dim` circle counts up to 14, `holonomy` walk caps up to 6 and
state-space objects up to 8 strands at word caps up to 9.  A job may carry
command-line flags.

The CLI reads a command line spelled exactly without argparse
(`cli._read_argv`); on command lines drawn from a grammar of its
spellings and near-misses, it must read what argparse reads and decline
what argparse rejects.
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import loopcat
from loopcat import cli
from loopcat.cli import main
from loopcat.fincat import FiniteMonoid, conjugacy_classes
from oracles import canonical_loop_table

# Generous: every job drawn here takes milliseconds.
JOB_BUDGET_S = 2.0

COMMANDS = ("frobenius-validate", "genfun", "classify", "witness",
            "automaton-minimize", "pih-solve", "pih-check", "cob2-dim",
            "cob2-pseudo", "holonomy", "statespace", "boolean-statespace",
            "pseudochar-degree", "pseudochar-charpoly", "pseudochar-lift")

junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from(["1/0", "x", "", "2/4", "-0", "1e3", "1.5"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2), max_size=2), st.just({}))


def integers(lo, hi):
    """An integer field: ints in [lo, hi] as numbers, strings or integral
    floats, or a non-integral or infinite float."""
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints.map(str), ints.map(float),
                     st.sampled_from([0.5, 1.7, 2.5, float("inf")]))


scalar = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(str))


def maybe_junk(values):
    return st.one_of(values, values, values, junk)


def vectors(n):
    return st.lists(maybe_junk(scalar), min_size=n, max_size=n)


def squares(n):
    return st.lists(vectors(n), min_size=n, max_size=n)


@st.composite
def drop_a_key(draw, body):
    if draw(st.integers(0, 9)) == 0:
        body = dict(body)
        del body[draw(st.sampled_from(sorted(body)))]
    return body


@st.composite
def frobenius_docs(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):  # Q[x]/x^n, structure possibly perturbed
        structure = [[[int(i + j == k) for k in range(n)] for j in range(n)]
                     for i in range(n)]
        if draw(st.booleans()):
            i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            structure[i][j][k] = draw(maybe_junk(scalar))
        unit = [int(k == 0) for k in range(n)]
    else:
        structure = draw(st.lists(squares(n), min_size=n, max_size=n))
        unit = draw(vectors(n))
    body = {"dim": draw(st.one_of(st.just(n), integers(-1, 4), junk)),
            "structure": structure, "unit": unit,
            "counit": draw(vectors(n))}
    return {"frobenius": draw(drop_a_key(body))}


@st.composite
def classification_docs(draw):
    poles = draw(st.lists(st.tuples(
        maybe_junk(st.integers(-3, 3).filter(bool).map(str)),
        maybe_junk(integers(-1, 3))),
        max_size=2, unique_by=lambda p: str(p[0])))
    body = {"mu": draw(maybe_junk(scalar)),
            "m": draw(maybe_junk(integers(-1, 6))),
            "poles": [list(p) for p in poles]}
    return {"classification": draw(drop_a_key(body))}


@st.composite
def genfun_docs(draw):
    body = {"num": draw(st.lists(maybe_junk(scalar), max_size=5)),
            "den": draw(st.one_of(
                st.lists(maybe_junk(scalar), max_size=4).map(
                    lambda d: ["1"] + d),
                st.lists(maybe_junk(scalar), max_size=4)))}
    return {"genfun": draw(drop_a_key(body))}


@st.composite
def automaton_docs(draw):
    n = draw(st.integers(0, 4))
    letters = draw(st.sampled_from(["a", "ab"]))
    body = {"initial": draw(vectors(n)),
            "transitions": {x: draw(st.one_of(squares(n), squares(n + 1)))
                            for x in letters},
            "final": draw(st.one_of(vectors(n), vectors(n + 1)))}
    if draw(st.integers(0, 9)) == 0:
        body["transitions"] = draw(junk)
    return {"automaton": draw(drop_a_key(body))}


@st.composite
def pih_solve_docs(draw):
    """One to six (lam, size, mult) blocks, zero and repeated eigenvalues
    included, sometimes a malformed block, and an optional alpha1."""
    block = st.tuples(scalar, integers(-1, 40), scalar).map(list)
    blocks = draw(st.lists(block, min_size=1, max_size=5))
    if draw(st.booleans()):  # repeat the first eigenvalue
        blocks.append([blocks[0][0]] + draw(block)[1:])
    if draw(st.integers(0, 9)) == 9:
        blocks.append(draw(junk))
    doc = {"blocks": blocks}
    if draw(st.booleans()):
        doc["alpha1"] = draw(maybe_junk(scalar))
    return doc


@st.composite
def pih_check_docs(draw):
    """(p, h, iota) up to 4x4, sometimes ragged, or the honest diagonal
    system h = diag(c), p = 1, iota = 1/c with alpha_k = sum_i c_i^(k-1);
    alpha runs from too short to too long."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        nonzero = st.fractions(-3, 3, max_denominator=3).filter(bool)
        cs = draw(st.lists(nonzero, min_size=n, max_size=n))
        body = {"p": ["1"] * n, "iota": [str(1 / c) for c in cs],
                "h": [[str(c if i == j else 0) for j in range(n)]
                      for i, c in enumerate(cs)]}
        alpha = [str(sum(c ** (k - 1) for c in cs)) for k in range(2 * n + 5)]
    else:
        lengths = st.integers(n - 1, n + 1)
        ragged = st.lists(st.lists(maybe_junk(scalar), max_size=4), max_size=4)
        body = {"p": draw(lengths.flatmap(vectors)),
                "h": draw(st.one_of(squares(n), ragged, junk)),
                "iota": draw(lengths.flatmap(vectors))}
        alpha = draw(st.lists(maybe_junk(scalar), max_size=2 * n + 5))
    doc = {"pih": draw(drop_a_key(body)),
           "alpha": alpha[:draw(st.integers(2 * n + 1, 2 * n + 5))]}
    return draw(drop_a_key(doc))


@st.composite
def cob2_dim_docs(draw):
    """Circle counts from -1 to 14 at the default genus cap, where the
    spanning set outgrows its bound from m = 3 on, and 0 to 12 surface
    values, from too few to enough for m <= 2."""
    return {"m": draw(maybe_junk(integers(-1, 14))),
            "alpha": draw(maybe_junk(st.lists(scalar, max_size=12)))}


@st.composite
def cob2_pseudo_docs(draw):
    """Degree and dot cap from -1 to 3 or junk, the cap sometimes left to
    its default d + 1, on the surface values of a diagonal algebra with up
    to four eigenvalues or on drawn values, from too few to enough for the
    default cap at d = 3.  A large d exits 2 above `--max-degree`, and a
    large cap needs more than the 20 values drawn."""
    if draw(st.booleans()):
        lams = draw(st.lists(
            st.fractions(-3, 3, max_denominator=2).filter(bool),
            min_size=1, max_size=4))
        alpha = [str(sum(1 / lam for lam in lams))] + [
            str(sum(lam ** (n - 1) for lam in lams)) for n in range(1, 20)]
    else:
        alpha = draw(st.lists(maybe_junk(scalar), max_size=20))
    doc = {"alpha": alpha[:draw(st.integers(0, 20))],
           "d": draw(maybe_junk(integers(-1, 3)))}
    if draw(st.booleans()):
        doc["cap_dots"] = draw(maybe_junk(integers(-1, 3)))
    return draw(drop_a_key(doc))


@st.composite
def holonomy_jobs(draw):
    """One to four invertible 2x2 integer loops at one vertex, three or
    more in half the draws, and a walk cap from -1 to 6.  Three generic
    loops at cap 4 already give more distinct walk matrices than the
    degree search accepts."""
    entry = st.integers(-2, 2)
    loop = st.lists(st.lists(entry, min_size=2, max_size=2),
                    min_size=2, max_size=2).filter(
        lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0])
    loops = draw(st.lists(loop, min_size=1, max_size=4))
    doc = {"graph": {"n_vertices": 1,
                     "edges": [[0, 0, [[str(x) for x in row] for row in m]]
                               for m in loops]}}
    return "holonomy", doc, "--cap-words", str(draw(st.integers(-1, 6)))


# Z2, Z3 and the monoid {1, 0} under multiplication
MONOIDS = ({"table": [[0, 1], [1, 0]], "identity": 0, "size": 2},
           {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "identity": 0,
            "size": 3},
           {"table": [[0, 1], [1, 1]], "identity": 0, "size": 2})


def cyclic_group(n):
    return {"table": [[(a + b) % n for b in range(n)] for a in range(n)],
            "identity": 0, "size": n}


PERMUTATIONS = list(permutations(range(3)))
# S3 with "p then q" as the permutation i -> q[p[i]]
S3 = {"table": [[PERMUTATIONS.index(tuple(q[i] for i in p))
                 for q in PERMUTATIONS] for p in PERMUTATIONS],
      "identity": 0, "size": 6}
# monoids of order <= 6 for the pseudocharacter commands
SMALL_MONOIDS = (*(cyclic_group(n) for n in range(1, 7)), S3, MONOIDS[2])


@st.composite
def pseudocharacters(draw, monoid):
    """A class function on the conjugacy classes or on the single
    elements (not trace-like on S3 unless constant on its classes): r
    copies of the regular character plus t of the trivial one, or drawn
    values."""
    size = monoid["size"]
    classes = draw(st.sampled_from([
        conjugacy_classes(FiniteMonoid(monoid["table"], monoid["identity"])),
        [[e] for e in range(size)]]))
    if draw(st.booleans()):
        r, t = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        values = [str(r * size * (monoid["identity"] in c) + t)
                  for c in classes]
    else:
        values = draw(st.lists(maybe_junk(scalar), min_size=len(classes),
                               max_size=len(classes)))
    return draw(drop_a_key({"classes": classes, "values": values}))


@st.composite
def pseudochar_jobs(draw):
    """`pseudochar-degree` with `--max-degree` from -1 to 6,
    `pseudochar-charpoly` at d from -1 to 3 or junk (a d over the default
    `--max-degree` of 6 exits 2 before the search) and `pseudochar-lift`
    against one to three drawn class functions, each on a monoid of order
    <= 6."""
    monoid = draw(st.sampled_from(SMALL_MONOIDS))
    doc = {"monoid": monoid, "pseudocharacter": draw(pseudocharacters(monoid))}
    command = draw(st.sampled_from(
        ["pseudochar-degree", "pseudochar-charpoly", "pseudochar-lift"]))
    if command == "pseudochar-degree":
        return (command, draw(drop_a_key(doc)), "--max-degree",
                str(draw(st.integers(-1, 6))))
    if command == "pseudochar-charpoly":
        doc["x"] = draw(maybe_junk(integers(-1, 6)))
        doc["d"] = draw(maybe_junk(integers(-1, 3)))
    else:
        doc["table"] = draw(st.lists(pseudocharacters(monoid), min_size=1,
                                     max_size=3))
    return command, draw(drop_a_key(doc))


def objects(max_strands):
    return st.lists(st.sampled_from([[0, 1], [0, -1]]), max_size=max_strands)


def word_tables(letters, max_len):
    """Values on the words up to max_len, constant on rotations (they only
    see the length and the count of b), sometimes a word short."""
    words = ["".join(w) for n in range(max_len + 1)
             for w in product(letters, repeat=n)]
    return st.lists(maybe_junk(scalar), min_size=1, max_size=3).flatmap(
        lambda vals: st.integers(0, len(words)).map(lambda n: {
            w: vals[(len(w) + 2 * w.count("b")) % len(vals)]
            for w in words[:n]}))


@st.composite
def statespace_jobs(draw):
    """A monoid character or a free-monoid loop table, with an interval
    table in half the free-monoid draws, at an object of up to 8 strands
    and a word cap from -1 to 9.  Two letters, many strands, a boundary and
    a high cap each multiply the kets, and a draw past
    `statespaces.MAX_KETS` kets exits 2 before any is built.  Over two
    letters the tables stop at words of 5 letters, so a longer strand
    misses its value."""
    cap = draw(st.integers(-1, 9))
    flags = ("--cap-words", str(cap))
    obj = draw(objects(8))
    if draw(st.booleans()):
        monoid = draw(st.sampled_from(MONOIDS))
        doc = {"monoid": monoid, "object": obj,
               "alpha": draw(vectors(monoid["size"]))}
    else:
        letters = draw(st.sampled_from(["a", "ab"]))
        span = (len(obj) + 1) * max(cap, 0)
        if letters == "ab":
            span = min(span, 5)
        doc = {"free_monoid": {"letters": letters}, "object": obj,
               "loops": draw(word_tables(letters, span))}
        if draw(st.booleans()):
            doc["intervals"] = draw(word_tables(letters, span))
    if draw(st.booleans()):
        doc["emit_gram"] = True
    return ("statespace", draw(drop_a_key(doc)), *flags)


@st.composite
def boolean_statespace_jobs(draw):
    """A language of words over one or two letters, at an object of up to
    8 strands and a word cap from -1 to 9.  Every ket end may carry a
    half-interval, so the kets grow as the number of words to the power of
    the strands, and a draw past `statespaces.MAX_KETS` kets exits 2 before
    the table of words up to twice the cap is built."""
    letters = draw(st.sampled_from(["a", "ab"]))
    words = st.text(alphabet=letters, max_size=4)
    doc = {"alphabet": letters,
           "accepted": draw(st.lists(words, max_size=6)),
           "object": draw(objects(8))}
    return ("boolean-statespace", draw(drop_a_key(doc)), "--cap-words",
            str(draw(st.integers(-1, 9))))


jobs = st.one_of(
    st.tuples(st.sampled_from(["frobenius-validate", "genfun"]),
              frobenius_docs()),
    st.tuples(st.just("classify"), genfun_docs()),
    st.tuples(st.just("witness"), classification_docs()),
    st.tuples(st.just("automaton-minimize"), automaton_docs()),
    st.tuples(st.just("pih-solve"), pih_solve_docs()),
    st.tuples(st.just("pih-check"), pih_check_docs()),
    st.tuples(st.just("cob2-dim"), cob2_dim_docs()),
    st.tuples(st.just("cob2-pseudo"), cob2_pseudo_docs()),
    holonomy_jobs(),
    pseudochar_jobs(),
    statespace_jobs(),
    boolean_statespace_jobs(),
    st.tuples(st.sampled_from(COMMANDS), junk))


def run_in_process(directory: Path, command: str, doc, *flags) -> tuple:
    path = directory / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--input", str(path), "--format", "json",
                     *flags])
    return code, out.getvalue(), err.getvalue()


@given(jobs)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_job_keeps_the_exit_code_contract(tmp_path, job) -> None:
    start = time.perf_counter()
    first = run_in_process(tmp_path, *job)
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert first[0] in (0, 1, 2)
    assert "Traceback" not in first[1] + first[2]
    assert run_in_process(tmp_path, *job) == first


@st.composite
def loop_tables(draw):
    """A loop table over one to three letters: a few words, each listed in
    some of its rotations, the texts in any order.  A word's rotations
    mostly share one value and sometimes take a second, equal or not,
    and a word sometimes has a letter outside the alphabet."""
    letters = draw(st.sampled_from(["a", "ab", "abc"]))
    values = st.sampled_from(["1", "2/2", "-3", "1/2", "0"])
    listed = []
    for _ in range(draw(st.integers(0, 5))):
        spelled = draw(st.sampled_from([letters, letters, letters + "z"]))
        word = draw(st.text(alphabet=spelled, max_size=5))
        value, second = draw(values), draw(values)
        for text in sorted({word[i:] + word[:i]
                            for i in range(len(word))} or {word}):
            if draw(st.booleans()):  # some rotations are left out
                listed.append((text, draw(st.sampled_from(
                    [value, value, value, second]))))
    return letters, dict(draw(st.permutations(listed)))


@given(loop_tables())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loop_tables_read_as_canonical_classes(tmp_path, case) -> None:
    """A job's loop table has the exit code, error text and values by
    class of the reference that canonicalizes every listed word
    (`oracles.canonical_loop_table`), and its values by word are the
    texts as listed."""
    letters, loops = case
    want = canonical_loop_table(letters, loops)
    doc = {"free_monoid": {"letters": letters}, "loops": loops, "object": []}
    code, out, err = run_in_process(tmp_path, "statespace", doc,
                                    "--cap-words", "0")
    if isinstance(want, str):
        assert (code, out, err) == (2, json.dumps(
            {"error": "ValueError", "message": want}) + "\n", "")
        return
    assert (code, err) == (0, "")
    alpha = cli._evaluation_from(doc)[1]
    assert list(alpha.loop_values.items()) == list(want.items())
    assert alpha.loop_words == {t: Fraction(v) for t, v in loops.items()}


@given(st.lists(jobs, min_size=4, max_size=4))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_jobs_keep_the_contract_without_asserts(tmp_path, batch) -> None:
    """A few jobs in fresh `python -O` processes, where asserts are
    stripped, against the in-process run."""
    src = str(Path(loopcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command, doc, *flags in batch:
        code, out, _err = run_in_process(tmp_path, command, doc, *flags)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "loopcat.cli", command,
             "--input", str(tmp_path / "job.json"), "--format", "json",
             *flags],
            capture_output=True, text=True, env=env, timeout=60)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (code, out)


# command-line tokens: the flags' exact spellings, each with values it
# reads and values argparse reads otherwise or rejects, and near-misses
FLAG_VALUES = {
    "--input": ["job.json", "a b", "classify", "x=1"],
    "--format": ["json", "text", "xml", "JSON"],
    "--cap-words": ["3", "0", "12", " 3", "1_0", "\u0663", "+2", "3.0"],
    "--cap-genus": ["4", "-1", "x"],
    "--max-degree": ["6", "-3", "99999999999999999999"],
}
odd_values = st.sampled_from(["", "-1", "-", "--", "-h", "--input",
                              "--format", "--inp", "statespace", "text",
                              "json", "7"])
odd_tokens = st.sampled_from(["classif", "statespace", "--inp", "--cap",
                              "--format=json", "--input=job.json",
                              "--cap-words=-1", "-h", "--help", "--", "-",
                              "--no-such-flag", "job.json", "3"])
flag_pairs = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.one_of(
        st.sampled_from(FLAG_VALUES[flag]), odd_values)))


@st.composite
def argvs(draw) -> list:
    """A command name and an --input pair, each left out at times, and up
    to four flag pairs or odd tokens, in any order."""
    items = draw(st.lists(st.one_of(flag_pairs, flag_pairs, odd_tokens.map(
        lambda token: (token,))), max_size=4))
    if draw(st.integers(0, 3)):
        items.append((draw(st.sampled_from(COMMANDS)),))
    if draw(st.integers(0, 3)):
        items.append(("--input",
                      draw(st.sampled_from(FLAG_VALUES["--input"]))))
    return [token for item in draw(st.permutations(items)) for token in item]


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_reader_reads_what_argparse_reads(argv) -> None:
    read = cli._read_argv(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = vars(cli._parser().parse_args(argv))
    except SystemExit:
        assert read is None
        return
    assert read is None or vars(read) == parsed


# pieces of scalar strings: signs, slashes, ASCII and other digits ("٣"
# is an Arabic-Indic three, "²" a superscript two), spaces, underscores,
# points and exponents
scalar_pieces = st.sampled_from(["-", "+", "/", " ", "\t", "0", "1", "2", "4",
                                 "9", "10", "007", "_", ".", "e", "E-", "٣",
                                 "²"])


# "p/q" lookalikes: a sign, digits, a slash, digits, a tail
fraction_like = st.tuples(
    st.sampled_from(["", "-", "+", " ", "--"]),
    st.text("0123456789٣²", max_size=3), st.sampled_from(["/", " /", "//", ""]),
    st.text("0123456789٣²", max_size=3),
    st.sampled_from(["", " ", "e2", "E-1", "_1", ".5"])).map("".join)


def _outcome(parse, x):
    """The value parse(x), or the type and message of its error."""
    try:
        return parse(x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@given(st.one_of(fraction_like, st.lists(scalar_pieces, max_size=7).map(
    "".join), st.text(max_size=6)))
@example("2/4")
@example("-0")
@example("1/0")
@example("+1/2")
@example(" 1/2 ")
@example("1/-2")
@example("-0/5")
@example("1e3/2")
@example("3/0")
@example("٣/4")
@example("1_0/2")
@example("2.5e-1")
@example("²/4")
@example("1/²")
@settings(max_examples=500, deadline=None)
def test_rat_reads_a_string_as_fraction_does(x) -> None:
    """`_rat` of a string is `Fraction` of it, value or error type and
    message, its fast paths included; only a zero denominator reads as
    `_rat`'s own ValueError.  Exponents past the bound are `_rat`'s own
    rejection, left out here."""
    exponent = cli._EXPONENT.search(x)
    assume(not exponent or int(exponent[1]) <= cli._MAX_DECIMAL_EXPONENT)
    want = _outcome(Fraction, x)
    if type(want) is tuple and want[0] is ZeroDivisionError:
        want = ValueError, f"zero denominator in {x!r}"
    got = _outcome(cli._rat, x)
    assert got == want
    assert type(got) is tuple or type(got) is Fraction
