import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, isqrt, prod
from pathlib import Path

import pytest

import loopcat
from loopcat import cli, frobenius, linalg, statespaces
from loopcat.cli import main
from loopcat.fincat import (FiniteMonoid, FreeMonoidCategory, IntervalClass,
                            symmetric_group)
from loopcat.linalg import Matrix, Polynomial, RationalFunction, det
from loopcat.pseudochar import GraphHolonomy, PseudoCharacter
from loopcat.statespaces import MAX_KETS
from oracles import classification_genfun, reference_walks
from test_cli_properties import JOB_BUDGET_S

Z2_MONOID = {"monoid": {"table": [[0, 1], [1, 0]], "identity": 0, "size": 2}}
Z2_REGULAR = {"pseudocharacter": {"classes": [[0], [1]], "values": ["2", "0"]}}
# S3's standard character, by element of `fincat.symmetric_group(3)`
S3_STANDARD = {"monoid": {"table": [list(row) for row in
                                    symmetric_group(3).table],
                          "identity": 0, "size": 6},
               "alpha": ["2", "0", "0", "-1", "-1", "0"]}

QX3_EPS7 = {"frobenius": {
    "dim": 3,
    "structure": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                  [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                  [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]],
    "unit": ["1", "0", "0"],
    "counit": ["7", "0", "1"]}}


def _qx3_with_last_cell(value) -> dict:
    """QX3_EPS7 with its last structure cell, after 26 parsed ones, set to
    value."""
    doc = json.loads(json.dumps(QX3_EPS7))
    doc["frobenius"]["structure"][2][2][2] = value
    return doc


def _qx3_with_last_row(row) -> dict:
    """QX3_EPS7 with its last row of structure cells set to row."""
    doc = json.loads(json.dumps(QX3_EPS7))
    doc["frobenius"]["structure"][2][2] = row
    return doc


def run_cli(tmp_path, capsys, command, doc, *flags):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--input", str(path), *flags])
    return code, capsys.readouterr().out


def run_json(tmp_path, capsys, command, doc, *flags):
    code, out = run_cli(tmp_path, capsys, command, doc, "--format", "json",
                        *flags)
    return code, json.loads(out)


def run_process(tmp_path, command, doc, *python_flags, flags=(),
                timeout=60, stdout=subprocess.PIPE):
    """The CLI in a fresh Python process started with python_flags."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(loopcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "loopcat.cli", command,
         "--input", str(path), "--format", "json", *flags],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        timeout=timeout)


def run_optimized(tmp_path, command, doc):
    """The CLI in a fresh `python -O` process, where asserts are stripped."""
    return run_process(tmp_path, command, doc, "-O")


# --- statespace -----------------------------------------------------------


def test_statespace_monoid_input(tmp_path, capsys):
    doc = dict(Z2_MONOID, alpha=["2", "0"])
    code, out = run_json(tmp_path, capsys, "statespace", doc)
    assert code == 0
    assert out["rank"] == 2
    assert out["spanning_size"] == 2
    assert out["stabilized"] is True
    assert out["cap_words"] == 4
    assert "gram" not in out


def test_statespace_emits_gram_on_request(tmp_path, capsys):
    doc = dict(Z2_MONOID, alpha=["2", "0"], emit_gram=True)
    code, out = run_json(tmp_path, capsys, "statespace", doc)
    assert code == 0
    # kets e, s paired against themselves: loops ee, es, se, ss
    assert out["gram"] == [["2", "0"], ["0", "2"]]


def test_statespace_free_monoid_loop_table(tmp_path, capsys):
    doc = {"free_monoid": {"letters": "a"},
           "loops": {"a" * k: str(2 if k % 2 == 0 else 0) for k in range(9)}}
    code, out = run_json(tmp_path, capsys, "statespace", doc,
                         "--cap-words", "3")
    assert code == 0
    assert out["spanning_size"] == 4  # labels of length <= 3 on one arc
    assert out["rank"] == 2
    assert out["stabilized"] is True


def test_statespace_free_monoid_not_yet_stabilized(tmp_path, capsys):
    """A report has stabilized at a cap of at least 1 when its rank is
    that of a fresh job at the cap below, and never at cap 0: for kets on
    arcs and for kets on half-intervals."""
    # values 1 + 2^k + 3^k on a^k: the Hankel Gram of a^i against a^j has
    # rank min(cap + 1, 3), so it still grows from cap 1 to cap 2
    values = {"a" * k: str(1 + 2 ** k + 3 ** k) for k in range(7)}
    for doc in ({"free_monoid": {"letters": "a"}, "loops": values},
                {"free_monoid": {"letters": "a"}, "intervals": values,
                 "object": [[0, 1]]}):
        ranks = {}
        for cap in (0, 1, 2, 3):
            code, out = run_json(tmp_path, capsys, "statespace", doc,
                                 "--cap-words", str(cap))
            assert code == 0
            ranks[cap] = (out["rank"], out["stabilized"])
        assert ranks == {0: (1, False), 1: (2, False), 2: (3, False),
                         3: (3, True)}, doc
        assert [ranks[cap][1] for cap in (1, 2, 3)] == [
            ranks[cap][0] == ranks[cap - 1][0] for cap in (1, 2, 3)]


def test_statespace_enumerates_its_kets_once(tmp_path, capsys, monkeypatch):
    """The stabilization check ranks the sub-Gram of the kets below the
    cap, already paired at the cap, so a job enumerates once: for a free
    monoid with and without a boundary, whose kets below are fewer, and
    for a monoid, whose kets are all below."""
    calls = []
    enumerate_kets = statespaces.enumerate_kets

    def counted(*args):
        calls.append(args)
        return enumerate_kets(*args)

    monkeypatch.setattr(statespaces, "enumerate_kets", counted)
    words = ["", "a", "b", "aa", "ab", "ba", "bb"]
    free = {"free_monoid": {"letters": "ab"},
            "loops": {w: str(len(w) - w.count("b")) for w in words}}
    for doc in (free, dict(free, intervals={w: str(len(w)) for w in words},
                           object=[[0, 1]]),
                dict(Z2_MONOID, alpha=["2", "0"])):
        calls.clear()
        code, out = run_json(tmp_path, capsys, "statespace", doc,
                             "--cap-words", "1")
        assert (code, len(calls)) == (0, 1), out


def test_statespace_interval_chains_compose_their_words(
        tmp_path, capsys, monkeypatch):
    """At a four-end object with a boundary, a ket paired with a bra can
    close an interval chain that passes two arcs, so the reference splice
    composes the words along it in the free monoid (`compose_path`, and
    through it `FreeMonoidCategory.compose`): seven kets of rank 6."""
    composed = []
    compose = FreeMonoidCategory.compose

    def spy(cat, *words):
        composed.append(words)
        return compose(cat, *words)

    monkeypatch.setattr(FreeMonoidCategory, "compose", spy)
    doc = {"free_monoid": {"letters": "ab"}, "loops": {"": "2"},
           "intervals": {"": "1"},
           "object": [[0, 1], [0, -1], [0, 1], [0, -1]]}
    assert run_cli(tmp_path, capsys, "statespace", doc,
                   "--cap-words", "0") == (0, (
                       "cap_words: 0\ncommand: statespace\ngram_cols: 7\n"
                       "gram_rows: 7\nobject: [[0, 1], [0, -1], [0, 1], "
                       "[0, -1]]\nrank: 6\nspanning_size: 7\n"
                       "stabilized: false\n"))
    assert composed
    assert run_cli(tmp_path, capsys, "statespace", doc, "--format", "json",
                   "--cap-words", "0") == (0, (
                       '{"cap_words": 0, "command": "statespace", '
                       '"gram_cols": 7, "gram_rows": 7, "object": [[0, 1], '
                       '[0, -1], [0, 1], [0, -1]], "rank": 6, '
                       '"spanning_size": 7, "stabilized": false}\n'))


def test_statespace_missing_loop_value_is_domain_error(tmp_path, capsys):
    doc = {"free_monoid": {"letters": "a"}, "loops": {"": "1"}}
    code, out = run_json(tmp_path, capsys, "statespace", doc)
    assert code == 1
    assert out["error"] == "MissingValue"


@pytest.mark.parametrize("doc, message", [
    ({"free_monoid": {"letters": "a"}, "loops": {"": "1"}},
     "no value for loop Loop(base=0, cycle=(0,))"),
    ({"free_monoid": {"letters": "ab"}, "intervals": {"": "1", "a": "2"},
      "object": [[0, 1]]},
     "no value for interval IntervalClass(base=0, gl=(), gr=(1,))"),
    # one rotation per class, "ba" for the class of "ab", and none for "bb"
    ({"free_monoid": {"letters": "ab"},
      "loops": {"": "1", "a": "2", "b": "3", "aa": "4", "ba": "5"}},
     "no value for loop Loop(base=0, cycle=(1, 1))"),
    # every rotation of the classes up to length 2, none longer
    ({"free_monoid": {"letters": "ab"},
      "loops": {"": "1", "a": "2", "b": "3", "aa": "4", "ab": "5",
                "ba": "5", "bb": "6"},
      "object": [[0, 1], [0, -1], [0, 1], [0, -1]]},
     "no value for loop Loop(base=0, cycle=(0, 0, 0))")])
def test_statespace_missing_value_names_its_class(tmp_path, capsys, doc,
                                                  message):
    assert run_cli(tmp_path, capsys, "statespace", doc, "--format", "json",
                   "--cap-words", "1") == (
        1, json.dumps({"error": "MissingValue", "message": message}) + "\n")


def test_statespace_conflicting_loop_keys_rejected(tmp_path, capsys):
    # rotations of a word name the same loop class; disagreeing values are
    # malformed, and the error names the first text that disagrees
    for loops, text in (
            ({"ab": "1", "ba": "2"}, "ba"),
            ({"aab": "1", "aba": "1", "baa": "1/2"}, "baa"),
            ({"ba": "2/2", "ab": "1", "bab": "3", "abb": "3", "bba": "-3"},
             "bba")):
        doc = {"free_monoid": {"letters": "ab"}, "loops": loops}
        assert run_cli(tmp_path, capsys, "statespace", doc, "--format",
                       "json") == (2, json.dumps({
                           "error": "ValueError",
                           "message": f"conflicting values on the loop class "
                                      f"of {text!r}"}) + "\n")


def _rotations(text: str) -> list:
    return [text[k:] + text[:k] for k in range(len(text))] or [text]


@pytest.mark.parametrize("obj, cap, intervals", [
    ([[0, 1], [0, -1]], 2, False), ([[0, 1], [0, -1]], 2, True),
    ([[0, 1], [0, -1], [0, 1], [0, -1]], 1, False),
    ([[0, 1], [0, 1], [0, -1], [0, -1]], 2, False),
    ([[0, -1], [0, 1]], 1, True)])
def test_statespace_reads_one_rotation_per_class_like_every_rotation(
        tmp_path, capsys, obj, cap, intervals):
    """Loop values tr(A_w), interval values A_w[0][1], for the products
    A_w of two 2x2 integer matrices.  A loops table that lists one
    rotation of each class, the greatest, gives the report of the table
    that lists every rotation, Gram included."""
    mats = {"a": ((1, 1), (0, 2)), "b": ((0, -1), (1, 3))}

    def product(text):
        m = ((1, 0), (0, 1))
        for c in text:
            n = mats[c]
            m = tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2))
                            for j in range(2)) for i in range(2))
        return m
    longest = (len(obj) + 1) * cap
    words = [""] + ["".join(w) for n in range(1, longest + 1)
                    for w in itertools.product("ab", repeat=n)]
    every = {w: str(product(w)[0][0] + product(w)[1][1]) for w in words
             if len(w) <= len(obj) * cap}
    doc = {"free_monoid": {"letters": "ab"}, "object": obj,
           "emit_gram": True}
    if intervals:
        doc["intervals"] = {w: str(product(w)[0][1]) for w in words}
    outs = []
    for loops in (every, {w: v for w, v in every.items()
                          if w == max(_rotations(w))}):
        code, out = run_cli(tmp_path, capsys, "statespace",
                            dict(doc, loops=loops), "--cap-words", str(cap))
        assert code == 0, out
        outs.append(out)
    assert outs[0] == outs[1]


def _free_strand_resolutions(tmp_path, capsys, monkeypatch, command, doc,
                             cap) -> list:
    """The classes a job resolves through `Evaluation.loop` and
    `Evaluation.interval`, in order, leaving out those of the splice that
    checks the pairing (`statespaces.evaluate_closed`)."""
    resolved, splicing = [], []
    splice = statespaces.evaluate_closed

    def counted_splice(d, alpha):
        splicing.append(d)
        try:
            return splice(d, alpha)
        finally:
            splicing.pop()

    def counted(resolve):
        def method(alpha, cls):
            if not splicing:
                resolved.append(cls)
            return resolve(alpha, cls)
        return method
    monkeypatch.setattr(statespaces, "evaluate_closed", counted_splice)
    for name in ("loop", "interval"):
        monkeypatch.setattr(statespaces.Evaluation, name,
                            counted(getattr(statespaces.Evaluation, name)))
    code, out = run_cli(tmp_path, capsys, command, doc, "--cap-words",
                        str(cap))
    assert code == 0, out
    return resolved


def test_free_strands_resolve_only_the_words_their_table_lacks(
        tmp_path, capsys, monkeypatch):
    """A free strand is valued by the word it reads, from the table the
    job lists: a Boolean cap-3 Gram (15 x 15, every word up to length 6
    tabled) and a 4-strand cap-2 Gram (98 x 98, every loop word up to
    length 8 listed) resolve no class, where one resolution per distinct
    strand key made 225 and 2,450.  A loops table of one rotation per
    class resolves each other word the Gram reads once, at most."""
    doc = {"alphabet": "ab", "accepted": ["", "a", "ab", "ba", "bb"]}
    assert _free_strand_resolutions(tmp_path, capsys, monkeypatch,
                                    "boolean-statespace", doc, 3) == []
    words = [""] + ["".join(w) for n in range(1, 9)
                    for w in itertools.product("ab", repeat=n)]
    every = {w: str(w.count("a") - 2 * w.count("b")) for w in words}
    doc = {"free_monoid": {"letters": "ab"}, "loops": every,
           "object": [[0, 1], [0, -1], [0, 1], [0, -1]]}
    assert _free_strand_resolutions(tmp_path, capsys, monkeypatch,
                                    "statespace", doc, 2) == []
    canonical = {w: v for w, v in every.items() if w == min(_rotations(w))}
    resolved = _free_strand_resolutions(
        tmp_path, capsys, monkeypatch, "statespace",
        dict(doc, loops=canonical), 2)
    assert 0 < len(resolved) <= len(every) - len(canonical)


def test_statespace_interval_tables_attach_a_boundary(tmp_path, capsys):
    # single positive endpoint: kets are half-intervals labelled by words
    doc = {"free_monoid": {"letters": "a"},
           "loops": {},
           "intervals": {"a" * k: "1" for k in range(9)},
           "object": [[0, 1]]}
    code, out = run_json(tmp_path, capsys, "statespace", doc,
                         "--cap-words", "2")
    assert code == 0
    assert out["spanning_size"] == 3
    assert out["rank"] == 1


def test_statespace_at_the_ket_bound_answers(tmp_path, capsys):
    """One letter at object [+, -]: one ket per word up to the cap, so
    cap n - 1 gives the n = MAX_KETS kets of a full-rank Hankel Gram of
    drawn loop values, the slowest shape measured at the bound; cap n is
    over."""
    n = MAX_KETS
    rng = random.Random(1)
    doc = {"free_monoid": {"letters": "a"}, "object": [[0, 1], [0, -1]],
           "loops": {"a" * k: str(rng.randint(-9, 9)) for k in range(2 * n)}}
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "statespace", doc,
                         "--cap-words", str(n - 1))
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out["spanning_size"], out["rank"]) == (0, n, n)
    code, out = run_json(tmp_path, capsys, "statespace", doc,
                         "--cap-words", str(n))
    assert (code, out) == (2, {
        "error": "ValueError",
        "message": f"object has more than {n} kets at cap_words {n}"})


def test_statespace_unbalanced_object_answers_within_budget(tmp_path,
                                                            capsys):
    # 12 plus and 13 minus strands and no boundary: no ket, which took 7
    # to 10 times longer per extra pair while every partial matching was
    # tried (0.3 s at 8 pairs, 21 s at 10)
    obj = [[0, 1], [0, -1]] * 12 + [[0, -1]]
    doc = {"monoid": {"table": [[0]], "identity": 0, "size": 1},
           "alpha": ["1"], "object": obj}
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "statespace", doc)
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out) == (0, {
        "command": "statespace", "object": obj, "cap_words": 4,
        "spanning_size": 0, "gram_rows": 0, "gram_cols": 0, "rank": 0,
        "stabilized": True})


UNKNOWN_OBJECT_JOBS = {
    "free-monoid": ("statespace", {"free_monoid": {"letters": "ab"},
                                   "loops": {"": "2"},
                                   "object": [[0, 1], [1, -1]]}, "1"),
    "monoid": ("statespace", dict(Z2_MONOID, alpha=["2", "0"],
                                  object=[["x", 1]]), "'x'"),
    "boolean": ("boolean-statespace", {"alphabet": "ab", "accepted": ["a"],
                                       "object": [[2, 1]]}, "2"),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_OBJECT_JOBS))
def test_unknown_object_exits_two(tmp_path, capsys, name):
    command, doc, shown = UNKNOWN_OBJECT_JOBS[name]
    expected = {"error": "ValueError", "message": f"unknown object {shown}"}
    code, out = run_json(tmp_path, capsys, command, doc)
    assert (code, out) == (2, expected)
    proc = run_optimized(tmp_path, command, doc)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == expected


# --- boolean-statespace ---------------------------------------------------


def test_boolean_statespace_residual_counts(tmp_path, capsys):
    doc = {"alphabet": "ab",
           "accepted": ["", "a", "aa", "ab", "aab", "aba", "abab", "aaab"]}
    code, out = run_json(tmp_path, capsys, "boolean-statespace", doc,
                         "--cap-words", "2")
    assert code == 0
    assert out["spanning_size"] == 7
    assert out["n_states"] == len(out["states"])
    assert out["n_join_irreducible"] <= out["n_states"]
    assert all(set(row) <= {"0", "1"} for row in out["states"])


def test_boolean_statespace_single_word_language(tmp_path, capsys):
    doc = {"alphabet": "a", "accepted": ["aa"]}
    code, out = run_json(tmp_path, capsys, "boolean-statespace", doc,
                         "--cap-words", "3")
    assert code == 0
    # residuals of {aa}: {aa}, {a}, {eps}, and the empty language
    assert out["n_states"] == 4


def test_boolean_statespace_of_the_empty_object_tables_no_words(
        tmp_path, capsys):
    # its one ket closes no interval, so the 2^23 - 1 words up to twice
    # the cap are never tabled
    doc = {"alphabet": "ab", "accepted": ["ab"], "object": []}
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "boolean-statespace", doc,
                         "--cap-words", "11")
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out["spanning_size"], out["states"]) == (0, 1, ["1"])


def test_boolean_statespace_tables_the_accepted_words_alone(
        tmp_path, capsys, monkeypatch):
    """A language is 1 on its words and 0 on every other interval: the
    evaluation a job hands to the kernel lists its accepted words alone,
    by word and by interval class, and not the 2,047 words up to twice
    the cap."""
    handed = []
    boolean = cli.state_space_boolean

    def spied(cat, obj, alpha, *rest):
        handed.append((dict(alpha.interval_words),
                       dict(alpha.interval_values)))
        return boolean(cat, obj, alpha, *rest)

    monkeypatch.setattr(cli, "state_space_boolean", spied)
    doc = {"alphabet": "ab", "accepted": ["", "ab", "aab", "bab"],
           "object": [[0, 1]]}
    code, out = run_json(tmp_path, capsys, "boolean-statespace", doc,
                         "--cap-words", "5")
    assert (code, out["spanning_size"]) == (0, 63)
    words = [(), (0, 1), (0, 0, 1), (1, 0, 1)]
    assert handed == [(dict.fromkeys(words, 1),
                       {IntervalClass(0, (), w): 1 for w in words})]


MIXED_SIGN_OBJECTS = [[[0, 1], [0, -1]], [[0, -1], [0, 1]],
                      [[0, 1], [0, 1], [0, -1]], [[0, -1], [0, 1], [0, -1]],
                      [[0, 1], [0, -1], [0, 1], [0, -1]]]
# (alphabet, object length, cap) past MAX_KETS; the rest have no loop value
MIXED_SIGN_OVER_THE_BOUND = {("a", 4, 2), ("ab", 3, 2), ("ab", 4, 1),
                             ("ab", 4, 2)}


@pytest.mark.parametrize("alphabet,accepted",
                         [("a", ["a"]), ("ab", ["", "ab", "ba"])])
def test_boolean_statespace_of_a_mixed_sign_object(tmp_path, capsys,
                                                   monkeypatch, alphabet,
                                                   accepted):
    """An object with both a plus and a minus strand closes loops, which a
    language gives no value: exit 1 with the MissingValue of the pairing's
    first entry, and no word, table or ket built.  An object over the ket
    bound, or naming an unknown object, still exits 2."""
    doc = {"alphabet": alphabet, "accepted": accepted,
           "object": [[0, 1], [2, -1]]}
    assert run_cli(tmp_path, capsys, "boolean-statespace", doc, "--format",
                   "json", "--cap-words", "0") == (
        2, '{"error": "ValueError", "message": "unknown object 2"}\n')

    def unreachable(*args):
        raise AssertionError("built a word list or a ket")

    monkeypatch.setattr(statespaces, "enumerate_kets", unreachable)
    monkeypatch.setattr(FreeMonoidCategory, "words_up_to", unreachable)
    for obj in MIXED_SIGN_OBJECTS:
        doc = {"alphabet": alphabet, "accepted": accepted, "object": obj}
        for cap in (0, 1, 2):
            got = run_cli(tmp_path, capsys, "boolean-statespace", doc,
                          "--format", "json", "--cap-words", str(cap))
            if (alphabet, len(obj), cap) in MIXED_SIGN_OVER_THE_BOUND:
                assert got == (2, '{"error": "ValueError", "message": '
                               f'"object has more than 100 kets at cap_words '
                               f'{cap}"}}\n'), (obj, cap)
            else:
                assert got == (1, '{"error": "MissingValue", "message": '
                               '"no value for loop Loop(base=0, cycle=())"}'
                               '\n'), (obj, cap)


# --- automaton-minimize ---------------------------------------------------


def test_automaton_minimize_drops_unreachable_weight(tmp_path, capsys):
    doc = {"automaton": {
        "initial": ["1", "0"],
        "transitions": {"a": [["1", "0"], ["0", "1"]],
                        "b": [["0", "0"], ["0", "0"]]},
        "final": ["1", "1"]}}
    code, out = run_json(tmp_path, capsys, "automaton-minimize", doc)
    assert code == 0
    assert out["dimension_before"] == 2
    assert out["dimension_after"] == 1
    assert sorted(out["automaton"]["transitions"]) == ["a", "b"]


def test_automaton_minimize_rejects_ragged_shapes(tmp_path, capsys):
    doc = {"automaton": {"initial": ["1", "0"],
                         "transitions": {"a": [["1"]]},
                         "final": ["1", "0"]}}
    code, out = run_json(tmp_path, capsys, "automaton-minimize", doc)
    assert code == 2
    assert out["error"] == "ValueError"


# --- pseudochar commands --------------------------------------------------


def test_degree_of_regular_character(tmp_path, capsys):
    doc = dict(Z2_MONOID, **Z2_REGULAR)
    code, out = run_json(tmp_path, capsys, "pseudochar-degree", doc)
    assert code == 0
    assert out["d"] == 2
    assert out["witness"] == [0, 0]
    assert out["max_degree"] == 6


def test_degree_rejects_non_pseudocharacter(tmp_path, capsys):
    doc = dict(Z2_MONOID)
    doc["pseudocharacter"] = {"classes": [[0], [1]], "values": ["1/3", "0"]}
    code, out = run_json(tmp_path, capsys, "pseudochar-degree", doc,
                         "--max-degree", "3")
    assert code == 1
    assert out["error"] == "NotPseudo"


@pytest.mark.parametrize("table, values, d", [
    ([[0, 1], [1, 0]], ["999", "-3"], 999),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], ["99", "-3", "-3"], 99)])
def test_degree_far_up_answers_within_budget(tmp_path, table, values, d):
    # a level-d tuple holding the identity, traced to d, is 0 at once,
    # without the d-entry multiset it would otherwise expand into
    doc = {"monoid": {"table": table, "identity": 0, "size": len(table)},
           "pseudocharacter": {"classes": [[e] for e in range(len(table))],
                               "values": values}}
    start = time.perf_counter()
    proc = run_process(tmp_path, "pseudochar-degree", doc,
                       flags=("--max-degree", str(d + 1)))
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "command": "pseudochar-degree", "d": d, "max_degree": d + 1,
        "tuples_checked": d + comb(len(table) + d, d + 1),
        "witness": [0] * d}


def test_degree_rejects_values_that_are_not_trace_like(tmp_path, capsys):
    # "first wins" monoid: 1*2 = 1 but 2*1 = 2, so singleton classes with
    # distinct values break alpha(gh) = alpha(hg)
    doc = {"monoid": {"table": [[0, 1, 2], [1, 1, 1], [2, 2, 2]],
                      "identity": 0, "size": 3},
           "pseudocharacter": {"classes": [[0], [1], [2]],
                               "values": ["1", "2", "3"]}}
    code, out = run_json(tmp_path, capsys, "pseudochar-degree", doc)
    assert code == 2
    assert out["error"] == "ValueError"
    assert "trace-like" in out["message"]


def test_charpoly_of_involution(tmp_path, capsys):
    doc = dict(Z2_MONOID, **Z2_REGULAR, x=1, d=2)
    code, out = run_json(tmp_path, capsys, "pseudochar-charpoly", doc)
    assert code == 0
    assert out["coeffs"] == ["-1", "0", "1"]
    assert out["display"] == "-1 + t^2"


def test_charpoly_wrong_degree_is_domain_error(tmp_path, capsys):
    doc = dict(Z2_MONOID, **Z2_REGULAR, x=1, d=3)
    code, out = run_json(tmp_path, capsys, "pseudochar-charpoly", doc)
    assert code == 1
    assert out["error"] == "DegreeMismatch"


def test_lift_regular_character(tmp_path, capsys):
    doc = dict(Z2_MONOID, **Z2_REGULAR)
    doc["table"] = [{"classes": [[0], [1]], "values": ["1", "1"]},
                    {"classes": [[0], [1]], "values": ["1", "-1"]}]
    code, out = run_json(tmp_path, capsys, "pseudochar-lift", doc)
    assert code == 0
    assert out["multiplicities"] == [1, 1]


def test_lift_infeasible_reports_solution(tmp_path, capsys):
    doc = dict(Z2_MONOID)
    doc["pseudocharacter"] = {"classes": [[0], [1]], "values": ["1", "5"]}
    doc["table"] = [{"classes": [[0], [1]], "values": ["1", "1"]},
                    {"classes": [[0], [1]], "values": ["1", "-1"]}]
    code, out = run_json(tmp_path, capsys, "pseudochar-lift", doc)
    assert code == 1
    assert out["error"] == "Infeasible"
    assert out["solution"] == ["3", "-2"]


def test_lift_aligns_characters_by_element(tmp_path, capsys):
    """A table character may list its classes in another order than
    alpha's: the sign character given on classes [[1], [0]]."""
    doc = dict(Z2_MONOID, **Z2_REGULAR)
    doc["table"] = [{"classes": [[0], [1]], "values": ["1", "1"]},
                    {"classes": [[1], [0]], "values": ["-1", "1"]}]
    code, out = run_json(tmp_path, capsys, "pseudochar-lift", doc)
    assert code == 0
    assert out["multiplicities"] == [1, 1]


def test_lift_singular_table(tmp_path, capsys):
    doc = dict(Z2_MONOID, **Z2_REGULAR)
    doc["table"] = [{"classes": [[0], [1]], "values": ["1", "1"]},
                    {"classes": [[0], [1]], "values": ["2", "2"]}]
    code, out = run_json(tmp_path, capsys, "pseudochar-lift", doc)
    assert code == 1
    assert out["error"] == "SingularTable"


# --- holonomy --------------------------------------------------------------


def test_holonomy_diagonal_loop(tmp_path, capsys):
    doc = {"graph": {"n_vertices": 1,
                     "edges": [[0, 0, [["1", "0"], ["0", "2"]]]]}}
    code, out = run_json(tmp_path, capsys, "holonomy", doc,
                         "--cap-words", "3")
    assert code == 0
    assert out["dimension"] == 2
    assert out["d"] == 2
    assert out["table"] == {"0": "3", "0,0": "5", "0,0,0": "9"}
    assert out["max_len"] == 3


def test_holonomy_needs_a_positive_walk_cap(tmp_path, capsys):
    doc = {"graph": {"n_vertices": 1, "edges": [[0, 0, [["2"]]]]}}
    code, out = run_json(tmp_path, capsys, "holonomy", doc,
                         "--cap-words", "0")
    assert code == 2
    assert out == {"error": "ValueError",
                   "message": "walk-length cap must be at least 1"}


def test_holonomy_singular_edge(tmp_path, capsys):
    doc = {"graph": {"n_vertices": 1, "edges": [[0, 0, [["0"]]]]}}
    code, out = run_json(tmp_path, capsys, "holonomy", doc)
    assert code == 1
    assert out["error"] == "NonInvertibleEdge"


# Rejections with their report bytes in both formats: (command, job, exit
# code, error type, message)
REJECTION_JOBS = {
    "classify-pole-at-zero": (
        "classify", {"genfun": {"num": ["1"], "den": ["0", "1"]}}, 1,
        "DomainError", "rational function has a pole at 0"),
    "lift-outside-the-span": (
        "pseudochar-lift", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [1]], "values": ["1", "0"]},
            table=[{"classes": [[0], [1]], "values": ["1", "1"]}]), 1,
        "Infeasible", "alpha is not in the span of the table"),
    "holonomy-non-square-edge": (
        "holonomy", {"graph": {"n_vertices": 1,
                               "edges": [[0, 0, [["1", "0"]]]]}}, 2,
        "ValueError", "edge matrices must be square"),
    "holonomy-vertex-dimension": (
        "holonomy", {"graph": {"n_vertices": 2, "edges": [
            [0, 1, [["1"]]], [1, 0, [["1", "0"], ["0", "1"]]]]}}, 2,
        "ValueError", "inconsistent dimension at vertex 1"),
    # all four keys are read before the dimension or a cell is parsed
    "frobenius-zero-dim-no-counit": (
        "frobenius-validate", {"frobenius": {"dim": 0, "structure": [],
                                             "unit": []}}, 2,
        "KeyError", "'counit'"),
    "frobenius-bad-cell-no-counit": (
        "frobenius-validate", {"frobenius": {"dim": 2, "structure": [["x"]],
                                             "unit": [True]}}, 2,
        "KeyError", "'counit'"),
    # a bad cell among "0" cells is reported, and the first bad cell in
    # row-major order is reported before a bad unit
    "frobenius-bool-after-zeros": (
        "frobenius-validate", _qx3_with_last_row(["0", "0", True]), 2,
        "ValueError", "not a number: True"),
    "frobenius-list-between-zeros": (
        "frobenius-validate", _qx3_with_last_row(["0", [], "0"]), 2,
        "TypeError", "not an exact rational: []"),
    "frobenius-bad-cell-before-bad-unit": (
        "frobenius-validate", {"frobenius": {
            "dim": 2, "structure": [[["0", "0"], ["0", "x"]],
                                    [["0", "0"], [None, "0"]]],
            "unit": [True, "0"], "counit": ["1", "0"]}}, 2,
        "ValueError", "Invalid literal for Fraction: 'x'"),
    # zero spellings read as zero: the algebra is 0, and no unit is one
    "frobenius-zero-spellings": (
        "frobenius-validate", {"frobenius": {
            "dim": 3, "structure": [[["0"] * 3, [0, "-0", "0/7"], ["0"] * 3],
                                    [[" 0", "0", "-0"], ["0"] * 3, ["0"] * 3],
                                    [["0"] * 3] * 3],
            "unit": ["1", "0", "0"], "counit": ["1", "0", "0"]}}, 1,
        "NotUnital", "unit * e_0 != e_0"),
    "pih-check-non-square-h": (
        "pih-check", {"pih": {"p": ["1", "0"], "h": [["3", "1"]],
                              "iota": ["1", "0"]},
                      "alpha": ["1", "3", "9", "27", "81", "243", "729"]}, 1,
        "DimensionMismatch", "h must be square"),
    # e_1 e_0 = 0: the unit is a left unit only
    "frobenius-right-unit": (
        "frobenius-validate", {"frobenius": {
            "dim": 2, "structure": [[["1", "0"], ["0", "1"]],
                                    [["0", "0"], ["0", "0"]]],
            "unit": ["1", "0"], "counit": ["0", "1"]}}, 1,
        "NotUnital", "e_1 * unit != e_1"),
    # e_1 e_2 = e_1, e_2 e_1 = 0
    "frobenius-not-commutative": (
        "frobenius-validate", {"frobenius": {
            "dim": 3, "structure": [
                [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                [["0", "1", "0"], ["0", "0", "0"], ["0", "1", "0"]],
                [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]],
            "unit": ["1", "0", "0"], "counit": ["0", "0", "1"]}}, 1,
        "NotCommutative", "e_1 e_2 != e_2 e_1"),
    # e_1 e_1 = e_2 and e_1 e_2 = e_0, so (e_1 e_1) e_2 = 0 but
    # e_1 (e_1 e_2) = e_1
    "frobenius-not-associative": (
        "frobenius-validate", {"frobenius": {
            "dim": 3, "structure": [
                [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
                [["0", "0", "1"], ["1", "0", "0"], ["0", "0", "0"]]],
            "unit": ["1", "0", "0"], "counit": ["0", "0", "1"]}}, 1,
        "NotAssociative", "(e_1 e_1) e_2 differs"),
    "frobenius-zero-dim": (
        "frobenius-validate", {"frobenius": {"dim": 0, "structure": [],
                                             "unit": [], "counit": []}}, 2,
        "ValueError", "dimension must be positive"),
    "frobenius-negative-dim": (
        "frobenius-validate", {"frobenius": {"dim": -1, "structure": [],
                                             "unit": [], "counit": []}}, 2,
        "ValueError", "dimension must be positive"),
    "frobenius-missing-plane": (
        "frobenius-validate", {"frobenius": {
            "dim": 2, "structure": [[["1", "0"], ["0", "1"]]],
            "unit": ["1", "0"], "counit": ["0", "1"]}}, 2,
        "ValueError", "structure constants must be dim^3"),
    "frobenius-short-row": (
        "frobenius-validate", {"frobenius": {
            "dim": 2, "structure": [[["1", "0"], ["0", "1"]], [["0", "1"]]],
            "unit": ["1", "0"], "counit": ["0", "1"]}}, 2,
        "ValueError", "structure constants must be dim^3"),
    # 1 then 0 is 0: the identity is a left identity only
    "monoid-one-sided-identity": (
        "statespace", {"monoid": {"table": [[0, 1], [0, 1]], "identity": 0,
                                  "size": 2}, "alpha": ["2", "0"]}, 2,
        "ValueError", "identity is not two-sided"),
    "monoid-not-associative": (
        "statespace", {"monoid": {"table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]],
                                  "identity": 0, "size": 3},
                       "alpha": ["3", "0", "0"]}, 2,
        "ValueError", "composition not associative at (1,1,2)"),
    "monoid-wrong-size": (
        "statespace", dict(Z2_MONOID, monoid={"table": [[0, 1], [1, 0]],
                                              "identity": 0, "size": 3},
                           alpha=["2", "0"]), 2,
        "ValueError", "declared size does not match table"),
    # alpha(1) = 1 but alpha(s) = 1/2: no degree, so no charpoly
    "charpoly-without-a-degree": (
        "pseudochar-charpoly", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [1]], "values": ["1", "1/2"]}, x=1, d=2), 1,
        "DegreeMismatch", "no degree up to 2"),
    "holonomy-base-without-an-edge": (
        "holonomy", {"graph": {"n_vertices": 2, "edges": [[0, 0, [["1"]]]]},
                     "base": 1}, 2,
        "ValueError", "vertex 1 has no incident edge"),
}


@pytest.mark.parametrize("name", sorted(REJECTION_JOBS))
def test_rejection_report_bytes(tmp_path, capsys, name):
    command, doc, code, error, message = REJECTION_JOBS[name]
    assert run_cli(tmp_path, capsys, command, doc, "--format", "json") == (
        code, f'{{"error": "{error}", "message": "{message}"}}\n')
    assert run_cli(tmp_path, capsys, command, doc) == (
        code, f"error: {error}\nmessage: {message}\n")


# JSON booleans where a number is due: Python takes True as the int 1, so
# each of these once answered with exit 0 (command, job, message)
BOOLEAN_JOBS = {
    "holonomy-edge": (
        "holonomy", {"graph": {"n_vertices": 1, "edges": [[0, 0, [[True]]]]}},
        "not a number: True"),
    "classify-num": (
        "classify", {"genfun": {"num": [True], "den": ["1"]}},
        "not a number: True"),
    "pseudochar-degree-class": (
        "pseudochar-degree", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [True]], "values": ["2", "0"]}),
        "class entries must be element numbers, not booleans"),
    "statespace-sign": (
        "statespace", dict(S3_STANDARD, object=[[0, True], [0, -1]]),
        "sign must be 1 or -1, got True"),
    "statespace-object": (
        "statespace", dict(S3_STANDARD, object=[[False, 1], [False, -1]]),
        "unknown object False"),
    "boolean-statespace-object": (
        "boolean-statespace", {"alphabet": "ab", "accepted": ["a"],
                               "object": [[False, 1]]},
        "unknown object False"),
    "cob2-pseudo-d": (
        "cob2-pseudo", {"alpha": ["1"] * 12, "d": True},
        "not an integer: True"),
    "pseudochar-degree-table": (
        "pseudochar-degree", {"monoid": {"table": [[0, True], [True, 0]],
                                         "identity": 0, "size": 2},
                              **Z2_REGULAR},
        "malformed composition table"),
    # Z2 with element 1 as its identity
    "pseudochar-degree-identity": (
        "pseudochar-degree", {"monoid": {"table": [[1, 0], [0, 1]],
                                         "identity": True, "size": 2},
                              "pseudocharacter": {"classes": [[0], [1]],
                                                  "values": ["0", "2"]}},
        "not an integer: True"),
    "statespace-size": (
        "statespace", {"monoid": {"table": [[0]], "identity": 0,
                                  "size": True}, "alpha": ["1"]},
        "not an integer: True"),
    "holonomy-base": (
        "holonomy", {"graph": {"n_vertices": 2, "edges": [[1, 1, [["1"]]]]},
                     "base": True},
        "not an integer: True"),
    "holonomy-endpoint": (
        "holonomy", {"graph": {"n_vertices": 2,
                               "edges": [[0, True, [["1"]]]]}},
        "not an integer: True"),
    "holonomy-n-vertices": (
        "holonomy", {"graph": {"n_vertices": True,
                               "edges": [[0, 0, [["1"]]]]}},
        "not an integer: True"),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_JOBS))
def test_boolean_for_a_number_exits_two(tmp_path, capsys, name):
    command, doc, message = BOOLEAN_JOBS[name]
    code, out = run_json(tmp_path, capsys, command, doc)
    assert (code, out) == (2, {"error": "ValueError", "message": message})
    proc = run_process(tmp_path, command, doc)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


# Invertible 2x2 loops [[1, a], [b, 1 + ab]] (determinant 1) that do not
# commute pairwise, so the walks of length <= 4 give many distinct matrices.
LOOPS = [[["1", str(a)], [str(b), str(1 + a * b)]]
         for a, b in [(1, 0), (0, 1), (1, 1), (2, -1), (-1, 2), (1, -2),
                      (2, 1), (-2, 1), (1, 2), (-1, -1), (2, 2), (-2, -1)]]


def _loops_doc(k):
    return {"graph": {"n_vertices": 1,
                      "edges": [[0, 0, m] for m in LOOPS[:k]]}}


def test_holonomy_two_loops_at_cap_four_answers(tmp_path, capsys):
    code, out = run_json(tmp_path, capsys, "holonomy", _loops_doc(2),
                         "--cap-words", "4")
    assert code == 0
    assert (out["d"], out["dimension"]) == (2, 2)
    # the identity and 30 distinct walk matrices: one tuple at each of
    # levels 0 and 1, every triple at level 2
    assert out["tuples_checked"] == 2 + comb(33, 3)


def _holonomy_expected(doc, cap):
    """The holonomy report of a one-vertex job of dim×dim loops: the
    table of the recursive walk of `oracles.reference_walks`, and the
    degree data of its n distinct walk matrices, the identity included."""
    rows = [m for _s, _t, m in doc["graph"]["edges"]]
    dim = len(rows[0])
    gh = GraphHolonomy(1, [(0, 0, Matrix([[Fraction(x) for x in r]
                                          for r in m])) for m in rows])
    table, mats = reference_walks(gh, cap)
    identity = [["1" if i == j else "0" for j in range(dim)]
                for i in range(dim)]
    return {"base": 0, "dimension": dim, "d": dim,
            "tuples_checked": dim + comb(len(mats) + dim, dim + 1),
            "witness": [identity] * dim, "max_len": cap,
            "table": {",".join(map(str, walk)): str(tr)
                      for walk, tr in table.items()}}


@pytest.mark.parametrize("k", [3, 4, 6, 8, 12])
def test_holonomy_many_loops_answer_within_budget(tmp_path, capsys, k):
    # the walks give 88 or more distinct matrices, and 5,978 at k = 12:
    # the degree report counts their C(n + 2, 3) triples and evaluates none
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "holonomy", _loops_doc(k),
                         "--cap-words", "4")
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert code == 0
    assert out == dict(_holonomy_expected(_loops_doc(k), 4),
                       command="holonomy")


def _random_loops_doc(dim, k):
    """k random invertible dim×dim loops of entries in -3..3 at one
    vertex."""
    rng, loops = random.Random(dim), []
    while len(loops) < k:
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        if det(Matrix(rows)):
            loops.append([list(map(str, r)) for r in rows])
    return {"graph": {"n_vertices": 1, "edges": [[0, 0, m] for m in loops]}}


@pytest.mark.parametrize("dim, k", [(5, 10), (6, 8), (8, 6)])
def test_holonomy_large_loops_answer_within_budget(tmp_path, capsys, dim, k):
    # a degree search over these took 3.3 s at 5×5, 8.3 s at 6×6 and 60 s
    # at 8×8 in one CLI process, nearly all of it deciding level dim, which
    # the fundamental trace identity settles
    doc = _random_loops_doc(dim, k)
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "holonomy", doc, "--cap-words", "1")
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert code == 0
    assert out == dict(_holonomy_expected(doc, 1), command="holonomy")
    # each loop is its own closed walk of one edge
    loops = [m for _s, _t, m in doc["graph"]["edges"]]
    assert out["table"] == {str(i): str(sum(int(m[j][j]) for j in range(dim)))
                            for i, m in enumerate(loops)}
    assert out["tuples_checked"] == dim + comb(k + 1 + dim, dim + 1)


# four elements of the dihedral group of order 8: their walks give only
# eight distinct matrices, so the tuple bound never fires
DIHEDRAL = [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]],
            [["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]]


def test_holonomy_many_walks_exit_two_at_once(tmp_path, capsys):
    # 20 + 20^2 + 20^3 + 20^4 = 168,420 walks, counted before any product
    command, doc, message, *flags = OUT_OF_RANGE_JOBS["holonomy-dihedral-walks"]
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, command, doc, *flags)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, {"error": "ValueError", "message": message})


def _walk_bound_doc(extra):
    """Dihedral loops, 12 at vertex 0 and 6, 5, 2, 1, 1, 1, 1 at vertices
    1-7: 22,620 + 1,554 + 780 + 30 + 4·4 = 25,000 walks at cap 4, exactly
    the bound at dimension 2; each extra edge 8 -> 9 adds one walk."""
    edges = [[v, v, DIHEDRAL[i % 4]]
             for v, k in enumerate([12, 6, 5, 2, 1, 1, 1, 1]) for i in range(k)]
    return {"graph": {"n_vertices": 8 + 2 * extra,
                      "edges": edges + [[8, 9, DIHEDRAL[0]]] * extra}}


def test_holonomy_at_the_walk_bound_answers(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "holonomy", _walk_bound_doc(0),
                        "--format", "json", "--cap-words", "4")
    assert code == 0
    # byte for byte the report a bound on walks alone gave
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c017afde7a2291236ad312410054aec4f85951b60fa5f01b62232a8c6bb61528")
    code, out = run_json(tmp_path, capsys, "holonomy", _walk_bound_doc(1),
                         "--cap-words", "4")
    assert (code, out) == (2, {
        "error": "ValueError",
        "message": "more than 25000 walks of at most 4 edges"})


def _cyclic_permutation(n):
    return [["1" if j == (i + 1) % n else "0" for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("name", ["holonomy-4x4-walk-work",
                                  "holonomy-8x8-walk-work"])
def test_holonomy_walk_work_exits_two_at_once(tmp_path, capsys, name):
    # 22,620 walks of n x n products, counted before any product
    command, doc, message, *flags = OUT_OF_RANGE_JOBS[name]
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, command, doc, *flags)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, {"error": "ValueError", "message": message})


RAGGED_JOBS = {
    "holonomy": {"graph": {"n_vertices": 1,
                           "edges": [[0, 0, [["1", "0"], ["2"]]]]}},
    "pih-check": {"pih": {"p": ["1", "0"], "h": [["3", "1"], ["0"]],
                          "iota": ["1", "0"]},
                  "alpha": ["1", "3", "9", "27", "81"]},
}


@pytest.mark.parametrize("command", sorted(RAGGED_JOBS))
def test_ragged_matrix_exits_two(tmp_path, capsys, command):
    code, out = run_json(tmp_path, capsys, command, RAGGED_JOBS[command])
    assert code == 2
    assert out == {"error": "ValueError", "message": "ragged matrix"}


@pytest.mark.parametrize("command", sorted(RAGGED_JOBS))
def test_ragged_matrix_exits_two_without_asserts(tmp_path, command):
    proc = run_optimized(tmp_path, command, RAGGED_JOBS[command])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"error": "ValueError",
                                       "message": "ragged matrix"}


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_source_holds_no_assert():
    """`python -O` strips `assert` statements, so no check in the package
    may be one; nor may it raise a bare AssertionError, which no caller
    expects as a typed rejection."""
    src = Path(loopcat.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


OUT_OF_RANGE_JOBS = {
    "zero-den": ("classify", {"genfun": {"num": ["1"], "den": ["0"]}},
                 "zero denominator"),
    "empty-den": ("classify", {"genfun": {"num": ["1"], "den": []}},
                  "zero denominator"),
    "edge-endpoint": ("holonomy", {"graph": {"n_vertices": 1,
                                             "edges": [[0, 5, [["1"]]]]}},
                      "edge 0->5 has an endpoint outside 0..0"),
    "negative-m": ("cob2-dim", {"m": -1, "alpha": ["1", "2", "3", "4", "5"]},
                   "circle count must be nonnegative, got -1"),
    "scalar-zero-den-classify": (
        "classify", {"genfun": {"num": ["1/0"], "den": ["1"]}},
        "zero denominator in '1/0'"),
    "scalar-zero-den-cob2-dim": (
        "cob2-dim", {"m": 1, "alpha": ["1/0"] + ["2"] * 5},
        "zero denominator in '1/0'"),
    "scalar-zero-den-structure": (
        "frobenius-validate", _qx3_with_last_cell("1/0"),
        "zero denominator in '1/0'"),
    "scalar-zero-den-pih-solve": (
        "pih-solve", {"blocks": [["1", 1, "1/0"]]},
        "zero denominator in '1/0'"),
    "witness-huge-m": (
        "witness", {"classification": {"mu": "0", "m": 2064611822.0,
                                       "poles": []}},
        "witness dimension 2064611822 exceeds 32"),
    "witness-huge-multiplicity": (
        "witness", {"classification": {"mu": "0", "m": 0,
                                       "poles": [["2", 10 ** 8]]}},
        "witness dimension 100000000 exceeds 32"),
    "pih-solve-huge-block": (
        "pih-solve", {"blocks": [["2", 100000, "1"]]},
        "block size sum 100000 exceeds 32"),
    "cob2-dim-deep-m": (
        "cob2-dim", {"m": 5000, "alpha": ["1", "2"]},
        "spanning set of 5000 circles at genus cap 4 has more than 100 "
        "diagrams"),
    "cob2-dim-negative-cap": (
        "cob2-dim", {"m": 13, "alpha": ["1", "2", "3", "4", "5"]},
        "genus cap must be nonnegative, got -1", "--cap-genus", "-1"),
    "cob2-pseudo-negative-cap": (
        "cob2-pseudo", {"alpha": [str(g) for g in range(1, 9)], "d": 1,
                        "cap_dots": -1},
        "cap_dots must be nonnegative, got -1"),
    # the closures take d + 1 strands, and the memo keeps every key of up
    # to d + 1 of them: without the bound on d each of these costs seconds
    # (2.65 s at d = 3,000, 12.2 s at d = 40) or runs out of memory
    "cob2-pseudo-float-d": (
        "cob2-pseudo", {"alpha": ["1", "1"], "d": 1e17, "cap_dots": 0},
        f"d = {int(1e17)} exceeds --max-degree 6"),
    "cob2-pseudo-d-3000": (
        "cob2-pseudo", {"alpha": ["1", "1"], "d": 3000, "cap_dots": 0},
        "d = 3000 exceeds --max-degree 6"),
    "cob2-pseudo-d-8": (
        "cob2-pseudo", {"alpha": ["1"] * 83, "d": 8},
        "d = 8 exceeds --max-degree 6"),
    "cob2-pseudo-d-40": (
        "cob2-pseudo", {"alpha": ["1"] * 43, "d": 40, "cap_dots": 1},
        "d = 40 exceeds --max-degree 6"),
    # the dot cap is bounded only by the sequence, which must hold (d + 1)
    # cap + 2 values: these took 1.9 s (d = 6, cap 12), 8.7 s (d = 6,
    # cap 16), 0.7 s (d = 3, cap 30), 11.6 s (d = 3, cap 60) and 2.6 s
    # (d = 2, cap 100) without the bound on the closures they scan
    **{f"cob2-pseudo-d-{d}-cap-{cap}": (
        "cob2-pseudo", {"alpha": ["1"] * ((d + 1) * cap + 2), "d": d,
                        "cap_dots": cap},
        f"d = {d} at cap_dots {cap} has more than 25000 closures")
       for d, cap in ((6, 12), (6, 16), (3, 30), (3, 60), (2, 100))},
    "holonomy-dihedral-walks": (
        "holonomy", {"graph": {"n_vertices": 1, "edges": [
            [0, 0, DIHEDRAL[i % 4]] for i in range(20)]}},
        "more than 25000 walks of at most 4 edges", "--cap-words", "4"),
    # 12 loops of one cyclic permutation matrix: the 22,620 walks at cap 4
    # are over the bound of 25,000 · 8 / n³ at n = 4 and 8
    "holonomy-4x4-walk-work": (
        "holonomy", {"graph": {"n_vertices": 1, "edges": [
            [0, 0, _cyclic_permutation(4)]] * 12}},
        "more than 3125 walks of at most 4 edges", "--cap-words", "4"),
    "holonomy-8x8-walk-work": (
        "holonomy", {"graph": {"n_vertices": 1, "edges": [
            [0, 0, _cyclic_permutation(8)]] * 12}},
        "more than 390 walks of at most 4 edges", "--cap-words", "4"),
    "cob2-dim-bell-14": (
        "cob2-dim", {"m": 14, "alpha": [str(g) for g in range(1, 9)]},
        "spanning set of 14 circles at genus cap 4 has more than 100 "
        "diagrams"),
    # ten bytes that Fraction would turn into a 33-million-bit integer
    "scalar-huge-exponent": (
        "classify", {"genfun": {"num": ["1e10000000"], "den": ["1"]}},
        "decimal exponent of '1e10000000' exceeds 4300 in magnitude"),
    # alpha(e) = d = 400: the degree search would run to level 400
    "charpoly-d-over-max-degree": (
        "pseudochar-charpoly", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [1]], "values": ["400", "-3"]}, x=1, d=400),
        "d = 400 exceeds --max-degree 6"),
    "charpoly-float-d": (
        "pseudochar-charpoly", dict(Z2_MONOID, **Z2_REGULAR, x=1, d=1e300),
        f"d = {int(1e300)} exceeds --max-degree 6"),
    "charpoly-d-over-flag": (
        "pseudochar-charpoly", dict(Z2_MONOID, **Z2_REGULAR, x=1, d=2),
        "d = 2 exceeds --max-degree 1", "--max-degree", "1"),
    # a negative degree ceiling is malformed, whatever the class function
    "degree-negative-max-degree": (
        "pseudochar-degree", dict(Z2_MONOID, **Z2_REGULAR),
        "degree ceiling -1 is negative", "--max-degree", "-1"),
    "charpoly-negative-d": (
        "pseudochar-charpoly", dict(Z2_MONOID, **Z2_REGULAR, x=1, d=-1),
        "degree ceiling -1 is negative"),
    # an element in two classes, or a class with none, is no partition
    "pseudochar-class-listed-twice": (
        "pseudochar-degree", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [1], [1]], "values": ["1", "1", "-1"]}),
        "classes must be disjoint and non-empty"),
    "pseudochar-overlapping-classes": (
        "pseudochar-degree", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0, 1], [1]], "values": ["1", "0"]}),
        "classes must be disjoint and non-empty"),
    "pseudochar-empty-class": (
        "pseudochar-degree", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [], [1]], "values": ["1", "5", "1"]}),
        "classes must be disjoint and non-empty"),
    # 3! 6^3 = 1,296 and 4! 6^4 = 31,104 kets, counted before any is built
    "statespace-s3-three-pairs": (
        "statespace", dict(S3_STANDARD, object=[[0, 1], [0, -1]] * 3),
        "object has more than 100 kets at cap_words 4"),
    "statespace-s3-four-pairs": (
        "statespace", dict(S3_STANDARD, object=[[0, 1], [0, -1]] * 4),
        "object has more than 100 kets at cap_words 4"),
    # 2^9 - 1 and 2^10 - 1 kets, counted before the table of the words up
    # to twice the cap
    "boolean-statespace-cap-8": (
        "boolean-statespace", {"alphabet": ["a", "b"], "accepted": ["ab"]},
        "object has more than 100 kets at cap_words 8", "--cap-words", "8"),
    "boolean-statespace-cap-9": (
        "boolean-statespace", {"alphabet": ["a", "b"], "accepted": ["ab"]},
        "object has more than 100 kets at cap_words 9", "--cap-words", "9"),
    # a negative word cap is malformed, as for the walk and genus caps
    "statespace-negative-cap": (
        "statespace", dict(Z2_MONOID, alpha=["2", "0"]),
        "cap_words must be nonnegative, got -1", "--cap-words", "-1"),
    "boolean-statespace-negative-cap": (
        "boolean-statespace", {"alphabet": ["a"], "accepted": ["", "a"]},
        "cap_words must be nonnegative, got -2", "--cap-words", "-2"),
    # checks that a job file reaches and that no other test reaches
    "automaton-final-short": (
        "automaton-minimize", {"automaton": {
            "initial": ["1", "0"], "transitions": {"a": [["0", "1"],
                                                         ["1", "0"]]},
            "final": ["0"]}},
        "initial and final lengths differ"),
    "free-monoid-duplicate-letters": (
        "statespace", {"free_monoid": {"letters": "aa"}, "loops": {"": "1"}},
        "duplicate letters"),
    "monoid-identity-out-of-range": (
        "pseudochar-degree", {"monoid": {"table": [[0, 1], [1, 0]],
                                         "identity": 5, "size": 2},
                              **Z2_REGULAR},
        "identity index out of range"),
    "frobenius-unit-length": (
        "frobenius-validate", {"frobenius": {
            "dim": 1, "structure": [[["1"]]], "unit": ["1", "0"],
            "counit": ["1"]}},
        "unit and counit must have length dim"),
    "classification-negative-m": (
        "witness", {"classification": {"mu": "0", "m": -1, "poles": []}},
        "m must be 0 or >= 2"),
    "classification-zero-multiplicity": (
        "witness", {"classification": {"mu": "0", "m": 0,
                                       "poles": [["2", 0]]}},
        "pole multiplicities must be positive"),
    "classification-unsorted-poles": (
        "witness", {"classification": {"mu": "0", "m": 0,
                                       "poles": [["3", 1], ["2", 1]]}},
        "poles must be sorted"),
    "classification-mu-without-block": (
        "witness", {"classification": {"mu": "1", "m": 0, "poles": []}},
        "mu must vanish when m = 0"),
    "classification-zero-pole": (
        "witness", {"classification": {"mu": "0", "m": 0,
                                       "poles": [["0", 1]]}},
        "pole locations must be distinct and nonzero"),
    "classification-duplicate-pole": (
        "witness", {"classification": {"mu": "0", "m": 0,
                                       "poles": [["2", 1], ["2", 3]]}},
        "pole locations must be distinct and nonzero"),
    # two failed checks: the first in the constructor's order is reported
    "classification-negative-m-unsorted-poles": (
        "witness", {"classification": {"mu": "0", "m": -1,
                                       "poles": [["3", 1], ["2", 1]]}},
        "m must be 0 or >= 2"),
    "pih-solve-zero-eigenvalue": (
        "pih-solve", {"blocks": [["0", 1, "1"]]},
        "eigenvalues must be nonzero"),
    "pseudocharacter-value-count": (
        "pseudochar-degree", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0], [1]], "values": ["2"]}),
        "one value per conjugacy class required"),
    "pseudocharacter-classes-short": (
        "pseudochar-degree", dict(Z2_MONOID, pseudocharacter={
            "classes": [[0]], "values": ["1"]}),
        "classes do not cover the monoid"),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_JOBS))
def test_out_of_range_input_exits_two(tmp_path, capsys, name):
    command, doc, message, *flags = OUT_OF_RANGE_JOBS[name]
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, command, doc, *flags)
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out) == (2, {"error": "ValueError", "message": message})


def test_zero_denominator_exits_two_without_asserts(tmp_path):
    command, doc, message = OUT_OF_RANGE_JOBS["empty-den"]
    proc = run_optimized(tmp_path, command, doc)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"error": "ValueError",
                                       "message": message}


NON_INTEGRAL_JOBS = {
    "witness-m": ("witness", {"classification": {
        "mu": "0", "m": 2.5, "poles": []}}, 2.5),
    "witness-multiplicity": ("witness", {"classification": {
        "mu": "0", "m": 0, "poles": [["2", 1.7]]}}, 1.7),
    "witness-infinite-m": ("witness", {"classification": {
        "mu": "0", "m": float("inf"), "poles": []}}, float("inf")),
    "genfun-dim": ("genfun", {"frobenius": {
        "dim": 1.5, "structure": [[["1"]]], "unit": ["1"],
        "counit": ["1"]}}, 1.5),
    "charpoly-x": ("pseudochar-charpoly",
                   dict(Z2_MONOID, **Z2_REGULAR, x=1.9, d=2), 1.9),
    "cob2-dim-m": ("cob2-dim", {"m": 1.5, "alpha": ["1"] * 12}, 1.5),
    "cob2-pseudo-cap": ("cob2-pseudo", {"alpha": ["1"] * 12, "d": 1,
                                        "cap_dots": 2.5}, 2.5),
    "pih-solve-size": ("pih-solve", {"blocks": [["2", 1.5, "1"]]}, 1.5),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL_JOBS))
def test_non_integral_integer_field_exits_two(tmp_path, capsys, name):
    command, doc, value = NON_INTEGRAL_JOBS[name]
    code, out = run_json(tmp_path, capsys, command, doc)
    assert (code, out) == (2, {"error": "ValueError",
                               "message": f"not an integer: {value!r}"})


@pytest.mark.parametrize("name", ["witness-m", "witness-infinite-m",
                                  "charpoly-x"])
def test_non_integral_integer_field_exits_two_without_asserts(tmp_path, name):
    command, doc, value = NON_INTEGRAL_JOBS[name]
    proc = run_optimized(tmp_path, command, doc)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"error": "ValueError",
                                       "message": f"not an integer: {value!r}"}


@pytest.mark.parametrize("cell", [1.0, None, [1]],
                         ids=["float", "null", "list"])
def test_inexact_structure_cell_exits_two(tmp_path, capsys, cell):
    code, out = run_json(tmp_path, capsys, "frobenius-validate",
                         _qx3_with_last_cell(cell))
    assert (code, out) == (2, {"error": "TypeError",
                               "message": f"not an exact rational: {cell!r}"})


WRONG_TYPE_JOBS = {
    "automaton-minimize": {"automaton": {"initial": ["1"], "final": ["1"],
                                         "transitions": [[["1"]]]}},
    "statespace": {"free_monoid": {"letters": "a"}, "loops": [["a", "1"]]},
}


@pytest.mark.parametrize("command", sorted(WRONG_TYPE_JOBS))
def test_list_for_an_object_exits_two(tmp_path, capsys, command):
    code, out = run_json(tmp_path, capsys, command, WRONG_TYPE_JOBS[command])
    assert (code, out) == (2, {"error": "TypeError", "message":
                               "values must be an object, got list"})


@pytest.mark.parametrize("m", [3, "3", 3.0])
def test_integral_integer_fields_in_any_form(tmp_path, capsys, m):
    doc = {"classification": {"mu": "0", "m": m, "poles": [["2", "1"]]}}
    code, out = run_json(tmp_path, capsys, "witness", doc)
    assert (code, out["dim"]) == (0, 4)


# --- frobenius-validate / genfun / classify / witness -----------------------


def test_frobenius_validate_reports_handle(tmp_path, capsys):
    code, out = run_json(tmp_path, capsys, "frobenius-validate", QX3_EPS7)
    assert code == 0
    assert out["ok"] is True
    assert out["handle"] == ["0", "0", "3"]
    assert out["genus_one_value"] == "3"


def _count_eliminations(monkeypatch) -> list:
    """A list that gains one entry per `_Echelon` linalg builds."""
    made = []

    class Counting(linalg._Echelon):
        def __init__(self, rows=()):
            made.append(1)
            super().__init__(rows)

    monkeypatch.setattr(linalg, "_Echelon", Counting)
    return made


def test_frobenius_validate_builds_one_handle(tmp_path, capsys, monkeypatch):
    calls = []
    solve = frobenius.solve

    def counted(m, b):
        calls.append(m.rows)
        return solve(m, b)

    monkeypatch.setattr(frobenius, "solve", counted)
    code, out = run_json(tmp_path, capsys, "frobenius-validate", QX3_EPS7)
    assert (code, out["genus_one_value"]) == (0, "3")
    assert calls == [3]


@pytest.mark.parametrize("command", ["frobenius-validate", "genfun"])
def test_frobenius_job_eliminates_its_gram_once(tmp_path, capsys, monkeypatch,
                                                command):
    for name in ("inverse", "solve_unique", "det"):
        assert not hasattr(frobenius, name)
    calls, made = [], _count_eliminations(monkeypatch)
    solve = frobenius.solve

    def counted(*args):
        calls.append("solve")
        return solve(*args)

    monkeypatch.setattr(frobenius, "solve", counted)
    code, _ = run_json(tmp_path, capsys, command, QX3_EPS7)
    assert (code, calls, len(made)) == (0, ["solve"], 1)


@pytest.mark.parametrize("command, doc, built", [
    ("witness", {"classification": {"mu": "1", "m": 2,
                                    "poles": [["2", 1], ["3", 2]]}}, 0),
    ("genfun", QX3_EPS7, 1),
])
def test_surface_jobs_normalize_at_most_one_generating_function(
        tmp_path, capsys, monkeypatch, command, doc, built):
    """A witness is checked against its classification's series with no
    rational function or characteristic polynomial; a genfun job builds
    its one rational function from the unreduced trace series."""
    made, charpolys = [], []
    init, charpoly = RationalFunction.__init__, linalg._charpoly

    def counted_init(self, num, den):
        made.append(1)
        init(self, num, den)

    def counted_charpoly(a):
        charpolys.append(1)
        return charpoly(a)

    monkeypatch.setattr(RationalFunction, "__init__", counted_init)
    monkeypatch.setattr(linalg, "_charpoly", counted_charpoly)
    code, _ = run_json(tmp_path, capsys, command, doc)
    assert (code, len(made), len(charpolys)) == (0, built, built)


def test_frobenius_validate_degenerate_counit(tmp_path, capsys):
    doc = {"frobenius": {
        "dim": 2,
        "structure": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
        "unit": ["1", "0"], "counit": ["1", "0"]}}
    code, out = run_json(tmp_path, capsys, "frobenius-validate", doc)
    assert code == 1
    assert out["error"] == "NondegeneracyFailure"


def test_genfun_truncated_cubic(tmp_path, capsys):
    code, out = run_json(tmp_path, capsys, "genfun", QX3_EPS7)
    assert code == 0
    assert out["display"] == "7 + 3T"
    assert out["genfun"] == {"num": ["7", "3"], "den": ["1"]}


def test_classify_accepts_split_form(tmp_path, capsys):
    doc = {"genfun": {"num": ["11/2", "-8", "-4"], "den": ["1", "-2"]}}
    code, out = run_json(tmp_path, capsys, "classify", doc)
    assert code == 0
    assert out["classification"] == {"mu": "5", "m": 2, "poles": [["2", 1]]}


def test_classify_rejects_m_equal_one(tmp_path, capsys):
    doc = {"genfun": {"num": ["5", "1"], "den": ["1"]}}
    code, out = run_json(tmp_path, capsys, "classify", doc)
    assert code == 1
    assert out["error"] == "Reject"
    assert out["reason"] == "M1Forbidden"


def test_classify_rejects_irrational_poles(tmp_path, capsys):
    doc = {"genfun": {"num": ["1"], "den": ["1", "-1", "-1"]}}
    code, out = run_json(tmp_path, capsys, "classify", doc)
    assert code == 1
    assert out["reason"] == "NonSplitDenominator"


# classify rejections: (numerator, denominator, reason, detail)
CLASSIFY_REJECTIONS = {
    "multiple-pole": (["1"], ["1", "-2", "1"], "MultiplePole",
                      "pole at 1/1 has order 2"),
    "quadratic-part": (["1", "0", "1"], ["1"], "PolynomialDegreeTooHigh",
                       "polynomial part has degree 2"),
    "half-multiplicity": (["1"], ["1", "-1/2"], "NonIntegerMultiplicity",
                          "pole at eigenvalue 1/2 has multiplicity 1/2"),
    "constant-alone": (["1"], ["1"], "ConstantTermMismatch",
                       "constant term 1 without a nilpotent block"),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_REJECTIONS))
def test_classify_rejection_names_its_reason(tmp_path, capsys, name):
    num, den, reason, detail = CLASSIFY_REJECTIONS[name]
    doc = {"genfun": {"num": num, "den": den}}
    assert run_cli(tmp_path, capsys, "classify", doc, "--format",
                   "json") == (1, json.dumps({
                       "error": "Reject", "message": f"{reason}: {detail}",
                       "reason": reason}) + "\n")


def test_classify_zero_generating_function(tmp_path, capsys):
    """The zero series is the zero algebra's: no poles, and "0" shown."""
    doc = {"genfun": {"num": ["0"], "den": ["1"]}}
    assert run_cli(tmp_path, capsys, "classify", doc) == (
        0, 'classification: {"m": 0, "mu": "0", "poles": []}\n'
           'command: classify\ndisplay: 0\n')


def test_genfun_in_a_basis_that_is_not_block_diagonal(tmp_path, capsys,
                                                       monkeypatch):
    """Q x Q with counit (1, 1/2), written on e_0 = (1, 2) and e_1 = (1, 3):
    the handle element (1, 2) acts by a matrix with both off-diagonal
    entries nonzero, so the characteristic polynomial takes Berkowitz's
    general step.  Its series is the classification's, poles 1 and 2 of
    multiplicity 1."""
    doc = {"frobenius": {
        "dim": 2,
        "structure": [[["-1", "2"], ["-3", "4"]], [["-3", "4"], ["-6", "7"]]],
        "unit": ["2", "-1"], "counit": ["2", "5/2"]}}
    general = []
    charpoly = linalg._charpoly

    def watched(a):
        general.append(any(any(row[:k]) and any(r[k] for r in a[:k])
                           for k, row in enumerate(a)))
        return charpoly(a)

    monkeypatch.setattr(linalg, "_charpoly", watched)
    code, out = run_json(tmp_path, capsys, "genfun", doc)
    assert (code, general) == (0, [True])
    cd = frobenius.ClassificationData(Fraction(0), 0, ((Fraction(1), 1),
                                                       (Fraction(2), 1)))
    assert (cli._genfun_from_json(out["genfun"])
            == classification_genfun(cd))
    code, out = run_json(tmp_path, capsys, "classify",
                         {"genfun": out["genfun"]})
    assert (code, out["classification"]) == (
        0, {"mu": "0", "m": 0, "poles": [["1", 1], ["2", 1]]})


def _genfun_doc(num: Polynomial, den: Polynomial) -> dict:
    rf = RationalFunction(num, den)
    return {"genfun": {"num": [str(c) for c in rf.num.coeffs],
                       "den": [str(c) for c in rf.den.coeffs]}}


def _linear_product(lams) -> Polynomial:
    out = Polynomial([1])
    for lam in lams:
        out = out * Polynomial([1, -lam])
    return out


# degree 8, 40-digit coefficients: eight poles near 10^5, or six of them
# times 1 - c T^2
BIG_POLES = [(Fraction(99991), 1), (Fraction(-99989), 2),
             (Fraction(199999, 2), 3), (Fraction(-299993, 3), 1),
             (Fraction(100003), 5), (Fraction(-100019), 4),
             (Fraction(100057), 6), (Fraction(-700001, 7), 2)]
BIG_C = 10**10 + 19


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_classify_31_digit_rejection_is_fast(tmp_path, flags):
    doc = {"genfun": {"num": ["1"],
                      "den": ["1", "0", "-1000000000000000000000000000057"]}}
    start = time.perf_counter()
    proc = run_process(tmp_path, "classify", doc, *flags, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["reason"] == "NonSplitDenominator"


@pytest.mark.parametrize("split", [True, False], ids=["split", "non-split"])
def test_classify_40_digit_degree_8_is_fast(tmp_path, split):
    lams = [lam for lam, _ in BIG_POLES]
    if split:
        num = Polynomial([])
        for lam, mult in BIG_POLES:
            others = _linear_product(x for x in lams if x != lam)
            num = num + others.scale(Fraction(mult) / lam)
        den = _linear_product(lams)
    else:
        num = Polynomial([1])
        den = _linear_product(lams[:6]) * Polynomial([1, 0, -BIG_C])
    doc = _genfun_doc(num, den)
    assert len(doc["genfun"]["den"]) == 9
    assert max(len(c.lstrip("-").split("/")[0])
               for c in doc["genfun"]["den"]) >= 40
    start = time.perf_counter()
    proc = run_process(tmp_path, "classify", doc, timeout=10)
    assert time.perf_counter() - start < 2.0
    out = json.loads(proc.stdout)
    if split:
        assert proc.returncode == 0
        assert out["classification"] == {
            "mu": "0", "m": 0,
            "poles": [[str(lam), mult] for lam, mult in sorted(
                BIG_POLES, key=lambda t: (t[0].numerator, t[0].denominator))]}
    else:
        assert proc.returncode == 1
        assert out["reason"] == "NonSplitDenominator"


def test_classify_poles_agreeing_mod_every_small_prime_is_fast(tmp_path):
    # 1 and 1 + P, for P the product of the primes below 10^4 (4,298
    # digits, 8.6 KB in all), agree mod each of those primes, so the
    # denominator's roots are first told apart mod 10007
    big = prod(p for p in range(2, 10**4)
               if all(p % d for d in range(2, isqrt(p) + 1)))
    doc = {"genfun": {"num": ["1"], "den": ["1", str(-2 - big), str(1 + big)]}}
    start = time.perf_counter()
    proc = run_process(tmp_path, "classify", doc, timeout=10)
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["reason"] == "NonIntegerMultiplicity"


def test_witness_round_trip_through_cli(tmp_path, capsys):
    cls = {"classification": {"mu": "0", "m": 0,
                              "poles": [["1", 2], ["2", 1]]}}
    code, out = run_json(tmp_path, capsys, "witness", cls)
    assert code == 0
    assert out["dim"] == 3
    code2, out2 = run_json(tmp_path, capsys, "genfun",
                           {"frobenius": out["frobenius"]})
    assert code2 == 0
    code3, out3 = run_json(tmp_path, capsys, "classify",
                           {"genfun": out2["genfun"]})
    assert code3 == 0
    assert out3["classification"] == cls["classification"]


def test_witness_m1_classification_is_domain_error(tmp_path, capsys):
    doc = {"classification": {"mu": "0", "m": 1, "poles": []}}
    code, out = run_json(tmp_path, capsys, "witness", doc)
    assert code == 1
    assert out["reason"] == "M1Forbidden"


def test_witness_duplicate_poles_malformed(tmp_path, capsys):
    doc = {"classification": {"mu": "0", "m": 0,
                              "poles": [["1", 1], ["1", 1]]}}
    code, out = run_json(tmp_path, capsys, "witness", doc)
    assert code == 2
    assert out["error"] == "ValueError"


# --- pih-solve / pih-check --------------------------------------------------


def test_pih_solve_two_blocks(tmp_path, capsys):
    doc = {"blocks": [["1", 2, "2"], ["2", 1, "1"]], "alpha1": "3"}
    code, out = run_json(tmp_path, capsys, "pih-solve", doc)
    assert code == 0
    assert out["gamma"] == ["2", "0", "1/2"]
    assert out["verdict"] == "consistent"
    assert out["det"] == "4"
    assert out["unit"] == "1"


def test_pih_solve_forbidden_excess(tmp_path, capsys):
    doc = {"blocks": [["1", 1, "2"]], "alpha1": "3"}
    code, out = run_json(tmp_path, capsys, "pih-solve", doc)
    assert code == 0
    assert out["verdict"] == "inconsistent"


def test_pih_solve_repeated_eigenvalue(tmp_path, capsys):
    doc = {"blocks": [["1", 1, "1"], ["1", 1, "1"]]}
    code, out = run_json(tmp_path, capsys, "pih-solve", doc)
    assert code == 1
    assert out["error"] == "SingularT"


@pytest.mark.parametrize("blocks, code", [
    ([["1", 2, "2"], ["2", 1, "1"]], 0), ([["1", 1, "1"], ["1", 1, "1"]], 1)])
def test_pih_solve_eliminates_nothing(tmp_path, capsys, monkeypatch, blocks,
                                      code):
    """Gamma and det T, singular or not, are read in closed form: no
    `Matrix`, no `_Echelon` and no `solve`."""
    assert not hasattr(frobenius, "det")
    made, solves = _count_eliminations(monkeypatch), []
    init, from_ints = Matrix.__init__, Matrix.from_ints.__func__

    def counted_init(self, entries):
        made.append("Matrix")
        init(self, entries)

    def counted_from_ints(cls, ints, den=1):
        made.append("Matrix")
        return from_ints(cls, ints, den)

    def counted_solve(*args):
        solves.append(args)
        return linalg.solve(*args)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    monkeypatch.setattr(Matrix, "from_ints", classmethod(counted_from_ints))
    monkeypatch.setattr(frobenius, "solve", counted_solve)
    assert run_json(tmp_path, capsys, "pih-solve", {"blocks": blocks})[0] \
        == code
    assert (made, solves) == ([], [])


@pytest.mark.parametrize("lam", ["1e1000", "1e2000"])
def test_pih_solve_huge_eigenvalue_exits_within_budget(tmp_path, capsys, lam):
    """A 36-byte job whose eigenvalue has 1,001 or 2,001 digits: r and
    det T are powers, not 32 steps of elimination on them (75 s and over
    100 s when they were).  The report cannot print r_5 = 10^5000 or
    beyond, an int of more than 4,300 digits, so the job exits 2."""
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "pih-solve",
                         {"blocks": [[lam, 32, "1"]]})
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out["error"]) == (2, "ValueError")
    assert "integer string conversion" in out["message"]


@pytest.mark.parametrize("command, doc, fields", [
    ("pih-solve", {"blocks": [["2", 1, "1"], ["3", 2, "1"], ["5", 1, "2"]],
                   "alpha1": "4"}, [1, 2, 1]),
    ("witness", {"classification": {"mu": "1", "m": 2,
                                    "poles": [["2", 1], ["3", 2]]}},
     [2, 1, 2]),
    ("cob2-pseudo", {"alpha": ["2", "3", "5", "9", "17", "33"], "d": 1,
                     "cap_dots": 2}, [1, 2]),
])
def test_integer_fields_are_read_once(tmp_path, capsys, monkeypatch, command,
                                      doc, fields):
    """The handler reads each field once and hands the library numbers, so
    each integer field of the job goes through `_exact_int` once."""
    calls, parse = [], cli._exact_int

    def counted(x):
        calls.append(x)
        return parse(x)

    monkeypatch.setattr(cli, "_exact_int", counted)
    assert run_json(tmp_path, capsys, command, doc)[0] == 0
    assert calls == fields


@pytest.mark.parametrize("command, doc, scalars", [
    ("pih-check", {"pih": {"p": ["1"], "h": [["3"]], "iota": ["1/3"]},
                   "alpha": ["1/3", "1", "3", "9", "27"]},
     ["1", "3", "1/3", "1/3", "1", "3", "9", "27"]),
    ("cob2-dim", {"m": 1, "alpha": [str(g) for g in range(2, 14)]},
     [str(g) for g in range(2, 14)]),
])
def test_rational_fields_are_read_once(tmp_path, capsys, monkeypatch, command,
                                       doc, scalars):
    """The algebra takes the numbers the job's readers made, so each
    rational scalar of the job goes through `_rat` once, in job order."""
    calls, parse = [], cli._rat

    def counted(x):
        calls.append(x)
        return parse(x)

    monkeypatch.setattr(cli, "_rat", counted)
    assert run_json(tmp_path, capsys, command, doc)[0] == 0
    assert calls == scalars


# a statespace monoid job's per-element values are parsed, every entry,
# and then held to the checks of `PseudoCharacter.from_element_values`:
# one value per element, constant on each class
MONOID_ALPHA_JOBS = {
    "over-long": (Z2_MONOID, ["2", "0", "1"],
                  "one value per element required"),
    "junk-past-the-elements": (Z2_MONOID, ["2", "0", "junk"],
                               "Invalid literal for Fraction: 'junk'"),
    "junk": (Z2_MONOID, ["2", "junk"], "Invalid literal for Fraction: 'junk'"),
    "short": (Z2_MONOID, ["2"], "one value per element required"),
    "not-constant": (S3_STANDARD, ["2", "0", "1", "-1", "-1", "0"],
                     "values not constant on class [1, 2, 5]"),
}


@pytest.mark.parametrize("name", sorted(MONOID_ALPHA_JOBS))
def test_monoid_alpha_is_read_like_element_values(tmp_path, capsys, name):
    monoid, alpha, message = MONOID_ALPHA_JOBS[name]
    doc = dict(monoid, alpha=alpha)
    assert run_json(tmp_path, capsys, "statespace", doc) == (
        2, {"error": "ValueError", "message": message})
    body = doc["monoid"]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PseudoCharacter.from_element_values(
            FiniteMonoid(body["table"], body["identity"]), cli._rats(alpha))


# Every list a job gives must be a JSON list: a list given as a string or
# an object was once read one character or one key per entry.  Each field:
# (command, job, path to a list).  The jobs are honest jobs of the mutation
# test below, which replaces each of these lists by a string and an object.
AUTOMATON = {"automaton": {"initial": ["1", "0"],
                           "transitions": {"a": [["0", "1"], ["1", "0"]]},
                           "final": ["0", "1"]}}
POINT = {"frobenius": {"dim": 1, "structure": [[["1"]]], "unit": ["1"],
                       "counit": ["1"]}}
PIH_GEOMETRIC = {"pih": {"p": ["1"], "h": [["3"]], "iota": ["1/3"]},
                 "alpha": ["1/3", "1", "3", "9", "27"]}
LOOP_OF_TWO = {"graph": {"n_vertices": 1, "edges": [[0, 0, [["2"]]]]}}
BLOCK = {"blocks": [["2", 1, "3"]]}
POLE = {"classification": {"mu": "0", "m": 0, "poles": [["2", 1]]}}
Z2_DEGREE = dict(Z2_MONOID, **Z2_REGULAR)
Z2_OBJECT = dict(Z2_MONOID, alpha=["2", "0"], object=[[0, 1], [0, -1]])
GENFUN = {"genfun": {"num": ["1"], "den": ["1", "-2"]}}
VALUE_LIST_FIELDS = {
    "pseudocharacter-values": ("pseudochar-degree", Z2_DEGREE,
                               ("pseudocharacter", "values")),
    "monoid-alpha": ("statespace", dict(Z2_MONOID, alpha=["2", "0"]),
                     ("alpha",)),
    "automaton-initial": ("automaton-minimize", AUTOMATON,
                          ("automaton", "initial")),
    "automaton-final": ("automaton-minimize", AUTOMATON,
                        ("automaton", "final")),
    "pih-check-p": ("pih-check", PIH_GEOMETRIC, ("pih", "p")),
    "pih-check-alpha": ("pih-check", PIH_GEOMETRIC, ("alpha",)),
    "cob2-dim-alpha": ("cob2-dim", {"alpha": ["2"] * 12, "m": 1}, ("alpha",)),
    "cob2-pseudo-alpha": ("cob2-pseudo", {"alpha": ["1"] * 6, "d": 1,
                                          "cap_dots": 2}, ("alpha",)),
    "frobenius-unit": ("frobenius-validate", QX3_EPS7, ("frobenius", "unit")),
    "frobenius-counit": ("frobenius-validate", QX3_EPS7,
                         ("frobenius", "counit")),
    "frobenius-structure": ("frobenius-validate", POINT,
                            ("frobenius", "structure")),
    "frobenius-structure-plane": ("frobenius-validate", POINT,
                                  ("frobenius", "structure", 0)),
    "frobenius-structure-row": ("frobenius-validate", QX3_EPS7,
                                ("frobenius", "structure", 0, 0)),
    "genfun-num": ("classify", GENFUN, ("genfun", "num")),
    "genfun-den": ("classify", GENFUN, ("genfun", "den")),
    "pih-check-h": ("pih-check", PIH_GEOMETRIC, ("pih", "h")),
    "pih-check-h-row": ("pih-check", PIH_GEOMETRIC, ("pih", "h", 0)),
    "automaton-transition": ("automaton-minimize", AUTOMATON,
                             ("automaton", "transitions", "a")),
    "automaton-transition-row": ("automaton-minimize", AUTOMATON,
                                 ("automaton", "transitions", "a", 0)),
    "holonomy-edges": ("holonomy", LOOP_OF_TWO, ("graph", "edges")),
    "holonomy-edge": ("holonomy", LOOP_OF_TWO, ("graph", "edges", 0)),
    "holonomy-edge-row": ("holonomy", LOOP_OF_TWO,
                          ("graph", "edges", 0, 2, 0)),
    "pih-solve-blocks": ("pih-solve", BLOCK, ("blocks",)),
    "pih-solve-block": ("pih-solve", BLOCK, ("blocks", 0)),
    "classification-poles": ("witness", POLE, ("classification", "poles")),
    "classification-pole": ("witness", POLE, ("classification", "poles", 0)),
    "statespace-object": ("statespace", Z2_OBJECT, ("object",)),
    "statespace-object-entry": ("statespace", Z2_OBJECT, ("object", 0)),
    "pseudocharacter-classes": ("pseudochar-degree", Z2_DEGREE,
                                ("pseudocharacter", "classes")),
    "pseudocharacter-class": ("pseudochar-degree", Z2_DEGREE,
                              ("pseudocharacter", "classes", 0)),
    "accepted": ("boolean-statespace", {"alphabet": ["a", "b"],
                                        "accepted": ["ab"]}, ("accepted",)),
}

# A free monoid state space on one letter, with a boundary and the Gram
# asked for, at --cap-words 1: an alphabet or a letters list read by its
# keys would still answer
FREE_STATESPACE = {"free_monoid": {"letters": ["a"]},
                   "loops": {"": "2", "a": "1", "aa": "3"},
                   "intervals": {"": "1", "a": "2", "aa": "1", "aaa": "5",
                                 "aaaa": "7"},
                   "emit_gram": True}
# The honest jobs of the mutation test: (command, job, flags), the jobs of
# VALUE_LIST_FIELDS and one for each command and field they miss
MUTATION_JOBS = [
    ("statespace", FREE_STATESPACE, ("--cap-words", "1")),
    ("boolean-statespace", {"alphabet": ["a"], "accepted": ["a"]}, ()),
    ("pseudochar-charpoly", dict(Z2_DEGREE, x=1, d=2), ()),
    ("pseudochar-lift", dict(Z2_DEGREE, table=[
        {"classes": [[0], [1]], "values": ["1", "1"]},
        {"classes": [[0], [1]], "values": ["1", "-1"]}]), ()),
    ("holonomy", dict(LOOP_OF_TWO, base=0), ()),
    ("genfun", POINT, ()),
    ("pih-solve", dict(BLOCK, alpha1="3"), ()),
    ("witness", {"classification": {"mu": "1", "m": 2,
                                    "poles": [["2", 1]]}}, ()),
] + [(command, doc, ()) for command, doc, _path in VALUE_LIST_FIELDS.values()]
# A value of each JSON kind; strings and numbers are one kind, scalars
KINDS = {"null": None, "bool": True, "scalar": "1", "list": [],
         "object": {"a": 1}}
# Mutants that give an accepted form, and so need not exit 2: (command,
# path, kind).  `emit_gram` must be true or false when given, so a null
# one exits 2; a null `alpha1` or `cap_dots` is the field left out.
ACCEPTED_FORMS = {
    ("boolean-statespace", ("alphabet",), "scalar"),  # a string of letters
    ("statespace", ("free_monoid", "letters"), "scalar"),
    ("pih-solve", ("alpha1",), "null"),
    ("cob2-pseudo", ("cap_dots",), "null"),
}


def _kind(value) -> str:
    if value is None or isinstance(value, bool):
        return "null" if value is None else "bool"
    return {list: "list", dict: "object"}.get(type(value), "scalar")


def _nodes(doc, path=()):
    """Each node of a JSON tree as (path, value), the root first."""
    yield path, doc
    if isinstance(doc, (list, dict)):
        for key, value in (enumerate(doc) if isinstance(doc, list)
                           else doc.items()):
            yield from _nodes(value, path + (key,))


def _with_field(doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the entry at path set to value."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *keys, last = path
    body = doc
    for key in keys:
        body = body[key]
    body[last] = value
    return doc


def _job_key(command: str, doc) -> str:
    return json.dumps([command, doc], sort_keys=True)


@pytest.fixture(scope="module")
def mutation_outcomes(tmp_path_factory) -> dict:
    """(command and job, path, kind) -> (kind of the node, exit code,
    report) for each job of MUTATION_JOBS with the node at path replaced
    by KINDS[kind], for each node and each kind but its own.  The job
    itself is at path None.  An escaping exception is exit code None."""
    outcomes = {}
    path = tmp_path_factory.mktemp("mutants") / "job.json"

    def run(command, doc, flags):
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = main([command, "--input", str(path), "--format",
                             "json", *flags])
        except Exception as exc:
            return None, repr(exc)
        return code, json.loads(out.getvalue())

    for command, doc, flags in MUTATION_JOBS:
        job = _job_key(command, doc)
        if (job, None, None) in outcomes:
            continue
        outcomes[job, None, None] = ("object", *run(command, doc, flags))
        for node, value in _nodes(doc):
            for kind, mutant in KINDS.items():
                if kind != _kind(value):
                    outcomes[job, node, kind] = (_kind(value), *run(
                        command, _with_field(doc, node, mutant), flags))
    return outcomes


def _list_report(kind: str) -> dict:
    got = {"scalar": "str", "object": "dict"}[kind]
    return {"error": "TypeError", "message": f"values must be a list, got {got}"}


def _object_report(kind: str) -> dict:
    got = {"scalar": "str", "list": "list"}[kind]
    return {"error": "TypeError",
            "message": f"values must be an object, got {got}"}


def test_every_job_field_of_the_wrong_json_kind_exits_two(mutation_outcomes):
    """Every node of every honest job, replaced by a value of each other
    JSON kind, exits 2, but for ACCEPTED_FORMS; a list replaced by a
    string or an object, and an object (the job, a section or a word
    table) replaced by a string or a list, says so
    (`test_value_lists_must_be_lists` finds each path of VALUE_LIST_FIELDS
    among them)."""
    wrong = []
    for (job, path, kind), (was, code, report) in mutation_outcomes.items():
        command = json.loads(job)[0]
        if path is None:
            ok = code == 0
        elif (command, path, kind) in ACCEPTED_FORMS:
            ok = code in (0, 1, 2)
        elif was == "list" and kind in ("scalar", "object"):
            ok = (code, report) == (2, _list_report(kind))
        elif was == "object" and kind in ("scalar", "list"):
            ok = (code, report) == (2, _object_report(kind))
        else:
            ok = code == 2
        if not ok:
            wrong.append((command, path, kind, code, report))
    assert wrong == []


@pytest.mark.parametrize("kind", ["string", "object"])
@pytest.mark.parametrize("name", sorted(VALUE_LIST_FIELDS))
def test_value_lists_must_be_lists(mutation_outcomes, name, kind):
    """One path of VALUE_LIST_FIELDS, as the mutation test ran it."""
    command, doc, path = VALUE_LIST_FIELDS[name]
    kind = "scalar" if kind == "string" else kind
    assert mutation_outcomes[_job_key(command, doc), path, kind] == (
        "list", 2, _list_report(kind))


@pytest.mark.parametrize("name", ["pih-check-h-row", "pih-solve-block",
                                  "classification-pole"])
def test_value_lists_must_be_lists_without_asserts(tmp_path, capsys, name):
    command, doc, path = VALUE_LIST_FIELDS[name]
    doc = _with_field(doc, path, KINDS["scalar"])
    report = _list_report("scalar")
    assert run_json(tmp_path, capsys, command, doc) == (2, report)
    proc = run_optimized(tmp_path, command, doc)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == report


# Fields once read by truthiness, by their keys or by len(), each of which
# answered (exit 0 or 1) or failed with an unrelated message: (command,
# job, message of the TypeError)
KIND_JOBS = {
    "alphabet-object": ("boolean-statespace", {
        "alphabet": {"a": 1, "b": 2}, "accepted": ["ab"]},
        "values must be a list, got dict"),
    "letters-object": ("statespace", dict(
        FREE_STATESPACE, free_monoid={"letters": {"a": 1}}),
        "values must be a list, got dict"),
    "alphabet-long-letter": ("boolean-statespace", {
        "alphabet": ["ab"], "accepted": [""]},
        "letters must be one character each, got 'ab'"),
    "accepted-list-word": ("boolean-statespace", {
        "alphabet": "ab", "accepted": [[]]}, "words must be strings, got list"),
    "accepted-object-word": ("boolean-statespace", {
        "alphabet": "ab", "accepted": [{"a": 1}]},
        "words must be strings, got dict"),
    "lift-table-empty-object": ("pseudochar-lift", dict(Z2_DEGREE, table={}),
                                "values must be a list, got dict"),
    "lift-table-keyed": ("pseudochar-lift", dict(Z2_DEGREE, table={
        "trivial": {"classes": [[0], [1]], "values": ["1", "1"]}}),
        "values must be a list, got dict"),
    "emit-gram-string": ("statespace", dict(Z2_OBJECT, emit_gram="no"),
                         "emit_gram must be a bool, got 'no'"),
    "emit-gram-object": ("statespace", dict(Z2_OBJECT, emit_gram={"a": 1}),
                         "emit_gram must be a bool, got {'a': 1}"),
    "emit-gram-null": ("statespace", dict(Z2_OBJECT, emit_gram=None),
                       "emit_gram must be a bool, got None"),
    "automaton-initial-number": ("automaton-minimize", {"automaton": dict(
        AUTOMATON["automaton"], initial=3)}, "values must be a list, got int"),
}


@pytest.mark.parametrize("name", sorted(KIND_JOBS))
def test_field_of_the_wrong_kind_exits_two(tmp_path, capsys, name):
    command, doc, message = KIND_JOBS[name]
    assert run_json(tmp_path, capsys, command, doc) == (
        2, {"error": "TypeError", "message": message})


@pytest.mark.parametrize("command, doc, word", [
    ("boolean-statespace", {"alphabet": "a", "accepted": ["ab"]}, "ab"),
    ("statespace", dict(FREE_STATESPACE, loops={"b": "1"}), "b"),
], ids=["accepted", "loops"])
def test_word_outside_the_alphabet_exits_two(tmp_path, capsys, command, doc,
                                             word):
    assert run_json(tmp_path, capsys, command, doc) == (2, {
        "error": "ValueError",
        "message": f"word {word!r} has a letter outside the alphabet 'a'"})


# The readers and writers of job text, by name; `cli` alone holds them
JOB_TEXT_NAMES = {"rat", "exact_int", "value_list", "rats", "rat_str"}


def _job_text_names(tree) -> list:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [n for a in node.names for n in (a.name, a.asname) if n]
    return [n for n in names if n.lstrip("_") in JOB_TEXT_NAMES
            or n.endswith(("_from_json", "_to_json"))]


def test_only_cli_reads_and_writes_job_text():
    """No module but `cli` defines or imports `rat`, `exact_int`,
    `_value_list`, `_rats`, `rat_str` or a `*_from_json` or `*_to_json`
    function, under any number of leading underscores."""
    src = Path(loopcat.__file__).parent
    found = {path.name: _job_text_names(ast.parse(path.read_text("utf-8")))
             for path in sorted(src.glob("*.py"))}
    assert {"_rat", "_exact_int", "_value_list", "_rats"} <= set(
        found.pop("cli.py"))
    assert {name: names for name, names in found.items() if names} == {}


def _attribute_writes(tree) -> list:
    """The line of each write to an attribute, `x.a = ...`, or to an item
    of one, `x.a[k] = ...`, as any assignment's or loop's target."""
    found = []
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Store):
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute):
                found.append(node.lineno)
    return found


def test_cli_writes_no_attribute():
    """The job reader builds its tables locally and hands them to their
    constructors, an `Evaluation` among them, so `cli` assigns no
    attribute of any object, nor an item of one."""
    path = Path(cli.__file__)
    assert _attribute_writes(ast.parse(path.read_text("utf-8"))) == []


def _names_used(tree) -> set:
    """Every name a syntax tree reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_package_definition_is_reached_outside_the_tests():
    """Each top-level function and class of the package is named by another
    top-level statement of the package, by a demo or by a bench file.  A
    construction only the tests reach is a reference, and lives in
    `tests/oracles.py`."""
    src = Path(loopcat.__file__).resolve().parent
    root = src.parents[1]
    defs, used = [], set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text("utf-8")).body:
            names = _names_used(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append(f"{path.stem}.{stmt.name}")
                names.discard(stmt.name)  # its own body does not reach it
            used |= names
    for path in sorted([*root.glob("demos/*.py"), *root.glob("bench/*.py")]):
        used |= _names_used(ast.parse(path.read_text("utf-8")))
    assert [d for d in defs if d.split(".")[1] not in used] == []


# Typed rejections no job can reach, each with the reason; any other
# DomainError and Reject reason must be an expected report in this file
UNREACHABLE_ERRORS = {
    "InternalInconsistency": "a cross-check that fails only on a library "
                             "fault, never on a job's data",
    "NotComposable": "the CLI's categories have one object, so every path "
                     "of their morphisms composes",
    "ObjectMismatch": "a job's pairing composes each ket with a transpose "
                      "of a ket of the same object",
}


def _expected_reports(tree) -> set:
    """The string an "error" or "reason" key holds, or a subscript by one
    is compared with, anywhere in tree."""
    keys, found = {"error", "reason"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            found.update(v.value for k, v in zip(node.keys, node.values)
                         if isinstance(k, ast.Constant) and k.value in keys
                         and isinstance(v, ast.Constant))
        elif (isinstance(node, ast.Compare)
              and isinstance(node.left, ast.Subscript)
              and isinstance(node.left.slice, ast.Constant)
              and node.left.slice.value in keys):
            found.update(c.value for c in node.comparators
                         if isinstance(c, ast.Constant))
    return found


def test_every_typed_rejection_has_a_cli_case():
    """Each DomainError the package defines, and each reason a `Reject`
    names, is an expected report of a `main` call in this file, or is on
    UNREACHABLE_ERRORS with its reason."""
    src = Path(loopcat.__file__).resolve().parent
    for path in src.glob("*.py"):
        __import__(f"loopcat.{path.stem}")
    classes, todo = set(), [loopcat.DomainError]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("loopcat."):
            classes.add(cls.__name__)
        todo += cls.__subclasses__()
    reasons = {node.args[0].value for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "Reject"}
    expected = (_expected_reports(ast.parse(Path(__file__).read_text("utf-8")))
                | {job[3] for job in REJECTION_JOBS.values()}
                | {job[2] for job in CLASSIFY_REJECTIONS.values()})
    assert set(UNREACHABLE_ERRORS) <= classes
    assert set(UNREACHABLE_ERRORS) & expected == set()
    assert sorted((classes | reasons) - expected - set(UNREACHABLE_ERRORS)) \
        == []


def test_pih_check_geometric_sequence(tmp_path, capsys):
    doc = {"pih": {"p": ["1"], "h": [["3"]], "iota": ["1/3"]},
           "alpha": ["1/3", "1", "3", "9", "27"]}
    code, out = run_json(tmp_path, capsys, "pih-check", doc)
    assert code == 0
    assert out["ok"] is True
    assert out["first_violation"] is None


def test_pih_check_reports_first_violation(tmp_path, capsys):
    doc = {"pih": {"p": ["1"], "h": [["3"]], "iota": ["1"]},
           "alpha": ["1", "3", "9", "27", "81"]}
    code, out = run_json(tmp_path, capsys, "pih-check", doc)
    assert code == 0
    assert out["ok"] is False
    assert out["first_violation"] == {"n": 0, "which": "trace"}


def test_pih_check_short_sequence(tmp_path, capsys):
    doc = {"pih": {"p": ["1"], "h": [["3"]], "iota": ["1/3"]},
           "alpha": ["1/3", "1"]}
    code, out = run_json(tmp_path, capsys, "pih-check", doc)
    assert code == 1
    assert out["error"] == "SequenceTooShort"


def test_pih_check_dimension_mismatch(tmp_path, capsys):
    doc = {"pih": {"p": ["1", "0"], "h": [["3"]], "iota": ["1"]},
           "alpha": ["1", "3", "9", "27", "81"]}
    code, out = run_json(tmp_path, capsys, "pih-check", doc)
    assert code == 1
    assert out["error"] == "DimensionMismatch"


# --- cob2 -------------------------------------------------------------------


def test_cob2_dim_constant_sequence(tmp_path, capsys):
    doc = {"alpha": ["2"] * 12, "m": 1}
    code, out = run_json(tmp_path, capsys, "cob2-dim", doc,
                         "--cap-genus", "3")
    assert code == 0
    assert out["dimension"] == 1
    assert out["stabilized"] is True
    assert out["spanning_size"] == 4


def test_cob2_dim_at_genus_cap_zero(tmp_path, capsys):
    """Two circles at genus cap 0: one disc on both, or a disc on each.
    They glue to a torus, a sphere twice, or two spheres, so the Gram is
    [[alpha_1, alpha_0], [alpha_0, alpha_0^2]] = [[2, 1], [1, 1]]; with
    no diagram below the cap, the space is not called stabilized."""
    doc = {"m": 2, "alpha": ["1", "2", "3", "4", "5"]}
    assert run_cli(tmp_path, capsys, "cob2-dim", doc, "--format", "json",
                   "--cap-genus", "0") == (0, json.dumps({
                       "cap_genus": 0, "command": "cob2-dim", "dimension": 2,
                       "m": 2, "spanning_size": 2, "stabilized": False})
                       + "\n")


def test_cob2_dim_builds_its_spanning_set_once(tmp_path, capsys,
                                              monkeypatch):
    calls = []
    build = statespaces.cob2_spanning

    def counted(m, genus_cap):
        calls.append((m, genus_cap))
        return build(m, genus_cap)

    monkeypatch.setattr(statespaces, "cob2_spanning", counted)
    doc = {"alpha": [str(g * g + 1) for g in range(20)], "m": 2}
    code, out = run_json(tmp_path, capsys, "cob2-dim", doc)
    assert code == 0
    assert calls == [(2, 4)]
    assert out["spanning_size"] == 30


@pytest.mark.parametrize("doc, cap, ranked", [
    # monoid labels do not depend on the cap: one Gram, ranked once
    (dict(Z2_MONOID, alpha=["2", "0"]), "4", [2]),
    # words of length <= 1 are fewer: a sub-Gram, ranked again
    ({"free_monoid": {"letters": "a"},
      "loops": {"a" * k: str(1 + 2 ** k) for k in range(5)}}, "2", [3, 2]),
])
def test_statespace_ranks_each_gram_once(tmp_path, capsys, monkeypatch, doc,
                                         cap, ranked):
    calls = []
    count = statespaces.rank

    def counted(m):
        calls.append(m.rows)
        return count(m)

    monkeypatch.setattr(statespaces, "rank", counted)
    code, out = run_json(tmp_path, capsys, "statespace", doc,
                         "--cap-words", cap)
    assert code == 0
    assert calls == ranked
    assert out["spanning_size"] == ranked[0]


def test_cob2_dim_flags_do_not_carry_over(tmp_path, capsys):
    """The parser is built once; a flag of one job is not the next job's."""
    doc = {"alpha": ["2"] * 12, "m": 1}
    assert run_json(tmp_path, capsys, "cob2-dim", doc,
                    "--cap-genus", "3")[1]["cap_genus"] == 3
    code, out = run_cli(tmp_path, capsys, "cob2-dim", doc)
    assert code == 0
    assert "cap_genus: 4" in out.splitlines()
    assert "spanning_size: 5" in out.splitlines()


def test_cob2_dim_short_sequence(tmp_path, capsys):
    doc = {"alpha": ["2", "2"], "m": 1}
    code, out = run_json(tmp_path, capsys, "cob2-dim", doc)
    assert code == 1
    assert out["error"] == "SequenceTooShort"


def test_cob2_pseudo_dimension_one_sequence(tmp_path, capsys):
    doc = {"alpha": ["1"] * 8, "d": 1}
    code, out = run_json(tmp_path, capsys, "cob2-pseudo", doc)
    assert code == 0
    assert out["ok"] is True
    assert out["witness"] is None
    assert out["cap_dots"] == 2


def test_cob2_pseudo_finds_witness(tmp_path, capsys):
    doc = {"alpha": ["5", "1"] + ["0"] * 10, "d": 1}
    code, out = run_json(tmp_path, capsys, "cob2-pseudo", doc)
    assert code == 0
    assert out["ok"] is False
    assert out["witness"][0] in ("interval", "circle")


def test_cob2_pseudo_above_the_default_degree_answers_on_request(
        tmp_path, capsys):
    doc = {"alpha": ["1"] * 20, "d": 7, "cap_dots": 1}
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "cob2-pseudo", doc,
                         "--max-degree", "7")
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out) == (0, {"command": "cob2-pseudo", "d": 7,
                               "cap_dots": 1, "ok": True, "witness": None})


def _surface_values(eigenvalues, n) -> list[str]:
    """alpha_0..alpha_(n-1) of the diagonal algebra with these
    eigenvalues of the handle: sum 1/lam, then sum lam^(k - 1)."""
    lams = [Fraction(x) for x in eigenvalues]
    return [str(sum(1 / lam for lam in lams))] + [
        str(sum(lam ** (k - 1) for lam in lams)) for k in range(1, n)]


@pytest.mark.parametrize("d, cap, alpha", [
    # the slowest job measured at the bound: six fractional eigenvalues
    (6, 7, _surface_values(["5/3", "-7/2", "9/4", "-2/3", "3/5", "4/7"], 58)),
    # (cap + 1) + 1 = 25000 closures, exactly the bound
    (0, 24998, ["0"] * 25000)])
def test_cob2_pseudo_at_the_closure_bound_answers(tmp_path, capsys, d, cap,
                                                  alpha):
    assert ((cap + 1) * comb(cap + d, d) + 1
            <= frobenius.COB2_PSEUDO_MAX_CLOSURES)
    doc = {"alpha": alpha, "d": d, "cap_dots": cap}
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "cob2-pseudo", doc)
    assert time.perf_counter() - start < JOB_BUDGET_S
    assert (code, out) == (0, {"command": "cob2-pseudo", "d": d,
                               "cap_dots": cap, "ok": True, "witness": None})
    doc["cap_dots"] = cap + 1
    doc["alpha"] = alpha + alpha[-1:] * (d + 1)
    assert run_json(tmp_path, capsys, "cob2-pseudo", doc) == (2, {
        "error": "ValueError",
        "message": f"d = {d} at cap_dots {cap + 1} has more than 25000 "
                   "closures"})


def test_cob2_pseudo_finds_circle_witness(tmp_path, capsys):
    # every interval closure vanishes; the all-cap circle pair reads
    # alpha_2^2 - alpha_3 = -1
    doc = {"alpha": ["0", "0", "0", "1"], "d": 1, "cap_dots": 1}
    code, out = run_json(tmp_path, capsys, "cob2-pseudo", doc)
    assert code == 0
    assert (out["ok"], out["witness"]) == (False, ["circle", [1, 1]])


# --- plumbing ---------------------------------------------------------------


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in out.splitlines()]
    for name, (_handler, help_line) in cli._COMMANDS.items():
        assert [name, help_line] in lines


@pytest.mark.parametrize("argv", [
    ["no-such-command", "--input", "job.json"], ["classify"],
    ["--input", "job.json"], []],
    ids=["unknown-command", "missing-input", "missing-command", "empty"])
def test_bad_command_line_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_options_may_precede_the_command(tmp_path, capsys):
    doc = {"genfun": {"num": ["5", "2"], "den": ["1"]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--format", "json", "--input", str(path), "classify"]) == 0
    before = capsys.readouterr().out
    assert run_cli(tmp_path, capsys, "classify", doc, "--format", "json") \
        == (0, before)


CLASSIFY_DOC = {"genfun": {"num": ["5", "2"], "den": ["1"]}}
CLASSIFY_JSON = ('{"classification": {"m": 2, "mu": "5", "poles": []}, '
                 '"command": "classify", "display": "5 + 2T"}\n')


def _never_parse():
    raise AssertionError("a well-formed command line reached argparse")


def test_well_formed_argv_never_builds_the_parser(tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(CLASSIFY_DOC), encoding="utf-8")
    monkeypatch.setattr(cli, "_parser", _never_parse)
    for argv in (["classify", "--input", str(path), "--format", "json"],
                 ("--format", "json", "--cap-genus", "2", "--input",
                  str(path), "classify", "--max-degree", "9")):
        assert main(argv) == 0
        assert capsys.readouterr().out == CLASSIFY_JSON
    monkeypatch.setattr(sys, "argv", ["loopcat", "classify", "--format",
                                      "json", "--input", str(path)])
    assert main() == 0
    assert capsys.readouterr().out == CLASSIFY_JSON


@pytest.mark.parametrize("argv, code, out", [
    (["classify", "--inp", "{path}", "--format", "json"], 0, CLASSIFY_JSON),
    (["classify", "--input={path}", "--format", "json"], 0, CLASSIFY_JSON),
    (["statespace", "--input", "{path}", "--cap-words=-1"], 2,
     "error: ValueError\nmessage: cap_words must be nonnegative, got -1\n"),
    (["classify", "--input", "{path}", "--format", "json", "--format",
      "text"], 0, 'classification: {"m": 2, "mu": "5", "poles": []}\n'
                  'command: classify\ndisplay: 5 + 2T\n')],
    ids=["abbreviated-flag", "flag-equals-value", "negative-cap",
         "repeated-format"])
def test_command_line_spellings_read_as_before(tmp_path, capsys, argv, code,
                                               out):
    doc = CLASSIFY_DOC if argv[0] == "classify" else dict(Z2_MONOID,
                                                          alpha=["2", "0"])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([a.format(path=path) for a in argv]) == code
    assert capsys.readouterr().out == out


def test_well_formed_process_never_imports_argparse(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(CLASSIFY_DOC), encoding="utf-8")
    src = str(Path(loopcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\nfrom loopcat.cli import main\ncode = main()\n"
              "print(sorted({'argparse', 'gettext', 'dataclasses', 'inspect'}"
              " & set(sys.modules)))\n"
              "raise SystemExit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "classify", "--input", str(path),
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (0, CLASSIFY_JSON + "[]\n", "")


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    code = main(["classify", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "JSONDecodeError" in out


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["classify", "--input", str(tmp_path / "nope.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "FileNotFoundError" in out


def test_missing_key_exits_two(tmp_path, capsys):
    code, out = run_json(tmp_path, capsys, "classify", {"wrong": 1})
    assert code == 2
    assert out["error"] == "KeyError"


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_job_exits_two(tmp_path, capsys, depth):
    """A document nested past the parser's recursion limit is malformed
    input, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    code = main(["classify", "--input", str(path), "--format", "json"])
    assert (code, json.loads(capsys.readouterr().out)) == (2, {
        "error": "ValueError", "message": "job document nests too deeply"})


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("doc, code", [
    (dict(Z2_MONOID, **Z2_REGULAR), 0),
    (dict(Z2_MONOID, pseudocharacter={"classes": [[0], [1]],
                                      "values": ["1/3", "0"]}), 1),
    (Z2_MONOID, 2)], ids=["report", "rejection", "malformed"])
def test_closed_stdout_exits_141_without_traceback(tmp_path, capsys, fmt, doc,
                                                  code):
    """With the reader gone before the report is written (`loopcat ... |
    head -c 0`), each exit path ends as a writer killed by SIGPIPE would:
    exit 128 + 13, and nothing on stderr."""
    flags = ("--format", fmt, "--max-degree", "3")
    assert run_cli(tmp_path, capsys, "pseudochar-degree", doc, *flags)[0] == code
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_process(tmp_path, "pseudochar-degree", doc, flags=flags,
                           stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def test_golden_reports_replay_byte_for_byte(tmp_path, capsys):
    """The `cob2-dim` and `cob2-pseudo` reports recorded in the benchmark's
    golden file, which no oracle recomputes, come back with the same exit
    code and the same stdout bytes."""
    jobs = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(jobs) == 160
    for job in jobs:
        got = run_cli(tmp_path, capsys, job["command"], job["doc"],
                      "--format", "json", *job["flags"])
        assert got == (job["code"], job["stdout"]), job["doc"]


def test_output_is_byte_stable(tmp_path, capsys):
    doc = dict(Z2_MONOID, alpha=["2", "0"])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for _ in range(2):
        for fmt in ("text", "json"):
            assert main(["statespace", "--input", str(path),
                         "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


def test_text_format_is_sorted_key_lines(tmp_path, capsys):
    doc = {"genfun": {"num": ["5", "2"], "den": ["1"]}}
    code, out = run_cli(tmp_path, capsys, "classify", doc)
    assert code == 0
    keys = [line.split(":", 1)[0] for line in out.splitlines()]
    assert keys == sorted(keys)
    assert "command: classify" in out.splitlines()
