import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, isqrt, prod
from pathlib import Path

import pytest

import loopcat
from loopcat import frobenius, statespaces
from loopcat.cli import main
from loopcat.fincat import FreeMonoidCategory, symmetric_group
from loopcat.linalg import Polynomial, RationalFunction, rat_str
from loopcat.statespaces import MAX_KETS
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
    # loop values 1 + 2^k + 3^k: the Hankel Gram of a^i against a^j has
    # rank min(cap + 1, 3), so it still grows from cap 1 to cap 2
    doc = {"free_monoid": {"letters": "a"},
           "loops": {"a" * k: str(1 + 2 ** k + 3 ** k) for k in range(7)}}
    ranks = {}
    for cap in (1, 2, 3):
        code, out = run_json(tmp_path, capsys, "statespace", doc,
                             "--cap-words", str(cap))
        assert code == 0
        ranks[cap] = (out["rank"], out["stabilized"])
    assert ranks == {1: (2, False), 2: (3, False), 3: (3, True)}


def test_statespace_enumerates_its_kets_once(tmp_path, capsys, monkeypatch):
    """The stabilization check reads the kets at cap - 1 off the kets
    already paired at the cap, so a job enumerates once: for a free monoid
    with and without a boundary, whose smaller set is smaller, and for a
    monoid, whose set is the same."""
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
     "no value for interval IntervalClass(base=0, gl=(), gr=(1,))")])
def test_statespace_missing_value_names_its_class(tmp_path, capsys, doc,
                                                  message):
    assert run_cli(tmp_path, capsys, "statespace", doc, "--format", "json",
                   "--cap-words", "1") == (
        1, json.dumps({"error": "MissingValue", "message": message}) + "\n")


def test_statespace_conflicting_loop_keys_rejected(tmp_path, capsys):
    # ab and ba name the same loop class; disagreeing values are malformed
    doc = {"free_monoid": {"letters": "ab"},
           "loops": {"ab": "1", "ba": "2"}}
    code, out = run_json(tmp_path, capsys, "statespace", doc)
    assert code == 2
    assert out["error"] == "ValueError"


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


@pytest.mark.parametrize("k", [3, 4, 6, 8, 12])
def test_holonomy_many_loops_exit_two_at_once(tmp_path, capsys, k):
    # the walks give n >= 88 distinct matrices, so C(n + 2, 3) > 100,000
    start = time.perf_counter()
    code, out = run_json(tmp_path, capsys, "holonomy", _loops_doc(k),
                         "--cap-words", "4")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, {
        "error": "ValueError",
        "message": "closed walks at vertex 0 give 39 or more distinct "
                   "matrices, over 10000 tuples at level 2"})


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
    assert (code, out) == (2, {"error": "AttributeError", "message":
                               "'list' object has no attribute 'items'"})


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


def test_frobenius_validate_builds_one_handle(tmp_path, capsys, monkeypatch):
    calls = []
    solve_unique = frobenius.solve_unique

    def counted(m, b):
        calls.append(m.rows)
        return solve_unique(m, b)

    monkeypatch.setattr(frobenius, "solve_unique", counted)
    code, out = run_json(tmp_path, capsys, "frobenius-validate", QX3_EPS7)
    assert (code, out["genus_one_value"]) == (0, "3")
    assert calls == [3]


@pytest.mark.parametrize("command", ["frobenius-validate", "genfun"])
def test_frobenius_job_eliminates_its_gram_once(tmp_path, capsys, monkeypatch,
                                                command):
    assert not hasattr(frobenius, "inverse")
    calls = []
    for name in ("solve_unique", "solve", "det"):
        def counted(*args, name=name, fn=getattr(frobenius, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(frobenius, name, counted)
    code, _ = run_json(tmp_path, capsys, command, QX3_EPS7)
    assert (code, calls) == (0, ["solve_unique"])


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


def _genfun_doc(num: Polynomial, den: Polynomial) -> dict:
    rf = RationalFunction(num, den)
    return {"genfun": {"num": [rat_str(c) for c in rf.num.coeffs],
                       "den": [rat_str(c) for c in rf.den.coeffs]}}


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
            "poles": [[rat_str(lam), mult] for lam, mult in sorted(
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
