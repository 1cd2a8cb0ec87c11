"""Batch command-line front end.

One job per invocation: read a JSON document, run one library operation,
print a deterministic report.  Exit codes: 0 success (report on stdout),
1 typed domain rejection (the mathematics said no; the error type and
reason are reported), 2 malformed input (schema, shape, or parse errors),
141 (128 + SIGPIPE) when the reader has closed stdout.

Caps are never silent: every handler echoes the caps it consulted into
its report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import DomainError
from .fincat import (FreeBoundary, FreeMonoidCategory, IntervalClass,
                     MonoidCategory, monoid_from_json)
from .frobenius import (PIHSystem, Reject, classification_from_json,
                        classification_to_json, classify_genfun,
                        cob2_pseudochar_check, frobenius_from_json,
                        frobenius_to_json, generating_function,
                        genfun_from_json, genfun_to_json, handle_element,
                        pih_check, pih_solve, surface_eval, validate,
                        witness_synthesis)
from .linalg import Matrix, exact_int, format_poly, rat, rat_str
from .pseudochar import (GraphHolonomy, Infeasible, alpha_charpoly, degree,
                         graph_pseudoholonomy, lift_with_table,
                         pseudochar_from_json)
from .statespaces import (MAX_KETS, Evaluation, WeightedAutomaton,
                          cob2_spanning_size, cob2_state_space,
                          evaluation_from_monoid, hankel_minimize, ket_count,
                          restrict_state_space, state_space_boolean,
                          state_space_field)


# ---------------------------------------------------------------------------
# shared input helpers


def _object_from(doc: dict, default) -> tuple:
    """Signed object word [[obj, sign], ...]; signs are +1/-1."""
    raw = doc.get("object", default)
    out = []
    for entry in raw:
        obj, sign = entry
        if isinstance(obj, bool):  # no category here has one as an object
            raise ValueError(f"unknown object {obj!r}")
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        out.append((obj, sign))
    return tuple(out)


def _rat_list(values) -> list:
    return [rat(v) for v in values]


def _evaluation_from(doc: dict):
    """Category, evaluation, boundary from either input shape.

    {"monoid": ..., "alpha": [...]}: per-element loop values over the
    one-object category.  {"free_monoid": {"letters": ...}, "loops":
    {word: value}, "intervals"?: {word: value}}: tables keyed by words,
    canonicalized here, loops through the category's `loop_class`, whose
    cache the pairing then hits; a boundary is attached iff intervals are
    given.
    """
    if "monoid" in doc:
        cat = MonoidCategory(monoid_from_json(doc))
        return cat, evaluation_from_monoid(cat, doc["alpha"]), None
    cat = FreeMonoidCategory(tuple(doc["free_monoid"]["letters"]))
    loop_values = {}
    for text, v in doc.get("loops", {}).items():
        key = cat.loop_class(0, [cat.word(text)])
        v = rat(v)
        if loop_values.setdefault(key, v) != v:
            raise ValueError(f"conflicting values on the loop class of {text!r}")
    interval_values = {}
    for text, v in doc.get("intervals", {}).items():
        key = IntervalClass(0, (), cat.word(text))
        v = rat(v)
        if interval_values.setdefault(key, v) != v:
            raise ValueError(f"conflicting values on the interval {text!r}")
    boundary = FreeBoundary(cat) if "intervals" in doc else None
    return cat, Evaluation(loop_values, interval_values), boundary


def _check_kets(cat, obj, boundary, cap_words: int) -> None:
    """Reject, before any word, table or ket is built, an object with more
    than MAX_KETS kets (`ket_count`).  A free monoid labels arcs and ends
    with its words up to cap_words, counted as a geometric sum; past
    MAX_KETS the cap is clipped, which keeps the count above the bound."""
    if isinstance(cat, FreeMonoidCategory):
        cap = min(max(cap_words, 0), MAX_KETS)
        labels = sum(len(cat.alphabet) ** i for i in range(cap + 1))
    else:
        labels = cat.monoid.size
    q = sum(s == -1 for _, s in obj)
    if ket_count(len(obj) - q, q, labels,
                 labels if boundary else 0) > MAX_KETS:
        raise ValueError(f"object has more than {MAX_KETS} kets at "
                         f"cap_words {cap_words}")


# ---------------------------------------------------------------------------
# handlers (one per command; each returns a JSON-ready dict)


def _run_statespace(doc: dict, args) -> dict:
    cat, alpha, boundary = _evaluation_from(doc)
    obj = _object_from(doc, [[0, 1], [0, -1]])
    _check_kets(cat, obj, boundary, args.cap_words)
    ss = state_space_field(cat, obj, alpha, boundary, args.cap_words)
    stabilized = args.cap_words >= 1 and restrict_state_space(
        ss, cat, args.cap_words - 1).dimension == ss.dimension
    out = {
        "command": "statespace",
        "object": [[o, s] for o, s in obj],
        "spanning_size": len(ss.spanning),
        "gram_rows": ss.gram.rows,
        "gram_cols": ss.gram.cols,
        "rank": ss.dimension,
        "stabilized": stabilized,
        "cap_words": args.cap_words,
    }
    if doc.get("emit_gram"):
        out["gram"] = [[rat_str(x) for x in row] for row in ss.gram.entries]
    return out


def _run_boolean_statespace(doc: dict, args) -> dict:
    cat = FreeMonoidCategory(tuple(doc["alphabet"]))
    boundary = FreeBoundary(cat)
    accepted = {cat.word(text) for text in doc["accepted"]}
    obj = _object_from(doc, [[0, 1]])
    _check_kets(cat, obj, boundary, args.cap_words)
    signs = {s for _, s in obj}
    if 1 in signs and -1 in signs and all(x in cat.objects for x, _ in obj):
        # a language values intervals only, and the first ket's arcs close
        # loops of empty labels against its own bra, so the pairing would
        # stop at its first entry: raise its MissingValue before any word,
        # table or ket is built (`enumerate_kets` rejects unknown objects)
        Evaluation().loop(cat.loop_class(0, []))
    # at most (words up to the cap)^2 <= kets^2 words; the one ket of the
    # empty object closes no interval, so it needs none
    table = {IntervalClass(0, (), w): int(w in accepted)
             for w in cat.words_up_to(2 * args.cap_words if obj else 0)}
    alpha = Evaluation(interval_values=table)
    ss = state_space_boolean(cat, obj, alpha, boundary, args.cap_words)
    return {
        "command": "boolean-statespace",
        "alphabet": "".join(cat.alphabet),
        "object": [[o, s] for o, s in obj],
        "spanning_size": len(ss.spanning),
        "n_states": ss.n_states,
        "n_join_irreducible": ss.n_join_irreducible,
        "states": ["".join(str(b) for b in row) for row in ss.states],
        "cap_words": args.cap_words,
    }


def _run_automaton_minimize(doc: dict, args) -> dict:
    body = doc["automaton"]
    initial = _rat_list(body["initial"])
    final = _rat_list(body["final"])
    n = len(initial)
    if len(final) != n:
        raise ValueError("initial and final lengths differ")
    transitions = {}
    for letter, rows in body["transitions"].items():
        m = Matrix(rows)
        if m.rows != n or m.cols != n:
            raise ValueError(f"transition {letter!r} is not {n}x{n}")
        transitions[letter] = m
    a = WeightedAutomaton(initial, transitions, final)
    b = hankel_minimize(a)
    return {
        "command": "automaton-minimize",
        "dimension_before": a.dimension,
        "dimension_after": b.dimension,
        "automaton": {
            "initial": [rat_str(x) for x in b.initial],
            "transitions": {
                letter: [[rat_str(x) for x in row] for row in m.entries]
                for letter, m in b.transitions.items()},
            "final": [rat_str(x) for x in b.final],
        },
    }


def _run_pseudochar_degree(doc: dict, args) -> dict:
    monoid = monoid_from_json(doc)
    alpha = pseudochar_from_json(monoid, doc)
    res = degree(alpha, args.max_degree)
    return {
        "command": "pseudochar-degree",
        "d": res.d,
        "witness": list(res.witness),
        "tuples_checked": res.tuples_checked,
        "max_degree": args.max_degree,
    }


def _run_pseudochar_charpoly(doc: dict, args) -> dict:
    monoid = monoid_from_json(doc)
    alpha = pseudochar_from_json(monoid, doc)
    x, d = exact_int(doc["x"]), exact_int(doc["d"])
    if d > args.max_degree:  # the degree search runs up to d
        raise ValueError(f"d = {d} exceeds --max-degree {args.max_degree}")
    p = alpha_charpoly(alpha, x, d)
    return {
        "command": "pseudochar-charpoly",
        "x": x,
        "d": d,
        "coeffs": [rat_str(c) for c in p.coeffs],
        "display": format_poly(p, "t"),
    }


def _run_pseudochar_lift(doc: dict, args) -> dict:
    monoid = monoid_from_json(doc)
    alpha = pseudochar_from_json(monoid, doc)
    table = [pseudochar_from_json(monoid, {"pseudocharacter": body})
             for body in doc["table"]]
    mults = lift_with_table(alpha, table)
    return {"command": "pseudochar-lift", "multiplicities": list(mults)}


def _run_holonomy(doc: dict, args) -> dict:
    body = doc["graph"]
    gh = GraphHolonomy(exact_int(body["n_vertices"]),
                       [(exact_int(src), exact_int(tgt), Matrix(rows))
                        for src, tgt, rows in body["edges"]])
    base = exact_int(doc.get("base", 0))
    rep = graph_pseudoholonomy(gh, args.cap_words, base)
    return {
        "command": "holonomy",
        "base": base,
        "dimension": rep.dimension,
        "d": rep.degree.d,
        "tuples_checked": rep.degree.tuples_checked,
        "witness": [[[rat_str(x) for x in row] for row in m.entries]
                    for m in rep.degree.witness],
        "table": {",".join(str(e) for e in walk): rat_str(tr)
                  for walk, tr in rep.table.items()},
        "max_len": args.cap_words,
    }


def _run_frobenius_validate(doc: dict, args) -> dict:
    fa = frobenius_from_json(doc)
    validate(fa)
    return {
        "command": "frobenius-validate",
        "ok": True,
        "dim": fa.dim,
        "handle": [rat_str(x) for x in handle_element(fa).element],
        "genus_one_value": rat_str(surface_eval(fa, 1)),
    }


def _run_genfun(doc: dict, args) -> dict:
    fa = frobenius_from_json(doc)
    validate(fa)
    rf = generating_function(fa)
    return {
        "command": "genfun",
        "dim": fa.dim,
        "genfun": genfun_to_json(rf)["genfun"],
        "display": str(rf),
    }


def _run_classify(doc: dict, args) -> dict:
    rf = genfun_from_json(doc)
    cd = classify_genfun(rf)
    return {
        "command": "classify",
        "classification": classification_to_json(cd)["classification"],
        "display": str(rf),
    }


def _run_witness(doc: dict, args) -> dict:
    cd = classification_from_json(doc)
    fa = witness_synthesis(cd)
    return {
        "command": "witness",
        "dim": fa.dim,
        "frobenius": frobenius_to_json(fa)["frobenius"],
    }


def _run_pih_solve(doc: dict, args) -> dict:
    blocks = [(rat(lam), exact_int(n), rat(mult))
              for lam, n, mult in doc["blocks"]]
    alpha1 = doc.get("alpha1")
    cs = pih_solve(blocks, None if alpha1 is None else rat(alpha1))
    return {
        "command": "pih-solve",
        "blocks": [[rat_str(lam), n, rat_str(mult)] for lam, n, mult in cs.blocks],
        "r": [rat_str(x) for x in cs.r],
        "gamma": [rat_str(x) for x in cs.gamma],
        "verdict": cs.verdict,
        "det": rat_str(cs.det),
        "unit": rat_str(cs.unit),
    }


def _run_pih_check(doc: dict, args) -> dict:
    body = doc["pih"]
    pih = PIHSystem(tuple(_rat_list(body["p"])), Matrix(body["h"]),
                    tuple(_rat_list(body["iota"])))
    rep = pih_check(pih, _rat_list(doc["alpha"]))
    violation = rep.first_violation
    return {
        "command": "pih-check",
        "dim": rep.dim,
        "ok": rep.ok,
        "first_violation": None if violation is None else {
            "n": violation.n, "which": violation.which},
    }


def _run_cob2_dim(doc: dict, args) -> dict:
    m = exact_int(doc["m"])
    seq = _rat_list(doc["alpha"])
    dim, stabilized = cob2_state_space(m, seq, args.cap_genus)
    return {
        "command": "cob2-dim",
        "m": m,
        "dimension": dim,
        "stabilized": stabilized,
        "spanning_size": cob2_spanning_size(m, args.cap_genus),
        "cap_genus": args.cap_genus,
    }


def _run_cob2_pseudo(doc: dict, args) -> dict:
    seq, d = _rat_list(doc["alpha"]), exact_int(doc["d"])
    cap_dots = doc.get("cap_dots")
    cap_dots = None if cap_dots is None else exact_int(cap_dots)
    if d > args.max_degree:  # the recursion closes up d + 1 strands
        raise ValueError(f"d = {d} exceeds --max-degree {args.max_degree}")
    rep = cob2_pseudochar_check(seq, d, cap_dots)
    return {
        "command": "cob2-pseudo",
        "d": rep.d,
        "cap_dots": rep.cap_dots,
        "ok": rep.ok,
        "witness": None if rep.witness is None else [rep.witness[0],
                                                     list(rep.witness[1])],
    }


# name -> (handler, help line)
_COMMANDS = {
    "statespace": (_run_statespace,
                   "gram rank of the state space at an object"),
    "boolean-statespace": (_run_boolean_statespace,
                           "distinct/join-irreducible states over the Boolean semiring"),
    "automaton-minimize": (_run_automaton_minimize,
                           "exact weighted-automaton minimization"),
    "pseudochar-degree": (_run_pseudochar_degree,
                          "least vanishing level of the antisymmetrized traces"),
    "pseudochar-charpoly": (_run_pseudochar_charpoly,
                            "degree-d characteristic polynomial at an element"),
    "pseudochar-lift": (_run_pseudochar_lift,
                        "nonnegative-integer multiplicities against a character table"),
    "holonomy": (_run_holonomy,
                 "closed-walk trace table and degree of a matrix-labeled graph"),
    "frobenius-validate": (_run_frobenius_validate,
                           "axioms, handle element, genus-one value"),
    "genfun": (_run_genfun,
               "rational generating function of the surface values"),
    "classify": (_run_classify, "admissibility of a generating function"),
    "witness": (_run_witness, "an algebra realizing a classification"),
    "pih-solve": (_run_pih_solve,
                  "confluent expansion coefficients and dimension verdict"),
    "pih-check": (_run_pih_check,
                  "(p, h, iota) realization against a value sequence"),
    "cob2-dim": (_run_cob2_dim,
                 "circle-count state-space dimension with genus cap"),
    "cob2-pseudo": (_run_cob2_pseudo,
                    "degree-d vanishing for a surface-value sequence"),
}


# ---------------------------------------------------------------------------
# report emission: byte-identical for identical inputs


def _render_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, str)):
        return str(v)
    return json.dumps(v, sort_keys=True)


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    for key in sorted(doc):
        print(f"{key}: {_render_scalar(doc[key])}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves no state on it, each call fills a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True,
                        help="path to the JSON job document")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--cap-words", type=int, default=4, dest="cap_words",
                        help="label word-length cap; walk-length cap "
                             "for holonomy (default: 4)")
    common.add_argument("--cap-genus", type=int, default=4, dest="cap_genus",
                        help="genus cap for cob2-dim (default: 4)")
    common.add_argument("--max-degree", type=int, default=6,
                        dest="max_degree",
                        help="degree search ceiling (default: 6)")
    parser = argparse.ArgumentParser(
        prog="loopcat",
        description="Exact diagram-calculus reports from JSON job files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_line)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    code = 0
    try:
        with open(args.input, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError("job document nests too deeply") from None
        report = handler(doc, args)
    except DomainError as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Reject):
            report["reason"] = exc.reason
        if isinstance(exc, Infeasible) and exc.solution is not None:
            report["solution"] = [rat_str(s) for s in exc.solution]
        code = 1
    except (OSError, ValueError, TypeError, KeyError, IndexError,
            AttributeError) as exc:
        report, code = {"error": type(exc).__name__, "message": str(exc)}, 2
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit as a writer killed by SIGPIPE,
        # with stdout on devnull so that the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
