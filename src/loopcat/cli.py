"""Batch command-line front end, and the one reader and writer of job text.

One job per invocation: read a JSON document, run one library operation,
print a deterministic report.  Exit codes: 0 success (report on stdout),
1 typed domain rejection (the mathematics said no; the error type and
reason are reported), 2 malformed input (schema, shape, or parse errors),
141 (128 + SIGPIPE) when the reader has closed stdout.

Caps are never silent: every handler echoes the caps it consulted into
its report.

The flags are declared once, in `_OPTIONS`.  A command line spelled
exactly, as every caller spells it, is read directly (`_read_argv`);
argparse (`_parser`) reads every other one and alone prints help and
usage errors (exit 2), so a well-formed job never imports it.

Job text is read and written here alone, and the library takes ints and
Fractions.  Each handler reads each field of its job once, with one reader
per kind of field (`_exact_int`, `_rat`, `_rats`, `_matrix`, `_words`,
`_alphabet`); every list, a record's too, must be a JSON list
(`_value_list`), and the job, each section and each word table a JSON
object (`_value_object`).  Reports print each Fraction with `str`.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from collections import defaultdict
from fractions import Fraction
from math import lcm
from operator import itemgetter
from types import SimpleNamespace

from .errors import DomainError
from .fincat import (FiniteMonoid, FreeBoundary, FreeMonoidCategory,
                     IntervalClass, MonoidCategory)
from .frobenius import (ClassificationData, FrobeniusAlgebra, PIHSystem,
                        Reject, classify_genfun, cob2_pseudochar_check,
                        generating_function, handle_element, pih_check,
                        pih_solve, surface_eval, validate, witness_synthesis)
from .linalg import (Matrix, Polynomial, RationalFunction, _integral,
                     format_poly)
from .pseudochar import (GraphHolonomy, Infeasible, PseudoCharacter,
                         alpha_charpoly, degree, graph_pseudoholonomy,
                         lift_with_table)
from .statespaces import (MAX_KETS, Evaluation, WeightedAutomaton,
                          cob2_spanning_size, cob2_state_space,
                          evaluation_from_monoid, hankel_minimize, ket_count,
                          restrict_state_space, state_space_boolean,
                          state_space_field)


# ---------------------------------------------------------------------------
# job text: one reader per kind of field, and the report writers


# Largest decimal exponent of a scalar string: Fraction("1e10000000") builds
# a 33-million-bit integer from 10 bytes.  Python refuses integer strings of
# more than 4,300 digits, so int() of a longer exponent is a ValueError too.
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _rat(x) -> Fraction:
    """A rational field: an int or an 'a/b' string.  A string whose
    decimal exponent exceeds _MAX_DECIMAL_EXPONENT in magnitude, and a
    bool, are ValueErrors, raised before any number is built."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError(f"not a number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if x.isascii() and (x.isdigit() or x[:1] == "-" and x[1:].isdigit()):
            return Fraction(int(x))  # a plain decimal integer, parsed in C
        num, slash, den = x.partition("/")
        if slash and x.isascii() and den.isdigit() and (
                num.isdigit() or num[:1] in "+-" and num[1:].isdigit()):
            p, q = int(num), int(den)  # a plain "p/q", parsed in C
            if q:
                return Fraction(p, q)
        exponent = _EXPONENT.search(x)
        if exponent and int(exponent[1]) > _MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {x!r} exceeds "
                             f"{_MAX_DECIMAL_EXPONENT} in magnitude")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def _exact_int(x) -> int:
    """An integer field, without truncation: a non-integral or infinite
    number, or a bool, is a ValueError."""
    try:
        n = int(x)
    except OverflowError:
        raise ValueError(f"not an integer: {x!r}") from None
    if isinstance(x, bool) or (n != x and not isinstance(x, str)):
        raise ValueError(f"not an integer: {x!r}")
    return n


def _value_list(values) -> list:
    """A job's list: any JSON value but a list is a TypeError."""
    if type(values) is not list:
        raise TypeError(f"values must be a list, got {type(values).__name__}")
    return values


def _value_object(values) -> dict:
    """A job, section or word table: any JSON value but an object is a
    TypeError."""
    if type(values) is not dict:
        raise TypeError(
            f"values must be an object, got {type(values).__name__}")
    return values


def _rat_reader():
    """`_rat`, parsing each distinct string once: a job's tables repeat a
    few values many times."""
    parsed: dict = {}

    def rat(x) -> Fraction:
        if isinstance(x, str):
            return parsed[x] if x in parsed else parsed.setdefault(x, _rat(x))
        return _rat(x)
    return rat


def _rats(values) -> tuple:
    """A list of rationals: `_value_list`, then `_rat` on each."""
    return tuple(map(_rat, _value_list(values)))


def _matrix(rows) -> Matrix:
    """A matrix: a list of rows, each a list of rationals (`_rats`)."""
    return Matrix([_rats(row) for row in _value_list(rows)])


def _words(values) -> tuple:
    """A list of words: a JSON list of strings."""
    bad = [type(w).__name__ for w in _value_list(values) if type(w) is not str]
    if bad:
        raise TypeError(f"words must be strings, got {bad[0]}")
    return tuple(values)


def _alphabet(letters) -> tuple:
    """An alphabet: a string of letters, or a list of them (`_words`), each
    one character, as a word spells them."""
    letters = tuple(letters) if isinstance(letters, str) else _words(letters)
    bad = [a for a in letters if len(a) != 1]
    if bad:
        raise TypeError(f"letters must be one character each, got {bad[0]!r}")
    return letters


def _object_from(doc: dict, default) -> tuple:
    """Signed object word [[obj, sign], ...]; signs are +1/-1."""
    out = []
    for entry in _value_list(doc.get("object", default)):
        obj, sign = _value_list(entry)
        if isinstance(obj, bool):  # no category here has one as an object
            raise ValueError(f"unknown object {obj!r}")
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        out.append((obj, sign))
    return tuple(out)


def _monoid_from_json(body) -> FiniteMonoid:
    body = _value_object(body)
    m = FiniteMonoid([_value_list(row) for row in _value_list(body["table"])],
                     _exact_int(body["identity"]))
    if m.size != _exact_int(body["size"]):
        raise ValueError("declared size does not match table")
    return m


def _pseudochar_from_json(monoid: FiniteMonoid, body) -> PseudoCharacter:
    body = _value_object(body)
    classes = [tuple(_value_list(c)) for c in _value_list(body["classes"])]
    if any(isinstance(e, bool) for c in classes for e in c):
        raise ValueError("class entries must be element numbers, not booleans")
    return PseudoCharacter(monoid, _rats(body["values"]), classes=classes)


def _frobenius_from_json(body) -> FrobeniusAlgebra:
    """The algebra of a job's dense cells c[i][j][k].  Its four keys are
    read and every cell parsed, in row-major order, then the unit and the
    counit, before the dimension and the shape are checked.  A row of "0"
    cells, found in one pass, gives no terms; any other row parses its
    other cells and keeps the nonzero ones, over the lcm of their
    denominators.  Each distinct string is parsed once: dim^3 cells hold
    a few distinct values (`_rat_reader`)."""
    dim, structure, unit, counit = itemgetter("dim", "structure", "unit",
                                              "counit")(_value_object(body))
    dim, cell = _exact_int(dim), _rat_reader()
    planes = []
    for plane in _value_list(structure):
        rows = []
        for row in map(_value_list, _value_list(plane)):
            if row.count("0") == len(row):
                rows.append(())
            else:
                cells = ((k, cell(x)) for k, x in enumerate(row) if x != "0")
                rows.append([(k, c) for k, c in cells if c])
        planes.append(rows)
    unit, counit = (tuple(map(cell, _value_list(v))) for v in (unit, counit))
    if dim <= 0:
        raise ValueError("dimension must be positive")
    if len(structure) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in structure):
        raise ValueError("structure constants must be dim^3")
    scale = lcm(*{c.denominator for plane in planes for row in plane
                  for _, c in row})
    terms = tuple(tuple(tuple([(k, c.numerator * (scale // c.denominator))
                               for k, c in row]) if row else ()
                        for row in plane) for plane in planes)
    return FrobeniusAlgebra(terms, scale, unit, counit)


def _frobenius_to_json(fa: FrobeniusAlgebra) -> dict:
    def row(terms):
        cells = ["0"] * fa.dim
        for k, c in terms:
            cells[k] = str(Fraction(c, fa.scale))
        return cells
    return {"dim": fa.dim,
            "structure": [list(map(row, plane)) for plane in fa._terms],
            "unit": list(map(str, fa.unit)),
            "counit": list(map(str, fa.counit))}


def _genfun_from_json(body) -> RationalFunction:
    body = _value_object(body)
    return RationalFunction(Polynomial(_rats(body["num"])),
                            Polynomial(_rats(body["den"])))


def _genfun_to_json(rf: RationalFunction) -> dict:
    return {"num": list(map(str, rf.num.coeffs)),
            "den": list(map(str, rf.den.coeffs))}


def _classification_from_json(body) -> ClassificationData:
    body = _value_object(body)
    mu, m = _rat(body["mu"]), _exact_int(body["m"])
    return ClassificationData(mu, m, tuple(
        (_rat(lam), _exact_int(mult))
        for lam, mult in map(_value_list, _value_list(body["poles"]))))


def _classification_to_json(cd: ClassificationData) -> dict:
    return {"mu": str(cd.mu), "m": cd.m,
            "poles": [[str(lam), mult] for lam, mult in cd.poles]}


def _evaluation_from(doc: dict):
    """Category, evaluation, boundary from either input shape.

    {"monoid": ..., "alpha": [...]}: per-element loop values over the
    one-object category.  {"free_monoid": {"letters": ...}, "loops":
    {word: value}, "intervals"?: {word: value}}: tables keyed by words,
    each distinct value string parsed once (`_rat_reader`).  Loop words are
    canonicalized here, through the category's `loop_class`, to check
    that the values agree on each class.  Each table is built by class and
    by word, and the evaluation is made once from the four: the pairing
    keys a free strand by the word it reads, and reaches a class only for
    a word the table lacks.  A boundary is attached iff intervals are given.
    """
    if "monoid" in doc:
        cat = MonoidCategory(_monoid_from_json(doc["monoid"]))
        return cat, evaluation_from_monoid(cat, _rats(doc["alpha"])), None
    cat = FreeMonoidCategory(
        _alphabet(_value_object(doc["free_monoid"])["letters"]))
    rat = _rat_reader()
    loops, intervals, loop_words, interval_words = {}, {}, {}, {}
    for text, v in _value_object(doc.get("loops", {})).items():
        word = cat.word(text)
        key, v = cat.loop_class(0, [word]), rat(v)
        if loops.setdefault(key, v) != v:
            raise ValueError(f"conflicting values on the loop class of {text!r}")
        loop_words[word] = _integral(v)
    # distinct words are distinct intervals: no two texts share a key
    for text, v in _value_object(doc.get("intervals", {})).items():
        word = cat.word(text)
        intervals[IntervalClass(0, (), word)] = v = rat(v)
        interval_words[word] = _integral(v)
    return (cat, Evaluation(loops, intervals, loop_words, interval_words),
            FreeBoundary(cat) if "intervals" in doc else None)


def _check_kets(cat, obj, boundary, cap_words: int) -> None:
    """Reject, before any word, table or ket is built, a negative cap_words
    and an object of more than MAX_KETS kets (`ket_count`).  Free monoid
    words up to cap_words label arcs and ends, counted as a geometric sum;
    past MAX_KETS the cap is clipped, keeping the count above the bound."""
    if cap_words < 0:
        raise ValueError(f"cap_words must be nonnegative, got {cap_words}")
    if isinstance(cat, FreeMonoidCategory):
        cap = min(cap_words, MAX_KETS)
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
    emit_gram = doc.get("emit_gram", False)
    if type(emit_gram) is not bool:
        raise TypeError(f"emit_gram must be a bool, got {emit_gram!r}")
    _check_kets(cat, obj, boundary, args.cap_words)
    ss = state_space_field(cat, obj, alpha, boundary, args.cap_words)
    stabilized = args.cap_words >= 1 and restrict_state_space(
        ss, cat, args.cap_words - 1).dimension == ss.dimension
    out = {
        "object": [[o, s] for o, s in obj],
        "spanning_size": len(ss.spanning),
        "gram_rows": ss.gram.rows,
        "gram_cols": ss.gram.cols,
        "rank": ss.dimension,
        "stabilized": stabilized,
        "cap_words": args.cap_words,
    }
    if emit_gram:
        out["gram"] = [list(map(str, row)) for row in ss.gram.entries]
    return out


def _run_boolean_statespace(doc: dict, args) -> dict:
    cat = FreeMonoidCategory(_alphabet(doc["alphabet"]))
    boundary = FreeBoundary(cat)
    accepted = {cat.word(text) for text in _words(doc["accepted"])}
    obj = _object_from(doc, [[0, 1]])
    _check_kets(cat, obj, boundary, args.cap_words)
    signs = {s for _, s in obj}
    if 1 in signs and -1 in signs and all(x in cat.objects for x, _ in obj):
        # a language values intervals only, and the first ket's arcs close
        # loops of empty labels against its own bra, so the pairing would
        # stop at its first entry: raise its MissingValue before any word,
        # table or ket is built (`enumerate_kets` rejects unknown objects)
        Evaluation().loop(cat.loop_class(0, []))
    # a language is 1 on its words and 0 on every other: the pairing reads
    # the table by word, and the splice by class, each through the default
    alpha = Evaluation(
        interval_values=defaultdict(
            int, {IntervalClass(0, (), w): 1 for w in accepted}),
        interval_words=defaultdict(int, dict.fromkeys(accepted, 1)))
    ss = state_space_boolean(cat, obj, alpha, boundary, args.cap_words)
    return {
        "alphabet": "".join(cat.alphabet),
        "object": [[o, s] for o, s in obj],
        "spanning_size": len(ss.spanning),
        "n_states": ss.n_states,
        "n_join_irreducible": ss.n_join_irreducible,
        "states": ["".join(str(b) for b in row) for row in ss.states],
        "cap_words": args.cap_words,
    }


def _run_automaton_minimize(doc: dict, args) -> dict:
    body = _value_object(doc["automaton"])
    initial = _rats(body["initial"])
    n = len(initial)
    transitions = {}
    for letter, rows in _value_object(body["transitions"]).items():
        m = _matrix(rows)
        if m.rows != n or m.cols != n:
            raise ValueError(f"transition {letter!r} is not {n}x{n}")
        transitions[letter] = m
    a = WeightedAutomaton(initial, transitions, _rats(body["final"]))
    b = hankel_minimize(a)
    return {
        "dimension_before": a.dimension,
        "dimension_after": b.dimension,
        "automaton": {
            "initial": list(map(str, b.initial)),
            "transitions": {
                letter: [list(map(str, row)) for row in m.entries]
                for letter, m in b.transitions.items()},
            "final": list(map(str, b.final)),
        },
    }


def _run_pseudochar_degree(doc: dict, args) -> dict:
    monoid = _monoid_from_json(doc["monoid"])
    alpha = _pseudochar_from_json(monoid, doc["pseudocharacter"])
    res = degree(alpha, args.max_degree)
    return {
        "d": res.d,
        "witness": list(res.witness),
        "tuples_checked": res.tuples_checked,
        "max_degree": args.max_degree,
    }


def _run_pseudochar_charpoly(doc: dict, args) -> dict:
    monoid = _monoid_from_json(doc["monoid"])
    alpha = _pseudochar_from_json(monoid, doc["pseudocharacter"])
    x, d = _exact_int(doc["x"]), _exact_int(doc["d"])
    if d > args.max_degree:  # the degree search runs up to d
        raise ValueError(f"d = {d} exceeds --max-degree {args.max_degree}")
    p = alpha_charpoly(alpha, x, d)
    return {
        "x": x,
        "d": d,
        "coeffs": list(map(str, p.coeffs)),
        "display": format_poly(p, "t"),
    }


def _run_pseudochar_lift(doc: dict, args) -> dict:
    monoid = _monoid_from_json(doc["monoid"])
    alpha = _pseudochar_from_json(monoid, doc["pseudocharacter"])
    table = [_pseudochar_from_json(monoid, body)
             for body in _value_list(doc["table"])]
    mults = lift_with_table(alpha, table)
    return {"multiplicities": list(mults)}


def _run_holonomy(doc: dict, args) -> dict:
    body = _value_object(doc["graph"])
    gh = GraphHolonomy(_exact_int(body["n_vertices"]),
                       [(_exact_int(src), _exact_int(tgt), _matrix(rows))
                        for src, tgt, rows in map(_value_list,
                                                  _value_list(body["edges"]))])
    base = _exact_int(doc.get("base", 0))
    rep = graph_pseudoholonomy(gh, args.cap_words, base)
    return {
        "base": base,
        "dimension": rep.dimension,
        "d": rep.degree.d,
        "tuples_checked": rep.degree.tuples_checked,
        "witness": [[list(map(str, row)) for row in m.entries]
                    for m in rep.degree.witness],
        "table": {",".join(str(e) for e in walk): str(tr)
                  for walk, tr in rep.table.items()},
        "max_len": args.cap_words,
    }


def _run_frobenius_validate(doc: dict, args) -> dict:
    fa = _frobenius_from_json(doc["frobenius"])
    validate(fa)
    return {
        "ok": True,
        "dim": fa.dim,
        "handle": list(map(str, handle_element(fa).element)),
        "genus_one_value": str(surface_eval(fa, 1)),
    }


def _run_genfun(doc: dict, args) -> dict:
    fa = _frobenius_from_json(doc["frobenius"])
    validate(fa)
    rf = generating_function(fa)
    return {
        "dim": fa.dim,
        "genfun": _genfun_to_json(rf),
        "display": str(rf),
    }


def _run_classify(doc: dict, args) -> dict:
    rf = _genfun_from_json(doc["genfun"])
    cd = classify_genfun(rf)
    return {
        "classification": _classification_to_json(cd),
        "display": str(rf),
    }


def _run_witness(doc: dict, args) -> dict:
    cd = _classification_from_json(doc["classification"])
    fa = witness_synthesis(cd)
    return {
        "dim": fa.dim,
        "frobenius": _frobenius_to_json(fa),
    }


def _run_pih_solve(doc: dict, args) -> dict:
    blocks = tuple((_rat(lam), _exact_int(n), _rat(mult)) for lam, n, mult
                   in map(_value_list, _value_list(doc["blocks"])))
    alpha1 = doc.get("alpha1")
    cs = pih_solve(blocks, None if alpha1 is None else _rat(alpha1))
    return {
        "blocks": [[str(lam), n, str(mult)] for lam, n, mult in cs.blocks],
        "r": list(map(str, cs.r)),
        "gamma": list(map(str, cs.gamma)),
        "verdict": cs.verdict,
        "det": str(cs.det),
        "unit": str(cs.unit),
    }


def _run_pih_check(doc: dict, args) -> dict:
    body = _value_object(doc["pih"])
    pih = PIHSystem(_rats(body["p"]), _matrix(body["h"]), _rats(body["iota"]))
    rep = pih_check(pih, _rats(doc["alpha"]))
    violation = rep.first_violation
    return {
        "dim": rep.dim,
        "ok": rep.ok,
        "first_violation": None if violation is None else {
            "n": violation.n, "which": violation.which},
    }


def _run_cob2_dim(doc: dict, args) -> dict:
    m = _exact_int(doc["m"])
    seq = _rats(doc["alpha"])
    dim, stabilized = cob2_state_space(m, seq, args.cap_genus)
    return {
        "m": m,
        "dimension": dim,
        "stabilized": stabilized,
        "spanning_size": cob2_spanning_size(m, args.cap_genus),
        "cap_genus": args.cap_genus,
    }


def _run_cob2_pseudo(doc: dict, args) -> dict:
    d = _exact_int(doc["d"])
    if d > args.max_degree:  # the recursion closes up d + 1 strands
        raise ValueError(f"d = {d} exceeds --max-degree {args.max_degree}")
    cap = doc.get("cap_dots")
    rep = cob2_pseudochar_check(_rats(doc["alpha"]), d,
                                None if cap is None else _exact_int(cap))
    return {
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
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return str(v)
    return json.dumps(v, sort_keys=True)


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    for key in sorted(doc):
        print(f"{key}: {_render_scalar(doc[key])}")


# flag -> (type, choices, default, help line), in help order; a default
# of None marks a required flag.  Every command takes every flag.
_OPTIONS = {
    "--input": (None, None, None, "path to the JSON job document"),
    "--format": (None, ("text", "json"), "text",
                 "report format (default: text)"),
    "--cap-words": (int, None, 4, "label word-length cap; walk-length cap "
                                  "for holonomy (default: 4)"),
    "--cap-genus": (int, None, 4, "genus cap for cob2-dim (default: 4)"),
    "--max-degree": (int, None, 6, "degree search ceiling (default: 6)"),
}


def _read_argv(argv):
    """The namespace `_parser()` would fill from argv, read directly when
    argv is spelled exactly: one command name, and every other token a flag
    of `_OPTIONS` followed by a value, neither empty nor starting with '-',
    that argparse would convert and check alike; the last of a repeated
    flag counts.  None for every other spelling, left to `_parser()`."""
    values = {flag: default
              for flag, (_type, _choices, default, _help) in _OPTIONS.items()}
    command = None
    tokens = iter(argv)
    for token in tokens:
        if token in _COMMANDS and command is None:
            command = token
            continue
        option = _OPTIONS.get(token)
        value = next(tokens, "")
        if option is None or not value or value[0] == "-":
            return None
        kind, choices, _default, _help = option
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[token] = value
    if command is None or None in values.values():  # a required flag unset
        return None
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


@functools.cache
def _parser():
    """The argparse parser, for every command line `_read_argv` declines:
    help, usage errors, and spellings such as `--inp` or `--flag=value`.
    Built from `_OPTIONS` on the first call and reused (parsing leaves no
    state on it); argparse is imported here, so a well-formed command line
    never imports it.  The command is one positional, and the commands'
    help lines follow the parser's own."""
    import argparse
    width = max(map(len, _COMMANDS))
    parser = argparse.ArgumentParser(
        prog="loopcat",
        description="Exact diagram-calculus reports from JSON job files.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<{width}}  {help_line}"
            for name, (_handler, help_line) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the report to make (listed below)")
    for flag, (kind, choices, default, help_line) in _OPTIONS.items():
        parser.add_argument(flag, type=kind, choices=choices, default=default,
                            required=default is None, help=help_line)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    code = 0
    try:
        with open(args.input, encoding="utf-8") as fh:
            try:
                doc = _value_object(json.load(fh))
            except RecursionError:
                raise ValueError("job document nests too deeply") from None
        report = handler(doc, args)
        report["command"] = args.command
    except DomainError as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Reject):
            report["reason"] = exc.reason
        if isinstance(exc, Infeasible) and exc.solution is not None:
            report["solution"] = list(map(str, exc.solution))
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
