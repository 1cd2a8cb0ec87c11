"""Every function of the package serves an output.

A fresh process runs the outputs under `sys.setprofile` and records which
of the package's code objects they call: one seed-1 bench round of each
workload through `cli.main` as JSON, the golden jobs of
`bench/golden.json` in both formats, and the demos.  Each named function,
method and closure compiled from `src/loopcat` must be among them, or be
on UNREACHED_FUNCTIONS with the reason it stays; a listed function that an
output calls fails as well.  A function only tests call is a reference,
and lives in `tests/oracles.py`.  The bench files are read, never changed.

    PYTHONPATH=src:bench python tests/test_reach.py WORK_DIR

prints the reached functions as JSON, with the job files in WORK_DIR.
"""

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loopcat"

# Functions no output calls, each with the reason it stays
UNREACHED_FUNCTIONS = {
    "cli._parser": "builds the help and the usage errors, which no job "
                   "prints",
    "diagrams.BrauerMorphism.__eq__": "a diagram is its structure: the "
                                      "formal sums of tests/oracles.py key "
                                      "on it",
    "diagrams.BrauerMorphism.__hash__": "a diagram is its structure: the "
                                        "formal sums of tests/oracles.py "
                                        "key on it",
    "linalg.Polynomial.__eq__": "exact values compare by value",
    "linalg.RationalFunction.__eq__": "exact values compare by value",
    "linalg.RationalFunction.__add__": "exact values add by value",
    "fincat.MonoidCategory.identity": "the category interface of open "
                                      "composition",
    "fincat.MonoidCategory.compose": "the category interface of open "
                                     "composition",
    "fincat.FreeBoundary.gl": "the boundary interface of open composition",
    "fincat.FreeMonoidCategory.compose": "a statespace job whose interval "
                                         "chains pass two arcs composes "
                                         "through it; tests/test_cli.py "
                                         "runs one",
    "statespaces._template_gram.<locals>.rescan": "finds the entry that "
                                                  "misses a value, so runs "
                                                  "only on a rejected job",
    "statespaces._pairing.<locals>.loop_strand.<locals>.evaluate":
        "runs only when a loop memo lacks a word, as every job's memo starts "
        "from its tables",
    "statespaces._cob2_gram_rows.<locals>.component.<locals>.evaluate":
        "runs only when a genus memo lacks a key, and then raises",
}


def _named_functions() -> dict:
    """(file name, first line, name) -> qualified name, `module.Class.f`
    or `module.f.<locals>.g`, of each named function, method and closure
    compiled from the package; class bodies, lambdas and comprehensions
    are not functions.  The names are built by walking the nesting, as
    `co_qualname` is 3.11+, and checked against it where it exists."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [(compile(path.read_text("utf-8"), str(path), "exec"), "")]
        while todo:
            code, prefix = todo.pop()
            for inner in code.co_consts:
                if (not isinstance(inner, type(code))
                        or inner.co_name.startswith("<")):
                    continue
                qualname = prefix + inner.co_name
                if inner.co_flags & CO_NEWLOCALS:  # a function, not a class
                    assert getattr(inner, "co_qualname", qualname) == qualname
                    found[path.name, inner.co_firstlineno,
                          inner.co_name] = f"{path.stem}.{qualname}"
                    qualname += ".<locals>"
                todo.append((inner, qualname + "."))
    return found


def _record(work: Path) -> list:
    """(file name, first line, name) of each package function the outputs
    call, with their job files written under work."""
    import jobs
    from loopcat import cli

    golden = json.loads((ROOT / "bench" / "golden.json").read_text("utf-8"))
    calls = []
    for workload in ("surfaces", "statespaces", "traces"):
        rng = jobs.round_rng(workload, 1, 0)
        calls += [(job.command, job.doc, "json", job.flags) for job in
                  __import__(f"wl_{workload}").make_round(rng, set(), golden)]
    calls += [(job["command"], job["doc"], fmt, job["flags"])
              for job in golden for fmt in ("text", "json")]
    argvs = []
    for i, (command, doc, fmt, flags) in enumerate(calls):
        path = work / f"job{i:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argvs.append([command, "--input", str(path), "--format", fmt, *flags])
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            cli.main(argv)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    sys.setprofile(None)
    return sorted({(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
                   for c in seen if Path(c.co_filename).parent == PACKAGE})


def test_every_package_function_serves_an_output(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",  # bench/ stays as is
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), str(ROOT / "bench"),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = _named_functions()
    reached = {names.get(tuple(key)) for key in json.loads(proc.stdout)}
    unreached = set(names.values()) - reached
    assert sorted(unreached - set(UNREACHED_FUNCTIONS)) == []
    assert sorted(set(UNREACHED_FUNCTIONS) - unreached) == []


if __name__ == "__main__":
    print(json.dumps(_record(Path(sys.argv[1]))))
