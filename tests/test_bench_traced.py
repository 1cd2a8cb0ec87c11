"""The benchmark's traced run of each workload reports `"correct": true`.

That verdict fails when a span or counter the workload requires records
nothing, when a report disagrees with its oracle or its golden bytes, or
when the traced and untraced runs print different bytes; the name checks
of `test_bench_bindings.py` see none of these.  The statespaces run also
bounds the bras its pairings build by twice its splices, and its ket
enumerations by twice its state spaces.  The run works on
a copy of `bench/` and `src/`, so its work files stay out of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["statespaces", "surfaces", "traces"])
def test_traced_bench_run_is_correct(tmp_path, workload):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stderr
    if workload == "statespaces":
        # each Gram of w matchings transposes at most once per template
        # (w^2, as many as it splices) and once per matching (w)
        calls = {name: report["metrics"][f"diagrams.{name}.calls"]["value"]
                 for name in ("compose", "transpose")}
        assert 0 < calls["transpose"] <= 2 * calls["compose"], calls
        # each statespace job enumerates its kets once, restriction to
        # cap - 1 filters them, and the 10 boolean-statespace jobs
        # enumerate once each: twice per job would mean enumerating again
        kets = {name: report["metrics"][f"statespaces.{name}.calls"]["value"]
                for name in ("enumerate_kets", "state_space_field")}
        assert kets["enumerate_kets"] < 2 * kets["state_space_field"], kets
