"""Record the golden reports for jobs that have no independent oracle.

`cob2-dim` and `cob2-pseudo` take a surface-value sequence; the benchmark
draws those jobs from the fixed pool written here, and compares each report
with the bytes recorded when the pool was made.  Every job is run twice and
must print the same bytes both times.

    python3 bench/record_golden.py      # rewrites bench/golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from loopcat import cli  # noqa: E402

EIGENVALUES = [Fraction(x) for x in ("1", "2", "-1", "3", "1/2", "-2", "3/2")]
PER_SETTING = 40
SEQUENCE_LENGTH = 40


def surface_values(spectrum, nilpotent: int):
    """alpha_g of a product of Q's with eps(1) = 1/lam and, for nilpotent = m
    >= 2, a Q[x]/x^m block with eps(1) = 0: sum mult lam^(g-1) for g >= 2."""
    seq = [sum((mult / lam for lam, mult in spectrum), Fraction(0)),
           nilpotent + sum(mult for _, mult in spectrum)]
    for g in range(2, SEQUENCE_LENGTH):
        seq.append(sum((mult * lam ** (g - 1) for lam, mult in spectrum),
                       Fraction(0)))
    return seq


def spectra(rng):
    out = []
    for k in (1, 2, 3):
        for lams in combinations(EIGENVALUES, k):
            out.append([(lam, rng.randint(1, 2)) for lam in lams])
    rng.shuffle(out)
    return out


def pool_jobs():
    rng = random.Random("loopcat-golden-pool")
    jobs = []
    for command, key, values in (("cob2-dim", "m", (1, 2)),
                                 ("cob2-pseudo", "d", (2, 3))):
        for v in values:
            for spectrum in spectra(rng)[:PER_SETTING]:
                nilpotent = rng.choice([0, 0, 2])
                seq = surface_values(spectrum, nilpotent)
                doc = {"alpha": [str(x) for x in seq], key: v}
                dim = nilpotent + sum(mult for _, mult in spectrum)
                jobs.append({"command": command, key: v, "flags": [],
                             "doc": doc, "algebra_dim": dim})
    return jobs


def run(command, doc, flags, workdir: Path):
    path = workdir / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([command, "--input", str(path), "--format", "json",
                         *flags])
    return code, buf.getvalue()


def main() -> int:
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for job in pool_jobs():
            first = run(job["command"], job["doc"], job["flags"], Path(tmp))
            second = run(job["command"], job["doc"], job["flags"], Path(tmp))
            if first != second:
                print(f"unstable report for {job}", file=sys.stderr)
                return 1
            job["code"], job["stdout"] = first
            entries.append(job)
    (HERE / "golden.json").write_text(json.dumps(entries, indent=0) + "\n",
                                      encoding="utf-8")
    print(f"recorded {len(entries)} golden reports")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
