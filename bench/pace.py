"""Host speed, read from a fixed reference job that does not use loopcat.

The benchmark runs on a few virtual CPUs of a shared host.  Over seconds
to minutes the host runs the same Python code up to about 1.8 times
faster or slower, depending on what else it runs.  A run scales its
timings by the host's speed at the time, read from a reference
mini-job: parse CLI arguments, read a small JSON file, multiply Fraction
matrices, write JSON to a buffer.  It does what a small loopcat job does,
with the standard library only, so a change to loopcat never changes it.

A timing t measured while the reference took r seconds is reported as
t * REF_SECONDS / r: the time it would have taken while the reference
took REF_SECONDS.  REF_SECONDS is the reference's time on the 2 GHz Xeon
vCPU the benchmark was written on, so figures read as seconds there.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import time
from fractions import Fraction
from pathlib import Path

REF_SECONDS = 2.7e-3


def write_reference_input(path: Path) -> None:
    rows = [[str(Fraction(5 * i + j + 1, j + 2)) for j in range(4)]
            for i in range(4)]
    path.write_text(json.dumps({"m": rows, "pad": list(range(200))}),
                    encoding="utf-8")


def reference(path: Path) -> float:
    """Seconds one run of the reference mini-job takes now."""
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--input")
    parser.add_argument("--format")
    args = parser.parse_args(["--input", str(path), "--format", "json"])
    doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    m = [[Fraction(x) for x in row] for row in doc["m"]]
    p = m
    for _ in range(4):
        p = [[sum((p[i][k] * m[k][j] for k in range(4)), Fraction(0))
              for j in range(4)] for i in range(4)]
    io.StringIO().write(json.dumps({"p": [[str(x) for x in row] for row in p]},
                                   sort_keys=True))
    return time.perf_counter() - t0


def scale(samples: list) -> float:
    """Factor that turns a timing taken beside `samples` (seconds of
    reference runs) into one at REF_SECONDS."""
    return REF_SECONDS / statistics.median(samples)
