"""Job records shared by the three workload generators.

A job is one CLI invocation: a subcommand, a JSON document written to a
file, extra flags, and what the oracle needs to check the report.  The
program under test only ever sees the written file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Job:
    command: str
    doc: dict
    check: str  # key into the workload's CHECKS table
    expect: dict = field(default_factory=dict)
    flags: tuple = ()
    path: Path | None = None  # where setup wrote `doc`

    def key(self) -> str:
        """Canonical text of what the program sees, for the no-repeat rule."""
        return json.dumps([self.command, list(self.flags), self.doc],
                          sort_keys=True)


class CheckFailed(Exception):
    """A report disagrees with its oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def load_report(code: int, stdout: str, want_code: int) -> dict:
    require(code == want_code, f"exit code {code}, expected {want_code}")
    lines = stdout.splitlines()
    require(len(lines) == 1, f"{len(lines)} report lines, expected 1")
    return json.loads(lines[0])


def expect_equal(report: dict, want: dict) -> None:
    """Whole-report comparison: the same keys and the same values."""
    require(set(report) == set(want),
            f"keys {sorted(report)} != {sorted(want)}")
    for k in sorted(want):
        require(report[k] == want[k], f"{k}: {report[k]!r} != {want[k]!r}")


def expect_reject(report: dict, error: str, reason: str | None = None) -> None:
    require(report.get("error") == error,
            f"error {report.get('error')!r}, expected {error!r}")
    if reason is not None:
        require(report.get("reason") == reason,
                f"reason {report.get('reason')!r}, expected {reason!r}")
        require(str(report.get("message", "")).startswith(reason),
                "message does not name the reason")


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def distinct(make, used: set, rng: random.Random, tries: int = 64) -> Job:
    """Draw from `make(rng)` until the job is new to this run."""
    for _ in range(tries):
        job = make(rng)
        k = job.key()
        if k not in used:
            used.add(k)
            return job
    raise RuntimeError(f"no fresh {job.command} job after {tries} draws")


def from_pool(pool: list, used: set, rng: random.Random, **select) -> Job:
    """An unused recorded job matching `select`, with its golden report."""
    fresh = [e for e in pool
             if all(e[k] == v for k, v in select.items())
             and Job(e["command"], e["doc"], "golden",
                     flags=tuple(e["flags"])).key() not in used]
    if not fresh:
        raise RuntimeError(f"golden pool exhausted for {select}")
    e = rng.choice(fresh)
    job = Job(e["command"], e["doc"], "golden", e, tuple(e["flags"]))
    used.add(job.key())
    return job


def check_golden(job: Job, code: int, stdout: str) -> None:
    e = job.expect
    require(code == e["code"], f"exit code {code}, golden {e['code']}")
    require(stdout == e["stdout"], "report differs from the golden bytes")
    if job.command == "cob2-pseudo" and e["algebra_dim"] <= job.doc["d"]:
        # antisymmetrizing more strands than the algebra has dimensions
        # must vanish
        require(json.loads(stdout)["ok"] is True,
                "degree-d vanishing fails for an algebra of dimension <= d")
