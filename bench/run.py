"""loopcat benchmark: seeded CLI job streams, checked by independent oracles.

    python3 bench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0

One client, one job at a time, in this process: each job is a JSON file
handed to `loopcat.cli.main([command, "--input", path, "--format", "json",
...])` with stdout captured.  Workloads are built from `--seed` in rounds
of fixed shape (see wl_*.py).  One whole round runs untimed as warm-up;
the timed loop then runs whole rounds until `--seconds` have passed and
at least MIN_ROUNDS rounds are done, then checks every report.  The last
stdout line is one JSON object:

  --trace 0  end-to-end metrics of the untraced run, taken from its
             typical round: slot i of every round is the same kind of job
             at the same size, so each slot's latency is the median over
             the timed rounds, and throughput and quantiles are those of
             that round of slot medians.  Timings are scaled to a fixed
             host speed (pace.py).
  --trace 1  per-layer metrics: TRACE_ROUNDS rounds run untraced, then
             again under the outside-in tracer (tracer.py); the two runs
             must print the same bytes for every job

Work files go to .bench_work/ under the checkout.  See bench/README.md
for the workloads, metrics and the predictions they are meant to test.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs as joblib
import pace
import wl_statespaces
import wl_surfaces
import wl_traces
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {"surfaces": wl_surfaces, "statespaces": wl_statespaces,
             "traces": wl_traces}
MIN_ROUNDS = 7          # slot medians outvote three disturbed rounds
MAX_ROUNDS = 21
SETUP_REPEATS = 5       # setup_s is the median of these
PACE_SAMPLES = 10       # reference runs on each side of a setup
TRACE_ROUNDS = 2

# Per workload, the span names and counters that must be nonzero: a traced
# function that records nothing means an alias the tracer missed.
REQUIRED = {
    "surfaces": ("cli.main", "frobenius.multiply", "frobenius.generating_function",
                 "frobenius.witness_synthesis", "frobenius.validate",
                 "linalg.matmul", "linalg.solve", "linalg.partial_fractions"),
    "statespaces": ("cli.main", "linalg.rank", "linalg.rank.rows",
                    "statespaces.enumerate_kets", "statespaces.kets",
                    "statespaces.state_space_field", "statespaces.gram_entries",
                    "statespaces.evaluate_closed", "diagrams.compose",
                    "diagrams.transpose", "fincat.least_rotation"),
    "traces": ("cli.main", "pseudochar.antisym_trace", "pseudochar.degree",
               "pseudochar.tuples_checked", "pseudochar.graph_pseudoholonomy",
               "linalg.matmul"),
}
SPAN_METRICS = (
    "cli.main", "frobenius.multiply", "frobenius.generating_function",
    "frobenius.witness_synthesis", "frobenius.validate", "linalg.matmul",
    "linalg.solve", "linalg.partial_fractions", "linalg.rank",
    "statespaces.enumerate_kets", "statespaces.state_space_field",
    "statespaces.evaluate_closed", "diagrams.compose", "diagrams.transpose",
    "fincat.least_rotation", "pseudochar.antisym_trace", "pseudochar.degree",
    "pseudochar.graph_pseudoholonomy",
) + LAYERS
COUNTER_METRICS = ("linalg.rank.rows", "statespaces.kets",
                   "statespaces.gram_entries", "pseudochar.tuples_checked")


def _import_cli():
    """Import loopcat afresh (module code runs again; bytecode is cached)."""
    for name in [n for n in sys.modules if n == "loopcat" or n.startswith("loopcat.")]:
        del sys.modules[name]
    return importlib.import_module("loopcat.cli")


def setup(workload: str, seed: int, n_rounds: int, job_dir: Path):
    """Import loopcat, generate the rounds and write the job files.  A
    repeated setup overwrites the files of the one before: right after a
    mass delete, creating files on ext4 costs several times more."""
    t0 = time.perf_counter()
    cli = _import_cli()
    module = WORKLOADS[workload]
    pool = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    used: set = set()
    rounds = []
    for r in range(n_rounds):
        rng = joblib.round_rng(workload, seed, r)
        rounds.append(module.make_round(rng, used, pool))
    job_dir.mkdir(parents=True, exist_ok=True)
    for r, round_jobs in enumerate(rounds):
        for i, job in enumerate(round_jobs):
            job.path = job_dir / f"r{r:03d}-{i:02d}.json"
            job.path.write_text(json.dumps(job.doc), encoding="utf-8")
    return cli, rounds, time.perf_counter() - t0


def run_job(cli, job):
    """(exit code, stdout, seconds); an escaping exception is code None."""
    buf = io.StringIO()
    argv = [job.command, "--input", str(job.path), "--format", "json", *job.flags]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed job, not a crash
        code = None
        buf.write(f"{type(exc).__name__}: {exc}")
    return code, buf.getvalue(), time.perf_counter() - t0


def check(module, job, code, out) -> str | None:
    """None when the report passes its oracle, else what is wrong."""
    fn = joblib.check_golden if job.check == "golden" else module.CHECKS[job.check]
    try:
        fn(job, code, out)
    except joblib.CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        try:
            return str(Fraction(value) + 1)
        except ValueError:
            return value + "~"
    if isinstance(value, list):
        return value[:-1] + [_corrupt(value[-1])] if value else [0]
    if isinstance(value, dict):
        if not value:
            return {"~": 0}
        key = sorted(value)[-1]
        return dict(value, **{key: _corrupt(value[key])})
    return 0


NOT_ANSWERS = {"command", "message", "max_degree", "max_len", "cap_words",
               "cap_genus"}


def oracle_self_test(module, results, problems) -> list:
    """The first passing report of each check kind, with its answer field
    altered, must fail its check; returns the kinds whose check accepted it."""
    seen, blind = set(), []
    for (job, code, out), why in zip(results, problems):
        if job.check in seen or why is not None:
            continue
        seen.add(job.check)
        report = json.loads(out)
        key = sorted(k for k in report if k not in NOT_ANSWERS)[-1]
        bad = json.dumps(dict(report, **{key: _corrupt(report[key])}),
                         sort_keys=True) + "\n"
        if check(module, job, code, bad) is None:
            blind.append(f"{job.check}:{key}")
    return blind


def check_all(module, results) -> list:
    """Per result, None or what is wrong with it."""
    return [check(module, job, code, out) for job, code, out in results]


def _failures(results, problems) -> list:
    return [f"{job.command} {job.path.name}: {why}"
            for (job, _, _), why in zip(results, problems) if why is not None]


def _report(correct, attempted, failed, metrics, units):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def timed_run(args, module) -> dict:
    # Rounds for a program a quarter faster than the one that set
    # ROUND_SECONDS; a faster one runs out of rounds before `--seconds`.
    # Every job file costs setup time, and beyond MAX_ROUNDS the smaller
    # job spaces run out of distinct jobs.
    n_rounds = min(MAX_ROUNDS, max(
        MIN_ROUNDS, int(1.25 * args.seconds / module.ROUND_SECONDS)))
    job_dir = WORK / args.workload / "jobs"
    ref_path = WORK / args.workload / "reference.json"
    ref_path.parent.mkdir(parents=True, exist_ok=True)
    pace.write_reference_input(ref_path)
    for _ in range(PACE_SAMPLES):
        pace.reference(ref_path)  # warm-up
    shutil.rmtree(job_dir, ignore_errors=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        before = [pace.reference(ref_path) for _ in range(PACE_SAMPLES)]
        cli, rounds, seconds = setup(args.workload, args.seed, n_rounds + 1, job_dir)
        after = [pace.reference(ref_path) for _ in range(PACE_SAMPLES)]
        setups.append(seconds * pace.scale(before + after))
    results = []
    for job in rounds.pop():  # warm-up round, untimed
        pace.reference(ref_path)
        results.append((job, *run_job(cli, job)[:2]))

    latencies = []  # per timed round, per slot, at the reference speed
    factors = []
    t_start = time.perf_counter()
    for round_jobs in rounds:
        if (time.perf_counter() - t_start >= args.seconds
                and len(latencies) >= MIN_ROUNDS):
            break
        samples, raw = [pace.reference(ref_path)], []
        for job in round_jobs:
            code, out, seconds = run_job(cli, job)
            samples.append(pace.reference(ref_path))
            results.append((job, code, out))
            raw.append(seconds)
        # each job is scaled by the reference runs just before and after it
        latencies.append([t * pace.scale(samples[i:i + 2])
                          for i, t in enumerate(raw)])
        factors.append(pace.scale(samples))
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_all(module, results)
    blind = oracle_self_test(module, results, problems)
    failures = _failures(results, problems)
    for p in failures[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    for b in blind:
        print(f"ORACLE accepted a corrupted report: {b}", file=sys.stderr)
    failed = len(failures)
    attempted = len(results)
    # A change of host speed in mid-job scales that job wrongly; a slot
    # median over the rounds outvotes it.
    typical = [statistics.median(slot) for slot in zip(*latencies)]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(typical) / sum(typical),
        "job_p50_ms": statistics.median(typical) * 1e3,
        "job_p90_ms": statistics.quantiles(typical, n=10,
                                           method="inclusive")[8] * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
             "job_p90_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MiB"}
    print(f"{args.workload}: {len(latencies)} timed rounds of {len(typical)} "
          f"jobs in {wall:.2f} s; host speed factors "
          f"{min(factors):.3f}-{max(factors):.3f}", file=sys.stderr)
    return _report(failed == 0 and not blind, attempted, failed, metrics, units)


def _line_counts() -> dict:
    counts = {}
    total = 0
    for path in sorted((SRC / "loopcat").glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        total += n
        if path.stem in LAYERS:
            counts[f"{path.stem}.lines"] = n
    counts["src.lines"] = total
    return counts


def traced_run(args, module) -> dict:
    job_dir = WORK / args.workload / "jobs"
    shutil.rmtree(job_dir, ignore_errors=True)
    cli, rounds, _ = setup(args.workload, args.seed, TRACE_ROUNDS + 1, job_dir)
    run_job(cli, rounds.pop()[0])
    todo = [job for round_jobs in rounds for job in round_jobs]

    t0 = time.perf_counter()
    plain = [run_job(cli, job)[:2] for job in todo]
    plain_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    traced = []
    t0 = time.perf_counter()
    for i, job in enumerate(todo):
        tracer.job_id = i
        traced.append(run_job(cli, job)[:2])
    traced_wall = time.perf_counter() - t0
    tracer.write(WORK / args.workload / "trace")

    results = [(job, code, out) for job, (code, out) in zip(todo, traced)]
    problems = [why if why is not None or a == b else "traced output differs"
                for why, a, b in zip(check_all(module, results), plain, traced)]
    problems = _failures(results, problems)
    agg = tracer.aggregate()
    values = dict(agg["calls"], **tracer.counters)
    missing = [name for name in REQUIRED[args.workload] if not values.get(name)]
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    for name in missing:
        print(f"TRACER recorded nothing for {name}", file=sys.stderr)

    metrics, units = {}, {}
    for name in SPAN_METRICS:
        metrics[f"{name}.calls"] = agg["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = agg["self_s"].get(name, 0.0)
        units[f"{name}.calls"], units[f"{name}.self_s"] = "count", "s"
    for name in COUNTER_METRICS:
        metrics[name] = tracer.counters.get(name, 0)
        units[name] = "count"
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    units["trace_overhead_ratio"] = "ratio"
    metrics["fail_ratio"] = len(problems) / len(todo)
    units["fail_ratio"] = "ratio"
    for name, n in _line_counts().items():
        metrics[name] = n
        units[name] = "lines"
    return _report(not problems and not missing, len(todo), len(problems),
                   metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loopcat" / "cli.py").is_file():
        print(f"loopcat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = WORKLOADS[args.workload]
    result = (traced_run if args.trace else timed_run)(args, module)
    shutil.rmtree(WORK / args.workload / "jobs", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
