"""Every report of a fixed corpus stays byte for byte as pinned.

The corpus is one round of each workload at seeds 1, 2 and 3, made by the
bench's own generators as a run of that seed makes its first round, and
the golden jobs of `bench/golden.json`, each job in both formats.  A
fresh process runs it through `cli.main` and prints, per job, a digest of
the job document (command, flags and document, as `jobs.Job.key` spells
them) and of each line of its stdout, after its exit code.  The test runs
that process under two hash seeds and holds both to the pins in
`byte_pins.txt`, one job a line.  A job whose document digest moved was
changed by its generator; a job whose exit code or report moved is named
with its first differing line.  The bench files are read, never changed.

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src:bench \
        python tests/test_byte_identity.py --record

rewrites `byte_pins.txt` from the current outputs; the test never writes
it.  A change that moves a report on purpose records the pins anew and
names the jobs that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("byte_pins.txt")
HASH_SEEDS = ("0", "12345")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _corpus() -> list:
    """(name, command, doc, flags, format) of each job, in a fixed order."""
    import jobs
    golden = json.loads((ROOT / "bench" / "golden.json").read_text("utf-8"))
    calls = []
    for workload in ("surfaces", "statespaces", "traces"):
        make_round = __import__(f"wl_{workload}").make_round
        for seed in (1, 2, 3):
            rng = jobs.round_rng(workload, seed, 0)
            for i, job in enumerate(make_round(rng, set(), golden)):
                calls.append((f"{workload}/{seed}/{i:02d}", job.command,
                              job.doc, list(job.flags)))
    calls += [(f"golden/{i:03d}", job["command"], job["doc"], job["flags"])
              for i, job in enumerate(golden)]
    return [(f"{name}/{fmt}", command, doc, flags, fmt)
            for name, command, doc, flags in calls for fmt in ("json", "text")]


def _run(work: Path) -> list:
    """Per job of the corpus, its pin line (name, document digest, exit
    code, then one digest per stdout line) and its stdout; the job files
    go under work."""
    from loopcat import cli
    out = []
    for n, (name, command, doc, flags, fmt) in enumerate(_corpus()):
        path = work / f"job{n:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--input", str(path), "--format", fmt,
                             *flags])
        key = json.dumps([command, flags, doc], sort_keys=True)
        text = stdout.getvalue()
        out.append((" ".join([name, _digest(key), str(code),
                              *map(_digest, text.splitlines())]), text))
    return out


def _moved(pinned: list, got: list) -> list:
    """One message per job whose pin line differs."""
    pins = {line.split()[0]: line.split()[1:] for line in pinned}
    messages = []
    for line, stdout in got:
        name, doc, code, *lines = line.split()
        want = pins.pop(name, None)
        if want is None:
            messages.append(f"{name}: not pinned")
        elif want[0] != doc:
            messages.append(f"{name}: the generator changed the job")
        elif want[1] != code:
            messages.append(f"{name}: exit code {code}, pinned {want[1]}")
        elif want[2:] != lines:
            at = next((k for k, (a, b) in enumerate(zip(want[2:], lines))
                       if a != b), min(len(lines), len(want) - 2))
            text = stdout.splitlines()
            messages.append(f"{name}: stdout line {at + 1} differs: "
                            f"{text[at] if at < len(text) else '<none>'!r}")
    messages += [f"{name}: pinned but not run" for name in pins]
    return messages


def test_every_corpus_report_keeps_its_pinned_bytes(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",  # bench/ stays as is
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), str(ROOT / "bench"),
                   os.environ.get("PYTHONPATH")])))
    procs = []
    for seed in HASH_SEEDS:
        work = tmp_path / seed
        work.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, __file__, str(work)], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=dict(env, PYTHONHASHSEED=seed)))
    pinned = PINS.read_text("utf-8").splitlines()
    for seed, proc in zip(HASH_SEEDS, procs):
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        moved = _moved(pinned, json.loads(stdout))
        assert not moved, f"PYTHONHASHSEED={seed}:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as work:
            PINS.write_text("".join(line + "\n" for line, _stdout
                                    in _run(Path(work))), "utf-8")
    else:
        print(json.dumps(_run(Path(sys.argv[1]))))
