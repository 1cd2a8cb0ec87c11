"""Each script under demos/ runs as a user would run it, in a fresh
process with the package source on PYTHONPATH, and prints its walk-through
without a traceback, byte for byte the one pinned by its sha256 here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "character_degree.py":
        "2516977e57e454003254c5cf8f37ce0f79d2c5d1a47f6ae728cae14d08187610",
    "classify_surfaces.py":
        "bea680f36085d43701c4e314c3a5c02e68df5bd351fd98516cd6106dcc7a3f94",
    "state_spaces.py":
        "d03ea5c715be1b53eebfb413157f408e43dbee95261fef2667091e79144152db",
}


def test_demos_are_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        STDOUT_SHA256[demo.name]
