"""Each demo script's stdout, pinned byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "data" / "demos"


def test_every_demo_is_pinned():
    assert len(DEMOS) == 6
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_pinned(demo):
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
