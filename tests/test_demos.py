"""Smoke tests of the demos: 02 is the one end-to-end user of
product_sandwich_check, r_eps and eps_proximal_check; 03 runs decompose
over every word of the orbit's own ball."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_demo_02_sandwich_holds():
    assert "sandwich holds: True" in _run_demo("02_proximal_contraction.py")


def test_demo_03_decompositions_below_ceiling():
    lines = _run_demo("03_word_balls_and_decomposition.py")
    assert any(line.endswith("(every run below its ceiling)") for line in lines)
