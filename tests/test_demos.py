"""Smoke tests of the five demos, each run as a script: 02 is the one
end-to-end user of product_sandwich_check, r_eps and eps_proximal_check;
03 runs decompose over every word of the orbit's own ball."""

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


def test_demo_01_cartan_inequalities_hold():
    lines = _run_demo("01_cartan_projections.py")
    slack = [line for line in lines if line.startswith("worst inequality slack")]
    assert len(slack) == 1 and float(slack[0].split(": ")[1].split()[0]) <= 1e-9


def test_demo_02_sandwich_holds():
    assert "sandwich holds: True" in _run_demo("02_proximal_contraction.py")


def test_demo_03_decompositions_below_ceiling():
    lines = _run_demo("03_word_balls_and_decomposition.py")
    assert any(line.endswith("(every run below its ceiling)") for line in lines)


def test_demo_04_stability_and_module_check():
    lines = _run_demo("04_bending_stability.py")
    assert any("holds on every row" in line for line in lines)
    assert any(line.startswith("module decomposition of so(2,2)")
               and line.endswith("ok = True") for line in lines)


def test_demo_05_properness_margin_fits():
    lines = _run_demo("05_properness_margins.py")
    assert any(line.startswith("against the U(1,1) cone") for line in lines)
    closed = [line for line in lines if line.startswith("max |margin")]
    assert len(closed) == 1 and float(closed[0].split(": ")[1]) < 1e-6
