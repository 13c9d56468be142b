"""Smoke test of the proximal-contraction demo, the one end-to-end user
of product_sandwich_check, r_eps and eps_proximal_check."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demo_02_sandwich_holds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "02_proximal_contraction.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "sandwich holds: True" in run.stdout.splitlines()
