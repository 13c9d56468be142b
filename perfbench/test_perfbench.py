"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import calib  # noqa: E402
import check  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from run import Runner  # noqa: E402

from cartanlab.cli import main as cli_main  # noqa: E402


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _report(tmp_path, doc, argv):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert cli_main(argv + ["--input", str(src), "--output", str(out)]) == 0
    side = tmp_path / "out.csv.json"
    return _read(out), (_read(side) if side.exists() else None)


def test_generator_is_deterministic(tmp_path):
    for workload in ("real", "padic", "bend"):
        a = inputs.write_inputs(workload, 7, str(tmp_path / "a" / workload))
        b = inputs.write_inputs(workload, 7, str(tmp_path / "b" / workload))
        assert a.keys() == b.keys()
        for name in a:
            with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
                assert fa.read() == fb.read(), (workload, name)
    assert inputs.proximal_words(7) != inputs.proximal_words(8)


def test_checker_rejects_a_row_above_the_envelope(tmp_path):
    argv = ["stability", "--radius", "2", "--t", "0,0.1"]
    doc = inputs.bend_doc(2)
    text, side = _report(tmp_path, doc, argv)
    assert check.check_report(argv, doc, text, side) == []
    fit = json.loads(side)["fits"]["0.1"]
    header, rows = check.read_rows(text)
    row = next(r for r in rows if r[0] == "0.1" and float(r[3]) > 0)
    bound = fit["eps_hat"] * float(row[3]) + fit["c_hat"]
    pushed = text.replace(",".join(row), ",".join(row[:4] + [repr(bound * 1.01)]))
    assert pushed != text
    assert any("above the envelope" in p
               for p in check.check_report(argv, doc, pushed, side))


def test_checker_rejects_a_wrong_free_ball_count(tmp_path):
    argv = ["ball", "--radius", "2"]
    doc = inputs._sl2_pres_doc(inputs.REAL)
    text, side = _report(tmp_path, doc, argv)
    assert check.check_report(argv, doc, text, side) == []
    short = "".join(text.splitlines(keepends=True)[:-1])
    side_short = json.dumps(dict(json.loads(side), elements=16))
    problems = check.check_report(argv, doc, short, side_short)
    assert any("free ball has 16 elements, expected 17" in p for p in problems)


def test_runner_rejects_a_changed_digest(tmp_path):
    calls = []

    def flaky_cli(argv):
        calls.append(argv)
        with open(argv[-1], "w") as fh:
            fh.write("x\n" if len(calls) == 1 else "y\n")
        return 0

    runner = Runner(flaky_cli, [("r", ["cartan"], "in.json")], str(tmp_path))
    runner.run_pass(str(tmp_path / "ref"))
    runner.run_pass(str(tmp_path / "timed"))
    assert runner.executions == [("r", True), ("r", False)]


def test_tracer_restores_every_binding(tmp_path):
    before = tracer.snapshot()
    assert tracer.is_pristine()
    doc = inputs._sl2_pres_doc(inputs.Q2)
    with tracer.Tracer() as tr:
        assert not tracer.is_pristine()
        tr.run_report("ball", _report, tmp_path, doc, ["ball", "--radius", "2"])
    after = tracer.snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attr, fn) in before.items():
        assert after[key][2] is fn, (owner, attr)
    assert tracer.is_pristine()
    assert tr.counts["wordgroups.ball_elements"] == 17
    assert tr.counts["cartan.matmul_exact"] > 0


def test_probe_scales_a_region_and_stops_its_timer():
    def spin(n):
        total = 0
        for i in range(n):
            total += i
        return total

    handler = signal.getsignal(signal.SIGALRM)
    result, work, scaled, probes = calib.measure(spin, 3_000_000)
    assert result == sum(range(3_000_000))
    assert len(probes) > 2 * calib.BRACKET  # the timer fired in the region
    speed = sum(calib.REF_PROBE_S / p for p in probes) / len(probes)
    assert scaled == pytest.approx(work * speed)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    with pytest.raises(ZeroDivisionError):
        calib.measure(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
