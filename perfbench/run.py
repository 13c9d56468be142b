"""Benchmark of the cartanlab CLI reports.

    python3 perfbench/run.py --workload real --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it imports ``src/cartanlab``.
Workloads (see ``inputs.py``):

* ``real``  - every report over R: exact BFS and per-word evaluation,
  float SVDs, float dedup on a non-free group, float projective sampling;
* ``padic`` - the same Schottky pair over Q_2: Smith forms, valuations,
  the tree snap, Newton polygons, Hensel lifting, exact eps sampling;
* ``bend``  - ``bend`` on SO(2,2), SO(3,2) and SO(4,2): exact elimination
  and the bracket closure, no word ball.

Load is a closed loop: one single-threaded process runs one report at a
time through ``cartanlab.cli.main(argv)``, and the program sees only the
generated JSON files and argv.  A run

1. times the import of ``cartanlab.cli`` in fresh interpreters (setup_s);
2. writes the inputs from ``--seed`` (in a child process, so its memory
   does not count in peak_rss_mb);
3. runs one untimed pass whose outputs are the reference digests;
4. runs timed passes for ``--seconds`` (no wrapper installed), then
   reads the peak resident memory;
5. with ``--trace 1``, runs one more pass under the outside-in tracer;
6. checks the reference outputs with oracles that do not share the
   program's code path.

Every timed import and report runs under a host-speed probe and its
time is scaled to a fixed reference speed (``calib.py``): this host's
speed moves between levels up to 1.7x apart every second or so, which a
raw wall time cannot tell from a change of the program.  ``setup_s``,
``wall_s`` and the per-command times are scaled; the raw figures are
printed and carried as the ``host.*`` per-layer metrics.

A report fails if it exits nonzero, raises, is rejected by the checker,
or writes bytes that differ from the reference pass.  The last line of
standard output is one JSON object (see BENCHMARK.json); the lines
before it print every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_out")
WORKLOADS = ("real", "padic", "bend")
COMMANDS = ("stability", "properness", "cartan", "ball", "decompose",
            "proximal", "bend")
SETUP_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT = 120

# one thread everywhere: the load is a single closed-loop client
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONPATH=SRC)
ENV.pop("CARTANLAB_WORKERS", None)


def measure_setup():
    """(scaled, raw) times of ``import cartanlab.cli`` in fresh
    interpreters, each under the host-speed probe, which imports nothing
    the program imports (one unmeasured import first writes the bytecode
    caches)."""
    code = ("import sys; sys.path.append(%r); import calib; "
            "_, raw, scaled, _ = calib.measure(__import__, 'cartanlab.cli'); "
            "print(repr(scaled), repr(raw))" % HERE)
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT)
        if i:
            s, r = done.stdout.strip().splitlines()[-1].split()
            scaled.append(float(s))
            raw.append(float(r))
    return scaled, raw


def digest(csv_path):
    h = hashlib.sha256()
    for path in (csv_path, csv_path + ".json"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def read_text(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Runner:
    """Runs report sequences in process and records every execution."""

    def __init__(self, cli_main, reports, inputs_dir):
        self.cli_main = cli_main
        self.reports = reports
        self.inputs_dir = inputs_dir
        self.executions = []  # (report id, ran cleanly and matched)
        self.reference = {}  # report id -> digest of the checked pass
        self.rejected = set()  # report ids the checker rejected
        self.raw = {}  # report id -> raw seconds of the last pass
        self.probes = []  # seconds of every host-speed probe

    def argv(self, report, out_dir):
        rid, args, input_name = report
        return args + ["--input", os.path.join(self.inputs_dir, input_name),
                       "--output", os.path.join(out_dir, rid + ".csv")]

    def run_pass(self, out_dir, call=None):
        """One pass; returns {report id: seconds at the reference speed}
        and keeps the raw seconds in ``self.raw``.  ``call(rid, fn, argv)``
        lets the tracer wrap each report."""
        os.makedirs(out_dir, exist_ok=True)
        times = {}
        self.raw = {}
        for report in self.reports:
            rid = report[0]
            argv = self.argv(report, out_dir)
            out = argv[-1]
            for stale in (out, out + ".json"):
                if os.path.exists(stale):
                    os.remove(stale)
            rc, self.raw[rid], times[rid], probes = calib.measure(
                self._report, rid, argv, call)
            self.probes += probes
            d = digest(out)
            self.reference.setdefault(rid, d)
            ok = rc == 0 and d == self.reference[rid]
            self.executions.append((rid, ok))
            if not ok:
                print(f"report {rid} failed: exit {rc!r}, digest "
                      f"{'matches' if d == self.reference[rid] else 'differs'}",
                      file=sys.stderr)
        return times

    def _report(self, rid, argv, call):
        try:
            return (call(rid, self.cli_main, argv) if call
                    else self.cli_main(argv))
        except (Exception, SystemExit) as exc:
            return f"raised {type(exc).__name__}: {exc}"

    def timed_passes(self, out_dir, seconds):
        """Passes until the next would end after ``seconds`` (at least
        MIN_PASSES); returns (scaled passes, raw pass walls)."""
        passes, raw, lengths = [], [], []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + statistics.mean(lengths)
                <= seconds):
            gc.collect()
            t0 = time.perf_counter()
            passes.append(self.run_pass(out_dir))
            lengths.append(time.perf_counter() - t0)
            raw.append(sum(self.raw.values()))
        return passes, raw


def command_times(reports, passes):
    """{command: [seconds per pass]} for the commands a workload runs."""
    out = {}
    for rid, args, _ in reports:
        series = out.setdefault(args[0], [0.0] * len(passes))
        for i, p in enumerate(passes):
            series[i] += p[rid]
    return out


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def describe(name, unit, values):
    """Median, tail, sample count and samples of one timing."""
    line = f"{name:34s} {statistics.median(values):12.6g} {unit:9s} n={len(values)}"
    t = tail(values)
    line += f"  p{t[0]}={t[1]:.6g}" if t else "  (no tail: n<11)"
    return line + "  [" + " ".join(f"{v:.4g}" for v in values) + "]"


def check_outputs(runner, ref_dir):
    """Run the checker on the reference pass; returns accuracy metrics."""
    import check
    from inputs import EXACT_TWINS

    docs = {}
    for name in os.listdir(runner.inputs_dir):
        with open(os.path.join(runner.inputs_dir, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    mu_errs = [0.0]
    excess = 0.0
    for report in runner.reports:
        rid, args, input_name = report
        argv = runner.argv(report, ref_dir)
        out = argv[-1]
        csv_text = read_text(out)
        doc = docs[input_name]
        if csv_text is None:
            problems = ["no output"]
        else:
            problems = check.check_report(args, doc, csv_text,
                                          read_text(out + ".json"))
        if args[0] == "cartan" and not problems:
            mu_errs += check.mu_relative_errors(doc, csv_text)
        if input_name in EXACT_TWINS and not problems:
            radius = int(args[args.index("--radius") + 1])
            exact = check.exact_ball_size(docs[EXACT_TWINS[input_name]], radius)
            size = len(csv_text.splitlines()) - 1
            excess = (size - exact) / exact
            print(f"ball {rid}: float {size} elements, exact twin {exact}")
        if problems:
            runner.rejected.add(rid)
            for p in problems[:5]:
                print(f"checker rejects {rid}: {p}", file=sys.stderr)
    return {"check.mu_relerr_max": max(mu_errs),
            "check.ball_excess_frac": excess}


def main(argv=None):
    parser = argparse.ArgumentParser(description="cartanlab report benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cartanlab", "cli.py")):
        print(f"cartanlab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ENV)
    os.environ.pop("CARTANLAB_WORKERS", None)
    sys.path.insert(0, SRC)

    setup, setup_raw = measure_setup()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = os.path.join(work, "inputs")
    subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--out", inputs_dir],
                   env=ENV, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT)

    from cartanlab.cli import main as cli_main

    import inputs
    import tracer

    reports = inputs.reports(args.workload)
    runner = Runner(cli_main, reports, inputs_dir)
    ref_dir = os.path.join(work, "reference")
    runner.run_pass(ref_dir)
    if not tracer.is_pristine():
        print("a tracing wrapper is installed before the timed passes",
              file=sys.stderr)
        return 1
    passes, raw_walls = runner.timed_passes(os.path.join(work, "timed"),
                                            args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(p.values()) for p in passes]
    cmds = command_times(reports, passes)

    if args.trace:
        traced_dir = os.path.join(work, "traced")
        with tracer.Tracer() as tr:
            origin = time.perf_counter()
            traced = runner.run_pass(traced_dir, call=tr.run_report)
        # the probe's ~2% falls inside the spans, evenly, so it leaves
        # coverage alone; overhead compares scaled with scaled
        layer = tracer.layer_metrics(tr, sum(runner.raw.values()))
        layer["trace.overhead_frac"] = (
            sum(traced.values()) / statistics.median(walls) - 1.0)
        layer["cli.csv_rows"] = sum(
            len(read_text(runner.argv(r, traced_dir)[-1]).splitlines()) - 1
            for r in reports)
        for cmd in COMMANDS:
            layer[f"cmd.{cmd}_s"] = statistics.median(cmds.get(cmd, [0.0]))
        layer["host.setup_s"] = statistics.median(setup_raw)
        layer["host.wall_s"] = statistics.median(raw_walls)
        layer["host.probe_s"] = statistics.median(runner.probes)
        with open(os.path.join(work, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"columns": ["name", "layer", "start", "end", "parent",
                                   "report"],
                       "spans": tracer.span_records(tr, origin)}, fh)
        print(f"{len(tr.spans)} spans written to "
              f"{os.path.relpath(os.path.join(work, 'spans.json'), ROOT)}")

    accuracy = check_outputs(runner, ref_dir)
    # every execution of a rejected report repeats its wrong bytes
    attempted = len(runner.executions)
    failed = sum(1 for rid, ok in runner.executions
                 if not ok or rid in runner.rejected)
    fail_frac = failed / attempted

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} timed passes")
    print(describe("setup_s", "s", setup))
    print(describe("wall_s", "s", walls))
    print(describe("host.setup_s (raw)", "s", setup_raw))
    print(describe("host.wall_s (raw)", "s", raw_walls))
    print(f"{'host.probe_s':34s} {statistics.median(runner.probes):12.6g}"
          f" s         n={len(runner.probes)}")
    for cmd, series in cmds.items():
        print(describe(f"{cmd}_s", "s", series))
    print(f"{'peak_rss_mb':34s} {peak_rss_mb:12.6g} MB        n=1")
    print(f"{'fail_frac':34s} {fail_frac:12.6g} fraction  "
          f"n={attempted}")
    for name in ("check.mu_relerr_max", "check.ball_excess_frac"):
        print(f"{name[6:]:34s} {accuracy[name]:12.6g} fraction")

    if args.trace:
        layer.update(accuracy)
        layer["check.fail_frac"] = fail_frac
        for name, value in layer.items():
            print(f"{name:34s} {value:12.6g}")
        metrics = layer
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": statistics.median(walls),
                   "peak_rss_mb": peak_rss_mb}
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
