"""Host-speed calibration of timed regions.

The benchmark host is a shared virtual machine whose speed moves between
levels up to 1.7x apart, switching every second or so, with no steal
time to show for it; CPU time follows wall time.  A raw wall time
therefore measures the host as much as the program.  ``measure`` runs a
region with a probe: a tiny fixed piece of interpreter work, timed

* ``BRACKET`` times just before and just after the region, and
* every ``PERIOD_S`` seconds inside it, from a SIGALRM handler, which
  runs in the main thread between two bytecodes of the program.

The region's work time is its wall time minus the time the probe took
inside it, and its scaled time is

    work time * mean(REF_PROBE_S / probe time),

the wall time the region would take at a fixed reference speed: the
speed at which one probe takes ``REF_PROBE_S`` seconds.  The mean is over
the probes (uniform in wall time), so it is the mean speed over the
region.  The probe uses only built-in ints and a dict, imports nothing the
program imports (``_signal`` is the built-in half of ``signal``), and
does not call the program, so a program change cannot change its cost.
"""

import _signal
import gc
import time

# seconds one probe takes at the reference speed (about its median on a
# 2-vCPU Xeon VM); the constant only sets the scale of the figures
REF_PROBE_S = 0.0004
PROBE_STEPS = 180
PROBE_RESULT = 96341
BRACKET = 5
PERIOD_S = 0.025


def _work(steps):
    """Rational sums with Euclid reductions, dict traffic and float
    updates: the kind of interpreter work the exact paths do."""
    num, den = 0, 1
    table = {}
    x = 0.5
    for i in range(1, steps):
        p, q = i % 29 + 1, i % 31 + 2
        num, den = num * q + p * den, den * q
        a, b = num, den
        while b:
            a, b = b, a % b
        num, den = num // a, den // a
        key = (i % 61) * 64 + i % 53
        table[key] = table.get(key, 0) + (num & 1023)
        x = x * 0.999 + 1.0 / (i + q)
    return sum(table.values()) + int(x * 1000)


def probe():
    """Seconds of one probe."""
    t0 = time.perf_counter()
    result = _work(PROBE_STEPS)
    elapsed = time.perf_counter() - t0
    if result != PROBE_RESULT:
        raise RuntimeError(f"calibration probe computed {result}")
    return elapsed


class _Ticks:
    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def __call__(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0


def measure(fn, *args):
    """Runs ``fn(*args)``; returns (its result, its wall seconds less
    the probe's, those seconds scaled to the reference speed, the probe
    times).  An exception of ``fn`` propagates after the timer is
    stopped and the previous SIGALRM handler is back."""
    gc.collect()
    ticks = _Ticks()
    samples = [probe() for _ in range(BRACKET)]
    previous = _signal.signal(_signal.SIGALRM, ticks)
    t0 = time.perf_counter()
    _signal.setitimer(_signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        result = fn(*args)
    finally:
        _signal.setitimer(_signal.ITIMER_REAL, 0.0)
        raw = time.perf_counter() - t0
        _signal.signal(_signal.SIGALRM, previous)
    samples += ticks.samples + [probe() for _ in range(BRACKET)]
    work = raw - ticks.spent
    speed = sum(REF_PROBE_S / s for s in samples) / len(samples)
    return result, work, work * speed, samples
