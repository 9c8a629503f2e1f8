"""Host speed reference, for timings that do not drift with co-tenants.

The hosts this benchmark runs on are shared virtual machines whose CPU speed
drifts by up to 2x over tens of seconds; CPU time drifts with it, so neither
wall time nor process time of one run is comparable with another run's.  A
fixed pure-Python reference computation, the same kind of work a workload's
ops do but not the library's code, is timed between ops, outside the timed
intervals.  Each time the benchmark reports is divided by the local slowdown

    slowdown(t) = median of the reference timings nearest t / nominal

so it reads as seconds on a host where the reference takes its nominal time.
A change to the library moves the op timings and not the reference.

Co-tenants do not slow all code alike, so there are two references:
ARITHMETIC (exact rational and small-integer arithmetic) for the workloads
that compute, and PARSING (argparse and json from the standard library, as
the CLI uses them) for cli-requests, whose ops are mostly parser set-up and
documents.  The nominal times are the two references' times on one host at
one moment, so both read in the same seconds.
"""

import argparse
import bisect
import json
import statistics
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.02   # at most one reference sample per this much wall time
NEIGHBOURS = 5          # reference samples whose median gives the local speed

_A = tuple(tuple(Fraction(i + 1, j + 2) for j in range(3)) for i in range(3))


def _arithmetic():
    s = 0
    for _ in range(15):
        b = [[sum(x * y for x, y in zip(r, c)) for c in zip(*_A)] for r in _A]
        s += b[0][0].numerator + sum(i * i % 7 for i in range(300))
    return s


def _parsing():
    level = 0
    for _ in range(3):
        ap = argparse.ArgumentParser(prog="ref")
        sub = ap.add_subparsers(dest="cmd")
        for name in ("alpha", "beta", "gamma", "delta"):
            sp = sub.add_parser(name)
            sp.add_argument("--in", dest="inp", default="-")
            sp.add_argument("--level", type=int, default=1)
            sp.add_argument("--family", choices=["a", "b", "c"])
        ns = ap.parse_args(["beta", "--level", "3", "--family", "b"])
        doc = {"version": "1", "m": [[str(i * j) for j in range(4)] for i in range(4)]}
        level += json.loads(json.dumps({**doc, "level": ns.level}))["level"]
    return level


# (computation, its time in seconds on an uncontended host)
ARITHMETIC = (_arithmetic, 0.002)
PARSING = (_parsing, 0.0025)


class SpeedTrack:
    """Reference samples taken over a run, and the slowdown they imply."""

    def __init__(self, reference=ARITHMETIC):
        self.run, self.nominal = reference
        self.times = []
        self.durations = []
        self._last = float("-inf")

    def sample(self, force=False):
        now = perf_counter()
        if force or now - self._last >= SAMPLE_EVERY_S:
            t0 = perf_counter()
            self.run()
            d = perf_counter() - t0
            self.times.append(now)
            self.durations.append(d)
            self._last = perf_counter()

    def current(self):
        """Slowdown from the latest samples (for scaling the op budget)."""
        if not self.durations:
            return 1.0
        return statistics.median(self.durations[-3:]) / self.nominal

    def at(self, t):
        """Slowdown around time t, from the NEIGHBOURS nearest samples."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return statistics.median(self.durations[lo:lo + NEIGHBOURS]) / self.nominal

    def overall(self):
        """Median slowdown over the run."""
        return statistics.median(self.durations) / self.nominal
