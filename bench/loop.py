"""The closed loop: run ops one after another under a per-op budget, time
each call, and check each result outside the timed interval."""

import hashlib
import signal
import sys
import time
from array import array

from clireqs import CLI_REQUESTS
from oracle import max_bits
from speed import SpeedTrack
from workloads import BRUHAT_RATIONAL, INT_WORDS, NORMAL_FORMS, canon, plain

WORKLOADS = {w.name: w for w in (INT_WORDS, BRUHAT_RATIONAL, NORMAL_FORMS, CLI_REQUESTS)}

BATCH = 64   # ops generated at a time, outside the timed intervals


class BudgetExceeded(BaseException):
    """Raised by SIGPROF inside an op that ran past the per-op budget.

    A BaseException, so library code catching Exception cannot swallow it."""


def _on_budget(signum, frame):
    raise BudgetExceeded()


def execute(op, budget_s):
    """Run one op under the budget: (seconds, result, failure cause or None).

    The budget is CPU time of this process (ITIMER_PROF), not wall time: on
    a shared VM the vCPU is sometimes descheduled for several milliseconds
    (steal time), and a wall-clock budget would stop an op for that.  The
    signal arrives in the main thread, so this runs there."""
    signal.signal(signal.SIGPROF, _on_budget)
    if budget_s:
        signal.setitimer(signal.ITIMER_PROF, budget_s)
    t0 = time.perf_counter()
    try:
        result = op.kind.run(op.args)
        elapsed = time.perf_counter() - t0
    except BudgetExceeded:
        return time.perf_counter() - t0, None, "over-budget"
    except Exception as exc:   # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    return elapsed, result, None


class Pass:
    """Latencies, failures and result hashes of one pass over a workload's ops."""

    def __init__(self, workload):
        self.workload = workload
        # Per-op records are kept compact, so that the benchmark's own memory
        # does not grow much with the number of ops and move peak_rss_mb.
        self.latencies = array("d")   # raw wall seconds per op
        self.ends = array("d")        # perf_counter() when each op returned
        self.speed = SpeedTrack(workload.reference)
        self.failures = {}      # (kind, cause, known defect or None) -> count
        self.causes = []        # per op: None or failure cause
        self._digest = hashlib.sha256()   # over each op's hash of result or failure
        self.unattributed = 0   # failures that are not a known defect
        self.max_bits = 0

    def record(self, op, elapsed, result, cause, check=True):
        """Account for one op; `check` runs the op kind's oracle on its result.

        An oracle returns True, False (a wrong answer) or a string naming a
        failure that is not a wrong answer (a malformed CLI request accepted).
        Only the result, never the verdict, enters the digest.
        """
        self.latencies.append(elapsed)
        self.ends.append(time.perf_counter())
        if cause is None:
            text = canon(plain(result))
            if check:
                try:
                    verdict = op.kind.check(op.args, result)
                    bits = op.kind.bits(result) if op.kind.bits else max_bits(plain(result))
                    self.max_bits = max(self.max_bits, bits)
                except Exception as exc:   # a result the oracle cannot read is wrong
                    print(f"oracle error on op {op.index} ({op.kind.name}): {exc!r}",
                          file=sys.stderr)
                    verdict = False
                if verdict is not True:
                    cause = verdict if isinstance(verdict, str) else "wrong"
        else:
            text = "!" + cause
        if cause is not None:
            defect = self.workload.known_defect(op, cause)
            self.unattributed += defect is None
            key = (op.kind.name, cause, defect)
            self.failures[key] = self.failures.get(key, 0) + 1
        self.causes.append(cause)
        self._digest.update(hashlib.sha256(f"{op.index}:{text}".encode()).digest())

    def digest(self):
        """Digest of the results of all ops so far, in order."""
        return self._digest.hexdigest()

    def normalized(self):
        """Per-op latencies divided by the host slowdown at the time."""
        return [x / self.speed.at(t) for x, t in zip(self.latencies, self.ends)]

    def completed(self):
        """Normalized latencies of the ops that did not fail."""
        return [x for x, c in zip(self.normalized(), self.causes) if c is None]

    @property
    def correct(self):
        """No wrong answer, and every failure a known defect."""
        return self.unattributed == 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())


def run_pass(workload, seed, count=None, ops=None, carry=None, tracer=None):
    """Ops 0 .. count-1, or the pre-generated `ops` (a traced pass must not
    trace input generation).  Returns (Pass, timed op seconds).

    Ops run under their kind's budget, in reference-speed seconds scaled by
    the current host slowdown, and under the workload's size guard.  A
    traced pass runs without either and does not check results; ops in `carry` (index -> failure cause) are not run
    again but recorded with that cause."""
    p = Pass(workload)
    timed = 0.0
    guard = None if tracer is not None else workload.guard
    if ops is not None:
        count = len(ops)
    if guard:
        guard.install()
    try:
        for start in range(0, count, BATCH):
            batch = (ops[start:start + BATCH] if ops is not None else
                     workload.ops(seed, start, min(BATCH, count - start)))
            for op in batch:
                if carry and op.index in carry:
                    p.record(op, 0.0, None, carry[op.index], check=False)
                    continue
                if tracer is not None:
                    tracer.op_id = op.index
                p.speed.sample()
                limit = None if tracer is not None else op.kind.budget_s * p.speed.current()
                elapsed, result, cause = execute(op, limit)
                timed += elapsed
                if guard and guard.over() and cause is None:
                    cause = "over-budget"
                p.record(op, elapsed, result, cause, check=tracer is None)
    finally:
        if guard:
            guard.remove()
    p.speed.sample(force=True)
    return p, timed
