"""exactgroups benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop in this process (one client, one thread:
the next op starts only after the previous one returned), checks every op's
result outside the timed interval, and prints every metric by name with its
unit.  The last line of stdout is one JSON object
    {"correct", "attempted", "failed", "metrics"}
whose metrics are those BENCHMARK.json lists: the end-to-end ones with
--trace 0, the per-layer ones of a traced run with --trace 1.  See
bench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5     # fresh processes timed for setup_s
COLD_CALLS = 20       # fresh CLI processes timed for cold_call_ms
IMPORT_REPEATS = 7    # fresh processes timed for cli.import_s
BARE_NOMINAL_S = 0.04 # a bare interpreter start on an uncontended host

# Subcommands whose cold calls each workload times: the ones serving its layers.
COLD_COMMANDS = {
    "int-words": ["sl2 decompose", "cocycle eval", "affine ball", "affine aut-check"],
    "bruhat-rational": ["bruhat decompose", "bruhat cell", "bruhat fact-check"],
    "normal-forms": ["lin hnf", "lin snf", "lin solve", "affine lattice", "cocycle finf-extend"],
    "cli-requests": None,   # all 20
}

# Every end-to-end metric, printed in the table; BENCHMARK.json names the
# ones that go into the result line.
E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
             "fail_ratio": "1", "max_entry_bits": "bits", "peak_rss_mb": "MB",
             "cold_call_ms": "ms"}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def process_seconds(argv, stdin_text=None):
    """Wall time of a child run to completion, timed from outside."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, input=stdin_text, capture_output=True, text=True,
                          cwd=ROOT, env=subprocess_env(), timeout=120)
    return time.perf_counter() - t0, proc


def bare_relative(calls):
    """Median over `calls` of each child's wall time divided by that of a bare
    interpreter start run just before it, times BARE_NOMINAL_S.

    Process start-up does not slow down in step with the in-process
    reference (part of it is kernel and file work), but it does in step with
    another process start; so children are timed against `python -c pass`.
    The first pair only warms file caches.  Returns (seconds, processes)."""
    ratios, procs = [], []
    for k, (argv, stdin_text) in enumerate(calls):
        bare, _ = process_seconds([sys.executable, "-c", "pass"])
        elapsed, proc = process_seconds(argv, stdin_text)
        procs.append(proc)
        if k:
            ratios.append(elapsed / bare)
    return statistics.median(ratios) * BARE_NOMINAL_S, procs


def measure_setup(workload, seed):
    """Fresh process that imports the package and generates the first batch
    of inputs, over SETUP_REPEATS processes."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    seconds, procs = bare_relative([(argv, None)] * (SETUP_REPEATS + 1))
    for proc in procs:
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed: {proc.stderr.strip()}")
    return seconds


def cold_requests(workload_name):
    """One fixed valid document per subcommand the workload times."""
    from clireqs import COLD_SEED, SUBCOMMANDS, request_maker
    from exactgroups.prng import SplitMix64
    wanted = COLD_COMMANDS[workload_name]
    return [request_maker(cmd, valid, bad)(SplitMix64(COLD_SEED), 0)[:2]
            for cmd, valid, bad in SUBCOMMANDS if wanted is None or cmd in wanted]


def measure_cold_calls(workload_name):
    """`python -m exactgroups.cli` answering one fixed document, over
    COLD_CALLS sequential processes.  Returns (ms, answers that differ from
    in-process cli.run)."""
    from clireqs import run_request
    requests = cold_requests(workload_name)
    picks = [requests[k % len(requests)] for k in range(COLD_CALLS + 1)]
    seconds, procs = bare_relative(
        [([sys.executable, "-m", "exactgroups.cli"] + argv, text) for argv, text in picks])
    expected = {tuple(argv): run_request((argv, text)) for argv, text in requests}
    bad = sum((p.returncode, p.stdout) != expected[tuple(argv)]
              for (argv, _), p in zip(picks, procs))
    return seconds * 1e3, bad


def measure_import():
    """Fresh-process `import exactgroups.cli` minus a bare interpreter start."""
    seconds, _ = bare_relative([([sys.executable, "-c", "import exactgroups.cli"], None)]
                               * (IMPORT_REPEATS + 1))
    return seconds - BARE_NOMINAL_S


def print_table(title, values, units):
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def print_failures(p):
    if not p.failures:
        print("failures: none")
        return
    print("failures (count, op kind, cause, attributed defect):")
    for (kind, cause, defect), n in sorted(p.failures.items(), key=str):
        print(f"  {n:6d}  {kind}: {cause} -> {defect or 'NOT A KNOWN DEFECT'}")


def end_to_end(workload, seed, seconds, bench):
    from loop import run_pass
    setup_s = measure_setup(workload.name, seed)
    cold_ms, cold_bad = measure_cold_calls(workload.name)
    t0 = time.perf_counter()
    p, timed = run_pass(workload, seed, count=workload.run_ops(seconds))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Latency percentiles are over the ops that completed; failed ops count
    # in `failed` and in the op time of ops_per_s.
    lat = p.completed()
    p99 = quantile(lat, 99)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(p.normalized()),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": p99 * 1e3,
        "fail_ratio": p.failed / p.attempted,
        "max_entry_bits": p.max_bits,
        "peak_rss_mb": peak_rss_mb,
        "cold_call_ms": cold_ms,
    }
    print_table(f"workload {workload.name}  seed {seed}  ops {p.attempted}  failed {p.failed}"
                f"  timed {timed:.2f}s  wall {wall:.2f}s  ops beyond p99 {sum(1 for x in lat if x > p99)}"
                f"\nhost slowdown (median over the run) {p.speed.overall():.3f};"
                f" times below are at reference speed", values, E2E_UNITS)
    print_failures(p)
    print(f"results digest {p.digest()} over {p.attempted} ops")
    if cold_bad:
        print(f"cold calls: {cold_bad} answered differently from in-process cli.run")
    names = [m["name"] for m in bench["end_to_end"]]
    return p.correct and cold_bad == 0, p, {k: values[k] for k in names}


def per_layer(workload, seed, bench):
    """The first workload.trace_ops ops, untraced and then traced."""
    from loop import run_pass
    from spans import Tracer
    untraced, _ = run_pass(workload, seed, count=workload.trace_ops)
    u_lat = untraced.normalized()
    # Ops that ran over the budget untraced are not run again: tracing only
    # slows an op down and does not change its coefficients, so their failure
    # is carried over.  The rest completed within budget and run without one.
    carry = {i: c for i, c in enumerate(untraced.causes) if c == "over-budget"}
    ops = workload.ops(seed, 0, workload.trace_ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_pass(workload, seed, ops=ops, carry=carry, tracer=tracer)
    finally:
        tracer.remove()
    n = traced.attempted
    t_untraced = sum(x for i, x in enumerate(u_lat) if i not in carry)
    t_traced = sum(traced.normalized())
    slowdown = traced.speed.overall()
    digest_ok = untraced.digest() == traced.digest()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload.name}.json.gz")
    tracer.write(path)
    spans = tracer.summary()
    values = {}
    for m in bench["per_layer"]:
        name = m["name"]
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            calls, self_s = spans.get(span, (0, 0.0))
            values[name] = calls if field == "calls" else self_s / slowdown
        elif name == "matrix.inverse.int_unimodular_share":
            calls = spans.get("matrix.inverse", (0, 0.0))[0]
            values[name] = tracer.counters.get("matrix.inverse.int_unimodular", 0) / max(calls, 1)
        elif name == "cli.import_s":
            values[name] = measure_import()
        elif name == "trace.overhead_ratio":
            values[name] = t_traced / t_untraced
        else:
            values[name] = tracer.counters.get(name, 0)
    print_table(f"workload {workload.name}  seed {seed}  traced ops {n}  spans {len(tracer.start)}"
                f"  untraced {t_untraced:.2f}s  traced {t_traced:.2f}s",
                values, {m["name"]: m["unit"] for m in bench["per_layer"]})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(f"results digest traced == untraced over {n} ops: {digest_ok};"
          f" times are at reference speed (traced pass slowdown {slowdown:.3f})")
    print_failures(untraced)
    return untraced.correct and digest_ok, untraced, values


def main(argv=None):
    ap = argparse.ArgumentParser(description="exactgroups benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10,
                    help="size of an untraced run: the ops it takes this long to run at seed"
                         " state on the reference host (a traced run replays a fixed op count)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the first inputs, then exit (times setup_s)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exactgroups", "__init__.py")):
        print(f"error: no exactgroups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from loop import BATCH, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.ops(args.seed, 0, BATCH)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.trace:
        correct, p, values = per_layer(workload, args.seed, bench)
    else:
        correct, p, values = end_to_end(workload, args.seed, args.seconds, bench)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({"correct": correct, "attempted": p.attempted, "failed": p.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
