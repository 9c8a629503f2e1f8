"""Tests of the benchmark itself (not of the library):

    python3 -m pytest bench -q

* the same seed gives byte-identical inputs and the same results digest;
* every op kind's oracle accepts the library's answer and rejects a
  deliberately corrupted one;
* an op that runs past the budget (time or size) is counted as failed, not
  skipped, and which ops fail repeats exactly for a seed;
* a failure that is not a known defect makes the run incorrect;
* the traced run restores the library and reproduces the untraced digest;
* the command fails without printing a result when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

from exactgroups import affine, bruhat, lattice, sl2  # noqa: E402
from exactgroups.matrix import Matrix  # noqa: E402

import loop  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SNF, Kind, SizeGuard, Workload, canon, plain  # noqa: E402

SEED = 7


def inputs_text(op):
    """Canonical bytes of an op's inputs (callables excluded)."""
    return canon(plain(tuple(a for a in op.args if not callable(a)))).encode()


def first_ops(workload, seed=SEED):
    """Two rounds of the workload's schedule."""
    return workload.ops(seed, 0, 2 * len(workload.schedule))


@pytest.mark.parametrize("name", sorted(loop.WORKLOADS))
def test_same_seed_same_inputs_and_digest(name):
    w = loop.WORKLOADS[name]
    a, b = first_ops(w), first_ops(w)
    assert [inputs_text(x) for x in a] == [inputs_text(x) for x in b]
    assert [inputs_text(x) for x in a] != [inputs_text(x) for x in first_ops(w, SEED + 1)]
    n = len(a)
    p1, _ = loop.run_pass(w, SEED, count=n)
    p2, _ = loop.run_pass(w, SEED, count=n)
    assert p1.attempted == n and p1.correct
    assert p1.digest() == p2.digest()


# -- oracles reject corrupted answers ----------------------------------------

def bump_matrix(m, i=0, j=0):
    rows = [list(r) for r in m.data]
    rows[i][j] += 1
    return Matrix(rows)


def corrupt_cli(args, result):
    code, out = result
    if args[2] is None:                 # malformed request: accept it
        return 0, '{"version":"0.1.0"}\n'
    doc = json.loads(out)
    key = sorted(k for k in doc if k not in ("version", "command"))[0]
    doc[key] = "corrupted" if doc[key] != "corrupted" else None
    return code, json.dumps(doc)


CORRUPT = {
    "decompose_st": lambda a, r: (sl2.GenWord(((r[0].tokens[0][0], r[0].tokens[0][1] + 1),)
                                              + r[0].tokens[1:], r[0].central), r[1]),
    "automorphism": lambda a, r: ((affine.AffineElement(
        (r[0][0].translation[0] + 1,) + r[0][0].translation[1:], r[0][0].linear), r[0][1]),) + r[1:],
    "cocycle_eval": lambda a, r: (r[0] + 1, r[1]),
    "conj_class_ball": lambda a, r: r + 1,
    "bruhat_decompose": lambda a, r: bruhat.BruhatFactorization(bump_matrix(r.A, 0, 2), r.sigma, r.B),
    "cell_of": lambda a, r: "id" if r != "id" else "(13)",
    "fact_check": lambda a, r: not r,
    "case3_normalize": lambda a, r: (r[0], bump_matrix(r[1], 0, 1)),
    "hnf": lambda a, r: lattice.LatticeBasis(r.dim, tuple(tuple(2 * x for x in row) for row in r.rows[:1])
                                             + r.rows[1:]) if r.rows else
    lattice.LatticeBasis(r.dim, (tuple(int(i == 0) for i in range(r.dim)),)),
    "snf": lambda a, r: (r[0], bump_matrix(r[1]), r[2]),
    "solve_integer": lambda a, r: None if r is not None else (0,) * len(a[1]),
    "kernel_basis": lambda a, r: lattice.LatticeBasis(r.dim, tuple(tuple(2 * x for x in row) for row in r.rows)
                                                      or ((1,) + (0,) * (r.dim - 1),)),
    "invariant_lattice": lambda a, r: (r[0], (r[1] or 0) + 1),
    "finf_extend": lambda a, r: None if r is not None else (0, 0),
}


def kinds_with_ops(workload, seed=SEED):
    seen = {}
    for op in workload.ops(seed, 0, 4 * len(workload.schedule)):
        malformed = op.kind.name.startswith("cli ") and op.args[2] is None
        seen.setdefault((op.kind.name, malformed), op)
    return list(seen.values())


@pytest.mark.parametrize("name", sorted(loop.WORKLOADS))
def test_oracle_rejects_corrupted_answers(name):
    w = loop.WORKLOADS[name]
    kinds = set()
    for op in kinds_with_ops(w):
        elapsed, result, cause = loop.execute(op, op.kind.budget_s)
        if cause == "over-budget":
            continue
        assert cause is None, (op.kind.name, cause)
        verdict = op.kind.check(op.args, result)
        if op.kind.name.startswith("cli ") and op.args[2] is None and verdict is not True:
            kinds.add(op.kind.name)             # a known defect: accepted malformed input
            continue
        assert verdict is True, op.kind.name
        corrupt = corrupt_cli if op.kind.name.startswith("cli ") else CORRUPT[op.kind.name]
        assert op.kind.check(op.args, corrupt(op.args, result)) is not True, op.kind.name
        kinds.add(op.kind.name)
    assert kinds == {k.name for k, _ in w.schedule}


def test_solve_none_is_cross_checked():
    """A solvable system answered with None is rejected, and so is a
    solution to an unsolvable one."""
    w = loop.WORKLOADS["normal-forms"]
    ops = [op for op in w.ops(SEED, 0, 200) if op.kind.name == "solve_integer"]
    solvable = next(op for op in ops if op.kind.run(op.args) is not None)
    unsolvable = next(op for op in ops if op.kind.run(op.args) is None)
    assert solvable.kind.check(solvable.args, None) is not True
    assert unsolvable.kind.check(unsolvable.args, (0,) * len(unsolvable.args[1])) is not True


# -- the per-op budget -------------------------------------------------------

def spin(args):
    end = time.perf_counter() + args[0]
    while time.perf_counter() < end:
        pass
    return 1


def test_over_budget_op_is_counted_as_failed():
    kind = Kind("spin", spin, lambda args, result: True, budget_s=0.02)
    w = Workload("spin", 1, [(kind, lambda rng, rnd: (0.0,)),
                                (kind, lambda rng, rnd: (0.5,))], 1)
    p, timed = loop.run_pass(w, 0, count=4)
    assert p.attempted == 4 and len(p.latencies) == 4
    assert p.failed == 2 and p.failures == {("spin", "over-budget", None): 2}
    assert p.causes == [None, "over-budget", None, "over-budget"]
    assert not p.correct                # not a known defect of this workload
    # a failed op counts in the latencies at its time to failure, which is
    # the budget scaled by the host slowdown: well under the op's 0.5 s
    assert all(0 < x < 0.4 for x in p.latencies[1::2])
    assert timed == pytest.approx(sum(p.latencies))


def test_over_size_op_is_counted_as_failed_whatever_its_time():
    """The size guard fails an op by its SNF's U/V entry size, which repeats
    exactly; lattice.snf is restored afterwards."""
    original = lattice.snf
    guard = SizeGuard()
    guard.MAX_BITS = 20
    w = Workload("snf", 1, [SNF], 1, guard=guard)
    expected = []
    for op in w.ops(SEED, 0, 12):
        U, _, V = lattice.snf(op.args[0])
        top = max(abs(x) for X in (U, V) for row in X.data for x in row)
        expected.append("over-budget" if top.bit_length() > 20 else None)
    assert None in expected and "over-budget" in expected
    p1, _ = loop.run_pass(w, SEED, count=12)
    p2, _ = loop.run_pass(w, SEED, count=12)
    assert p1.causes == p2.causes == expected
    assert p1.failed == expected.count("over-budget") and p1.attempted == 12
    assert lattice.snf is original


def test_raising_op_makes_the_run_incorrect():
    def boom(args):
        raise ZeroDivisionError("escaped")
    w = Workload("boom", 1, [(Kind("boom", boom, lambda a, r: True), lambda rng, rnd: ())], 1)
    p, _ = loop.run_pass(w, 0, count=3)
    assert p.attempted == 3 and p.failures == {("boom", "raised ZeroDivisionError", None): 3}
    assert p.unattributed == 3 and not p.correct


def test_known_defects_are_keyed_by_kind_and_cause():
    nf = loop.WORKLOADS["normal-forms"]
    ops = {op.kind.name: op for op in nf.ops(SEED, 0, len(nf.schedule))}
    for kind in ("snf", "solve_integer", "kernel_basis", "finf_extend"):
        assert nf.known_defect(ops[kind], "over-budget")
        assert nf.known_defect(ops[kind], "raised TypeError") is None
        assert nf.known_defect(ops[kind], "wrong") is None
    for kind in ("hnf", "invariant_lattice"):
        assert nf.known_defect(ops[kind], "over-budget") is None

    cli = loop.WORKLOADS["cli-requests"]
    ops = cli.ops(SEED, 0, 5 * len(cli.schedule))
    malformed = next(op for op in ops if op.args[2] is None)
    valid = next(op for op in ops if op.args[2] is not None)
    assert cli.known_defect(malformed, "raised ZeroDivisionError")
    assert cli.known_defect(malformed, "accepted-invalid level-0")
    assert cli.known_defect(malformed, "wrong") is None
    assert cli.known_defect(valid, "raised ZeroDivisionError") is None
    assert cli.known_defect(valid, "wrong") is None


def test_attributed_failures_keep_the_run_correct():
    nf = loop.WORKLOADS["normal-forms"]
    p = loop.Pass(nf)
    snf_op = next(op for op in nf.ops(SEED, 0, len(nf.schedule)) if op.kind.name == "snf")
    p.record(snf_op, 0.01, None, "over-budget")
    assert p.failed == 1 and p.correct
    p.record(snf_op, 0.001, None, "raised TypeError")
    assert p.failed == 2 and not p.correct


# -- traced run ----------------------------------------------------------------

def test_tracer_restores_library_and_digest():
    import exactgroups.cocycle as cocycle_mod
    import exactgroups.lattice as lattice_mod
    originals = (Matrix.__mul__, Matrix.inverse, lattice_mod.snf, cocycle_mod.solve_integer,
                 Matrix.identity)
    for name in sorted(loop.WORKLOADS):
        w = loop.WORKLOADS[name]
        n = len(w.schedule)
        untraced, _ = loop.run_pass(w, SEED, count=n)
        carry = {i: c for i, c in enumerate(untraced.causes) if c == "over-budget"}
        ops = w.ops(SEED, 0, n)
        tracer = Tracer()
        tracer.install()
        try:
            assert lattice_mod.snf is not originals[2]
            assert cocycle_mod.solve_integer is not originals[3]
            traced, _ = loop.run_pass(w, SEED, ops=ops, carry=carry, tracer=tracer)
        finally:
            tracer.remove()
        assert traced.digest() == untraced.digest(), name
        summary = tracer.summary()
        assert summary and all(calls > 0 for calls, _ in summary.values())
        assert all(p < i for i, p in enumerate(tracer.parent))
        assert set(tracer.op) <= set(range(n))
    assert (Matrix.__mul__, Matrix.inverse, lattice_mod.snf, cocycle_mod.solve_integer,
            Matrix.identity) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.05))
    outer = tracer._wrap("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    summary = tracer.summary()
    assert summary["inner"][0] == summary["outer"][0] == 1
    assert 0.009 < summary["outer"][1] < 0.04
    assert summary["inner"][1] >= 0.049


# -- the command -----------------------------------------------------------------

def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "int-words",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_keys_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(loop.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def test_fraction_results_are_checked_exactly():
    # bruhat factors carry Fractions; a change below 1/1000 must still fail
    w = loop.WORKLOADS["bruhat-rational"]
    op = w.op(SEED, 0)
    fac = op.kind.run(op.args)
    rows = [list(r) for r in fac.B.data]
    rows[2][2] += Fraction(1, 1000)
    bad = bruhat.BruhatFactorization(fac.A, fac.sigma, Matrix(rows))
    assert op.kind.check(op.args, fac) is True
    assert op.kind.check(op.args, bad) is not True
