"""The cli-requests workload: in-process ``cli.run(argv)`` over small seeded
documents for all 20 subcommands, with stdin, stdout and stderr in memory.

One request in five is malformed or breaks a precondition; such a request
passes iff the exit code is 2 or 3.  A valid request passes iff it exits 0
and its stdout parses, carries version/command, validates against the shipped
JSON schemas and equals the payload computed by calling the library directly.
"""

import io
import json
import os
import re
import sys
from fractions import Fraction

import exactgroups
from exactgroups import affine, bruhat, cli, cocycle, lattice, sl2
from exactgroups.matrix import Matrix

import oracle as O
from speed import PARSING
from workloads import (MINUS_I, S, T, Kind, Workload, coboundary_window,
                       invertible_grid3, random_sl2, random_unimodular)

BAD_SHARE = 5   # request i of a subcommand is malformed when i % BAD_SHARE == 4


def js(x):
    """Decimal-string scalar, formatted without the library's serializer."""
    x = O.norm(x)
    return f"{x.numerator}/{x.denominator}" if type(x) is Fraction else str(x)


def jv(v):
    return [js(x) for x in v]


def jm(m):
    return {"rows": len(m), "cols": len(m[0]), "entries": [jv(r) for r in m]}


def jsafe(obj):
    if isinstance(obj, dict):
        return {k: jsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsafe(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    return js(obj)


def opt_str(x):
    return None if x is None else str(x)


def basis_doc(basis, index):
    return {"basis": [jv(r) for r in basis.rows], "dim": basis.dim,
            "index": opt_str(index)}


def word_doc(w):
    return {"word": [{"gen": g, "exp": e} for g, e in w.tokens], "central": w.central}


def infinite_order_sl2(rng):
    g = I = ((1, 0), (0, 1))
    while abs(g[0][0] + g[1][1]) < 2 or g in (I, MINUS_I):
        g = random_sl2(rng, rng.int_in(1, 5), max_exp=2)
    return g


# Each subcommand: (argv prefix, valid(rng) -> (flags, doc, expect), bad variants).
# `expect` computes the payload by a direct library call, outside the timed op.
# A bad variant is (name, make(rng) -> (flags, doc_text)).

def v_classify(rng):
    g = random_sl2(rng, rng.int_in(1, 6))

    def expect():
        c = sl2.classify_sl2(Matrix(g))
        return {"class": c.kind, "order": opt_str(c.order), "sign": opt_str(c.sign),
                "trace": js(g[0][0] + g[1][1])}
    return [], jm(g), expect


def v_decompose(rng):
    g = random_sl2(rng, rng.int_in(1, 8))
    alpha = "st" if rng.below(2) else "ST"

    def expect():
        w = sl2.decompose_st(Matrix(g))
        return word_doc(sl2.to_st_word(w) if alpha == "st" else w)
    return ["--alphabet", alpha], jm(g), expect


def v_congruence(rng):
    g = random_sl2(rng, rng.int_in(1, 6))
    fam = ("gamma", "gamma0", "gamma1")[rng.below(3)]
    level = rng.int_in(1, 12)

    def expect():
        kind = sl2.CongruenceKind(fam, level)
        return {"member": sl2.congruence_membership(kind, Matrix(g))}
    return ["--family", fam, "--level", str(level)], jm(g), expect


def v_solve_coboundary(rng):
    c_t = (rng.int_in(-20, 20), rng.int_in(-20, 20))

    def expect():
        c_s, w = cocycle.solve_full_coboundary(c_t)
        return {"c_s": jv(c_s), "xi": jv(w.xi), "integral": w.integral}
    return [], {"c_t": jv(c_t)}, expect


def v_eval(rng):
    values = [(rng.int_in(-5, 5), rng.int_in(-5, 5)) for _ in range(2)]
    word = [(rng.below(2), rng.int_in(-6, 6)) for _ in range(rng.int_in(1, 3))]
    doc = {"spec": {"generators": [jm(S), jm(T)], "values": [jv(v) for v in values]},
           "word": [{"gen": i, "exp": e} for i, e in word]}

    def expect():
        spec = cocycle.CocycleSpec((Matrix(S), Matrix(T)), tuple(values))
        return {"value": jv(cocycle.cocycle_eval(spec, tuple(word)))}
    return [], doc, expect


def gamma1_element(rng, level):
    g = ((1, 0), (0, 1))
    for _ in range(rng.int_in(1, 4)):
        e = rng.int_in(-2, 2)
        g = O.mul(g, ((1, e), (0, 1)) if rng.below(2) else ((1, 0), (level * e, 1)))
    return g


def v_gamma1(rng):
    level = rng.int_in(2, 8)
    g = gamma1_element(rng, level)

    def expect():
        return {"value": jv(cocycle.gamma1_cocycle(level, Matrix(g)))}
    return ["--level", str(level)], jm(g), expect


def v_obstruction(rng):
    level = rng.int_in(1, 12)
    g = random_sl2(rng, rng.int_in(1, 6))

    def expect():
        return {"integral": cocycle.gamma1_obstruction(level, Matrix(g))}
    return ["--level", str(level)], jm(g), expect


def v_central(rng):
    m, n = rng.int_in(-5, 5), rng.int_in(-5, 5)
    g = random_sl2(rng, rng.int_in(1, 6))

    def expect():
        value = cocycle.central_cocycle(m, n, Matrix(g))
        case = cocycle.parity_domain(m, n)
        return {"value": None if value is None else jv(value), "case": case.case_id,
                "accepted": case.accepts(Matrix(g))}
    return [], {"m": str(m), "n": str(n), "matrix": jm(g)}, expect


def finf_doc(rng, n):
    r = rng.int_in(2, 4)
    values = coboundary_window((rng.int_in(-5, 5), rng.int_in(-5, 5)), r)
    if rng.below(2):
        values[0] = (values[0][0] + 1, values[0][1])
    return values, {"n": n, "window": [[k, js(x), js(y)] for k, (x, y) in values.items()]}


def v_finf(rng):
    n = rng.int_in(1, 2) * (1 if rng.below(2) else -1)
    values, doc = finf_doc(rng, n)

    def expect():
        u = cocycle.finf_extend(n, values, sorted(values))
        return {"u": None if u is None else jv(u)}
    return [], doc, expect


def v_icc(rng):
    g = infinite_order_sl2(rng)

    def expect():
        return {"icc": affine.icc_affine_cyclic(Matrix(g)), "trace": js(g[0][0] + g[1][1])}
    return [], jm(g), expect


def affine_doc(a, g):
    return {"translation": jv(a), "matrix": jm(g)}


def v_ball(rng):
    radius = rng.int_in(1, 4)
    v = (rng.int_in(-3, 3), rng.int_in(-3, 3))
    doc = {"element": affine_doc(v, ((1, 0), (0, 1))),
           "generators": [affine_doc((0, 0), S), affine_doc((0, 0), T)]}

    def expect():
        x = affine.AffineElement(v, Matrix.identity(2))
        gens = [affine.AffineElement((0, 0), Matrix(g)) for g in (S, T)]
        return {"count": str(affine.conj_class_ball(x, gens, radius))}
    return ["--radius", str(radius)], doc, expect


def v_lattice(rng):
    n = 2 + rng.below(2)
    gens = [random_unimodular(rng, n, rng.int_in(2, 4)) for _ in range(rng.int_in(1, 2))]
    seeds = [tuple(rng.int_in(-6, 6) for _ in range(n))]

    def expect():
        return basis_doc(*affine.invariant_lattice([Matrix(g) for g in gens], seeds))
    return [], {"generators": [jm(g) for g in gens], "seeds": [jv(s) for s in seeds]}, expect


def v_aut_check(rng):
    n = 2 + rng.below(2)
    L = random_unimodular(rng, n, 6)
    xi = tuple(rng.int_in(-6, 6) for _ in range(n))
    count = rng.int_in(1, 4)
    flags = ["--seed", str(rng.below(1000)), "--count", str(count)]

    def expect():
        affine.affine_automorphism(Matrix(L), xi)   # raises if L is not unimodular
        return {"homomorphism": True, "samples": count}
    return flags, {"L": jm(L), "xi": jv(xi)}, expect


def v_classify_subgroup(rng):
    g = random_sl2(rng, rng.int_in(1, 5), max_exp=2)

    def expect():
        report = affine.classify_subgroup(affine.CyclicLinear(Matrix(g), True))
        return {"case": report.case,
                "checks": [{"name": c.name, "verdict": c.verdict,
                            "evidence": jsafe(c.evidence)} for c in report.checks]}
    return [], {"kind": "cyclic_linear", "matrix": jm(g)}, expect


def v_bruhat_decompose(rng):
    g = invertible_grid3(rng)

    def expect():
        fac = bruhat.bruhat_decompose(Matrix(g))
        da, db = fac.det_pair()
        return {"sigma": fac.sigma, "A": jm(fac.A.data), "B": jm(fac.B.data),
                "det_a": js(da), "det_b": js(db)}
    return [], jm(g), expect


def v_cell(rng):
    g = invertible_grid3(rng)

    def expect():
        return {"sigma": bruhat.cell_of(Matrix(g))}
    return [], jm(g), expect


def v_fact_check(rng):
    fact, seed, count = 1 + rng.below(2), rng.below(1000), rng.int_in(1, 8)

    def expect():
        return {"fact": fact, "holds": bruhat.fact_check(fact, seed=seed, count=count),
                "cases": count}
    return ["--fact", str(fact), "--seed", str(seed), "--count", str(count)], {}, expect


def v_hnf(rng):
    dim = rng.int_in(1, 4)
    rows = [tuple(rng.int_in(-9, 9) for _ in range(dim)) for _ in range(rng.int_in(1, 4))]

    def expect():
        b = lattice.hnf(rows, dim=dim)
        return {"basis": [jv(r) for r in b.rows], "dim": b.dim, "rank": b.rank,
                "index": opt_str(b.index())}
    return [], {"rows": [jv(r) for r in rows], "dim": dim}, expect


def v_snf(rng):
    n = rng.int_in(2, 3)
    m = tuple(tuple(rng.int_in(-9, 9) for _ in range(n)) for _ in range(n))

    def expect():
        return dict(zip("UDV", (jm(x.data) for x in lattice.snf(Matrix(m)))))
    return [], jm(m), expect


def v_solve(rng):
    n = rng.int_in(2, 3)
    m = tuple(tuple(rng.int_in(-6, 6) for _ in range(n)) for _ in range(n))
    b = tuple(rng.int_in(-6, 6) for _ in range(n))

    def expect():
        x = lattice.solve_integer(Matrix(m), b)
        return {"solution": None if x is None else jv(x)}
    return [], {"matrix": jm(m), "b": jv(b)}, expect


# -- malformed and precondition-breaking variants ---------------------------

def doc_of(valid):
    """A bad variant that alters the flags/doc of a valid request."""
    def make(alter):
        def bad(rng):
            flags, doc, _ = valid(rng)
            return alter(rng, flags, doc)
        return bad
    return make


def with_entry(doc, value):
    doc = json.loads(json.dumps(doc))
    doc["entries"][0][0] = value
    return doc


BAD_COMMON = [
    ("truncated-json", lambda rng: ([], '{"rows": 2, "entries": [["1"')),
    ("wrong-type", lambda rng: ([], "[]")),
]


def bad_matrix_ops(valid):
    alter = doc_of(valid)
    return [
        ("non-numeric-entry", alter(lambda rng, f, d: (f, with_entry(d, "x")))),
        ("float-entry", alter(lambda rng, f, d: (f, with_entry(d, int(d["entries"][0][0]) + 0.5)))),
        ("ragged", alter(lambda rng, f, d: (f, {**d, "entries": [["1"], ["0", "1"]]}))),
    ]


def set_flag(flags, name, value):
    flags = list(flags)
    flags[flags.index(name) + 1] = value
    return flags


SUBCOMMANDS = [
    ("sl2 classify", v_classify, bad_matrix_ops(v_classify) + [
        ("det-2", lambda rng: ([], jm(((2, 0), (0, 1)))))]),
    ("sl2 decompose", v_decompose, [
        ("det-minus-1", lambda rng: ([], jm(((0, 1), (1, 0)))))]),
    ("sl2 congruence", v_congruence, [
        ("level-0", doc_of(v_congruence)(lambda rng, f, d: (set_flag(f, "--level", "0"), d))),
        ("bad-family", doc_of(v_congruence)(lambda rng, f, d: (set_flag(f, "--family", "gamma2"), d)))]),
    ("cocycle solve-coboundary", v_solve_coboundary, [
        ("short-vector", lambda rng: ([], {"c_t": ["1"]})),
        ("missing-key", lambda rng: ([], {"c": ["1", "2"]}))]),
    ("cocycle eval", v_eval, [
        ("unknown-generator", doc_of(v_eval)(lambda rng, f, d: (f, {**d, "word": [{"gen": 7, "exp": 1}]}))),
        ("non-sl2-generator", doc_of(v_eval)(
            lambda rng, f, d: (f, {**d, "spec": {**d["spec"], "generators": [jm(((2, 0), (0, 1))), jm(T)]}})))]),
    ("cocycle gamma1", v_gamma1, [
        ("not-in-gamma1", lambda rng: (["--level", str(rng.int_in(2, 8))], jm(S)))]),
    ("cocycle obstruction", v_obstruction, [
        ("level-0", doc_of(v_obstruction)(lambda rng, f, d: (set_flag(f, "--level", "0"), d))),
        ("negative-level", doc_of(v_obstruction)(
            lambda rng, f, d: (set_flag(f, "--level", str(-rng.int_in(1, 12))), d))),
        ("non-sl2", lambda rng: (["--level", "3"], jm(((2, 1), (1, 2)))))]),
    ("cocycle central", v_central, [
        ("missing-matrix", lambda rng: ([], {"m": "1", "n": "0"})),
        ("non-numeric-m", doc_of(v_central)(lambda rng, f, d: (f, {**d, "m": "x"})))]),
    ("cocycle finf-extend", v_finf, [
        ("shift-0", lambda rng: ([], finf_doc(rng, 0)[1])),
        ("window-without-0", lambda rng: ([], {"n": 1, "window": [[1, "0", "0"], [2, "0", "0"]]}))]),
    ("affine icc", v_icc, [
        ("finite-order", lambda rng: ([], jm(S)))]),
    ("affine ball", v_ball, [
        ("negative-radius", doc_of(v_ball)(lambda rng, f, d: (set_flag(f, "--radius", "-1"), d)))]),
    ("affine lattice", v_lattice, [
        ("no-generators", lambda rng: ([], {"generators": [], "seeds": [["1", "0"]]})),
        ("rational-generator", lambda rng: ([], {"generators": [jm(((1, Fraction(1, 2)), (0, 1)))],
                                                "seeds": [["1", "0"]]}))]),
    ("affine aut-check", v_aut_check, [
        ("det-2", doc_of(v_aut_check)(lambda rng, f, d: (f, {"L": jm(((2, 0), (0, 1))), "xi": ["0", "0"]})))]),
    ("affine classify", v_classify_subgroup, [
        ("unknown-kind", lambda rng: ([], {"kind": "nope"}))]),
    ("bruhat decompose", v_bruhat_decompose, [
        ("singular", lambda rng: ([], jm(((1, 2, 3), (2, 4, 6), (0, 1, 1)))))]),
    ("bruhat cell", v_cell, [
        ("not-3x3", lambda rng: ([], jm(((1, 0), (0, 1)))))]),
    ("bruhat fact-check", v_fact_check, [
        ("unknown-fact", lambda rng: (["--fact", "7"], {}))]),
    ("lin hnf", v_hnf, [
        ("mixed-dims", lambda rng: ([], {"rows": [["1", "2"], ["3"]]})),
        ("float-rows", lambda rng: ([], {"rows": [[1.5, 2], [3, 4.25]]}))]),
    ("lin snf", v_snf, [
        ("rational-matrix", lambda rng: ([], jm(((Fraction(1, 2), 0), (0, 1))))),
        ("no-entries", lambda rng: ([], {"rows": 2, "cols": 2}))]),
    ("lin solve", v_solve, [
        ("rhs-length", doc_of(v_solve)(lambda rng, f, d: (f, {**d, "b": d["b"] + ["1"]})))]),
]


def run_request(args):
    argv, text = args[0], args[1]
    old = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
    try:
        code = cli.run(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue()


_VALIDATORS = {}


def validator(group):
    """jsonschema validator for a command group, built from the shipped schemas."""
    if not _VALIDATORS:
        from jsonschema import Draft202012Validator
        from referencing import Registry, Resource
        folder = os.path.join(os.path.dirname(exactgroups.__file__), "schemas")
        schemas = {}
        for name in sorted(os.listdir(folder)):
            if name.endswith(".schema.json"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    schemas[name.split(".")[0]] = json.load(fh)
        registry = Registry().with_resources(
            [(s["$id"], Resource.from_contents(s)) for s in schemas.values()])
        for key, schema in schemas.items():
            _VALIDATORS[key] = Draft202012Validator(schema, registry=registry)
    return _VALIDATORS[group]


def check_request(args, result):
    argv, _, expect, _ = args
    code, out = result
    if expect is None:                  # malformed: any refusal with 2 or 3
        return code in (2, 3) or f"accepted-invalid {args[3]}"
    if code != 0:
        return False
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    if doc.get("version") != exactgroups.__version__:
        return False
    if doc.get("command") != f"{argv[0]}.{argv[1]}":
        return False
    if not validator(argv[0]).is_valid(doc):
        return False
    payload = {k: v for k, v in doc.items() if k not in ("version", "command")}
    return payload == expect()


# Subcommands that read no document, so a malformed one is not an error.
NO_INPUT = {"bruhat fact-check"}


def request_maker(command, valid, bad):
    if command not in NO_INPUT:
        bad = BAD_COMMON + bad

    def make(rng, rnd):
        if rnd % BAD_SHARE == BAD_SHARE - 1:
            name, make_bad = bad[rng.below(len(bad))]
            flags, doc = make_bad(rng)
            expect, variant = None, name
        else:
            flags, doc, expect = valid(rng)
            variant = "valid"
        text = doc if isinstance(doc, str) else json.dumps(doc)
        argv = command.split() + flags + ["--in", "-"]
        return argv, text, expect, variant
    return make


def request_bits(result):
    """Largest bit-length among the decimal scalars of the output document."""
    def scalars(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            for y in x:
                yield from scalars(y)
        elif isinstance(x, str) and SCALAR.fullmatch(x):
            yield Fraction(x)
    try:
        doc = json.loads(result[1])
    except ValueError:
        return 0
    return O.max_bits(list(scalars(doc)))


def unchecked_input(op, cause):
    """A malformed request that raised out of run() or was accepted: ROADMAP
    item 4.  A valid request that fails is not a known defect."""
    if op.args[3] != "valid" and cause.startswith(("raised ", "accepted-invalid ")):
        return "unchecked CLI input (ROADMAP item 4)"
    return None


SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
CLI_REQUESTS = Workload("cli-requests", 260, [
    (Kind(f"cli {cmd}", run_request, check_request, request_bits), request_maker(cmd, valid, bad))
    for cmd, valid, bad in SUBCOMMANDS
], trace_rounds=28, known_defect=unchecked_input, reference=PARSING)

# Fixed documents for cold-process calls: the first valid request of each
# subcommand under this seed, so they do not depend on the workload seed.
COLD_SEED = 0
