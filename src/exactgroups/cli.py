"""Deterministic command-line interface with JSON input and output.

Every invocation reads one JSON document (--in FILE, or "-" for stdin;
some subcommands need no input), writes exactly one JSON document to
stdout and diagnostics to stderr.  Identical argv + input produce
byte-identical output.

Exit codes: 0 success (boolean-false predicate results are data, not
errors); 2 malformed input; 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, affine, bruhat, cocycle, lattice, sl2
from .matrix import ExactError, Matrix, PreconditionError
from .prng import SplitMix64
from .serialize import (InputError, matrix_to_json, parse_cocycle_spec,
                        parse_index_word, parse_int, parse_matrix,
                        parse_scalar, parse_vector, scalar_to_str,
                        vector_to_json, word_to_json)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _read_doc(args):
    if args.infile is None:
        raise InputError("this subcommand requires --in")
    try:
        if args.infile == "-":
            return json.load(sys.stdin)
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document: {exc}") from exc


def _parse_affine(doc):
    return affine.AffineElement.of(parse_vector(doc["translation"]),
                                   parse_matrix(doc["matrix"]))


# -- handlers --------------------------------------------------------------

def _cmd_sl2_classify(args):
    g = parse_matrix(_read_doc(args))
    cls = sl2.classify_sl2(g)
    return {"class": cls.kind,
            "order": None if cls.order is None else str(cls.order),
            "sign": None if cls.sign is None else str(cls.sign),
            "trace": scalar_to_str(g.trace())}


def _cmd_sl2_decompose(args):
    g = parse_matrix(_read_doc(args))
    word = sl2.decompose_st(g)
    if args.alphabet == "st":
        word = sl2.to_st_word(word)
    return word_to_json(word)


def _cmd_sl2_congruence(args):
    g = parse_matrix(_read_doc(args))
    kind = sl2.CongruenceKind(args.family, args.level)
    return {"member": sl2.congruence_membership(kind, g)}


def _cmd_cocycle_solve_coboundary(args):
    doc = _read_doc(args)
    c_t = parse_vector(doc["c_t"])
    c_s, witness = cocycle.solve_full_coboundary(c_t)
    return {"c_s": vector_to_json(c_s),
            "xi": vector_to_json(witness.xi),
            "integral": witness.integral}


def _cmd_cocycle_eval(args):
    doc = _read_doc(args)
    spec = parse_cocycle_spec(doc["spec"])
    word = parse_index_word(doc["word"])
    return {"value": vector_to_json(cocycle.cocycle_eval(spec, word))}


def _cmd_cocycle_gamma1(args):
    g = parse_matrix(_read_doc(args))
    return {"value": vector_to_json(cocycle.gamma1_cocycle(args.level, g))}


def _cmd_cocycle_obstruction(args):
    g = parse_matrix(_read_doc(args))
    return {"integral": cocycle.gamma1_obstruction(args.level, g)}


def _cmd_cocycle_central(args):
    doc = _read_doc(args)
    m, n = parse_int(doc["m"]), parse_int(doc["n"])
    g = parse_matrix(doc["matrix"])
    value = cocycle.central_cocycle(m, n, g)
    case = cocycle.parity_domain(m, n)
    return {"value": None if value is None else vector_to_json(value),
            "case": case.case_id,
            "accepted": case.accepts(g)}


def _cmd_cocycle_finf_extend(args):
    doc = _read_doc(args)
    n = parse_int(doc["n"])
    values = {parse_int(k): (parse_scalar(x), parse_scalar(y))
              for k, x, y in doc["window"]}
    u = cocycle.finf_extend(n, values, sorted(values))
    return {"u": None if u is None else vector_to_json(u)}


def _cmd_affine_icc(args):
    g = parse_matrix(_read_doc(args))
    return {"icc": affine.icc_affine_cyclic(g), "trace": scalar_to_str(g.trace())}


def _cmd_affine_ball(args):
    doc = _read_doc(args)
    x = _parse_affine(doc["element"])
    gens = [_parse_affine(g) for g in doc["generators"]]
    return {"count": str(affine.conj_class_ball(x, gens, args.radius))}


def _cmd_affine_lattice(args):
    doc = _read_doc(args)
    gens = [parse_matrix(m) for m in doc["generators"]]
    seeds = [parse_vector(v) for v in doc["seeds"]]
    basis, index = affine.invariant_lattice(gens, seeds)
    return {"basis": [vector_to_json(r) for r in basis.rows],
            "dim": basis.dim,
            "index": None if index is None else str(index)}


def _cmd_affine_aut_check(args):
    doc = _read_doc(args)
    L = parse_matrix(doc["L"])
    xi = parse_vector(doc["xi"])
    phi = affine.affine_automorphism(L, xi)
    rng = SplitMix64(args.seed)
    n = L.rows
    checked = 0
    for _ in range(args.count):
        x = _random_affine(rng, n)
        y = _random_affine(rng, n)
        if phi(x * y) != phi(x) * phi(y):
            return {"homomorphism": False, "samples": checked}
        checked += 1
    return {"homomorphism": True, "samples": checked}


def _random_affine(rng, n):
    a = tuple(rng.int_in(-5, 5) for _ in range(n))
    g = Matrix.identity(n)
    if n == 2:
        for _ in range(6):
            r = rng.below(4)
            base = sl2.S if r // 2 == 0 else sl2.T
            g = g * (base.inverse() if r % 2 else base)
    return affine.AffineElement(a, g)


def _cmd_affine_classify(args):
    doc = _read_doc(args)
    if not isinstance(doc, dict):
        raise InputError("subgroup descriptor must be a JSON object")
    kind = doc.get("kind")
    if kind == "full_lattice":
        basis = lattice.hnf([parse_vector(r) for r in doc["lattice"]["rows"]],
                            dim=parse_int(doc["lattice"]["dim"]))
        d = affine.FullLatticeSemidirect(
            basis, tuple(parse_matrix(m) for m in doc["generators"]))
    elif kind == "graph":
        d = affine.GraphSubgroup(parse_cocycle_spec(doc["spec"]))
    elif kind == "cyclic_linear":
        flag = doc.get("with_minus_identity", True)
        if type(flag) is not bool:
            raise InputError("with_minus_identity must be true or false")
        d = affine.CyclicLinear(parse_matrix(doc["matrix"]), flag)
    else:
        raise InputError(f"unknown descriptor kind {kind!r}")
    report = affine.classify_subgroup(d)
    return {"case": report.case,
            "checks": [{"name": c.name, "verdict": c.verdict,
                        "evidence": _json_safe(c.evidence)}
                       for c in report.checks]}


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, str):
        return obj
    return scalar_to_str(obj)


def _cmd_bruhat_decompose(args):
    g = parse_matrix(_read_doc(args))
    fac = bruhat.bruhat_decompose(g)
    da, db = fac.det_pair()
    return {"sigma": fac.sigma,
            "A": matrix_to_json(fac.A),
            "B": matrix_to_json(fac.B),
            "det_a": scalar_to_str(da),
            "det_b": scalar_to_str(db)}


def _cmd_bruhat_cell(args):
    g = parse_matrix(_read_doc(args))
    return {"sigma": bruhat.cell_of(g)}


def _grid_rationals(bound, nonzero=False):
    from fractions import Fraction
    vals = {Fraction(p, q) for p in range(-bound, bound + 1)
            for q in range(1, bound + 1)}
    if nonzero:
        vals.discard(Fraction(0))
    return sorted(vals)


def _cmd_bruhat_fact_check(args):
    if args.fact in (1, 2):
        holds = bruhat.fact_check(args.fact, seed=args.seed, count=args.count)
        return {"fact": args.fact, "holds": holds, "cases": args.count}
    diag = _grid_rationals(args.grid, nonzero=True)
    off = _grid_rationals(args.grid)
    cases = 0
    for d1 in diag:
        for d2 in diag:
            for d3 in diag:
                for u12 in off:
                    for u13 in off:
                        for u23 in off:
                            g = Matrix([[d1, u12, u13], [0, d2, u23], [0, 0, d3]])
                            if not bruhat.fact_check(args.fact, g):
                                return {"fact": args.fact, "holds": False,
                                        "cases": cases,
                                        "counterexample": matrix_to_json(g)}
                            cases += 1
    return {"fact": args.fact, "holds": True, "cases": cases}


def _cmd_lin_hnf(args):
    doc = _read_doc(args)
    rows = [parse_vector(r) for r in doc["rows"]]
    basis = lattice.hnf(rows, dim=parse_int(doc["dim"]) if "dim" in doc else None)
    index = basis.index()
    return {"basis": [vector_to_json(r) for r in basis.rows],
            "dim": basis.dim,
            "rank": basis.rank,
            "index": None if index is None else str(index)}


def _cmd_lin_snf(args):
    m = parse_matrix(_read_doc(args))
    if not m.is_integral():
        raise PreconditionError("Smith normal form needs an integer matrix")
    U, D, V = lattice.snf(m)
    return {"U": matrix_to_json(U), "D": matrix_to_json(D), "V": matrix_to_json(V)}


def _cmd_lin_solve(args):
    doc = _read_doc(args)
    m = parse_matrix(doc["matrix"])
    b = parse_vector(doc["b"])
    x = lattice.solve_integer(m, b)
    return {"solution": None if x is None else vector_to_json(x)}


# -- wiring ----------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(prog="exactgroups")
    top = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, func, **flags):
        p = group.add_parser(name)
        p.add_argument("--in", dest="infile", default=None,
                       help="input JSON document (file path or - for stdin)")
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
        return p

    g_sl2 = parser_group(top, "sl2")
    sub(g_sl2, "classify", _cmd_sl2_classify)
    sub(g_sl2, "decompose", _cmd_sl2_decompose,
        **{"--alphabet": dict(choices=["ST", "st"], default="ST")})
    sub(g_sl2, "congruence", _cmd_sl2_congruence,
        **{"--family": dict(choices=["gamma", "gamma0", "gamma1"], required=True),
           "--level": dict(type=int, required=True)})

    g_co = parser_group(top, "cocycle")
    sub(g_co, "solve-coboundary", _cmd_cocycle_solve_coboundary)
    sub(g_co, "eval", _cmd_cocycle_eval)
    sub(g_co, "gamma1", _cmd_cocycle_gamma1,
        **{"--level": dict(type=int, required=True)})
    sub(g_co, "obstruction", _cmd_cocycle_obstruction,
        **{"--level": dict(type=int, required=True)})
    sub(g_co, "central", _cmd_cocycle_central)
    sub(g_co, "finf-extend", _cmd_cocycle_finf_extend)

    g_af = parser_group(top, "affine")
    sub(g_af, "icc", _cmd_affine_icc)
    sub(g_af, "ball", _cmd_affine_ball,
        **{"--radius": dict(type=int, default=5)})
    sub(g_af, "lattice", _cmd_affine_lattice)
    sub(g_af, "aut-check", _cmd_affine_aut_check,
        **{"--seed": dict(type=int, required=True),
           "--count": dict(type=int, default=100)})
    sub(g_af, "classify", _cmd_affine_classify)

    g_br = parser_group(top, "bruhat")
    sub(g_br, "decompose", _cmd_bruhat_decompose)
    sub(g_br, "cell", _cmd_bruhat_cell)
    sub(g_br, "fact-check", _cmd_bruhat_fact_check,
        **{"--fact": dict(type=int, choices=[1, 2, 3, 4], required=True),
           "--grid": dict(type=int, default=1),
           "--seed": dict(type=int, default=0),
           "--count": dict(type=int, default=50)})

    g_lin = parser_group(top, "lin")
    sub(g_lin, "hnf", _cmd_lin_hnf)
    sub(g_lin, "snf", _cmd_lin_snf)
    sub(g_lin, "solve", _cmd_lin_solve)
    return parser


def parser_group(top, name):
    p = top.add_parser(name)
    grp = p.add_subparsers(dest="command", required=True)
    return grp


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        result = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return EXIT_INPUT
    except ExactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    doc = {"version": __version__,
           "command": f"{args.group}.{args.command}" if args.command else args.group}
    doc.update(result)
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")
    return EXIT_OK


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
