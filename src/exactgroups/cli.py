"""Deterministic command-line interface with JSON input and output.

Every invocation reads at most one JSON document (--in FILE, or "-" for
stdin), writes exactly one JSON document to stdout and diagnostics to
stderr.  Identical argv + input produce byte-identical output.

One table, COMMANDS, maps each (group, command) to its handler, whether it
reads a document, and its flags as argparse specs; every command also takes
--in.  run() first parses argv from the table alone (_table_parse): the
(group, command) key, then only that command's flags, each once, as --f v
or --f=v.  Any other argv -- help, an abbreviated, unknown or repeated flag,
a missing or bad value -- goes to the argparse parser built from the same
table, so help texts, usage messages and their exit codes are argparse's;
that parser too refuses a flag given twice, with a usage error (exit 2).
argparse is imported and the parser built only then, once per process, and
help is formatted at a fixed width, not the terminal's.  run() reads the
document only for commands that take one, refuses any but a JSON object,
and calls the handler as a pure function handler(doc, opts) -> dict, where
opts maps each flag to its value.  Handlers read each field through a
serialize reader (object, array, vector, matrix, int, scalar, word, cocycle
spec), which refuses a malformed field in the program's words, naming its
shape.  Integer flags follow the integer rule of the input documents
(serialize.parse_int).

A valid request does only the work its answer needs: the table parse reads
a per-command flag table (_FLAGS) built once from COMMANDS, documents go
in through one module-level JSON decoder and serialize's one-pass readers,
the answer goes out through one module-level encoder, and the sampling
commands multiply raw int rows (matrix._walk, for affine aut-check and
fact-check --fact 1|2) with the same SplitMix64 draws as before.
What a request still pays for besides its command is the JSON decode of its
document, and for help and malformed argv the argparse parser.

Each handler imports the library modules it calls when it runs, not when
this module loads, so a cold call compiles only its own command's modules:
without cached bytecode, compiling the others was about an eighth of a call.
The imports are absolute (`import exactgroups.bruhat as bruhat`), which
finds a loaded module in C; a relative `from . import bruhat` runs importlib's
Python `_handle_fromlist` on every call, ~1.5 us or 3% of a typical in-process
call.

Exit codes: 0 success (a false predicate result is data, not an error); 2
malformed input; 3 precondition violation, or a defect (`error: internal`).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys

from . import __version__
from .matrix import ExactError, Matrix, PreconditionError, _letters, _walk
from .serialize import (Doc, InputError, _array, matrix_to_json, parse_cocycle_spec,
                        parse_index_word, parse_int, parse_matrix, parse_object,
                        parse_scalar, parse_vector, scalar_to_str,
                        vector_to_json, word_to_json)

# json.dumps(doc, sort_keys=True, separators=(",", ":")), and a document
# decoder (objects as Doc, integers by parse_int), each built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode = json.JSONDecoder(object_hook=Doc, parse_int=parse_int).decode

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

# Bound on the conjugates an `affine ball` may visit, as a count of reduced
# words (each conjugate comes from one): radius <= 10 for two generators,
# about a second of work.
BALL_WORD_CAP = 120_000
# Most letters `sl2 decompose --alphabet st` may expand T^e into (2|e| each).
ST_WORD_CAP = 1_000_000
# Most cases `bruhat fact-check` may check: --count for facts 1 and 2, and
# |diag|^3 |off|^3 grid matrices for facts 3 and 4 (--grid 2: 74,088).
FACT_CASE_CAP = 100_000
# Most samples `affine aut-check` may check for a 2x2 L: about a second of
# work (--count 5000: 1.1 s in a CLI process).  A sample costs about n^3 for
# an n x n L, so max(count, 1) * n^2 may not pass 4 * AUT_SAMPLE_CAP: 12
# samples at n = 40, and an L past 141 x 141 is refused outright.
AUT_SAMPLE_CAP = 5_000


def _read_doc(infile):
    if infile is None:
        raise InputError("this subcommand requires --in")
    try:
        if infile == "-":
            doc = _decode(sys.stdin.read())
        else:
            with open(infile, "r", encoding="utf-8") as fh:
                doc = _decode(fh.read())
    except (OSError, UnicodeError, RecursionError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return doc


def _int_flag(text):
    """argparse type of the integer flags: parse_int, refusing as argparse
    refused int() (a usage error, exit 2)."""
    try:
        return parse_int(text)
    except InputError:
        import argparse
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_affine(doc):
    import exactgroups.affine as affine
    doc = parse_object(doc)
    return affine.AffineElement(parse_vector(doc["translation"]), parse_matrix(doc["matrix"]))


# -- handlers --------------------------------------------------------------

def _cmd_sl2_classify(doc, opts):
    import exactgroups.sl2 as sl2
    g = parse_matrix(doc)
    cls = sl2.classify_sl2(g)
    return {"class": cls.kind,
            "order": None if cls.order is None else str(cls.order),
            "sign": None if cls.sign is None else str(cls.sign),
            "trace": scalar_to_str(g.trace())}


def _cmd_sl2_decompose(doc, opts):
    import exactgroups.sl2 as sl2
    g = parse_matrix(doc)
    word = sl2.decompose_st(g)
    if opts["alphabet"] == "st":
        letters = 2 * sum(abs(e) for gen, e in word.tokens if gen == "T")
        if letters > ST_WORD_CAP:
            raise PreconditionError(f"st word too long: {letters} letters, "
                                    f"more than {ST_WORD_CAP}")
        word = sl2.to_st_word(word)
    return word_to_json(word)


def _cmd_sl2_congruence(doc, opts):
    import exactgroups.sl2 as sl2
    g = parse_matrix(doc)
    kind = sl2.CongruenceKind(opts["family"], opts["level"])
    return {"member": sl2.congruence_membership(kind, g)}


def _cmd_cocycle_solve_coboundary(doc, opts):
    import exactgroups.cocycle as cocycle
    c_t = parse_vector(doc["c_t"], 2)
    c_s, witness = cocycle.solve_full_coboundary(c_t)
    return {"c_s": vector_to_json(c_s),
            "xi": vector_to_json(witness.xi),
            "integral": witness.integral}


def _cmd_cocycle_eval(doc, opts):
    import exactgroups.cocycle as cocycle
    spec = parse_cocycle_spec(doc["spec"])
    word = parse_index_word(doc["word"])
    return {"value": vector_to_json(cocycle.cocycle_eval(spec, word))}


def _cmd_cocycle_gamma1(doc, opts):
    import exactgroups.cocycle as cocycle
    g = parse_matrix(doc)
    return {"value": vector_to_json(cocycle.gamma1_cocycle(opts["level"], g))}


def _cmd_cocycle_obstruction(doc, opts):
    import exactgroups.cocycle as cocycle
    g = parse_matrix(doc)
    return {"integral": cocycle.gamma1_obstruction(opts["level"], g)}


def _cmd_cocycle_central(doc, opts):
    import exactgroups.cocycle as cocycle
    m, n = parse_int(doc["m"]), parse_int(doc["n"])
    g = parse_matrix(doc["matrix"])
    value = cocycle.central_cocycle(m, n, g)
    return {"value": None if value is None else vector_to_json(value),
            "case": cocycle.parity_domain(m, n).case_id,
            "accepted": value is not None}


def _cmd_cocycle_finf_extend(doc, opts):
    import exactgroups.cocycle as cocycle
    n = parse_int(doc["n"])
    values = {}
    for k, x, y in (_array(t, 3) for t in _array(doc["window"])):
        if (k := parse_int(k)) in values:   # keeping either lets their order decide
            raise InputError(f"window index {k} is repeated")
        values[k] = (parse_scalar(x), parse_scalar(y))
    u = cocycle.finf_extend(n, values, sorted(values))
    return {"u": None if u is None else vector_to_json(u)}


def _cmd_affine_icc(doc, opts):
    import exactgroups.affine as affine
    g = parse_matrix(doc)
    return {"icc": affine.icc_affine_cyclic(g), "trace": scalar_to_str(g.trace())}


def _cmd_affine_ball(doc, opts):
    import exactgroups.affine as affine
    x = _parse_affine(doc["element"])
    gens = [_parse_affine(g) for g in _array(doc["generators"])]
    if _reduced_words(len(gens), opts["radius"]) > BALL_WORD_CAP:
        raise PreconditionError(f"radius too large: more than {BALL_WORD_CAP} "
                                f"reduced words over {len(gens)} generators")
    return {"count": str(affine.conj_class_ball(x, gens, opts["radius"]))}


def _reduced_words(k, radius):
    """Reduced words of length <= radius over k generators and their
    inverses: 1 + 2kr for k <= 1, else 1 + 2k((2k-1)^r - 1)/(2k-2) with r
    clamped to 32, where any k >= 2 has over 3 * 10^15, far past the cap.  A
    negative radius counts as 0, so it reaches conj_class_ball's refusal."""
    r = max(radius, 0)
    if k <= 1:
        return 1 + 2 * k * r
    return 1 + 2 * k * ((2 * k - 1) ** min(r, 32) - 1) // (2 * k - 2)


def _cmd_affine_lattice(doc, opts):
    import exactgroups.affine as affine
    gens = [parse_matrix(m) for m in _array(doc["generators"])]
    seeds = [parse_vector(v) for v in _array(doc["seeds"])]
    basis, index = affine.invariant_lattice(gens, seeds)
    return {"basis": [vector_to_json(r) for r in basis.rows],
            "dim": basis.dim,
            "index": None if index is None else scalar_to_str(index)}


def _cmd_affine_aut_check(doc, opts):
    import exactgroups.affine as affine
    import exactgroups.prng as prng
    import exactgroups.sl2 as sl2
    L = parse_matrix(doc["L"])
    xi = parse_vector(doc["xi"])
    if opts["count"] < 0:
        raise PreconditionError("count must be >= 0")
    bound = 4 * AUT_SAMPLE_CAP // max(L.rows, 2) ** 2
    if max(opts["count"], 1) > bound:
        raise PreconditionError(f"count too large: more than {bound} samples")
    phi = affine.affine_automorphism(L, xi)
    rng = prng.SplitMix64(opts["seed"])
    n = L.rows
    letters = _letters((sl2.S, sl2.T))
    checked = 0
    for _ in range(opts["count"]):
        x = _random_affine(rng, n, letters)
        y = _random_affine(rng, n, letters)
        if phi(x * y) != phi(x) * phi(y):
            return {"homomorphism": False, "samples": checked}
        checked += 1
    return {"homomorphism": True, "samples": checked}


def _random_affine(rng, n, letters):
    """(a, g): a drawn from [-5, 5]^n, then for n = 2 a `_walk` of six of the
    `letters` S, S^-1, T, T^-1 (for other n, g = I)."""
    import exactgroups.affine as affine
    a = tuple(rng.int_in(-5, 5) for _ in range(n))
    g = _walk(letters, rng, 6) if n == 2 else Matrix.identity(n).num
    return affine.AffineElement._trusted(a, g)


def _cmd_affine_classify(doc, opts):
    import exactgroups.affine as affine
    import exactgroups.lattice as lattice
    kind = doc.get("kind")
    if kind == "full_lattice":
        spec = parse_object(doc["lattice"])
        basis = lattice.hnf([parse_vector(r) for r in _array(spec["rows"])],
                            dim=parse_int(spec["dim"]))
        d = affine.FullLatticeSemidirect(
            basis, tuple(parse_matrix(m) for m in _array(doc["generators"])))
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


def _cmd_bruhat_decompose(doc, opts):
    import exactgroups.bruhat as bruhat
    g = parse_matrix(doc)
    fac = bruhat.bruhat_decompose(g)
    da, db = fac.det_pair()
    return {"sigma": fac.sigma,
            "A": matrix_to_json(fac.A),
            "B": matrix_to_json(fac.B),
            "det_a": scalar_to_str(da),
            "det_b": scalar_to_str(db)}


def _cmd_bruhat_cell(doc, opts):
    import exactgroups.bruhat as bruhat
    g = parse_matrix(doc)
    return {"sigma": bruhat.cell_of(g)}


def _cmd_bruhat_fact_check(doc, opts):
    import exactgroups.bruhat as bruhat
    for flag in ("count", "grid"):
        if opts[flag] < 0:
            raise PreconditionError(f"{flag} must be >= 0")
    fact, b = opts["fact"], opts["grid"]
    if fact in (1, 2):
        if opts["count"] > FACT_CASE_CAP:
            raise PreconditionError(f"count too large: more than {FACT_CASE_CAP} cases")
        holds = bruhat.fact_check(fact, seed=opts["seed"], count=opts["count"])
        return {"fact": fact, "holds": holds, "cases": opts["count"]}
    # The grid holds the integers -b..b, so a large b is refused before the
    # O(b^2) grid is built; then the case count is exact.
    too_many = PreconditionError(f"grid too large: more than {FACT_CASE_CAP} cases")
    if (2 * b) ** 3 * (2 * b + 1) ** 3 > FACT_CASE_CAP:
        raise too_many
    diag = bruhat.grid_rationals(b, nonzero=True)
    off = bruhat.grid_rationals(b)
    if len(diag) ** 3 * len(off) ** 3 > FACT_CASE_CAP:
        raise too_many
    cases = 0
    for d1, d2, d3, u12, u13, u23 in itertools.product(diag, diag, diag, off, off, off):
        g = Matrix([[d1, u12, u13], [0, d2, u23], [0, 0, d3]])
        if not bruhat.fact_check(fact, g):
            return {"fact": fact, "holds": False, "cases": cases,
                    "counterexample": matrix_to_json(g)}
        cases += 1
    return {"fact": fact, "holds": True, "cases": cases}


def _cmd_lin_hnf(doc, opts):
    import exactgroups.lattice as lattice
    rows = [parse_vector(r) for r in _array(doc["rows"])]
    basis = lattice.hnf(rows, dim=parse_int(doc["dim"]) if "dim" in doc else None)
    index = basis.index()
    return {"basis": [vector_to_json(r) for r in basis.rows],
            "dim": basis.dim,
            "rank": basis.rank,
            "index": None if index is None else scalar_to_str(index)}


def _cmd_lin_snf(doc, opts):
    import exactgroups.lattice as lattice
    m = parse_matrix(doc)
    if not m.integral:
        raise PreconditionError("Smith normal form needs an integer matrix")
    U, D, V = lattice.snf(m)
    return {"U": matrix_to_json(U), "D": matrix_to_json(D), "V": matrix_to_json(V)}


def _cmd_lin_solve(doc, opts):
    import exactgroups.lattice as lattice
    m = parse_matrix(doc["matrix"])
    b = parse_vector(doc["b"])
    x = lattice.solve_integer(m, b)
    return {"solution": None if x is None else vector_to_json(x)}


# -- wiring ----------------------------------------------------------------

_LEVEL = {"--level": dict(type=_int_flag, required=True)}
_IN = {"--in": dict(dest="infile", default=None,
                    help="input JSON document (file path or - for stdin)")}

# (group, command) -> (handler, reads a document, {flag: argparse spec}).
# Every command also takes the flags of _IN; the order here is the order of
# --help.
COMMANDS = {
    ("sl2", "classify"): (_cmd_sl2_classify, True, {}),
    ("sl2", "decompose"): (_cmd_sl2_decompose, True,
                           {"--alphabet": dict(choices=["ST", "st"], default="ST")}),
    ("sl2", "congruence"): (_cmd_sl2_congruence, True, {
        "--family": dict(choices=["gamma", "gamma0", "gamma1"], required=True),
        **_LEVEL}),
    ("cocycle", "solve-coboundary"): (_cmd_cocycle_solve_coboundary, True, {}),
    ("cocycle", "eval"): (_cmd_cocycle_eval, True, {}),
    ("cocycle", "gamma1"): (_cmd_cocycle_gamma1, True, _LEVEL),
    ("cocycle", "obstruction"): (_cmd_cocycle_obstruction, True, _LEVEL),
    ("cocycle", "central"): (_cmd_cocycle_central, True, {}),
    ("cocycle", "finf-extend"): (_cmd_cocycle_finf_extend, True, {}),
    ("affine", "icc"): (_cmd_affine_icc, True, {}),
    ("affine", "ball"): (_cmd_affine_ball, True,
                         {"--radius": dict(type=_int_flag, default=5)}),
    ("affine", "lattice"): (_cmd_affine_lattice, True, {}),
    ("affine", "aut-check"): (_cmd_affine_aut_check, True, {
        "--seed": dict(type=_int_flag, required=True),
        "--count": dict(type=_int_flag, default=100)}),
    ("affine", "classify"): (_cmd_affine_classify, True, {}),
    ("bruhat", "decompose"): (_cmd_bruhat_decompose, True, {}),
    ("bruhat", "cell"): (_cmd_bruhat_cell, True, {}),
    ("bruhat", "fact-check"): (_cmd_bruhat_fact_check, False, {
        "--fact": dict(type=_int_flag, choices=[1, 2, 3, 4], required=True),
        "--grid": dict(type=_int_flag, default=1),
        "--seed": dict(type=_int_flag, default=0),
        "--count": dict(type=_int_flag, default=50)}),
    ("lin", "hnf"): (_cmd_lin_hnf, True, {}),
    ("lin", "snf"): (_cmd_lin_snf, True, {}),
    ("lin", "solve"): (_cmd_lin_solve, True, {}),
}


# (group, command) -> {flag: (dest, type, choices, required, default)} for
# --in and each flag of the command: what _table_parse reads of the specs.
_FLAGS = {key: {flag: (spec.get("dest", flag[2:].replace("-", "_")), spec.get("type", str),
                       spec.get("choices"), spec.get("required"), spec.get("default"))
                for flag, spec in {**_IN, **flags}.items()}
          for key, (_, _, flags) in COMMANDS.items()}


def _table_parse(argv):
    """vars(_parser().parse_args(argv)) for a plain valid argv, else None.

    Plain: the (group, command) key, then only that command's flags, each
    once, as --f v or --f=v, with no value that starts with "-" other than
    "-" itself.  Each value goes through the type and choices of its spec,
    and a missing flag takes its default unless it is required."""
    flags = _FLAGS.get(tuple(argv[:2]))
    if flags is None:
        return None
    given = {}
    tokens = iter(argv[2:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, None)
        if (flag not in flags or flag in given or text is None
                or text.startswith("-") and text != "-"):
            return None
        given[flag] = text
    opts = {"group": argv[0], "command": argv[1]}
    for flag, (dest, convert, choices, required, default) in flags.items():
        if flag not in given:
            if required:
                return None
            value = default
        else:
            try:
                value = convert(given[flag])
            except Exception:   # argparse converts it again and reports it
                return None
            if choices is not None and value not in choices:
                return None
        opts[dest] = value
    return opts


@functools.cache
def _parser():
    import argparse

    class Once(argparse.Action):
        """Store the flag's value; a second occurrence in one parse is a
        usage error.  `seen` is the namespace of the last store, and each
        parse fills a new one."""
        seen = None

        def __call__(self, parser, namespace, values, option_string=None):
            if self.seen is namespace:
                raise argparse.ArgumentError(self, "given twice")
            self.seen = namespace
            setattr(namespace, self.dest, values)

    # The width COLUMNS=200 gives, at which no help or usage line wraps, and
    # no prefix abbreviations: a flag is accepted only as COMMANDS spells it.
    fixed = dict(formatter_class=functools.partial(argparse.HelpFormatter, width=198),
                 allow_abbrev=False)
    parser = argparse.ArgumentParser(prog="exactgroups", **fixed)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for (group, command), (_, _, flags) in COMMANDS.items():
        if group not in groups:
            groups[group] = top.add_parser(group, **fixed).add_subparsers(
                dest="command", required=True)
        p = groups[group].add_parser(command, **fixed)
        for flag, spec in {**_IN, **flags}.items():
            p.add_argument(flag, action=Once, **spec)
    return parser


def run(argv):
    opts = _table_parse(argv)
    if opts is None:
        try:
            opts = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    command = (opts["group"], opts["command"])
    handler, reads_doc, _ = COMMANDS[command]
    try:
        result = handler(_read_doc(opts["infile"]) if reads_doc else None, opts)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ExactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:   # a defect: still one line, never a traceback
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    doc = {"version": __version__, "command": ".".join(command)}
    doc.update(result)
    sys.stdout.write(_encode(doc) + "\n")
    return EXIT_OK


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
