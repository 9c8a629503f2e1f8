"""Generate, or replay, the committed corpus of CLI requests and answers.

Each line of tests/data/cli_corpus.jsonl is one request to `cli.run` and what
it gave back: {"argv", "stdin", "exit", "stdout", "stderr"}, with stdin null
for a command that reads no document.  The requests cover every
`cli.COMMANDS` entry:

  * seeded valid documents;
  * malformed documents: fixed bad texts, seeded leaf mutations of a valid
    document, and a missing --in;
  * help and usage argv for the top level, each group and each command;
  * the refused side of each work cap, and the accepted side only where it
    runs in milliseconds.

Every input comes from SplitMix64(SEED) or is written out below, using plain
integers only, so the file depends on this script and on the package's
answers alone.  The file reads the same under every supported Python: two
texts that the interpreter writes into stderr differ between versions and
are stored in one form (see `portable`).

    PYTHONPATH=src python tests/cli_corpus.py            rewrite the corpus
    PYTHONPATH=src python tests/cli_corpus.py --replay [K]
        answer every K-th corpus request again (default every one) and print
        each answer as a corpus line, for a diff against the file
"""

import io
import itertools
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from exactgroups import cli
from exactgroups.prng import SplitMix64

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.jsonl"
SEED = 2024
VALID_PER_COMMAND = 12
MUTATIONS_PER_COMMAND = 8

BAD_DOCUMENTS = ("", "{not json", "[]", "null", "{}", '"x"', "3", '{"entries": 5}',
                 "[[1]]", '{"rows": 2, "entries": [["1"')
MUTANTS = (None, True, 1.5, "", "x", "1/2", "-1", "0", "7", [], {})

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))
I2 = ((1, 0), (0, 1))


# -- plain-integer inputs ----------------------------------------------------

def mat(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(x) for x in row] for row in rows]}


def vec(v):
    return [str(x) for x in v]


def mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def power(g, e):
    """g^e for a 2x2 integer g of det 1 (e < 0 through the adjugate)."""
    if e < 0:
        (a, b), (c, d) = g
        g, e = ((d, -b), (-c, a)), -e
    out = I2
    for _ in range(e):
        out = mul(out, g)
    return out


def sl2(rng, length, max_exp=2):
    """A product of `length` powers of S and T."""
    g = I2
    for _ in range(length):
        g = mul(g, power(S if rng.below(2) else T, rng.int_in(-max_exp, max_exp)))
    return g


def infinite_order(rng):
    g = I2
    while abs(g[0][0] + g[1][1]) <= 2:
        g = sl2(rng, rng.int_in(2, 5))
    return g


def unimodular(rng, n, steps):
    """det +-1: `steps` random column operations on I, then a flipped column
    half the time."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.below(n), rng.below(n)
        if i != j:
            v = rng.int_in(-2, 2)
            for row in m:
                row[j] += v * row[i]
    if rng.below(2):
        for row in m:
            row[0] = -row[0]
    return tuple(map(tuple, m))


def scalar(rng):
    """An entry of a rational 3x3 matrix: mostly small integers."""
    if rng.below(4):
        return rng.int_in(-3, 3)
    return Fraction(rng.int_in(-3, 3), rng.int_in(1, 3))


def rational3(rng):
    rows = [[scalar(rng) for _ in range(3)] for _ in range(3)]
    return {"rows": 3, "cols": 3, "entries": [[str(x) for x in row] for row in rows]}


def coboundary_window(rng):
    """Values xi - g_k xi of a coboundary on g_k = [[1-4k, 2], [-8k^2, 1+4k]],
    |k| <= r, one of them perturbed half the time."""
    x, y, r = rng.int_in(-5, 5), rng.int_in(-5, 5), rng.int_in(1, 3)
    window = [[k, 4 * k * x - 2 * y, 8 * k * k * x - 4 * k * y] for k in range(-r, r + 1)]
    if rng.below(2):
        window[rng.below(len(window))][1] += 1
    return window


def affine_doc(rng, g):
    return {"translation": vec((rng.int_in(-3, 3), rng.int_in(-3, 3))), "matrix": mat(g)}


# -- valid requests: (flags, document) per command ----------------------------

def valid(rng, group, command):
    key = (group, command)
    if key == ("sl2", "classify"):
        return [], mat(sl2(rng, rng.int_in(1, 5)))
    if key == ("sl2", "decompose"):
        return ["--alphabet", ("ST", "st")[rng.below(2)]], mat(sl2(rng, rng.int_in(1, 6)))
    if key == ("sl2", "congruence"):
        family = ("gamma", "gamma0", "gamma1")[rng.below(3)]
        return (["--family", family, "--level", str(rng.int_in(1, 6))],
                mat(sl2(rng, rng.int_in(1, 5))))
    if key == ("cocycle", "solve-coboundary"):
        return [], {"c_t": vec((rng.int_in(-9, 9), rng.int_in(-9, 9)))}
    if key == ("cocycle", "eval"):
        word = [{"gen": rng.below(2), "exp": rng.int_in(-6, 6)} for _ in range(rng.int_in(1, 3))]
        values = [vec((rng.int_in(-4, 4), rng.int_in(-4, 4))) for _ in range(2)]
        return [], {"spec": {"generators": [mat(S), mat(T)], "values": values}, "word": word}
    if key == ("cocycle", "gamma1"):
        level = rng.int_in(2, 6)
        g = I2
        for _ in range(rng.int_in(1, 3)):
            e = rng.int_in(-2, 2)
            g = mul(g, ((1, e), (0, 1)) if rng.below(2) else ((1, 0), (level * e, 1)))
        return ["--level", str(level)], mat(g)
    if key == ("cocycle", "obstruction"):
        return ["--level", str(rng.int_in(1, 6))], mat(sl2(rng, rng.int_in(1, 5)))
    if key == ("cocycle", "central"):
        return [], {"m": str(rng.int_in(-3, 3)), "n": rng.int_in(-3, 3),
                    "matrix": mat(sl2(rng, rng.int_in(1, 5)))}
    if key == ("cocycle", "finf-extend"):
        return [], {"n": rng.int_in(1, 2) * (1 if rng.below(2) else -1),
                    "window": coboundary_window(rng)}
    if key == ("affine", "icc"):
        return [], mat(infinite_order(rng) if rng.below(4) else sl2(rng, 2))
    if key == ("affine", "ball"):
        gens = [affine_doc(rng, sl2(rng, rng.int_in(1, 3))) for _ in range(rng.int_in(1, 2))]
        return (["--radius", str(rng.int_in(0, 3))],
                {"element": affine_doc(rng, I2), "generators": gens})
    if key == ("affine", "lattice"):
        n = rng.int_in(2, 3)
        gens = [mat(unimodular(rng, n, 3)) for _ in range(rng.int_in(1, 2))]
        return [], {"generators": gens, "seeds": [vec(rng.int_in(-6, 6) for _ in range(n))]}
    if key == ("affine", "aut-check"):
        n = rng.int_in(2, 3)
        return (["--seed", str(rng.below(100)), "--count", str(rng.int_in(0, 4))],
                {"L": mat(unimodular(rng, n, 4)), "xi": vec(rng.int_in(-4, 4) for _ in range(n))})
    if key == ("affine", "classify"):
        kind = rng.below(3)
        if kind == 0:
            return [], {"kind": "cyclic_linear", "matrix": mat(sl2(rng, rng.int_in(1, 4))),
                        "with_minus_identity": bool(rng.below(2))}
        if kind == 1:
            rows = [vec((rng.int_in(1, 3), 0)), vec((0, rng.int_in(1, 3)))]
            return [], {"kind": "full_lattice", "lattice": {"rows": rows, "dim": 2},
                        "generators": [mat(sl2(rng, 2)) for _ in range(rng.int_in(1, 2))]}
        level = rng.int_in(2, 4)
        gens = [((1, 1), (0, 1)), ((1, 0), (level, 1))]
        values = [vec((rng.int_in(-2, 2), rng.int_in(-2, 2))) for _ in gens]
        return [], {"kind": "graph", "spec": {"generators": [mat(g) for g in gens],
                                              "values": values}}
    if key in (("bruhat", "decompose"), ("bruhat", "cell")):
        return [], rational3(rng)
    if key == ("bruhat", "fact-check"):
        fact = rng.int_in(1, 4)
        if fact <= 2:
            return ["--fact", str(fact), "--seed", str(rng.below(100)),
                    "--count", str(rng.int_in(0, 6))], None
        return ["--fact", str(fact), "--grid", str(rng.int_in(0, 1))], None
    if key == ("lin", "hnf"):
        dim = rng.int_in(1, 4)
        rows = [vec(rng.int_in(-9, 9) for _ in range(dim)) for _ in range(rng.int_in(0, 4))]
        return [], {"rows": rows, "dim": dim}
    if key == ("lin", "snf"):
        n, m = rng.int_in(1, 3), rng.int_in(1, 3)
        return [], mat([[rng.int_in(-9, 9) for _ in range(m)] for _ in range(n)])
    if key == ("lin", "solve"):
        n = rng.int_in(2, 3)
        return [], {"matrix": mat([[rng.int_in(-5, 5) for _ in range(n)] for _ in range(n)]),
                    "b": vec(rng.int_in(-6, 6) for _ in range(n))}
    raise KeyError(key)


# -- malformed documents --------------------------------------------------------

def leaves(node, path=()):
    """Paths of the non-container values of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield path
        return
    for key, child in items:
        yield from leaves(child, path + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# -- the requests ---------------------------------------------------------------

def request(argv, doc=None, text=None):
    """(argv, stdin) of one request: a document, or a raw text, goes in on
    stdin through `--in -`."""
    if doc is not None:
        text = json.dumps(doc)
    return (argv + ["--in", "-"], text) if text is not None else (argv, None)


def requests():
    """(argv, stdin) of every corpus request, in corpus order."""
    rng = SplitMix64(SEED)
    out = []

    def ask(argv, doc=None, text=None):
        out.append(request(argv, doc, text))

    for (group, command), (_, reads_doc, flags) in cli.COMMANDS.items():
        prefix = [group, command]
        for _ in range(VALID_PER_COMMAND):
            argv, doc = valid(rng, group, command)
            ask(prefix + argv, doc)
        if reads_doc:
            argv, doc = valid(rng, group, command)
            for text in BAD_DOCUMENTS:
                ask(prefix + argv, text=text)
            ask(prefix + argv)   # no --in
            paths = list(leaves(doc))
            for _ in range(MUTATIONS_PER_COMMAND):
                path = paths[rng.below(len(paths))]
                ask(prefix + argv, mutated(doc, path, MUTANTS[rng.below(len(MUTANTS))]))
        # Help and usage: help, an unknown flag, --in without a value, and a
        # bad value for each flag.
        ask(prefix + ["-h"])
        ask(prefix + ["--help"])
        ask(prefix + ["--nope", "1"])
        ask(prefix + ["--in"])
        for flag in flags:
            ask(prefix + [flag, "x"])
            ask(prefix + [flag])
        if any(spec.get("required") for spec in flags.values()):
            ask(prefix)   # required flags left out
    for group in dict.fromkeys(group for group, _ in cli.COMMANDS):
        ask([group])
        ask([group, "-h"])
        ask([group, "nope"])
    for argv in ([], ["-h"], ["--help"], ["nope"], ["--nope"], ["--in", "-"]):
        ask(argv)

    out.extend(edge_requests())
    return out


def edge_requests():
    """Both sides of the work caps and of the other size refusals, and inputs
    that seeded documents rarely reach."""
    reqs = []

    def ask(argv, doc=None):
        reqs.append(request(argv, doc))

    two = {"element": {"translation": ["1", "0"], "matrix": mat(I2)},
           "generators": [{"translation": ["0", "1"], "matrix": mat(S)},
                          {"translation": ["0", "0"], "matrix": mat(T)}]}
    one = dict(two, generators=two["generators"][1:])
    three = dict(two, generators=two["generators"] + [{"translation": ["1", "1"],
                                                       "matrix": mat(((2, 1), (1, 1)))}])
    # affine ball: 1 + 2k((2k-1)^r - 1)/(2k-2) reduced words, at most 120,000.
    for doc, radius in ((two, 4), (two, 11), (one, 60), (one, 60000), (three, 3), (three, 8),
                        (two, 10 ** 9), (two, -1)):
        ask(["affine", "ball", "--radius", str(radius)], doc)
    # sl2 decompose --alphabet st: 2|e| letters for T^e, at most 1,000,000.
    for e in (3, -40, 500001, -500001, 10 ** 30):
        ask(["sl2", "decompose", "--alphabet", "st"], mat(((1, e), (0, 1))))
    ask(["sl2", "decompose", "--alphabet", "ST"], mat(((1, 10 ** 30), (0, 1))))
    # bruhat fact-check: at most 100,000 cases.
    for fact in (1, 2):
        for count in (100001, 10 ** 9, -1):
            ask(["bruhat", "fact-check", "--fact", str(fact), "--count", str(count)])
    for fact in (3, 4):
        for grid in (3, 10 ** 9, -1):
            ask(["bruhat", "fact-check", "--fact", str(fact), "--grid", str(grid)])
    ask(["bruhat", "fact-check", "--fact", "1", "--in", "/nonexistent"])
    # affine aut-check: the sample cap, for a 2x2 L and for larger ones.
    for count in (5001, 10 ** 9, -1):
        ask(["affine", "aut-check", "--seed", "1", "--count", str(count)],
            {"L": mat(T), "xi": ["1", "-2"]})
    rng = SplitMix64(SEED + 1)
    for n, count in ((10, 201), (20, 51)):
        ask(["affine", "aut-check", "--seed", "2", "--count", str(count)],
            {"L": mat(unimodular(rng, n, 2 * n)), "xi": vec(range(n))})
    # affine icc on det -1: finite and infinite order.
    for g in (((0, 1), (1, 0)), ((1, 1), (0, -1)), ((1, 1), (1, 0)), ((2, 1), (1, 0)),
              ((0, 1), (1, 3)), ((-1, 1), (1, 0))):
        ask(["affine", "icc"], mat(g))
    # cocycle eval: an answer past the 4,300-digit limit, and a huge T power.
    hyp = {"generators": [mat(((2, 1), (1, 1))), mat(T)], "values": [["1", "0"], ["0", "1"]]}
    for gen, exp in ((0, 12000), (1, 10 ** 8)):
        ask(["cocycle", "eval"], {"spec": hyp, "word": [{"gen": gen, "exp": exp}]})
    # bruhat cell and decompose: b p b' in each of the six Bruhat cells.
    b, b2 = ((1, 2, -1), (0, 1, 3), (0, 0, 2)), ((2, 0, 1), (0, -1, 1), (0, 0, 1))
    for sigma in itertools.permutations(range(3)):
        p = tuple(tuple(int(sigma[j] == i) for j in range(3)) for i in range(3))
        for command in ("cell", "decompose"):
            ask(["bruhat", command], mat(mul(mul(b, p), b2)))
    return reqs


# -- answering ------------------------------------------------------------------

def portable(stderr):
    """stderr with its interpreter-dependent texts in one form: argparse lists
    a flag's choices with repr() in older releases and with str() in later
    3.12 and 3.13 ones, and Python 3.10 words a TypeError on string indices
    without the index type."""
    stderr = re.sub(r"\(choose from [^)]*\)", lambda m: m[0].replace("'", ""), stderr)
    return stderr.replace("string indices must be integers, not 'str'",
                          "string indices must be integers")


def answer(argv, stdin):
    """The corpus record of one request, answered in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO("" if stdin is None else stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin, "exit": code,
            "stdout": out.getvalue(), "stderr": portable(err.getvalue())}


def dumps(record):
    return json.dumps(record, separators=(",", ":"))


def main(args):
    if args[:1] == ["--replay"]:
        stride = int(args[1]) if len(args) > 1 else 1
        lines = CORPUS.read_text(encoding="utf-8").splitlines()[::stride]
        for line in lines:
            record = json.loads(line)
            print(dumps(answer(record["argv"], record["stdin"])))
        return 0
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as fh:
        for argv, stdin in requests():
            fh.write(dumps(answer(argv, stdin)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
