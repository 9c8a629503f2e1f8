"""Mutation fuzz gates over every CLI command.

From one valid document per `cli.COMMANDS` entry, every JSON leaf is
replaced, one at a time, by each value of MUTANTS (all of them, in a fixed
order), and then PAIRS times two leaves at once, drawn by SplitMix64 from
SEED, so every run makes the same calls.  A second sweep replaces every node
below the root, containers included, by each value of MUTANTS and SHAPES.
Each call must end with exit 0, 2 or 3; a refusal writes nothing to stdout
and exactly one `error: ` line to stderr, never the last-resort `error:
internal` line nor the interpreter's wording of an exception (INTERPRETER);
and no call may use more than CALL_CPU_S of CPU.

No document mutant is a huge integer: the size cap of `cocycle eval`
exponents is still open.  `bruhat fact-check` reads no document; its flags
are fuzzed instead, each by every value of FLAG_MUTANTS, huge integers
included, which its case cap must refuse before any work.
"""

import io
import json
import signal
import sys
import time

from exactgroups import cli
from exactgroups.prng import SplitMix64

MUTANTS = (None, True, 1.5, "", "x", "1/2", "-1", "0", "7", [], {})
SHAPES = (1, ["1"], ["1", "2", "3"], [[]], [{}], {"a": 1})
# Phrases of the interpreter's TypeError and ValueError texts, which a
# refusal worded by the program never contains.
INTERPRETER = ("object is not", "indices must be", "values to unpack", "not subscriptable",
               "not iterable")
SEED = 1
PAIRS = 40
HUGE = (str(10 ** 18), str(-10 ** 18), "1" + "0" * 4000, "9" * 5000)
FLAG_MUTANTS = ("x", "1.5", "", "1_0", "+2", "-1", "0", "7") + HUGE

CALL_CPU_S = 2.0


def mat(entries):
    return {"rows": len(entries), "cols": len(entries[0]),
            "entries": [[str(x) for x in row] for row in entries]}


HYP = mat([[1, 1], [1, 2]])
T = mat([[1, 1], [0, 1]])
G12 = mat([[1, 0], [2, 1]])
G3 = mat([[2, 1, 0], [1, 1, 0], [0, 3, 1]])

# (group, command) -> (flags, the valid document or None).
VALID = {
    ("sl2", "classify"): ([], HYP),
    ("sl2", "decompose"): (["--alphabet", "st"], HYP),
    ("sl2", "congruence"): (["--family", "gamma1", "--level", "2"], G12),
    ("cocycle", "solve-coboundary"): ([], {"c_t": ["1", "0"]}),
    ("cocycle", "eval"): ([], {"spec": {"generators": [T, G12], "values": [["1", "0"], ["0", "1"]]},
                               "word": [{"gen": 0, "exp": 3}, {"gen": 1, "exp": "-2"}]}),
    ("cocycle", "gamma1"): (["--level", "2"], G12),
    ("cocycle", "obstruction"): (["--level", "2"], G12),
    ("cocycle", "central"): ([], {"m": 2, "n": "0", "matrix": HYP}),
    ("cocycle", "finf-extend"): ([], {"n": 1, "window": [[k, 4 * k, 8 * k * k]
                                                          for k in range(-2, 3)]}),
    ("affine", "icc"): ([], HYP),
    ("affine", "ball"): (["--radius", "2"], {
        "element": {"translation": ["1", "0"], "matrix": mat([[1, 0], [0, 1]])},
        "generators": [{"translation": ["0", "1"], "matrix": HYP},
                       {"translation": ["0", "0"], "matrix": T}]}),
    ("affine", "lattice"): ([], {"generators": [mat([[0, -1], [1, 0]]), T],
                                 "seeds": [["2", "0"]]}),
    ("affine", "aut-check"): (["--seed", "1", "--count", "3"], {"L": T, "xi": ["1", "0"]}),
    ("affine", "classify"): ([], {"kind": "graph", "spec": {
        "generators": [T, G12], "values": [["1", "0"], ["0", "1"]],
        "relators": [[{"gen": 0, "exp": 1}, {"gen": 0, "exp": -1}]]}}),
    ("bruhat", "decompose"): ([], G3),
    ("bruhat", "cell"): ([], G3),
    ("bruhat", "fact-check"): (["--fact", "3", "--grid", "1"], None),
    ("lin", "hnf"): ([], {"rows": [["2", "0"], ["1", "1"]], "dim": 2}),
    ("lin", "snf"): ([], mat([[2, 4], [6, 8]])),
    ("lin", "solve"): ([], {"matrix": mat([[2, 0], [0, 3]]), "b": ["4", "9"]}),
}


def _leaves(node, path=()):
    """Paths of the non-container values of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _nodes(node, path=()):
    """Paths of every value of a JSON document below its root, containers
    included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _replaced(doc, changes):
    mutated = json.loads(json.dumps(doc))
    for path, value in changes:
        node = mutated
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutated


def _mutants(doc, rng):
    """Copies of doc with one leaf replaced, every leaf by every mutant, then
    PAIRS seeded copies with two leaves replaced."""
    paths = list(_leaves(doc))
    for path in paths:
        for value in MUTANTS:
            yield [(path, value)]
    for _ in range(PAIRS if len(paths) > 1 else 0):
        i = rng.below(len(paths))
        j = (i + 1 + rng.below(len(paths) - 1)) % len(paths)
        yield [(paths[k], MUTANTS[rng.below(len(MUTANTS))]) for k in (i, j)]


class _OverBudget(BaseException):
    """Raised from SIGPROF; not an Exception, so cli.run cannot catch it."""


def _call(argv, doc):
    """(exit, stdout, stderr, CPU seconds) of one in-process cli.run."""
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(json.dumps(doc))
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        code = cli.run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue(), time.process_time() - start
    finally:
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr


def test_every_command_has_a_valid_document():
    assert VALID.keys() == cli.COMMANDS.keys()
    for (group, command), (flags, doc) in VALID.items():
        assert (doc is not None) == cli.COMMANDS[group, command][0]
        code, out, err, _ = _call([group, command, "--in", "-"] + flags, doc)
        assert (code, err) == (0, ""), (group, command, err)
        assert json.loads(out)["command"] == f"{group}.{command}"


def _sweep(mutants):
    """Call every (group, command) of VALID that reads a document on each
    copy that mutants(doc, rng) gives of its document, check each answer,
    and return the number of calls."""
    def over_budget(signum, frame):
        raise _OverBudget
    previous = signal.signal(signal.SIGPROF, over_budget)
    rng = SplitMix64(SEED)
    calls = 0
    try:
        for (group, command), (flags, doc) in VALID.items():
            if doc is None:
                continue
            argv = [group, command, "--in", "-"] + flags
            for changes in mutants(doc, rng):
                mutated = _replaced(doc, changes)
                where = (group, command, changes)
                # A hung call is stopped a little past the bound and fails.
                signal.setitimer(signal.ITIMER_PROF, CALL_CPU_S + 1)
                try:
                    code, out, err, cpu = _call(argv, mutated)
                except _OverBudget:
                    raise AssertionError(f"over {CALL_CPU_S} s of CPU: {where}") from None
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
                calls += 1
                assert cpu <= CALL_CPU_S, where
                assert code in (0, 2, 3), where
                if code:
                    assert out == "" and err.startswith("error: "), (where, err)
                    assert err.count("\n") == 1 and err.endswith("\n"), (where, err)
                    assert not err.startswith("error: internal"), (where, err)
                    assert not any(words in err for words in INTERPRETER), (where, err)
                else:
                    assert err == "" and json.loads(out)["command"] == f"{group}.{command}", where
    finally:
        signal.signal(signal.SIGPROF, previous)
    return calls


def test_leaf_mutation_fuzz():
    assert _sweep(_mutants) > 2000


def test_subtree_mutation_fuzz():
    # Each node, an array or object included, by each value and shape: a
    # missing field, a short array, an object where an array belongs and the
    # like are each refused in the program's words.
    def subtrees(doc, rng):
        for path in _nodes(doc):
            for value in MUTANTS + SHAPES:
                yield [(path, value)]
    assert _sweep(subtrees) > 5000


def test_fact_check_flag_fuzz():
    # Facts 1 and 2 read --count, facts 3 and 4 --grid; a huge value of the
    # flag a fact reads is refused by the case cap or the sign check (exit
    # 3) or, past the int->str digit limit, as a usage error (exit 2).
    def over_budget(signum, frame):
        raise _OverBudget
    previous = signal.signal(signal.SIGPROF, over_budget)
    calls = 0
    try:
        for fact in (1, 2, 3, 4):
            flags = {"--fact": str(fact), "--seed": "1",
                     "--count" if fact < 3 else "--grid": "3" if fact < 3 else "1"}
            for flag in ("--fact", "--grid", "--seed", "--count"):
                for value in FLAG_MUTANTS:
                    argv = ["bruhat", "fact-check"] + [x for item in
                                                        dict(flags, **{flag: value}).items()
                                                        for x in item]
                    signal.setitimer(signal.ITIMER_PROF, CALL_CPU_S + 1)
                    try:
                        code, out, err, cpu = _call(argv, None)
                    except _OverBudget:
                        raise AssertionError(f"over {CALL_CPU_S} s of CPU: {argv}") from None
                    finally:
                        signal.setitimer(signal.ITIMER_PROF, 0)
                    calls += 1
                    assert cpu <= CALL_CPU_S and code in (0, 2, 3), argv
                    if code:
                        assert out == "" and "error: " in err.splitlines()[-1], (argv, err)
                        assert "error: internal" not in err, (argv, err)
                    else:
                        assert err == "" and json.loads(out)["command"] == "bruhat.fact-check"
                    reads = "--count" if fact < 3 else "--grid"
                    if flag == reads and value in HUGE:
                        assert code in (2, 3), argv
                        assert code == 2 or err.startswith(f"error: {reads[2:]} "), argv
    finally:
        signal.signal(signal.SIGPROF, previous)
    assert calls == 4 * 4 * len(FLAG_MUTANTS)
