"""Differential test of the table parse that `cli.run` tries before argparse.

For the argv of every request of the committed CLI corpus, and for
MUTANTS_PER_ARGV seeded mutations of each, `cli._table_parse` must either
decline (None) or give exactly the opts of the argparse parser.  Each
mutation drops, inserts or replaces a token, or shuffles the tokens after
the command, one to three times, drawn by SplitMix64 from SEED.  Inserted and replacing tokens come from
ODD_TOKENS, from the flags of every command, from the argv itself, and from
--flag=value tokens of the argv's own command, so repeated flags, flags of
another command and bad values all occur.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from exactgroups import cli
from exactgroups.prng import SplitMix64
from tests import cli_corpus

SEED = 7
MUTANTS_PER_ARGV = 20
ODD_TOKENS = ("--lev", "-h", "--", "--level=-2", "--in=", "-3", " 7", "+5", "0x10", "1_0",
              "\u0663", "-", "", "7", "gamma2")
VALUES = ("0", "2", "3", "7", "-1", "st", "gamma", "x", "-", "0x10")
ALL_FLAGS = sorted({"--in"}.union(*(flags for _, flags in cli.COMMANDS.values())))


def argparse_opts(argv):
    """vars() of the argparse parse of argv, or None where argparse exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli._parser().parse_args(argv))
    except SystemExit:
        return None


def mutated(rng, argv):
    argv = list(argv)
    entry = cli.COMMANDS.get(tuple(argv[:2]))
    own = ["--in"] + list(entry[1] if entry else ())
    pool = (list(ODD_TOKENS) + ALL_FLAGS + argv
            + [f"{flag}={value}" for flag in own for value in VALUES])
    for _ in range(1 + rng.below(3)):
        op, at = rng.below(4), rng.below(len(argv) + 1)
        if op == 0 and at < len(argv):
            del argv[at]
        elif op == 1:
            argv.insert(at, pool[rng.below(len(pool))])
        elif op == 2 and at < len(argv):
            argv[at] = pool[rng.below(len(pool))]
        elif op == 3:
            tail = argv[2:]
            for i in range(len(tail) - 1, 0, -1):
                j = rng.below(i + 1)
                tail[i], tail[j] = tail[j], tail[i]
            argv[2:] = tail
    return argv


def test_table_parse_agrees_with_argparse():
    rng = SplitMix64(SEED)
    records = [json.loads(line)
               for line in cli_corpus.CORPUS.read_text(encoding="utf-8").splitlines()]
    argvs = [r["argv"] for r in records]
    mutants = [mutated(rng, argv) for argv in argvs for _ in range(MUTANTS_PER_ARGV)]
    for argv in argvs + mutants:
        fast = cli._table_parse(argv)
        if fast is not None:
            assert fast == argparse_opts(argv), argv
    # The table parse takes every argv that the corpus answers with a JSON
    # document, and some mutants too, such as those with shuffled flags.
    for r in records:
        if r["exit"] == 0 and r["stdout"].startswith("{"):
            assert cli._table_parse(r["argv"]) is not None, r["argv"]
    assert any(cli._table_parse(argv) is not None for argv in mutants)


def test_fact_check_keeps_in():
    # bruhat fact-check reads no document, yet takes --in as every command
    # does (the benchmark's requests send it), on both paths alike.
    expected = {"group": "bruhat", "command": "fact-check", "infile": "-",
                "fact": 1, "grid": 1, "seed": 0, "count": 50}
    for argv in (["bruhat", "fact-check", "--fact", "1", "--in", "-"],
                 ["bruhat", "fact-check", "--in=-", "--fact=1"]):
        assert cli._table_parse(argv) == argparse_opts(argv) == expected
