"""Deterministic command-line interface with JSON input and output.

Every invocation reads at most one JSON document (--in FILE, or "-" for
stdin), writes exactly one JSON document to stdout and diagnostics to
stderr.  Identical argv + input produce byte-identical output.

One table, COMMANDS, maps each (group, command) to whether it reads a
document and to its flags as argparse specs; every command also takes
--in.  run() first parses argv from the table alone (_table_parse): the
(group, command) key, then only that command's flags, each once, as --f v
or --f=v.  Any other argv -- help, an abbreviated, unknown or repeated
flag, a missing or bad value -- goes to the argparse parser built from the
same table, so help texts, usage messages and their exit codes are
argparse's; that parser too refuses a flag given twice, with a usage error
(exit 2).  argparse is imported and the parser built only then, once per
process, and help is formatted at a fixed width, not the terminal's.

run() reads the document only for commands that take one, refuses any but
a JSON object, and calls the handler as a pure function handler(doc, opts)
-> dict, where opts maps each flag to its value.  Handlers read each field
through a serialize reader (object, array, vector, matrix, int, scalar,
word, cocycle spec), which refuses a malformed field in the program's
words, naming its shape.  Integer flags follow the integer rule of the
input documents (serialize.parse_int).

The handlers of a group live in the module exactgroups.cli_<group>, which
names them in HANDLERS.  run() imports it on the group's first call and
caches each handler it resolves (_handler).  A group module imports its
group's library module when it loads; a handler imports only what its own
command needs beyond that.  No group module imports this one, which
`python -m exactgroups.cli` would then compile twice, and `fractions` is
imported only where a Fraction is made or tested.  So a call loads this
module, one group module and the library modules its command calls, and an
int-only document loads neither `fractions` nor `decimal`.

Exit codes: 0 success (a false predicate result is data, not an error); 2
malformed input; 3 precondition violation, or a defect (`error: internal`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys

from . import __version__
from .matrix import ExactError
from .serialize import Doc, InputError, parse_int

# json.dumps(doc, sort_keys=True, separators=(",", ":")), and a document
# decoder (objects as Doc, integers by parse_int), each built once.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode = json.JSONDecoder(object_hook=Doc, parse_int=parse_int).decode

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


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


# -- wiring ----------------------------------------------------------------

_LEVEL = {"--level": dict(type=_int_flag, required=True)}
_IN = {"--in": dict(dest="infile", default=None,
                    help="input JSON document (file path or - for stdin)")}

# (group, command) -> (reads a document, {flag: argparse spec}).  The
# handler is HANDLERS[command] of the module exactgroups.cli_<group>.  Every
# command also takes the flags of _IN; the order here is the order of --help.
COMMANDS = {
    ("sl2", "classify"): (True, {}),
    ("sl2", "decompose"): (True, {"--alphabet": dict(choices=["ST", "st"], default="ST")}),
    ("sl2", "congruence"): (True, {
        "--family": dict(choices=["gamma", "gamma0", "gamma1"], required=True),
        **_LEVEL}),
    ("cocycle", "solve-coboundary"): (True, {}),
    ("cocycle", "eval"): (True, {}),
    ("cocycle", "gamma1"): (True, _LEVEL),
    ("cocycle", "obstruction"): (True, _LEVEL),
    ("cocycle", "central"): (True, {}),
    ("cocycle", "finf-extend"): (True, {}),
    ("affine", "icc"): (True, {}),
    ("affine", "ball"): (True, {"--radius": dict(type=_int_flag, default=5)}),
    ("affine", "lattice"): (True, {}),
    ("affine", "aut-check"): (True, {
        "--seed": dict(type=_int_flag, required=True),
        "--count": dict(type=_int_flag, default=100)}),
    ("affine", "classify"): (True, {}),
    ("bruhat", "decompose"): (True, {}),
    ("bruhat", "cell"): (True, {}),
    ("bruhat", "fact-check"): (False, {
        "--fact": dict(type=_int_flag, choices=[1, 2, 3, 4], required=True),
        "--grid": dict(type=_int_flag, default=1),
        "--seed": dict(type=_int_flag, default=0),
        "--count": dict(type=_int_flag, default=50)}),
    ("lin", "hnf"): (True, {}),
    ("lin", "snf"): (True, {}),
    ("lin", "solve"): (True, {}),
}


# (group, command) -> {flag: (dest, type, choices, required, default)} for
# --in and each flag of the command: what _table_parse reads of the specs.
_FLAGS = {key: {flag: (spec.get("dest", flag[2:].replace("-", "_")), spec.get("type", str),
                       spec.get("choices"), spec.get("required"), spec.get("default"))
                for flag, spec in {**_IN, **flags}.items()}
          for key, (_, flags) in COMMANDS.items()}


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
    for (group, command), (_, flags) in COMMANDS.items():
        if group not in groups:
            groups[group] = top.add_parser(group, **fixed).add_subparsers(
                dest="command", required=True)
        p = groups[group].add_parser(command, **fixed)
        for flag, spec in {**_IN, **flags}.items():
            p.add_argument(flag, action=Once, **spec)
    return parser


@functools.cache
def _handler(command):
    """The handler of (group, command), from the HANDLERS of the module
    exactgroups.cli_<group>, which the group's first call imports."""
    group, name = command
    return importlib.import_module(f"exactgroups.cli_{group}").HANDLERS[name]


def run(argv):
    opts = _table_parse(argv)
    if opts is None:
        try:
            opts = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    command = (opts["group"], opts["command"])
    reads_doc, _ = COMMANDS[command]
    try:
        result = _handler(command)(_read_doc(opts["infile"]) if reads_doc else None, opts)
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
