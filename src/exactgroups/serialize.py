"""JSON (de)serialization shared by the CLI and the file interfaces.

All numeric payloads are decimal strings ("-12"), rationals as "p/q", so no
consumer can lose precision.  Matrices use the schema
{"rows": n, "cols": m, "entries": [["...", ...], ...]}.

On input an integer field is a JSON integer (accepted because documents such
as finf-extend windows are written with plain integers) or a string of an
optional "-" followed by one or more ASCII digits.  A scalar is an integer or
a "p/q" string of two such integers.  Every other JSON value -- a float,
true/false, null, an array, an object, or a string with spaces, underscores
or a "+" sign -- is refused with InputError rather than coerced.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .cocycle import CocycleSpec
from .matrix import Matrix, PreconditionError


class InputError(Exception):
    """Malformed input document."""


def scalar_to_str(x):
    """Decimal text of an exact scalar.  An answer past the interpreter's
    int/str digit limit raises PreconditionError; the limit is not lifted."""
    try:
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return str(int(x))
    except ValueError:
        raise PreconditionError(
            f"answer too large: an integer in it has more than "
            f"{sys.get_int_max_str_digits()} decimal digits") from None


def parse_int(x):
    """An integer field: a non-bool JSON integer, or an optional "-" followed
    by ASCII digits.  Anything else raises InputError."""
    if type(x) is int:   # not bool, which is an int subclass
        return x
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            try:
                return int(x)
            except ValueError as exc:   # past the int/str digit limit
                raise InputError(f"bad integer: {exc}") from exc
    raise InputError(f"bad integer {x!r}: expected a JSON integer or a decimal string")


def parse_scalar(s):
    if isinstance(s, str) and "/" in s:
        num, _, den = s.partition("/")
        den = parse_int(den)
        if den == 0:
            raise InputError(f"bad scalar {s!r}: zero denominator")
        return Fraction(parse_int(num), den)
    return parse_int(s)


def vector_to_json(v):
    return [scalar_to_str(x) for x in v]


def parse_vector(doc):
    if not isinstance(doc, list):
        raise InputError("vector must be a JSON array")
    return tuple(parse_scalar(x) for x in doc)


def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_str(x) for x in row] for row in m.data]}


def parse_matrix(doc):
    if not isinstance(doc, dict) or "entries" not in doc:
        raise InputError('matrix must be {"rows", "cols", "entries"}')
    entries = doc["entries"]
    try:
        m = Matrix([[parse_scalar(x) for x in row] for row in entries])
    except Exception as exc:
        raise InputError(f"bad matrix entries: {exc}") from exc
    if "rows" in doc and (m.rows, m.cols) != (doc["rows"], doc.get("cols", m.cols)):
        raise InputError("declared shape disagrees with entries")
    return m


def word_to_json(word):
    return {"word": [{"gen": g, "exp": e} for g, e in word.tokens],
            "central": word.central}


def parse_index_word(doc):
    """Word over generator indices: [{"gen": i, "exp": e}, ...]."""
    if not isinstance(doc, list):
        raise InputError("word must be a JSON array")
    out = []
    for tok in doc:
        try:
            out.append((parse_int(tok["gen"]), parse_int(tok["exp"])))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad word token {tok!r}") from exc
    return tuple(out)


def parse_cocycle_spec(doc):
    if not isinstance(doc, dict):
        raise InputError("cocycle spec must be a JSON object")
    try:
        gens = tuple(parse_matrix(m) for m in doc["generators"])
        values = tuple(parse_vector(v) for v in doc["values"])
    except KeyError as exc:
        raise InputError(f"cocycle spec missing key {exc}") from exc
    relators = tuple(parse_index_word(w) for w in doc.get("relators", []))
    return CocycleSpec(generators=gens, values=values, relators=relators)
