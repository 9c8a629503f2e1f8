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

Each kind of value has one reader.  `parse_int` reads an integer field and
`parse_scalar` a matrix or vector entry.  `parse_matrix` reads the entries
one by one with `parse_scalar`, so the first refused entry in row-major
order names the error.  A non-empty rectangular result of ints becomes
an integral Matrix with no second check; anything else goes through the
Matrix constructor, which refuses ragged and empty shapes.  A JSON string or
object where the entries list or a row belongs is refused, as it would
otherwise iterate as its characters or keys.  A declared "rows" or "cols"
must be a JSON integer equal to the entries' shape.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .matrix import Matrix, PreconditionError


class InputError(Exception):
    """Malformed input document."""


def scalar_to_str(x):
    """Decimal text of an exact scalar.  An answer past the interpreter's
    int/str digit limit raises PreconditionError; the limit is not lifted."""
    try:
        if type(x) is int:
            return str(x)
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
    if isinstance(x, str) and (x.isdigit() or x.removeprefix("-").isdigit()) and x.isascii():
        try:
            return int(x)
        except ValueError as exc:   # past the int/str digit limit
            raise InputError(f"bad integer: {exc}") from exc
    raise InputError(f"bad integer {x!r}: expected a JSON integer or a decimal string")


def parse_scalar(s):
    """A matrix or vector entry: an integer field, or a "p/q" string of two
    of them with q != 0, read as a Fraction."""
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
    return tuple(map(parse_scalar, doc))


def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_str(x) for x in row] for row in m.data]}


def parse_matrix(doc):
    if not isinstance(doc, dict) or "entries" not in doc:
        raise InputError('matrix must be {"rows", "cols", "entries"}')
    try:
        rows, integral = [], True
        for row in _array(doc["entries"]):
            row = tuple(map(parse_scalar, _array(row)))
            integral = integral and Fraction not in map(type, row)
            rows.append(row)
        if integral and len(set(map(len, rows))) == 1 and rows[0]:
            m = Matrix._trusted(tuple(rows), True)
        else:   # a p/q entry, which Matrix normalizes, or a shape it refuses
            m = Matrix(rows)
    except Exception as exc:
        raise InputError(f"bad matrix entries: {exc}") from exc
    n_rows, n_cols = doc.get("rows", m.rows), doc.get("cols", m.cols)
    if type(n_rows) is not int or type(n_cols) is not int or (n_rows, n_cols) != (m.rows, m.cols):
        raise InputError("declared shape disagrees with entries")
    return m


def _array(x):
    """x, refused when it is a JSON string or object: those iterate as their
    characters or keys, so ["12", "34"] would read as [[1, 2], [3, 4]]."""
    if isinstance(x, (str, dict)):
        kind = "string" if isinstance(x, str) else "object"
        raise InputError(f"expected a JSON array, got a JSON {kind}")
    return x


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
    import exactgroups.cocycle as cocycle   # here: it loads sl2
    if not isinstance(doc, dict):
        raise InputError("cocycle spec must be a JSON object")
    try:
        gens = tuple(parse_matrix(m) for m in doc["generators"])
        values = tuple(parse_vector(v) for v in doc["values"])
    except KeyError as exc:
        raise InputError(f"cocycle spec missing key {exc}") from exc
    relators = tuple(parse_index_word(w) for w in doc.get("relators", []))
    return cocycle.CocycleSpec(generators=gens, values=values, relators=relators)
