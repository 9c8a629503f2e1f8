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

Integers are read on a fast path: `parse_scalar` turns a non-bool JSON
integer or a decimal string straight into an int, and `parse_matrix` reads a
rectangular list of rows of such entries in one pass into an unchecked,
integral Matrix (a row of strings at once: int() reads exactly those strings
once they are known to hold only "-" and ASCII digits).  Everything else --
a "p/q" entry, a digit string past the interpreter's int/str digit limit, a
ragged, empty or non-list row, a refused value -- falls back to the checked
path (`_checked_scalar`, `_checked_matrix`), which gives the same value or
the same InputError as it always did.  The checked path refuses a JSON
string or object where the entries list or a row belongs, which would
otherwise iterate as its characters or keys.
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
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            try:
                return int(x)
            except ValueError as exc:   # past the int/str digit limit
                raise InputError(f"bad integer: {exc}") from exc
    raise InputError(f"bad integer {x!r}: expected a JSON integer or a decimal string")


def _int(x):
    """x as an int when it is a non-bool int or a string that parse_int takes
    and the int/str digit limit allows; else None."""
    if type(x) is int:
        return x
    if type(x) is str and x.isascii() and x.lstrip("-").isdigit():
        try:
            return int(x)
        except ValueError:   # "--1", or past the int/str digit limit
            pass
    return None


def parse_scalar(s):
    x = _int(s)
    return _checked_scalar(s) if x is None else x


def _checked_scalar(s):
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
    # A declared shape that disagrees is refused by the checked path.
    rows = _int_rows(doc.get("entries")) if type(doc) is dict else None
    if rows is None or "rows" in doc and (
            (len(rows), len(rows[0])) != (doc["rows"], doc.get("cols", len(rows[0])))):
        return _checked_matrix(doc)
    return Matrix._trusted(rows, True)


def _int_rows(entries):
    """The rows of a matrix's entries as int tuples when they are a non-empty
    list of non-empty lists of one length holding integers only; else None."""
    if type(entries) is not list or not entries or type(entries[0]) is not list:
        return None
    width = len(entries[0])
    rows = []
    for row in entries:
        if type(row) is not list or len(row) != width or not width:
            return None
        try:
            text = "".join(row)
        except TypeError:   # not all strings: entry by entry
            row = tuple(map(_int, row))
            if None in row:
                return None
        else:
            # Strings of "-" and ASCII digits alone: int() takes exactly those
            # that parse_int takes and raises ValueError on the others ("",
            # "-", "1-2") and past the digit limit.
            if not (text.isascii() and text.replace("-", "").isdigit()):
                return None
            try:
                row = tuple(map(int, row))
            except ValueError:
                return None
        rows.append(row)
    return tuple(rows)


def _checked_matrix(doc):
    if not isinstance(doc, dict) or "entries" not in doc:
        raise InputError('matrix must be {"rows", "cols", "entries"}')
    entries = doc["entries"]
    try:
        m = Matrix([[_checked_scalar(x) for x in _array(row)] for row in _array(entries)])
    except Exception as exc:
        raise InputError(f"bad matrix entries: {exc}") from exc
    if "rows" in doc and (m.rows, m.cols) != (doc["rows"], doc.get("cols", m.cols)):
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
