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

Each kind of value has one reader: `parse_int` an integer field, `_ratio`
an entry (an int, or "p/q" as the pair (p, q)), `parse_scalar` an entry as
an int or a Fraction.  `parse_matrix` reads entries in row-major order (the
first refused one names the error), refuses the shapes Matrix() refuses and
keeps int rows over the lcm of the denominators, as `matrix_to_json` writes
them: neither makes a Fraction.  A JSON string or object where the entries or
a row belong is refused, as it would iterate as its characters or keys.  A
declared "rows" or "cols" must be a JSON integer equal to the shape.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from .matrix import Matrix, PreconditionError, _check_shape


class InputError(Exception):
    """Malformed input document."""


def scalar_to_str(x, d=1):
    """Decimal text of an int x over an int d >= 1, or of a Fraction x.  Past
    the int/str digit limit it raises PreconditionError (not lifted)."""
    try:
        if type(x) is not int:
            x, d = x.numerator, x.denominator
        elif d != 1:
            g = gcd(x, d)
            x, d = x // g, d // g
        return str(x) if d == 1 else f"{x}/{d}"
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


def _ratio(s):
    """An entry as an int, or a "p/q" string with |q| > 1 as the pair (p, q)."""
    if isinstance(s, str) and "/" in s:
        num, _, den = s.partition("/")
        den = parse_int(den)
        if den == 0:
            raise InputError(f"bad scalar {s!r}: zero denominator")
        return (parse_int(num), den) if den not in (1, -1) else parse_int(num) * den
    return parse_int(s)


def parse_scalar(s):
    """A matrix or vector entry as an int, or a "p/q" string as a Fraction."""
    x = _ratio(s)
    return Fraction(*x) if type(x) is tuple else x


def vector_to_json(v):
    return [scalar_to_str(x) for x in v]


def parse_vector(doc):
    if not isinstance(doc, list):
        raise InputError("vector must be a JSON array")
    return tuple(map(parse_scalar, doc))


def matrix_to_json(m):
    lam = m.lam
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_str(x, lam) for x in row] for row in m.num]}


def parse_matrix(doc):
    if not isinstance(doc, dict) or "entries" not in doc:
        raise InputError('matrix must be {"rows", "cols", "entries"}')
    try:
        rows = [tuple(map(_ratio, _array(row))) for row in _array(doc["entries"])]
        _check_shape(rows)
        lam = lcm(*[x[1] for x in sum(rows, ()) if type(x) is tuple])
        if lam != 1:   # a "p/q" entry: all as int rows over lam
            rows = [tuple([x[0] * (lam // x[1]) if type(x) is tuple else x * lam for x in row])
                    for row in rows]
        m = Matrix._of(tuple(rows), lam)
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
