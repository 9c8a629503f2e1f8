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

Each shape has one reader, which refuses any other value with an InputError
in its own words: `parse_object`, `_array` (of n items), `parse_vector` (n
scalars), `parse_matrix`, `parse_int`, `parse_scalar` (an int or a Fraction;
`_ratio` gives "p/q" as the pair (p, q)), `parse_index_word` (a word) and
`parse_cocycle_spec`.  Objects are decoded as `Doc`, which refuses a missing
field as `malformed input ('field')`.  `parse_matrix` reads entries in
row-major order (the first refused one names the error), refuses the shapes
Matrix() refuses and keeps int rows over the lcm of the denominators
(`matrix._over_lcm`), as `matrix_to_json` writes them: neither makes a
Fraction.  A declared "rows" or "cols" must be a JSON integer equal to it.
"""

import sys
from math import gcd

from .matrix import Matrix, PreconditionError, ShapeError, _check_shape, _over_lcm


class InputError(Exception):
    """Malformed input document."""


class Doc(dict):
    """A JSON object of an input document: a field it lacks is refused."""

    def __missing__(self, key):
        raise InputError(f"malformed input ({key!r})")


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
    by ASCII digits.  Anything else raises InputError, worded here, not by
    the interpreter, so that it reads the same under every Python."""
    if type(x) is int:   # not bool, which is an int subclass
        return x
    if isinstance(x, str) and (x.isdigit() or x.removeprefix("-").isdigit()) and x.isascii():
        try:
            return int(x)
        except ValueError:   # past the int/str digit limit
            raise InputError(f"bad integer: more than {sys.get_int_max_str_digits()} "
                             f"decimal digits") from None
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
    if type(x) is tuple:
        import fractions
        return fractions.Fraction(*x)
    return x


def vector_to_json(v):
    return [scalar_to_str(x) for x in v]


def parse_vector(doc, n=None):
    if not isinstance(doc, list):
        raise InputError("vector must be a JSON array")
    return tuple(map(parse_scalar, _array(doc, n)))


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
        m = Matrix._of(*_over_lcm(rows))
    except (InputError, ShapeError) as exc:
        raise InputError(f"bad matrix entries: {exc}") from exc
    n_rows, n_cols = doc.get("rows", m.rows), doc.get("cols", m.cols)
    if type(n_rows) is not int or type(n_cols) is not int or (n_rows, n_cols) != (m.rows, m.cols):
        raise InputError("declared shape disagrees with entries")
    return m


_KIND = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string",
         list: "array", dict: "object", Doc: "object"}


def _refuse(shape, x):
    raise InputError(f"expected a JSON {shape}, got a JSON {_KIND.get(type(x), type(x).__name__)}")


def parse_object(x):
    return x if isinstance(x, dict) else _refuse("object", x)


def _array(x, n=None):
    """x, a JSON array (of n items, when n is given), never a string or object."""
    if type(x) is not list:
        _refuse("array", x)
    if n is not None and len(x) != n:
        raise InputError(f"expected a JSON array of {n} items, got {len(x)}")
    return x


def word_to_json(word):
    return {"word": [{"gen": g, "exp": e} for g, e in word.tokens],
            "central": word.central}


def parse_index_word(doc):
    """Word over generator indices: [{"gen": i, "exp": e}, ...]."""
    return tuple((parse_int(tok["gen"]), parse_int(tok["exp"]))
                 for tok in map(parse_object, _array(doc)))


def parse_cocycle_spec(doc):
    import exactgroups.cocycle as cocycle   # here: it loads sl2
    doc = parse_object(doc)
    return cocycle.CocycleSpec(tuple(map(parse_matrix, _array(doc["generators"]))),
                               tuple(map(parse_vector, _array(doc["values"]))),
                               tuple(map(parse_index_word, _array(doc.get("relators", [])))))
