"""Differential test of the one-pass readers of `serialize`.

`parse_scalar`, `parse_vector` and `parse_matrix` each read their value in
one pass.  The reference is a test-local copy of the old checked readers,
which read every entry through the integer rule and built the Matrix through
its constructor.  Over a fixed list of JSON leaves and shapes, each reader
must give what the reference gives: the same value, the same entry types and
`Matrix.integral` flag, or the same InputError message.
"""

import io
import json
import sys
from fractions import Fraction
from unittest import mock

import pytest

from exactgroups import cli
from exactgroups.matrix import Matrix
from exactgroups.serialize import InputError, parse_matrix, parse_scalar, parse_vector

LIMIT = sys.get_int_max_str_digits()
LONG = [sign + "9" * digits for digits in (LIMIT - 1, LIMIT, LIMIT + 1) for sign in ("", "-")]

LEAVES = ["0", "5", "-12", "-0", "007", "-007", "+1", " 1", "1 ", "1_0", "1.5", "", "-",
          "--1", "1-", "1-2", "0x10", "٣", "x", 1.5, 2.0, True, False, None, [], {},
          0, 7, -3, "4/2", "1/0", "-3/6", "1/2", "-4/-2", "1/+2", "/2", "2/", *LONG]

ROWS = [[["1", "0"], ["0", "1"]], [[2, "1"], ["1", 1]], [[1, 0], [0, 1]],
        [["1"], ["0", "1"]], [["1", "0"], ["1"]], [[]], [[], []], [], ["12", "3"],
        [["1", "2"], "34"], [{"1": 0}], [("1",)], [["1"], 5], [["1"], None], "12",
        {"12": 0}, None, 5, [["0", 1], [2, 3]], [[1, "0"], ["2", 3]],
        [["1", "0"], ["1", "x"], ["2"]], [["1"], ["0", "1"], ["1/0"]], [[], ["x"]],
        [[1, LONG[2]], [0, 1]], [["1", "0"], [LONG[2], "1"]], [["1", "0"], ["0", "1/2"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-3/4"]], [["1", "2"], ["--1", "3"]],
        [["1", ""], ["0", "1"]], [["-", "1"], ["0", "1"]]]


# Test-local copy of the old checked readers, with the declared-shape check
# that parse_matrix now makes: "rows" and "cols" each, when present, a
# non-bool int equal to the entries' shape; and the array check, with its
# own wording of a refusal.

def checked_int(x):
    if type(x) is int:
        return x
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            try:
                return int(x)
            except ValueError:
                raise InputError(f"bad integer: more than {LIMIT} decimal digits") from None
    raise InputError(f"bad integer {x!r}: expected a JSON integer or a decimal string")


def checked_scalar(s):
    if isinstance(s, str) and "/" in s:
        num, _, den = s.partition("/")
        den = checked_int(den)
        if den == 0:
            raise InputError(f"bad scalar {s!r}: zero denominator")
        return Fraction(checked_int(num), den)
    return checked_int(s)


def checked_array(x):
    if type(x) is not list:
        kind = {type(None): "null", bool: "boolean", int: "number", float: "number",
                str: "string", dict: "object"}.get(type(x), type(x).__name__)
        raise InputError(f"expected a JSON array, got a JSON {kind}")
    return x


def checked_matrix(doc):
    if not isinstance(doc, dict) or "entries" not in doc:
        raise InputError('matrix must be {"rows", "cols", "entries"}')
    entries = doc["entries"]
    try:
        m = Matrix([[checked_scalar(x) for x in checked_array(row)]
                    for row in checked_array(entries)])
    except Exception as exc:
        raise InputError(f"bad matrix entries: {exc}") from exc
    for key, size in (("rows", m.rows), ("cols", m.cols)):
        if key in doc and (type(doc[key]) is not int or doc[key] != size):
            raise InputError("declared shape disagrees with entries")
    return m


def checked_vector(doc):
    if not isinstance(doc, list):
        raise InputError("vector must be a JSON array")
    return tuple(checked_scalar(x) for x in doc)


def typed(value):
    if isinstance(value, Matrix):
        return ("Matrix", value.rows, value.cols, typed(value.data), value.integral)
    if isinstance(value, tuple):
        return tuple(typed(x) for x in value)
    return (type(value), value)


def outcome(parse, doc):
    try:
        return typed(parse(doc))
    except Exception as exc:
        return (type(exc), str(exc))


def assert_same(parse, checked, doc):
    got, want = outcome(parse, doc), outcome(checked, doc)
    assert got == want, (doc, got, want)
    return want


def test_scalars_and_vectors_match_the_checked_path():
    refused = 0
    for leaf in LEAVES:
        if assert_same(parse_scalar, checked_scalar, leaf)[0] is InputError:
            refused += 1
        for doc in ([leaf], [leaf, "1"], ["-2", leaf, 3]):
            assert_same(parse_vector, checked_vector, doc)
    for doc in ("12", None, {}, {"0": "1"}, 3):
        assert_same(parse_vector, checked_vector, doc)
    assert refused > len(LEAVES) // 2
    # Ints as given, and every digit string that the int/str limit allows.
    assert parse_scalar("-0") == 0 and type(parse_scalar("007")) is int
    assert type(parse_scalar("4/2")) is not int and parse_scalar("4/2") == 2
    assert parse_scalar(LONG[3]) == -int(LONG[2])
    with pytest.raises(InputError, match=f"^bad integer: more than {LIMIT} decimal digits$"):
        parse_scalar(LONG[4])


def test_matrices_match_the_checked_path():
    docs = []
    for leaf in LEAVES:
        for rows in ([[leaf]], [[leaf, "1"], ["0", "2"]], [["1", leaf], [3, "0"]],
                     [["1", "0"], ["0", leaf]]):
            docs.append({"rows": len(rows), "cols": len(rows[0]), "entries": rows})
            docs.append({"entries": rows})
    for rows in ROWS:
        docs.append({"entries": rows})
        docs.append({"rows": 2, "cols": 2, "entries": rows})
    docs += [{"rows": 3, "cols": 2, "entries": [["1", "0"], ["0", "1"]]},
             {"rows": 2, "entries": [["1", "0", "2"], ["0", "1", "3"]]},
             {"rows": "2", "cols": 2, "entries": [["1", "0"], ["0", "1"]]},
             {"rows": 2, "cols": None, "entries": [["1", "0"], ["0", "1"]]},
             {"rows": 2, "cols": 2}, {}, [], [["1"]], "x", None]
    integral = 0
    for doc in docs:
        want = assert_same(parse_matrix, checked_matrix, doc)
        integral += want[0] == "Matrix" and want[-1]
    assert integral > 50
    # "4/2" and "-3/6" leave an integral and a non-integral matrix alike.
    assert parse_matrix({"entries": [["4/2", 1]]}).integral
    assert not parse_matrix({"entries": [["-3/6", 1]]}).integral


def test_integer_documents_are_read_in_one_pass():
    # Under a Matrix constructor that raises, every all-integer document
    # still reads: no entry or shape is checked a second time.
    docs = [{"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "1"]]},
            {"rows": 2, "cols": 2, "entries": [[2, -1], [1, 0]]},
            {"entries": [["007", "-0"], [1, "-12"]]},
            {"rows": 3, "cols": 3, "entries": [["1", "0", "-007"], [0, 1, 0], ["-0", "0", "1"]]},
            {"entries": [[1, 2, 3], ["4", "5", "6"], [7, "8", 9]]}]
    want = [parse_matrix(doc) for doc in docs]
    with mock.patch.object(Matrix, "__init__", side_effect=AssertionError("second check")):
        got = [parse_matrix(doc) for doc in docs]
    assert got == want
    assert all(m.integral and all(type(x) is int for r in m.data for x in r) for m in got)
    assert got[2].data == ((7, 0), (1, -12))


@pytest.mark.parametrize("doc", [
    {"rows": True, "cols": 1, "entries": [["5"]]},
    {"rows": 2.0, "cols": 2, "entries": [["2", "1"], ["1", "1"]]},
    {"cols": 7, "entries": [["2", "1"], ["1", "1"]]},
    {"rows": 1, "cols": False, "entries": [["5"]]},
])
def test_declared_shape_must_be_an_equal_json_integer(doc, capsys, monkeypatch):
    # true, 2.0 and a "cols" without "rows" were once compared with == or not
    # read at all, and `lin snf` answered them with exit 0.
    with pytest.raises(InputError, match="^declared shape disagrees with entries$"):
        parse_matrix(doc)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert cli.run(["lin", "snf", "--in", "-"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: declared shape disagrees with entries\n")
