"""Differential test of the fast integer paths of `serialize`.

`parse_scalar`, `parse_vector` and `parse_matrix` read integers on a fast
path and hand everything else to the checked path kept in the module
(`_checked_scalar`, `_checked_matrix`).  Over a fixed list of JSON leaves
and shapes, each must give what the checked path gives: the same value, the
same entry types and `Matrix.integral` flag, or the same InputError message.
"""

import sys

import pytest

from exactgroups.matrix import Matrix
from exactgroups.serialize import (InputError, _checked_matrix, _checked_scalar,
                                   parse_matrix, parse_scalar, parse_vector)

LIMIT = sys.get_int_max_str_digits()
LONG = [sign + "9" * digits for digits in (LIMIT - 1, LIMIT, LIMIT + 1) for sign in ("", "-")]

LEAVES = ["0", "5", "-12", "-0", "007", "-007", "+1", " 1", "1 ", "1_0", "1.5", "", "-",
          "--1", "1-", "1-2", "0x10", "٣", "x", 1.5, 2.0, True, False, None, [], {},
          0, 7, -3, "4/2", "1/0", "-3/6", "1/2", "-4/-2", "1/+2", "/2", "2/", *LONG]

ROWS = [[["1", "0"], ["0", "1"]], [[2, "1"], ["1", 1]], [[1, 0], [0, 1]],
        [["1"], ["0", "1"]], [["1", "0"], ["1"]], [[]], [[], []], [], ["12", "3"],
        [["1", "2"], "34"], [{"1": 0}], [("1",)], [["1"], 5], [["1"], None], "12",
        {"12": 0}, None, 5]


def checked_vector(doc):
    if not isinstance(doc, list):
        raise InputError("vector must be a JSON array")
    return tuple(_checked_scalar(x) for x in doc)


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


def assert_same(fast, checked, doc):
    got, want = outcome(fast, doc), outcome(checked, doc)
    assert got == want, (doc, got, want)
    return want


def test_scalars_and_vectors_match_the_checked_path():
    refused = 0
    for leaf in LEAVES:
        if assert_same(parse_scalar, _checked_scalar, leaf)[0] is InputError:
            refused += 1
        for doc in ([leaf], [leaf, "1"], ["-2", leaf, 3]):
            assert_same(parse_vector, checked_vector, doc)
    for doc in ("12", None, {}, {"0": "1"}, 3):
        assert_same(parse_vector, checked_vector, doc)
    assert refused > len(LEAVES) // 2
    # The fast path's own answers: ints as given, and every digit string that
    # the int/str limit allows.
    assert parse_scalar("-0") == 0 and type(parse_scalar("007")) is int
    assert type(parse_scalar("4/2")) is not int and parse_scalar("4/2") == 2
    assert parse_scalar(LONG[3]) == -int(LONG[2])
    with pytest.raises(InputError, match="^bad integer: Exceeds the limit"):
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
        want = assert_same(parse_matrix, _checked_matrix, doc)
        integral += want[0] == "Matrix" and want[-1]
    assert integral > 50
    # "4/2" and "-3/6" leave an integral and a non-integral matrix alike.
    assert parse_matrix({"entries": [["4/2", 1]]}).integral
    assert not parse_matrix({"entries": [["-3/6", 1]]}).integral
