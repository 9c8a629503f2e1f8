"""The `Matrix.integral` flag and the integer kernel behind it.

Every operation is checked against a reference written here with Fraction
arithmetic, whose entries are normalized (denominator 1 to int) one by one,
so each result must match in value and in entry type.  Wherever the code
promises the flag (the constructor, `identity`, negation, a product, sum or
difference of two integral matrices, an integral matrix times an int, the
transpose of an integral matrix, the inverse of an integral matrix of
determinant +-1, the U and V of `snf`, and its D for an integral input), it
must be exact; everywhere `integral` must mean that every entry is an int.
"""

import copy
import pickle
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from exactgroups.affine import AffineElement
from exactgroups.lattice import snf
from exactgroups.matrix import Matrix, PreconditionError, ShapeError
from exactgroups.serialize import parse_matrix
from tests.conftest import forbidden, random_unimodular, seeded

SHAPES = [(n, n) for n in range(1, 6)] + [(1, 2), (2, 1), (1, 3), (2, 3), (3, 2),
                                          (3, 4), (4, 2), (2, 5), (5, 3)]
KINDS = ("int", "unit", "mixed")   # ints; Fraction(k, 1); ints and Fractions


def norm(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def entry(rng, kind):
    k = rng.int_in(-4, 4)
    if kind == "int":
        return k
    if kind == "unit":
        return Fraction(k, 1)
    return Fraction(k, rng.int_in(1, 3)) if rng.below(2) else k


def raw(rng, rows, cols, kind):
    return [[entry(rng, kind) for _ in range(cols)] for _ in range(rows)]


def ref_mul(p, q):
    return tuple(tuple(norm(sum((Fraction(a) * b for a, b in zip(row, col)), Fraction(0)))
                       for col in zip(*q)) for row in p)


def ref_apply(p, v):
    return tuple(norm(sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0))) for row in p)


def ref_inverse(p):
    """Rows of p^-1 by Fraction Gauss-Jordan on [p | I], or None if singular."""
    n = len(p)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return tuple(tuple(norm(x) for x in row[n:]) for row in m)


def typed(rows):
    """The entries with their types, so that 2 and Fraction(2, 1) differ."""
    return tuple(tuple((type(x), x) for x in row) for row in rows)


def all_int(rows):
    return all(type(x) is int for row in rows for x in row)


def sound(m):
    """`integral` holds only when every entry is an int."""
    return not m.integral or all_int(m.data)


def operands(rng):
    """Matrices of every shape and kind, each built by Matrix() and, with
    int entries, also by Matrix._of on its int rows."""
    for rows, cols in SHAPES:
        for kind in KINDS:
            for _ in range(3):
                m = Matrix(raw(rng, rows, cols, kind))
                yield m
                if all_int(m.data):
                    yield Matrix._of(m.data)


def test_constructor_flag_exact():
    rng = seeded(1901)
    for rows, cols in SHAPES:
        for kind in KINDS:
            given = raw(rng, rows, cols, kind)
            m = Matrix(given)
            assert typed(m.data) == typed(tuple(tuple(norm(x) for x in r) for r in given))
            assert m.integral is all_int(m.data) is (m.lam == 1)
    for n in range(1, 6):
        assert Matrix.identity(n).integral
    assert Matrix([[Fraction(4, 2), 0]]).integral
    assert not Matrix([[Fraction(1, 2), 0]]).integral
    assert Matrix._of(((1, 2),)).integral and not Matrix._of(((1,),), 2).integral
    # bool is an int subclass, not an entry type: it once passed through as
    # True and left a matrix equal to I but flagged non-integral.
    for given in ([[True, False], [False, True]], [[1, 0], [0, True]]):
        with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
            Matrix(given)


def test_empty_matrix_refused_alike():
    # identity(0) once raised IndexError from reading the first row.
    for build in (lambda: Matrix([]), lambda: Matrix([[]]), lambda: Matrix.diagonal([]),
                  lambda: Matrix.identity(0), lambda: AffineElement.identity(0)):
        with pytest.raises(ShapeError, match="^matrix must have at least one row and column$"):
            build()


def test_identity_is_built_once_per_size():
    for n in (1, 2, 3, 7):
        ident = Matrix.identity(n)
        assert Matrix.identity(n) is ident
        assert ident.data == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        with pytest.raises(AttributeError, match="^Matrix is immutable$"):
            ident.data = ((2,),)
    assert Matrix.identity(2) is not Matrix.identity(3)
    # identity(True) once answered the 1x1 identity and identity(2.0) failed
    # in the interpreter's words: neither is answered from an int's entry.
    for n in (True, False, 2.0, Fraction(2, 1), "2"):
        with pytest.raises(TypeError, match="^matrix size must be an int, got "):
            Matrix.identity(n)
    assert Matrix.identity(1).data == ((1,),)


def test_mul_and_apply_against_fraction_reference():
    rng = seeded(1902)
    pool = list(operands(rng))
    for a in pool:
        for b in [m for m in pool if m.rows == a.cols][::7]:
            prod = a * b
            assert typed(prod.data) == typed(ref_mul(a.data, b.data)), (a, b)
            assert sound(prod)
            if a.integral and b.integral:
                assert prod.integral
        for kind in KINDS:
            v = [entry(rng, kind) for _ in range(a.cols)]
            for vec in (v, tuple(v)):
                out = a.apply(vec)
                assert type(out) is tuple
                assert typed((out,)) == typed((ref_apply(a.data, v),)), (a, v)


def test_apply_refuses_bool_entries():
    # apply once read True and False as 1 and 0, which Matrix() and vec_norm
    # refuse: on the 2x2 and 3x3 int kernels, the generic one, and the
    # Fraction path.
    for m in (Matrix([[1, 0], [0, 1]]), Matrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]]),
              Matrix.identity(4), Matrix([[Fraction(1, 2), 0], [0, 1]])):
        for vec in ([True] + [0] * (m.cols - 1), (1,) * (m.cols - 1) + (False,),
                    [Fraction(1, 2)] * (m.cols - 1) + [True]):
            with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
                m.apply(vec)


def test_rational_products_and_applies_against_fraction_reference():
    # A product or apply with a non-integral operand, n = 1..5 and
    # non-square, entries int, Fraction(k, 1) and k/q (q up to 7) mixed in
    # one matrix: value, hash and entry types match the reference, and
    # `integral` is sound.  m m^-1 and m^-1 m cancel every
    # denominator, so their int entries must come back as ints.
    rng = seeded(2728)

    def entry(dense):
        k, kind = rng.int_in(-6, 6), rng.below(3 if dense else 6)
        return (Fraction(k, rng.int_in(2, 7)) if kind == 0 else
                Fraction(k) if kind == 1 else k)

    def matrix(rows, cols, dense=True):
        return Matrix([[entry(dense) for _ in range(cols)] for _ in range(rows)])

    def check(got, a, b):
        want = ref_mul(a.data, b.data)
        assert got == Matrix(want) and hash(got) == hash(Matrix(want)), (a, b)
        assert typed(got.data) == typed(want), (a, b)
        assert sound(got)

    shapes = [(n, n, n) for n in range(1, 6)] + [(1, 3, 2), (2, 1, 3), (3, 2, 4),
                                                 (4, 3, 1), (2, 5, 3), (5, 2, 5)]
    integral_results = 0
    for r, k, c in shapes:
        for trial in range(40):
            a, b = matrix(r, k, trial % 2 == 0), matrix(k, c, trial % 3 == 0)
            ints = Matrix([[rng.int_in(-5, 5) for _ in range(c)] for _ in range(k)])
            for p, q in ((a, b), (a, ints), (ints.transpose(), b), (a.transpose(), a),
                         (a, Matrix._of(ints.data)), (Matrix._of(ints.data), b)):
                if p.cols == q.rows:
                    check(p * q, p, q)
            if r == k:
                m = next((m for m in (a, b) if m.rows == m.cols and ref_inverse(m.data)), None)
                if m is not None:
                    for p, q in ((m, m.inverse()), (m.inverse(), m)):
                        got = p * q
                        check(got, p, q)
                        integral_results += all_int(got.data)
            for v in ([rng.int_in(-5, 5) for _ in range(k)],
                      [entry(True) for _ in range(k)],
                      [Fraction(rng.int_in(-5, 5)) for _ in range(k)]):
                for m in (a, a.transpose(), ints.transpose()):
                    if m.cols != k:
                        continue
                    for vec in (v, tuple(v)):
                        out = m.apply(vec)
                        assert type(out) is tuple
                        assert typed((out,)) == typed((ref_apply(m.data, v),)), (m, v)
    assert integral_results >= 150


def test_add_sub_transpose_and_scalar_against_fraction_reference():
    rng = seeded(1906)
    pool = list(operands(rng))
    scalars = (0, 3, -2, Fraction(5), Fraction(-1, 2), Fraction(2, 3))
    for a in pool:
        t = a.transpose()
        assert typed(t.data) == typed(tuple(zip(*a.data))) and sound(t)
        assert t.integral or not a.integral
        for b in [m for m in pool if (m.rows, m.cols) == (a.rows, a.cols)][::5]:
            for got, op in ((a + b, Fraction.__add__), (a - b, Fraction.__sub__)):
                want = tuple(tuple(norm(op(Fraction(x), y)) for x, y in zip(r, s))
                             for r, s in zip(a.data, b.data))
                assert typed(got.data) == typed(want), (a, b)
                assert sound(got)
                if a.integral and b.integral:
                    assert got.integral
        for c in scalars:
            want = tuple(tuple(norm(Fraction(c) * x) for x in r) for r in a.data)
            for got in (c * a, a * c):
                assert typed(got.data) == typed(want), (a, c)
                assert sound(got)
                if a.integral and type(c) is int:
                    assert got.integral


def test_neg_inverse_and_pow_against_fraction_reference():
    rng = seeded(1903)
    square = [m for m in operands(rng) if m.rows == m.cols]
    square += [random_unimodular(rng, n) for n in range(2, 6) for _ in range(5)]
    square += [Matrix._of(m.data) for m in square[-20:]]
    unimodular = 0
    for m in square:
        neg = -m
        assert typed(neg.data) == typed(tuple(tuple(norm(-x) for x in r) for r in m.data))
        assert neg.integral == m.integral and sound(neg)
        inv_rows = ref_inverse(m.data)
        if inv_rows is None:
            continue
        inv = m.inverse()
        assert typed(inv.data) == typed(inv_rows), m
        assert sound(inv)
        # An integer matrix has an integer inverse exactly when det = +-1.
        unimodular_int = m.integral and all_int(inv_rows)
        if unimodular_int:
            unimodular += 1
            assert inv.integral
        powers = {0: tuple(tuple(int(i == j) for j in range(m.rows)) for i in range(m.rows))}
        for k in range(1, 4):
            powers[k] = ref_mul(powers[k - 1], m.data)
            powers[-k] = ref_mul(powers[1 - k], inv_rows)
        for k, rows in powers.items():
            p = m ** k
            assert typed(p.data) == typed(rows), (m, k)
            assert sound(p)
            if m.integral and (k >= 0 or unimodular_int):
                assert p.integral
    assert unimodular >= 20


def ref_det(p):
    """det p by the Leibniz formula in Fraction arithmetic, normalized."""
    n = len(p)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= p[i][j]
        total += term
    return norm(total)


def test_rational_det_and_inverse_against_fraction_reference():
    # Up to 5x5 (cofactors up to 3x3, elimination past it), with int,
    # Fraction and Fraction(k, 1) entries mixed and denominators up to 6: det
    # and inverse match the reference in value and in entry type, and a
    # singular matrix has det 0 and no inverse.
    rng = seeded(2526)

    def entry():
        k, kind = rng.int_in(-5, 5), rng.below(3)
        return k if kind == 0 else Fraction(k) if kind == 1 else Fraction(k, rng.int_in(2, 6))

    singular = 0
    for n in (1, 2, 3, 4, 5):
        for trial in range(300):
            given = [[entry() for _ in range(n)] for _ in range(n)]
            if trial % 5 == 0:
                # Row n-1 a rational multiple of row 0 (for n = 1, zero).
                c = Fraction(rng.int_in(-3, 3), rng.int_in(1, 4))
                given[-1] = [c * x for x in given[0]]
            m = Matrix(given)
            det, want = m.det(), ref_det(m.data)
            assert typed(((det,),)) == typed(((want,),)), m
            inv_rows = ref_inverse(m.data)
            if inv_rows is None:
                singular += 1
                assert det == 0
                with pytest.raises(PreconditionError, match="singular"):
                    m.inverse()
                continue
            inv = m.inverse()
            assert typed(inv.data) == typed(inv_rows), m
            assert sound(inv)
    assert singular >= 150


def test_snf_transforms_flagged():
    rng = seeded(1904)
    for rows, cols in SHAPES:
        for kind in KINDS:
            m = Matrix(raw(rng, rows, cols, kind))
            U, D, V = snf(m)
            assert U.integral and V.integral and all_int(U.data) and all_int(V.data)
            assert U * m * V == D


def test_snf_diagonal_flagged_for_integer_input():
    # D was built unflagged although its diagonal had been checked all-int.
    rng = seeded(1906)
    for rows, cols in SHAPES:
        for kind in ("int", "unit"):
            m = Matrix(raw(rng, rows, cols, kind))
            D = snf(m)[1]
            assert m.integral and D.integral and all_int(D.data), m
    _, D, _ = snf(Matrix([[Fraction(3, 2), 0], [0, 2]]))
    assert not D.integral and sound(D)


def test_flag_outside_equality_and_hash():
    for m in operands(seeded(1905)):
        rows = m.data
        plain, built = Matrix._of(m.num, m.lam), Matrix(rows)
        assert plain.integral == built.integral == all_int(rows)
        assert plain == built and hash(plain) == hash(built)
        for x in (m, plain, built):
            assert hash(x) == hash((x.rows, x.cols, x.num, x.lam, x.integral))


def test_a_matrix_is_its_pair(monkeypatch):
    # Equality and hashing read (num, lam) and no entry is stored: hashing a
    # rational matrix, or keeping it in a set, makes no Fraction, and reading
    # one entry makes at most that one.
    assert Matrix.__slots__ == ("rows", "cols", "num", "lam", "integral")
    rng = seeded(3901)
    mats = [Matrix._of(tuple(tuple(rng.int_in(-9, 9) for _ in range(3)) for _ in range(2)),
                       rng.int_in(2, 6)) for _ in range(50)]
    assert not any(m.integral for m in mats)
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", forbidden("Fraction.__new__"))
        hashes = [hash(m) for m in mats]
        assert len({*mats, *mats}) == len({(m.num, m.lam) for m in mats})
    made, new = [], Fraction.__new__
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", lambda *a: made.append(a) or new(*a))
        got = [[m[i, j] for j in range(3)] for m in mats for i in range(2)]
    assert len(made) == sum(type(x) is Fraction for row in got for x in row)
    assert got == [list(row) for m in mats for row in m.data]
    for m, h in zip(mats, hashes):
        assert h == hash(Matrix(m.data)) == hash((m.rows, m.cols, m.num, m.lam, m.integral))


def test_scalar_product_refuses_a_bool():
    # Matrix([[1, 2]]) * True once answered the matrix itself, True read as 1,
    # while * 2.0 and a bool entry were refused: a scalar is now read as an
    # entry is, on either side.
    m = Matrix([[1, 2]])
    for scalar in (True, False, 2.0):
        for product in (lambda: m * scalar, lambda: scalar * m):
            with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
                product()
    assert m * 3 == 3 * m == Matrix([[3, 6]])
    assert Fraction(1, 2) * m == m * Fraction(1, 2) == Matrix([[Fraction(1, 2), 1]])


def test_power_refuses_a_non_int_exponent():
    # g ** True once answered g, and g ** 2.0 failed in the interpreter's
    # words ("unsupported operand type(s) for &").
    g = Matrix([[2, 1], [1, 1]])
    for k in (True, False, 2.0, Fraction(2, 1)):
        with pytest.raises(TypeError, match="^matrix exponent must be an int, got "):
            g ** k
    assert g ** 2 == g * g and g ** -1 == g.inverse() and g ** 0 == Matrix.identity(2)


def test_one_matrix_built_four_ways():
    # M = N / d is stored as its unique (num, lam): built from Fraction
    # entries, from the int entries N over d (also as "x/d" text), as the
    # product N (I / d), and through pickle and copy, it is one value, hashes
    # alike, reads the same data and has the exact flag; num / lam is in
    # lowest terms, lam >= 1.
    rng = seeded(3602)
    integral = 0
    for trial in range(400):
        rows, cols = rng.int_in(1, 5), rng.int_in(1, 5)
        d = rng.int_in(1, 6) * (-1 if trial % 7 == 0 else 1)
        k = d if trial % 5 == 0 else 1   # now and then every entry a multiple of d
        ints = tuple(tuple(k * rng.int_in(-9, 9) for _ in range(cols)) for _ in range(rows))
        built = [Matrix([[Fraction(x, d) for x in row] for row in ints]),
                 Matrix._of(ints, d),
                 parse_matrix({"entries": [[f"{x}/{d}" for x in row] for row in ints]}),
                 Matrix(ints) * Matrix.diagonal([Fraction(1, d)] * cols)]
        built += [f(m) for m in built[:2] for f in (copy.copy, copy.deepcopy,
                                                   lambda m: pickle.loads(pickle.dumps(m)))]
        want = tuple(tuple(norm(Fraction(x, d)) for x in row) for row in ints)
        for m in built:
            assert m == built[0] and hash(m) == hash(built[0]), (ints, d)
            assert typed(m.data) == typed(want) and m.integral is all_int(want)
            assert m.lam >= 1 and gcd(m.lam, *[x for row in m.num for x in row]) == 1
        integral += built[0].integral
    assert 50 <= integral <= 350


def test_flag_survives_copy_and_pickle():
    for m in (Matrix([[1, 2], [3, 4]]), Matrix._of(((1, 2), (3, 4))),
              Matrix([[Fraction(1, 2), 3]])):
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and clone.integral is m.integral
    m = Matrix([[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        m.integral = False
    with pytest.raises(AttributeError):
        del m.integral
    assert m.integral
