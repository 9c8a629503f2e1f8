"""Unit tests for exact matrices, HNF/SNF, and integer solving."""

import hashlib
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactgroups.lattice import (LatticeBasis, _echelon, _extgcd, content, fixed_sublattice,
                                 hnf, kernel_basis, snf, solve_integer)
from exactgroups.cocycle import B_GEN, finf_extend, finf_generator
from exactgroups.matrix import Matrix, PreconditionError, ShapeError, vec_sub
from tests.conftest import forbidden, random_unimodular, rational_rank, seeded


# -- Matrix basics ---------------------------------------------------------

def test_matrix_arithmetic_and_normalization():
    m = Matrix([[Fraction(2, 1), 1], [0, Fraction(1, 2)]])
    assert isinstance(m[0, 0], int)           # 2/1 canonicalized to int
    assert m.trace() == Fraction(5, 2)
    assert (m * m.inverse()) == Matrix.identity(2)
    assert m.apply((2, 2)) == (6, 1)
    assert (-m)[0, 0] == -2
    assert (m + m - m) == m
    assert m.transpose().transpose() == m


def test_matrix_pow_and_det():
    t = Matrix([[1, 1], [0, 1]])
    assert t ** 5 == Matrix([[1, 5], [0, 1]])
    assert t ** -3 == Matrix([[1, -3], [0, 1]])
    assert t ** 0 == Matrix.identity(2)
    m4 = Matrix([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [1, 1, 1, 1]])
    # 4x4 determinant goes through the elimination path; check by expansion
    # against the cofactor formula on a transposed copy (det is invariant).
    assert m4.det() == m4.transpose().det()
    assert (m4 * m4.inverse()) == Matrix.identity(4)


def test_matrix_errors():
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(PreconditionError):
        Matrix([[1, 1], [1, 1]]).inverse()
    with pytest.raises(TypeError):
        Matrix([[1.5]])
    for empty in ([], [[]]):
        with pytest.raises(ShapeError, match="^matrix must have at least one row and column$"):
            Matrix(empty)
    wide = Matrix([[1, 2, 3], [4, 5, 6]])
    for op, name in ((lambda m: m ** 2, "power"), (Matrix.trace, "trace"),
                     (Matrix.det, "determinant"), (Matrix.inverse, "inverse")):
        with pytest.raises(ShapeError, match=f"^{name} of a non-square matrix$"):
            op(wide)
    with pytest.raises(ShapeError, match="^vector length mismatch$"):
        wide.apply((1, 2))
    with pytest.raises(ShapeError, match="^shape mismatch$"):
        wide + Matrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError, match="^expected a Matrix$"):
        wide + 1


def test_matrix_hashable_immutable():
    m = Matrix([[1, 2], [3, 4]])
    assert m in {m}
    with pytest.raises(AttributeError):
        m.rows = 3


def _gauss_jordan_inverse(M):
    """Reference inverse by Fraction Gauss-Jordan, independent of Matrix."""
    n = M.rows
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M.data)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for i in range(n):
            if i != col:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m]


SMALL_RATIONALS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


@st.composite
def invertible_matrices(draw):
    """Invertible matrices for n = 1..6: products of elementary matrices
    E_ij(v), optionally times diag(-1, 1, ..., 1).  With v = +-1 they are
    integer matrices of det +-1; otherwise v and a left diagonal factor are
    drawn from small nonzero rationals, so entries may be Fractions and the
    determinant need not be +-1."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6]))
    rational = draw(st.booleans())
    values = st.sampled_from(SMALL_RATIONALS if rational else (1, -1))
    m = Matrix.identity(n)
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), values)
    for i, j, v in draw(st.lists(steps, max_size=16)):
        if i != j:
            e = [[int(r == c) for c in range(n)] for r in range(n)]
            e[i][j] = v
            m = m * Matrix(e)
    if draw(st.booleans()):
        m = m * Matrix.diagonal([-1] + [1] * (n - 1))
    if rational:
        m = Matrix.diagonal(draw(st.lists(values, min_size=n, max_size=n))) * m
    return m


@settings(max_examples=250, deadline=None)
@given(invertible_matrices())
def test_inverse_integer_unimodular(M):
    inv = M.inverse()
    want = _gauss_jordan_inverse(M)
    assert [list(r) for r in inv.data] == want
    # An entry is an int exactly when its value is an integer; so an integer
    # matrix of det +-1 has an all-int inverse.
    assert [[type(x) for x in r] for r in inv.data] == \
        [[int if x.denominator == 1 else Fraction for x in r] for r in want]
    assert M * inv == Matrix.identity(M.rows)


def test_inverse_non_unimodular_and_rational_pinned():
    # det != +-1 and Fraction inputs keep the Gauss-Jordan results, types included.
    half = Fraction(1, 2)
    cases = [
        (Matrix([[1, 1], [0, 2]]), [[1, -half], [0, half]]),
        (Matrix([[2, 0, 0], [0, 1, 0], [1, 0, 1]]), [[half, 0, 0], [0, 1, 0], [-half, 0, 1]]),
        (Matrix([[half, 0], [0, 2]]), [[2, 0], [0, half]]),
        (Matrix([[1, half, 0], [0, 1, 0], [0, 0, 1]]), [[1, -half, 0], [0, 1, 0], [0, 0, 1]]),
        (Matrix([[Fraction(2, 3), 1], [1, 3]]), [[3, -1], [-1, Fraction(2, 3)]]),
    ]
    for M, want in cases:
        got = M.inverse()
        assert [list(r) for r in got.data] == want
        assert [[type(x) for x in r] for r in got.data] == \
            [[int if Fraction(x).denominator == 1 else Fraction for x in r] for r in want]
        assert M * got == Matrix.identity(M.rows)


def _det_by_permutations(M):
    """Leibniz expansion: sum over permutations p of sign(p) prod M[i, p(i)]."""
    n = M.rows
    total = 0
    for p in permutations(range(n)):
        term = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= M[i, p[i]]
        total += term
    return total


def test_det_large_against_permutation_expansion():
    rng = seeded(17)
    vals = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))
    # The identity with its first two rows swapped: det -1 through one swap.
    cases = [Matrix([[int(j == (1, 0, 2, 3, 4)[i]) for j in range(n)] for i in range(n)])
             for n in (4, 5)]
    # Rows 2 and 3 swapped: the first zero pivot comes after step 0.
    cases += [Matrix([[int(j == (0, 1, 3, 2, 4)[i]) for j in range(n)] for i in range(n)])
              for n in (4, 5)]
    cases.append(Matrix([[1, 2, 3, 4], [0, 0, 1, 1], [0, 1, 0, 1], [2, 4, 6, 8]]))
    # Denominators 2, 3 and 4: the integer pass runs on 12 M.
    cases.append(Matrix([[Fraction(1, 2), 1, 0, 2], [Fraction(2, 3), 0, 1, 1],
                         [0, Fraction(3, 4), 1, 0], [1, 0, Fraction(-1, 3), 1]]))
    # Every size: cofactors up to 3x3, elimination past it.
    for n in range(1, 6):
        cases += [Matrix([[vals[rng.below(len(vals))] for _ in range(n)] for _ in range(n)])
                  for _ in range(60)]
    for M in cases:
        want = _det_by_permutations(M)
        got = M.det()
        assert got == want
        assert type(got) is (int if Fraction(want).denominator == 1 else Fraction)


def test_inverse_singular_large():
    # Third row is the sum of the first two; the last column repeats the first.
    for M in (Matrix([[1, 2, 0, 1], [0, 1, 3, 0], [1, 3, 3, 1], [2, 0, 1, 1]]),
              Matrix([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 2], [1, 1, 1, 1]]),
              Matrix([[Fraction(1, 2), 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 1, 0, 0],
                      [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
              # The last row is the sum of the others: only the last pivot is 0.
              Matrix([[1, 2, 0, 0, 0, 1], [0, 1, 3, 0, 0, 0], [0, 0, 1, 4, 0, 0],
                      [0, 0, 0, 1, 5, 0], [0, 0, 0, 0, 1, 6], [1, 3, 4, 5, 6, 7]])):
        with pytest.raises(PreconditionError):
            M.inverse()


# -- HNF -------------------------------------------------------------------

def test_hnf_pinned_example():
    basis = hnf([(2, 0), (1, 1)])
    assert basis.rows == ((1, 1), (0, 2))
    assert basis.index() == 2


def test_hnf_negative_dimension_refused():
    # An empty row list with dim -1 was once the "lattice" of dimension -1.
    with pytest.raises(ShapeError):
        hnf([], dim=-1)


def test_hnf_reads_exact_entries():
    # A float or bool entry was once kept, 2.0 in float arithmetic and True as
    # 1, and rational rows gave an unnormalized Fraction(0, 1).  Rational rows
    # L now give HNF(lam L) / lam, lam the lcm of their denominators.
    for rows in ([(2.0, 1)], [(True, 1)], [(1, 0), (Fraction(1, 2), False)]):
        with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
            hnf(rows)
    basis = hnf([(Fraction(1, 2), 1), (0, Fraction(1, 3))])
    assert [[(type(x), x) for x in row] for row in basis.rows] == [
        [(Fraction, Fraction(1, 2)), (int, 0)], [(int, 0), (Fraction, Fraction(1, 3))]]
    rng = seeded(3902)
    for _ in range(200):
        n, lam = rng.int_in(1, 4), rng.int_in(1, 6)
        ints = [tuple(rng.int_in(-9, 9) for _ in range(n)) for _ in range(rng.int_in(1, 4))]
        got = hnf([[Fraction(x, lam) for x in row] for row in ints], dim=n)
        want = [[Fraction(x, lam) for x in row] for row in hnf(ints, dim=n).rows]
        assert [[(type(x), x) for x in row] for row in got.rows] == [
            [(int, int(x)) if x.denominator == 1 else (Fraction, x) for x in row]
            for row in want]


def test_lattice_basis_reads_exact_entries():
    # A float entry was once divided in float arithmetic, (2.0, 2) answering
    # True, and a bool read as 1, and LatticeBasis(1, [(0.5,)]) was built;
    # the vector and the rows are now read as matrix entries are.
    basis = hnf([(2, 0), (0, 2)])
    for v in ((2.0, 2), (True, 0), (0, False)):
        with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
            basis.contains(v)
    assert basis.contains((2, -4)) and basis.contains((Fraction(4, 2), 0))
    assert not basis.contains((1, 0)) and not basis.contains((Fraction(1, 2), 0))
    half_third = hnf([(Fraction(1, 2), 0), (0, Fraction(1, 3))])
    assert half_third.contains((Fraction(1, 2), Fraction(2, 3))) and half_third.contains((1, 0))
    assert not half_third.contains((Fraction(1, 4), 0))
    for rows in ([(0.5,)], [(True,)], [(1, 0), (0, 2.0)]):
        with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
            LatticeBasis(len(rows[0]), rows)
    assert LatticeBasis(2, [[2, 0], (0, Fraction(4, 2))]) == basis


def test_hnf_zero_and_empty():
    assert hnf([], dim=3).rows == ()
    assert hnf([(0, 0, 0)]).rows == ()
    assert hnf([], dim=2).is_zero
    with pytest.raises(ShapeError):
        hnf([])
    with pytest.raises(ShapeError):
        hnf([(1, 0), (1, 0, 0)])


def test_hnf_shape_properties():
    rng = seeded(11)
    for _ in range(100):
        n = 2 + rng.below(3)
        rows = [tuple(rng.int_in(-9, 9) for _ in range(n))
                for _ in range(rng.below(4) + 1)]
        basis = hnf(rows)
        # echelon with positive pivots, reduced above
        last_piv = -1
        for row in basis.rows:
            j = next(k for k, x in enumerate(row) if x)
            assert j > last_piv
            assert row[j] > 0
            last_piv = j
        for i, row in enumerate(basis.rows):
            j = next(k for k, x in enumerate(row) if x)
            for i2 in range(i):
                assert 0 <= basis.rows[i2][j] < row[j]
        # every generator is a member
        for r in rows:
            assert basis.contains(r)


def test_hnf_canonical_under_regeneration():
    rng = seeded(5)
    for _ in range(60):
        n = 2 + rng.below(2)
        rows = [tuple(rng.int_in(-6, 6) for _ in range(n)) for _ in range(n)]
        basis = hnf(rows)
        # adding lattice members and integer row combinations cannot change it
        mixed = list(rows)
        for _ in range(4):
            i, j = rng.below(len(rows)), rng.below(len(rows))
            c = rng.int_in(-3, 3)
            mixed.append(tuple(a + c * b for a, b in zip(rows[i], rows[j])))
        assert hnf(mixed, dim=n) == basis


def test_contains_against_brute_force():
    basis = hnf([(2, 1), (0, 3)])
    # coefficients in [-4, 4] cover every lattice point of the [-6, 6] box
    members = {(2 * a, a + 3 * b) for a in range(-4, 5) for b in range(-4, 5)}
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert basis.contains((x, y)) == ((x, y) in members)


def test_lattice_basis_accessors():
    basis = hnf([(2, 1), (0, 3)])
    assert basis.rank == 2 and not basis.is_zero
    assert basis.pivots() == [2, 3]
    assert basis.index() == 6
    low = hnf([(1, 2, 3)])
    assert low.index() is None
    with pytest.raises(ShapeError):
        basis.contains((1, 2, 3))


def _echelon_reference(W):
    """The Hermite loop as it stood before the pivot scan: a per-column
    `live` list and an `if w[c]` test above the pivot.  Kept verbatim as the
    reference that `lattice._echelon` must match row operation for row
    operation."""
    m = len(W)
    r = 0
    for c in range(len(W[0]) if W else 0):
        live = [i for i in range(r, m) if W[i][c]]
        if not live:
            continue
        k = live[0]
        if k != r:
            W[r], W[k] = W[k], W[r]
        piv = W[r]
        p = piv[c]
        for i in live[1:]:
            row = W[i]
            b = row[c]
            if b % p == 0:
                q = b // p
                W[i] = [u - q * v for u, v in zip(row, piv)]
            else:
                g, x, y = _extgcd(p, b)
                a, b = p // g, b // g
                piv, W[i] = ([x * u + y * v for u, v in zip(piv, row)],
                             [a * v - b * u for u, v in zip(piv, row)])
                p = g
        if p < 0:
            piv = [-u for u in piv]
            p = -p
        W[r] = piv
        for i in range(r):
            w = W[i]
            if w[c]:
                q = w[c] // p
                if q:
                    W[i] = [u - q * v for u, v in zip(w, piv)]
        r += 1
        if r == m:
            break
    return r


def _echelon_cases():
    """Seeded row lists of the shapes `_echelon` is given: generator sets of
    `hnf` up to 12 x 8 with zero rows and columns mixed in, the A | U rows of
    an `snf` pass, [M^T | I] for rank-deficient M, a rational A | U, m = 0
    and a single column."""
    rng = seeded(3201)
    cases = [[], [[0]], [[0], [0]], [[5]], [[-4], [6], [0], [9]], [[0, 0, 0]] * 3]
    for _ in range(150):
        m, n = rng.int_in(1, 12), rng.int_in(1, 8)
        rows = [[rng.int_in(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.below(3) == 0:
            rows[rng.below(m)] = [0] * n
        if rng.below(3) == 0:
            j = rng.below(n)
            for row in rows:
                row[j] = 0
        cases.append(rows)
    for _ in range(60):
        m, n = rng.int_in(1, 6), rng.int_in(1, 6)
        unit = [0] * (m - 1) + [1] + [0] * m
        cases.append([[rng.int_in(-9, 9) for _ in range(n)] + unit[i:i + m]
                      for i in range(m)])
    for _ in range(60):
        m, n, k = rng.int_in(1, 6), rng.int_in(2, 7), rng.int_in(0, 3)
        left = [[rng.int_in(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.int_in(-3, 3) for _ in range(n)] for _ in range(k)]
        M = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
             for i in range(m)]
        cases.append([list(col) + [int(i == j) for i in range(n)]
                      for j, col in enumerate(zip(*M))])
    half = Fraction(1, 2)
    cases.append([[Fraction(3, 2), 0, 1, 0], [half, 2, 0, 1]])
    return cases


def test_echelon_matches_reference_loop():
    # Same row operations in the same order: the same final W and rank, so
    # hnf, snf, kernel_basis and the Hermite solve answer alike.
    for rows in _echelon_cases():
        got, want = [list(row) for row in rows], [list(row) for row in rows]
        assert _echelon(got) == _echelon_reference(want), rows
        assert got == want, rows


# -- SNF -------------------------------------------------------------------

def _check_snf(M):
    return _check_smith(M, *snf(M))


def _check_smith(M, U, D, V):
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    assert U.integral and V.integral
    assert U * M * V == D
    k = min(M.rows, M.cols)
    diag = [D[i, i] for i in range(k)]
    assert all(D[i, j] == 0 for i in range(M.rows) for j in range(M.cols) if i != j)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    return diag


def test_snf_pinned_example():
    diag = _check_snf(Matrix([[4, -2], [8, -4]]))
    assert diag == [2, 0]


def test_snf_rational_input_normalized():
    # gcd(3/2, 2) = 1/2 leaves lcm 6 as Fraction(6, 1) unless normalized.
    U, D, V = snf(Matrix([[Fraction(3, 2), 0], [0, 2]]))
    assert D == Matrix.diagonal([Fraction(1, 2), 6]) and type(D[1, 1]) is int
    assert U * Matrix([[Fraction(3, 2), 0], [0, 2]]) * V == D


def test_snf_random_shapes():
    rng = seeded(21)
    for _ in range(120):
        r, c = 1 + rng.below(3), 1 + rng.below(3)
        _check_snf(Matrix([[rng.int_in(-20, 20) for _ in range(c)]
                           for _ in range(r)]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_hypothesis(rows):
    _check_snf(Matrix(rows))


# The bound the SNF sweep holds U and V to; Kannan-Bachem passes stay under
# 70 bits on these inputs, while the elimination they replaced grew U and V
# past 30,000 bits on some 6x6 inputs.
SNF_BIT_BOUND = 256


def _bits(X):
    return max(abs(x).bit_length() for row in X.data for x in row)


def _sweep_inputs(rng, n):
    """Entries in [-9, 9]: n x n, n x (n+1), n x (n-1), and n x n of rank <= n-2."""
    def rows(r, c):
        return [[rng.int_in(-9, 9) for _ in range(c)] for _ in range(r)]
    yield rows(n, n)
    yield rows(n, n + 1)
    yield rows(n, n - 1)
    low = rows(n - 2, n)
    for _ in range(2):
        a, b = low[rng.below(n - 2)], low[rng.below(n - 2)]
        low.insert(rng.below(len(low) + 1), [x - 2 * y for x, y in zip(a, b)])
    yield low


def test_snf_seeded_sweep_polynomial():
    rng = seeded(2024)
    for n in range(4, 11):
        for _ in range(2):
            for rows in _sweep_inputs(rng, n):
                M = Matrix(rows)
                t0 = time.process_time()
                U, D, V = snf(M)
                assert time.process_time() - t0 < 1.0, rows
                assert _bits(U) <= SNF_BIT_BOUND and _bits(V) <= SNF_BIT_BOUND, rows
                _check_smith(M, U, D, V)


def _determinantal_divisors(M):
    """d_k = gcd of all k x k minors, k = 1..min(m, n)."""
    out = []
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for I in combinations(range(M.rows), k):
            for J in combinations(range(M.cols), k):
                g = gcd(g, _det_by_permutations(Matrix([[M[i, j] for j in J] for i in I])))
        out.append(g)
    return out


def test_snf_against_determinantal_divisors():
    # D[k-1][k-1] = d_k / d_(k-1): an oracle that does not use snf.  The
    # diagonal inputs, bare and hidden by unimodular factors, make the
    # (gcd, lcm) repair of the divisibility chain run.
    rng = seeded(58)
    chain = (0, 1, 2, 3, 4, 6, 9, 10, 12, 15)
    cases = []
    for _ in range(40):
        r, c = 1 + rng.below(4), 1 + rng.below(4)
        cases.append(Matrix([[rng.int_in(-9, 9) for _ in range(c)] for _ in range(r)]))
    for _ in range(40):
        n = 2 + rng.below(3)
        diag = Matrix.diagonal([chain[rng.below(len(chain))] for _ in range(n)])
        cases.append(diag)
        cases.append(random_unimodular(rng, n) * diag * random_unimodular(rng, n))
    for M in cases:
        got = _check_snf(M)
        want, prev = [], 1
        for d in _determinantal_divisors(M):
            want.append(d // prev if d else 0)
            prev = d or prev
        assert got == want, M


SNF_REGRESSION = [[5, -2, -5, -4, -5, -2], [-3, 8, 5, -2, 7, -5], [-7, -9, -6, 3, 7, 4],
                  [-7, 3, -7, -4, -4, 2], [-6, 3, 3, -8, -9, -3], [-3, -7, 3, -4, 4, -8]]


def test_snf_regression_6x6():
    # Seeded normal-forms input on which the former elimination ran for
    # more than a second (U and V past 30,000 bits).
    M = Matrix(SNF_REGRESSION)
    t0 = time.process_time()
    U, D, V = snf(M)
    assert time.process_time() - t0 < 1.0
    assert _check_smith(M, U, D, V) == [1, 1, 1, 1, 1, 261246]
    assert _bits(U) <= SNF_BIT_BOUND and _bits(V) <= SNF_BIT_BOUND
    x0 = (1, -2, 3, 0, 2, -1)
    assert solve_integer(M, M.apply(x0)) == x0      # det M != 0: unique
    b = tuple(v + (i == 0) for i, v in enumerate(M.apply(x0)))
    assert solve_integer(M, b) is None


# -- integer solving -------------------------------------------------------

def test_solve_integer_pinned():
    M = Matrix([[4, -2], [8, -4]])
    assert solve_integer(M, (2, 4)) == (0, -1) or \
        M.apply(solve_integer(M, (2, 4))) == (2, 4)
    assert solve_integer(M, (1, 2)) is None   # needs a half-integer
    assert solve_integer(M, (2, 5)) is None   # inconsistent
    with pytest.raises(ShapeError):
        solve_integer(M, (1, 2, 3))


def test_solve_integer_refuses_inexact_right_hand_sides():
    # (2.0,) was once read as 2 and answered (1,); (True,) was read as 1.
    for M in (Matrix([[2]]), Matrix([[1, 2]]), Matrix([[Fraction(1, 2)], [3]])):
        for b in ((2.0,) * M.rows, (True,) * M.rows, (1,) * (M.rows - 1) + (False,)):
            with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
                solve_integer(M, b)


def test_solve_integer_roundtrip():
    rng = seeded(33)
    for _ in range(150):
        M = Matrix([[rng.int_in(-6, 6) for _ in range(3)] for _ in range(3)])
        x0 = tuple(rng.int_in(-4, 4) for _ in range(3))
        b = M.apply(x0)
        x = solve_integer(M, b)
        assert x is not None and M.apply(x) == b


def test_kernel_basis():
    M = Matrix([[1, 2, 3]])
    ker = kernel_basis(M)
    assert ker.rank == 2
    for row in ker.rows:
        assert M.apply(row) == (0,)
    assert kernel_basis(Matrix.identity(3)).is_zero
    # kernel members found by brute force are all contained
    M2 = Matrix([[2, 4], [1, 2]])
    ker2 = kernel_basis(M2)
    for x in range(-5, 6):
        for y in range(-5, 6):
            if M2.apply((x, y)) == (0, 0):
                assert ker2.contains((x, y))


def test_kernel_basis_and_solve_integer_n7_n8():
    rng = seeded(78)
    for n in (7, 8):
        for _ in range(3):
            rows = [[rng.int_in(-9, 9) for _ in range(n)] for _ in range(n - 2)]
            for _ in range(2):
                a, b = rows[rng.below(n - 2)], rows[rng.below(n - 2)]
                rows.insert(rng.below(len(rows) + 1), [x + 3 * y for x, y in zip(a, b)])
            M = Matrix(rows)
            ker = kernel_basis(M)
            assert ker.rank == n - rational_rank(rows)
            for row in ker.rows:
                assert M.apply(row) == (0,) * n
            # The whole integer kernel, not a sublattice of it: the basis
            # is primitive, so its maximal minors have gcd 1.
            k = ker.rank
            g = 0
            for J in combinations(range(n), k):
                g = gcd(g, Matrix([[row[j] for j in J] for row in ker.rows]).det())
            assert g == 1
            x0 = tuple(rng.int_in(-5, 5) for _ in range(n))
            x = solve_integer(M, M.apply(x0))
            assert x is not None and M.apply(x) == M.apply(x0)
        M = Matrix([[rng.int_in(-9, 9) for _ in range(n)] for _ in range(n)])
        assert M.det() != 0
        for _ in range(4):
            b = tuple(rng.int_in(-9, 9) for _ in range(n))
            x = solve_integer(M, b)
            exact = M.inverse().apply(b)
            if x is None:
                assert any(type(v) is Fraction for v in exact)
            else:
                assert x == exact


# -- solve and kernel pins -------------------------------------------------

def _lattice_cases(count=1000):
    """`count` seeded integer matrices with n <= 8 rows: n x n, n x (n+1)
    and n x (n-1) with entries in [-9, 9], and a product of n x k and
    k x m factors with entries in [-3, 3], k < min(n, m), so of rank <= k."""
    rng = seeded(1013)
    cases = []
    for i in range(count):
        n = 1 + i % 8
        shape = i // 8 % 4
        if shape < 3:
            cols = max(1, n + (0, 1, -1)[shape])
            cases.append([[rng.int_in(-9, 9) for _ in range(cols)] for _ in range(n)])
            continue
        cols = max(1, n + rng.int_in(-1, 1))
        k = rng.below(min(n, cols))
        left = [[rng.int_in(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.int_in(-3, 3) for _ in range(cols)] for _ in range(k)]
        cases.append([[sum(left[i][t] * right[t][j] for t in range(k))
                       for j in range(cols)] for i in range(n)])
    return cases


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_kernel_and_fixed_sublattice_golden():
    # Kernels and +-1-eigenvector lattices are canonical HNF: pinned exactly.
    out = []
    for rows in _lattice_cases():
        M = Matrix(rows)
        out.append(kernel_basis(M).rows)
        if M.rows == M.cols:
            out += [fixed_sublattice(M, 1).rows, fixed_sublattice(M, -1).rows]
    assert _digest(out) == (
        "f44732e0c62c57ee815c4d3e5b4a6be86fa75980c884157dc8049ac80b0067b7")


def test_solve_integer_golden():
    # Solvability is pinned on every input and the answer wherever it is
    # unique (full column rank); every other answer must solve M x = b.
    rng = seeded(1014)
    solvable, unique = [], []
    for i, rows in enumerate(_lattice_cases()):
        M = Matrix(rows)
        if i % 2:
            b = M.apply(tuple(rng.int_in(-5, 5) for _ in range(M.cols)))
        else:
            b = tuple(rng.int_in(-9, 9) for _ in range(M.rows))
        x = solve_integer(M, b)
        solvable.append(x is not None)
        if x is not None:
            assert all(type(v) is int for v in x) and M.apply(x) == b, rows
        if rational_rank(rows) == M.cols:
            unique.append(x)
    assert sum(solvable) > 500 and len(unique) > 300
    assert _digest(solvable) == (
        "f823c43a803ecc7a00b62a1b44fa7b31456fd3d64030da826a649a3456c5c8a1")
    assert _digest(unique) == (
        "a3ab1c28d50d558cee0eeecf555c2221d58ae2728fa1caa7f7042cbd7b904f04")


def test_finf_extend_golden():
    # Windows of coboundary values, a third perturbed.  Two or more
    # relations make u unique, so it is pinned; one relation leaves a line
    # of answers, each checked against every relation.
    rng = seeded(1015)
    out = []
    for i in range(600):
        xi = (rng.int_in(-9, 9), rng.int_in(-9, 9))
        r = rng.int_in(1, 4)
        values = {k: vec_sub(xi, finf_generator(k).apply(xi)) for k in range(-r, r + 1)}
        if i % 3 == 0:
            k = rng.int_in(-r, r)
            values[k] = (values[k][0] + rng.int_in(1, 3), values[k][1])
        n = rng.int_in(1, r) * (1 if rng.below(2) else -1)
        window = sorted(values) if i % 4 else [0, n]
        u = finf_extend(n, values, window)
        relations = [k for k in window if k + n in window]
        if len(relations) > 1:
            out.append(u)
        elif u is not None:
            g = finf_generator(n)
            bn = B_GEN ** n
            assert vec_sub(values[n], bn.apply(values[0])) == \
                (Matrix.identity(2) - g).apply(u)
    assert len(out) > 400 and out.count(None) > 100
    assert _digest(out) == (
        "975b7240fc5c1b2a78b222a7690ad8d48a1d985bf23bc08f14a76ab0954dab63")


def test_solve_and_kernel_rational_matrix():
    M = Matrix([[Fraction(1, 2), Fraction(1, 3)]])
    x = solve_integer(M, (Fraction(1, 6),))
    assert all(type(v) is int for v in x) and M.apply(x) == (Fraction(1, 6),)
    assert solve_integer(M, (Fraction(1, 12),)) is None
    assert kernel_basis(M).rows == ((2, -3),)


def test_rational_matrix_runs_on_its_int_rows(monkeypatch):
    # A rational M = N / lam (N = M.num) has the U and V of snf(N), and D_N /
    # lam for D; the kernel of N; and the solutions of N x = lam b, b of ints
    # or of "p/q" entries, for tall, square and wide M, of full column rank
    # or not.  No Fraction is made
    # while lattice runs: M's entries were read before, and every answer
    # after.
    rng = seeded(3701)
    cases = []
    while len(cases) < 200:
        rows, cols = rng.int_in(1, 5), rng.int_in(1, 5)
        entries = [[Fraction(rng.int_in(-9, 9), rng.int_in(1, 6)) for _ in range(cols)]
                   for _ in range(rows)]
        if cols > 1 and rng.below(4) == 0:   # a column repeated: no full column rank
            for row in entries:
                row[-1] = 2 * row[0]
        M = Matrix(entries)
        if M.integral:
            continue
        N = Matrix(M.num)
        x0 = [rng.int_in(-5, 5) for _ in range(cols)]
        bs = [N.apply(x0), tuple(rng.int_in(-9, 9) for _ in range(rows))]
        bs += [M.apply(x0), tuple(Fraction(v, 6) for v in bs[1])]   # "p/q" entries
        cases.append((M, N, bs))
    assert {"tall", "square", "wide"} == {
        "tall" if M.rows > M.cols else "wide" if M.rows < M.cols else "square"
        for M, _, _ in cases}
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", forbidden("Fraction.__new__"))
        got = [(snf(M), kernel_basis(M), [solve_integer(M, b) for b in bs])
               for M, _, bs in cases]
    solved = 0
    for (M, N, bs), ((U, D, V), kernel, xs) in zip(cases, got):
        U_N, D_N, V_N = snf(N)
        assert (U, V) == (U_N, V_N) and U * M * V == D, M
        want = Matrix([[Fraction(x, M.lam) for x in row] for row in D_N.num])
        assert D == want and ([(type(x), x) for row in D.data for x in row]
                              == [(type(x), x) for row in want.data for x in row])
        assert kernel == kernel_basis(N)
        for b, x in zip(bs, xs):
            assert x == solve_integer(N, [M.lam * v for v in b]), (M, b)
            if x is not None:
                assert M.apply(x) == b
                solved += 1
    assert solved >= len(cases)


def _differential_cases():
    """Seeded matrices M, each with a solvable b = M x0 and a random b:
    square n = 1..16; tall with 1..4 extra rows, either random or integer
    combinations of the first n rows (the random b then obeys the same
    combinations, so it is consistent on the extra rows); wide; square of
    rank k < n; and rational M and/or b with denominators <= 6."""
    rng = seeded(2701)

    def ints(r, c):
        return [[rng.int_in(-9, 9) for _ in range(c)] for _ in range(r)]

    def rational(r, c):
        return [[Fraction(rng.int_in(-9, 9), rng.int_in(1, 6)) for _ in range(c)]
                for _ in range(r)]

    def add(rows, b=None):
        M = Matrix(rows)
        x0 = tuple(rng.int_in(-5, 5) for _ in range(M.cols))
        if b is None:
            b = tuple(rng.int_in(-9, 9) for _ in range(M.rows))
        cases.append((M, (M.apply(x0), tuple(b))))

    cases = []
    for n in range(1, 17):
        for _ in range(3):
            add(ints(n, n))
    for n in range(1, 9):
        for extra in range(1, 5):
            add(ints(n + extra, n))
            top = ints(n, n)
            combos = [[rng.int_in(-2, 2) for _ in range(n)] for _ in range(extra)]
            b = [rng.int_in(-9, 9) for _ in range(n)]
            add(top + [[sum(c * row[j] for c, row in zip(combo, top)) for j in range(n)]
                       for combo in combos],
                b + [sum(map(mul, combo, b)) for combo in combos])
    for m in range(1, 8):
        for n in range(m + 1, m + 4):
            add(ints(m, n))
    for n in range(2, 9):
        for k in range(n):
            left = [[rng.int_in(-3, 3) for _ in range(k)] for _ in range(n)]
            right = [[rng.int_in(-3, 3) for _ in range(n)] for _ in range(k)]
            add([[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                 for i in range(n)])
    for n in range(1, 7):
        for r in (n, n + 2):
            add(rational(r, n))
            add(ints(r, n), rational(1, r)[0])
            add(rational(r, n), rational(1, r)[0])
    return cases


def test_solve_integer_and_kernel_differential():
    # Every answer solves M x = b, and every None is confirmed by the
    # Hermite basis of M's columns; all answers and kernels are pinned.
    answers, kernels = [], []
    for M, bs in _differential_cases():
        kernels.append(kernel_basis(M).rows)
        columns = hnf(list(zip(*M.data)), dim=M.rows)
        for b in bs:
            x = solve_integer(M, b)
            answers.append(x)
            if x is None:
                assert not columns.contains(b), (M, b)
            else:
                assert all(type(v) is int for v in x) and M.apply(x) == b, (M, b)
    assert len(answers) == 2 * len(kernels) and answers.count(None) > 100
    assert _digest(answers) == (
        "c697c1a7b7e6b6571ab56259510392c7d78c12a7dec93a124b7434c8b747a88c")
    assert _digest(kernels) == (
        "8e308a35c50c7d145bdebcab3a81e2841dc7c9ade407f2669eebd77927413c40")


def test_solve_integer_square_n32_n40_within_a_second():
    # On these inputs the Hermite transform of [M^T | I] takes 4.3 s of CPU
    # per call (n = 32, seed 7) and over 190 s (n = 32, seed 8; n = 40, seed
    # 1) under CPython 3.11 on a Xeon core.  A square M of full rank has at
    # most one solution, found by one fraction-free pass.
    for n, seeds in ((32, (7, 8)), (40, (1, 2))):
        for seed in seeds:
            rng = seeded(3200 + 10 * n + seed)
            M = Matrix([[rng.int_in(-9, 9) for _ in range(n)] for _ in range(n)])
            x0 = tuple(rng.int_in(-9, 9) for _ in range(n))
            b = tuple(rng.int_in(-9, 9) for _ in range(n))
            t0 = time.process_time()
            x = solve_integer(M, M.apply(x0))
            assert time.process_time() - t0 <= 1.0, (n, seed)
            assert x == x0
            t0 = time.process_time()
            x = solve_integer(M, b)
            assert time.process_time() - t0 <= 1.0, (n, seed)
            assert x is None
            exact = [sum(map(mul, row, b)) for row in _gauss_jordan_inverse(M)]
            assert any(v.denominator != 1 for v in exact)


def test_fixed_sublattice():
    t = Matrix([[1, 1], [0, 1]])
    plus = fixed_sublattice(t, 1)
    assert plus.rows == ((1, 0),)
    assert fixed_sublattice(t, -1).is_zero
    with pytest.raises(PreconditionError):
        fixed_sublattice(t, 2)
    with pytest.raises(ShapeError):
        fixed_sublattice(Matrix([[1, 0, 0], [0, 1, 0]]), 1)


def test_content():
    assert content((4, 6)) == 2
    assert content((0, 0, 0)) == 0
    assert content((-3, 0, 9)) == 3
    assert content(()) == 0 and content((-7,)) == 7
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        content((2, Fraction(1, 2)))


def test_hnf_invariant_under_unimodular_mix():
    rng = seeded(44)
    for _ in range(40):
        n = 2 + rng.below(2)
        rows = [tuple(rng.int_in(-8, 8) for _ in range(n)) for _ in range(n)]
        basis = hnf(rows)
        u = random_unimodular(rng, len(rows))
        as_matrix = Matrix(rows)
        mixed = (u * as_matrix).data
        assert hnf(mixed, dim=n) == basis
