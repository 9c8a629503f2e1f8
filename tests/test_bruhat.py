"""Unit tests for the 3x3 Bruhat decomposition and the explicit cell facts."""

import hashlib
from fractions import Fraction

import pytest

from exactgroups.bruhat import (_FACT_LETTERS, H_GENERATORS, PERM_MATRICES, PERMUTATIONS,
                                bruhat_decompose, case3_normalize,
                                case4_witness, cell_of,
                                fact3_display_factorization, fact_check,
                                grid_rationals)
from exactgroups.matrix import Matrix, PreconditionError, _walk
from exactgroups.prng import SplitMix64
from tests.conftest import (forbid_fraction_arithmetic, forbidden, random_sl3, rational_rank,
                            seeded)


# -- representatives -------------------------------------------------------

def test_perm_matrices_in_sl3():
    for name, p in PERM_MATRICES.items():
        assert p.det() == 1
        sigma = PERMUTATIONS[name]
        for j in range(3):
            col = [p[i, j] for i in range(3)]
            assert sorted(abs(x) for x in col) == [0, 0, 1]
            assert abs(col[sigma[j] - 1]) == 1
    # composition sanity: (12)(23) as matrices lands in the (123)-family cosets
    assert set(PERMUTATIONS) == {"id", "(12)", "(13)", "(23)", "(123)", "(132)"}


def test_cell_of_representatives():
    for name, p in PERM_MATRICES.items():
        assert cell_of(p) == name
    assert cell_of(Matrix.identity(3)) == "id"
    assert cell_of(Matrix([[1, 2, 3], [0, 4, 5], [0, 0, 6]])) == "id"
    # generic (dense) matrices land in the big cell (13)
    assert cell_of(Matrix([[1, 2, 3], [4, 5, 7], [2, 2, 3]])) == "(13)"


def _cell_by_rank_profile(g, ranks=None):
    """The sigma with rank(g[i..3, 1..j]) = #{k <= j : sigma(k) >= i}.

    `ranks` optionally caches the rank of each submatrix seen, by its rows.
    """
    ranks = {} if ranks is None else ranks
    profile = {}
    for i in range(1, 4):
        for j in range(1, 4):
            sub = tuple(row[:j] for row in g.data[i - 1:])
            if sub not in ranks:
                ranks[sub] = rational_rank(sub)
            profile[(i, j)] = ranks[sub]
    names = [name for name, sigma in PERMUTATIONS.items()
             if all(profile[(i, j)] == sum(1 for k in range(j) if sigma[k] >= i)
                    for i in range(1, 4) for j in range(1, 4))]
    assert len(names) == 1
    return names[0]


def test_cell_of_matches_rank_profile():
    # Every invertible matrix with entries in {-1, 0, 1}: all zero patterns of
    # the southwest corner, and lower-left 2x2 minors that vanish or not.
    seen, ranks = set(), {}
    for code in range(3 ** 9):
        entries = [(code // 3 ** k) % 3 - 1 for k in range(9)]
        g = Matrix([entries[0:3], entries[3:6], entries[6:9]])
        if g.det() == 0:
            continue
        want = _cell_by_rank_profile(g, ranks)
        assert cell_of(g) == want, g
        seen.add(want)
    assert seen == set(PERMUTATIONS)
    half, third = Fraction(1, 2), Fraction(-1, 3)
    for rows in ([[1, 0, 0], [half, 1, 1], [third, Fraction(-2, 3), 5]],  # minor 0
                 [[1, 2, 3], [half, 1, 0], [third, 1, 5]],
                 [[half, 1, 0], [third, 0, 0], [0, 0, 2]],
                 [[half, 1, 0], [0, third, 1], [0, 0, half]],
                 [[0, half, 1], [third, 0, 0], [0, half, 2]],
                 [[half, 0, 0], [0, third, 0], [0, Fraction(5, 7), 1]]):
        g = Matrix(rows)
        assert cell_of(g) == _cell_by_rank_profile(g), g


def test_cell_of_errors():
    with pytest.raises(PreconditionError):
        cell_of(Matrix([[1, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        cell_of(Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))


# -- decomposition ---------------------------------------------------------

def _check_factorization(g):
    fac = bruhat_decompose(g)
    assert fac.product() == g
    assert fac.A.is_upper_triangular() and fac.B.is_upper_triangular()
    assert cell_of(g) == fac.sigma
    return fac


def test_decompose_examples():
    fac = _check_factorization(Matrix.identity(3))
    assert fac.sigma == "id"
    for p in PERM_MATRICES.values():
        assert _check_factorization(p).sigma == cell_of(p)


def test_decompose_random_roundtrip():
    rng = seeded(99)
    for _ in range(200):
        g = random_sl3(rng, length=rng.below(8) + 2)
        fac = _check_factorization(g)
        da, db = fac.det_pair()
        assert da == 1 and db == 1   # SL3 input: both factors det 1


def test_decompose_rational_entries():
    g = Matrix([[Fraction(1, 2), 2, 0], [3, Fraction(-2, 3), 1], [0, 1, 5]])
    _check_factorization(g)


def test_decompose_errors():
    with pytest.raises(PreconditionError):
        bruhat_decompose(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(PreconditionError):
        bruhat_decompose(Matrix([[0] * 3] * 3))
    with pytest.raises(PreconditionError, match="expected a 3x3 matrix"):
        bruhat_decompose(Matrix([[1, 0, 0], [0, 1, 0]]))
    # The first, second and third column in turn is left without a pivot.
    for rows in ([[0, 1, 2], [0, 3, 4], [0, 5, 7]],
                 [[1, 2, 0], [Fraction(1, 2), 1, 1], [3, 6, 5]],
                 [[1, 2, 3], [0, 1, 1], [1, 3, 4]]):
        with pytest.raises(PreconditionError, match="matrix is singular"):
            bruhat_decompose(Matrix(rows))


def _factor_digest(count, seed):
    """sha256 over (sigma, A, B, det_pair) of the six representatives and
    `count` seeded invertible matrices on the +-3/<=3 rational grid, a third
    of their entries zero, so every cell occurs."""
    grid = grid_rationals(3)
    rng = seeded(seed)
    inputs = list(PERM_MATRICES.values())
    while len(inputs) < len(PERM_MATRICES) + count:
        g = Matrix([[grid[rng.below(len(grid))] if rng.below(3) else 0
                     for _ in range(3)] for _ in range(3)])
        if g.det() != 0:
            inputs.append(g)
    h = hashlib.sha256()
    cells = set()
    for g in inputs:
        fac = bruhat_decompose(g)
        cells.add(fac.sigma)
        h.update(repr((fac.sigma, fac.A.data, fac.B.data, fac.det_pair())).encode())
    assert cells == set(PERMUTATIONS)
    return h.hexdigest()


def test_decompose_factors_golden():
    # A and B are `bruhat decompose` output, so they are pinned exactly.
    assert _factor_digest(2000, 11) == (
        "7e7f2d873a0e4ed3f14e3c768b48c07cbea1b3519cd6aef3ea6a524fe40b2e2d")


# -- explicit facts --------------------------------------------------------

def test_fact1_fact2_sampled():
    assert fact_check(1, seed=0, count=60)
    assert fact_check(2, seed=0, count=60)
    assert fact_check(1, seed=123456, count=60, length=10)
    assert fact_check(2, seed=123456, count=60, length=10)


def test_fact_walk_matches_matrix_products():
    # Facts 1 and 2 walk int rows (`matrix._walk`); each walk reaches the
    # matrix of the Matrix product over the same SplitMix64 draws, and takes
    # as many.
    for which, p in ((1, PERM_MATRICES["(12)"]), (2, PERM_MATRICES["(23)"])):
        letters = [x for h in H_GENERATORS + (p,) for x in (h, h.inverse())]
        for seed in range(50):
            for length in (8, 10):
                fast, slow = SplitMix64(seed), SplitMix64(seed)
                for _ in range(3):
                    m = Matrix.identity(3)
                    for _ in range(length):
                        m = m * letters[slow.below(len(letters))]
                    got = _walk(_FACT_LETTERS[which], fast, length)
                    assert got == m.data, (which, seed, length)
                assert fast.state == slow.state


def test_h_generators_shape():
    for h in H_GENERATORS:
        assert h.is_upper_triangular()
        assert abs(h.det()) == 1


def test_fact3_iff_cases():
    # in-cell case: (1,2) and (2,3) entries nonzero, (1,3) zero
    assert fact_check(3, Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    # out-of-cell cases
    assert fact_check(3, Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]))
    assert fact_check(3, Matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))
    assert fact_check(3, Matrix([[2, 0, 5], [0, 3, 0], [0, 0, 7]]))
    with pytest.raises(PreconditionError):
        fact_check(3, Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    with pytest.raises(PreconditionError):
        fact_check(5)


def test_fact4_iff_cases():
    assert fact_check(4, Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    assert fact_check(4, Matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))
    assert fact_check(4, Matrix([[2, 0, 3], [0, 1, 0], [0, 0, 5]]))


def test_fact3_fact4_take_no_determinant(monkeypatch):
    # The diagonal decides invertibility of an upper-triangular g, and its
    # conjugate's cell is read without a second singularity test.
    def no_det(self):
        raise AssertionError("det called")
    monkeypatch.setattr(Matrix, "det", no_det)
    g = Matrix([[2, Fraction(1, 3), 0], [0, -1, 4], [0, 0, Fraction(1, 2)]])
    assert fact_check(3, g) and fact_check(4, g)
    for which in (3, 4):
        with pytest.raises(PreconditionError, match="invertible upper-triangular"):
            fact_check(which, Matrix([[1, 2, 3], [0, 0, 1], [0, 0, 1]]))


def test_fact3_display_factorization_golden():
    a_inv, b = fact3_display_factorization(1, 1, 1, 1, 1)
    assert a_inv == Matrix([[-1, -1, 1], [0, 1, 0], [0, 0, 1]])
    assert b == Matrix([[1, 1, 0], [0, 1, -1], [0, 0, -1]])


def test_fact3_display_factorization_identity():
    p13 = PERM_MATRICES["(13)"]
    p123 = PERM_MATRICES["(123)"]
    vals = (1, 2, -1, 3, Fraction(1, 2), -2)
    rng = seeded(5)
    for _ in range(40):
        x, y, a, b, c = (vals[rng.below(len(vals))] for _ in range(5))
        g = Matrix([[x, y, 0], [0, a, b], [0, 0, c]])
        a_inv, rhs = fact3_display_factorization(x, y, a, b, c)
        assert a_inv * (p13 * g * p13) == p123 * rhs
        assert a_inv.is_upper_triangular() and rhs.is_upper_triangular()
    with pytest.raises(PreconditionError):
        fact3_display_factorization(1, 0, 1, 1, 1)


def test_fact3_display_factorization_refuses_other_scalars():
    # A float, a string or a bool was once passed through Fraction() and a
    # matrix came back.
    for bad in (1.5, "1/3", True):
        for k in range(5):
            args = [1, 2, Fraction(1, 3), -1, 1]
            args[k] = bad
            with pytest.raises(TypeError, match="^parameters must be int or Fraction"):
                fact3_display_factorization(*args)
    with pytest.raises(TypeError):
        fact3_display_factorization(True, 1.5, "1/3", 1, 1)


def test_case3_normalize():
    rng = seeded(6)
    p123 = PERM_MATRICES["(123)"]
    found = 0
    for _ in range(400):
        g = random_sl3(rng, length=6)
        if cell_of(g) != "(123)":
            continue
        found += 1
        A2, B2 = case3_normalize(g)
        assert A2 * p123 * B2 == g
        assert A2.is_upper_triangular() and B2.is_upper_triangular()
        assert B2[0, 1] == 0
    assert found >= 5
    with pytest.raises(PreconditionError):
        case3_normalize(Matrix.identity(3))


def test_case4_witness():
    vals = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 3)
    for b in vals:
        for e in vals:
            for c in (0, 1, Fraction(5, 7)):
                B = Matrix([[1, b, c], [0, 1, e], [0, 0, 1]])
                X = case4_witness(b, e, c)
                assert X.integral
                conj = B * X * B.inverse()
                assert conj[0, 2] == 0
                assert conj[0, 1] != 0 and conj[1, 2] != 0
    with pytest.raises(PreconditionError):
        case4_witness(0, 1)
    with pytest.raises(PreconditionError):
        case4_witness(1, 0)


def test_case4_witness_refuses_other_scalars():
    # case4_witness(0.5, "2/3") once returned a matrix.
    for args in ((0.5, Fraction(2, 3)), (Fraction(1, 2), "2/3"), (0.5, "2/3"),
                 (True, 1), (1, False), (1, 1, 0.5), (1, 1, True)):
        with pytest.raises(TypeError, match="^parameters must be int or Fraction"):
            case4_witness(*args)


# -- the Fraction elimination, as a reference ------------------------------
# bruhat_decompose, case3_normalize, cell_of and fact_check run on integers;
# these are the rational versions they replaced, compared entry by entry
# (type included, through repr) on seeded rational inputs.

def _reference_decompose(g):
    """(sigma, A, B) by two-sided Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in g.data]
    A = [[int(i == j) for j in range(3)] for i in range(3)]
    Ci = [[int(i == j) for j in range(3)] for i in range(3)]
    pivots = []
    for col in range(3):
        for pcol, row in enumerate(pivots):
            if m[row][col] != 0:
                f = m[row][col] / m[row][pcol]
                m[row][col] = 0
                Ci[pcol] = [a + f * b for a, b in zip(Ci[pcol], Ci[col])]
        free = [i for i in range(3) if i not in pivots and m[i][col] != 0]
        if not free:
            raise PreconditionError("matrix is singular")
        piv = free[-1]
        for i in free[:-1]:
            f = m[i][col] / m[piv][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
            for r in range(3):
                A[r][piv] += f * A[r][i]
        pivots.append(piv)
    sigma = tuple(piv + 1 for piv in pivots)
    name = next(nm for nm, s in PERMUTATIONS.items() if s == sigma)
    p = PERM_MATRICES[name]
    d = [m[piv][j] / p[piv, j] for j, piv in enumerate(pivots)]
    return name, Matrix(A), Matrix([[dj * x for x in row] for dj, row in zip(d, Ci)])


def _reference_cell(g):
    """The cell from three zero tests and the lower-left 2x2 minor."""
    _, (g21, g22, _), (g31, g32, _) = g.data
    if g31:
        return "(13)" if g21 * g32 != g22 * g31 else "(132)"
    if g21:
        return "(123)" if g32 else "(12)"
    return "(23)" if g32 else "id"


def _reference_fact(which, g):
    if (not g.is_upper_triangular() or g[0, 0] * g[1, 1] * g[2, 2] == 0):
        raise PreconditionError("expected an invertible upper-triangular 3x3 matrix")
    p = PERM_MATRICES["(13)" if which == 3 else "(132)"]
    c = _reference_cell(p * g * p)
    if which == 3:
        return (c == "(123)") == (g[0, 1] * g[1, 2] != 0 and g[0, 2] == 0)
    return ((c == "(123)") == (g[0, 2] == 0)) and ((c == "(13)") == (g[0, 2] != 0))


def _factors(g):
    fac = bruhat_decompose(g)
    return fac.sigma, fac.A, fac.B


def _outcome(fn, *args):
    """repr of fn's result, or of the PreconditionError it raised."""
    try:
        return repr(fn(*args))
    except PreconditionError as exc:
        return f"PreconditionError({exc})"


def _rational(rng, zero_share=5):
    """p/q with |p| <= 10 and 1 <= q <= 10, zero about 1 time in zero_share."""
    if zero_share and rng.below(zero_share) == 0:
        return 0
    return Fraction(rng.int_in(-10, 10), rng.int_in(1, 10))


def _rational3(rng):
    rows = [[_rational(rng) for _ in range(3)] for _ in range(3)]
    if rng.below(25) == 0:   # rank <= 2: row k is a combination of the others
        k = rng.below(3)
        u, v = (_rational(rng, 0) for _ in range(2))
        r1, r2 = (rows[i] for i in range(3) if i != k)
        rows[k] = [u * a + v * b for a, b in zip(r1, r2)]
    return Matrix(rows)


def _upper3(rng):
    return Matrix([[_rational(rng, 6), _rational(rng), _rational(rng)],
                   [0, _rational(rng, 6), _rational(rng)],
                   [0, 0, _rational(rng, 6)]])


def test_decompose_and_cell_match_fraction_reference():
    rng = seeded(2024)
    h = hashlib.sha256()
    singular = 0
    for _ in range(20000):
        g = _rational3(rng)
        try:
            want = _reference_decompose(g)
        except PreconditionError as exc:
            want = cell = f"PreconditionError({exc})"
            singular += 1
        else:
            want, cell = repr(want), repr(want[0])
        fac = _outcome(_factors, g)
        assert fac == want, g
        assert _outcome(cell_of, g) == cell, g
        h.update(f"{fac}\n".encode())
    assert singular >= 500
    assert h.hexdigest() == (
        "4dd323e121a230b1fca4728dfee39cf1363737ac6f7bbf8b237abe503e02f7b5")


def test_case3_normalize_matches_products():
    rng = seeded(2025)
    p123 = PERM_MATRICES["(123)"]
    h = hashlib.sha256()
    for _ in range(2000):
        g = _upper3(rng) * p123 * _upper3(rng)
        name, A, B = _reference_decompose(g) if g.det() else (None, None, None)
        if name != "(123)":
            with pytest.raises(PreconditionError):
                case3_normalize(g)
            continue
        w = Fraction(B[0, 1]) / Fraction(B[1, 1])
        want = (A * Matrix([[1, 0, 0], [0, 1, w], [0, 0, 1]]),
                Matrix([[1, -w, 0], [0, 1, 0], [0, 0, 1]]) * B)
        got = case3_normalize(g)
        assert repr(got) == repr(want), g
        h.update(repr(got).encode())
    assert h.hexdigest() == (
        "8fc75f1d96f92d74d90af9624f7ee555a95cb74e69b90cdcd32552d5d6f0341e")


def test_fact3_fact4_match_conjugate_cell():
    rng = seeded(2026)
    h = hashlib.sha256()
    for n in range(6000):
        g = _upper3(rng)
        if n % 50 == 0:   # one lower entry: refused
            g = Matrix([[x if (i, j) != (2, 0) else 1 for j, x in enumerate(row)]
                        for i, row in enumerate(g.data)])
        for which in (3, 4):
            got = _outcome(fact_check, which, g)
            assert got == _outcome(_reference_fact, which, g), (which, g)
            h.update(got.encode())
    assert h.hexdigest() == (
        "2d3b8b2a9694238bc468d85c83f89c8ba3539ddeb9cc8ceccba03c57cc44e229")


def test_bruhat_paths_take_no_rational_products(monkeypatch):
    g = Matrix([[Fraction(1, 2), 2, 0], [3, Fraction(-2, 3), 1], [0, 1, 5]])
    c3 = Matrix([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    c3q = (Matrix([[Fraction(1, 2), 1, 0], [0, Fraction(-2, 3), 1], [0, 0, 2]])
           * PERM_MATRICES["(123)"]
           * Matrix([[1, Fraction(1, 3), 5], [0, 2, Fraction(3, 4)], [0, 0, Fraction(1, 2)]]))
    singular = Matrix([[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)], [0, 0, 1]])
    u = Matrix([[2, Fraction(1, 3), 0], [0, -1, 4], [0, 0, Fraction(1, 2)]])
    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "det", forbidden("Matrix.det"))
        patch.setattr(Matrix, "__mul__", forbidden("Matrix.__mul__"))
        patch.setattr(Matrix, "__rmul__", forbidden("Matrix.__rmul__"))
        assert bruhat_decompose(g).sigma == cell_of(g) == "(123)"
        A, B = case3_normalize(c3)
        assert B[0, 1] == 0 and cell_of(c3) == "(123)"
        assert fact_check(3, u) and fact_check(4, u)
        with pytest.raises(PreconditionError, match="matrix is singular"):
            cell_of(singular)
    # Nor any Fraction arithmetic: on Fraction inputs the three paths work on
    # the int rows of lam g and make each output entry once.
    with monkeypatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        fac, cell = bruhat_decompose(g), cell_of(g)
        normalized, cell3 = case3_normalize(c3q), cell_of(c3q)
        with pytest.raises(PreconditionError, match="matrix is singular"):
            cell_of(singular)
    assert fac.product() == g and fac.sigma == cell == "(123)"
    (A, B), p123 = normalized, PERM_MATRICES["(123)"]
    assert A * p123 * B == c3q and B[0, 1] == 0 and cell3 == "(123)"
    assert any(type(x) is Fraction for row in A.data + B.data for x in row)


def test_rational_bruhat_paths_make_no_fraction(monkeypatch):
    # On grid-rational inputs, the four paths of the rational workload run on
    # (num, lam) alone: with every Fraction operation forbidden, making one
    # included.  Their answers are checked afterwards, when `data` is read.
    rng = seeded(3601)
    p123 = PERM_MATRICES["(123)"]
    inputs = []
    for n in range(300):
        g = _rational3(rng)
        while not g.det():
            g = _rational3(rng)
        b1, b2, u = _upper3(rng), _upper3(rng), _upper3(rng)
        while not (b1.det() and b2.det() and u.det()):
            b1, b2, u = _upper3(rng), _upper3(rng), _upper3(rng)
        name = list(PERM_MATRICES)[n % 6]
        inputs.append((g, b1 * PERM_MATRICES[name] * b2, name, b1 * p123 * b2, u))
    with monkeypatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        patch.setattr(Fraction, "__new__", forbidden("Fraction.__new__"))
        got = [(bruhat_decompose(g), cell_of(h), case3_normalize(c3), fact_check(3, u),
                fact_check(4, u)) for g, h, _, c3, u in inputs]
    assert any(not g.integral for g, *_ in inputs)
    for (g, h, name, c3, u), (fac, cell, (A, B), fact3, fact4) in zip(inputs, got):
        assert (fac.sigma, fac.A, fac.B) == _reference_decompose(g) and fac.product() == g
        assert cell == name and A * p123 * B == c3 and B[0, 1] == 0
        assert fact3 == _reference_fact(3, u) and fact4 == _reference_fact(4, u)


def test_rational_3x3_product_takes_no_fraction_arithmetic(monkeypatch):
    # A product of two grid Borels runs on the int rows of lam P and mu Q and
    # makes one Fraction per non-integer entry; so does an apply.
    p = Matrix([[Fraction(1, 2), 1, Fraction(-2, 3)], [0, Fraction(3, 2), 2], [0, 0, -3]])
    q = Matrix([[2, Fraction(-1, 3), 0], [0, Fraction(2, 3), Fraction(1, 2)], [0, 0, 1]])
    v = (Fraction(1, 3), -2, Fraction(3, 4))
    with monkeypatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        pq, qp, pv = p * q, q * p, p.apply(v)
    for got, a, b in ((pq, p, q), (qp, q, p)):
        assert got == Matrix([[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
                               for col in zip(*b.data)] for row in a.data])
    assert pv == tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0))
                       for row in p.data)
