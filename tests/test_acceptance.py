"""Acceptance suite: nine exact property suites over fixed seeded samples and
exhaustive grids.  Each test prints one machine-readable pass/fail line.

Everything is exact integer/rational arithmetic; numpy is used only as a
vectorized engine for large integer grids (with explicit overflow guards),
never with floating point.
"""

import functools
from fractions import Fraction

import numpy as np

from exactgroups.affine import (AffineElement, affine_automorphism,
                                conj_class_ball, fc_witness,
                                icc_affine_cyclic, invariant_lattice)
from exactgroups.bruhat import (PERM_MATRICES, bruhat_decompose, case4_witness,
                                cell_of, fact3_display_factorization,
                                fact_check, grid_rationals)
from exactgroups.cocycle import (B_GEN, CocycleSpec, central_cocycle,
                                 cocycle_eval, finf_extend, finf_generator,
                                 gamma1_cocycle, gamma1_obstruction,
                                 parity_domain, solve_full_coboundary)
from exactgroups.lattice import fixed_sublattice, hnf, snf, solve_integer
from exactgroups.matrix import Matrix, vec_add, vec_sub
from exactgroups.prng import SplitMix64
from exactgroups.sl2 import (S_ALT, T_ALT, CongruenceKind,
                             congruence_membership, order_of,
                             sample_subgroup_element)
from tests.conftest import (SL3_ELEMENTARIES, det1_matrices, random_sl3,
                            random_unimodular, seeded)


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL — {title}")
                raise
            print(f"ACCEPTANCE {num}: PASS — {title}")
        return wrapper
    return deco


# -- 1. coboundary lemma ---------------------------------------------------

@criterion(1, "coboundary lemma on the full 101x101 value grid x 200 words")
def test_criterion_1_coboundary_lemma():
    # The extension is linear in the chosen value (x, y), so the value of the
    # induced cocycle on a fixed word w is x*c_w(1,0) + y*c_w(0,1), and the
    # candidate coboundary vector is xi = (-y, x+y).  Both basis columns are
    # computed through the shipped solver and evaluator, verified exactly,
    # and the whole grid is then checked with vectorized integer arithmetic.
    gens = (T_ALT, S_ALT)
    c_s_x, wit_x = solve_full_coboundary((1, 0))
    c_s_y, wit_y = solve_full_coboundary((0, 1))
    spec_x = CocycleSpec(gens, ((1, 0), c_s_x))
    spec_y = CocycleSpec(gens, ((0, 1), c_s_y))
    assert wit_x.xi == (0, 1) and wit_y.xi == (-1, 1)

    grid = np.arange(-50, 51, dtype=np.int64)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    rng = SplitMix64(20240101)
    spot = SplitMix64(555)
    words_checked = 0
    for _ in range(200):
        ntok = rng.below(21)
        word = tuple((rng.below(2), rng.int_in(-3, 3)) for _ in range(ntok))
        m = Matrix.identity(2)
        for idx, exp in word:
            m = m * gens[idx] ** exp
        ex = cocycle_eval(spec_x, word)
        ey = cocycle_eval(spec_y, word)
        # exact verification of the two basis columns
        assert ex == vec_sub(wit_x.xi, m.apply(wit_x.xi))
        assert ey == vec_sub(wit_y.xi, m.apply(wit_y.xi))
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        bound = max(abs(v) for v in (a, b, c, d, *ex, *ey))
        assert bound < 2 ** 40  # no int64 overflow possible below
        # full grid: c_w(x,y) must equal xi - m xi with xi = (-y, x+y)
        lhs1 = ex[0] * X + ey[0] * Y
        lhs2 = ex[1] * X + ey[1] * Y
        rhs1 = -Y - (a * (-Y) + b * (X + Y))
        rhs2 = (X + Y) - (c * (-Y) + d * (X + Y))
        assert np.array_equal(lhs1, rhs1) and np.array_equal(lhs2, rhs2)
        # independent exact spot checks straight through the library
        for _ in range(3):
            x, y = spot.int_in(-50, 50), spot.int_in(-50, 50)
            c_s, wit = solve_full_coboundary((x, y))
            val = cocycle_eval(CocycleSpec(gens, ((x, y), c_s)), word)
            assert val == vec_sub(wit.xi, m.apply(wit.xi))
        words_checked += 1
    assert words_checked == 200


# -- 2. Gamma_1(N) ---------------------------------------------------------

@criterion(2, "Gamma_1(N) cocycle identity and integrality obstruction")
def test_criterion_2_gamma1():
    rng = SplitMix64(7)
    for N in (2, 3, 5, 12):
        kind = CongruenceKind("gamma1", N)
        for _ in range(500):
            g = sample_subgroup_element(kind, rng.below(12) + 1, rng.next_u64())
            h = sample_subgroup_element(kind, rng.below(12) + 1, rng.next_u64())
            lhs = gamma1_cocycle(N, g * h)
            rhs = vec_add(g.apply(gamma1_cocycle(N, h)), gamma1_cocycle(N, g))
            assert lhs == rhs
    mats = det1_matrices(10)
    assert len(mats) == 1012  # the full det-1 census at bound 10
    for N in (2, 3, 4, 6):
        kind = CongruenceKind("gamma1", N)
        for s in mats:
            assert gamma1_obstruction(N, s) == congruence_membership(kind, s)


# -- 3. central parity cases -----------------------------------------------

@criterion(3, "central-value parity cases, exhaustive entries in [-5,5]")
def test_criterion_3_parity():
    mats = det1_matrices(5)
    assert len(mats) == 308  # the full det-1 census at bound 5
    for m, n in ((2, 0), (1, 0), (0, 1), (1, 1)):
        case = parity_domain(m, n)
        for g in mats:
            assert case.accepts(g) == (central_cocycle(m, n, g) is not None)


# -- 4. infinite-rank free family ------------------------------------------

@criterion(4, "free-family shift extension: obstruction and witness u=(0,-2n)")
def test_criterion_4_finf():
    ident = Matrix.identity(2)
    for n in range(-10, 11):
        if n == 0:
            continue
        radius = abs(n) + 4
        window = list(range(-radius, radius + 1))
        # the family value (1,1) away from 0 admits no shift extension
        blocked = {k: ((0, 0) if k == 0 else (1, 1)) for k in window}
        assert finf_extend(n, blocked, window) is None
        # the coboundary family extends, with the predicted u
        cob = {k: (4 * k, 8 * k * k) for k in window}
        u = finf_extend(n, cob, window)
        assert u == (0, -2 * n)
        bn = B_GEN ** n
        for k in window:
            if k + n in cob:
                assert cob[k + n] == vec_add(
                    bn.apply(cob[k]), (ident - finf_generator(k + n)).apply(u))
        if abs(n) <= 4:  # radius-4 windows already instantiate relations
            small = {k: (4 * k, 8 * k * k) for k in range(-4, 5)}
            assert finf_extend(n, small, sorted(small)) == (0, -2 * n)


# -- 5. Bruhat -------------------------------------------------------------

def _random_borel(rng):
    diag = (1, -1, 2, Fraction(1, 2), 3)
    return Matrix([
        [diag[rng.below(5)], rng.int_in(-2, 2), rng.int_in(-2, 2)],
        [0, diag[rng.below(5)], rng.int_in(-2, 2)],
        [0, 0, diag[rng.below(5)]]])


@criterion(5, "Bruhat roundtrip, Borel invariance, Facts 1-4, golden display")
def test_criterion_5_bruhat():
    rng = SplitMix64(31337)
    for _ in range(1000):
        g = random_sl3(rng, length=rng.below(9) + 2)
        fac = bruhat_decompose(g)
        assert fac.product() == g
        assert fac.A.is_upper_triangular() and fac.B.is_upper_triangular()
        assert fac.det_pair() == (1, 1)
        sigma = cell_of(g)
        assert sigma == fac.sigma
        for _ in range(50):
            assert cell_of(_random_borel(rng) * g * _random_borel(rng)) == sigma

    # Facts 1 and 2: sampled closure of the zero patterns
    assert fact_check(1, seed=2024, count=200, length=10)
    assert fact_check(2, seed=2024, count=200, length=10)

    _fact34_exhaustive_grid()
    _fact34_through_library(rng)
    _fact3_golden_display(rng)
    _case4_grid()


# Expected southwest rank profile per permutation (col -> row convention):
# e(i, j) = #{k <= j : sigma(k) >= i}.  Rows i = 1 and the corner values are
# shared by every permutation, so only (e21, e22, e31, e32) discriminate.
_PROFILE_KEY = {
    "id": (0, 1, 0, 0),
    "(12)": (1, 1, 0, 0),
    "(13)": (1, 2, 1, 1),
    "(23)": (0, 1, 0, 1),
    "(123)": (1, 2, 0, 1),
    "(132)": (1, 1, 1, 1),
}


def _match_cells(r21, r22, r31, r32, target):
    """Boolean grid: rank profile equals the target permutation's profile.

    Also asserts each grid point matches exactly one permutation, i.e. the
    profile table is a partition.
    """
    total = np.zeros(np.broadcast(r21, r22, r31, r32).shape, dtype=np.int64)
    hit = None
    for name, (e21, e22, e31, e32) in _PROFILE_KEY.items():
        m = (r21 == e21) & (r22 == e22) & (r31 == e31) & (r32 == e32)
        total = total + m
        if name == target:
            hit = m
    assert (total == 1).all()
    return hit


def _fact34_exhaustive_grid():
    """Facts 3 and 4 over all 9,261,000 grid matrices, vectorized.

    For g = [[x,y,z],[0,a,b],[0,0,c]] with nonzero diagonal, conjugation by
    the relevant signed permutation gives
        fact 3:  h = p13  g p13  = [[-c,0,0],[b,a,0],[z,y,-x]]
        fact 4:  h = p132 g p132 = [[b,0,a],[c,0,0],[z,x,y]]
    whose southwest ranks are exact integer zero-tests of entries and
    cross-multiplied 2x2 minors; the Bruhat cell is read off by matching the
    profile against every permutation.  The same computation is re-run
    through cell_of/fact_check on slices and samples in
    _fact34_through_library to tie this reduction to the shipped code.
    """
    vals = grid_rationals(3, nonzero=False)
    num = np.array([v.numerator for v in vals], dtype=np.int64)
    den = np.array([v.denominator for v in vals], dtype=np.int64)
    nz = num != 0
    # fact 3, broadcast axes (y, z, a, b); x, c enter no discriminating rank
    # once nonzero (they sit alone on otherwise-zero rows/columns of h).
    yn, yd = num[:, None, None, None], den[:, None, None, None]
    zn, zd = num[None, :, None, None], den[None, :, None, None]
    an, ad = num[nz][None, None, :, None], den[nz][None, None, :, None]
    bn, bd = num[None, None, None, :], den[None, None, None, :]
    # southwest ranks of h3 = [[-c,0,0],[b,a,0],[z,y,-x]]
    r31 = (zn != 0).astype(np.int64)
    r32 = ((zn != 0) | (yn != 0)).astype(np.int64)
    r21 = ((bn != 0) | (zn != 0)).astype(np.int64)
    minor = bn * yn * ad * zd - an * zn * bd * yd  # b*y - a*z, cross-multiplied
    r22 = np.where(minor != 0, 2, 1)
    in_cell = _match_cells(r21, r22, r31, r32, "(123)")
    rhs = (yn != 0) & (bn != 0) & (zn == 0) & np.ones_like(an, dtype=bool)
    assert in_cell.shape == (15, 15, 14, 15)
    assert np.array_equal(in_cell, rhs)
    # fact 4: ranks of h4 = [[b,0,a],[c,0,0],[z,x,y]] (x, a, c nonzero):
    # r21 = 1, r22 = 2, r32 = 1 always; only r31 = [z != 0] discriminates.
    z = num
    one = np.ones_like(z)
    in_123 = _match_cells(one, 2 * one, (z != 0).astype(np.int64), one, "(123)")
    in_13 = _match_cells(one, 2 * one, (z != 0).astype(np.int64), one, "(13)")
    assert np.array_equal(in_123, z == 0)
    assert np.array_equal(in_13, z != 0)


def _fact34_through_library(rng):
    """Tie the vectorized reduction back to the shipped cell machinery."""
    vals = grid_rationals(3, nonzero=False)
    nonzero = grid_rationals(3, nonzero=True)
    # full (y, z, b) slices at two settings of the irrelevant parameters
    for x, a, c in ((1, 1, 1), (Fraction(-2, 3), Fraction(1, 2), -3)):
        for y in vals:
            for z in vals:
                for b in vals:
                    g = Matrix([[x, y, z], [0, a, b], [0, 0, c]])
                    assert fact_check(3, g)
                    assert fact_check(4, g)
    # seeded random samples from the full six-parameter grid
    for _ in range(1500):
        g = Matrix([[nonzero[rng.below(14)], vals[rng.below(15)], vals[rng.below(15)]],
                    [0, nonzero[rng.below(14)], vals[rng.below(15)]],
                    [0, 0, nonzero[rng.below(14)]]])
        assert fact_check(3, g)
        assert fact_check(4, g)


def _fact3_golden_display(rng):
    # pinned entrywise at the unit point
    a_inv, b_mat = fact3_display_factorization(1, 1, 1, 1, 1)
    assert a_inv == Matrix([[-1, -1, 1], [0, 1, 0], [0, 0, 1]])
    assert b_mat == Matrix([[1, 1, 0], [0, 1, -1], [0, 0, -1]])
    # and as an identity across nonzero grid parameters
    p13, p123 = PERM_MATRICES["(13)"], PERM_MATRICES["(123)"]
    nonzero = grid_rationals(3, nonzero=True)
    for _ in range(500):
        x, y, a, b, c = (nonzero[rng.below(14)] for _ in range(5))
        g = Matrix([[x, y, 0], [0, a, b], [0, 0, c]])
        a_inv, rhs = fact3_display_factorization(x, y, a, b, c)
        assert a_inv * (p13 * g * p13) == p123 * rhs


def _case4_grid():
    nonzero = grid_rationals(3, nonzero=True)
    c_vals = grid_rationals(3, nonzero=False)
    for b in nonzero:
        for e in nonzero:
            x_ref = case4_witness(b, e)
            for c in c_vals:
                X = case4_witness(b, e, c)
                assert X == x_ref  # the witness is independent of c
                B = Matrix([[1, b, c], [0, 1, e], [0, 0, 1]])
                conj = B * X * B.inverse()
                assert conj[0, 2] == 0
                assert conj[0, 1] != 0 and conj[1, 2] != 0
                assert X.integral


# -- 6. ICC ----------------------------------------------------------------

@criterion(6, "ICC trichotomy and conjugacy-ball growth oracle")
def test_criterion_6_icc():
    minus_i = -Matrix.identity(2)
    checked = 0
    for g in det1_matrices(5):
        if order_of(g) is not None:
            continue
        checked += 1
        icc = icc_affine_cyclic(g)
        assert icc == (abs(g.trace()) > 2)
        trivial = (fixed_sublattice(g, 1).is_zero
                   and fixed_sublattice(g, -1).is_zero)
        assert icc == trivial
        gens = [AffineElement((0, 0), g), AffineElement((0, 0), minus_i)]
        if icc:
            x = AffineElement((1, 0), Matrix.identity(2))
            counts = [conj_class_ball(x, gens, r) for r in range(6)]
            assert all(p < q for p, q in zip(counts, counts[1:]))
        else:
            v, _sign = fc_witness(g)
            x = AffineElement(v, Matrix.identity(2))
            counts = [conj_class_ball(x, gens, r) for r in range(6)]
            assert counts[5] <= 2 and counts[2] == counts[5]
    assert checked == 256  # infinite-order members of the bound-5 census


# -- 7. invariant lattices -------------------------------------------------

@criterion(7, "orbit-closure lattice = content * Z^n with index content^n")
def test_criterion_7_invariant_lattice():
    from exactgroups.lattice import content
    from exactgroups.sl2 import S, T
    gens_by_dim = {2: [S, T], 3: list(SL3_ELEMENTARIES)}
    for n, gens in gens_by_dim.items():
        coords = range(-6, 7)
        vecs = ([(a, b) for a in coords for b in coords] if n == 2 else
                [(a, b, c) for a in coords for b in coords for c in coords])
        for v in vecs:
            basis, index = invariant_lattice(gens, [v])
            d = content(v)
            if d == 0:
                assert basis.is_zero and index is None
                continue
            expect = hnf([tuple(d * int(i == j) for j in range(n))
                          for i in range(n)])
            assert basis == expect
            assert index == d ** n


# -- 8. automorphisms ------------------------------------------------------

@criterion(8, "unimodular-twist automorphism is a homomorphism")
def test_criterion_8_automorphism():
    rng = seeded(2718)
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        L = random_unimodular(rng, n)
        xi = tuple(rng.int_in(-6, 6) for _ in range(n))
        phi = affine_automorphism(L, xi)
        for _ in range(100):
            x = AffineElement(tuple(rng.int_in(-4, 4) for _ in range(n)),
                              random_unimodular(rng, n, length=3))
            y = AffineElement(tuple(rng.int_in(-4, 4) for _ in range(n)),
                              random_unimodular(rng, n, length=3))
            assert phi(x * y) == phi(x) * phi(y)


# -- 9. kernel forms -------------------------------------------------------

@criterion(9, "HNF canonicality, SNF chain, integer solve vs bounded search")
def test_criterion_9_kernel():
    rng = seeded(4242)
    # HNF canonical under unimodular mixes
    for _ in range(500):
        n = 2 + rng.below(2)
        rows = Matrix([[rng.int_in(-9, 9) for _ in range(n)] for _ in range(n)])
        u = random_unimodular(rng, n)
        assert hnf(rows.data, dim=n) == hnf((u * rows).data, dim=n)
    # SNF invariants
    for _ in range(500):
        r, c = 1 + rng.below(3), 1 + rng.below(3)
        M = Matrix([[rng.int_in(-20, 20) for _ in range(c)] for _ in range(r)])
        U, D, V = snf(M)
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        assert U.integral and V.integral
        assert U * M * V == D
        diag = [D[i, i] for i in range(min(r, c))]
        assert all(d >= 0 for d in diag)
        for p, q in zip(diag, diag[1:]):
            assert (p == 0 and q == 0) or (p != 0 and q % p == 0)
    # integer solving against a bounded exhaustive search
    box = np.array([(i, j, k) for i in range(-10, 11)
                    for j in range(-10, 11) for k in range(-10, 11)],
                   dtype=np.int64)
    solved = unsolvable = 0
    for trial in range(300):
        M = Matrix([[rng.int_in(-6, 6) for _ in range(3)] for _ in range(3)])
        if trial % 2 == 0:
            x0 = tuple(rng.int_in(-3, 3) for _ in range(3))
            b = M.apply(x0)
        else:
            b = tuple(rng.int_in(-6, 6) for _ in range(3))
        x = solve_integer(M, b)
        if x is not None:
            assert M.apply(x) == b
            solved += 1
        else:
            arr = np.array(M.data, dtype=np.int64)
            hits = np.all(box @ arr.T == np.array(b, dtype=np.int64), axis=1)
            assert not hits.any()
            unsolvable += 1
    assert solved >= 150 and unsolvable > 0
