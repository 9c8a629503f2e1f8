"""Bruhat decomposition of invertible 3x3 rational matrices with respect to
the upper-triangular Borel subgroup.

Cells are double cosets B p_sigma B indexed by Sym(3); the signed permutation
representatives p_sigma all lie in SL3(Z).  The cell is read from three zero
tests and one 2x2 minor; the factorization is a deterministic Gaussian
elimination.  Both run fraction-free on lam g, lam the lcm of its denominators.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import Matrix, PreconditionError, Record, _scaled as _scaled_rows
from .prng import SplitMix64

# Signed permutation representatives; p_sigma has its column-j entry in
# row sigma(j).
PERM_MATRICES = {
    "id": Matrix.identity(3),
    "(12)": Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
    "(13)": Matrix([[0, 0, -1], [0, 1, 0], [1, 0, 0]]),
    "(23)": Matrix([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
    "(123)": Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    "(132)": Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
}

# sigma as the map column -> row, 1-based triples, read off PERM_MATRICES.
PERMUTATIONS = {name: tuple(1 + next(i for i in range(3) if p[i, j]) for j in range(3))
                for name, p in PERM_MATRICES.items()}
_NAMES = {sigma: name for name, sigma in PERMUTATIONS.items()}


class BruhatFactorization(Record):
    __slots__ = ("A", "sigma", "B")   # A and B upper triangular, invertible

    def product(self):
        return self.A * PERM_MATRICES[self.sigma] * self.B

    def det_pair(self):
        return (self.A.det(), self.B.det())


def cell_of(g):
    """The unique sigma with g in B p_sigma B.

    sigma is the permutation with rank(g[i..3, 1..j]) = #{k <= j : sigma(k)
    >= i} for all i, j.  For invertible g the ranks that differ between cells
    are those of g[3, 1], g[3, 1..2], g[2..3, 1] and g[2..3, 1..2], so the
    cell is read from three zero tests and the lower-left 2x2 minor (of lam g).
    """
    (a, b, c), (d, e, f), (h, i, j) = _scaled(g)[0]
    if a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h) == 0:
        raise PreconditionError("matrix is singular")
    return _cell(d, e, h, i)


def _cell(g21, g22, g31, g32):   # cell_of of an invertible g from four entries
    if g31:
        return "(13)" if g21 * g32 != g22 * g31 else "(132)"
    if g21:
        return "(123)" if g32 else "(12)"
    return "(23)" if g32 else "id"


def _scaled(g):
    """(int rows of lam g, lam) for a 3x3 g, lam the lcm of its denominators."""
    if (g.rows, g.cols) != (3, 3):
        raise PreconditionError("expected a 3x3 matrix")
    return _scaled_rows(g.data)


def _matrix(rows):
    """The Matrix of rows of (n, d) int pairs: n // d where d divides n, else Fraction(n, d)."""
    return Matrix._trusted(tuple(tuple([Fraction(n, d) if n % d else n // d for n, d in row])
                                 for row in rows))


def _madd(p, w, q):   # p + w q for (n, d) int pairs
    return p[0] * w[1] * q[1] + w[0] * q[0] * p[1], p[1] * w[1] * q[1]


def bruhat_decompose(g):
    """Deterministic factorization g = A p_sigma B with A, B upper triangular
    (see _eliminate).  When det(g) = 1 the factors satisfy det A = det B = 1."""
    name, A, B = _eliminate(g)
    return BruhatFactorization(_matrix(A), name, _matrix(B))


def _eliminate(g):
    """(sigma, A, B) of bruhat_decompose, entries as (n, d) int pairs.

    Column by column, the pivot row is the lowest nonzero row without a pivot
    (none: g is singular); clearing the rows i above it, row i -= f row piv,
    gives R g = p_sigma B with R unit upper triangular: B's row j is column
    j's pivot row, signed, and A = R^-1 has A[i][piv] = f.  On the rows m_i /
    s_i of lam g, m_i integer, a step is m_i <- p m_i - a m_piv, s_i <- p s_i.
    """
    (m, lam), s = _scaled(g), [1, 1, 1]
    A = [[(1, 1), (0, 1), (0, 1)], [(0, 1), (1, 1), (0, 1)], [(0, 1), (0, 1), (1, 1)]]
    pivots = []  # pivots[col] is the pivot row of column col
    for col in range(3):
        free = [i for i in range(3) if i not in pivots and m[i][col]]
        if not free:
            raise PreconditionError("matrix is singular")
        piv, p = free[-1], m[free[-1]][col]
        for i in free[:-1]:   # clear free rows above the pivot
            a = m[i][col]
            A[i][piv] = (a * s[piv], p * s[i])
            m[i] = [p * x - a * y for x, y in zip(m[i], m[piv])]
            s[i] *= p
        pivots.append(piv)
    name = _NAMES[tuple(piv + 1 for piv in pivots)]
    p = PERM_MATRICES[name].data
    return name, A, [[(x, p[piv][j] * s[piv] * lam) for x in m[piv]]
                     for j, piv in enumerate(pivots)]


# -- the explicit facts ----------------------------------------------------

H_GENERATORS = (
    Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
)


def _require_upper(g):
    if ((g.rows, g.cols) != (3, 3) or not g.is_upper_triangular()
            or not (g[0, 0] and g[1, 1] and g[2, 2])):
        raise PreconditionError("expected an invertible upper-triangular 3x3 matrix")


def fact3_display_factorization(x, y, a, b, c):
    """The pinned factorization of p13 g p13 for g = [[x,y,0],[0,a,b],[0,0,c]].

    Returns (A_inv, B) with A_inv * (p13 g p13) = p123 * B, valid when
    b*y != 0; all five parameters must be nonzero.
    """
    x, y, a, b, c = (Fraction(v) for v in (x, y, a, b, c))
    if 0 in (x, y, a, b, c):
        raise PreconditionError("all parameters must be nonzero")
    return (Matrix([[-b * y / (a * c), -y / a, 1], [0, 1, 0], [0, 0, 1]]),   # A_inv
            Matrix([[b, a, 0], [0, y, -x], [0, 0, -x]]))                  # B


def grid_rationals(bound, nonzero=False):
    """The sorted rationals p/q with |p| <= bound and 1 <= q <= bound, without
    0 when `nonzero`: the entry grid on which facts 3 and 4 are checked."""
    return sorted({Fraction(p, q) for p in range(-bound, bound + 1)
                   for q in range(1, bound + 1) if p or not nonzero})


def fact_check(which, g=None, seed=0, count=50, length=8):
    """Machine verification of the four explicit facts.

    Facts 1-2 (sampled): words over the upper-triangular generators together
    with p_(12) (resp. p_(23)) stay inside the block subgroup with vanishing
    (3,1),(3,2) entries (resp. (2,1),(3,1)).
    Facts 3-4 (single g, upper triangular): the iff statements relating the
    cell of the conjugate by p_(13) resp. p_(132) to the entries of g.
    """
    if which in (1, 2):
        p = PERM_MATRICES["(12)" if which == 1 else "(23)"]
        letters = [x for h in H_GENERATORS + (p,) for x in (h, h.inverse())]
        rng = SplitMix64(seed)
        zero_at = ((2, 0), (2, 1)) if which == 1 else ((1, 0), (2, 0))
        for _ in range(count):
            m = Matrix.identity(3)
            for _ in range(length):
                m = m * letters[rng.below(len(letters))]
            if any(m[i, j] != 0 for i, j in zero_at):
                return False
        return True
    if which in (3, 4):
        _require_upper(g)
        # p g p, invertible with g (no det), reads g: for g = [[x,y,z],[0,a,b],[0,0,c]],
        # p13 g p13 = [[-c,0,0],[b,a,0],[z,y,-x]], p132 g p132 = [[b,0,a],[c,0,0],[z,x,y]].
        (x, y, z), (_, a, b), (_, _, c) = g.data
        if which == 3:
            return (_cell(b, a, z, y) == "(123)") == (y != 0 and b != 0 and z == 0)
        cell = _cell(c, 0, z, x)
        return ((cell == "(123)") == (z == 0)) and ((cell == "(13)") == (z != 0))
    raise PreconditionError(f"unknown fact {which!r}")


def case3_normalize(g):
    """Rebalance a cell-(123) factorization so the right factor has zero (1,2) entry.

    Uses the identity p123 E12(w) = E23(w) p123: with w = B12/B22 the factor
    E12(w) moves across the permutation and is absorbed into A.
    """
    name, A, B = _eliminate(g)
    if name != "(123)":
        raise PreconditionError(f"matrix lies in cell {name}, not (123)")
    # A E23(w): column 3 += w column 2.  E12(-w) B: row 1 -= w row 2.
    (b01, d0), (b11, d1) = B[0][1], B[1][1]   # B's rows share a denominator
    w = (b01 * d1, d0 * b11)
    return (_matrix([r[:2] + [_madd(r[2], w, r[1])] for r in A]),
            _matrix([[(b11 * x - b01 * y, d0 * b11) for (x, _), (y, _) in zip(*B[:2])]]
                    + B[1:]))


def case4_witness(b, e, c=0):
    """Integer unipotent X whose conjugate by B = [[1,b,c],[0,1,e],[0,0,1]]
    has zero (1,3) entry and nonzero (1,2), (2,3) entries.

    Writing e = m/n and b = m'/n' in lowest terms, X = [[1,n,m-m'],[0,1,n'],
    [0,0,1]].  Requires b != 0 and e != 0.
    """
    b, e = Fraction(b), Fraction(e)
    if b == 0 or e == 0:
        raise PreconditionError("witness recipe requires b != 0 and e != 0")
    (m, n), (mp, np_) = (e.numerator, e.denominator), (b.numerator, b.denominator)
    return Matrix([[1, n, m - mp], [0, 1, np_], [0, 0, 1]])
