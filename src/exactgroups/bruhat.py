"""Bruhat decomposition of invertible 3x3 rational matrices with respect to
the upper-triangular Borel subgroup.

Cells are double cosets B p_sigma B indexed by Sym(3); the signed permutation
representatives p_sigma all lie in SL3(Z).  The cell is read from three zero
tests and one 2x2 minor; the factorization is a deterministic Gaussian
elimination.  Both run fraction-free on lam g, lam the lcm of its denominators
(g itself when integral).  The elimination hands back A's three entries above
its unit diagonal as (n, d) int pairs and B's rows as int rows over one
denominator each; the factors, and the cell-(123) normalization of them, are
built straight from those, one Fraction per non-integer entry.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import Matrix, PreconditionError, Record, _over, _scaled as _scaled_rows
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
    return (list(g.data), 1) if g.integral else _scaled_rows(g.data)


def bruhat_decompose(g):
    """Deterministic factorization g = A p_sigma B with A, B upper triangular
    (see _eliminate).  When det(g) = 1 the factors satisfy det A = det B = 1."""
    name, A, B = _eliminate(g)
    return BruhatFactorization(_unit_upper(*A), name, _factors(B))


def _unit_upper(a01, a02, a12):
    """The unit upper-triangular Matrix with entries given as (n, d) int pairs."""
    (n01, d01), (n02, d02), (n12, d12) = a01, a02, a12
    return Matrix._trusted(((1,) + _over((n01 * d02, n02 * d01), d01 * d02),
                            (0, 1) + _over((n12,), d12), (0, 0, 1)))


def _factors(B):
    """The Matrix of rows given as (int row, denominator) pairs."""
    return Matrix._trusted(tuple([_over(row, d) for row, d in B]))


def _eliminate(g):
    """(sigma, A, B) of bruhat_decompose: A as the entries (0, 1), (0, 2) and
    (1, 2) of the unit upper-triangular A, each an (n, d) int pair, and B as
    its three rows, each an (int row, denominator) pair.

    Column by column, the pivot row is the lowest nonzero row without a pivot
    (none: g is singular); clearing the rows i above it, row i -= f row piv,
    gives R g = p_sigma B with R unit upper triangular: B's row j is column
    j's pivot row, signed, and A = R^-1 has A[i][piv] = f.  On the rows m_i /
    s_i of lam g, m_i integer, a step is m_i <- p m_i - a m_piv, s_i <- p s_i,
    and B's row j is m_piv over p_sigma[piv][j] s_piv lam.
    """
    (m, lam), s = _scaled(g), [1, 1, 1]
    A = [(0, 1), (0, 1), (0, 1)]   # A[i + piv - 1] is A's entry (i, piv)
    pivots = []  # pivots[col] is the pivot row of column col
    for col in range(3):
        free = [i for i in range(3) if i not in pivots and m[i][col]]
        if not free:
            raise PreconditionError("matrix is singular")
        piv, p = free[-1], m[free[-1]][col]
        y0, y1, y2 = m[piv]
        for i in free[:-1]:   # clear free rows above the pivot
            a = m[i][col]
            A[i + piv - 1] = (a * s[piv], p * s[i])
            x0, x1, x2 = m[i]
            m[i] = (p * x0 - a * y0, p * x1 - a * y1, p * x2 - a * y2)
            s[i] *= p
        pivots.append(piv)
    name = _NAMES[tuple(piv + 1 for piv in pivots)]
    p = PERM_MATRICES[name].data
    return name, A, [(m[piv], p[piv][j] * s[piv] * lam) for j, piv in enumerate(pivots)]


# -- the explicit facts ----------------------------------------------------

H_GENERATORS = (
    Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
)


def _require_upper(g):
    """The rows of g, an invertible upper-triangular 3x3 matrix."""
    if (g.rows, g.cols) == (3, 3):
        (x, _, _), (d, a, _), (h, i, c) = rows = g.data
        if x and a and c and not (d or h or i):
            return rows
    raise PreconditionError("expected an invertible upper-triangular 3x3 matrix")


def _rational(v):
    """v as a Fraction; anything but an int or a Fraction, bool included, is refused."""
    if type(v) is int or isinstance(v, Fraction):
        return Fraction(v)
    raise TypeError(f"parameters must be int or Fraction, got {type(v)!r}")


def fact3_display_factorization(x, y, a, b, c):
    """The pinned factorization of p13 g p13 for g = [[x,y,0],[0,a,b],[0,0,c]].

    Returns (A_inv, B) with A_inv * (p13 g p13) = p123 * B, valid when
    b*y != 0; all five parameters must be nonzero.
    """
    x, y, a, b, c = map(_rational, (x, y, a, b, c))
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
        # p g p, invertible with g (no det), reads g: for g = [[x,y,z],[0,a,b],[0,0,c]],
        # p13 g p13 = [[-c,0,0],[b,a,0],[z,y,-x]], p132 g p132 = [[b,0,a],[c,0,0],[z,x,y]].
        (x, y, z), (_, a, b), (_, _, c) = _require_upper(g)
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
    name, (a01, a02, a12), B = _eliminate(g)
    if name != "(123)":
        raise PreconditionError(f"matrix lies in cell {name}, not (123)")
    # A E23(w): A02 += w A01, A12 += w.  E12(-w) B: row 0 -= w row 1.
    ((b00, b01, b02), d0), ((_, b11, b12), d1) = B[0], B[1]
    (n01, e01), (n02, e02), (n12, e12) = a01, a02, a12
    wn, wd = b01 * d1, d0 * b11   # w = B01 / B11
    return (_unit_upper(a01, (n02 * wd * e01 + wn * n01 * e02, e02 * wd * e01),
                        (n12 * wd + wn * e12, e12 * wd)),
            _factors([((b11 * b00, 0, b11 * b02 - b01 * b12), wd)] + B[1:]))


def case4_witness(b, e, c=0):
    """Integer unipotent X whose conjugate by B = [[1,b,c],[0,1,e],[0,0,1]]
    has zero (1,3) entry and nonzero (1,2), (2,3) entries.

    Writing e = m/n and b = m'/n' in lowest terms, X = [[1,n,m-m'],[0,1,n'],
    [0,0,1]].  Requires b != 0 and e != 0.
    """
    b, e, _ = map(_rational, (b, e, c))
    if b == 0 or e == 0:
        raise PreconditionError("witness recipe requires b != 0 and e != 0")
    (m, n), (mp, np_) = (e.numerator, e.denominator), (b.numerator, b.denominator)
    return Matrix([[1, n, m - mp], [0, 1, np_], [0, 0, 1]])
