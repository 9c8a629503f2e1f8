"""Bruhat decomposition of invertible 3x3 rational matrices with respect to
the upper-triangular Borel subgroup.

Cells are double cosets B p_sigma B indexed by Sym(3); the signed
permutation representatives p_sigma all lie in SL3(Z).  The cell is read
from three zero tests and one 2x2 minor; the factorization is a
deterministic two-sided Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import Matrix, PreconditionError, Record
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


class BruhatFactorization(Record):
    __slots__ = ("A", "sigma", "B")

    def __init__(self, A, sigma, B):
        object.__setattr__(self, "A", A)   # upper triangular, invertible
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "B", B)   # upper triangular, invertible

    def product(self):
        return self.A * PERM_MATRICES[self.sigma] * self.B

    def det_pair(self):
        return (self.A.det(), self.B.det())


def cell_of(g):
    """The unique sigma with g in B p_sigma B.

    sigma is the permutation with rank(g[i..3, 1..j]) = #{k <= j : sigma(k)
    >= i} for all i, j.  For invertible g the ranks that differ between cells
    are those of g[3, 1], g[3, 1..2], g[2..3, 1] and g[2..3, 1..2], so the
    cell is read from three zero tests and the lower-left 2x2 minor.
    """
    if (g.rows, g.cols) != (3, 3):
        raise PreconditionError("expected a 3x3 matrix")
    if g.det() == 0:
        raise PreconditionError("matrix is singular")
    return _cell(g)


def _cell(g):
    """cell_of for a g known to be invertible and 3x3."""
    _, (g21, g22, _), (g31, g32, _) = g.data
    if g31:
        return "(13)" if g21 * g32 != g22 * g31 else "(132)"
    if g21:
        return "(123)" if g32 else "(12)"
    return "(23)" if g32 else "id"


def bruhat_decompose(g):
    """Deterministic factorization g = A p_sigma B with A, B upper triangular.

    Columns are processed left to right; within a column the lowest row
    without a pivot is the pivot row, and a column without one means g is
    singular.  Row operations only add lower rows to upper ones and column
    operations only add earlier columns to later ones, so R g C = p_sigma D
    with R, C unit upper triangular.  A = R^-1 and Ci = C^-1 are built during
    the pass (undoing an elementary operation negates its factor), and
    B = D Ci.  When det(g) = 1 the factors satisfy det A = det B = 1.
    """
    if (g.rows, g.cols) != (3, 3):
        raise PreconditionError("expected a 3x3 matrix")
    m = [[Fraction(x) for x in row] for row in g.data]
    A = [[int(i == j) for j in range(3)] for i in range(3)]
    Ci = [[int(i == j) for j in range(3)] for i in range(3)]
    pivots = []  # pivots[col] is the pivot row of column col
    for col in range(3):
        # Clear this column in rows already holding a pivot (column ops).  A
        # finished column is zero off its pivot row, so col -= f * pcol
        # changes only the entry in that row, and the order does not matter.
        for pcol, row in enumerate(pivots):
            if m[row][col] != 0:
                f = m[row][col] / m[row][pcol]
                m[row][col] = 0
                # Undo on C^-1: row pcol += f * row col.
                Ci[pcol] = [a + f * b for a, b in zip(Ci[pcol], Ci[col])]
        # Pivot: lowest row without a pivot with a nonzero entry.
        free = [i for i in range(3) if i not in pivots and m[i][col] != 0]
        if not free:
            raise PreconditionError("matrix is singular")
        piv = free[-1]
        # Clear free rows above the pivot (row ops, lower into upper).
        for i in free[:-1]:
            f = m[i][col] / m[piv][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
            for r in range(3):  # undo on R^-1: column piv += f * column i
                A[r][piv] += f * A[r][i]
        pivots.append(piv)
    sigma = tuple(piv + 1 for piv in pivots)
    name = next(nm for nm, s in PERMUTATIONS.items() if s == sigma)
    p = PERM_MATRICES[name]
    d = [m[piv][j] / p[piv, j] for j, piv in enumerate(pivots)]
    B = [[dj * x for x in row] for dj, row in zip(d, Ci)]
    return BruhatFactorization(A=Matrix(A), sigma=name, B=Matrix(B))


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
            or g[0, 0] * g[1, 1] * g[2, 2] == 0):
        raise PreconditionError("expected an invertible upper-triangular 3x3 matrix")


def fact3_display_factorization(x, y, a, b, c):
    """The pinned factorization of p13 g p13 for g = [[x,y,0],[0,a,b],[0,0,c]].

    Returns (A_inv, B) with A_inv * (p13 g p13) = p123 * B, valid when
    b*y != 0; all five parameters must be nonzero.
    """
    x, y, a, b, c = (Fraction(v) for v in (x, y, a, b, c))
    if 0 in (x, y, a, b, c):
        raise PreconditionError("all parameters must be nonzero")
    A_inv = Matrix([[-b * y / (a * c), -y / a, 1], [0, 1, 0], [0, 0, 1]])
    B = Matrix([[b, a, 0], [0, y, -x], [0, 0, -x]])
    return A_inv, B


def grid_rationals(bound, nonzero=False):
    """The sorted rationals p/q with |p| <= bound and 1 <= q <= bound, without
    0 when `nonzero`: the entry grid on which facts 3 and 4 are checked."""
    vals = {Fraction(p, q) for p in range(-bound, bound + 1)
            for q in range(1, bound + 1)}
    if nonzero:
        vals.discard(Fraction(0))
    return sorted(vals)


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
    if which == 3:
        _require_upper(g)
        # p g p is invertible along with g, so its cell needs no det.
        p = PERM_MATRICES["(13)"]
        in_cell = _cell(p * g * p) == "(123)"
        return in_cell == (g[0, 1] * g[1, 2] != 0 and g[0, 2] == 0)
    if which == 4:
        _require_upper(g)
        p = PERM_MATRICES["(132)"]
        c = _cell(p * g * p)
        return ((c == "(123)") == (g[0, 2] == 0)) and ((c == "(13)") == (g[0, 2] != 0))
    raise PreconditionError(f"unknown fact {which!r}")


def case3_normalize(g):
    """Rebalance a cell-(123) factorization so the right factor has zero
    (1,2) entry.

    Uses the identity p123 E12(w) = E23(w) p123: with w = B12/B22 the factor
    E12(w) moves across the permutation and is absorbed into A.
    """
    fac = bruhat_decompose(g)
    if fac.sigma != "(123)":
        raise PreconditionError(f"matrix lies in cell {fac.sigma}, not (123)")
    w = Fraction(fac.B[0, 1]) / Fraction(fac.B[1, 1])
    e12 = Matrix([[1, -w, 0], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix([[1, 0, 0], [0, 1, w], [0, 0, 1]])
    return fac.A * e23, e12 * fac.B


def case4_witness(b, e, c=0):
    """Integer unipotent X whose conjugate by B = [[1,b,c],[0,1,e],[0,0,1]]
    has zero (1,3) entry and nonzero (1,2), (2,3) entries.

    Writing e = m/n and b = m'/n' in lowest terms, X = [[1,n,m-m'],[0,1,n'],
    [0,0,1]].  Requires b != 0 and e != 0.
    """
    b, e = Fraction(b), Fraction(e)
    if b == 0 or e == 0:
        raise PreconditionError("witness recipe requires b != 0 and e != 0")
    m, n = e.numerator, e.denominator
    mp, np_ = b.numerator, b.denominator
    return Matrix([[1, n, m - mp], [0, 1, np_], [0, 0, 1]])
