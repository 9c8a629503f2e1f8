"""Bruhat decomposition of invertible 3x3 rational matrices with respect to
the upper-triangular Borel subgroup.

Cells are double cosets B p_sigma B indexed by Sym(3); the signed
permutation representatives p_sigma all lie in SL3(Z).  The cell is read
from three zero tests and one 2x2 minor; the factorization is a
deterministic two-sided Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import Matrix, PreconditionError
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

# sigma as the map column -> row, 1-based triples.
PERMUTATIONS = {
    "id": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}

SIGMA_NAMES = tuple(PERMUTATIONS)


@dataclass(frozen=True)
class BruhatFactorization:
    A: Matrix       # upper triangular, invertible
    sigma: str
    B: Matrix       # upper triangular, invertible

    def product(self):
        return self.A * PERM_MATRICES[self.sigma] * self.B

    def det_pair(self):
        return (self.A.det(), self.B.det())


def _require_invertible(g):
    if (g.rows, g.cols) != (3, 3):
        raise PreconditionError("expected a 3x3 matrix")
    if g.det() == 0:
        raise PreconditionError("matrix is singular")


def cell_of(g):
    """The unique sigma with g in B p_sigma B.

    sigma is the permutation with rank(g[i..3, 1..j]) = #{k <= j : sigma(k)
    >= i} for all i, j.  For invertible g the ranks that differ between cells
    are those of g[3, 1], g[3, 1..2], g[2..3, 1] and g[2..3, 1..2], so the
    cell is read from three zero tests and the lower-left 2x2 minor.
    """
    _require_invertible(g)
    _, (g21, g22, _), (g31, g32, _) = g.data
    if g31:
        return "(13)" if g21 * g32 != g22 * g31 else "(132)"
    if g21:
        return "(123)" if g32 else "(12)"
    return "(23)" if g32 else "id"


def bruhat_decompose(g):
    """Deterministic factorization g = A p_sigma B with A, B upper triangular.

    Columns are processed left to right; within a column the lowest row
    without a pivot is the pivot row.  Row operations only add lower rows to
    upper ones and column operations only add earlier columns to later ones,
    so both accumulated transforms stay upper triangular.  When det(g) = 1
    the factors satisfy det A = det B = 1.
    """
    _require_invertible(g)
    n = 3
    m = [[Fraction(x) for x in row] for row in g.data]
    R = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    C = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivot_row_of_col = {}
    assigned_rows = {}  # row -> its pivot column
    for col in range(n):
        # Clear this column in rows already holding a pivot (column ops).
        for row, pcol in sorted(assigned_rows.items()):
            if m[row][col] != 0:
                f = m[row][col] / m[row][pcol]
                for i in range(n):
                    m[i][col] -= f * m[i][pcol]
                for i in range(n):
                    C[i][col] -= f * C[i][pcol]
        # Pivot: lowest unassigned row with a nonzero entry.
        piv = max(i for i in range(n) if i not in assigned_rows and m[i][col] != 0)
        # Clear unassigned rows above the pivot (row ops, lower into upper).
        for i in range(piv):
            if i not in assigned_rows and m[i][col] != 0:
                f = m[i][col] / m[piv][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
                R[i] = [a - f * b for a, b in zip(R[i], R[piv])]
        pivot_row_of_col[col] = piv
        assigned_rows[piv] = col
    sigma = tuple(pivot_row_of_col[j] + 1 for j in range(n))
    name = next(nm for nm, s in PERMUTATIONS.items() if s == sigma)
    # R g C = p_sigma D  =>  g = R^-1 p_sigma (D C^-1).
    p = PERM_MATRICES[name]
    d = [m[sigma[j] - 1][j] / p[sigma[j] - 1, j] for j in range(n)]
    A = Matrix(R).inverse()
    B = Matrix.diagonal(d) * Matrix(C).inverse()
    return BruhatFactorization(A=A, sigma=name, B=B)


# -- the explicit facts ----------------------------------------------------

H_GENERATORS = (
    Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
)


def _require_upper(g):
    if (g.rows, g.cols) != (3, 3) or not g.is_upper_triangular() or g.det() == 0:
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
        gens = H_GENERATORS + (p,)
        rng = SplitMix64(seed)
        zero_at = ((2, 0), (2, 1)) if which == 1 else ((1, 0), (2, 0))
        for _ in range(count):
            m = Matrix.identity(3)
            for _ in range(length):
                r = rng.below(2 * len(gens))
                h = gens[r // 2]
                m = m * (h.inverse() if r % 2 else h)
            if any(m[i, j] != 0 for i, j in zero_at):
                return False
        return True
    if which == 3:
        _require_upper(g)
        p = PERM_MATRICES["(13)"]
        in_cell = cell_of(p * g * p) == "(123)"
        return in_cell == (g[0, 1] * g[1, 2] != 0 and g[0, 2] == 0)
    if which == 4:
        _require_upper(g)
        p = PERM_MATRICES["(132)"]
        c = cell_of(p * g * p)
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
