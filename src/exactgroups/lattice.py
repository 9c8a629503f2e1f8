"""Canonical forms for integer lattices and matrices: HNF, SNF, integer solve.

Conventions:
  * HNF is row-style upper echelon: pivots positive, entries below a pivot
    zero, entries above a pivot reduced into [0, pivot).
  * SNF diagonal entries are nonnegative and form a divisibility chain,
    with U*M*V = D for unimodular U, V.  It is computed by alternating row
    and column Hermite passes (Kannan-Bachem 1979), so every entry of U and
    V stays polynomial in the size of M.
  * An integer solve of a system of full column rank, whose solution is
    unique if it exists, takes one fraction-free pass (`matrix._bareiss`);
    kernels and every other system take the Hermite form of [M^T | I].
  * SNF, kernels and both solves run on the int rows N = lam M of a
    rational M (`Matrix.num`): scaling every entry by lam leaves each floor
    and extended-gcd quotient as it was, so M gets N's U, V and kernel, its
    D is N's over lam, and M x = b is solved as N x = lam b.
  * The zero lattice is an empty basis, never a zero row.
"""

from math import gcd, prod

from .matrix import (Matrix, PreconditionError, Record, ShapeError, _bareiss, _over, _scaled,
                     vec_norm)


class LatticeBasis(Record):
    """A sublattice of Z^dim given by its row Hermite normal form.

    The rows are kept as a tuple of tuples, so bases built from lists or
    tuples are equal and hash alike.  Each entry is read as a matrix entry
    is: an int or a Fraction, a float or bool refused."""

    __slots__ = ("dim", "rows")   # rows: tuple of integer tuples, in HNF

    def __init__(self, dim, rows):
        rows = tuple(map(vec_norm, rows))
        if any(len(row) != dim for row in rows):
            raise ShapeError("basis rows must have length dim")
        Record.__init__(self, dim, rows)

    @classmethod
    def _of(cls, dim, rows):
        """The basis of the Hermite rows that `hnf` or `kernel_basis` made,
        taken without the constructor's checks."""
        basis = object.__new__(cls)
        Record.__init__(basis, dim, tuple(map(tuple, rows)))
        return basis

    @property
    def rank(self):
        return len(self.rows)

    @property
    def is_zero(self):
        return not self.rows

    def pivots(self):
        """Pivot values, ordered by pivot column."""
        out = []
        for row in self.rows:
            j = next(k for k, x in enumerate(row) if x != 0)
            out.append(row[j])
        return out

    def index(self):
        """Index in Z^dim (product of pivots); None unless full rank."""
        return prod(self.pivots()) if self.rank == self.dim else None

    def contains(self, v):
        """Membership by back-substitution against the echelon basis.  v is
        read as the rows are (`matrix.vec_norm`): a float or bool is refused."""
        if len(v) != self.dim:
            raise ShapeError("vector dimension mismatch")
        return _combination(self.rows, vec_norm(v)) is not None


def _combination(rows, v):
    """The integers y with sum(y[i] * rows[i]) = v for echelon `rows`, or None."""
    r = list(v)
    y = []
    for row in rows:
        j = next(k for k, x in enumerate(row) if x)
        q, rem = divmod(r[j], row[j])
        if rem:
            return None
        y.append(q)
        r = [a - q * b for a, b in zip(r, row)]
    return None if any(r) else y


def _extgcd(a, b):
    """(g, x, y) with x*a + y*b = g and |g| = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _echelon(W):
    """Row Hermite form of the rows W, in place; returns the rank r.

    Column by column, the pivot row is the first row from r on with a
    nonzero entry in the column, found by a scan, and moved to row r.  Every
    later row with a nonzero entry there is folded into it in place, in row
    order, by extended-gcd combinations of two rows; zero entries are passed
    over.  The pivot is made positive and the entries above it are reduced
    into [0, pivot) at once (Kannan-Bachem), so entries stay polynomial in
    size.  W[:r] is the Hermite form and the rows after it are zero.  For
    rows A | T with T unimodular, the rows with a pivot in A come first, and
    the rows that vanish on A follow in Hermite form on T: T records the row
    operations and stays reduced.
    """
    m = len(W)
    r = 0
    for c in range(len(W[0]) if W else 0):
        k = r
        while k < m and not W[k][c]:
            k += 1
        if k == m:
            continue
        # Rows r..k-1 are zero in column c, so the fold starts past k.
        piv = W[k]
        if k != r:
            W[k] = W[r]
        p = piv[c]
        for i in range(k + 1, m):
            row = W[i]
            b = row[c]
            if not b:
                continue
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
        # Row r is zero on every earlier pivot column, so reducing with it
        # keeps the rows above in Hermite form.
        for i in range(r):
            w = W[i]
            q = w[c] // p
            if q:
                W[i] = [u - q * v for u, v in zip(w, piv)]
        r += 1
        if r == m:
            break
    return r


def hnf(rows, dim=None):
    """Row Hermite normal form of the lattice generated by `rows`.

    Canonical: two generating sets of the same lattice give identical output.
    Empty input (with `dim` supplied) yields the zero lattice.  Rational rows
    L give the form of the Z-module they span in Q^dim, with the rank over Q:
    HNF(lam L) / lam, lam the lcm of their denominators.
    """
    work = [list(r) for r in rows]
    if work:
        n = len(work[0])
        for w in work:
            if len(w) != n:
                raise ShapeError("vectors have mixed dimensions")
        dim = n if dim is None else dim
        if dim != n:
            raise ShapeError("explicit dim disagrees with vectors")
    elif dim is None:
        raise ShapeError("empty input requires an explicit ambient dimension")
    if dim < 0:
        raise ShapeError("lattice dimension must be nonnegative")
    num, lam = _scaled(work)
    if num is not work:   # an entry that is not an int: echelon lam L on ints
        work = list(map(list, num))
    r = _echelon(work)
    return LatticeBasis._of(dim, work[:r] if lam == 1 else [_over(w, lam) for w in work[:r]])


def snf(M):
    """Smith normal form: returns (U, D, V) with U*M*V = D.

    U, V are unimodular; D is diagonal with nonnegative entries, each
    dividing the next.  D is unique; U and V are not.  Row and column
    Hermite passes alternate until the matrix is diagonal (Kannan-Bachem
    1979), then each pair of diagonal entries (a, b) with a not dividing b
    becomes (gcd, lcm).  Every pass reduces entries modulo the pivots, so U
    and V stay polynomial in the size of M: at most 70 bits on seeded n x n
    inputs with entries in [-9, 9] for n <= 10.  The passes run on the int
    rows N = lam M, so a rational M has N's U and V and D = D_N / lam.
    """
    m, n = M.rows, M.cols
    # Each row of W is a row of A followed by the matching row of U, and
    # each row of X a column of A followed by the matching column of V: a
    # pass on W does row operations, a pass on X column operations.  U and
    # V are kept with their columns reversed.  The rows that vanish on A
    # (a kernel of A) are then brought into Hermite form from the last
    # column of U or V first, which costs almost nothing when the kernel
    # rows are near unit vectors, as for tall systems.
    unit = [0] * (m - 1) + [1] + [0] * m
    W = [list(row) + unit[i:i + m] for i, row in enumerate(M.num)]
    unit = [0] * (n - 1) + [1] + [0] * n
    Vt = [unit[j:j + n] for j in range(n)]
    # A pass leaves A in echelon form, so A is diagonal when no row has a
    # nonzero entry right of its diagonal one.
    while True:
        _echelon(W)
        if not any(any(w[i + 1:n]) for i, w in enumerate(W)):
            break
        X = [list(col) + vt for col, vt in zip(zip(*W), Vt)]
        _echelon(X)
        Vt = [x[m:] for x in X]
        W = [list(row) + w[n:] for row, w in zip(zip(*X), W)]
        if not any(any(x[j + 1:m]) for j, x in enumerate(X)):
            break
    U = [w[n:][::-1] for w in W]
    # The passes leave the nonzero diagonal entries first, and positive.
    d = [W[i][i] for i in range(min(m, n))]
    r = len(d) - d.count(0)
    for i in range(r):
        for j in range(i + 1, r):
            a, b = d[i], d[j]
            if b % a == 0:
                continue
            # [[x, y], [-b/g, a/g]] diag(a, b) [[1, -y*b/g], [1, x*a/g]]
            #   = diag(g, a*b/g)
            g, x, y = _extgcd(a, b)
            a, b = a // g, b // g
            d[i], d[j] = g, a * b * g
            U[i], U[j] = ([x * u + y * v for u, v in zip(U[i], U[j])],
                          [a * v - b * u for u, v in zip(U[i], U[j])])
            Vt[i], Vt[j] = ([u + v for u, v in zip(Vt[i], Vt[j])],
                            [x * a * v - y * b * u for u, v in zip(Vt[i], Vt[j])])
    D = [[0] * n for _ in range(m)]
    for i, x in enumerate(d):
        D[i][i] = x
    # Row n-1-j of V is column j of the stored Vt.
    return (Matrix._of(tuple(map(tuple, U))), Matrix._of(tuple(map(tuple, D)), M.lam),
            Matrix._of(tuple(zip(*Vt))[::-1]))


def _hermite_transform(M):
    """Rows (h, t) of the Hermite form of [N^T | I] for the int rows N = lam M,
    h = N t (Cohen, GTM 138, 2.4): first those with h != 0, whose h are the
    Hermite form of the columns of N, then those with h = 0, whose t are the
    HNF of the integer kernel of N and of M (see _echelon)."""
    m, n = M.rows, M.cols
    W = [list(col) + [0] * j + [1] + [0] * (n - 1 - j)
         for j, col in enumerate(zip(*M.num))]
    _echelon(W)
    return [(w[:m], w[m:]) for w in W]


def solve_integer(M, b):
    """Some integer solution x of M x = b, or None when none exists.

    An m x n M with m >= n goes first through one fraction-free pass
    (`matrix._bareiss`) on the int rows of lam [M | b], lam the lcm of their
    denominators.  When every column has a pivot, M has full column rank, so
    the solution, if any, is unique: the pass turns [M | b] into [q I | q x]
    on its first n rows and into [0 | +-q (b_i - M_i x)] on the others, so x
    is the answer when q divides every entry of q x and the others are 0;
    otherwise there is none.  A wide M, or one with a column without a
    pivot, takes the Hermite form instead: with lam M = M.num, lam b is
    written over the Hermite basis h = lam M t of its columns, and x is the
    same combination of the t.  Absence is a value, not an error.  Both read b
    as the ints c = mu b, mu the lcm of its denominators, so neither makes a
    Fraction; lam b = lam c / mu is then integral, or there is no solution.
    """
    m, n = M.rows, M.cols
    if len(b) != m:
        raise ShapeError("right-hand side length mismatch")
    (c,), mu = _scaled((b,))   # mu b on ints, b itself when all ints
    if m >= n:
        if M.integral and mu == 1:
            rows = [[*row, x] for row, x in zip(M.num, c)]
        else:   # lam mu [M | b], with M.num = lam M
            rows = [[*[v * mu for v in row], x * M.lam] for row, x in zip(M.num, c)]
        done = _bareiss(rows, n)
        if done is not None:
            q, rows = done
            if any(row[0] for row in rows[n:]):
                return None
            x = [divmod(row[0], q) for row in rows[:n]]
            return None if any(rem for _, rem in x) else tuple(v for v, _ in x)
    lam_b = [divmod(M.lam * x, mu) for x in c]
    if any(rem for _, rem in lam_b):   # h = lam M t is integral
        return None
    image = [(h, t) for h, t in _hermite_transform(M) if any(h)]
    y = _combination([h for h, _ in image], [v for v, _ in lam_b])
    if y is None:
        return None
    return tuple(sum(c * t[j] for c, (_, t) in zip(y, image)) for j in range(M.cols))


def kernel_basis(M):
    """HNF basis of the integer kernel {x in Z^n : M x = 0}.

    Taken from the Hermite form directly, with no fraction-free pass first:
    a kernel is asked for mostly of an M without full column rank, on which
    that pass would only fail."""
    return LatticeBasis._of(M.cols, [t for h, t in _hermite_transform(M) if not any(h)])


def fixed_sublattice(g, sign):
    """HNF basis of {v in Z^n : g v = sign * v}."""
    if g.rows != g.cols:
        raise ShapeError("square matrix required")
    if sign not in (1, -1):
        raise PreconditionError("sign must be +1 or -1")
    return kernel_basis(g - sign * Matrix.identity(g.rows))


def content(v):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    return gcd(*v)
