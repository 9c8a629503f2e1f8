"""Z^2-valued 1-cocycles on subgroups of SL2(Z).

A cocycle for the linear action on Z^2 satisfies
    c(g h) = g c(h) + c(g),
and is a coboundary when c(g) = xi - g xi for a fixed vector xi.

The module covers: evaluation on words, the full-group coboundary solver,
the Gamma_1(N) family with its integrality obstruction, the central (-I)
parity case analysis, and the infinite-rank free family b^k a b^-k with its
singular extension system.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .lattice import solve_integer
from .matrix import Matrix, PreconditionError, Record, ShapeError, vec_norm
from .sl2 import CongruenceKind, _require_sl2, congruence_membership


class RelatorNotIdentity(PreconditionError):
    """A supplied relator word does not evaluate to the identity matrix."""


class UnderdeterminedWitness(PreconditionError):
    """The joint coboundary system does not pin xi down uniquely."""


class CocycleSpec(Record):
    """A cocycle presented by generator matrices and their Z^2 values.

    Relators (optional) are words that must evaluate to the identity matrix;
    words are tuples of (generator index, integer exponent).  Every field is
    kept as tuples, values with normalized entries, so specs built from
    lists or tuples are equal and hash alike.
    """

    __slots__ = ("generators", "values", "relators")

    def __init__(self, generators, values, relators=()):
        if len(generators) != len(values):
            raise PreconditionError("generator and value lists differ in length")
        for g in generators:
            _require_sl2(g)
        Record.__init__(self, tuple(generators), tuple(map(vec_norm, values)),
                        tuple(tuple(map(tuple, word)) for word in relators))


class CoboundaryWitness(Record):
    """A vector xi in Q^2 with c(g) = xi - g xi, and whether it lies in Z^2.

    xi is kept as a tuple of normalized entries and `integral` is read from
    it; a flag that is given must agree with it.
    """

    __slots__ = ("xi", "integral")

    def __init__(self, xi, integral=None):
        xi = vec_norm(xi)
        if len(xi) != 2:
            raise ShapeError("witness must have two entries")
        flag = all(type(x) is int for x in xi)
        if integral is not None and integral is not flag:
            raise PreconditionError(f"witness {xi} is {'' if flag else 'not '}integral")
        Record.__init__(self, xi, flag)


def cocycle_eval(spec, word):
    """Value of the cocycle on a word over the spec's generators.

    A token g^e is the e-th power of the element (c(g), g) of Z^2 x| SL2(Z),
    and c of the word is the translation part of the product of its tokens,
    with (v, m)(c, h) = (v + m c, m h).  Inverse generators are handled
    through g^-1 = adj g and c(g^-1) = -g^-1 c(g).  Powers are taken by
    square-and-multiply, so a token costs O(log|e|) affine products, not |e|.
    Every product runs on plain numbers: the four int entries of each matrix
    and the two entries, ints or Fractions, of each value.  The value is
    normalized once, at the end.
    """
    return _evaluate(spec, word)[0]


def _evaluate(spec, word):
    """(c(w), w): the product of the tokens (c(g), g)^e of a word, as
    described in cocycle_eval; w is the matrix of the word.  The matrices
    are kept as their entries (a, b, c, d) = ((a, b), (c, d)), ints since
    every generator is in SL2(Z)."""
    a, b, c, d = 1, 0, 0, 1
    v0 = v1 = 0
    for idx, exp in word:
        if not 0 <= idx < len(spec.generators):
            raise PreconditionError(f"unknown generator index {idx}")
        if not exp:
            continue
        if len(spec.values[idx]) != 2:
            raise ShapeError("vector length mismatch")
        (p, q), (r, s) = spec.generators[idx].data
        x, y = spec.values[idx]
        if exp < 0:
            p, q, r, s = s, -q, -r, p
            x, y = -p * x - q * y, -r * x - s * y
            exp = -exp
        # (x, y; p, q, r, s) runs through the powers (c(g^(2^i)), g^(2^i));
        # they commute, so multiplying them into (v; a, b, c, d) bit by bit
        # gives (c(g), g)^exp.
        while exp:
            if exp & 1:
                v0, v1 = v0 + a * x + b * y, v1 + c * x + d * y
                a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
            exp >>= 1
            if exp:
                x, y = x + p * x + q * y, y + r * x + s * y
                p, q, r, s = p * p + q * r, p * q + q * s, r * p + s * r, r * q + s * s
    return vec_norm((v0, v1)), Matrix._trusted(((a, b), (c, d)), True)


def verify_relations(spec):
    """True iff every relator evaluates to I as a matrix and 0 as a cocycle.

    A relator that is not the identity matrix is a spec error, reported as
    RelatorNotIdentity rather than False.
    """
    ident = Matrix.identity(2)
    for word in spec.relators:
        value, m = _evaluate(spec, word)   # refuses an unknown generator index
        if m != ident:
            raise RelatorNotIdentity(f"relator {word} evaluates to {m!r}")
        if value != (0, 0):
            return False
    return True


def solve_full_coboundary(c_t):
    """Extend a value on the order-6 generator t to a coboundary of SL2(Z).

    Every choice c(t) = (x, y) extends uniquely: the relation between the
    order-4 and order-6 generators forces c(s) = (-x - 2y, x), and the
    resulting cocycle equals xi - g xi with xi = (-y, x + y).
    """
    x, y = c_t
    c_s = (-x - 2 * y, x)
    return c_s, CoboundaryWitness((-y, x + y))


def coboundary_witness(spec):
    """Solve xi - g xi = c(g) over Q for all generators jointly.

    xi comes by Cramer's rule from the first pair of rows (a, b | r) of the
    stacked [I - g | c(g)] with a nonzero 2x2 minor and is checked on every
    row.  Returns None when the system is inconsistent; raises
    UnderdeterminedWitness when the joint kernel is nontrivial.
    """
    rows = []
    for g, (c0, c1) in zip(spec.generators, spec.values):
        (a, b), (c, d) = g.data
        rows += [(1 - a, -b, c0), (-c, 1 - d, c1)]
    for (a, b, r), (c, d, s) in combinations(rows, 2):
        det = a * d - b * c
        if det:
            x, y = Fraction(r * d - b * s, det), Fraction(a * s - r * c, det)
            if any(u * x + v * y != w for u, v, w in rows):
                return None
            return CoboundaryWitness((x, y))
    # Rank <= 1: consistent iff [rows | rhs] has rank <= 1 too, and no zero
    # row has a nonzero right-hand side (rank 0 has no 2x2 minor to show it).
    if any(r for a, b, r in rows if not (a or b)) or any(
            a * s - r * c or b * s - r * d for (a, b, r), (c, d, s) in combinations(rows, 2)):
        return None
    raise UnderdeterminedWitness("joint system has a nontrivial kernel")


# -- the Gamma_1(N) family -------------------------------------------------

def gamma1_cocycle(N, g):
    """The cocycle ((1 - g11)/N, -g21/N) on Gamma_1(N); divisions are exact."""
    kind = CongruenceKind("gamma1", N)
    if not congruence_membership(kind, g):
        raise PreconditionError(f"matrix is not in Gamma_1({N})")
    return ((1 - g[0, 0]) // N, -g[1, 0] // N)


def gamma1_obstruction(N, s):
    """Whether xi - s xi lies in Z^2 for xi = (1/N, 0).

    Integrality holds exactly for members of Gamma_1(N), which is the
    non-extendability obstruction for the family.  Since xi - s xi =
    ((1 - s11)/N, -s21/N), it is read as two divisibilities by N.
    """
    if N < 1:
        raise PreconditionError("level must be >= 1")
    _require_sl2(s)
    return (1 - s[0, 0]) % N == 0 and s[1, 0] % N == 0


# -- cocycles with -I in the domain ----------------------------------------

def central_cocycle(m, n, g):
    """(I - g)(m, n)/2 when all components are even, else None.

    This is the unique candidate value at g for a cocycle taking (m, n)
    at the central element -I.
    """
    _require_sl2(g)
    w = (Matrix.identity(2) - g).apply((m, n))
    if w[0] % 2 or w[1] % 2:
        return None
    return (w[0] // 2, w[1] // 2)


class ParityCase(Record):
    """One of the four parity classes of the central value (m, n)."""

    __slots__ = ("case_id", "description")

    def accepts(self, g):
        if self.case_id == 1:
            return True
        if self.case_id == 2:
            return g[0, 0] % 2 == 1 and g[1, 0] % 2 == 0
        if self.case_id == 3:
            return g[1, 1] % 2 == 1 and g[0, 1] % 2 == 0
        return (g[0, 0] + g[0, 1]) % 2 == 1 and (g[1, 0] + g[1, 1]) % 2 == 1


_PARITY_CASES = {
    (0, 0): ParityCase(1, "coboundary; all of SL2(Z)"),
    (1, 0): ParityCase(2, "g11 odd and g21 even"),
    (0, 1): ParityCase(3, "g22 odd and g12 even"),
    (1, 1): ParityCase(4, "g11+g12 odd and g21+g22 odd"),
}


def parity_domain(m, n):
    """Maximal domain of a cocycle with central value (m, n), by parity."""
    return _PARITY_CASES[(m % 2, n % 2)]


# -- the infinite-rank free family -----------------------------------------

A_GEN = Matrix([[1, 2], [0, 1]])
B_GEN = Matrix([[1, 0], [2, 1]])


def finf_generator(k):
    """The conjugate b^k a b^-k = [[1-4k, 2], [-8k^2, 1+4k]]."""
    return Matrix([[1 - 4 * k, 2], [-8 * k * k, 1 + 4 * k]])


def finf_extend(n, values, window):
    """Extension of a free-family cocycle by the shift b^n, over a window.

    `values` maps k to (x_k, y_k).  Returns u = c(b^n) in Z^2 satisfying
        (x_{k+n}, y_{k+n}) = b^n (x_k, y_k) + (I - g_{k+n}) u
    for every k with both k and k+n in the window, or None when the joint
    integer system is unsolvable.  Checking all in-window relations is
    strictly stronger than the single necessary relation and still sound.
    """
    if n == 0:
        raise PreconditionError("n must be nonzero")
    window = sorted(set(window))
    if 0 not in window:
        raise PreconditionError("window must contain 0")
    for k in window:
        if k not in values:
            raise PreconditionError(f"window index {k} missing from values")
    rows, rhs = [], []
    for k in window:
        j = k + n
        if j not in window:
            continue
        # I - g_j = [[4j, -2], [8j^2, -4j]] and b^n (x, y) = (x, 2nx + y).  The
        # second row is 2j times the first, so the relation is the first row's
        # equation and the check that the second right-hand side is 2j r.
        (x, y), (xj, yj) = values[k], values[j]
        r = xj - x
        if yj - 2 * n * x - y != 2 * j * r:
            return None
        rows.append((4 * j, -2))
        rhs.append(r)
    if not rows:
        raise PreconditionError("window instantiates no relation")
    return solve_integer(Matrix._trusted(tuple(rows), True), rhs)
