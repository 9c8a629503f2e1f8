"""Elements of SL2(Z): classification, torsion, generator words, congruence
subgroup membership, and deterministic sampling.

Two generator alphabets are used:
  * "ST":  S = [[0,-1],[1,0]] (order 4), T = [[1,1],[0,1]] (infinite order);
  * "st":  s = [[0,1],[-1,0]] (order 4), t = [[0,-1],[1,1]] (order 6).
They are related by s = S^-1 and t = S*T, so T = s*t.
"""

from __future__ import annotations

from .matrix import Matrix, PreconditionError, Record
from .prng import SplitMix64

S = Matrix([[0, -1], [1, 0]])
T = Matrix([[1, 1], [0, 1]])
S_ALT = Matrix([[0, 1], [-1, 0]])   # s = S^-1
T_ALT = Matrix([[0, -1], [1, 1]])   # t = S*T
MINUS_I = Matrix([[-1, 0], [0, -1]])

GENERATORS = {"S": S, "T": T, "s": S_ALT, "t": T_ALT}

SL2_TORSION_CAP = 12  # default power cap of order_of past 2x2

# (det, trace) -> order of a 2x2 integer matrix of finite order other than
# +-I.  By Cayley-Hamilton g^2 = tr(g) g - det(g) I, and the eigenvalues are
# roots of unity only for these pairs; det -1 needs trace 0, and then g^2 = I.
_FINITE_ORDERS = {(1, 0): 4, (1, 1): 6, (1, -1): 3, (-1, 0): 2}


class OrderCapExceeded(PreconditionError):
    """No power up to the cap reached the identity; order undecided."""


def _require_sl2(g):
    if (g.rows, g.cols) != (2, 2) or not g.is_integral() or g.det() != 1:
        raise PreconditionError("expected an integer 2x2 matrix of determinant 1")


def _require_unimodular(g):
    if g.rows != g.cols or not g.is_integral() or g.det() not in (1, -1):
        raise PreconditionError("expected a square integer matrix with det +-1")


# -- words -----------------------------------------------------------------

class GenWord(Record):
    """Word over the generator alphabets, with a separate central (-I) factor.

    tokens: tuple of (generator name, integer exponent); central in {0, 1}.
    """

    __slots__ = ("tokens", "central")
    _defaults = {"central": 0}

    def matrix(self):
        m = Matrix.identity(2)
        for gen, exp in self.tokens:
            m = m * (GENERATORS[gen] ** exp)
        if self.central:
            m = -m
        return m

    def __len__(self):
        return len(self.tokens)


# -- classification --------------------------------------------------------

class Sl2Class(Record):
    # kind: "elliptic" | "parabolic" | "hyperbolic"; order set for elliptic,
    # sign (trace / 2) for parabolic.
    __slots__ = ("kind", "order", "sign")
    _defaults = {"order": None, "sign": None}


def classify_sl2(g):
    """Trace-type classification of g in SL2(Z)."""
    _require_sl2(g)
    tr = g.trace()
    if abs(tr) > 2:
        return Sl2Class("hyperbolic")
    order = order_of(g)
    if order is None:   # trace +-2 and g != +-I
        return Sl2Class("parabolic", sign=tr // 2)
    return Sl2Class("elliptic", order=order)


def order_of(g, cap=None):
    """Smallest k with g^k = I, or None for proven infinite order.

    A 2x2 order comes in closed form from the determinant and trace, whatever
    the cap.  Larger sizes multiply up to the cap (12 by default), and a cap
    miss raises OrderCapExceeded rather than claiming infinite order.
    """
    _require_unimodular(g)
    if g.rows == 2:
        (a, b), (c, d) = g.data
        if b == c == 0 and a == d:   # +-I
            return 1 if a == 1 else 2
        return _FINITE_ORDERS.get((a * d - b * c, a + d))
    cap = SL2_TORSION_CAP if cap is None else cap
    ident = Matrix.identity(g.rows)
    p = g
    for k in range(1, cap + 1):
        if p == ident:
            return k
        p = p * g
    raise OrderCapExceeded(f"no order found within cap {cap}")


# -- generator-word decomposition ------------------------------------------

def decompose_st(g):
    """Write g as a word over {S, T} times (-I)^eps.

    Continued-fraction style: while the lower-left entry is nonzero,
    left-multiply by S*T^(-q) with q the rounded quotient of the Euclidean
    step; the residue is +-T^k.  The loop runs on the four integer entries:
    q = floor(a/c + 1/2) = (2a + c) // (2c), and S*T^(-q) sends the rows
    (a, b), (c, d) to (-c, -d), (a - qc, b - qd).
    """
    _require_sl2(g)
    (a, b), (c, d) = g.data
    quotients = []
    while c != 0:
        q = (2 * a + c) // (2 * c)
        a, b, c, d = -c, -d, a - q * c, b - q * d
        quotients.append(q)
    tokens = []
    central = 0
    for q in quotients:  # g = (T^q1 S^-1)(T^q2 S^-1)... residue; S^-1 = (-I) S
        if q != 0:
            tokens.append(("T", q))
        tokens.append(("S", 1))
        central ^= 1
    if a == 1:
        tail = b
    else:  # residue [[-1, x], [0, -1]] = (-I) T^(-x)
        tail = -b
        central ^= 1
    if tail != 0:
        tokens.append(("T", tail))
    return GenWord(tuple(tokens), central)


def to_st_word(word):
    """Convert an {S, T} word to the torsion alphabet {s, t}.

    Uses S = s^3 (up to s^4 = I), T = s*t, and -I = s^2; exponents are
    reduced modulo the generator orders (4 for s, 6 for t).
    """
    raw = []
    if word.central:
        raw.append(("s", 2))
    for gen, exp in word.tokens:
        if gen == "S":
            raw.append(("s", 3 * exp))
        elif gen == "T":
            if exp >= 0:
                raw.extend([("s", 1), ("t", 1)] * exp)
            else:  # T^-1 = t^-1 s^-1
                raw.extend([("t", -1), ("s", -1)] * (-exp))
        elif gen in ("s", "t"):
            raw.append((gen, exp))
        else:
            raise PreconditionError(f"unknown generator {gen!r}")
    # Canonicalize: merge adjacent equal generators, reduce mod order, drop 0.
    order = {"s": 4, "t": 6}
    out = []
    for gen, exp in raw:
        if out and out[-1][0] == gen:
            gen_, acc = out.pop()
            exp = acc + exp
        exp %= order[gen]
        if exp:
            out.append((gen, exp))
    return GenWord(tuple(out), 0)


# -- congruence subgroups --------------------------------------------------

class CongruenceKind(Record):
    __slots__ = ("family", "level")

    def __init__(self, family, level):
        if family not in ("gamma", "gamma0", "gamma1"):
            raise PreconditionError(f"unknown congruence family {family!r}")
        if level < 1:
            raise PreconditionError("level must be >= 1")
        Record.__init__(self, family, level)


def congruence_membership(kind, g):
    """Membership of g in Gamma(N), Gamma_0(N) or Gamma_1(N)."""
    _require_sl2(g)
    N = kind.level
    if kind.family == "gamma0":
        return g[1, 0] % N == 0
    one = 1 % N  # so that level 1 means the full group
    if kind.family == "gamma1":
        return g[1, 0] % N == 0 and g[0, 0] % N == one and g[1, 1] % N == one
    return (g[1, 0] % N == 0 and g[0, 1] % N == 0
            and g[0, 0] % N == one and g[1, 1] % N == one)


def subgroup_generators(kind):
    """Fixed generator sets used for reproducible sampling."""
    if kind == "full":
        return (S, T)
    N = kind.level
    if kind.family == "gamma1" or kind.family == "gamma0":
        return (Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [N, 1]]))
    return (Matrix([[1, N], [0, 1]]), Matrix([[1, 0], [N, 1]]))


def sample_subgroup_element(kind, word_length, seed):
    """Deterministic pseudo-random product of the subgroup's generators.

    Membership in the requested subgroup holds by construction.  The PRNG
    contract is SplitMix64 (see prng module); each step draws one value
    r = below(2 * ngens) selecting generator r // 2 and, for odd r, its
    inverse.
    """
    if word_length < 0:
        raise PreconditionError("word_length must be >= 0")
    gens = subgroup_generators(kind)
    rng = SplitMix64(seed)
    m = Matrix.identity(2)
    for _ in range(word_length):
        r = rng.below(2 * len(gens))
        g = gens[r // 2]
        m = m * (g.inverse() if r % 2 else g)
    return m
