"""The affine groups Z^n x| SL_n(Z): arithmetic, ICC analysis, conjugacy-class
growth oracle, invariant-lattice closure, the unimodular-twist automorphism,
and a classification report for canonical subgroup descriptors.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, prod
from operator import mul

from . import cocycle as _cocycle
from .lattice import fixed_sublattice, hnf
from .matrix import (Matrix, PreconditionError, Record, ShapeError, _int_affine,
                     _int_mul, vec_add, vec_is_integral, vec_norm)
from .sl2 import _require_unimodular, classify_sl2, order_of


class AffineElement(Record):
    """Pair (a, g): translation a in Z^n and linear part g in SL_n(Z).

    The translation is kept as a tuple of normalized entries, so elements
    built from a list or a tuple, or with Fraction(4, 2) for 2, are equal
    and hash alike.

    Multiplication law: (a, g)(b, h) = (a + g b, g h).  With integral g, h
    and int translations the product runs on the integer kernels of
    `matrix` alone, with no normalizing and no second shape check.
    """

    __slots__ = ("translation", "linear")

    def __init__(self, translation, linear):
        if len(translation) != linear.rows or linear.rows != linear.cols:
            raise ShapeError("translation and linear part dimensions disagree")
        Record.__init__(self, vec_norm(translation), linear)

    @classmethod
    def _trusted(cls, translation, linear):
        """AffineElement on a translation tuple and a square Matrix of its
        size, unchecked: the products that end here have checked both."""
        el = object.__new__(cls)
        set_translation, set_linear = cls._setters
        set_translation(el, translation)
        set_linear(el, linear)
        return el

    @staticmethod
    def identity(n):
        return AffineElement((0,) * n, Matrix.identity(n))

    def __mul__(self, other):
        g, h = self.linear, other.linear
        if g.rows != h.rows:
            raise ShapeError("dimension mismatch")
        a, b = self.translation, other.translation
        if g.integral and h.integral:
            t = _int_affine(a, g.data, b)
            if t is not None:
                return AffineElement._trusted(t, Matrix._trusted(_int_mul(g.data, h.data), True))
        return AffineElement(vec_add(a, g.apply(b)), g * h)

    def inverse(self):
        g_inv = self.linear.inverse()
        return AffineElement(tuple(-x for x in g_inv.apply(self.translation)), g_inv)


# -- ICC analysis ----------------------------------------------------------

def fc_witness(g):
    """A primitive v with g v = sign * v, or None when no +-1 eigenvector exists.

    Such a v generates a finite conjugacy class of (v, e) in Z^2 x| <g, -I>.
    It is the first HNF row of the saturated lattice ker(g - sign I).
    """
    for sign in (1, -1):
        basis = fixed_sublattice(g, sign)
        if not basis.is_zero:
            return basis.rows[0], sign
    return None


def icc_affine_cyclic(g):
    """Whether Z^2 x| <g, -I> is ICC, for g in GL2(Z) of infinite order.

    Equivalent characterizations (all checked to agree by the test suite):
    no +-1 eigenvector in Z^2, and, for det g = 1, |tr(g)| > 2.  With det
    g = -1 and infinite order the trace is nonzero, so the eigenvalues are
    irrational and the group is ICC.
    """
    k = order_of(g)
    if k is not None:
        raise PreconditionError(f"g has finite order {k}")
    return fc_witness(g) is None


def conj_class_ball(x, gens, radius):
    """Number of distinct conjugates w x w^-1 for words w of length <= radius.

    One breadth-first search, `_orbit_ball`, on the conjugates themselves:
    no word is kept.  For a letter g = (b, G) with g^-1 = (b', H), b' = -H b,
    conjugation sends c = (a, C) to g c g^-1 = (G a + b + G C b', G C H),
    which is affine in (a, C): `_conjugation` writes it as one matrix on the
    vector (a, C read row by row, 1).  The letters are the conjugations by
    g and by g^-1, which are inverse maps, so letters 2k and 2k + 1 undo each
    other as `_orbit_ball` requires.  The conjugates of x by words of length
    <= radius are the points within distance radius of x in the graph
    c -- g c g^-1, and breadth-first distance is the least word length, so
    the count is exact.

    A translation x = (v, I) has w x w^-1 = (W v, I) for w = (a, W), so there
    the search runs on v alone, under the letters' linear parts.  Its points
    have n entries, while the vector above has n + n^2 + 1, never 2, so only
    translations in dimension 2 take `_orbit_ball`'s written-out 2x2 product.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    pairs = [(g, g.inverse()) for g in gens]
    if not radius:
        return 1   # x itself; a product across dimensions would be an error
    n = len(x.translation)
    if any(g.linear.rows != n for g in gens):
        raise ShapeError("dimension mismatch")
    if x.linear == Matrix.identity(n):
        letters = [h.linear.data for pair in pairs for h in pair]
        return _orbit_ball(x.translation, letters, radius)
    letters = [m for g, g_inv in pairs for m in (_conjugation(g, g_inv), _conjugation(g_inv, g))]
    return _orbit_ball((*x.translation, *chain(*x.linear.data), 1), letters, radius)


def _conjugation(g, g_inv):
    """Rows of the matrix of c -> g c g^-1 on the vectors (a, C row by row, 1)
    of c = (a, C), for g = (b, G) and g^-1 = (b', H)."""
    b, G = g.translation, g.linear.data
    b_inv, H = g_inv.translation, g_inv.linear.data
    n = len(b)
    span = range(n)
    rows = [(*G[i], *[G[i][j] * b_inv[k] for j in span for k in span], b[i]) for i in span]
    rows += [(*(0,) * n, *[G[i][j] * H[k][l] for j in span for k in span], 0)
             for i in span for l in span]
    rows.append((0,) * (n + n * n) + (1,))
    return rows


def _orbit_ball(v, letters, radius):
    """|{W v : W a product of at most `radius` of the `letters`}|, by
    breadth-first search on the points; letters 2k and 2k + 1 are inverse.
    A point is a tuple, its own set key; for 2-entry points each letter is a
    flat 4-tuple and its product with a point is written out."""
    two = len(v) == 2
    if two:
        letters = [(*G[0], *G[1]) for G in letters]
    seen = {v}
    frontier = [(v, None)]   # (point, index of the letter that made it)
    for _ in range(radius):
        new_frontier = []
        for u, last in frontier:
            for i, G in enumerate(letters):
                if i ^ 1 == last:
                    continue   # G undoes the letter that made u: G u was seen
                if two:
                    a, b, c, d = G
                    x, y = u
                    gu = (a * x + b * y, c * x + d * y)
                else:
                    gu = tuple([sum(map(mul, row, u)) for row in G])
                if gu not in seen:
                    seen.add(gu)
                    new_frontier.append((gu, i))
        frontier = new_frontier
        if not frontier:
            break
    return len(seen)


# -- invariant lattices ----------------------------------------------------

def invariant_lattice(gens, seeds):
    """Smallest sublattice containing the seeds and invariant under all
    generators and their inverses.

    Worklist closure interleaved with HNF reduction; returns (basis, index)
    where index is None when the closure is not of full rank.  Raises
    PreconditionError when some generator has det != +-1 on the span of the
    closure: then the closure is not finitely generated (diag(2, 1) on the
    seed e1 gives Z[1/2] e1), and otherwise the loop ends.
    """
    if not gens:
        raise PreconditionError("at least one generator required")
    n = gens[0].rows
    for g in gens:
        if (g.rows, g.cols) != (n, n) or not g.is_integral():
            raise PreconditionError("generators must be square integer matrices of one size")
    mats = [h for g in gens for h in (g, g.inverse())]
    basis = hnf([tuple(s) for s in seeds], dim=n)
    span_checked = False
    while True:
        images = [g.apply(row) for g in mats for row in basis.rows]
        new_basis = hnf(list(basis.rows) + images, dim=n)
        if new_basis.rank == basis.rank and not span_checked:
            # The span V of the basis B is invariant now, and g(B) spans it
            # with the same pivot columns P: |det(g|V)| = |det(g(B)[:, P]) /
            # det(B[:, P])|, and HNF makes each |det(X[:, P])| a pivot product.
            volume = prod(basis.pivots())
            for g in gens:
                if prod(hnf([g.apply(r) for r in basis.rows], dim=n).pivots()) != volume:
                    raise PreconditionError("no invariant lattice: a generator has "
                                            "det != +-1 on the span of the closure")
            span_checked = True
        if new_basis == basis:
            return basis, basis.index()
        basis = new_basis


# -- automorphisms ---------------------------------------------------------

def affine_automorphism(L, xi):
    """The automorphism (a, s) -> (L a + xi - (L s L^-1) xi, L s L^-1).

    It is conjugation by P = (xi, L): P (a, s) P^-1 = (xi + L a, L s)
    (-L^-1 xi, L^-1) is the pair above, so the returned map is
    el -> P el P^-1, two affine products, and a bijective homomorphism.
    L must be an integer matrix with det +-1; xi is an integer vector.
    """
    _require_unimodular(L)
    if not vec_is_integral(xi):
        raise PreconditionError("xi must be an integer vector")
    P = AffineElement(xi, L)
    P_inv = P.inverse()

    def phi(el):
        return P * el * P_inv

    return phi


# -- subgroup descriptors and classification -------------------------------

class FullLatticeSemidirect(Record):
    """H = B x| <gens>: a sublattice B of Z^n with linear generators."""

    __slots__ = ("lattice", "linear_gens")


class GraphSubgroup(Record):
    """H = {(c(g), g)}: the graph of a cocycle given by a CocycleSpec."""

    __slots__ = ("spec",)


class CyclicLinear(Record):
    """H = Z^2 x| <g>, or Z^2 x| <g, -I> when `with_minus_identity`.

    Every check reads the same for both groups.  For g of infinite order,
    (v, e) has a finite conjugacy class under <g> and under <g, -I> exactly
    when g v = +-v, and both linear parts are virtually cyclic.
    """

    __slots__ = ("g", "with_minus_identity")
    _defaults = {"with_minus_identity": True}


class Check(Record):
    __slots__ = ("name", "verdict", "evidence")   # verdict: "pass" | "fail" | "unknown"


class ClassificationReport(Record):
    __slots__ = ("case", "checks")   # case: "case1" | "case2" | "unknown"

    def verdict(self, name):
        for c in self.checks:
            if c.name == name:
                return c.verdict
        return None


def _detect_gamma1_level(spec):
    """Largest N >= 2 such that the spec is the Gamma_1(N) family cocycle."""
    N = 0
    for g in spec.generators:
        N = gcd(N, g[1, 0])
        N = gcd(N, g[0, 0] - 1)
        N = gcd(N, g[1, 1] - 1)
    N = abs(N)
    if N < 2:
        return None
    for g, v in zip(spec.generators, spec.values):
        if tuple(v) != _cocycle.gamma1_cocycle(N, g):
            return None
    return N


def classify_subgroup(descriptor):
    """Evidence report for a canonical subgroup descriptor.

    Maximality itself is never asserted; the report lists reproducible
    obstruction evidence only.
    """
    checks = []
    if isinstance(descriptor, FullLatticeSemidirect):
        basis = descriptor.lattice
        bad = [i for i, g in enumerate(descriptor.linear_gens)
               if not all(basis.contains(g.apply(row)) for row in basis.rows)]
        checks.append(Check("lattice-invariance",
                            "fail" if bad else "pass",
                            {"violating_generators": bad,
                             "index": basis.index()}))
        if bad:
            raise PreconditionError("lattice is not invariant under the generators")
        if len(descriptor.linear_gens) == 1:
            checks.extend(_cyclic_checks(descriptor.linear_gens[0]))
        else:
            checks.append(Check("amenable-linear-part", *_finite_closure_check(
                descriptor.linear_gens, basis.dim)))
        return ClassificationReport("case1", tuple(checks))

    if isinstance(descriptor, CyclicLinear):
        checks.extend(_cyclic_checks(descriptor.g))
        return ClassificationReport("case1", tuple(checks))

    if isinstance(descriptor, GraphSubgroup):
        spec = descriptor.spec
        if spec.relators:
            ok = _cocycle.verify_relations(spec)
            checks.append(Check("relators", "pass" if ok else "fail",
                                {"count": len(spec.relators)}))
        else:
            checks.append(Check("relators", "unknown", {"count": 0}))
        level = _detect_gamma1_level(spec)
        if level is not None:
            # xi = (1/N, 0) solves the stacked system, so a witness exists.
            witness = _cocycle.coboundary_witness(spec)
            checks.append(Check("gamma1-obstruction",
                                "fail" if witness.integral else "pass",
                                {"level": level, "xi": witness.xi}))
        elif (values := _finf_values(spec)) is not None:
            # A shift that instantiates no relation is not an obstruction.
            absent = all(
                any(k + n in values for k in values)
                and _cocycle.finf_extend(n, values, sorted(values)) is None
                for n in (1, -1, 2, -2))
            checks.append(Check("finf-obstruction",
                                "pass" if absent else "fail",
                                {"shifts_checked": [1, -1, 2, -2]}))
        else:
            checks.append(Check("known-obstruction", "unknown", {}))
        return ClassificationReport("case2", tuple(checks))

    raise PreconditionError(f"unknown descriptor type {type(descriptor)!r}")


def _cyclic_checks(g):
    checks = []
    cls = classify_sl2(g)
    checks.append(Check("linear-part-class", "pass",
                        {"kind": cls.kind, "order": cls.order, "sign": cls.sign}))
    if cls.kind == "elliptic":
        checks.append(Check("icc", "unknown", {"reason": "finite order"}))
    else:
        icc = icc_affine_cyclic(g)
        checks.append(Check("icc", "pass" if icc else "fail",
                            {"trace": g.trace()}))
    # A single generator (with -I) is virtually cyclic, hence amenable.
    checks.append(Check("amenable-linear-part", "pass", {"form": "virtually cyclic"}))
    return checks


def _finite_closure_check(gens, dim, cap=24):
    """("pass", evidence) when the group generated by the dim x dim matrices
    `gens` closes finitely; no generators give the trivial group."""
    seen = {Matrix.identity(dim)}
    frontier = list(seen)
    alphabet = [g for g in gens] + [g.inverse() for g in gens]
    while frontier:
        if len(seen) > cap:
            return "unknown", {"reason": f"no closure within cap {cap}"}
        new = []
        for m in frontier:
            for g in alphabet:
                nm = m * g
                if nm not in seen:
                    seen.add(nm)
                    new.append(nm)
        frontier = new
    return "pass", {"order": len(seen)}


def _finf_values(spec):
    """{k: c(g_k)} when every generator is a free-family generator
    g_k = b^k a b^-k and g_0 is among them, else None.  A repeated k keeps
    its last value."""
    values = {}
    for g, v in zip(spec.generators, spec.values):
        k, rem = divmod(1 - g[0, 0], 4)
        if rem or g != _cocycle.finf_generator(k):
            return None
        values[k] = tuple(v)
    return values if 0 in values else None
