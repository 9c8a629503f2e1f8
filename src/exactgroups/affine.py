"""The affine groups Z^n x| SL_n(Z): arithmetic, ICC analysis, conjugacy-class
growth oracle, invariant-lattice closure, the unimodular-twist automorphism,
and a classification report for canonical subgroup descriptors.

`lattice`, `sl2` and `cocycle` are imported by the functions that call
them, never in a loop, so a CLI call such as `affine ball` compiles none
of them.
"""

from __future__ import annotations

from functools import partial
from math import gcd, prod
from operator import mul

from .matrix import (Matrix, PreconditionError, Record, ShapeError, _int_mul, _scaled, vec_add,
                     vec_norm)


class AffineElement(Record):
    """Pair (a, g): translation a in Z^n and linear part g in SL_n(Z).

    The translation is kept as a tuple of normalized entries, so elements
    built from a list or a tuple, or with Fraction(4, 2) for 2, are equal
    and hash alike.

    Multiplication law: (a, g)(b, h) = (a + g b, g h).  With integral g, h
    of size 2 or 3 and int translations the product is one call of
    `_int_affine_mul` on the raw rows, with no normalizing and no second
    shape check, and the result is built by `_trusted`, the one unchecked
    constructor; every other product goes through `Matrix`.
    """

    __slots__ = ("translation", "linear")

    def __init__(self, translation, linear):
        if len(translation) != linear.rows or linear.rows != linear.cols:
            raise ShapeError("translation and linear part dimensions disagree")
        Record.__init__(self, vec_norm(translation), linear)

    @staticmethod
    def _trusted(translation, rows):
        """AffineElement on an int translation tuple and the int rows of a
        square matrix of its size, unchecked, with its integral Matrix: the
        kernels that end here have checked both."""
        m = _new(Matrix)
        n = len(rows)
        _set_rows(m, n)
        _set_cols(m, n)
        _set_num(m, rows)
        _set_lam(m, 1)
        _set_integral(m, True)
        el = _new(AffineElement)
        _set_translation(el, translation)
        _set_linear(el, m)
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
            product = _int_affine_mul(a, g.num, b, h.num)
            if product is not None:
                return AffineElement._trusted(*product)
        return AffineElement(vec_add(a, g.apply(b)), g * h)

    def inverse(self):
        g_inv = self.linear.inverse()
        return AffineElement(tuple(-x for x in g_inv.apply(self.translation)), g_inv)


# The slot setters, bound once: `AffineElement._trusted` builds every int
# product and automorphism image.
_new = object.__new__
_set_translation, _set_linear = AffineElement._setters
_set_rows, _set_cols, _set_num, _set_lam, _set_integral = Matrix._setters


def _int_affine_mul(a, g, b, h):
    """(a + g b, rows of g h) for int matrices given by their rows g, h, both
    n x n with n = 2 or 3, and vectors a, b of length n, when every entry of
    a and b is an int; else None.  No entry needs normalizing."""
    n = len(g)
    if n == 2:
        (a0, a1), (b0, b1) = a, b
        if type(a0) is int and type(a1) is int and type(b0) is int and type(b1) is int:
            (p, q), (r, s) = g
            (e, f), (u, v) = h
            return ((a0 + p * b0 + q * b1, a1 + r * b0 + s * b1),
                    ((p * e + q * u, p * f + q * v), (r * e + s * u, r * f + s * v)))
    elif n == 3:
        (a0, a1, a2), (b0, b1, b2) = a, b
        if (type(a0) is int and type(a1) is int and type(a2) is int
                and type(b0) is int and type(b1) is int and type(b2) is int):
            (p, q, r), (s, t, u), (v, w, z) = g
            (j, k, m), (c, d, e), (x, y, f) = h
            return ((a0 + p * b0 + q * b1 + r * b2, a1 + s * b0 + t * b1 + u * b2,
                     a2 + v * b0 + w * b1 + z * b2),
                    ((p * j + q * c + r * x, p * k + q * d + r * y, p * m + q * e + r * f),
                     (s * j + t * c + u * x, s * k + t * d + u * y, s * m + t * e + u * f),
                     (v * j + w * c + z * x, v * k + w * d + z * y, v * m + w * e + z * f)))
    return None


# -- ICC analysis ----------------------------------------------------------

def fc_witness(g):
    """A primitive v with g v = sign * v, or None when no +-1 eigenvector exists.

    Such a v generates a finite conjugacy class of (v, e) in Z^2 x| <g, -I>.
    It is the first HNF row of the saturated lattice ker(g - sign I).
    """
    import exactgroups.lattice as lattice
    for sign in (1, -1):
        basis = lattice.fixed_sublattice(g, sign)
        if not basis.is_zero:
            return basis.rows[0], sign
    return None


def icc_affine_cyclic(g):
    """Whether Z^2 x| <g, -I> is ICC, for g in GL2(Z) of infinite order.

    Equivalent characterizations (all checked to agree by the test suite):
    no +-1 eigenvector in Z^2, and, for det g = 1, |tr(g)| > 2.  With det
    g = -1 and infinite order the trace is nonzero, so the eigenvalues are
    irrational and the group is ICC.  The answer is read from det(g - I) and
    det(g + I): an integer matrix with eigenvalue +-1 has a rational, hence
    an integer, eigenvector, so g has none in Z^2 exactly when both are nonzero.
    """
    import exactgroups.sl2 as sl2
    k = sl2.order_of(g)
    if k is not None:
        raise PreconditionError(f"g has finite order {k}")
    ident = Matrix.identity(g.rows)
    return (g - ident).det() != 0 and (g + ident).det() != 0


def conj_class_ball(x, gens, radius):
    """Number of distinct conjugates w x w^-1 for words w of length <= radius.

    One breadth-first search, `_orbit_ball`, on the conjugates c = (a, C),
    each a raw pair (translation, rows); no word is kept.  A letter g = (b, G)
    with g^-1 = (b', H) steps c by `_conjugate` to g c g^-1 = (G a + b +
    G C b', G C H), the one conjugation kernel, which `affine_automorphism`
    runs too (written out for n = 2 and 3; the entries of a rational linear
    part pass through it unnormalized).  The letters are the conjugations by
    g and by g^-1, inverse maps, so letters 2k and 2k + 1 undo each other as
    `_orbit_ball` requires.  The conjugates by words of length <= radius are
    the points within distance radius of x in the graph c -- g c g^-1, and
    breadth-first distance is the least word length, so the count is exact.

    A translation x = (v, I) has w x w^-1 = (W v, I) for w = (a, W), so there
    the search runs on v alone, under the letters' linear parts: flat 4-tuples
    at n = 2, `Matrix.apply` otherwise.  No step normalizes: Fraction(k, 1)
    and k are equal and hash alike, so each conjugate is counted once.

    With a "p/q" translation, the search runs on ints all the same:
    conjugation by the dilation lam I maps (a, C) to (lam a, C) and is an
    automorphism, so with lam the lcm of the denominators of the translations
    the search uses (x's alone for a translation x, else x's and every
    letter's), the dilated x and letters give the same count.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    alphabet = [h for g in gens for h in (g, g.inverse())]
    if not radius:
        return 1   # x itself; a product across dimensions would be an error
    n = len(x.translation)
    if any(g.linear.rows != n for g in gens):
        raise ShapeError("dimension mismatch")
    if x.linear == Matrix.identity(n):
        letters = [(*h.linear.data[0], *h.linear.data[1]) if n == 2 else h.linear.apply
                   for h in alphabet]
        (start,) = _scaled([x.translation])[0]
        return _orbit_ball(start, letters, radius)
    start, *shifts = _scaled([x.translation, *[h.translation for h in alphabet]])[0]
    raw = [(a, h.linear.data) for a, h in zip(shifts, alphabet)]
    letters = [partial(_conjugate, raw[i], raw[i ^ 1]) for i in range(len(raw))]
    return _orbit_ball((start, x.linear.data), letters, radius)


def _conjugate(g, g_inv, c):
    """g c g^-1 = (G a + b + G C b', G C H) for the raw (translation tuple,
    tuple of rows) pairs c = (a, C), g = (b, G) and g^-1 = (b', H).

    Written out for n = 2 and 3, generic row products past them.  The
    arithmetic is type-agnostic and nothing is normalized: on ints the
    result is ints, and a Fraction entry gives Fractions where it enters.
    The library's callers pass int translations (`conj_class_ball` dilates
    them, `phi` takes only int ones), so only a rational linear part brings
    Fractions in."""
    (b, G), (b_inv, H), (a, C) = g, g_inv, c
    n = len(G)
    if n == 2:
        (g0, g1), (g2, g3) = G
        (c0, c1), (c2, c3) = C
        (h0, h1), (h2, h3) = H
        (a0, a1), (d0, d1), (e0, e1) = a, b, b_inv
        w, x, y, z = g0 * c0 + g1 * c2, g0 * c1 + g1 * c3, g2 * c0 + g3 * c2, g2 * c1 + g3 * c3
        return ((d0 + (g0 * a0 + g1 * a1) + (w * e0 + x * e1),
                 d1 + (g2 * a0 + g3 * a1) + (y * e0 + z * e1)),
                ((w * h0 + x * h2, w * h1 + x * h3), (y * h0 + z * h2, y * h1 + z * h3)))
    if n == 3:
        (g0, g1, g2), (g3, g4, g5), (g6, g7, g8) = G
        (c0, c1, c2), (c3, c4, c5), (c6, c7, c8) = C
        p, q, r = (g0 * c0 + g1 * c3 + g2 * c6, g0 * c1 + g1 * c4 + g2 * c7,
                   g0 * c2 + g1 * c5 + g2 * c8)
        s, t, u = (g3 * c0 + g4 * c3 + g5 * c6, g3 * c1 + g4 * c4 + g5 * c7,
                   g3 * c2 + g4 * c5 + g5 * c8)
        v, w, z = (g6 * c0 + g7 * c3 + g8 * c6, g6 * c1 + g7 * c4 + g8 * c7,
                   g6 * c2 + g7 * c5 + g8 * c8)
        (h0, h1, h2), (h3, h4, h5), (h6, h7, h8) = H
        (a0, a1, a2), (d0, d1, d2), (e0, e1, e2) = a, b, b_inv
        return ((d0 + (g0 * a0 + g1 * a1 + g2 * a2) + (p * e0 + q * e1 + r * e2),
                 d1 + (g3 * a0 + g4 * a1 + g5 * a2) + (s * e0 + t * e1 + u * e2),
                 d2 + (g6 * a0 + g7 * a1 + g8 * a2) + (v * e0 + w * e1 + z * e2)),
                ((p * h0 + q * h3 + r * h6, p * h1 + q * h4 + r * h7, p * h2 + q * h5 + r * h8),
                 (s * h0 + t * h3 + u * h6, s * h1 + t * h4 + u * h7, s * h2 + t * h5 + u * h8),
                 (v * h0 + w * h3 + z * h6, v * h1 + w * h4 + z * h7, v * h2 + w * h5 + z * h8)))
    GC = _int_mul(G, C)
    t = [x + sum(map(mul, row, a)) + sum(map(mul, gc, b_inv)) for x, row, gc in zip(b, G, GC)]
    return tuple(t), _int_mul(GC, H)


def _orbit_ball(start, letters, radius):
    """|{W start : W a product of at most `radius` of the `letters`}|, by
    breadth-first search on the points; letters 2k and 2k + 1 are inverse.
    A point is a tuple, its own set key.  A letter is a function of a point or
    a flat 2x2 4-tuple, whose product stays written out here: the slowest 1%
    of `int-words` benchmark ops are this loop, and a function letter cost
    8-13% of its time (Python 3.11.7; op_p99_ms 0.254 -> 0.297 ms, 4 pairs)."""
    flat = bool(letters) and type(letters[0]) is tuple
    seen = {start}
    frontier = [(start, None)]   # (point, index of the letter that made it)
    for _ in range(radius):
        new_frontier = []
        for u, last in frontier:
            for i, G in enumerate(letters):
                if i ^ 1 == last:
                    continue   # G undoes the letter that made u: G u was seen
                if flat:
                    a, b, c, d = G
                    x, y = u
                    gu = (a * x + b * y, c * x + d * y)
                else:
                    gu = G(u)
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

    Each row is mapped by `Matrix.apply`, which takes `matrix._int_apply` on
    an integral matrix and an int row.  The span V of the basis L is checked
    once, in the first round that leaves the rank unchanged, when V is
    invariant.  An integral g has an integral inverse exactly when
    |det g| = 1, and then g and g^-1 keep both Z^n and V, so g permutes the
    integer points of V and det(g|V) = +-1.  So when every generator has an
    integral inverse, nothing is checked, at any rank; at full rank, where
    V = Q^n and vol g(L) = |det g| vol L, this det read is the whole check.
    Otherwise g(L) spans V with the pivot columns P of L, so
    |det(g|V)| = |det(g(L)[:, P]) / det(L[:, P])|, the ratio of the pivot
    products of the HNFs of g(L) and L.
    """
    import exactgroups.lattice as lattice
    if not gens:
        raise PreconditionError("at least one generator required")
    n = gens[0].rows
    for g in gens:
        if (g.rows, g.cols) != (n, n) or not g.integral:
            raise PreconditionError("generators must be square integer matrices of one size")
    mats = [h for g in gens for h in (g, g.inverse())]
    # |det g| = 1 for every generator: the span check cannot fail.
    span_checked = all(h.integral for h in mats)
    basis = lattice.hnf(seeds, dim=n)
    while True:
        rows = basis.rows
        images = [h.apply(row) for h in mats for row in rows]
        new_basis = lattice.hnf(list(rows) + images, dim=n)
        if new_basis.rank == basis.rank and not span_checked:
            volume = prod(basis.pivots())
            for g in gens:
                if prod(lattice.hnf([g.apply(r) for r in rows], dim=n).pivots()) != volume:
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
    el -> P el P^-1 and a bijective homomorphism.
    L must be an integer matrix with det +-1; xi is an integer vector.

    The rows and translations of P and P^-1 are all ints, so for an el of
    the same size with an integral linear part and an int translation the
    image is one call of `_conjugate`, the conjugation kernel of the
    `conj_class_ball` step, on the raw pairs of P, P^-1 and el, built by
    `AffineElement._trusted`.  Any other el takes P * el * P_inv.
    """
    import exactgroups.sl2 as sl2
    sl2._require_unimodular(L)
    P = AffineElement(xi, L)
    if any(type(x) is not int for x in P.translation):
        raise PreconditionError("xi must be an integer vector")
    P_inv = P.inverse()
    raw, raw_inv = (P.translation, L.num), (P_inv.translation, P_inv.linear.num)
    n = L.rows

    def phi(el):
        s = el.linear
        a = el.translation
        # The entries of a are ints or Fractions, and one Fraction makes the
        # sum a Fraction: type(sum(a)) is int when every entry is an int.
        if s.integral and s.rows == n and type(sum(a)) is int:
            t, m = _conjugate(raw, raw_inv, (a, s.num))
            return AffineElement._trusted(t, m)
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
    import exactgroups.cocycle as cocycle
    # g22 - 1 adds nothing: det g = 1 (see sl2.congruence_membership).
    N = gcd(*(x for g in spec.generators for x in (g[1, 0], g[0, 0] - 1)))
    if N < 2:
        return None
    for g, v in zip(spec.generators, spec.values):
        if v != cocycle.gamma1_cocycle(N, g):
            return None
    return N


def classify_subgroup(descriptor):
    """Evidence report for a canonical subgroup descriptor.

    Maximality itself is never asserted; the report lists reproducible
    obstruction evidence only.
    """
    import exactgroups.cocycle as cocycle
    checks = []
    if isinstance(descriptor, FullLatticeSemidirect):
        basis = descriptor.lattice
        if not all(basis.contains(g.apply(row))
                   for g in descriptor.linear_gens for row in basis.rows):
            raise PreconditionError("lattice is not invariant under the generators")
        checks.append(Check("lattice-invariance", "pass",
                            {"violating_generators": [], "index": basis.index()}))
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
            ok = cocycle.verify_relations(spec)
            checks.append(Check("relators", "pass" if ok else "fail",
                                {"count": len(spec.relators)}))
        else:
            checks.append(Check("relators", "unknown", {"count": 0}))
        level = _detect_gamma1_level(spec)
        if level is not None:
            # xi = (1/N, 0) solves the stacked system, so a witness exists.
            witness = cocycle.coboundary_witness(spec)
            checks.append(Check("gamma1-obstruction",
                                "fail" if witness.integral else "pass",
                                {"level": level, "xi": witness.xi}))
        elif (values := _finf_values(spec)) is not None:
            # A shift that instantiates no relation is not an obstruction.
            absent = all(
                any(k + n in values for k in values)
                and cocycle.finf_extend(n, values, sorted(values)) is None
                for n in (1, -1, 2, -2))
            checks.append(Check("finf-obstruction",
                                "pass" if absent else "fail",
                                {"shifts_checked": [1, -1, 2, -2]}))
        else:
            checks.append(Check("known-obstruction", "unknown", {}))
        return ClassificationReport("case2", tuple(checks))

    raise PreconditionError(f"unknown descriptor type {type(descriptor)!r}")


def _cyclic_checks(g):
    import exactgroups.sl2 as sl2
    checks = []
    cls = sl2.classify_sl2(g)
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
    import exactgroups.cocycle as cocycle
    values = {}
    for g, v in zip(spec.generators, spec.values):
        k, rem = divmod(1 - g[0, 0], 4)
        if rem or g != cocycle.finf_generator(k):
            return None
        values[k] = v
    return values if 0 in values else None
