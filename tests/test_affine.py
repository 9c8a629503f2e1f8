"""Unit tests for the affine semidirect products Z^n x| SL_n(Z)."""

from fractions import Fraction
from math import prod
from operator import mul

import pytest

from exactgroups.affine import (AffineElement, ClassificationReport,
                                CyclicLinear, FullLatticeSemidirect,
                                GraphSubgroup, _conjugate, affine_automorphism,
                                classify_subgroup, conj_class_ball, fc_witness,
                                icc_affine_cyclic, invariant_lattice)
from exactgroups.cocycle import (CocycleSpec, UnderdeterminedWitness,
                                 finf_generator, gamma1_cocycle)
from exactgroups.lattice import hnf
from exactgroups.matrix import Matrix, PreconditionError, ShapeError, vec_norm
from exactgroups.sl2 import CongruenceKind, S, T, congruence_membership, order_of
from tests.conftest import (SL3_ELEMENTARIES, det1_matrices, forbid_fraction_arithmetic,
                            forbidden, random_sl2, random_unimodular, seeded)


# -- group arithmetic ------------------------------------------------------

def test_affine_group_laws():
    rng = seeded(1)
    e = AffineElement.identity(2)
    for _ in range(60):
        x = AffineElement((rng.int_in(-5, 5), rng.int_in(-5, 5)), random_sl2(rng, 5))
        y = AffineElement((rng.int_in(-5, 5), rng.int_in(-5, 5)), random_sl2(rng, 5))
        z = AffineElement((rng.int_in(-5, 5), rng.int_in(-5, 5)), random_sl2(rng, 5))
        assert (x * y) * z == x * (y * z)
        assert x * e == x and e * x == x
        assert x * x.inverse() == e
        assert x * e * x.inverse() == e


def test_affine_multiplication_law_explicit():
    x = AffineElement((1, 2), T)
    y = AffineElement((0, 3), S)
    assert (x * y).translation == (1 + 3, 2 + 3)   # (1,2) + T (0,3)
    assert (x * y).linear == T * S


def _typed(xs):
    return tuple((type(x), x) for x in xs)


def _ref_product(p, q):
    """(a + g b, g h) for p = (a, g), q = (b, h) given as tuples of rows, in
    Fraction arithmetic, every entry normalized (denominator 1 to int)."""
    (a, g), (b, h) = p, q
    return (vec_norm([Fraction(x) + sum((Fraction(u) * w for u, w in zip(row, b)), Fraction(0))
                      for x, row in zip(a, g)]),
            tuple(vec_norm([sum((Fraction(u) * w for u, w in zip(row, col)), Fraction(0))
                            for col in zip(*h)]) for row in g))


def test_affine_product_fast_path_matches_generic_path():
    # Integral linear parts and int translations take the int kernel (written
    # out for n = 2 and 3, generic for n = 1, 4 and 5), also when the
    # matrices are rebuilt from their entries; rational linear parts and any
    # Fraction translation take the generic path.  Products and the twist
    # automorphism must match a Fraction reference in value and entry type,
    # and `integral` must mean that every entry is an int.
    rng = seeded(2022)

    def pick(options):
        return options[rng.below(len(options))]

    def linear(n, rational=False):
        if rational:
            return Matrix([[Fraction(rng.int_in(-4, 4), rng.int_in(1, 3)) for _ in range(n)]
                           for _ in range(n)])
        return Matrix([[pick((1, -1))]]) if n == 1 else random_unimodular(rng, n)

    def translation(n, kind):
        xs = [rng.int_in(-5, 5) for _ in range(n)]
        if kind == "unit":
            return tuple(Fraction(x) for x in xs)
        if kind == "rational":
            return tuple(Fraction(x, rng.int_in(1, 3)) for x in xs)
        return tuple(xs)

    def check(got, want):
        assert _typed(got.translation) == _typed(want[0])
        assert tuple(map(_typed, got.linear.data)) == tuple(map(_typed, want[1]))
        assert not got.linear.integral or all(
            type(x) is int for row in got.linear.data for x in row)

    int_path = 0
    for n in range(1, 6):
        for _ in range(40):
            g, h = (linear(n, rng.below(6) == 0) for _ in range(2))
            kinds = ["int", "int"] if rng.below(2) else [
                pick(("int", "unit", "rational")) for _ in range(2)]
            a, b = translation(n, kinds[0]), translation(n, kinds[1])
            L = linear(n)
            xi = translation(n, pick(("int", "unit")))
            phi = affine_automorphism(L, xi)
            L_inv = Matrix([[Fraction(v) for v in row] for row in L.data]).inverse()
            P, P_inv = (xi, L.data), (vec_norm([-v for v in L_inv.apply(xi)]), L_inv.data)
            for gg, hh in ((g, h), (Matrix(g.data), Matrix(h.data))):
                x, y = AffineElement(a, gg), AffineElement(b, hh)
                got = x * y
                check(got, _ref_product((x.translation, gg.data), (y.translation, hh.data)))
                if gg.integral and hh.integral:
                    assert got.linear.integral
                    int_path += kinds == ["int", "int"]
                for el in (x, y):
                    check(phi(el), _ref_product(
                        _ref_product(P, (el.translation, el.linear.data)), P_inv))
            with pytest.raises(ShapeError):
                x * AffineElement.identity(n + 1)
            with pytest.raises(ShapeError):
                AffineElement.identity(n + 1) * x
            with pytest.raises(ShapeError):
                phi(AffineElement.identity(n + 1))
    assert int_path >= 60


def test_integral_products_past_n3_match_reference():
    # Integral linear parts and int translations at n = 1, 4 and 5 (no
    # written-out kernel): the product is (a + g b, g h) on ints, with an
    # integral linear part.
    rng = seeded(4455)
    for n in (1, 4, 5):
        for _ in range(30):
            (g, a), (h, b) = ((Matrix([[rng.int_in(-1, 1) | 1]]) if n == 1
                               else random_unimodular(rng, n),
                               tuple(rng.int_in(-9, 9) for _ in range(n))) for _ in range(2))
            got = AffineElement(a, g) * AffineElement(b, h)
            want_t = tuple(x + sum(map(mul, row, b)) for x, row in zip(a, g.data))
            want_m = tuple(tuple(sum(map(mul, row, col)) for col in zip(*h.data))
                           for row in g.data)
            assert got.translation == want_t and got.linear.data == want_m
            assert got.linear.integral
            assert all(type(x) is int for x in got.translation)
            assert all(type(x) is int for row in got.linear.data for x in row)


def test_affine_shape_errors():
    with pytest.raises(ShapeError):
        AffineElement((1, 2, 3), T)
    with pytest.raises(ShapeError):
        AffineElement((1, 2), T) * AffineElement.identity(3)


# -- ICC analysis ----------------------------------------------------------

def test_fc_witness_examples():
    assert fc_witness(T) == ((1, 0), 1)
    assert fc_witness(-T) == ((1, 0), -1)
    assert fc_witness(Matrix([[2, 1], [1, 1]])) is None
    v, sign = fc_witness(Matrix([[1, 0], [4, 1]]))
    assert v == (0, 1) and sign == 1


def test_icc_examples():
    assert icc_affine_cyclic(Matrix([[2, 1], [1, 1]]))
    assert not icc_affine_cyclic(T)
    with pytest.raises(PreconditionError):
        icc_affine_cyclic(S)  # finite order


def test_conj_class_ball_basics():
    g = Matrix([[2, 1], [1, 1]])
    gens = [AffineElement((0, 0), g), AffineElement((0, 0), -Matrix.identity(2))]
    x = AffineElement((1, 0), Matrix.identity(2))
    counts = [conj_class_ball(x, gens, r) for r in range(5)]
    assert counts[0] == 1
    assert all(a < b for a, b in zip(counts, counts[1:]))
    central = AffineElement((0, 0), Matrix.identity(2))
    assert conj_class_ball(central, gens, 4) == 1
    with pytest.raises(PreconditionError):
        conj_class_ball(x, gens, -1)


def test_conj_class_ball_pinned_counts():
    # Counts for radii 0..6, pinned from the implementation that inverted
    # every word; carrying w^-1 through the search must not change them.
    g = Matrix([[2, 1], [1, 1]])
    st = [AffineElement((0, 0), S), AffineElement((0, 0), T)]
    hyperbolic = [AffineElement((0, 0), g), AffineElement((0, 0), -Matrix.identity(2))]
    x = AffineElement((1, 0), Matrix.identity(2))
    y = AffineElement((2, -1), Matrix.identity(2))
    z = AffineElement((1, 0), T)
    cases = [
        (x, st, [1, 3, 8, 12, 20, 32, 52]),
        (y, st, [1, 5, 16, 34, 56, 92, 150]),
        (z, st, [1, 3, 8, 12, 20, 32, 52]),
        (x, hyperbolic, [1, 4, 8, 12, 16, 20, 24]),
        (y, hyperbolic, [1, 4, 8, 12, 16, 20, 24]),
        (z, hyperbolic, [1, 4, 8, 12, 16, 20, 24]),
    ]
    for el, gens, want in cases:
        assert [conj_class_ball(el, gens, r) for r in range(7)] == want
    affine_gens = [AffineElement((1, 0), S), AffineElement((0, 1), T)]
    assert [conj_class_ball(z, affine_gens, r) for r in range(6)] == [1, 5, 16, 32, 60, 114]


def _reference_ball(x, gens, radius):
    """conj_class_ball by plain AffineElement arithmetic: every word of
    length <= radius, each conjugate formed with its own inverse."""
    alphabet = list(gens) + [g.inverse() for g in gens]
    e = AffineElement.identity(len(x.translation))
    seen = {e}
    frontier = [e]
    conjugates = {x}
    for _ in range(radius):
        new = []
        for w in frontier:
            for g in alphabet:
                nw = g * w
                if nw not in seen:
                    seen.add(nw)
                    new.append(nw)
                    conjugates.add(nw * x * nw.inverse())
        frontier = new
    return len(conjugates)


def test_conj_class_ball_sl3_matches_reference():
    # n = 3: the (a, C) pair step on 3x3 rows, with translated generators.
    rng = seeded(31)
    e12, e21 = SL3_ELEMENTARIES[0], SL3_ELEMENTARIES[2]
    for _ in range(4):
        gens = [AffineElement(tuple(rng.int_in(-2, 2) for _ in range(3)), g)
                for g in (e12, e21, random_unimodular(rng, 3, length=3))]
        x = AffineElement(tuple(rng.int_in(-2, 2) for _ in range(3)),
                          random_unimodular(rng, 3, length=2))
        for r in range(4):
            assert conj_class_ball(x, gens, r) == _reference_ball(x, gens, r)


def test_conj_class_ball_refuses_a_non_int_radius():
    # A radius of True once answered the radius-1 count, and 2.0 failed in
    # the interpreter's words; a negative radius keeps its own message.
    x = AffineElement((1, 0), Matrix.identity(2))
    gens = [AffineElement((0, 0), S), AffineElement((0, 0), T)]
    for radius in (True, False, 2.0, Fraction(2, 1), "2"):
        with pytest.raises(PreconditionError, match="^radius must be an integer, got "):
            conj_class_ball(x, gens, radius)
    with pytest.raises(PreconditionError, match="^radius must be >= 0$"):
        conj_class_ball(x, gens, -1)
    assert [conj_class_ball(x, gens, r) for r in (0, 1)] == [1, 3]


def test_conj_class_ball_rational_translation():
    half = Fraction(1, 2)
    x = AffineElement((half, 0), Matrix.identity(2))
    gens = [AffineElement((0, Fraction(-1, 3)), S), AffineElement((1, 0), T)]
    for r in range(5):
        assert conj_class_ball(x, gens, r) == _reference_ball(x, gens, r)


def test_conj_class_ball_rational_translation_takes_no_fraction_arithmetic(monkeypatch):
    # "p/q" translations with integral linear parts, at n = 2 and 3, for a
    # translation x and for x with a linear part: the search runs on the
    # lam-dilated ints and counts as the Fraction reference does.
    rng = seeded(3203)

    def shift(n):
        return tuple(Fraction(rng.int_in(-3, 3), rng.int_in(1, 4)) for _ in range(n))

    cases = []
    for n, radius in ((2, 4), (3, 3)):
        for linear in (Matrix.identity(n), random_unimodular(rng, n, length=2)):
            gens = [AffineElement(shift(n), random_unimodular(rng, n, length=3))
                    for _ in range(2)]
            x = AffineElement(shift(n), linear)
            cases.append((x, gens, radius, _reference_ball(x, gens, radius)))
    with monkeypatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        got = [conj_class_ball(x, gens, radius) for x, gens, radius, _ in cases]
    assert got == [want for *_, want in cases]
    assert all(want > 1 for *_, want in cases)


def test_translation_balls_past_n2_take_the_pair_search(monkeypatch):
    # A translation x at n = 3 and 4 once ran a search of its own on
    # `Matrix.apply` letters; the pair search visits exactly its points
    # (W v, I) and counts as the reference does, with int and "p/q"
    # translations on x and on the letters.
    rng = seeded(4404)

    def shift(n, rational):
        return tuple(Fraction(rng.int_in(-3, 3), rng.int_in(1, 4)) if rational
                     else rng.int_in(-2, 2) for _ in range(n))

    cases = []
    for n in (3, 4):
        for on_x, on_letters in ((False, False), (True, False), (False, True), (True, True)):
            gens = [AffineElement(shift(n, on_letters), random_unimodular(rng, n, length=3))
                    for _ in range(2)]
            x = AffineElement(shift(n, on_x), Matrix.identity(n))
            cases += [(x, gens, r, _reference_ball(x, gens, r)) for r in range(4)]
    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "apply", forbidden("Matrix.apply"))
        got = [conj_class_ball(x, gens, r) for x, gens, r, _ in cases]
    assert got == [want for *_, want in cases]
    assert sum(want > 1 for *_, want in cases) >= 20


def _tuple_mul(p, q):
    """(a, g)(b, h) = (a + g b, g h) on nested (translation, rows) tuples."""
    (a, g), (b, h) = p, q
    return (tuple(x + sum(u * v for u, v in zip(row, b)) for x, row in zip(a, g)),
            tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in zip(*h)) for row in g))


def _tuple_inverse(p):
    """(a, g)^-1 = (-g^-1 a, g^-1), g^-1 by Fraction Gauss-Jordan on [g | I]."""
    a, g = p
    n = len(g)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(g)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    g_inv = tuple(tuple(x.numerator if x.denominator == 1 else x for x in row[n:]) for row in m)
    return tuple(-x for x in _tuple_mul(((0,) * n, g_inv), (a, g))[0]), g_inv


def _nested_ball(x, gens, radius):
    """conj_class_ball(x, gens, r) for r = 0..radius, counted independently:
    breadth-first over nested tuples, each frontier word carrying its
    inverse, each new word's conjugate formed as (w x) w^-1, and no letter
    skipped."""
    n = len(x.translation)
    letters = [(g.translation, g.linear.data) for g in gens]
    alphabet = [(p, _tuple_inverse(p)) for p in letters]
    alphabet += [(p_inv, p) for p, p_inv in alphabet]
    e = ((0,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    xp = (x.translation, x.linear.data)
    seen, frontier, conjugates = {e}, [(e, e)], {xp}
    counts = [1]
    for _ in range(radius):
        new = []
        for w, w_inv in frontier:
            for g, g_inv in alphabet:
                nw = _tuple_mul(g, w)
                if nw not in seen:
                    seen.add(nw)
                    nw_inv = _tuple_mul(w_inv, g_inv)
                    new.append((nw, nw_inv))
                    conjugates.add(_tuple_mul(_tuple_mul(nw, xp), nw_inv))
        frontier = new
        counts.append(len(conjugates))
    return counts


def test_conj_class_ball_matches_nested_tuple_count():
    rng = seeded(1919)

    def vec(n, lo=-2, hi=2):
        return tuple(rng.int_in(lo, hi) for _ in range(n))

    hyperbolic = Matrix([[2, 1], [1, 1]])
    cases = []
    for _ in range(3):
        cases += [
            (AffineElement(vec(2), Matrix.identity(2)),
             [AffineElement(vec(2), S), AffineElement(vec(2), T)], 6),
            (AffineElement(vec(2), random_sl2(rng, 3)),
             [AffineElement(vec(2), S), AffineElement((0, 0), T)], 6),
            (AffineElement(vec(2), Matrix.identity(2)),
             [AffineElement(vec(2), hyperbolic), AffineElement((0, 0), -Matrix.identity(2))], 6),
            (AffineElement(vec(2), T),
             [AffineElement((0, 0), hyperbolic), AffineElement(vec(2), -Matrix.identity(2))], 6),
            (AffineElement(vec(3), random_unimodular(rng, 3, length=2)),
             [AffineElement(vec(3), SL3_ELEMENTARIES[rng.below(6)]),
              AffineElement(vec(3), random_unimodular(rng, 3, length=3))], 6),
            (AffineElement(vec(3), Matrix.identity(3)),
             [AffineElement(vec(3), g) for g in SL3_ELEMENTARIES[:3]], 4),
        ]
    # Translations x = (v, I), counted as the orbit ball of v: v = 0 and
    # rational v, translated generators, two generators sharing a linear
    # part, and a pure translation (t, I).
    for n, top in ((2, 5), (3, 4), (4, 3)):
        identity = Matrix.identity(n)
        shared = random_unimodular(rng, n, length=3)
        for v in (vec(n, 1, 2), (0,) * n, (Fraction(1, 2),) + vec(n - 1),
                  tuple(Fraction(rng.int_in(-3, 3), 3) for _ in range(n))):
            x = AffineElement(v, identity)
            cases += [
                (x, [AffineElement(vec(n), random_unimodular(rng, n, length=3)),
                     AffineElement(vec(n), random_unimodular(rng, n, length=3))], top),
                (x, [AffineElement(vec(n), shared), AffineElement(vec(n), shared),
                     AffineElement(vec(n, 1, 2), identity)], top - 1),
            ]
    cases.append((AffineElement((1, 0), Matrix.identity(2)),
                  [AffineElement((1, 0), S), AffineElement((0, 1), T),
                   AffineElement((3, -2), Matrix.identity(2))], 5))
    # Three letters whose linear parts T, U and [[2, 1], [1, 1]] satisfy
    # relations: conjugating by g^-1 instead of g gives 348 here, not 358.
    cases.append((AffineElement((0, -2), Matrix([[1, 0], [1, 1]])),
                  [AffineElement((-1, -2), T), AffineElement((1, 0), hyperbolic),
                   AffineElement((2, 2), Matrix([[1, 0], [1, 1]]))], 4))
    # A non-translation x at n = 4 (the generic `_int_mul` rows), and one
    # whose pair steps carry Fractions.
    rng4 = seeded(2121)
    x4 = AffineElement(tuple(rng4.int_in(-2, 2) for _ in range(4)),
                       random_unimodular(rng4, 4, length=2))
    cases.append((x4, [AffineElement(tuple(rng4.int_in(-2, 2) for _ in range(4)),
                                     random_unimodular(rng4, 4, length=3)) for _ in range(2)], 3))
    cases.append((AffineElement((Fraction(1, 2), 0), T),
                  [AffineElement((0, Fraction(-1, 3)), S), AffineElement((1, 0), T)], 5))
    # n = 1, and linear parts outside GL_n(Z): diag(2, 1/2) of det 1 and
    # diag(2, 1) of det 2, whose inverses carry Fractions.
    minus_one = Matrix([[-1]])
    cases.append((AffineElement((1,), minus_one),
                  [AffineElement((0,), minus_one), AffineElement((1,), Matrix([[1]]))], 6))
    cases.append((AffineElement((1, 0), T),
                  [AffineElement((0, 1), S),
                   AffineElement((0, 0), Matrix([[2, 0], [0, Fraction(1, 2)]]))], 5))
    cases.append((AffineElement((0, -2), Matrix([[1, 0], [1, 1]])),
                  [AffineElement((1, 1), Matrix([[2, 0], [0, 1]])), AffineElement((0, 1), T)], 4))
    # A non-translation x at n = 3 with Fraction translations.
    e3 = SL3_ELEMENTARIES[0]
    f3 = Matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    cases.append((AffineElement((Fraction(1, 2), 0, 1), e3 * f3),
                  [AffineElement((0, Fraction(1, 3), 0), e3),
                   AffineElement((1, 0, Fraction(-1, 2)), f3)], 4))
    for x, gens, top in cases:
        counts = [conj_class_ball(x, gens, r) for r in range(top + 1)]
        assert counts == _nested_ball(x, gens, top), (x, gens)


def _rows_mul(p, q):
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*q)) for row in p)


def _ref_conjugate(g, g_inv, c):
    """g c g^-1 = (G a + b + G C b', G C H) on raw (translation, rows) pairs,
    by generic row products: the form `_conjugate` keeps past n = 3."""
    (b, G), (b_inv, H), (a, C) = g, g_inv, c
    GC = _rows_mul(G, C)
    t = [x + sum(map(mul, row, a)) + sum(map(mul, gc, b_inv)) for x, row, gc in zip(b, G, GC)]
    return tuple(t), _rows_mul(GC, H)


def test_conjugate_matches_generic_products():
    # Letters with det +-1 and int or Fraction translations, conjugating
    # elements with int or Fraction translations and integral or rational
    # linear parts: equal values and equal entry types (no step normalizes).
    rng = seeded(30)

    def translation(n):
        if rng.below(2):
            return tuple(rng.int_in(-5, 5) for _ in range(n))
        return tuple(Fraction(rng.int_in(-5, 5), rng.int_in(1, 3)) for _ in range(n))

    def raw(el):
        return el.translation, el.linear.data

    flips = 0
    for n in (2, 3, 4):
        for _ in range(60):
            g = AffineElement(translation(n), random_unimodular(rng, n))
            flips += g.linear.det() == -1
            if rng.below(4):
                linear = random_unimodular(rng, n, length=4)
            else:
                linear = Matrix([[Fraction(rng.int_in(-4, 4), rng.int_in(1, 3))
                                  for _ in range(n)] for _ in range(n)])
            c = (translation(n), linear.data)
            args = raw(g), raw(g.inverse()), c
            got, want = _conjugate(*args), _ref_conjugate(*args)
            assert got == want
            assert _typed(got[0]) == _typed(want[0])
            assert tuple(map(_typed, got[1])) == tuple(map(_typed, want[1]))
    assert flips >= 30


def test_automorphism_equals_conjugation_by_products():
    # phi(el) = P el P^-1 with P = (xi, L): int elements take the one
    # conjugation kernel, every other element the products themselves.
    rng = seeded(31)
    for n in (2, 3, 4):
        for _ in range(8):
            L = random_unimodular(rng, n)
            xi = tuple(rng.int_in(-6, 6) for _ in range(n))
            phi = affine_automorphism(L, xi)
            P = AffineElement(xi, L)
            P_inv = P.inverse()
            for _ in range(8):
                a = tuple(rng.int_in(-4, 4) for _ in range(n))
                s = random_unimodular(rng, n, length=4)
                rational = Matrix([[Fraction(rng.int_in(-4, 4), rng.int_in(1, 3))
                                    for _ in range(n)] for _ in range(n)])
                for el in (AffineElement(a, s),
                           AffineElement(tuple(Fraction(x, 2) for x in a), s),
                           AffineElement(a, Matrix(s.data)),
                           AffineElement(a, rational)):
                    got, want = phi(el), P * el * P_inv
                    assert got == want
                    assert got.linear.integral == want.linear.integral
            with pytest.raises(ShapeError):
                phi(AffineElement.identity(n + 1))


def test_conj_class_ball_dimension_mismatch():
    x = AffineElement((1, 0), Matrix.identity(2))
    gens = [AffineElement((0, 0), S), AffineElement((0, 0, 0), SL3_ELEMENTARIES[0])]
    assert conj_class_ball(x, gens, 0) == 1   # radius 0 forms no product
    for r in (1, 3):
        with pytest.raises(ShapeError):
            conj_class_ball(x, gens, r)


# -- invariant lattices ----------------------------------------------------

def test_invariant_lattice_full_rank():
    basis, index = invariant_lattice([S, T], [(2, 0)])
    assert basis.rows == ((2, 0), (0, 2)) and index == 4
    basis, index = invariant_lattice(list(SL3_ELEMENTARIES), [(2, 0, 0)])
    assert index == 8 and basis.rows == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_invariant_lattice_zero_seed():
    basis, index = invariant_lattice([S, T], [(0, 0)])
    assert basis.is_zero and index is None


def test_invariant_lattice_single_parabolic():
    # T-orbit closure of (0,1): adds (1,0), yielding all of Z^2.
    basis, index = invariant_lattice([T], [(0, 1)])
    assert index == 1
    # but (1,0) is fixed by T: the closure is rank 1, no index.
    basis, index = invariant_lattice([T], [(1, 0)])
    assert basis.rows == ((1, 0),) and index is None


def test_invariant_lattice_errors():
    with pytest.raises(PreconditionError):
        invariant_lattice([], [(1, 0)])
    with pytest.raises(PreconditionError):
        invariant_lattice([Matrix([[1, 0], [0, 2]]).inverse()], [(1, 0)])


def _invariant_lattice_reference(gens, seeds):
    """The closure loop as it stood before the int-row images and the full-rank
    det check: `Matrix.apply` images and one HNF per generator for the span
    check at every rank.  Kept verbatim as the reference."""
    if not gens:
        raise PreconditionError("at least one generator required")
    n = gens[0].rows
    for g in gens:
        if (g.rows, g.cols) != (n, n) or not g.integral:
            raise PreconditionError("generators must be square integer matrices of one size")
    mats = [h for g in gens for h in (g, g.inverse())]
    basis = hnf([tuple(s) for s in seeds], dim=n)
    span_checked = False
    while True:
        images = [g.apply(row) for g in mats for row in basis.rows]
        new_basis = hnf(list(basis.rows) + images, dim=n)
        if new_basis.rank == basis.rank and not span_checked:
            volume = prod(basis.pivots())
            for g in gens:
                if prod(hnf([g.apply(r) for r in basis.rows], dim=n).pivots()) != volume:
                    raise PreconditionError("no invariant lattice: a generator has "
                                            "det != +-1 on the span of the closure")
            span_checked = True
        if new_basis == basis:
            return basis, basis.index()
        basis = new_basis


def _outcome(closure, gens, seeds):
    try:
        return closure(gens, seeds)
    except PreconditionError as exc:
        return str(exc)


def _invariant_cases():
    """Seeded (gens, seeds) at n = 2 and 3: conjugates P B P^-1 of upper
    triangular B with one diagonal entry in +-1, +-2, +-3 and the others 1,
    with seeds in the span of P's first k columns, which every B keeps, so
    closures of every rank from 0 to n, some of them below full rank under a
    generator of det +-2 or +-3; and whole generator sets with and without a
    generator of det +-2 or +-3."""
    rng = seeded(3202)
    dets = (1, -1, 1, 2, -2, 3, -3)
    cases = []
    for n in (2, 3):
        for _ in range(70):
            P = random_unimodular(rng, n, length=4)
            P_inv = P.inverse()
            k = rng.int_in(1, n)
            gens = []
            for _ in range(rng.int_in(1, 3)):
                B = [[rng.int_in(-2, 2) if i < j else int(i == j) for j in range(n)]
                     for i in range(n)]
                i = rng.below(n)
                B[i][i] = dets[rng.below(len(dets))]
                gens.append(P * Matrix(B) * P_inv)
            seeds = [P.apply(tuple(rng.int_in(-3, 3) if j < k else 0 for j in range(n)))
                     for _ in range(rng.int_in(1, 2))]
            cases.append((gens, seeds))
        for _ in range(30):
            gens = [random_unimodular(rng, n, length=rng.int_in(2, 5))
                    for _ in range(rng.int_in(1, 3))]
            if rng.below(2):
                d = dets[3 + rng.below(4)]
                gens.append(random_unimodular(rng, n) * Matrix.diagonal([d] + [1] * (n - 1)))
            seeds = [tuple(rng.int_in(-4, 4) for _ in range(n)) for _ in range(rng.int_in(1, 2))]
            cases.append((gens, seeds))
    return cases


def test_invariant_lattice_matches_reference_loop():
    g = Matrix([[1, 0], [0, 2]])
    basis, index = invariant_lattice([g], [(1, 0)])
    assert basis.rows == ((1, 0),) and index is None
    with pytest.raises(PreconditionError, match="^no invariant lattice: a generator has "
                                                "det != \\+-1 on the span of the closure$"):
        invariant_lattice([g], [(1, 0), (0, 1)])
    outcomes = set()
    for gens, seeds in _invariant_cases():
        got = _outcome(invariant_lattice, gens, seeds)
        assert got == _outcome(_invariant_lattice_reference, gens, seeds), (gens, seeds)
        outcomes.add(got if isinstance(got, str) else (got[0].rank, got[1] is None))
    # Every kind of outcome occurs: refusals, and closures of each rank, with
    # and without an index.
    assert "no invariant lattice: a generator has det != +-1 on the span of the closure" \
        in outcomes
    assert {(0, True), (1, True), (2, True), (2, False), (3, False)} <= outcomes


# -- automorphisms ---------------------------------------------------------

def test_affine_automorphism_homomorphism():
    rng = seeded(8)
    for n in (2, 3):
        for _ in range(10):
            L = random_unimodular(rng, n)
            xi = tuple(rng.int_in(-4, 4) for _ in range(n))
            phi = affine_automorphism(L, xi)
            for _ in range(20):
                x = AffineElement(tuple(rng.int_in(-3, 3) for _ in range(n)),
                                  random_unimodular(rng, n, length=4))
                y = AffineElement(tuple(rng.int_in(-3, 3) for _ in range(n)),
                                  random_unimodular(rng, n, length=4))
                assert phi(x * y) == phi(x) * phi(y)
            # identity goes to identity; inverse to inverse
            e = AffineElement.identity(n)
            assert phi(e) == e
            x = AffineElement((1,) * n, Matrix.identity(n))
            assert phi(x.inverse()) == phi(x).inverse()


def test_affine_automorphism_is_the_explicit_twist():
    # phi(a, s) = (L a + xi - L s L^-1 xi, L s L^-1), formed here entry by
    # entry; xi may be given with Fraction(k, 1) entries.
    rng = seeded(2021)
    for n in (2, 3, 4):
        for k in range(6):
            L = random_unimodular(rng, n)
            xi = [rng.int_in(-6, 6) for _ in range(n)]
            if k % 2:
                xi = [Fraction(x) for x in xi]
            phi = affine_automorphism(L, tuple(xi) if k % 3 else xi)
            L_inv = L.inverse()
            for _ in range(6):
                a = tuple(rng.int_in(-4, 4) for _ in range(n))
                s = random_unimodular(rng, n, length=4)
                t = (L * s * L_inv).data
                la, txi = [[sum(u * w for u, w in zip(row, vec)) for row in m]
                           for m, vec in ((L.data, a), (t, xi))]
                want = tuple(p + q - r for p, q, r in zip(la, xi, txi))
                got = phi(AffineElement(a, s))
                assert got.translation == want and got.linear.data == t
                assert all(type(x) is int for x in got.translation)
                assert all(type(x) is int for row in got.linear.data for x in row)


def test_affine_automorphism_rejects_xi_of_another_size():
    # phi is conjugation by (xi, L), so a mismatched xi fails when phi is
    # made, not at its first application.
    with pytest.raises(ShapeError):
        affine_automorphism(Matrix.identity(2), (1, 2, 3))


def test_affine_automorphism_rejects_non_unimodular():
    with pytest.raises(PreconditionError):
        affine_automorphism(Matrix([[2, 0], [0, 1]]), (0, 0))


def test_affine_automorphism_rejects_rational_L():
    # det diag(2, 1/2) = 1, but phi((0, 1) T) would be the translation
    # (0, 1/2), outside Z^2 x| GL2(Z).
    L = Matrix([[2, 0], [0, Fraction(1, 2)]])
    with pytest.raises(PreconditionError, match="square integer matrix"):
        affine_automorphism(L, (1, 0))
    with pytest.raises(PreconditionError, match="square integer matrix"):
        affine_automorphism(Matrix([[1, 0, 0], [0, 1, 0]]), (0, 0))


def test_affine_automorphism_rejects_rational_xi():
    # phi would send (0, [[1, 0], [1, 1]]) to the translation (-1/2, -1/2).
    with pytest.raises(PreconditionError, match="xi must be an integer vector"):
        affine_automorphism(Matrix([[1, 1], [0, 1]]), (Fraction(1, 2), 0))


def test_affine_automorphism_refuses_xi_entries_of_other_types():
    # A float or str entry is not a number of the package: refused with the
    # TypeError of every other constructor, not an AttributeError from
    # reading its denominator.  Fraction(2, 1) is the int 2.
    L = Matrix([[1, 1], [0, 1]])
    for xi in ((1.0, 0), (0, "1"), "10"):
        with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
            affine_automorphism(L, xi)
    phi = affine_automorphism(L, (Fraction(2, 1), 0))
    assert phi(AffineElement.identity(2)) == AffineElement.identity(2)


# -- classification reports ------------------------------------------------

def test_classify_full_lattice_case1():
    basis = hnf([(2, 0), (0, 2)])
    report = classify_subgroup(FullLatticeSemidirect(basis, (S, T)))
    assert isinstance(report, ClassificationReport)
    assert report.case == "case1"
    assert report.verdict("lattice-invariance") == "pass"
    assert report.verdict("missing-check") is None


def test_classify_full_lattice_no_generators():
    # gens[0] of an empty generator list once raised IndexError.
    report = classify_subgroup(FullLatticeSemidirect(hnf([(1, 0)], dim=2), ()))
    assert report.case == "case1"
    assert report.verdict("amenable-linear-part") == "pass"
    assert report.checks[-1].evidence == {"order": 1}


def test_classify_full_lattice_not_invariant():
    basis = hnf([(2, 1), (0, 3)])  # not SL2(Z)-invariant
    with pytest.raises(PreconditionError):
        classify_subgroup(FullLatticeSemidirect(basis, (S, T)))


def test_classify_cyclic_linear():
    report = classify_subgroup(CyclicLinear(Matrix([[2, 1], [1, 1]])))
    assert report.case == "case1"
    assert report.verdict("icc") == "pass"
    assert report.verdict("amenable-linear-part") == "pass"
    parab = classify_subgroup(CyclicLinear(T))
    assert parab.verdict("icc") == "fail"
    torsion = classify_subgroup(CyclicLinear(S))
    assert torsion.verdict("icc") == "unknown"


def test_cyclic_icc_verdict_is_read_from_the_class(monkeypatch):
    # The icc check of a cyclic linear part reads "pass" for a hyperbolic
    # class and "fail" for a parabolic one, without `icc_affine_cyclic`, on
    # every infinite-order matrix with entries in [-5, 5], with and without
    # -I: the verdicts an unpatched `icc_affine_cyclic` gives.
    mats = [g for g in det1_matrices(5) if order_of(g) is None]
    want = ["pass" if icc_affine_cyclic(g) else "fail" for g in mats]
    with monkeypatch.context() as patch:
        patch.setattr("exactgroups.affine.icc_affine_cyclic", forbidden("icc_affine_cyclic"))
        for flag in (True, False):
            got = [classify_subgroup(CyclicLinear(g, flag)).verdict("icc") for g in mats]
            assert got == want
    assert want.count("pass") > 100 and want.count("fail") > 10


def test_classify_graph_gamma1():
    N = 2
    gens = (Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [N, 1]]))
    values = tuple(gamma1_cocycle(N, g) for g in gens)
    report = classify_subgroup(GraphSubgroup(CocycleSpec(gens, values)))
    assert report.case == "case2"
    assert report.verdict("gamma1-obstruction") == "pass"


def test_classify_gamma1_census_never_fails():
    # A detected level N makes xi0 = (1/N, 0) solve the stacked system, so
    # the witness exists: the verdict is "pass" unless xi is underdetermined.
    mats = det1_matrices(3)
    verdicts = {}
    for N in range(2, 7):
        members = [g for g in mats if congruence_membership(CongruenceKind("gamma1", N), g)]
        for gens in [(g,) for g in members] + [(g, h) for g in members for h in members]:
            spec = CocycleSpec(gens, tuple(gamma1_cocycle(N, g) for g in gens))
            try:
                verdict = classify_subgroup(GraphSubgroup(spec)).verdict("gamma1-obstruction")
            except UnderdeterminedWitness:
                verdict = "underdetermined"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert "fail" not in verdicts
    assert verdicts["pass"] > 100 and verdicts["underdetermined"] > 10


def test_classify_graph_finf():
    gens = tuple(finf_generator(k) for k in range(-3, 4))
    values = tuple((0, 0) if k == 0 else (1, 1) for k in range(-3, 4))
    report = classify_subgroup(GraphSubgroup(CocycleSpec(gens, values)))
    assert report.case == "case2"
    assert report.verdict("finf-obstruction") == "pass"


def test_classify_graph_unrecognized():
    spec = CocycleSpec((Matrix([[1, 1], [1, 2]]),), ((0, 0),))
    report = classify_subgroup(GraphSubgroup(spec))
    assert report.case == "case2"
    assert report.verdict("known-obstruction") == "unknown"


def test_classify_unknown_descriptor():
    with pytest.raises(PreconditionError):
        classify_subgroup(object())
