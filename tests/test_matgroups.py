"""Unit tests for SL2(Z) classification, words, and congruence subgroups."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exactgroups.sl2 as sl2
from exactgroups.matrix import Matrix, PreconditionError
from exactgroups.prng import SplitMix64
from exactgroups.sl2 import (GENERATORS, MINUS_I, S, S_ALT, T, T_ALT,
                             CongruenceKind, GenWord, OrderCapExceeded,
                             classify_sl2, congruence_membership, decompose_st,
                             order_of, sample_subgroup_element,
                             subgroup_generators, to_st_word)
from tests.conftest import det1_matrices, random_sl2, seeded


# -- generator identities --------------------------------------------------

def test_generator_identities():
    assert S_ALT == S.inverse()
    assert T_ALT == S * T
    assert S_ALT * T_ALT == T
    assert S_ALT ** 2 == MINUS_I
    assert order_of(S_ALT) == 4
    assert order_of(T_ALT) == 6
    assert order_of(S) == 4
    assert S ** 2 == MINUS_I


def test_genword_matrix():
    w = GenWord((("S", 1), ("T", 2)), central=1)
    assert w.matrix() == -(S * T ** 2)
    assert len(w) == 2
    assert GenWord((), 0).matrix() == Matrix.identity(2)


# -- classification --------------------------------------------------------

def test_classify_examples():
    hyp = classify_sl2(Matrix([[1, 1], [1, 2]]))
    assert hyp.kind == "hyperbolic" and hyp.order is None
    par = classify_sl2(T)
    assert par.kind == "parabolic" and par.sign == 1
    assert classify_sl2(-T).sign == -1
    assert classify_sl2(Matrix.identity(2)).order == 1
    assert classify_sl2(MINUS_I).order == 2
    assert classify_sl2(S).order == 4
    assert classify_sl2(T_ALT).order == 6
    assert classify_sl2(-T_ALT).order == 3  # trace -1
    with pytest.raises(PreconditionError):
        classify_sl2(Matrix([[2, 0], [0, 1]]))  # det 2


def test_classify_matches_order_exhaustively():
    for g in det1_matrices(4):
        cls = classify_sl2(g)
        k = order_of(g)
        if cls.kind == "elliptic":
            assert k == cls.order and k in (1, 2, 3, 4, 6)
            assert g ** k == Matrix.identity(2)
        else:
            assert k is None


def test_classify_conjugation_invariant():
    rng = seeded(9)
    for g in det1_matrices(2):
        h = random_sl2(rng, length=6)
        assert classify_sl2(h * g * h.inverse()) == classify_sl2(g)


def _order_by_powers(a, b, c, d):
    """Order of [[a, b], [c, d]] by repeated products on plain ints; None
    past 12, which no finite order in GL2(Z) reaches."""
    p = (a, b, c, d)
    for k in range(1, 13):
        if p == (1, 0, 0, 1):
            return k
        w, x, y, z = p
        p = (w * a + x * c, w * b + x * d, y * a + z * c, y * b + z * d)
    return None


def test_order_of_2x2_closed_form():
    # Order 6 once read as infinite under a cap of 2, and det -1 with
    # infinite order once raised OrderCapExceeded.
    assert order_of(Matrix([[1, -1], [1, 0]]), cap=2) == 6
    assert order_of(Matrix([[1, 1], [1, 0]])) is None
    checked = 0
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if a * d - b * c in (1, -1):
            assert order_of(Matrix([[a, b], [c, d]])) == _order_by_powers(a, b, c, d)
            checked += 1
    assert checked == 360


def test_order_of_larger_sizes():
    perm = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert order_of(perm) == 3
    with pytest.raises(OrderCapExceeded):
        order_of(Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(PreconditionError):
        order_of(Matrix([[2, 0], [0, 1]]))


# -- word decomposition ----------------------------------------------------

def test_decompose_golden():
    for g in (Matrix.identity(2), S, T, MINUS_I, T ** -7,
              Matrix([[1, 1], [1, 2]]), Matrix([[0, -1], [1, 5]])):
        w = decompose_st(g)
        assert w.matrix() == g
        assert all(gen in ("S", "T") for gen, _ in w.tokens)


def test_decompose_roundtrip_random():
    rng = seeded(123)
    for _ in range(400):
        g = random_sl2(rng, length=rng.below(12) + 1)
        w = decompose_st(g)
        assert w.matrix() == g
        v = to_st_word(w)
        assert v.matrix() == g
        assert to_st_word(v) == v   # a word already over s and t is kept
        assert all(gen in ("s", "t") for gen, _ in v.tokens)
        # canonical exponent ranges in the torsion alphabet
        for gen, exp in v.tokens:
            assert 1 <= exp < (4 if gen == "s" else 6)
        # no two adjacent tokens share a generator
        for (g1, _), (g2, _) in zip(v.tokens, v.tokens[1:]):
            assert g1 != g2


def _reference_decompose(g):
    """decompose_st by Fraction floors and Matrix products: each Euclid step
    left-multiplies by S*T^(-q) with q = floor(a/c + 1/2)."""
    m, tokens, central = g, [], 0
    while m[1, 0] != 0:
        q = math.floor(Fraction(m[0, 0], m[1, 0]) + Fraction(1, 2))
        m = S * (T ** (-q) * m)
        if q != 0:
            tokens.append(("T", q))
        tokens.append(("S", 1))
        central ^= 1
    tail = m[0, 1] if m[0, 0] == 1 else -m[0, 1]
    central ^= m[0, 0] != 1
    if tail != 0:
        tokens.append(("T", tail))
    return GenWord(tuple(tokens), central)


BIG = 2 ** 70
BIG_WORD = (("T", BIG), ("S", 1), ("T", -BIG), ("S", 1), ("T", BIG),
            ("S", 1), ("T", 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ST"), st.integers(-BIG, BIG)),
                max_size=12),
       st.booleans())
@example(list(BIG_WORD), False)   # past 200 bits, lower-left < 0
def test_decompose_roundtrip_hypothesis(tokens, central):
    g = GenWord(tuple(tokens), int(central)).matrix()
    w = decompose_st(g)
    assert w.matrix() == g
    assert w == _reference_decompose(g)


def test_decompose_big_negative_example():
    g = GenWord(BIG_WORD, 0).matrix()
    assert max(abs(x) for row in g.data for x in row).bit_length() > 200
    assert g[1, 0] < 0
    assert decompose_st(g).matrix() == g


def test_decompose_tie_quotients_pinned():
    # a/c = k + 1/2 rounds up; words pinned from the Fraction-floor loop.
    cases = {
        ((1, 0), (2, 1)): ((("T", 1), ("S", 1), ("T", 2), ("S", 1), ("T", 1)), 0),
        ((3, 1), (2, 1)): ((("T", 2), ("S", 1), ("T", 2), ("S", 1), ("T", 1)), 0),
        ((-1, 0), (2, -1)): ((("S", 1), ("T", 2), ("S", 1)), 0),
        ((1, 0), (-2, 1)): ((("S", 1), ("T", 2), ("S", 1)), 1),
        ((-3, 1), (2, -1)): ((("T", -1), ("S", 1), ("T", 2), ("S", 1)), 0),
        ((5, -2), (-2, 1)): ((("T", -2), ("S", 1), ("T", 2), ("S", 1)), 1),
        ((7, 3), (2, 1)): ((("T", 4), ("S", 1), ("T", 2), ("S", 1), ("T", 1)), 0),
        ((-7, -3), (-2, -1)): ((("T", 4), ("S", 1), ("T", 2), ("S", 1), ("T", 1)), 1),
    }
    for rows, (tokens, central) in cases.items():
        assert decompose_st(Matrix(rows)) == GenWord(tokens, central)


def _expand_and_merge(word):
    """to_st_word letter by letter: S^e -> s^3e, T^q -> (s t)^q or
    (t^-1 s^-1)^-q, -I -> s^2, then each letter merged into the last one
    kept, reduced mod 4 or 6, and dropped at 0."""
    raw = [("s", 2)] if word.central else []
    for gen, exp in word.tokens:
        if gen == "S":
            raw.append(("s", 3 * exp))
        elif gen == "T":
            raw.extend([("s", 1), ("t", 1)] * exp if exp >= 0 else [("t", -1), ("s", -1)] * -exp)
        elif gen in ("s", "t"):
            raw.append((gen, exp))
        else:
            raise PreconditionError(f"unknown generator {gen!r}")
    out = []
    for gen, exp in raw:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        exp %= 4 if gen == "s" else 6
        if exp:
            out.append((gen, exp))
    return GenWord(tuple(out), 0)


def test_to_st_word_matches_expand_and_merge():
    # Seeded words of 0-6 tokens over S, T, s, t with exponents in [-9, 9],
    # and fixed words for s^4, t^6, T^q S^e cascades and negative T.
    rng = seeded(32)
    words = [GenWord(tokens, central) for central in (0, 1) for tokens in (
        (("s", 4),), (("t", 6),), (("t", 6), ("s", 4), ("t", 1)),
        (("T", 2), ("S", 1), ("T", 3)), (("T", 3), ("S", -1), ("T", -3)),
        (("T", -2), ("S", 1), ("T", -3)), (("T", -1), ("S", 3), ("T", 1)),
        (("T", -2), ("S", -1), ("t", 1), ("s", 1)),
        (("T", 1), ("T", -1)), (("T", -4), ("s", 1), ("t", 1), ("T", 4)), ())]
    for _ in range(3000):
        tokens = tuple(("STst"[rng.below(4)], rng.int_in(-9, 9)) for _ in range(rng.int_in(0, 6)))
        words.append(GenWord(tokens, rng.below(2)))
    for word in words:
        assert to_st_word(word) == _expand_and_merge(word), word
    for word in (GenWord((("X", 1),), 0), GenWord((("T", 2), ("u", 1)), 1)):
        with pytest.raises(PreconditionError):
            to_st_word(word)


def test_to_st_word_rejects_unknown_generator():
    with pytest.raises(PreconditionError):
        to_st_word(GenWord((("X", 1),), 0))


# -- congruence subgroups --------------------------------------------------

def test_congruence_examples():
    g = Matrix([[1, 0], [2, 1]])
    assert congruence_membership(CongruenceKind("gamma1", 2), g)
    assert congruence_membership(CongruenceKind("gamma0", 2), g)
    assert congruence_membership(CongruenceKind("gamma", 2), g)  # b = 0 too
    assert not congruence_membership(CongruenceKind("gamma", 2), T)  # b = 1
    assert congruence_membership(CongruenceKind("gamma1", 2), T)
    assert congruence_membership(CongruenceKind("gamma", 1), S)
    with pytest.raises(PreconditionError):
        CongruenceKind("gamma2", 2)
    with pytest.raises(PreconditionError):
        CongruenceKind("gamma", 0)


def test_congruence_nesting():
    mats = det1_matrices(5)
    for N in (2, 3, 4, 6):
        full = CongruenceKind("gamma", N)
        one = CongruenceKind("gamma1", N)
        zero = CongruenceKind("gamma0", N)
        for g in mats:
            in_full = congruence_membership(full, g)
            in_one = congruence_membership(one, g)
            in_zero = congruence_membership(zero, g)
            assert not in_full or in_one       # Gamma(N) <= Gamma_1(N)
            assert not in_one or in_zero       # Gamma_1(N) <= Gamma_0(N)
    # level divisibility: Gamma_1(4) <= Gamma_1(2)
    for g in mats:
        if congruence_membership(CongruenceKind("gamma1", 4), g):
            assert congruence_membership(CongruenceKind("gamma1", 2), g)


def test_congruence_closed_under_product():
    rng = seeded(77)
    for N in (2, 3, 5):
        kind = CongruenceKind("gamma1", N)
        for _ in range(30):
            g = sample_subgroup_element(kind, rng.below(10) + 1, rng.next_u64())
            h = sample_subgroup_element(kind, rng.below(10) + 1, rng.next_u64())
            assert congruence_membership(kind, g)
            assert congruence_membership(kind, g * h)
            assert congruence_membership(kind, g.inverse())


# -- sampling --------------------------------------------------------------

def test_sampling_deterministic_and_members():
    for kind in (CongruenceKind("gamma", 3), CongruenceKind("gamma0", 4),
                 CongruenceKind("gamma1", 5), "full"):
        a = sample_subgroup_element(kind, 15, seed=42)
        b = sample_subgroup_element(kind, 15, seed=42)
        assert a == b
        if kind != "full":
            assert congruence_membership(kind, a)
        assert a.det() == 1
    assert sample_subgroup_element("full", 0, seed=1) == Matrix.identity(2)
    with pytest.raises(PreconditionError):
        sample_subgroup_element("full", -1, seed=1)


def test_sampling_matches_matrix_products(monkeypatch):
    # Each step draws r = below(2k) and multiplies by generator r // 2, or its
    # inverse for odd r: the sample is that Matrix product over the same
    # SplitMix64 draws, with an integral flag, and its generator ends in the
    # reference's state.
    made = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(sl2, "SplitMix64", Recorded)
    kinds = ["full"] + [CongruenceKind(family, N) for family in ("gamma", "gamma0", "gamma1")
                        for N in (1, 2, 3, 4)]
    for kind in kinds:
        gens = subgroup_generators(kind)
        for seed in (0, 1, 42, 2**64 - 1):
            for length in range(13):
                slow = SplitMix64(seed)
                m = Matrix.identity(2)
                for _ in range(length):
                    r = slow.below(2 * len(gens))
                    g = gens[r // 2]
                    m = m * (g.inverse() if r % 2 else g)
                got = sample_subgroup_element(kind, length, seed)
                assert got == m and got.integral, (kind, seed, length)
                assert made[-1].state == slow.state, (kind, seed, length)


def test_subgroup_generators_are_members():
    for family in ("gamma", "gamma0", "gamma1"):
        for N in (2, 3, 7):
            kind = CongruenceKind(family, N)
            for g in subgroup_generators(kind):
                assert congruence_membership(kind, g)
    assert subgroup_generators("full") == (S, T)


def test_generators_dict_consistent():
    for name, m in GENERATORS.items():
        assert m.det() == 1
        assert m.integral
    assert GENERATORS["s"] == S_ALT and GENERATORS["t"] == T_ALT
