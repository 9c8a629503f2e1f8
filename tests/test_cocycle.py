"""Unit tests for Z^2-valued 1-cocycles and their obstruction machinery."""

import hashlib
from fractions import Fraction

import pytest

from exactgroups.cocycle import (A_GEN, B_GEN, CoboundaryWitness, CocycleSpec,
                                 RelatorNotIdentity, UnderdeterminedWitness,
                                 central_cocycle, coboundary_witness,
                                 cocycle_eval, finf_extend, finf_generator,
                                 gamma1_cocycle, gamma1_obstruction,
                                 parity_domain, solve_full_coboundary,
                                 verify_relations, _evaluate)
from exactgroups.lattice import solve_integer
from exactgroups.matrix import Matrix, PreconditionError, vec_add, vec_sub
from exactgroups.sl2 import MINUS_I, S_ALT, T, T_ALT
from tests.conftest import det1_matrices, random_sl2, seeded


def _coboundary_spec(gens, xi):
    values = tuple(vec_sub(xi, g.apply(xi)) for g in gens)
    return CocycleSpec(generators=tuple(gens), values=values)


# -- evaluation ------------------------------------------------------------

def test_eval_cocycle_identity():
    # For a coboundary, c(w) = xi - m_w xi must hold on arbitrary words.
    gens = (T_ALT, S_ALT, Matrix([[1, 1], [1, 2]]))
    xi = (3, -2)
    spec = _coboundary_spec(gens, xi)
    rng = seeded(17)
    for _ in range(200):
        word = tuple((rng.below(3), rng.int_in(-3, 3)) for _ in range(rng.below(6)))
        m = Matrix.identity(2)
        for idx, exp in word:
            m = m * gens[idx] ** exp
        assert cocycle_eval(spec, word) == vec_sub(xi, m.apply(xi))


def test_eval_concatenation_rule():
    # c(w1 w2) = m_{w1} c(w2) + c(w1) for any generator values at all.
    gens = (T_ALT, S_ALT)
    spec = CocycleSpec(generators=gens, values=((5, -1), (2, 7)))
    rng = seeded(31)
    for _ in range(150):
        w1 = tuple((rng.below(2), rng.int_in(-2, 2)) for _ in range(rng.below(4)))
        w2 = tuple((rng.below(2), rng.int_in(-2, 2)) for _ in range(rng.below(4)))
        m1 = Matrix.identity(2)
        for idx, exp in w1:
            m1 = m1 * gens[idx] ** exp
        lhs = cocycle_eval(spec, w1 + w2)
        rhs = vec_add(m1.apply(cocycle_eval(spec, w2)), cocycle_eval(spec, w1))
        assert lhs == rhs


def test_eval_inverse_rule():
    gens = (Matrix([[1, 1], [1, 2]]),)
    spec = CocycleSpec(generators=gens, values=((3, 4),))
    g = gens[0]
    c_inv = cocycle_eval(spec, ((0, -1),))
    assert c_inv == tuple(-x for x in g.inverse().apply((3, 4)))
    assert cocycle_eval(spec, ((0, 1), (0, -1))) == (0, 0)


def test_eval_huge_exponents():
    # Square-and-multiply makes |exp| = 10^8 cheap; the linear loop could not.
    gens = (T_ALT, S_ALT, Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [3, 1]]))
    xi = (5, -7)
    spec = _coboundary_spec(gens, xi)
    big = 10 ** 8
    for word in (((2, big),), ((3, -big),), ((0, big + 1),), ((1, -big - 3),),
                 ((2, big), (3, -big), (0, big - 1), (1, big + 1), (2, -big - 5))):
        m = Matrix.identity(2)
        for idx, exp in word:
            m = m * gens[idx] ** exp
        assert cocycle_eval(spec, word) == vec_sub(xi, m.apply(xi))


def test_eval_bad_index():
    spec = CocycleSpec(generators=(T_ALT,), values=((0, 0),))
    with pytest.raises(PreconditionError):
        cocycle_eval(spec, ((1, 1),))


def test_spec_validation():
    with pytest.raises(PreconditionError):
        CocycleSpec(generators=(T_ALT,), values=())
    with pytest.raises(PreconditionError):
        CocycleSpec(generators=(Matrix([[2, 0], [0, 1]]),), values=((0, 0),))


# -- relators --------------------------------------------------------------

def test_verify_relations():
    # s^4 = 1 and (st)^... : use s^4 and t^6 as relators of a coboundary.
    spec = _coboundary_spec((S_ALT, T_ALT), (1, 2))
    spec = CocycleSpec(spec.generators, spec.values,
                       relators=(((0, 4),), ((1, 6),), ((0, 2), (1, 3))))
    # s^2 = t^3 = -I, so s^2 t^3 = I as well... s^2*t^3 = (-I)(-I) = I.
    assert verify_relations(spec)
    # s^4 kills every value ((I+s+s^2+s^3) = 0), so a detectable failure
    # needs a mixed relator: s^2 t^-3 = (-I)(-I) = I.
    bad = CocycleSpec(spec.generators, ((1, 0), (0, 0)),
                      relators=(((0, 2), (1, -3)),))
    assert not verify_relations(bad)
    broken = CocycleSpec(spec.generators, spec.values, relators=(((0, 1),),))
    with pytest.raises(RelatorNotIdentity):
        verify_relations(broken)


def test_verify_relations_bad_index():
    # Index 2 once escaped as an IndexError and -1 wrapped to the last
    # generator (T_ALT^6 = I), both before cocycle_eval checked the index.
    spec = _coboundary_spec((S_ALT, T_ALT), (1, 2))
    for word in (((2, 1),), ((-1, 6),), ((0, 4), (5, 1))):
        bad = CocycleSpec(spec.generators, spec.values, relators=(word,))
        with pytest.raises(PreconditionError, match="unknown generator index") as info:
            verify_relations(bad)
        assert not isinstance(info.value, RelatorNotIdentity)


def _golden_specs(count, seed):
    """Seeded (spec, words): 1 to 3 generators among S_ALT, T_ALT, a
    hyperbolic, a parabolic and random SL2(Z) samples; each value entry an
    int, a Fraction or a Fraction(k, 1); relators g^4 and g^6 where they
    hold, w w^-1, and now and then g g, which is no relation; three words."""
    rng = seeded(seed)
    fixed = (S_ALT, T_ALT, Matrix([[2, 1], [1, 1]]), Matrix([[1, 3], [0, 1]]))

    def entry():
        k = rng.int_in(-6, 6)
        kind = rng.below(3)
        return k if kind == 0 else Fraction(k, 1) if kind == 1 else Fraction(k, rng.int_in(2, 5))

    def word(size, big):
        top = 1000 if big else 4
        return tuple((rng.below(size), rng.int_in(-top, top)) for _ in range(rng.below(5)))

    for _ in range(count):
        size = 1 + rng.below(3)
        gens = tuple(fixed[rng.below(4)] if rng.below(2) else random_sl2(rng, 4, 2)
                     for _ in range(size))
        values = tuple((entry(), entry()) for _ in range(size))
        relators = []
        for i, g in enumerate(gens):
            for k in (4, 6):
                if g ** k == Matrix.identity(2):
                    relators.append(((i, k),))
        w = word(size, False)
        relators.append(w + tuple((i, -e) for i, e in reversed(w)))
        if rng.below(8) == 0:
            relators.append(((0, 1), (0, 1)))   # g^2 = I only for g = +-I
        yield (CocycleSpec(gens, values, tuple(relators)),
               [word(size, rng.below(4) == 0) for _ in range(3)])


def test_eval_and_relations_golden():
    # Values, with their entry types (repr tells 2 from Fraction(2, 1)), the
    # word's matrix and verify_relations' verdict, pinned over seeded specs
    # with int and rational values, negative exponents and |exp| up to 1000.
    h = hashlib.sha256()
    verdicts = set()
    for spec, words in _golden_specs(600, 2525):
        for w in words:
            value, m = _evaluate(spec, w)
            assert value == cocycle_eval(spec, w) and m.integral
            assert all(type(x) is int or x.denominator != 1 for x in value)
            h.update(repr((value, m.data)).encode())
        try:
            verdict = verify_relations(spec)
        except RelatorNotIdentity:
            verdict = "not identity"
        verdicts.add(verdict)
        h.update(repr(verdict).encode())
    assert verdicts == {True, False, "not identity"}
    assert h.hexdigest() == (
        "e7619e28a9a58eca686fe5eff059dc4d4bb0e308da15ddca9c1df36d89cbec8c")


# -- full-group solver -----------------------------------------------------

def test_solve_full_coboundary_golden():
    c_s, witness = solve_full_coboundary((1, 0))
    assert c_s == (-1, 1)
    assert witness.xi == (0, 1) and witness.integral
    # definitional check on both generators
    for g, cg in ((T_ALT, (1, 0)), (S_ALT, c_s)):
        assert vec_sub(witness.xi, g.apply(witness.xi)) == cg


def test_solve_full_coboundary_all_small_values():
    for x in range(-6, 7):
        for y in range(-6, 7):
            c_s, witness = solve_full_coboundary((x, y))
            xi = witness.xi
            assert vec_sub(xi, T_ALT.apply(xi)) == (x, y)
            assert vec_sub(xi, S_ALT.apply(xi)) == c_s
            assert witness.integral


# -- joint witness solving -------------------------------------------------

def test_coboundary_witness_single_generator():
    g = Matrix([[1, 1], [1, 2]])  # det(I - g) = -1, invertible
    spec = _coboundary_spec((g,), (2, -3))
    w = coboundary_witness(spec)
    assert w.xi == (2, -3) and w.integral


def test_coboundary_witness_gamma1_family():
    N = 2
    gens = (Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [N, 1]]))
    values = tuple(gamma1_cocycle(N, g) for g in gens)
    w = coboundary_witness(CocycleSpec(gens, values))
    assert w.xi == (Fraction(1, 2), 0)
    assert not w.integral


def test_coboundary_witness_inconsistent():
    # T fixes (1,0); value (1,0) on T is xi - T xi = (-xi_2, 0): c_2 must be 0.
    spec = CocycleSpec((Matrix([[1, 1], [0, 1]]),), ((0, 1),))
    assert coboundary_witness(spec) is None


def test_coboundary_witness_underdetermined():
    spec = CocycleSpec((Matrix([[1, 1], [0, 1]]),), ((1, 0),))
    with pytest.raises(UnderdeterminedWitness):
        coboundary_witness(spec)


def test_coboundary_witness_stacked_two_parabolics():
    # Two parabolics with distinct fixed lines jointly pin xi down.
    gens = (Matrix([[1, 2], [0, 1]]), Matrix([[1, 0], [2, 1]]))
    xi = (3, 5)
    spec = _coboundary_spec(gens, xi)
    w = coboundary_witness(spec)
    assert w.xi == xi


def _witness_specs(count, seed):
    """`count` seeded specs of one to three generators.  Even-numbered specs
    draw products of S and T powers, so most have some block I - g
    invertible; odd-numbered ones draw conjugates h T^e h^-1 (e = 0 gives I),
    every block singular, often with one fixed line.  Values are xi - g xi
    for a rational xi, one entry perturbed in every third spec."""
    rng = seeded(seed)
    specs = []
    for i in range(count):
        h = random_sl2(rng, length=3, max_exp=2)
        gens = []
        for _ in range(1 + rng.below(3)):
            if i % 2 == 0:
                gens.append(random_sl2(rng, length=1 + rng.below(4), max_exp=2))
                continue
            if rng.below(2):
                h = random_sl2(rng, length=3, max_exp=2)
            gens.append(h * T ** rng.int_in(-2, 2) * h.inverse())
        xi = (Fraction(rng.int_in(-6, 6), rng.int_in(1, 3)),
              Fraction(rng.int_in(-6, 6), rng.int_in(1, 3)))
        values = [vec_sub(xi, g.apply(xi)) for g in gens]
        if i % 3 == 0:
            j, c = rng.below(len(values)), rng.below(2)
            values[j] = tuple(x + (k == c) for k, x in enumerate(values[j]))
        specs.append(CocycleSpec(tuple(gens), tuple(values)))
    return specs


def _witness_outcome(spec):
    try:
        w = coboundary_witness(spec)
    except UnderdeterminedWitness:
        return "underdetermined"
    return None if w is None else (w.xi, w.integral)


def test_coboundary_witness_golden():
    # xi, integrality, None or underdetermined, pinned exactly over specs
    # with and without an invertible block I - g.
    h = hashlib.sha256()
    seen = set()
    for spec in _witness_specs(1000, 12):
        outcome = _witness_outcome(spec)
        invertible = any((Matrix.identity(2) - g).det() for g in spec.generators)
        seen.add((invertible, outcome if outcome in (None, "underdetermined")
                  else outcome[1]))
        h.update(repr(outcome).encode())
    assert seen == {(True, True), (True, False), (True, None),
                    (False, True), (False, False), (False, None),
                    (False, "underdetermined")}
    assert h.hexdigest() == (
        "88e640eb720b79beeb526804926f12165f0b181947b1149b9846af25885be9b1")


def test_coboundary_witness_of():
    w = CoboundaryWitness((Fraction(4, 2), Fraction(1, 3)))
    assert w.xi == (2, Fraction(1, 3)) and not w.integral


# -- Gamma_1(N) family -----------------------------------------------------

def test_gamma1_cocycle_golden():
    assert gamma1_cocycle(2, Matrix([[1, 0], [2, 1]])) == (0, -1)
    assert gamma1_cocycle(3, Matrix([[4, 1], [3, 1]])) == (-1, -1)
    with pytest.raises(PreconditionError):
        gamma1_cocycle(2, Matrix([[0, -1], [1, 0]]))


def test_gamma1_cocycle_identity_on_products():
    rng = seeded(3)
    for N in (2, 3, 5):
        gens = (Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [N, 1]]))
        for _ in range(50):
            g = Matrix.identity(2)
            for _ in range(6):
                h = gens[rng.below(2)]
                g = g * (h.inverse() if rng.below(2) else h)
            h = gens[rng.below(2)]
            lhs = gamma1_cocycle(N, g * h)
            rhs = vec_add(g.apply(gamma1_cocycle(N, h)), gamma1_cocycle(N, g))
            assert lhs == rhs


def test_gamma1_obstruction_small():
    assert gamma1_obstruction(2, Matrix([[1, 0], [2, 1]]))
    assert not gamma1_obstruction(2, Matrix([[0, -1], [1, 0]]))
    with pytest.raises(PreconditionError):
        gamma1_obstruction(2, Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_gamma1_obstruction_rejects_levels_below_one():
    # Level 0 once divided by zero and negative levels were accepted.
    for N in (0, -2):
        with pytest.raises(PreconditionError, match="level must be >= 1"):
            gamma1_obstruction(N, Matrix([[1, 0], [2, 1]]))


# -- central values --------------------------------------------------------

def test_central_cocycle_values():
    g = Matrix([[1, 1], [1, 2]])
    # (I - g)(m, n) = ((0,-1),(-1,-1)) @ (m,n) = (-n, -m-n)
    assert central_cocycle(2, 0, g) == (0, -1)
    assert central_cocycle(1, 1, g) == (Fraction(-1), -1) or \
        central_cocycle(1, 1, g) is None
    assert central_cocycle(1, 0, g) is None  # (0, -1): odd component
    assert central_cocycle(0, 0, g) == (0, 0)
    with pytest.raises(PreconditionError):
        central_cocycle(0, 0, Matrix([[1, 0], [0, 2]]))


def test_parity_domain_cases():
    assert parity_domain(0, 0).case_id == 1
    assert parity_domain(1, 0).case_id == 2
    assert parity_domain(0, 1).case_id == 3
    assert parity_domain(1, 1).case_id == 4
    assert parity_domain(2, 6).case_id == 1
    assert parity_domain(-3, 4).case_id == 2
    g = Matrix([[1, 1], [1, 2]])
    assert parity_domain(0, 0).accepts(g)
    assert not parity_domain(1, 0).accepts(g)   # g21 = 1 odd
    assert not parity_domain(0, 1).accepts(g)   # g12 = 1 odd
    assert not parity_domain(1, 1).accepts(g)   # both row sums are even


def test_parity_case4_condition():
    case = parity_domain(1, 1)
    g = Matrix([[1, 0], [0, 1]])
    assert case.accepts(g)  # 1+0 odd and 0+1 odd
    assert not case.accepts(Matrix([[1, 1], [1, 2]]))  # row sums even, odd


def test_parity_matches_minus_identity_value():
    # accepts(g) must coincide with central_cocycle being defined at g.
    for g in det1_matrices(2):
        for (m, n) in ((0, 0), (1, 0), (0, 1), (1, 1)):
            case = parity_domain(m, n)
            assert case.accepts(g) == (central_cocycle(m, n, g) is not None)
    assert central_cocycle(1, 1, MINUS_I) == (1, 1)


# -- the infinite-rank free family -----------------------------------------

def test_finf_generator_closed_form():
    for k in range(-6, 7):
        expect = (B_GEN ** k) * A_GEN * (B_GEN ** -k)
        assert finf_generator(k) == expect
        assert finf_generator(k).det() == 1


def test_finf_extend_coboundary_values():
    values = {k: (4 * k, 8 * k * k) for k in range(-6, 7)}
    for n in (1, -1, 2, 3, -3):
        u = finf_extend(n, values, sorted(values))
        assert u == (0, -2 * n)
        # verify the defining relations directly
        bn = B_GEN ** n
        for k in range(-6, 7):
            if -6 <= k + n <= 6:
                lhs = values[k + n]
                rhs = vec_add(bn.apply(values[k]),
                              (Matrix.identity(2) - finf_generator(k + n)).apply(u))
                assert lhs == rhs


def test_finf_extend_obstructed_values():
    values = {k: ((0, 0) if k == 0 else (1, 1)) for k in range(-6, 7)}
    for n in (1, -1, 2, -2):
        assert finf_extend(n, values, sorted(values)) is None


def _finf_extend_two_rows(n, values, window):
    """finf_extend as the joint system with both rows of every I - g_j."""
    rows, rhs = [], []
    for k in window:
        j = k + n
        if j in window:
            (x, y), (xj, yj) = values[k], values[j]
            rows += [(4 * j, -2), (8 * j * j, -4 * j)]
            rhs += [xj - x, yj - 2 * n * x - y]
    return solve_integer(Matrix(rows), rhs)


def test_finf_extend_matches_two_row_system():
    # The second row of I - g_j is 2j times the first, so one row per
    # relation and a check on the second right-hand side give the answer of
    # the full system: windows of coboundary values as in the benchmark's
    # extension ops, half perturbed, then windows of one relation and of
    # Fraction values, each against the two-row system.
    rng = seeded(2827)
    answers = {"unique": 0, "single": 0, "none": 0}
    for i in range(3000):
        r = rng.int_in(1, 6)
        xi = (rng.int_in(-9, 9), rng.int_in(-9, 9))
        if i % 5 == 4:
            xi = (Fraction(rng.int_in(-9, 9), rng.int_in(1, 4)), xi[1])
        values = {k: vec_sub(xi, finf_generator(k).apply(xi)) for k in range(-r, r + 1)}
        if i % 2:
            k = rng.int_in(-r, r)
            bump = Fraction(1, rng.int_in(1, 3)) if i % 7 == 0 else rng.int_in(1, 3)
            values[k] = vec_add(values[k], (bump, 0) if rng.below(2) else (0, bump))
        n = rng.int_in(1, min(r, 3)) * (1 if rng.below(2) else -1)
        window = sorted(values) if i % 3 else [0, n]
        u = finf_extend(n, values, window)
        assert u == _finf_extend_two_rows(n, values, window), (n, values, window)
        single = sum(k + n in window for k in window) == 1
        answers["none" if u is None else "single" if single else "unique"] += 1
    assert min(answers.values()) >= 300, answers


def test_finf_extend_window_errors():
    values = {k: (0, 0) for k in range(-2, 3)}
    with pytest.raises(PreconditionError):
        finf_extend(0, values, sorted(values))
    with pytest.raises(PreconditionError):
        finf_extend(1, values, (1, 2))          # window without 0
    with pytest.raises(PreconditionError):
        finf_extend(1, {0: (0, 0)}, (0, 5))     # missing value at 5
    with pytest.raises(PreconditionError):
        finf_extend(10, values, sorted(values))  # no relation instantiable
