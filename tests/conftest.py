"""Shared deterministic generators for the test suite.

Everything here is seeded through the package's own SplitMix64 so test runs
are bit-for-bit reproducible.
"""

from fractions import Fraction

from exactgroups.matrix import Matrix
from exactgroups.prng import SplitMix64
from exactgroups.sl2 import GENERATORS


def det1_matrices(bound):
    """All integer 2x2 matrices with entries in [-bound, bound] and det 1."""
    out = []
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                need = 1 + b * c
                if a == 0:
                    if need == 0:
                        out.extend(Matrix([[0, b], [c, d]]) for d in rng)
                    continue
                d, rem = divmod(need, a)
                if rem == 0 and -bound <= d <= bound:
                    out.append(Matrix([[a, b], [c, d]]))
    return out


def random_sl2(rng, length=12, max_exp=3):
    """Random product of S,T powers: a deterministic SL2(Z) sample."""
    m = Matrix.identity(2)
    for _ in range(length):
        gen = GENERATORS["S"] if rng.below(2) else GENERATORS["T"]
        e = rng.int_in(-max_exp, max_exp)
        if e:
            m = m * gen ** e
    return m


def elementary(n, i, j, v=1):
    """E_ij(v): identity with v at position (i, j), i != j."""
    return Matrix([[1 if r == c else (v if (r, c) == (i, j) else 0)
                    for c in range(n)] for r in range(n)])


SL3_ELEMENTARIES = tuple(elementary(3, i, j)
                         for i in range(3) for j in range(3) if i != j)


def random_sl3(rng, length=10):
    """Random product of 3x3 elementary transvections (det 1)."""
    m = Matrix.identity(3)
    for _ in range(length):
        g = SL3_ELEMENTARIES[rng.below(6)]
        m = m * (g.inverse() if rng.below(2) else g)
    return m


def random_unimodular(rng, n, length=8):
    """Random GL_n(Z) element with det +-1: a product of `length` elementary
    matrices E_ij(+-1), then diag(-1, 1, ..., 1) half the time.  Each factor
    is applied as the column operation it stands for: m E_ij(v) adds v times
    column i to column j, and the flip negates column 0."""
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(length):
        i, j = pairs[rng.below(len(pairs))]
        v = -1 if rng.below(2) else 1
        for row in m:
            row[j] += v * row[i]
    if rng.below(2):
        for row in m:
            row[0] = -row[0]
    return Matrix._trusted(tuple(map(tuple, m)), True)


def rational_rank(rows):
    """Rank over Q by Fraction elimination, independent of the library."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def seeded(seed):
    return SplitMix64(seed)


def forbidden(name):
    """A method that fails the test when called: patched over `name`."""
    def method(*args):
        raise AssertionError(f"{name} called")
    return method


def forbid_fraction_arithmetic(patch):
    """Make every Fraction sum, difference, product, quotient and equality
    test fail, through the pytest monkeypatch context `patch`."""
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__"):
        patch.setattr(Fraction, name, forbidden(f"Fraction.{name}"))
