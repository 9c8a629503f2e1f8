"""Exact arithmetic for checking results, independent of the code under test.

Matrices here are tuples of row tuples with int or Fraction entries.  Nothing
in this module imports exactgroups, so a defect in the library's kernel
cannot make a wrong answer look right.
"""

from fractions import Fraction


def norm(x):
    """Fraction with denominator 1 -> int, as the library stores entries."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def mat(rows):
    return tuple(tuple(norm(x) for x in r) for r in rows)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(norm(sum(x * y for x, y in zip(row, col))) for col in cols)
                 for row in a)


def apply(a, v):
    return tuple(norm(sum(x * y for x, y in zip(row, v))) for row in a)


def power(a, e):
    """a**e by binary powering; negative e through the inverse."""
    base = a if e >= 0 else inverse(a)
    e = abs(e)
    out = identity(len(a))
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def inverse(a):
    """Gauss-Jordan over Q; raises ZeroDivisionError when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return mat(row[n:] for row in m)


def det(a):
    """Determinant by elimination over Q."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return norm(d)


def rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def is_upper(a):
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(i))


def hnf(rows, dim):
    """Row Hermite normal form: upper echelon, positive pivots, entries above
    a pivot in [0, pivot), zero rows dropped.  Unique for a lattice, so it is
    compared with the library's result as a canonical form.
    """
    work = [list(r) for r in rows if any(r)]
    out = []
    for c in range(dim):
        live = [r for r in work if r[c]]
        rest = [r for r in work if not r[c]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            p = live[0]
            nxt = [p]
            for r in live[1:]:
                q = r[c] // p[c]
                r = [x - q * y for x, y in zip(r, p)]
                (nxt if r[c] else rest).append(r)
            live = nxt
        if live:
            p = live[0]
            if p[c] < 0:
                p = [-x for x in p]
            out.append(p)
        work = [r for r in rest if any(r)]
    for i in range(len(out)):
        c = next(k for k, x in enumerate(out[i]) if x)
        for j in range(i):
            q = out[j][c] // out[i][c]
            if q:
                out[j] = [x - q * y for x, y in zip(out[j], out[i])]
    return tuple(tuple(r) for r in out)


def in_lattice(gens, v, dim):
    """Whether v is an integer combination of gens (compare HNFs)."""
    return hnf(list(gens), dim) == hnf(list(gens) + [v], dim)


def integer_kernel(m, n):
    """HNF basis of {x in Z^n : m x = 0}, from the row HNF of [m^T | I]."""
    rows = [tuple(m[i][j] for i in range(len(m))) + identity(n)[j] for j in range(n)]
    h = hnf(rows, len(m) + n)
    k = len(m)
    return hnf([r[k:] for r in h if not any(r[:k])], n)


def max_bits(x):
    """Largest bit-length of an int, or of a Fraction's numerator/denominator,
    anywhere inside nested tuples/lists/dicts."""
    if type(x) is bool or x is None or type(x) is str:
        return 0
    if type(x) is int:
        return abs(x).bit_length()
    if type(x) is Fraction:
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if type(x) is dict:
        x = x.values()
    return max((max_bits(y) for y in x), default=0)
