"""Dense exact-arithmetic matrices over the integers and rationals.

Entries are Python ints or :class:`fractions.Fraction`; every operation is
exact.  Matrices are immutable and hashable, so they can be used as dict keys
and set members (the finite-closure check of `affine` keeps them in a set).

A matrix M is stored as `num`, the int rows of lam M, over `lam` >= 1 with
gcd(lam, every entry of num) = 1, a unique pair that equality and hashing
read; `integral` is exactly lam == 1.  `_scaled` reads given entries, and
`_over_lcm`, the one lcm scaling, makes the pair of rational rows, as it does
of the pairs `serialize` reads from "p/q" text.  The entries, `data`, are
`num` when lam = 1, else made on each read.  Every operation runs on int
rows, by small kernels (2x2 and 3x3 written out) or, for det and inverse past
3x3, the one fraction-free elimination `_bareiss` (right-hand block empty for
`det`, I for `inverse`, b for `lattice.solve_integer`), and builds its result
by `Matrix._of`, which divides out the gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, attrgetter, mul, sub


class ExactError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ExactError):
    """Operands have incompatible dimensions."""


class PreconditionError(ExactError):
    """An operation's mathematical precondition was violated."""


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and is built from them:
    ``Name(value, ...)`` takes the fields by position or by name, in slot
    order, and the trailing fields that the class's ``_defaults`` dict names
    may be left out.  A missing, unknown, repeated or extra field raises
    TypeError.  A subclass that checks its arguments defines ``__init__``,
    checks, then calls ``Record.__init__``.  Equality (same class only),
    hashing, pickling and the repr ``Name(field=value, ...)`` read the fields
    in order; assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        # key(record): the tuple of field values (a single field's value
        # alone), read in C; a Python getattr loop makes __eq__ ~5x slower.
        cls._key = attrgetter(*cls.__slots__)
        # The slots' own setters, which bypass the refusing __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._complete(values, named)
        for set_field, value in zip(setters, values):
            set_field(self, value)

    @classmethod
    def _complete(cls, values, named):
        """The field values in slot order: by position, by name or default."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(values)} were given")
        given = dict(zip(fields, values))
        for field in named:
            if field in given or field not in fields:
                kind = "a repeated" if field in given else "an unknown"
                raise TypeError(f"{name}() got {kind} field {field!r}")
        given = {**cls._defaults, **given, **named}
        missing = [field for field in fields if field not in given]
        if missing:
            raise TypeError(f"{name}() missing field {missing[0]!r}")
        return [given[field] for field in fields]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _norm(x):
    # Canonicalize Fraction with denominator 1 to int; anything else, bool
    # (an int subclass) included, is refused.
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x)!r}")


class Matrix(Record):
    """Immutable dense matrix with exact int/Fraction entries."""

    __slots__ = ("rows", "cols", "num", "lam", "integral")

    def __init__(self, data):
        num, lam = _scaled(tuple(map(tuple, data)))
        _check_shape(num)
        Record.__init__(self, len(num), len(num[0]), num, lam, lam == 1)

    @classmethod
    def _of(cls, num, lam=1):
        """num / lam for int rows num (a non-empty rectangular tuple of tuples)
        and an int lam != 0, in lowest terms with lam >= 1."""
        if lam != 1:
            flat = sum(num, ())
            g = gcd(lam, *flat) * (1 if lam > 0 else -1)
            if g != 1:   # divide out g, then regroup the entries into rows
                num, lam = tuple(zip(*[iter([x // g for x in flat])] * len(num[0]))), lam // g
        m = object.__new__(cls)
        _set_rows(m, len(num))
        _set_cols(m, len(num[0]))
        _set_num(m, num)
        _set_lam(m, lam)
        _set_integral(m, lam == 1)
        return m

    @property
    def data(self):
        """M's entries: `num` when integral, else made from the pair on each read."""
        if self.integral:
            return self.num
        return tuple([_over(row, self.lam) for row in self.num])

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):   # copy and pickle rebuild through _of
        return Matrix._of, (self.num, self.lam)

    # -- constructors ------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=16, typed=True)
    def identity(n):
        """The n x n identity, built once per size: a Matrix is immutable.
        typed=True keeps identity(2.0) from being answered by identity(2)."""
        if n < 1:
            raise ShapeError("matrix must have at least one row and column")
        return Matrix._of(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        x = self.num[i][j]
        return x if self.integral else _over((x,), self.lam)[0]

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __neg__(self):
        return Matrix._of(tuple(tuple([-a for a in r]) for r in self.num), self.lam)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                                 f"{other.rows}x{other.cols}")
            return Matrix._of(_int_mul(self.num, other.num), self.lam * other.lam)
        return Matrix([[other * a for a in r] for r in self.data])

    __rmul__ = __mul__

    def __pow__(self, k):
        if self.rows != self.cols:
            raise ShapeError("power of a non-square matrix")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Matrix.identity(self.rows)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, vec):
        """Matrix-vector product, returning a tuple."""
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        if self.integral:
            w = _int_apply(self.num, vec)
            if w is not None:
                return w
        # (lam M)(mu v) on ints over lam mu; reading v refuses a bool.
        (v,), mu = _scaled((tuple(vec),))
        return _over(_int_apply(self.num, v), self.lam * mu)

    # -- structure ---------------------------------------------------------

    def transpose(self):
        return Matrix._of(tuple(zip(*self.num)), self.lam)

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        t = sum([self.num[i][i] for i in range(self.rows)])
        return t if self.integral else _over((t,), self.lam)[0]

    def det(self):
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n, rows, lam = self.rows, self.num, self.lam
        if n <= 3:
            det = _adjugate(rows)[1]
        else:
            det = (_bareiss([list(row) for row in rows], n) or (0, None))[0]
        return det if lam == 1 else _over((det,), lam ** n)[0]

    def inverse(self):
        """Exact inverse; raises PreconditionError when singular.

        M^-1 = lam adj(N) / det N for N = num = lam M, with adj(N) and det N in
        closed form up to 3x3 (_adjugate), past it from the fraction-free pass
        on [N | I], which ends as [det N I | adj(N)] (_bareiss)."""
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n, rows, lam = self.rows, self.num, self.lam
        if n <= 3:
            adj, det = _adjugate(rows)
        else:
            det, m = _bareiss([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(rows)], n) or (0, ())
            adj = tuple(map(tuple, m))
        if det == 0:
            raise PreconditionError("matrix is singular")
        if lam != 1:
            adj = tuple([tuple([lam * x for x in r]) for r in adj])
        return Matrix._of(adj, det)

    def is_upper_triangular(self):
        return all(self.num[i][j] == 0
                   for i in range(self.rows) for j in range(min(i, self.cols)))

    def _entrywise(self, op, other):
        """op entry by entry on two matrices of one shape, over lam lam'."""
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch")
        a, b = self.lam, other.lam
        return Matrix._of(tuple(tuple([op(x * b, y * a) for x, y in zip(r1, r2)])
                                for r1, r2 in zip(self.num, other.num)), a * b)


_set_rows, _set_cols, _set_num, _set_lam, _set_integral = Matrix._setters


def _check_shape(rows):   # the shapes a matrix may not have
    if not rows or not rows[0]:
        raise ShapeError("matrix must have at least one row and column")
    if len(set(map(len, rows))) != 1:
        raise ShapeError("ragged rows")


def _int_mul(p, q):
    """Rows of the product of two matrices given by their rows; the arithmetic
    is type-agnostic, and on int rows no entry needs normalizing."""
    if len(p) == len(q) == len(q[0]) == 2:
        (a, b), (c, d) = p
        (e, f), (g, h) = q
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    if len(p) == len(q) == len(q[0]) == 3:
        (a, b, c), (d, e, f), (g, h, i) = p
        (j, k, m), (n, r, s), (t, u, v) = q
        return ((a * j + b * n + c * t, a * k + b * r + c * u, a * m + b * s + c * v),
                (d * j + e * n + f * t, d * k + e * r + f * u, d * m + e * s + f * v),
                (g * j + h * n + i * t, g * k + h * r + i * u, g * m + h * s + i * v))
    cols = tuple(zip(*q))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in p)


def _int_apply(g, b):
    """g b for an int matrix given by its rows g, when every entry of the
    vector b is an int (2x2 and 3x3 written out); else None."""
    n = len(b)
    if n == 2 and len(g) == 2:
        b0, b1 = b
        if type(b0) is int and type(b1) is int:
            (p, q), (r, s) = g
            return (p * b0 + q * b1, r * b0 + s * b1)
    elif n == 3 and len(g) == 3:
        b0, b1, b2 = b
        if type(b0) is int and type(b1) is int and type(b2) is int:
            (p, q, r), (s, t, u), (v, w, z) = g
            return (p * b0 + q * b1 + r * b2, s * b0 + t * b1 + u * b2,
                    v * b0 + w * b1 + z * b2)
    elif all(type(x) is int for x in b):
        return tuple([sum(map(mul, row, b)) for row in g])
    return None


def _letters(gens):
    """The letters of `_walk` for the integral matrices `gens`: the rows of
    each generator, then of its inverse."""
    return tuple(x.num for g in gens for x in (g, g.inverse()))


def _walk(letters, rng, length):
    """Rows of a seeded word of `length` letters (the identity for none),
    multiplied left to right by `_int_mul`: the word contract of every
    sampler in the package.

    Each step draws r = rng.below(len(letters)) and takes letter r, which
    for `_letters(gens)` is generator r // 2, or its inverse when r is odd
    (rng a `prng.SplitMix64`, so the words are reproducible)."""
    k = len(letters)
    m = letters[rng.below(k)] if length > 0 else Matrix.identity(len(letters[0])).num
    for _ in range(length - 1):
        m = _int_mul(m, letters[rng.below(k)])
    return m


def _bareiss(m, n):
    """(q, m) after fraction-free Gauss-Jordan elimination (Bareiss 1968) on
    the first n columns of m, a list of distinct int row lists that it
    consumes, or None when one of those columns has no pivot.

    m holds an r x n matrix N, r >= n, each row followed by its row of a
    right-hand block B: empty for det, I for inverse, b for a solve.  Step k
    brings up the first row from k on with a nonzero entry in column k,
    negating the row it displaces to keep the determinant, takes that entry
    p and sets every other row to (p m_i - m_ik m_k) / q, q the previous
    pivot; each division is exact (Cohen, GTM 138, 2.2).  Column k is then
    dropped from every row, so the rows end as their B part: q P^-1 B_P on
    rows 0..n-1, with P the n rows of N that gave the pivots and B_P theirs,
    and +-q (B_i - N_i P^-1 B_P) on each row i past them.  For square N,
    q = det N, and B = I ends as adj(N).
    """
    r = len(m)
    q = 1
    for k in range(n):
        piv = next((i for i in range(k, r) if m[i][0]), None)
        if piv is None:
            return None
        if piv != k:
            m[k], m[piv] = m[piv], [-x for x in m[k]]
        p, *rest = m[k]
        for i in range(r):
            if i != k:
                row = m[i]
                f = row.pop(0)
                m[i] = [(p * a - f * b) // q for a, b in zip(row, rest)]
        m[k] = rest
        q = p
    return q, m


def _scaled(d):
    """(int rows of lam M, lam) for the rows d of M, lam the lcm of the
    denominators: d itself, lam = 1, when all are ints; `_norm` reads the rest."""
    for row in d:
        for x in row:
            if type(x) is not int:
                return _over_lcm([[x if type(x) is int else _norm(x).as_integer_ratio()
                                   for x in row] for row in d])
    return d, 1


def _over_lcm(rows):
    """(int rows of lam M, lam) for the rows of M given as ints and pairs
    (p, q) standing for p / q, q != 0 (the form of `serialize._ratio`), lam
    the lcm of the q: the one scaling of rational rows to ints.  Rows with
    no pair come back as they are, over 1."""
    q = [x[1] for row in rows for x in row if type(x) is tuple]
    if not q:
        return tuple(rows), 1
    lam = lcm(*q)
    return tuple([tuple([x[0] * (lam // x[1]) if type(x) is tuple else x * lam for x in row])
                  for row in rows]), lam


def _over(row, d):
    """The entries x / d of the int row, normalized: x // d where d divides x,
    else one Fraction: every entry read from a pair is made here."""
    return tuple([Fraction(x, d) if x % d else x // d for x in row])


def _adjugate(d):
    """(adj(M), det M) of a 1x1, 2x2 or 3x3 matrix given by its rows."""
    if len(d) == 1:
        return ((1,),), d[0][0]
    if len(d) == 2:
        (a, b), (c, e) = d
        return ((e, -b), (-c, a)), a * e - b * c
    (a, b, c), (e, f, g), (h, i, j) = d
    c00, c01, c02 = f * j - g * i, g * h - e * j, e * i - f * h
    adj = ((c00, c * i - b * j, b * g - c * f),
           (c01, a * j - c * h, c * e - a * g),
           (c02, b * h - a * i, a * f - b * e))
    return adj, a * c00 + b * c01 + c * c02


# -- vector helpers --------------------------------------------------------

def _normed(w):
    """The tuple w with its entries normalized: w itself when all are ints."""
    for x in w:
        if type(x) is not int:
            return tuple(map(_norm, w))
    return w


def vec_add(u, v):
    return _normed(tuple(map(add, u, v)))


def vec_sub(u, v):
    return _normed(tuple(map(sub, u, v)))


def vec_norm(u):
    return _normed(tuple(u))
