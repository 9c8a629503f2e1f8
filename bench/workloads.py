"""Seeded workloads for the exactgroups benchmark.

Op i of a workload is a pure function of (seed, i): its kind and size come
from a fixed round-robin schedule on i, its entries from a SplitMix64 stream
keyed by (seed, i).  So the mix of kinds and sizes is the same on every seed
and only the contents vary.

Each op kind has
  * run(args)            -- the timed call into the library's public API,
  * check(args, result)  -- an oracle built on bench/oracle.py, which does
                            not import the library, so it cannot share a
                            defect with the code under test.

Library functions are always looked up as module attributes at call time
(``lattice.snf``, not a name imported into this module), so the traced run's
wrappers see every call.
"""

from fractions import Fraction

from exactgroups import affine, bruhat, cocycle, lattice, sl2
from exactgroups.matrix import Matrix
from exactgroups.prng import SplitMix64

import oracle as O
from speed import ARITHMETIC


class Kind:
    """An op kind; `bits(result)` overrides the default entry bit-length.

    `budget_s` is the per-op CPU-time limit; an op that runs past it is
    stopped and counted as failed.  At seed state no op comes near the
    default 2 s; only the SNF kinds of normal-forms set a tight one."""

    __slots__ = ("name", "run", "check", "bits", "budget_s")

    def __init__(self, name, run, check, bits=None, budget_s=2.0):
        self.name, self.run, self.check, self.bits = name, run, check, bits
        self.budget_s = budget_s


class Op:
    __slots__ = ("index", "kind", "args")

    def __init__(self, index, kind, args):
        self.index, self.kind, self.args = index, kind, args


class Workload:
    """A named op stream: schedule[i % len] gives (kind, make) for op i.

    A run attempts a fixed number of ops, whole rounds of the schedule, so
    `attempted` and `failed` are a pure function of the seed and the code:
    `rate` is the workload's throughput at seed state on the reference host
    (ops per second of op time), and a run of S seconds attempts S * rate
    ops (`run_ops`).

    `guard`, when set, is a `SizeGuard`: a second, deterministic per-op
    limit on coefficient size.  `known_defect(op, cause)` names the ROADMAP
    defect a failed op is attributed to, or returns None; a failure it does
    not attribute makes the run incorrect.  The traced run replays the first `trace_rounds`
    rounds of the schedule.  `reference` is the speed reference that times
    are normalized by (bench/speed.py).
    """

    def __init__(self, name, rate, schedule, trace_rounds, known_defect=None, guard=None,
                 reference=ARITHMETIC):
        self.name = name
        self.rate = rate
        self.schedule = schedule
        self.trace_ops = trace_rounds * len(schedule)
        self.known_defect = known_defect or (lambda op, cause: None)
        self.guard = guard
        self.reference = reference

    def run_ops(self, seconds):
        """Ops a run of `seconds` attempts: whole rounds, at least one."""
        rounds = max(1, round(seconds * self.rate / len(self.schedule)))
        return rounds * len(self.schedule)

    def op(self, seed, i):
        kind, make = self.schedule[i % len(self.schedule)]
        return Op(i, kind, make(op_rng(seed, i), i // len(self.schedule)))

    def ops(self, seed, start, count):
        return [self.op(seed, i) for i in range(start, start + count)]


def op_rng(seed, i):
    """Independent stream per (seed, op index)."""
    return SplitMix64(SplitMix64(((seed & 0xFFFFFFFF) << 32) | (i & 0xFFFFFFFF)).next_u64())


def rand_rows(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.int_in(lo, hi) for _ in range(cols)) for _ in range(rows))


def plain(x):
    """Canonical plain-data form of a library result, for digests and
    comparisons between runs."""
    if isinstance(x, Matrix):
        return ("M", x.data)
    if isinstance(x, affine.AffineElement):
        return ("A", x.translation, x.linear.data)
    if isinstance(x, lattice.LatticeBasis):
        return ("L", x.dim, x.rows)
    if isinstance(x, sl2.GenWord):
        return ("W", x.tokens, x.central)
    if isinstance(x, bruhat.BruhatFactorization):
        return ("B", x.A.data, x.sigma, x.B.data)
    if isinstance(x, (tuple, list)):
        return tuple(plain(y) for y in x)
    return x


def canon(x):
    """Text form of plain data.  Integers are written in hex, which has no
    length limit, unlike decimal conversion of huge SNF entries."""
    if type(x) is tuple:
        return "(" + ",".join(canon(y) for y in x) + ")"
    if type(x) is int:
        return format(x, "x")
    if type(x) is Fraction:
        return format(x.numerator, "x") + "/" + format(x.denominator, "x")
    return repr(x)


# -- SL2(Z) helpers for generation and oracles ------------------------------

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))
T_ALT = ((0, -1), (1, 1))
MINUS_I = ((-1, 0), (0, -1))
I2 = ((1, 0), (0, 1))
WORD_GENS = {"S": S, "T": T, "s": ((0, 1), (-1, 0)), "t": T_ALT}


def sl2_inv(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def eval_word(tokens, central):
    m = I2
    for gen, exp in tokens:
        m = O.mul(m, O.power(WORD_GENS[gen], exp))
    return O.mul(m, MINUS_I) if central else m


def random_sl2(rng, length, max_exp=3):
    m = I2
    for _ in range(length):
        if rng.below(2):
            m = O.mul(m, S)
        else:
            e = rng.int_in(1, max_exp) * (1 if rng.below(2) else -1)
            m = O.mul(m, ((1, e), (0, 1)))
    return m


def random_unimodular(rng, n, length):
    m = O.identity(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(length):
        i, j = pairs[rng.below(len(pairs))]
        v = 1 if rng.below(2) else -1
        m = tuple(tuple(m[r][c] + (v * m[j][c] if r == i else 0) for c in range(n))
                  for r in range(n))
    if rng.below(2):
        m = (tuple(-x for x in m[0]),) + m[1:]
    return m


# -- int-words ---------------------------------------------------------------

def make_decompose(rng, _round):
    g = random_sl2(rng, rng.int_in(10, 60))
    return Matrix(g), g


def run_decompose(args):
    w = sl2.decompose_st(args[0])
    return w, sl2.to_st_word(w)


def check_decompose(args, result):
    g = args[1]
    w, w2 = result
    return (all(gen in "ST" for gen, _ in w.tokens) and w.central in (0, 1)
            and all(gen in "st" for gen, _ in w2.tokens)
            and eval_word(w.tokens, w.central) == g
            and eval_word(w2.tokens, w2.central) == g)


COCYCLE_GENS = (S, T, T_ALT)


def make_cocycle(rng, rnd):
    xi = (rng.int_in(-9, 9), rng.int_in(-9, 9))
    values = tuple(O.apply(((1 - g[0][0], -g[0][1]), (-g[1][0], 1 - g[1][1])), xi)
                   for g in COCYCLE_GENS)
    spec = cocycle.CocycleSpec(tuple(Matrix(g) for g in COCYCLE_GENS), values)
    # 1-4 tokens with |exp| log-spread over [1, 1024]: the token count and
    # each exponent's bit-length follow the round, so every seed has the same
    # spread of loop lengths; the exponents themselves are random.
    word = []
    for t in range(1 + rnd % 4):
        bits = (rnd + 3 * t) % 11
        mag = rng.int_in(1 << bits >> 1 or 1, 1 << bits)
        word.append((rng.below(3), mag if rng.below(2) else -mag))
    return spec, tuple(word), xi


def run_cocycle(args):
    return cocycle.cocycle_eval(args[0], args[1])


def check_cocycle(args, result):
    _, word, xi = args
    w = I2
    for idx, exp in word:
        w = O.mul(w, O.power(COCYCLE_GENS[idx], exp))
    wxi = O.apply(w, xi)
    return tuple(result) == (xi[0] - wxi[0], xi[1] - wxi[1])


def make_ball(rng, rnd):
    radius = 4 + rnd % 4
    v = (0, 0)
    while v == (0, 0):
        v = (rng.int_in(-3, 3), rng.int_in(-3, 3))
    if rnd % 8 < 4:
        gens = (S, T)
    else:
        g = I2
        while abs(g[0][0] + g[1][1]) <= 2:
            g = random_sl2(rng, rng.int_in(2, 4), max_exp=2)
        gens = (g, MINUS_I)
    x = affine.AffineElement(v, Matrix(I2))
    els = [affine.AffineElement((0, 0), Matrix(g)) for g in gens]
    return x, els, radius, v, gens


def run_ball(args):
    return affine.conj_class_ball(args[0], args[1], args[2])


def ball_count(v, gens, radius):
    """Independent breadth-first count of distinct conjugates w x w^-1."""
    def mul(p, q):
        (a, g), (b, h) = p, q
        gb = O.apply(g, b)
        return (a[0] + gb[0], a[1] + gb[1]), O.mul(g, h)

    def inv(p):
        a, g = p
        gi = sl2_inv(g)
        ga = O.apply(gi, a)
        return (-ga[0], -ga[1]), gi

    x = (v, I2)
    alphabet = []
    for g in gens:
        alphabet += [((0, 0), g), ((0, 0), sl2_inv(g))]
    seen = {((0, 0), I2)}
    frontier = list(seen)
    conj = {mul(mul(w, x), inv(w)) for w in frontier}
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in alphabet:
                nw = mul(g, w)
                if nw not in seen:
                    seen.add(nw)
                    nxt.append(nw)
                    conj.add(mul(mul(nw, x), inv(nw)))
        frontier = nxt
        if not frontier:
            break
    return len(conj)


def check_ball(args, result):
    return result == ball_count(args[3], args[4], args[2])


def make_automorphism(rng, rnd):
    n = 2 + rnd % 2
    L = random_unimodular(rng, n, 8)
    xi = tuple(rng.int_in(-6, 6) for _ in range(n))
    pairs = []
    for _ in range(6):
        pair = []
        for _ in range(2):
            a = tuple(rng.int_in(-4, 4) for _ in range(n))
            pair.append((a, random_unimodular(rng, n, 3)))
        pairs.append(tuple(pair))
    els = [tuple(affine.AffineElement(a, Matrix(g)) for a, g in p) for p in pairs]
    return Matrix(L), xi, els, L, pairs


def run_automorphism(args):
    phi = affine.affine_automorphism(args[0], args[1])
    return tuple((phi(x * y), phi(x) * phi(y)) for x, y in args[2])


def check_automorphism(args, result):
    _, xi, _, L, pairs = args
    L_inv = O.inverse(L)

    def phi(a, s):
        s2 = O.mul(O.mul(L, s), L_inv)
        la, sxi = O.apply(L, a), O.apply(s2, xi)
        return tuple(p + q - r for p, q, r in zip(la, xi, sxi)), s2

    for ((a, s), (b, t)), (lhs, rhs) in zip(pairs, result):
        sb = O.apply(s, b)
        want = phi(tuple(p + q for p, q in zip(a, sb)), O.mul(s, t))
        for got in (lhs, rhs):
            if (tuple(got.translation), got.linear.data) != want:
                return False
    return len(result) == len(pairs)


DECOMPOSE = (Kind("decompose_st", run_decompose, check_decompose), make_decompose)
AUTOMORPHISM = (Kind("automorphism", run_automorphism, check_automorphism), make_automorphism)

# Cheap word decompositions are weighted up so that a run holds well over a
# thousand ops and op_p99_ms has ten or more ops beyond it.
INT_WORDS = Workload("int-words", 280, [
    DECOMPOSE, AUTOMORPHISM, DECOMPOSE,
    (Kind("cocycle_eval", run_cocycle, check_cocycle), make_cocycle),
    DECOMPOSE, AUTOMORPHISM, DECOMPOSE,
    (Kind("conj_class_ball", run_ball, check_ball), make_ball),
], trace_rounds=150)


# -- bruhat-rational ---------------------------------------------------------

GRID = sorted({Fraction(p, q) for p in range(-3, 4) for q in range(1, 4)})
GRID_NONZERO = [x for x in GRID if x != 0]

# Signed permutation representatives, as the library documents them.
PERMS = {
    "id": O.identity(3),
    "(12)": ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    "(13)": ((0, 0, -1), (0, 1, 0), (1, 0, 0)),
    "(23)": ((1, 0, 0), (0, 0, -1), (0, 1, 0)),
    "(123)": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "(132)": ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
}
SIGMAS = {"id": (1, 2, 3), "(12)": (2, 1, 3), "(13)": (3, 2, 1),
          "(23)": (1, 3, 2), "(123)": (2, 3, 1), "(132)": (3, 1, 2)}


def cell(g):
    """sigma with rank(g[i.., ..j]) = #{k <= j : sigma(k) >= i}."""
    prof = {(i, j): O.rank([row[:j] for row in g[i - 1:]])
            for i in range(1, 4) for j in range(1, 4)}
    for name, s in SIGMAS.items():
        if all(prof[i, j] == sum(1 for k in range(j) if s[k] >= i)
               for i in range(1, 4) for j in range(1, 4)):
            return name
    return None


def grid(rng, values):
    return values[rng.below(len(values))]


def random_borel(rng):
    return O.mat([[grid(rng, GRID_NONZERO), grid(rng, GRID), grid(rng, GRID)],
                  [0, grid(rng, GRID_NONZERO), grid(rng, GRID)],
                  [0, 0, grid(rng, GRID_NONZERO)]])


def invertible_grid3(rng):
    g = ((0,) * 3,) * 3
    while O.det(g) == 0:
        g = O.mat([[grid(rng, GRID) for _ in range(3)] for _ in range(3)])
    return g


def make_bruhat(rng, _round):
    g = invertible_grid3(rng)
    return Matrix(g), g


def run_bruhat(args):
    return bruhat.bruhat_decompose(args[0])


def check_factors(A, p, B, g):
    return (O.is_upper(A) and O.is_upper(B) and O.det(A) != 0 and O.det(B) != 0
            and O.mul(O.mul(A, p), B) == g)


def check_bruhat(args, fac):
    g = args[1]
    return (fac.sigma in PERMS and fac.sigma == cell(g)
            and check_factors(fac.A.data, PERMS[fac.sigma], fac.B.data, g))


def make_cell(rng, rnd):
    sigma = list(PERMS)[rnd % 6]
    g = O.mul(O.mul(random_borel(rng), PERMS[sigma]), random_borel(rng))
    return Matrix(g), sigma


def run_cell(args):
    return bruhat.cell_of(args[0])


def check_cell(args, result):
    return result == args[1]


def make_fact(rng, rnd):
    g = random_borel(rng)
    return 3 + rnd % 2, Matrix(g), g


def run_fact(args):
    return bruhat.fact_check(args[0], args[1])


def check_fact(args, result):
    which, _, g = args
    if which == 3:
        p = PERMS["(13)"]
        holds = (cell(O.mul(O.mul(p, g), p)) == "(123)") == (g[0][1] * g[1][2] != 0 and g[0][2] == 0)
    else:
        p = PERMS["(132)"]
        c = cell(O.mul(O.mul(p, g), p))
        holds = (c == "(123)") == (g[0][2] == 0) and (c == "(13)") == (g[0][2] != 0)
    return result is True and holds


def make_case3(rng, _round):
    g = O.mul(O.mul(random_borel(rng), PERMS["(123)"]), random_borel(rng))
    return Matrix(g), g


def run_case3(args):
    return bruhat.case3_normalize(args[0])


def check_case3(args, result):
    A, B = result[0].data, result[1].data
    return B[0][1] == 0 and check_factors(A, PERMS["(123)"], B, args[1])


DECOMPOSE_3X3 = (Kind("bruhat_decompose", run_bruhat, check_bruhat), make_bruhat)
CELL = (Kind("cell_of", run_cell, check_cell), make_cell)
FACT = (Kind("fact_check", run_fact, check_fact), make_fact)
CASE3 = (Kind("case3_normalize", run_case3, check_case3), make_case3)

# Per 20 ops: 3 cell_of, 3 fact_check (the fast kinds), 8 decompositions and
# 6 case3_normalize, so the median falls in the middle of the decompositions
# rather than in a gap between kinds.
BRUHAT_RATIONAL = Workload("bruhat-rational", 1800, [
    DECOMPOSE_3X3, CELL, CASE3, DECOMPOSE_3X3, FACT,
    DECOMPOSE_3X3, CASE3, DECOMPOSE_3X3, CELL, CASE3,
    DECOMPOSE_3X3, FACT, DECOMPOSE_3X3, CASE3, DECOMPOSE_3X3,
    CELL, CASE3, DECOMPOSE_3X3, FACT, CASE3,
], trace_rounds=300)


# -- normal-forms ------------------------------------------------------------

def make_hnf(rng, _round):
    rows = rand_rows(rng, rng.int_in(1, 12), rng.int_in(1, 8))
    return rows, len(rows[0])


def run_hnf(args):
    return lattice.hnf(args[0], dim=args[1])


def check_hnf(args, basis):
    return basis.dim == args[1] and basis.rows == O.hnf(args[0], args[1])


def square_size(rnd):
    """n = 3..6 in turn; 6x6 is where SNF blows up."""
    return 3 + rnd % 4


def make_snf(rng, rnd):
    m = rand_rows(rng, square_size(rnd), square_size(rnd))
    return Matrix(m), m


def run_snf(args):
    return lattice.snf(args[0])


def check_snf(args, result):
    m = args[1]
    n = len(m)
    U, D, V = (x.data for x in result)
    if not all(type(x) is int for X in (U, D, V) for row in X for x in row):
        return False
    diag = [D[i][i] for i in range(n)]
    return (O.mul(O.mul(U, m), V) == D
            and all(D[i][j] == 0 for i in range(n) for j in range(n) if i != j)
            and all(d >= 0 for d in diag)
            and all((p == 0 and q == 0) or (p != 0 and q % p == 0)
                    for p, q in zip(diag, diag[1:]))
            and abs(O.det(U)) == 1 and abs(O.det(V)) == 1)


def make_solve(rng, rnd):
    n = square_size(rnd)
    m = rand_rows(rng, n, n)
    if rnd % 10 < 5:
        b = O.apply(m, tuple(rng.int_in(-3, 3) for _ in range(n)))
    else:
        b = tuple(rng.int_in(-9, 9) for _ in range(n))
    return Matrix(m), b, m


def run_solve(args):
    return lattice.solve_integer(args[0], args[1])


def check_solve(args, x):
    _, b, m = args
    cols = list(zip(*m))
    if x is None:
        return not O.in_lattice(cols, b, len(b))
    return all(type(v) is int for v in x) and O.apply(m, x) == tuple(b)


def make_kernel(rng, rnd):
    n = square_size(rnd)
    rank = n - 1 - rng.below(2)
    rows = list(rand_rows(rng, rank, n))
    while len(rows) < n:   # dependent rows keep entries in [-9, 9]
        r = rows[rng.below(rank)]
        rows.insert(rng.below(len(rows) + 1), r if rng.below(2) else tuple(-x for x in r))
    m = tuple(rows)
    return Matrix(m), m


def run_kernel(args):
    return lattice.kernel_basis(args[0])


def check_kernel(args, basis):
    m = args[1]
    return basis.dim == len(m) and basis.rows == O.integer_kernel(m, len(m))


def make_invariant(rng, rnd):
    n = 2 + rnd % 2
    gens = [random_unimodular(rng, n, rng.int_in(2, 5)) for _ in range(rng.int_in(1, 3))]
    seeds = [tuple(rng.int_in(-6, 6) for _ in range(n)) for _ in range(rng.int_in(1, 2))]
    return [Matrix(g) for g in gens], seeds, gens, n


def run_invariant(args):
    return affine.invariant_lattice(args[0], args[1])


def check_invariant(args, result):
    _, seeds, gens, n = args
    mats = []
    for g in gens:
        mats += [g, O.inverse(g)]
    basis = O.hnf(seeds, n)
    while True:
        grown = O.hnf(list(basis) + [O.apply(g, r) for g in mats for r in basis], n)
        if grown == basis:
            break
        basis = grown
    index = None
    if len(basis) == n:
        index = 1
        for i, row in enumerate(basis):
            index *= row[i]
    got, got_index = result
    return got.rows == basis and got_index == index


def finf_gen(k):
    return ((1 - 4 * k, 2), (-8 * k * k, 1 + 4 * k))


def coboundary_window(xi, r):
    """Values xi - g_k xi of a coboundary on the free family, |k| <= r; the
    extension problem for them is solvable."""
    values = {}
    for k in range(-r, r + 1):
        gx = O.apply(finf_gen(k), xi)
        values[k] = (xi[0] - gx[0], xi[1] - gx[1])
    return values


def make_finf(rng, rnd):
    r = rng.int_in(2, 6)
    n = rng.int_in(1, 3) * (1 if rng.below(2) else -1)
    values = coboundary_window((rng.int_in(-9, 9), rng.int_in(-9, 9)), r)
    if rnd % 2:
        k = rng.int_in(-r, r)                          # perturbed: usually not
        values[k] = (values[k][0] + rng.int_in(1, 3), values[k][1])
    return n, values, sorted(values)


def run_finf(args):
    return cocycle.finf_extend(args[0], args[1], args[2])


def check_finf(args, u):
    n, values, window = args
    bn = ((1, 0), (2 * n, 1))
    rows, rhs = [], []
    for k in window:
        if k + n in values:
            g = finf_gen(k + n)
            bv = O.apply(bn, values[k])
            rows += [(1 - g[0][0], -g[0][1]), (-g[1][0], 1 - g[1][1])]
            rhs += [values[k + n][0] - bv[0], values[k + n][1] - bv[1]]
    if u is None:
        return not O.in_lattice(list(zip(*rows)), tuple(rhs), len(rhs))
    return O.apply(rows, tuple(u)) == tuple(rhs)


# Budget of the ops that are one SNF of an n x n input: 10 ms of CPU time,
# or U/V entries past SizeGuard.MAX_BITS.  At seed state one whose entries
# stay within 1000 bits takes under 3 ms of CPU time.
SNF_BUDGET_S = 0.01
SNF = (Kind("snf", run_snf, check_snf, budget_s=SNF_BUDGET_S), make_snf)
SOLVE = (Kind("solve_integer", run_solve, check_solve, budget_s=SNF_BUDGET_S), make_solve)
KERNEL = (Kind("kernel_basis", run_kernel, check_kernel, budget_s=SNF_BUDGET_S), make_kernel)


class SizeGuard:
    """The size half of the normal-forms budget: the largest |entry| bit-length
    of U and V over every lattice.snf call of one op.

    A CPU-time budget alone cannot make `failed` repeat exactly: SNF run
    times spread continuously from microseconds to minutes, so some input
    always runs within timing noise of any time limit.  Coefficient size is
    deterministic.  An op whose SNF grows U or V entries past MAX_BITS fails
    whatever its time.  At seed state an SNF op within MAX_BITS takes a few
    times less than the 10 ms budget, so only ops past MAX_BITS are ever
    stopped by time (bench/README.md): which ops fail does not depend on
    timing, only why.

    `install()` rebinds lattice.snf, which solve_integer, kernel_basis (and
    through solve_integer, finf_extend) look up at call time; the check runs
    after each SNF returns, a few microseconds per call.
    """

    MAX_BITS = 1000

    def __init__(self):
        self.bits = 0
        self._original = None

    def install(self):
        original = self._original = lattice.snf

        def snf(M):
            result = original(M)
            U, _, V = result
            top = max(max(max(row), -min(row)) for X in (U, V) for row in X.data)
            self.bits = max(self.bits, top.bit_length())
            return result

        lattice.snf = snf

    def remove(self):
        lattice.snf = self._original

    def over(self):
        """Whether the op since the last call went past MAX_BITS; resets."""
        over, self.bits = self.bits > self.MAX_BITS, 0
        return over


def snf_blowup(op, cause):
    """An op that goes through lattice.snf and ran past the budget (time or
    size): ROADMAP item 1 (finf_extend solves with solve_integer)."""
    if cause == "over-budget" and op.kind.name in ("snf", "solve_integer", "kernel_basis",
                                                   "finf_extend"):
        return "SNF coefficient blow-up (ROADMAP item 1)"
    return None


# The other ops here (a few ms for a finf_extend window) never blow up;
# they keep the default 2 s budget, so that a time limit only ever stops an
# op that is past the size limit as well.
NORMAL_FORMS = Workload("normal-forms", 2700, [
    (Kind("hnf", run_hnf, check_hnf), make_hnf), SNF, SOLVE, KERNEL,
    (Kind("invariant_lattice", run_invariant, check_invariant), make_invariant),
    SNF, SOLVE, KERNEL,
    (Kind("finf_extend", run_finf, check_finf), make_finf),
], trace_rounds=200, known_defect=snf_blowup, guard=SizeGuard())
