"""Handlers of the CLI's `bruhat` commands, named in HANDLERS (see exactgroups.cli)."""

import itertools

import exactgroups.bruhat as bruhat

from .matrix import Matrix, PreconditionError
from .serialize import matrix_to_json, parse_matrix, scalar_to_str

# Most cases `bruhat fact-check` may check: --count for facts 1 and 2, and
# |diag|^3 |off|^3 grid matrices for facts 3 and 4 (--grid 2: 74,088).
FACT_CASE_CAP = 100_000


def _cmd_bruhat_decompose(doc, opts):
    g = parse_matrix(doc)
    fac = bruhat.bruhat_decompose(g)
    return {"sigma": fac.sigma,
            "A": matrix_to_json(fac.A),
            "B": matrix_to_json(fac.B),
            "det_a": _det_text(fac.A),
            "det_b": _det_text(fac.B)}


def _det_text(m):
    """det m as text, read from the pair: det num over lam^n, no Fraction made."""
    return scalar_to_str(Matrix._of(m.num).det(), m.lam ** m.rows)


def _cmd_bruhat_cell(doc, opts):
    g = parse_matrix(doc)
    return {"sigma": bruhat.cell_of(g)}


def _cmd_bruhat_fact_check(doc, opts):
    for flag in ("count", "grid"):
        if opts[flag] < 0:
            raise PreconditionError(f"{flag} must be >= 0")
    fact, b = opts["fact"], opts["grid"]
    if fact in (1, 2):
        if opts["count"] > FACT_CASE_CAP:
            raise PreconditionError(f"count too large: more than {FACT_CASE_CAP} cases")
        holds = bruhat.fact_check(fact, seed=opts["seed"], count=opts["count"])
        return {"fact": fact, "holds": holds, "cases": opts["count"]}
    # The grid holds the integers -b..b, so a large b is refused before the
    # O(b^2) grid is built; then the case count is exact.
    too_many = PreconditionError(f"grid too large: more than {FACT_CASE_CAP} cases")
    if (2 * b) ** 3 * (2 * b + 1) ** 3 > FACT_CASE_CAP:
        raise too_many
    diag = bruhat.grid_rationals(b, nonzero=True)
    off = bruhat.grid_rationals(b)
    if len(diag) ** 3 * len(off) ** 3 > FACT_CASE_CAP:
        raise too_many
    cases = 0
    for d1, d2, d3, u12, u13, u23 in itertools.product(diag, diag, diag, off, off, off):
        g = Matrix([[d1, u12, u13], [0, d2, u23], [0, 0, d3]])
        if not bruhat.fact_check(fact, g):
            return {"fact": fact, "holds": False, "cases": cases,
                    "counterexample": matrix_to_json(g)}
        cases += 1
    return {"fact": fact, "holds": True, "cases": cases}


HANDLERS = {"decompose": _cmd_bruhat_decompose, "cell": _cmd_bruhat_cell,
            "fact-check": _cmd_bruhat_fact_check}
