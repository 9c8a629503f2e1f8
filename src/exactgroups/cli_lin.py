"""Handlers of the CLI's `lin` commands, named in HANDLERS (see exactgroups.cli)."""

import exactgroups.lattice as lattice

from .matrix import PreconditionError
from .serialize import (_array, matrix_to_json, parse_int, parse_matrix, parse_vector,
                        scalar_to_str, vector_to_json)


def _cmd_lin_hnf(doc, opts):
    rows = [parse_vector(r) for r in _array(doc["rows"])]
    basis = lattice.hnf(rows, dim=parse_int(doc["dim"]) if "dim" in doc else None)
    index = basis.index()
    return {"basis": [vector_to_json(r) for r in basis.rows],
            "dim": basis.dim,
            "rank": basis.rank,
            "index": None if index is None else scalar_to_str(index)}


def _cmd_lin_snf(doc, opts):
    m = parse_matrix(doc)
    if not m.integral:
        raise PreconditionError("Smith normal form needs an integer matrix")
    U, D, V = lattice.snf(m)
    return {"U": matrix_to_json(U), "D": matrix_to_json(D), "V": matrix_to_json(V)}


def _cmd_lin_solve(doc, opts):
    m = parse_matrix(doc["matrix"])
    b = parse_vector(doc["b"])
    x = lattice.solve_integer(m, b)
    return {"solution": None if x is None else vector_to_json(x)}


HANDLERS = {"hnf": _cmd_lin_hnf, "snf": _cmd_lin_snf, "solve": _cmd_lin_solve}
