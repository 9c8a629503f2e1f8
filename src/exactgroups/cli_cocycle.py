"""Handlers of the CLI's `cocycle` commands, named in HANDLERS (see exactgroups.cli)."""

import exactgroups.cocycle as cocycle

from .serialize import (InputError, _array, parse_cocycle_spec, parse_index_word, parse_int,
                        parse_matrix, parse_scalar, parse_vector, vector_to_json)


def _cmd_cocycle_solve_coboundary(doc, opts):
    c_t = parse_vector(doc["c_t"], 2)
    c_s, witness = cocycle.solve_full_coboundary(c_t)
    return {"c_s": vector_to_json(c_s),
            "xi": vector_to_json(witness.xi),
            "integral": witness.integral}


def _cmd_cocycle_eval(doc, opts):
    spec = parse_cocycle_spec(doc["spec"])
    word = parse_index_word(doc["word"])
    return {"value": vector_to_json(cocycle.cocycle_eval(spec, word))}


def _cmd_cocycle_gamma1(doc, opts):
    g = parse_matrix(doc)
    return {"value": vector_to_json(cocycle.gamma1_cocycle(opts["level"], g))}


def _cmd_cocycle_obstruction(doc, opts):
    g = parse_matrix(doc)
    return {"integral": cocycle.gamma1_obstruction(opts["level"], g)}


def _cmd_cocycle_central(doc, opts):
    m, n = parse_int(doc["m"]), parse_int(doc["n"])
    g = parse_matrix(doc["matrix"])
    value = cocycle.central_cocycle(m, n, g)
    return {"value": None if value is None else vector_to_json(value),
            "case": cocycle.parity_domain(m, n).case_id,
            "accepted": value is not None}


def _cmd_cocycle_finf_extend(doc, opts):
    n = parse_int(doc["n"])
    values = {}
    for k, x, y in (_array(t, 3) for t in _array(doc["window"])):
        if (k := parse_int(k)) in values:   # keeping either lets their order decide
            raise InputError(f"window index {k} is repeated")
        values[k] = (parse_scalar(x), parse_scalar(y))
    u = cocycle.finf_extend(n, values, sorted(values))
    return {"u": None if u is None else vector_to_json(u)}


HANDLERS = {"solve-coboundary": _cmd_cocycle_solve_coboundary, "eval": _cmd_cocycle_eval,
            "gamma1": _cmd_cocycle_gamma1, "obstruction": _cmd_cocycle_obstruction,
            "central": _cmd_cocycle_central, "finf-extend": _cmd_cocycle_finf_extend}
