"""Handlers of the CLI's `affine` commands, named in HANDLERS (see exactgroups.cli)."""

import exactgroups.affine as affine

from .matrix import Matrix, PreconditionError, _letters, _walk
from .serialize import (InputError, _array, parse_cocycle_spec, parse_int, parse_matrix,
                        parse_object, parse_vector, scalar_to_str, vector_to_json)

# Bound on the conjugates an `affine ball` may visit, as a count of reduced
# words (each conjugate comes from one): radius <= 10 for two generators,
# about a second of work.
BALL_WORD_CAP = 120_000
# Most samples `affine aut-check` may check for a 2x2 L: about a second of
# work (--count 5000: 1.1 s in a CLI process).  A sample costs about n^3 for
# an n x n L, so max(count, 1) * n^2 may not pass 4 * AUT_SAMPLE_CAP: 12
# samples at n = 40, and an L past 141 x 141 is refused outright.
AUT_SAMPLE_CAP = 5_000


def _parse_affine(doc):
    doc = parse_object(doc)
    return affine.AffineElement(parse_vector(doc["translation"]), parse_matrix(doc["matrix"]))


def _cmd_affine_icc(doc, opts):
    g = parse_matrix(doc)
    return {"icc": affine.icc_affine_cyclic(g), "trace": scalar_to_str(g.trace())}


def _cmd_affine_ball(doc, opts):
    x = _parse_affine(doc["element"])
    gens = [_parse_affine(g) for g in _array(doc["generators"])]
    if _reduced_words(len(gens), opts["radius"]) > BALL_WORD_CAP:
        raise PreconditionError(f"radius too large: more than {BALL_WORD_CAP} "
                                f"reduced words over {len(gens)} generators")
    return {"count": str(affine.conj_class_ball(x, gens, opts["radius"]))}


def _reduced_words(k, radius):
    """Reduced words of length <= radius over k generators and their
    inverses: 1 + 2kr for k <= 1, else 1 + 2k((2k-1)^r - 1)/(2k-2) with r
    clamped to 32, where any k >= 2 has over 3 * 10^15, far past the cap.  A
    negative radius counts as 0, so it reaches conj_class_ball's refusal."""
    r = max(radius, 0)
    if k <= 1:
        return 1 + 2 * k * r
    return 1 + 2 * k * ((2 * k - 1) ** min(r, 32) - 1) // (2 * k - 2)


def _cmd_affine_lattice(doc, opts):
    gens = [parse_matrix(m) for m in _array(doc["generators"])]
    seeds = [parse_vector(v) for v in _array(doc["seeds"])]
    basis, index = affine.invariant_lattice(gens, seeds)
    return {"basis": [vector_to_json(r) for r in basis.rows],
            "dim": basis.dim,
            "index": None if index is None else scalar_to_str(index)}


def _cmd_affine_aut_check(doc, opts):
    import exactgroups.prng as prng
    import exactgroups.sl2 as sl2
    L = parse_matrix(doc["L"])
    xi = parse_vector(doc["xi"])
    if opts["count"] < 0:
        raise PreconditionError("count must be >= 0")
    bound = 4 * AUT_SAMPLE_CAP // max(L.rows, 2) ** 2
    if max(opts["count"], 1) > bound:
        raise PreconditionError(f"count too large: more than {bound} samples")
    phi = affine.affine_automorphism(L, xi)
    rng = prng.SplitMix64(opts["seed"])
    n = L.rows
    letters = _letters((sl2.S, sl2.T))
    checked = 0
    for _ in range(opts["count"]):
        x = _random_affine(rng, n, letters)
        y = _random_affine(rng, n, letters)
        if phi(x * y) != phi(x) * phi(y):
            return {"homomorphism": False, "samples": checked}
        checked += 1
    return {"homomorphism": True, "samples": checked}


def _random_affine(rng, n, letters):
    """(a, g): a drawn from [-5, 5]^n, then for n = 2 a `_walk` of six of the
    `letters` S, S^-1, T, T^-1 (for other n, g = I)."""
    a = tuple(rng.int_in(-5, 5) for _ in range(n))
    g = _walk(letters, rng, 6) if n == 2 else Matrix.identity(n).num
    return affine.AffineElement._trusted(a, g)


def _cmd_affine_classify(doc, opts):
    kind = doc.get("kind")
    if kind == "full_lattice":
        import exactgroups.lattice as lattice
        spec = parse_object(doc["lattice"])
        basis = lattice.hnf([parse_vector(r) for r in _array(spec["rows"])],
                            dim=parse_int(spec["dim"]))
        d = affine.FullLatticeSemidirect(
            basis, tuple(parse_matrix(m) for m in _array(doc["generators"])))
    elif kind == "graph":
        d = affine.GraphSubgroup(parse_cocycle_spec(doc["spec"]))
    elif kind == "cyclic_linear":
        flag = doc.get("with_minus_identity", True)
        if type(flag) is not bool:
            raise InputError("with_minus_identity must be true or false")
        d = affine.CyclicLinear(parse_matrix(doc["matrix"]), flag)
    else:
        raise InputError(f"unknown descriptor kind {kind!r}")
    report = affine.classify_subgroup(d)
    return {"case": report.case,
            "checks": [{"name": c.name, "verdict": c.verdict,
                        "evidence": _json_safe(c.evidence)}
                       for c in report.checks]}


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, str):
        return obj
    return scalar_to_str(obj)


HANDLERS = {"icc": _cmd_affine_icc, "ball": _cmd_affine_ball, "lattice": _cmd_affine_lattice,
            "aut-check": _cmd_affine_aut_check, "classify": _cmd_affine_classify}
