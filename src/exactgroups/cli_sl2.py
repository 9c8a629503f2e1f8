"""Handlers of the CLI's `sl2` commands, named in HANDLERS (see exactgroups.cli)."""

import exactgroups.sl2 as sl2

from .matrix import PreconditionError
from .serialize import parse_matrix, scalar_to_str, word_to_json

# Most letters `sl2 decompose --alphabet st` may expand T^e into (2|e| each).
ST_WORD_CAP = 1_000_000


def _cmd_sl2_classify(doc, opts):
    g = parse_matrix(doc)
    cls = sl2.classify_sl2(g)
    return {"class": cls.kind,
            "order": None if cls.order is None else str(cls.order),
            "sign": None if cls.sign is None else str(cls.sign),
            "trace": scalar_to_str(g.trace())}


def _cmd_sl2_decompose(doc, opts):
    g = parse_matrix(doc)
    word = sl2.decompose_st(g)
    if opts["alphabet"] == "st":
        letters = 2 * sum(abs(e) for gen, e in word.tokens if gen == "T")
        if letters > ST_WORD_CAP:
            raise PreconditionError(f"st word too long: {letters} letters, "
                                    f"more than {ST_WORD_CAP}")
        word = sl2.to_st_word(word)
    return word_to_json(word)


def _cmd_sl2_congruence(doc, opts):
    g = parse_matrix(doc)
    kind = sl2.CongruenceKind(opts["family"], opts["level"])
    return {"member": sl2.congruence_membership(kind, g)}


HANDLERS = {"classify": _cmd_sl2_classify, "decompose": _cmd_sl2_decompose,
            "congruence": _cmd_sl2_congruence}
