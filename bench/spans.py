"""Span tracing installed from outside the library, for the traced run.

`Tracer.install()` wraps the public callables of each layer module of
exactgroups at run time and `remove()` restores them; no source file is
touched.  Module functions are rebound in every ``exactgroups`` namespace that
holds them (so ``lattice.snf`` called from ``lattice.solve_integer`` and
``solve_integer`` imported into ``cocycle`` are both seen).  Methods of the
classes a layer defines are wrapped on the class.

Every call records one span: name, parent span, op id, start and end.  Spans
are appended to flat arrays in memory and written once, by `write()`, at the
end of the run.  A span's self time is its duration minus the durations of
its direct children.
"""

import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

from oracle import max_bits

LAYERS = ("matrix", "lattice", "sl2", "cocycle", "affine", "bruhat", "serialize", "cli")

# Operator methods wrapped besides public methods, with their span names.
OPERATORS = {
    "Matrix": {"__init__": "new", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow"},
    "AffineElement": {"__mul__": "element_mul"},
}

# Span names the per-layer metrics use, where they differ from the callable.
ALIASES = {
    "matrix.Matrix.inverse": "matrix.inverse",
    "matrix.Matrix.det": "matrix.det",
    "matrix.Matrix.apply": "matrix.apply",
    "affine.affine_automorphism": "affine.automorphism",
}


def span_name(layer, owner, attr):
    if layer == "serialize":
        return "serialize.parse" if attr.startswith("parse") else "serialize.emit"
    if owner in OPERATORS and attr in OPERATORS[owner]:
        return f"{layer}.{OPERATORS[owner][attr]}"
    full = f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"
    return ALIASES.get(full, full)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, after=None):
        nid = self._name_id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                result = after(tracer, args, result) or result
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "exactgroups" or n.startswith("exactgroups.")}
        for layer in LAYERS:
            mod = modules[f"exactgroups.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    name = span_name(layer, None, attr)
                    wrapped = self._wrap(name, obj, AFTER.get(name))
                    for other in modules.values():
                        if vars(other).get(attr) is obj:
                            setattr(other, attr, wrapped)
                            self._undo.append((other, attr, obj))

    def _wrap_class(self, layer, cls):
        ops = OPERATORS.get(cls.__name__, {})
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ops:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            name = span_name(layer, cls.__name__, attr)
            wrapped = self._wrap(name, fn, AFTER.get(name))
            setattr(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._undo.append((cls, attr, raw))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """{span name: (calls, self seconds)} over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls, self_s = {}, {}
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + dur[i] - child[i]
        return {k: (calls[k], self_s[k]) for k in calls}

    def write(self, path):
        """All spans as gzipped JSON: parallel arrays plus the name table."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {"names": self.names,
               "columns": ["name", "parent", "op", "start_us", "end_us"],
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "op": self.op.tolist(),
               "start_us": [round((x - t0) * 1e6, 1) for x in self.start],
               "end_us": [round((x - t0) * 1e6, 1) for x in self.end]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters recorded at the same boundaries ------------------------------

# A hook runs after its span has ended; a non-None return replaces the result.

def _after_inverse(tracer, args, result):
    # For an integer matrix, an integer inverse means det = +-1.
    if all(type(x) is int for row in args[0].data for x in row) and \
            all(type(x) is int for row in result.data for x in row):
        tracer.count("matrix.inverse.int_unimodular")


def _after_snf(tracer, args, result):
    bits = max_bits([m.data for m in result])
    tracer.counters["lattice.snf.max_bits"] = max(tracer.counters.get("lattice.snf.max_bits", 0), bits)


def _after_decompose(tracer, args, result):
    tracer.count("sl2.decompose_st.tokens", len(result.tokens))


def _after_cocycle_eval(tracer, args, result):
    tracer.count("cocycle.cocycle_eval.exp_total", sum(abs(e) for _, e in args[1]))


def _after_ball(tracer, args, result):
    tracer.count("affine.conj_class_ball.conjugates", result)


def _after_automorphism(tracer, args, result):
    # The returned map belongs to the same layer: trace its applications too.
    return tracer._wrap("affine.automorphism", result)


AFTER = {
    "matrix.inverse": _after_inverse,
    "lattice.snf": _after_snf,
    "sl2.decompose_st": _after_decompose,
    "cocycle.cocycle_eval": _after_cocycle_eval,
    "affine.conj_class_ball": _after_ball,
    "affine.automorphism": _after_automorphism,
}
