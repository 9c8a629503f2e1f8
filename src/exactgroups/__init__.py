"""Exact-arithmetic toolkit for matrix groups over Z and Q.

Subpackages cover: exact integer/rational linear algebra with Hermite and
Smith normal forms, SL2(Z) element machinery and congruence subgroups,
Z^2-valued 1-cocycles and coboundary solvers, the affine groups
Z^n x| SL_n(Z) with ICC and invariant-lattice analysis, and the Bruhat
decomposition of invertible 3x3 rational matrices.

`import exactgroups` loads only `matrix`; the names re-exported from
`lattice` import it on first use (PEP 562), so a CLI call that needs no
lattice never compiles it.
"""

__version__ = "0.1.0"

from .matrix import ExactError, Matrix, PreconditionError, ShapeError

_LATTICE_NAMES = frozenset({"LatticeBasis", "fixed_sublattice", "hnf", "snf", "solve_integer"})

__all__ = [
    "ExactError",
    "LatticeBasis",
    "Matrix",
    "PreconditionError",
    "ShapeError",
    "__version__",
    "fixed_sublattice",
    "hnf",
    "snf",
    "solve_integer",
]


def __getattr__(name):
    if name in _LATTICE_NAMES:
        from . import lattice
        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
