"""The package's value classes: slotted `matrix.Record` subclasses that keep
the construction, equality, hashing, repr and immutability of the frozen
dataclasses they replaced."""

import copy
import pickle
from fractions import Fraction

import pytest

from exactgroups.affine import (AffineElement, Check, ClassificationReport,
                                CyclicLinear, FullLatticeSemidirect,
                                GraphSubgroup)
from exactgroups.bruhat import BruhatFactorization
from exactgroups.cocycle import CoboundaryWitness, CocycleSpec, ParityCase
from exactgroups.lattice import LatticeBasis
from exactgroups.matrix import Matrix, PreconditionError, Record, ShapeError
from exactgroups.sl2 import CongruenceKind, GenWord, Sl2Class

I2 = Matrix.identity(2)
T = Matrix([[1, 1], [0, 1]])
I3 = Matrix.identity(3)


def _spec():
    return CocycleSpec((T,), ((1, 0),), (((0, 1), (0, -1)),))


# class -> (field names in order, a value for each, defaults of the trailing
# fields).  Values are built fresh on each call, so equality is by value.
CASES = {
    AffineElement: (("translation", "linear"), lambda: ((1, 0), T), {}),
    FullLatticeSemidirect: (("lattice", "linear_gens"),
                            lambda: (LatticeBasis(2, ((1, 0), (0, 2))), (T,)), {}),
    GraphSubgroup: (("spec",), lambda: (_spec(),), {}),
    CyclicLinear: (("g", "with_minus_identity"), lambda: (T, False),
                   {"with_minus_identity": True}),
    Check: (("name", "verdict", "evidence"), lambda: ("icc", "pass", {"trace": 3}), {}),
    ClassificationReport: (("case", "checks"),
                           lambda: ("case1", (Check("icc", "pass", {}),)), {}),
    BruhatFactorization: (("A", "sigma", "B"), lambda: (I3, "id", I3), {}),
    CocycleSpec: (("generators", "values", "relators"),
                  lambda: ((T,), ((1, 0),), (((0, 2),),)), {"relators": ()}),
    CoboundaryWitness: (("xi", "integral"), lambda: ((1, 0), True), {"integral": True}),
    ParityCase: (("case_id", "description"), lambda: (2, "g11 odd"), {}),
    LatticeBasis: (("dim", "rows"), lambda: (2, ((1, 0), (0, 2))), {}),
    GenWord: (("tokens", "central"), lambda: ((("S", 1), ("T", -2)), 1), {"central": 0}),
    Sl2Class: (("kind", "order", "sign"), lambda: ("elliptic", 4, None),
               {"order": None, "sign": None}),
    CongruenceKind: (("family", "level"), lambda: ("gamma1", 5), {}),
}

# Fields that hold a dict make the value unhashable, as with the dataclasses.
UNHASHABLE = {Check, ClassificationReport}

params = pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)


def test_fourteen_record_classes():
    assert len(CASES) == 14
    assert all(issubclass(cls, Record) for cls in CASES)


@params
def test_fields_are_slots_in_order(cls):
    fields, make, _ = CASES[cls]
    assert cls.__slots__ == fields
    obj = cls(*make())
    assert not hasattr(obj, "__dict__")
    assert tuple(getattr(obj, f) for f in fields) == make()


@params
def test_positional_and_keyword_construction(cls):
    fields, make, defaults = CASES[cls]
    values = make()
    assert cls(*values) == cls(**dict(zip(fields, values)))
    # Trailing fields with defaults may be left out, by position or name.
    required = fields[:len(fields) - len(defaults)]
    short = cls(*values[:len(required)])
    assert short == cls(**dict(zip(required, values)))
    assert {f: getattr(short, f) for f in defaults} == defaults


@params
def test_equality_and_hash_by_value(cls):
    _, make, _ = CASES[cls]
    a, b = cls(*make()), cls(*make())
    assert a is not b and a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@params
def test_inequality_across_classes(cls):
    _, make, _ = CASES[cls]
    obj = cls(*make())
    assert obj != make() and obj != list(make())
    for other in CASES:
        if other is not cls:
            assert obj != other(*CASES[other][1]())


def test_same_values_in_another_class_unequal():
    a, b = ParityCase((1, 0), True), CoboundaryWitness((1, 0), True)
    assert (a.case_id, a.description) == (b.xi, b.integral)
    assert a != b and b != a


@params
def test_immutable(cls):
    fields, make, _ = CASES[cls]
    obj = cls(*make())
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == cls(*make())


@params
def test_construction_errors(cls):
    fields, make, defaults = CASES[cls]
    values = make()
    required = fields[:len(fields) - len(defaults)]
    with pytest.raises(TypeError):   # a required field missing, by position
        cls(*values[:len(required) - 1])
    with pytest.raises(TypeError):   # the first field missing, by name
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):   # an unknown name
        cls(*values, extra=None)
    with pytest.raises(TypeError):   # a field given by position and by name
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):   # more values than fields
        cls(*values, None)


def test_only_checking_classes_define_init():
    records = set(Record.__subclasses__())
    assert records == set(CASES) | {Matrix}
    assert {cls for cls in records if "__init__" in vars(cls)} == {
        AffineElement, CoboundaryWitness, CocycleSpec, CongruenceKind, LatticeBasis, Matrix}


def test_matrix_slots_cannot_be_deleted():
    m = Matrix([[1, 2], [3, 4]])
    for name in ("rows", "cols", "data"):
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert (m.rows, m.cols, m.data) == (2, 2, ((1, 2), (3, 4)))


@params
def test_repr_is_dataclass_format(cls):
    fields, make, _ = CASES[cls]
    values = make()
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({inner})"


def test_repr_examples():
    assert repr(LatticeBasis(2, ((1, 0),))) == "LatticeBasis(dim=2, rows=((1, 0),))"
    assert repr(Sl2Class("hyperbolic")) == "Sl2Class(kind='hyperbolic', order=None, sign=None)"
    assert repr(GenWord((("T", 3),))) == "GenWord(tokens=(('T', 3),), central=0)"
    assert (repr(AffineElement((0, 1), I2))
            == "AffineElement(translation=(0, 1), linear=Matrix([[1, 0], [0, 1]]))")


@params
def test_copy_and_pickle(cls):
    _, make, _ = CASES[cls]
    obj = cls(*make())
    clone = copy.copy(obj)
    assert type(clone) is cls and clone == obj
    for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj


def test_matrix_copy_and_pickle():
    m = Matrix([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(clone) is Matrix and clone == m and repr(clone) == repr(m)
        assert (clone.rows, clone.cols) == (2, 2) and hash(clone) == hash(m)
        with pytest.raises(AttributeError, match="Matrix is immutable"):
            clone.data = ()


def test_affine_element_refuses_shape_mismatch():
    for a, g in (((1, 0, 0), I2), ((1, 0), Matrix([[1, 0, 0], [0, 1, 0]]))):
        with pytest.raises(ShapeError, match="^translation and linear part dimensions disagree$"):
            AffineElement(a, g)
        with pytest.raises(ShapeError, match="^translation and linear part dimensions disagree$"):
            AffineElement(translation=a, linear=g)


def test_affine_element_translation_is_canonical():
    # Sequence fields are stored as tuples, translations and cocycle values
    # with normalized entries, whatever sequence they were given as; equal
    # reprs mean no list and no Fraction(4, 2) is left anywhere.
    for from_list, from_tuple in (
            (AffineElement([1, 2], I2), AffineElement((1, 2), I2)),
            (AffineElement((Fraction(4, 2), 1), I2), AffineElement((2, 1), I2)),
            (LatticeBasis(2, [[1, 0], [0, 1]]), LatticeBasis(2, ((1, 0), (0, 1)))),
            (CocycleSpec([I2], [[Fraction(4, 2), 0]], [[[0, 1], [0, -1]]]),
             CocycleSpec((I2,), ((2, 0),), (((0, 1), (0, -1)),)))):
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert repr(from_list) == repr(from_tuple)
    # A bool is refused, not kept as a translation entry.
    with pytest.raises(TypeError, match="^matrix entries must be int or Fraction"):
        AffineElement((True, 0), I2)


def test_coboundary_witness_reads_its_flag():
    # The flag is read from xi; a flag given that disagrees, or an xi not in
    # Q^2, is refused.
    half = Fraction(1, 2)
    assert CoboundaryWitness([Fraction(4, 2), 0]) == CoboundaryWitness((2, 0), True)
    assert not CoboundaryWitness((half, 1)).integral
    for xi, flag in (((1, 0), False), ((half, 0), True)):
        with pytest.raises(PreconditionError, match="integral$"):
            CoboundaryWitness(xi, flag)
    with pytest.raises(ShapeError, match="^witness must have two entries$"):
        CoboundaryWitness((1, 0, 0))


def test_lattice_basis_refuses_row_of_wrong_length():
    with pytest.raises(ShapeError, match="^basis rows must have length dim$"):
        LatticeBasis(3, ((1, 0),))


def test_cocycle_spec_refusals():
    with pytest.raises(PreconditionError, match="^generator and value lists differ in length$"):
        CocycleSpec((T,), ())
    with pytest.raises(PreconditionError,
                       match="^expected an integer 2x2 matrix of determinant 1$"):
        CocycleSpec(generators=(Matrix([[2, 0], [0, 1]]),), values=((0, 0),))


def test_congruence_kind_refusals():
    with pytest.raises(PreconditionError, match="^unknown congruence family 'gamma2'$"):
        CongruenceKind("gamma2", 3)
    for level in (0, -4):
        with pytest.raises(PreconditionError, match="^level must be >= 1$"):
            CongruenceKind(family="gamma", level=level)
