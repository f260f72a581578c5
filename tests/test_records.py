"""The record contract shared by every record class (homsensor.records)."""

import importlib
import math

import numpy as np
import pytest

from homsensor.cli import Table
from homsensor.continuum import QuadratureGrid
from homsensor.errors import StackDefinitionError
from homsensor.estimation import BudgetSource
from homsensor.materials import Material, MaterialTable, constant_material
from homsensor.quantum_stats import CoherentInput
from homsensor.records import Record, replace
from homsensor.tmm import (Layer, LayerStack, StackResponse,
                           make_sensor_stack, stack_response)

GLASS = constant_material("glass", 1.5)
GLASS_STACK = LayerStack((Layer(GLASS), Layer(GLASS, 10.0), Layer(GLASS)),
                         sample_layer=1, sample_n=1.33)
SOURCE = BudgetSource("angle", "incidence_angle", 0.01, "deg")

# class -> a valid instance; the flag says whether its fields hash
RECORDS = {
    Layer: (lambda: Layer(GLASS, 2.0), True),
    LayerStack: (lambda: GLASS_STACK, True),
    StackResponse: (lambda: stack_response(GLASS_STACK, 800.0, 70.0, 1.33),
                    True),
    Material: (lambda: GLASS, True),
    MaterialTable: (lambda: MaterialTable([700.0, 900.0], [0.2, 0.3],
                                          [5.0, 6.0]), False),
    CoherentInput: (lambda: CoherentInput(2.0, 0.5, 0.1), True),
    BudgetSource: (lambda: SOURCE, True),
    QuadratureGrid: (lambda: QuadratureGrid(np.ones(3), np.ones(3), False),
                     False),
    Table: (lambda: Table("x.csv", ("a", "b"), ((1, 2), (3, 4)), "a, b"),
            True),
}


def _fields(record):
    return {name: getattr(record, name) for name in type(record)._fields}


def test_every_record_class_is_covered():
    """Each Record subclass in the package has an instance above."""
    for module in ("cli", "continuum", "estimation", "materials",
                   "quantum_stats", "tmm"):
        importlib.import_module("homsensor." + module)
    assert len(RECORDS) == 9
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = RECORDS[cls][0]()
    for name, value in _fields(record).items():
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_compare_and_hash_equal(cls):
    build, hashable = RECORDS[cls]
    record = build()
    copy = cls(**_fields(record))
    assert copy is not record and copy == record and not copy != record
    assert record != _fields(record)
    if hashable:
        assert hash(copy) == hash(record)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_differing_fields_compare_unequal():
    assert Layer(GLASS, 1.0) != Layer(GLASS, 2.0)
    assert CoherentInput() != CoherentInput(phi_ab=0.0)
    assert CoherentInput() == CoherentInput()


def _table(n=(0.2, 0.3)):
    """A MaterialTable built from lists, new arrays on every call."""
    return MaterialTable([700.0, 900.0][:len(n)] + [1000.0] * (len(n) - 2),
                         list(n), [5.0] * len(n))


def test_array_fields_compare_by_value():
    """Records with equal but distinct ndarray fields are equal, and ==
    gives a bool also for arrays of different lengths, also nested."""
    a, b = _table(), _table()
    assert a.n is not b.n
    assert (a == b) is True and (a != b) is False
    assert (a == _table((0.2, 0.4))) is False
    assert (a == _table((0.2, 0.3, 0.4))) is False
    assert (a != _table((0.2, 0.3, 0.4))) is True

    def sensor(table):
        gold = Material("Au", table=table)
        return Layer(gold, 20.0), LayerStack(
            (Layer(GLASS), Layer(gold, 20.0), Layer(GLASS)), sample_layer=1)

    for same, other in zip((Material("Au", table=a), *sensor(a)),
                           (Material("Au", table=b), *sensor(b))):
        assert same == other
    for same, other in zip((Material("Au", table=a), *sensor(a)),
                           (Material("Au", table=_table((0.2, 0.3, 0.4))),
                            *sensor(_table((0.2, 0.3, 0.4))))):
        assert (same == other) is False


def test_repr_keeps_the_field_format():
    assert repr(Layer(GLASS, 2.0)) == (
        "Layer(material=Material(name='glass', table=None, "
        "constant=(1.5+0j)), thickness_nm=2.0)")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_bad_arguments_raise_type_error(cls):
    fields = _fields(RECORDS[cls][0]())
    first = next(iter(fields))
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match="multiple values for argument %r"
                       % (first,)):
        cls(fields[first], **fields)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*fields.values(), None)
    required = [name for name in fields if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError, match="missing required argument"):
            cls()


def test_defaults_fill_omitted_fields():
    assert Layer(GLASS).thickness_nm is None
    source = BudgetSource("a", "prism_index", 1.0, "RIU")
    assert source.divisor == 1.0 and math.isnan(source.reference_c)
    assert Table("x.csv", (), (), "").notes == ()


def test_post_init_validates_and_normalizes():
    with pytest.raises(StackDefinitionError, match="at least two layers"):
        LayerStack([Layer(GLASS)])
    stack = LayerStack([Layer(GLASS), Layer(GLASS)])
    assert type(stack.layers) is tuple
    assert Material("c", constant=2).constant == 2 + 0j


def test_replace_validates_again():
    stack = make_sensor_stack()
    with pytest.raises(StackDefinitionError, match="interior layer 1"):
        stack.with_thickness({1: -1.0})
    with pytest.raises(StackDefinitionError, match="interior layer 2"):
        replace(stack, layers=stack.layers[:2] + (Layer(GLASS),)
                + stack.layers[3:])
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        replace(stack, bogus=1)
    thinner = stack.with_thickness({2: 400.0})
    assert thinner.layers[2].thickness_nm == 400.0
    assert stack.layers[2].thickness_nm == 500.0
    assert replace(stack) == stack
