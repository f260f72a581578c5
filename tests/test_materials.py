"""Material tables: parsing, interpolation, windows."""

import numpy as np
import pytest

from homsensor.errors import MaterialDataError, WavelengthRangeError
from homsensor.materials import (
    Material, MaterialTable, constant_material, gold_jc, parse_material_csv,
)

WELL_FORMED = """wavelength_nm,n,k
400.0,1.0,0.5
500.0,1.1,0.6
600.0,1.2,0.7
"""


def test_parse_three_rows():
    table = parse_material_csv(WELL_FORMED, name="demo")
    assert table.wavelength_nm.size == 3
    assert table.name == "demo"


def test_unsorted_rows_rejected():
    bad = "wavelength_nm,n,k\n500,1,0\n400,1,0\n600,1,0\n"
    with pytest.raises(MaterialDataError):
        parse_material_csv(bad)


def test_gold_table_row_count_matches_file():
    import importlib.resources as resources
    text = (resources.files("homsensor") / "data"
            / "gold_johnson_christy_1972.csv").read_text()
    data_rows = [ln for ln in text.splitlines()
                 if ln.strip() and not ln.startswith("#")
                 and not ln.startswith("wavelength")]
    assert gold_jc().table.wavelength_nm.size == len(data_rows)


def test_constant_material_any_wavelength():
    prism = constant_material("prism", 1.5)
    assert prism.index(123.4) == 1.5 + 0.0j
    assert prism.index(98765.0) == 1.5 + 0.0j


def test_constant_material_index_is_one_scalar():
    """A constant medium's index is its constant for a scalar and for an
    array of wavelengths: one value that broadcasts, not one per node."""
    prism = constant_material("prism", 1.5 + 0.01j)
    for lam in (800.0, np.linspace(700.0, 900.0, 201),
                np.full((3, 4), 650.0)):
        n = prism.index(lam)
        assert type(n) is complex and n == prism.constant


def test_interpolation_at_knot_is_exact(gold):
    table = gold.table
    for i in (0, 7, 23, table.wavelength_nm.size - 1):
        lam = float(table.wavelength_nm[i])
        val = table.index(lam)
        assert val.real == pytest.approx(table.n[i], abs=0.0)
        assert val.imag == pytest.approx(table.k[i], abs=0.0)


def test_linear_midpoint():
    table = MaterialTable(wavelength_nm=np.array([800.0, 820.0]),
                          n=np.array([0.10, 0.20]),
                          k=np.array([5.0, 5.2]), name="two-knot")
    assert table.index(810.0) == pytest.approx(0.15 + 5.1j, abs=1e-15)


def test_out_of_window_rejected(gold):
    lo, hi = gold.wavelength_window_nm()
    with pytest.raises(WavelengthRangeError):
        gold.index(lo - 1.0)
    with pytest.raises(WavelengthRangeError):
        gold.index(hi + 1.0)


def test_no_negative_extinction():
    with pytest.raises(MaterialDataError):
        MaterialTable(wavelength_nm=np.array([400.0, 500.0]),
                      n=np.array([1.0, 1.0]), k=np.array([0.0, -0.1]))


def test_passivity_over_window(gold):
    lo, hi = gold.wavelength_window_nm()
    lam = np.linspace(lo, hi, 500)
    assert np.all(np.asarray(gold.index(lam)).imag >= 0.0)


def test_piecewise_linearity_between_knots(gold):
    table = gold.table
    a, b = float(table.wavelength_nm[10]), float(table.wavelength_nm[11])
    mid = 0.5 * (a + b)
    expect = 0.5 * (table.index(a) + table.index(b))
    assert table.index(mid) == pytest.approx(expect, abs=1e-12)


def test_material_requires_exactly_one_source():
    with pytest.raises(MaterialDataError):
        Material(name="neither")
    with pytest.raises(MaterialDataError):
        Material(name="both", constant=1.5,
                 table=parse_material_csv(WELL_FORMED))


def test_gold_cached():
    assert gold_jc() is gold_jc()
