"""Material tables: reading, interpolation, windows."""

import json
import math
import pathlib

import numpy as np
import pytest

from homsensor import materials
from homsensor.errors import (MaterialDataError, WavelengthRangeError,
                              package_data)
from homsensor.materials import (
    Material, MaterialTable, constant_material, gold_jc, table_from_dict,
)

GOLD_FILE = pathlib.Path(package_data("gold_johnson_christy_1972.json"))
WELL_FORMED = {"wavelength_nm": [400.0, 500.0, 600.0],
               "n": [1.0, 1.1, 1.2], "k": [0.5, 0.6, 0.7]}


def test_parse_three_rows():
    table = table_from_dict(WELL_FORMED, "demo", "table", MaterialDataError)
    assert table.wavelength_nm.size == 3
    assert table.name == "demo"


def test_unsorted_rows_rejected():
    bad = {"wavelength_nm": [500, 400, 600], "n": [1, 1, 1], "k": [0, 0, 0]}
    with pytest.raises(MaterialDataError):
        table_from_dict(bad, "bad", "table", MaterialDataError)


def test_gold_table_row_count_matches_file():
    table = json.loads(GOLD_FILE.read_text(encoding="utf-8"))["table"]
    assert [len(table[key]) for key in ("wavelength_nm", "n", "k")] \
        == [gold_jc().table.wavelength_nm.size] * 3 == [49] * 3


@pytest.mark.parametrize("change, names", [
    (lambda t: {**t, "n": ["1.28"] + t["n"][1:]},
     "table.n must be a number, got '1.28'"),
    (lambda t: {"wavelength_nm": t["wavelength_nm"], "n": t["n"]},
     "missing key 'k'"),
], ids=["string_n", "missing_k"])
def test_bad_gold_file_names_it(tmp_path, monkeypatch, change, names):
    """A packaged gold file that fails the table checks raises
    MaterialDataError naming the file and the bad or missing key."""
    data = json.loads(GOLD_FILE.read_text(encoding="utf-8"))
    data["table"] = change(data["table"])
    path = tmp_path / "gold.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setattr(materials, "package_data", lambda name: str(path))
    monkeypatch.setattr(materials, "_gold_cache", [])
    with pytest.raises(MaterialDataError) as info:
        materials.gold_jc()
    assert str(info.value) == "material table file %s: %s" % (path, names)


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


def test_constant_material_holds_an_array_index():
    """An array constant is kept as a complex array and returned as it is,
    whatever the wavelengths' shape; a scalar stays one complex."""
    prism = constant_material("prism", [1.5, 1.51 + 0.01j])
    assert prism.constant.dtype == complex
    for lam in (800.0, np.full((3, 1), 650.0)):
        assert prism.index(lam) is prism.constant
    assert type(constant_material("prism", np.float64(1.5)).constant) \
        is complex


# id: (array constant, the message of the scalar rule it breaks)
BAD_ARRAY_CONSTANTS = {
    "nan": ([1.5, math.nan], "constant index must be finite"),
    "inf_imag": ([1.5, complex(1.5, math.inf)],
                 "constant index must be finite"),
    "zero_real": ([[1.5], [0.0]], r"Re\(n\) must be positive"),
    "negative_real": ([1.5, -1.5], r"Re\(n\) must be positive"),
    "gain": ([1.5, 1.5 - 1e-3j], r"Im\(n\) must be >= 0 \(passive medium\)"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARRAY_CONSTANTS))
def test_array_constant_checks_every_element(case):
    values, message = BAD_ARRAY_CONSTANTS[case]
    with pytest.raises(MaterialDataError, match="material 'm': " + message):
        constant_material("m", np.array(values))


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
                 table=table_from_dict(WELL_FORMED, "both", "table",
                                       MaterialDataError))


def test_gold_cached():
    assert gold_jc() is gold_jc()
