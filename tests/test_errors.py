"""The one reader of JSON objects and files and the one refusal of an
array's first bad cell (homsensor.errors)."""

import json

import numpy as np
import pytest

from homsensor.errors import (CalibrationError, ConfigError,
                              StackDefinitionError, UnphysicalPointError,
                              as_number, first_bad, read_fields, read_file)


def _number(value, name):
    return as_number(value, name, ConfigError)


SCHEMA = {"start": (..., _number), "step": (0.5, _number)}


def test_fields_fill_defaults_in_schema_order():
    fields = read_fields({"start": 2}, SCHEMA, "grid", ConfigError)
    assert list(fields.items()) == [("start", 2.0), ("step", 0.5)]


def test_default_passes_through_coerce():
    seen = []
    read_fields({}, {"k": (7, lambda value, name: seen.append((value, name)))},
                "obj", ConfigError)
    assert seen == [(7, "k")]


def test_unknown_key_refused():
    with pytest.raises(ConfigError, match=r"^unknown grid keys: \['stop'\] "
                       r"\(accepted: \['start', 'step'\]\)$"):
        read_fields({"start": 1, "stop": 2}, SCHEMA, "grid", ConfigError)


def test_non_object_refused():
    with pytest.raises(StackDefinitionError,
                       match="^grid must be a JSON object, got list$"):
        read_fields([1], SCHEMA, "grid", StackDefinitionError)


def test_missing_required_key_named_with_its_object_path():
    with pytest.raises(ConfigError,
                       match=r"^layers\[2\]: missing key 'start'$"):
        read_fields({"step": 1}, SCHEMA, "layers[2]", ConfigError)


def test_coerce_gets_the_dotted_name():
    with pytest.raises(ConfigError, match=r"^grid\.step must be a number, "
                       r"got '1'$"):
        read_fields({"start": 1, "step": "1"}, SCHEMA, "g", ConfigError,
                    "grid.")


def test_file_prefix_names_the_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"step": 1}), encoding="utf-8")
    with pytest.raises(StackDefinitionError) as info:
        read_file(path, "grid file", StackDefinitionError,
                  lambda data: read_fields(data, SCHEMA, "grid",
                                           ConfigError))
    assert str(info.value) == "grid file %s: grid: missing key 'start'" % path


def test_file_reader_returns_what_read_makes(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"start": 1}), encoding="utf-8")
    assert read_file(path, "grid file", ConfigError,
                     lambda data: read_fields(data, SCHEMA, "grid",
                                              ConfigError)) \
        == {"start": 1.0, "step": 0.5}


def test_file_reader_leaves_other_errors_alone(tmp_path):
    """Only the package's errors gain the file prefix; a bug in read
    surfaces as itself."""
    path = tmp_path / "grid.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(KeyError):
        read_file(path, "grid file", ConfigError, lambda data: data["start"])


def test_invalid_json_names_the_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match="^grid file .* is not valid UTF-8 JSON"):
        read_file(path, "grid file", ConfigError, lambda data: data)


def test_clean_mask_raises_nothing():
    assert first_bad(np.zeros((2, 3), dtype=bool), ConfigError,
                     "got %r", np.ones((2, 3))) is None


def test_scalar_mask_has_no_grid_index():
    with pytest.raises(ConfigError, match=r"^got -2\.5 nm$"):
        first_bad(np.float64(-2.5) < 0.0, ConfigError, "got %r nm", -2.5)


def test_grid_mask_names_its_first_cell_in_c_order():
    """The first True cell in C order, (0, 2) before (1, 0), names the
    index and its values; a scalar and a lower-rank array are broadcast
    to the mask first."""
    bad = np.array([[False, False, True], [True, False, False]])
    cell = np.arange(6.0).reshape(2, 3)
    with pytest.raises(ConfigError) as info:
        first_bad(bad, ConfigError, "cell %r, layer %d of %r, column %r",
                  cell, 4, "film", np.array([10.0, 20.0, 30.0]))
    assert str(info.value) \
        == "cell 2.0, layer 4 of 'film', column 30.0 at grid index (0, 2)"


@pytest.mark.parametrize("error", [ConfigError, StackDefinitionError,
                                   UnphysicalPointError, CalibrationError])
def test_first_bad_raises_the_callers_class(error):
    with pytest.raises(error) as info:
        first_bad([False, True], error, "bad")
    assert type(info.value) is error
    assert str(info.value) == "bad at grid index (1,)"
