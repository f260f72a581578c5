"""Output checker: accepts a correct run, rejects broken ones."""

import json
import os

import pytest

from check import REFERENCE_DIR, TABLES, check_invocation, read_csv
from workloads import DEFAULT_GRIDS, expected_rows

STOP_NS = DEFAULT_GRIDS["n_s_grid"][0] + (DEFAULT_GRIDS["n_s_grid"][2] - 1) \
    * DEFAULT_GRIDS["n_s_grid"][1]


def _write_continuum(out, rows):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "continuum.csv"), "w") as f:
        f.write("# comment line\n")
        f.write(",".join(TABLES["continuum.csv"].columns) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")
    with open(os.path.join(out, "continuum_run.json"), "w") as f:
        json.dump({"outputs": ["continuum.csv"]}, f)


@pytest.fixture()
def good_rows():
    """The default-grid continuum output, taken from the reference."""
    _, rows = read_csv(os.path.join(REFERENCE_DIR, "continuum.csv"))
    return [row for row in rows if float(row[2]) <= STOP_NS + 1e-9]


def _check(out, code=0):
    return check_invocation(code, out, "continuum",
                            expected_rows("continuum"))


def test_correct_output_passes(tmp_path, good_rows):
    _write_continuum(str(tmp_path), good_rows)
    assert _check(str(tmp_path)) == (364, [])


def test_dropped_row_fails(tmp_path, good_rows):
    _write_continuum(str(tmp_path), good_rows[:100] + good_rows[101:])
    rows, problems = _check(str(tmp_path))
    assert rows == 363
    assert any("363 data rows, expected 364" in p for p in problems)


def test_nan_with_flag_one_fails(tmp_path, good_rows):
    assert good_rows[5][-1] == "1"
    good_rows[5][5] = "nan"
    _write_continuum(str(tmp_path), good_rows)
    _, problems = _check(str(tmp_path))
    assert any("nan with flag 1" in p for p in problems)


def test_nan_with_flag_zero_is_only_a_reference_mismatch(tmp_path, good_rows):
    good_rows[5][5], good_rows[5][6] = "nan", "0"
    _write_continuum(str(tmp_path), good_rows)
    _, problems = _check(str(tmp_path))
    assert not any("nan with flag" in p for p in problems)
    assert any("differ from reference" in p for p in problems)


def test_nonzero_exit_fails(tmp_path, good_rows):
    _write_continuum(str(tmp_path), good_rows)
    _, problems = _check(str(tmp_path), code=1)
    assert problems == ["continuum exited with 1"]


def test_moved_cell_and_ragged_row_fail(tmp_path, good_rows):
    good_rows[0][3] = repr(float(good_rows[0][3]) * (1 + 1e-5))
    good_rows[1] = good_rows[1][:-1]
    _write_continuum(str(tmp_path), good_rows)
    _, problems = _check(str(tmp_path))
    assert any("row 1: ['i_single'] differ" in p for p in problems)
    assert any("row 2: 6 cells" in p for p in problems)


def test_missing_or_extra_files_fail(tmp_path, good_rows):
    _write_continuum(str(tmp_path), good_rows)
    open(os.path.join(str(tmp_path), "stray.csv"), "w").close()
    _, problems = _check(str(tmp_path))
    assert any("expected ['continuum.csv', 'continuum_run.json']" in p
               for p in problems)
    _, problems = _check(str(tmp_path / "absent"))
    assert any("wrote []" in p for p in problems)
