"""Command-line front end: grid subcommands end to end, exit codes."""

import csv
import json
import math
from pathlib import Path

import pytest

from homsensor import cli
from homsensor.materials import constant_material
from homsensor.tmm import Layer, LayerStack, save_stack

FIXTURE_STACK = Path(__file__).resolve().parents[1] / "bench" / "fixtures" \
    / "stack.json"

NS = [1.29, 1.30, 1.31, 1.32]
LAMBDAS = [795.0, 800.0, 805.0]
DELTA_LAMBDAS = [9.4, 94.0]

# (command, config on top of stack_path, CSV, flag column)
GRID_RUNS = {
    "map": ({"n_s_grid": NS, "wavelength_grid_nm": LAMBDAS},
            "map.csv", "g_defined"),
    "continuum": ({"n_s_grid": NS, "delta_lambda_nm_list": DELTA_LAMBDAS,
                   "n_nodes": 41}, "continuum.csv", "d_defined"),
}


def _run(tmp_path, command, cfg, name="out"):
    config = tmp_path / (name + ".json")
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    return code, out


def _table(path):
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
    return rows[0], rows[1:]


def _flat_stack_path(tmp_path):
    """A stack with no n_s dependence: every information figure is 0."""
    glass = constant_material("glass", 1.5)
    stack = LayerStack(layers=(Layer(glass, None), Layer(glass, 50.0),
                               Layer(glass, 0.0), Layer(glass, 50.0),
                               Layer(glass, None)),
                       sample_layer=2, sample_n=1.5)
    path = tmp_path / "flat.json"
    save_stack(stack, path)
    return str(path)


@pytest.mark.parametrize("command", sorted(GRID_RUNS))
def test_grid_outputs(tmp_path, command):
    extra, csv_name, flag = GRID_RUNS[command]
    cfg = {"stack_path": str(FIXTURE_STACK), **extra}
    code, out = _run(tmp_path, command, cfg, "first")
    assert code == 0
    header, rows = _table(out / csv_name)
    assert all(len(row) == len(header) for row in rows)
    if command == "map":
        expected = [(lam, n) for lam in LAMBDAS for n in NS]
        keys = [(float(r[0]), float(r[1])) for r in rows]
    else:
        expected = [(d, s, n) for d in DELTA_LAMBDAS
                    for s in ("hom", "classical") for n in NS]
        keys = [(float(r[0]), r[1], float(r[2])) for r in rows]
    assert keys == expected
    ratio = header.index(flag) - 1
    for row in rows:
        assert math.isnan(float(row[ratio])) == (row[ratio + 1] == "0")

    code, again = _run(tmp_path, command, cfg, "second")
    assert code == 0
    for path in sorted(out.iterdir()):
        assert (again / path.name).read_bytes() == path.read_bytes()


# On the flat stack every outcome moves by rounding noise only, which can
# trip the dead-outcome warning; the test is about the ratio columns.
@pytest.mark.filterwarnings("ignore:outcome")
@pytest.mark.parametrize("command", sorted(GRID_RUNS))
def test_undefined_ratios_are_flagged(tmp_path, command):
    extra, csv_name, flag = GRID_RUNS[command]
    cfg = {"stack_path": _flat_stack_path(tmp_path), **extra}
    code, out = _run(tmp_path, command, cfg)
    assert code == 0
    header, rows = _table(out / csv_name)
    ratio = header.index(flag) - 1
    assert rows
    for row in rows:
        assert row[ratio:ratio + 2] == ["nan", "0"]


@pytest.mark.parametrize("command", sorted(GRID_RUNS))
def test_unknown_config_key_exits_1(tmp_path, command):
    code, _ = _run(tmp_path, command, {"stack_path": str(FIXTURE_STACK),
                                       "n_s_grd": NS})
    assert code == 1
