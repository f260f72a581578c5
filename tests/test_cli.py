"""Command-line front end: grid subcommands end to end, exit codes."""

import csv
import importlib
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from homsensor import __version__, cli, tmm
from homsensor.estimation import DEFAULT_NS_STEP, RATIO_FLOOR
from homsensor.materials import constant_material
from homsensor.quantum_stats import CLAMP_FLOOR
from homsensor.tmm import CALIBRATION_TOL, Layer, LayerStack, save_stack

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


def test_coincidence_outputs(tmp_path):
    """Default index grid (1.25..1.34 in 1e-3 steps) on the fixture stack."""
    cfg = {"stack_path": str(FIXTURE_STACK)}
    code, out = _run(tmp_path, "coincidence", cfg, "first")
    assert code == 0
    header, rows = _table(out / "coincidence.csv")
    assert len(rows) == 91
    assert all(len(row) == len(header) for row in rows)
    code, again = _run(tmp_path, "coincidence", cfg, "second")
    assert code == 0
    for path in sorted(out.iterdir()):
        assert (again / path.name).read_bytes() == path.read_bytes()


def _bench_module(name):
    """A module of the benchmark harness, loaded from bench/<name>.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name,
        Path(__file__).resolve().parents[1] / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """Every layer `python3 bench/run.py --trace 1` wraps exists."""
    tracer = _bench_module("tracer")
    for module, attribute, _ in tracer.TRACED:
        owner = importlib.import_module("homsensor." + module)
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attribute)


def test_bench_invocations_pass_reference_check(tmp_path):
    """Every benchmark invocation at seed 0 passes the harness's checker:
    file set, headers, row counts, flags, and every cell against
    bench/reference within its REFERENCE_RTOL."""
    check = _bench_module("check")
    workloads = _bench_module("workloads")
    for workload in workloads.WORKLOADS:
        stack_path = str(FIXTURE_STACK) \
            if workloads.uses_fixture(workload) else None
        for i, (command, cfg) in enumerate(
                workloads.configs(workload, 0, stack_path)):
            code, out = _run(tmp_path, command, cfg,
                             "%s_%d_%s" % (workload, i, command))
            _, problems = check.check_invocation(
                code, str(out), command, workloads.expected_rows(command))
            assert problems == [], (workload, command)


def test_calibration_failure_exits_2(tmp_path):
    """At 40 degrees the default geometry has no T = R crossing."""
    code, _ = _run(tmp_path, "spectrum", {"calibration": {"theta_deg": 40.0}})
    assert code == 2


@pytest.mark.parametrize("command, cfg", [
    ("spectrum", {"n_s": "1.3"}),
    ("fisher", {"phase_scan_points": 1.5}),
])
def test_wrong_type_exits_1(tmp_path, command, cfg):
    code, _ = _run(tmp_path, command, {"stack_path": str(FIXTURE_STACK),
                                       **cfg})
    assert code == 1


@pytest.mark.parametrize("command, extra", [
    ("fisher", {"phi_ab_policy": "scan"}),
    ("budget", {}),
])
def test_reruns_are_byte_identical(tmp_path, command, extra):
    cfg = {"stack_path": str(FIXTURE_STACK), **extra}
    code, out = _run(tmp_path, command, cfg, "first")
    assert code == 0
    code, again = _run(tmp_path, command, cfg, "second")
    assert code == 0
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_fisher_is_one_pass(tmp_path, monkeypatch):
    """`fisher` with the phase scan makes a handful of stack_response
    calls on a loaded stack, not one set per index point."""
    calls = []
    original = tmm.stack_response

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("homsensor") \
                and getattr(module, "stack_response", None) is original:
            monkeypatch.setattr(module, "stack_response", counting)
    code, out = _run(tmp_path, "fisher", {"stack_path": str(FIXTURE_STACK),
                                          "phi_ab_policy": "scan"})
    assert code == 0
    assert (out / "phase_scan.csv").exists()
    assert 0 < len(calls) <= 6


# (command, config on top of stack_path, settings-line keys, stdout summary)
PIPELINE_RUNS = {
    "spectrum": ({"theta_grid_deg": [65.0, 70.0]},
                 ["wavelength_nm", "n_s", "polarization"], "2 angles"),
    "coincidence": ({"n_s_grid": NS},
                    ["wavelength_nm", "theta_deg", "polarization"],
                    "4 index points"),
    "fisher": ({"n_s_grid": NS, "phi_ab_policy": "scan",
                "phase_scan_points": 9},
               ["wavelength_nm", "theta_deg", "polarization", "phi_ab"],
               "4 index points"),
    "map": ({"n_s_grid": NS, "wavelength_grid_nm": LAMBDAS},
            ["theta_deg", "polarization", "phi_ab"], "3 x 4 cells"),
    "budget": ({}, ["n_analyte", "wavelength_nm", "theta_deg"], "4 sources"),
    "continuum": ({"n_s_grid": NS, "delta_lambda_nm_list": DELTA_LAMBDAS,
                   "n_nodes": 41},
                  ["wavelength_nm", "theta_deg", "polarization", "phi_ab",
                   "n_nodes", "span"], "16 cells"),
}


@pytest.mark.parametrize("command", sorted(PIPELINE_RUNS))
def test_pipeline_header_stdout_and_metadata(tmp_path, capsys, command):
    """The parts of every run the bench checker skips: the '#' header of
    each CSV, the stdout line and the outputs listed in the metadata."""
    extra, settings, summary = PIPELINE_RUNS[command]
    code, out = _run(tmp_path, command,
                     {"stack_path": str(FIXTURE_STACK), **extra})
    assert code == 0
    meta = json.loads((out / (command + "_run.json")).read_text())
    csvs = sorted(path.name for path in out.glob("*.csv"))
    assert csvs and meta["outputs"] == csvs
    assert sorted(path.name for path in out.iterdir()) \
        == sorted(csvs + [command + "_run.json"])
    assert re.fullmatch(r"[0-9a-f]{16}", meta["run_id"])

    fixture = tmm.load_stack(FIXTURE_STACK)
    expected_head = [
        "# homsensor %s output (version %s)" % (command, __version__),
        "# run_id: %s" % meta["run_id"],
        "# stack: d_metal_nm=%.12g d_sample_nm=%.12g"
        % (fixture.layers[1].thickness_nm, fixture.layers[2].thickness_nm),
    ]
    for name in csvs:
        lines = (out / name).read_text().splitlines()
        assert lines[:3] == expected_head, name
        tokens = [t.split("=") for t in lines[3].removeprefix("# ").split()]
        assert [key for key, _ in tokens] == settings, name
        for key, value in tokens:
            want = meta["config"][key]
            assert (value == want if isinstance(want, str)
                    else float(value) == float("%.12g" % want)), (name, key)

    paths = ", ".join(str(out / name) for name in csvs)
    assert capsys.readouterr().out == "%s: %s -> %s\n" \
        % (command, summary, paths)


def test_calibrate_out_rebuilds_fixture(tmp_path):
    """`calibrate --out` writes the stack and its metadata, the stack is
    the bench fixture, and a rerun writes the same bytes."""
    check = _bench_module("check")
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert cli.main(["calibrate", "--out", str(out)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == ["calibrate_run.json", "calibrated_stack.json"]
    assert check.check_calibration(0, str(first), str(FIXTURE_STACK)) == []
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_calibrate_failure_exits_2(tmp_path):
    out = tmp_path / "cal"
    assert cli.main(["calibrate", "--theta-deg", "40",
                     "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("layers, sample_layer", [
    (3, 1),   # prism | sample | prism
    (5, 1),   # five layers with the sample where a film belongs
])
def test_non_dual_film_stack_path_exits_1(tmp_path, capsys, layers,
                                          sample_layer):
    """A stack file the outputs cannot label (films at layers 1 and 3,
    sample at 2) is rejected before any body runs."""
    prism = constant_material("prism", 1.5)
    sample = constant_material("sample", 1.31)
    interior = [Layer(sample, 500.0)] + [Layer(prism, 50.0)] * (layers - 3)
    stack = LayerStack(layers=(Layer(prism, None), *interior,
                               Layer(prism, None)),
                       sample_layer=sample_layer, sample_n=1.31)
    path = tmp_path / "stack.json"
    save_stack(stack, path)
    code, out = _run(tmp_path, "spectrum", {"stack_path": str(path)})
    assert code == 1
    assert "expected the 5-layer dual-film geometry" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_run_metadata_reports_library_tolerances(tmp_path):
    code, out = _run(tmp_path, "budget", {"stack_path": str(FIXTURE_STACK)})
    assert code == 0
    meta = json.loads((out / "budget_run.json").read_text())
    assert meta["tolerances"] == {
        "calibration_tol_abs_imbalance": CALIBRATION_TOL,
        "derivative_step_riu": DEFAULT_NS_STEP,
        "probability_clamp": -CLAMP_FLOOR,
        "ratio_floor": RATIO_FLOOR,
    }
