"""Command-line front end: grid subcommands end to end, exit codes."""

import csv
import importlib
import importlib.util
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from homsensor import __version__, cli, continuum, estimation, tmm
from homsensor.errors import CalibrationError
from homsensor.estimation import RATIO_FLOOR
from homsensor.materials import Material, constant_material
from homsensor.quantum_stats import CLAMP_FLOOR, DERIV_FLOOR, ZERO_PROB_FLOOR
from homsensor.records import replace
from homsensor.tmm import (CALIBRATION_TOL, NS_STEP, Layer, LayerStack,
                           save_stack)

from oracles import scalar_coincidence_signal

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


def test_headline_pair_is_one_across_commands(tmp_path):
    """fisher at 800 nm, map on the one wavelength 800 nm and continuum's
    single-frequency column print the same information cells, byte for
    byte, on the default index grid of the fixture stack."""
    rows = {}
    for command, extra in (("fisher", {"wavelength_nm": 800.0}),
                           ("map", {"wavelength_grid_nm": [800.0]}),
                           ("continuum", {"wavelength_nm": 800.0})):
        code, out = _run(tmp_path, command,
                         {"stack_path": str(FIXTURE_STACK), **extra}, command)
        assert code == 0
        header, body = _table(out / (command + ".csv"))
        rows[command] = [dict(zip(header, row)) for row in body]
    fisher = rows["fisher"]
    assert len(fisher) == 91

    def cells(table, *columns):
        return [tuple(row[c] for c in columns) for row in table]

    pair = ("n_s", "i_hom", "i_classical", "g", "g_defined")
    assert cells(rows["map"], *pair) == cells(fisher, *pair)
    blocks = {}
    for row in rows["continuum"]:
        blocks.setdefault((row["delta_lambda_nm"], row["scheme"]),
                          []).append(row)
    assert len(blocks) == 4
    for (_, scheme), block in blocks.items():
        assert cells(block, "n_s", "i_single") == cells(
            fisher, "n_s", "i_" + scheme)


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
    code, out = _run(tmp_path, "spectrum",
                     {"calibration": {"theta_deg": 40.0}})
    assert code == 2
    assert not out.exists()


def test_te_without_stack_path_exits_2(tmp_path, capsys):
    """Auto-calibration searches 20-80 nm films, and none balances TE at
    70 degrees: a TE run needs a stack_path (the module docstring says
    so)."""
    code, out = _run(tmp_path, "coincidence", {"polarization": "te"})
    assert code == 2
    assert capsys.readouterr().err == (
        "calibration failed: no balanced point: T - R has no sign change "
        "for film thickness in (20.0, 80.0) nm and sample thickness in "
        "(100.0, 2000.0) nm at lambda=800 nm, theta=70 deg, n_s=1.31\n")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("spectrum", {"n_s": "1.3"}),
    ("fisher", {"phase_scan_points": 1.5}),
])
def test_wrong_type_exits_1(tmp_path, command, cfg):
    code, _ = _run(tmp_path, command, {"stack_path": str(FIXTURE_STACK),
                                       **cfg})
    assert code == 1


# command: (config that reaches the rule, its size key, the error message)
TOO_FEW = {
    "fisher": ({"phi_ab_policy": "scan"}, "phase_scan_points",
               "phase scan needs at least 2 points"),
    "continuum": ({}, "n_nodes", "quadrature needs at least 2 nodes"),
}


@pytest.mark.parametrize("command, n", [
    ("fisher", 1), ("fisher", 0), ("fisher", -3),
    ("continuum", 0), ("continuum", 1), ("continuum", -5),
])
def test_too_few_points_exits_1(tmp_path, capsys, command, n):
    """A phase scan or quadrature rule too short to define is a config
    error with its message, not a traceback, and leaves no directory."""
    extra, key, message = TOO_FEW[command]
    code, out = _run(tmp_path, command, {"stack_path": str(FIXTURE_STACK),
                                         **extra, key: n})
    assert code == 1
    assert "error: " + message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 1, -3])
def test_short_phase_scan_rejected_at_load(tmp_path, n):
    """phase_scan_points is a count like n_nodes: fewer than 2 is refused
    with the config, under phi_ab_policy "fixed" too, before any work."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"phase_scan_points": n}))
    with pytest.raises(cli.ConfigError, match="^phase scan needs at least 2 "
                       "points, got %d$" % n):
        cli.load_config(config, "fisher")


def test_nodes_beyond_the_rule_cap_rejected_at_load(tmp_path):
    """The quadrature rule costs n^2 and is checked up to its cap, so a
    larger n_nodes is refused with the config."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_nodes": continuum.MAX_NODES + 1}))
    with pytest.raises(cli.ConfigError, match="config key 'n_nodes' asks "
                       "for more than %d nodes" % continuum.MAX_NODES):
        cli.load_config(config, "continuum")


@pytest.mark.parametrize("n", [0, 1, -5])
def test_too_few_nodes_rejected_at_load(tmp_path, n):
    """The quadrature size is checked with the config, before any work."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_nodes": n}))
    with pytest.raises(cli.ConfigError,
                       match="quadrature needs at least 2 nodes"):
        cli.load_config(config, "continuum")


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


def _count_calls(monkeypatch):
    """Record the stack_response calls of every homsensor module that
    holds it, and the number of wavelengths each Material.index call
    is asked for."""
    calls, index_points = [], []
    original = tmm.stack_response
    original_index = Material.index

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def counting_index(self, wavelength_nm):
        index_points.append(np.size(wavelength_nm))
        return original_index(self, wavelength_nm)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("homsensor") \
                and getattr(module, "stack_response", None) is original:
            monkeypatch.setattr(module, "stack_response", counting)
    monkeypatch.setattr(Material, "index", counting_index)
    return calls, index_points


def _fisher_calls(tmp_path, monkeypatch, policy):
    calls, _ = _count_calls(monkeypatch)
    code, out = _run(tmp_path, "fisher", {"stack_path": str(FIXTURE_STACK),
                                          "phi_ab_policy": policy})
    assert code == 0
    assert (out / "phase_scan.csv").exists() == (policy == "scan")
    return len(calls)


def test_fisher_is_one_pass(tmp_path, monkeypatch):
    """`fisher` with the phase scan makes two stack_response calls on a
    loaded stack: one n_s stencil for the whole index grid (both schemes
    and the decomposition) and one for the scan."""
    assert _fisher_calls(tmp_path, monkeypatch, "scan") == 2


def test_fisher_without_scan_is_one_call(tmp_path, monkeypatch):
    assert _fisher_calls(tmp_path, monkeypatch, "fixed") == 1


def test_continuum_evaluates_each_bandwidth_once(tmp_path, monkeypatch):
    """Both schemes share one stack_response call per bandwidth, after
    one call at the single frequency."""
    calls, _ = _count_calls(monkeypatch)
    extra, _, _ = GRID_RUNS["continuum"]
    code, _ = _run(tmp_path, "continuum", {"stack_path": str(FIXTURE_STACK),
                                           "schemes": ["hom", "classical"],
                                           **extra})
    assert code == 0
    assert len(calls) == 1 + len(DELTA_LAMBDAS)


def test_map_interpolates_each_wavelength_once(tmp_path, monkeypatch):
    """`map` asks each fixed layer for its index once per wavelength in
    each stack_response call, not once per (wavelength, index) cell."""
    calls, index_points = _count_calls(monkeypatch)
    extra, _, _ = GRID_RUNS["map"]
    code, _ = _run(tmp_path, "map", {"stack_path": str(FIXTURE_STACK),
                                     **extra})
    assert code == 0
    fixed_layers = tmm.load_stack(FIXTURE_STACK).n_layers - 1
    assert 0 < len(calls) <= 2
    assert sum(index_points) <= fixed_layers * len(LAMBDAS) * len(calls)


@pytest.mark.parametrize("rows_per_block, blocks", [(1, 3), (2, 2), (3, 1)])
def test_map_makes_one_evaluator_call_per_block(tmp_path, monkeypatch,
                                                rows_per_block, blocks):
    """Each row block of `map` is one continuum_fisher call on the
    single-frequency grid of its wavelengths, and one stack_response
    call."""
    monkeypatch.setattr(cli, "BLOCK_POINTS", rows_per_block * ONE_ROW["map"])
    calls, _ = _count_calls(monkeypatch)
    grids = []
    original = cli.continuum_fisher
    monkeypatch.setattr(cli, "continuum_fisher", lambda stack, grid, *args:
                        grids.append(grid) or original(stack, grid, *args))
    extra, _, _ = GRID_RUNS["map"]
    code, _ = _run(tmp_path, "map", {"stack_path": str(FIXTURE_STACK),
                                     **extra})
    assert code == 0
    assert len(grids) == len(calls) == blocks
    assert [grid.weights.tolist() for grid in grids] == [[1.0]] * blocks
    assert np.concatenate([grid.wavelength_nm.ravel() for grid in grids]
                          ).tolist() == LAMBDAS


# stack_response calls one automatic calibration may make: 10 measured
# (the film scan, six calls of eight bisection levels, the checks)
CALIBRATION_CALLS = 12


@pytest.mark.parametrize("command, body_calls", [
    ("spectrum", 1),
    ("coincidence", 1),
    ("budget", 11),
])
def test_auto_calibrated_commands_make_few_calls(tmp_path, monkeypatch,
                                                 command, body_calls):
    """A default config calibrates first; the calibration costs a few
    stack_response calls, not one per bisection step."""
    calls, _ = _count_calls(monkeypatch)
    code, _ = _run(tmp_path, command, {})
    assert code == 0
    assert body_calls < len(calls) <= CALIBRATION_CALLS + body_calls


def test_calibrate_out_makes_few_calls(tmp_path, monkeypatch):
    calls, _ = _count_calls(monkeypatch)
    assert cli.main(["calibrate", "--out", str(tmp_path / "cal")]) == 0
    assert 0 < len(calls) <= CALIBRATION_CALLS


def _points(calls):
    """stack_response points of each recorded call: the broadcast size of
    its wavelength, angle and index arguments."""
    return [int(np.prod(np.broadcast_shapes(*map(np.shape, args[1:4]))))
            for args in calls]


# BLOCK_POINTS that puts one grid row in each block: 2 n_s steps per
# (wavelength, index) cell of `map`, 2 x n_nodes per index of `continuum`
ONE_ROW = {"map": 2 * len(NS), "continuum": 2 * 41}


@pytest.mark.parametrize("command", sorted(GRID_RUNS))
def test_blocks_leave_outputs_unchanged(tmp_path, monkeypatch, command):
    """A grid cut into one-row blocks writes the bytes of one block."""
    extra, _, _ = GRID_RUNS[command]
    cfg = {"stack_path": str(FIXTURE_STACK), **extra}
    monkeypatch.setattr(cli, "BLOCK_POINTS", 10 ** 9)
    code, whole = _run(tmp_path, command, cfg, "whole")
    assert code == 0
    monkeypatch.setattr(cli, "BLOCK_POINTS", ONE_ROW[command])
    calls, _ = _count_calls(monkeypatch)
    code, blocked = _run(tmp_path, command, cfg, "blocked")
    assert code == 0
    rows = len(LAMBDAS) if command == "map" else len(NS)
    assert len(calls) >= rows >= 3
    names = sorted(path.name for path in whole.iterdir())
    assert names == sorted(path.name for path in blocked.iterdir())
    for name in names:
        assert (blocked / name).read_bytes() == (whole / name).read_bytes()


@pytest.mark.parametrize("rows_per_block, blocks", [(1, 4), (3, 2), (4, 1)])
def test_continuum_blocks_keep_calls_and_points(tmp_path, monkeypatch,
                                                rows_per_block, blocks):
    """k blocks per bandwidth make 1 + k x bandwidths stack_response
    calls (the single-frequency schemes share one) and evaluate the
    points of one call per bandwidth; every block of a bandwidth reads
    its one quadrature grid."""
    extra, _, _ = GRID_RUNS["continuum"]
    monkeypatch.setattr(cli, "BLOCK_POINTS",
                        rows_per_block * ONE_ROW["continuum"])
    calls, _ = _count_calls(monkeypatch)
    grids = []
    original = cli.quadrature_grid
    monkeypatch.setattr(cli, "quadrature_grid",
                        lambda *args: grids.append(args) or original(*args))
    code, _ = _run(tmp_path, "continuum", {"stack_path": str(FIXTURE_STACK),
                                           **extra})
    assert code == 0
    assert len(grids) == len(DELTA_LAMBDAS)
    assert len(calls) == 1 + blocks * len(DELTA_LAMBDAS)
    assert sum(_points(calls)) \
        == 2 * len(NS) + len(DELTA_LAMBDAS) * ONE_ROW["continuum"] * len(NS)


def test_continuum_working_set_is_bounded(tmp_path, monkeypatch):
    """The traced peak of a 301-index continuum run in blocks is at most
    a quarter of the same run in one call."""
    cfg = {"stack_path": str(FIXTURE_STACK), "delta_lambda_nm_list": [9.4],
           "n_s_grid": {"start": 1.2, "stop": 1.5, "step": 1e-3}}
    peaks = {}
    for budget in (cli.BLOCK_POINTS, 10 ** 9):
        monkeypatch.setattr(cli, "BLOCK_POINTS", budget)
        tracemalloc.start()
        try:
            code, _ = _run(tmp_path, "continuum", cfg, "b%d" % budget)
            peaks[budget] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    blocked, whole = peaks.values()
    assert blocked <= whole / 4


def test_unphysical_point_names_its_block_rows(tmp_path, monkeypatch,
                                               capsys):
    """A failure in the second block names that block's grid rows, with
    the cell index counted from its first row, and exits 1."""
    original = tmm.stack_response

    def nan_above(stack, wavelength_nm, theta_deg, n_s, polarization):
        resp = original(stack, wavelength_nm, theta_deg, n_s, polarization)
        return replace(resp, T=np.where(n_s > 1.315, np.nan, resp.T))

    monkeypatch.setattr(tmm, "stack_response", nan_above)
    # two rows per block of the single-frequency row, the first evaluated
    monkeypatch.setattr(cli, "BLOCK_POINTS", 2 * 2)
    extra, _, _ = GRID_RUNS["continuum"]
    code, out = _run(tmp_path, "continuum", {"stack_path": str(FIXTURE_STACK),
                                             **extra})
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite splitter point" in err
    assert "at grid index (1, 0, 0) (block of grid rows 2..3)" in err
    assert not out.exists()


def test_stack_error_names_its_block_rows(tmp_path, monkeypatch, capsys):
    """Any package error in a block names that block's grid rows and its
    cell counted from the block's first row: here n_s = 0 at row 3 (set
    after the config's increasing-grid check), the second cell of the
    second block; exit 1, no output."""
    original = cli.grid_values
    monkeypatch.setattr(cli, "grid_values", lambda grid: np.where(
        original(grid) > 1.315, 0.0, original(grid)))
    monkeypatch.setattr(cli, "BLOCK_POINTS", 2 * 2)
    extra, _, _ = GRID_RUNS["continuum"]
    code, out = _run(tmp_path, "continuum", {"stack_path": str(FIXTURE_STACK),
                                             **extra})
    assert code == 1
    assert capsys.readouterr().err == (
        "error: sample index: Re(n_s) must be positive, got 0.0 at grid "
        "index (1,) (block of grid rows 2..3)\n")
    assert not out.exists()


def test_block_error_keeps_its_class():
    """The block rows are added to the error it raised, of the same class,
    so its exit code does not move (2 for a calibration failure)."""
    def fail(block):
        raise CalibrationError("no balanced point")

    with pytest.raises(CalibrationError) as info:
        cli._in_blocks(fail, 5, cli.BLOCK_POINTS)
    assert type(info.value) is CalibrationError
    assert str(info.value) == "no balanced point (block of grid rows 0..0)"


def test_write_csv_formats_every_cell_kind(tmp_path):
    """Each column takes the one format of its dtype kind, whether it is
    an array or a list; a column of another kind, or columns of
    different lengths, raise before any file is written."""
    columns = (["s", "tm"], [True, False], np.array([True, False]),
               [3, -7], np.array([7, 0], dtype=np.uint8),
               [0.1, 1 / 3], [math.nan, -0.0], [math.inf, -math.inf],
               np.array([2.5e-13, -1e300]), np.array([0.5, 0.1], np.float32))
    lines = ["s,1,1,3,7,0.1,nan,inf,2.5e-13,0.5",
             "tm,0,0,-7,0,0.333333333333,-0,-inf,-1e+300,0.10000000149"]
    header = ["c%d" % i for i in range(len(columns))]
    cases = {
        "arrays": tuple(np.asarray(column) for column in columns),
        "lists": tuple(np.asarray(column).tolist() for column in columns),
    }
    for name, case in cases.items():
        path = tmp_path / (name + ".csv")
        cli.write_csv(path, header, case, ["note"])
        assert path.read_text().split("\n") \
            == ["# note", ",".join(header), *lines, ""], name
    bad = {"object": ([np.array([1, "x"], dtype=object)], r"\('object', 2\)"),
           "complex": ([np.array([1j])], r"\('complex128', 1\)"),
           "ragged": ([[1.0, 2.0], [1.0]],
                      r"\[\('float64', 2\), \('float64', 1\)\] need one")}
    for name, (case, words) in bad.items():
        path = tmp_path / (name + ".csv")
        with pytest.raises(ValueError, match=words):
            cli.write_csv(path, ["c"] * len(case), case)
        assert not path.exists(), name


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


@pytest.mark.parametrize("flag", ["--target-ns", "--wavelength-nm",
                                  "--theta-deg"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_calibrate_non_finite_flag_exits_1(tmp_path, capsys, flag, value):
    """A flag is checked as its config key is, before any calibration."""
    out = tmp_path / "cal"
    assert cli.main(["calibrate", flag, value, "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_not_unique_exits_2(tmp_path, capsys):
    """At 810 nm the balanced stack has no T = R crossing within
    +/- 0.02 RIU of the target, so the dip would be ambiguous."""
    out = tmp_path / "cal"
    assert cli.main(["calibrate", "--wavelength-nm", "810",
                     "--out", str(out)]) == 2
    assert "calibration failed: balance point not unique" \
        in capsys.readouterr().err
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
    assert not out.exists()


@pytest.mark.parametrize("film", [
    {"thickness_nm": 25.0},
    {"material": {"constant": [0.2, 5.0]}},
], ids=["thicker", "constant"])
def test_asymmetric_stack_path_exits_1(tmp_path, capsys, film):
    """The outcome models assume a mirror-symmetric splitter: a fixture
    whose second film differs is refused, naming the file and films."""
    d = json.loads(FIXTURE_STACK.read_text())
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(_with_layer(d, 3, {**d["layers"][3], **film})))
    code, out = _run(tmp_path, "fisher", {"stack_path": str(path)})
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: stack file %s: " % path)
    assert "not mirror-symmetric: film 1 (20.0 nm of 'Au') and film 3" in err
    assert err.count("\n") == 1
    assert not out.exists()


# a JSON number that no float can hold: 1 followed by 400 zeros
HUGE_INT = 10 ** 400


def test_config_number_too_large_for_a_float_exits_1(tmp_path, capsys):
    code, out = _run(tmp_path, "spectrum", {"stack_path": str(FIXTURE_STACK),
                                            "wavelength_nm": HUGE_INT})
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: config key 'wavelength_nm': int too large to " \
        "convert to float\n"
    assert not out.exists()


# (command, key, a value beyond cli.MAX_GRID_POINTS points)
OVERSIZED = {
    "scan_points_huge": ("fisher", "phase_scan_points", HUGE_INT),
    "scan_points_limit": ("fisher", "phase_scan_points",
                          cli.MAX_GRID_POINTS + 1),
    "nodes_huge": ("continuum", "n_nodes", HUGE_INT),
    "nodes_limit": ("continuum", "n_nodes", cli.MAX_GRID_POINTS + 1),
    "grid_tiny_step": ("coincidence", "n_s_grid",
                       {"start": 1.30, "stop": 1.31, "step": 1e-300}),
    "grid_limit": ("coincidence", "n_s_grid",
                   {"start": 1.0, "stop": 1.0 + cli.MAX_GRID_POINTS,
                    "step": 1.0}),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_config_size_beyond_the_limit_exits_1(tmp_path, capsys, case):
    """Every size a config sets is checked at load, before anything of
    that size is built."""
    command, key, value = OVERSIZED[case]
    code, out = _run(tmp_path, command,
                     {"stack_path": str(FIXTURE_STACK), key: value})
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config key %r asks for more than %d points\n"
        % (key, cli.MAX_GRID_POINTS))
    assert not out.exists()


def test_config_size_at_the_limit_loads(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_s_grid": {"start": 1.0, "stop": cli.MAX_GRID_POINTS, "step": 1.0},
        "n_nodes": continuum.MAX_NODES}))
    cfg = cli.load_config(config, "continuum")
    assert cfg["n_nodes"] == continuum.MAX_NODES
    assert cli._grid_count(**cfg["n_s_grid"]) == cli.MAX_GRID_POINTS


@pytest.mark.parametrize("command, cfg, value", [
    ("coincidence", {"n_s_grid": [-1.3]}, "-1.3 at grid index (0,)"),
    ("budget", {"n_analyte": -1.0}, "-1.0"),
    ("fisher", {"n_s_grid": [-1.3]}, "-1.3 at grid index (0,)"),
    ("map", {"n_s_grid": [-1.3]},
     "-1.3 at grid index (0,) (block of grid rows 0..40)"),
    ("continuum", {"n_s_grid": [-1.3]},
     "-1.3 at grid index (0,) (block of grid rows 0..0)"),
    ("fisher", {"phi_ab_policy": "scan", "phase_scan_ns": -1.3}, "-1.3"),
], ids=["coincidence", "budget", "fisher", "map", "continuum",
        "phase_scan_ns"])
def test_nonpositive_sample_index_exits_1(tmp_path, capsys, command, cfg,
                                          value):
    """stack_response is even in n_s, so -1.3 would be written with the
    physics of +1.3: one error line names the configured value, not
    that of a stencil row, and an index grid's cell (a scalar one has
    no index)."""
    code, out = _run(tmp_path, command,
                     {"stack_path": str(FIXTURE_STACK), **cfg})
    assert code == 1
    assert capsys.readouterr().err == (
        "error: sample index: Re(n_s) must be positive, got %s\n" % value)
    assert not out.exists()


# (command, config on top of a constant-only stack, its error line): no
# material window catches these wavelengths
WAVELENGTH_ERRORS = [
    pytest.param("spectrum", {"wavelength_nm": 0},
                 "wavelength must be positive, got 0 nm", id="spectrum_zero"),
    pytest.param("spectrum", {"wavelength_nm": -800},
                 "wavelength must be positive, got -800 nm",
                 id="spectrum_negative"),
    pytest.param("fisher", {"wavelength_nm": -800},
                 "wavelength must be positive, got -800 nm at grid index "
                 "(0, 0)", id="fisher_negative"),
    # every phase overflows: refused before numpy could warn
    pytest.param("spectrum", {"wavelength_nm": 1e-320},
                 "layer 1 (thickness 50.0 nm) is too thick for wavelength "
                 "1e-320 nm in the transfer-matrix form: its decay factor "
                 "overflows at grid index (0,)", id="spectrum_subnormal"),
    pytest.param("continuum", {"wavelength_nm": 1e160, "n_s_grid": [1.31],
                               "n_nodes": 5},
                 "profile carrier wavelength 1e+160 nm is out of range: its "
                 "square overflows", id="continuum_overflow"),
]


@pytest.mark.parametrize("command, cfg, message", WAVELENGTH_ERRORS)
def test_unusable_wavelength_exits_1(tmp_path, capsys, command, cfg,
                                     message):
    """A wavelength of 0 or below (nan rows, or the physics of -lambda),
    a subnormal one (nan rows) or one whose square overflows: one error
    line, exit 1, no output."""
    code, out = _run(tmp_path, command,
                     {"stack_path": _flat_stack_path(tmp_path), **cfg})
    assert code == 1
    assert capsys.readouterr().err == "error: %s\n" % (message,)
    assert not out.exists()


def test_out_of_table_wavelength_exits_1(tmp_path, capsys):
    """A carrier far beyond the gold table of the fixture: one error line
    whose requested wavelengths print in 6 significant digits; exit 1,
    no output."""
    code, out = _run(tmp_path, "continuum", {
        "stack_path": str(FIXTURE_STACK), "wavelength_nm": 1e160,
        "n_s_grid": [1.31], "n_nodes": 5})
    assert code == 1
    assert capsys.readouterr().err == (
        "error: material 'Au (Johnson & Christy 1972)' tabulated on "
        "[187.855, 1937.253] nm, requested wavelength(s) reach "
        "[1e+160, 1e+160] nm (block of grid rows 0..0)\n")
    assert not out.exists()


def test_grazing_angle_exits_1(tmp_path, capsys):
    """An angle below 90 degrees whose sine rounds to 1 has entrance
    cosine 0 and t_01 = 0: one error line, exit 1, no output, where numpy
    used to warn (the suite turns a RuntimeWarning into an error) before
    a nan splitter point."""
    code, out = _run(tmp_path, "spectrum",
                     {"stack_path": str(FIXTURE_STACK),
                      "theta_grid_deg": [0.0, 89.99999999]})
    assert code == 1
    assert capsys.readouterr().err == (
        "error: incidence angle 89.99999999 degrees is grazing: its "
        "entrance cosine rounds to 0 at grid index (1,)\n")
    assert not out.exists()


# id: (continuum config on top of one n_s and 41 nodes, its error line)
SPECTRUM_ERRORS = {
    "-5.0": ({"span": -5.0}, "quadrature span must be positive, got -5.0"),
    "0.0": ({"span": 0.0}, "quadrature span must be positive, got 0.0"),
    "zero_bandwidth": ({"delta_lambda_nm_list": [0.0]},
                       "profile needs positive carrier wavelength and "
                       "bandwidth"),
    "negative_bandwidth": ({"delta_lambda_nm_list": [-1.0]},
                           "profile needs positive carrier wavelength and "
                           "bandwidth"),
    "wide_bandwidth": ({"delta_lambda_nm_list": [200.0]},
                       "bandwidth 200 nm is too wide for the carrier 800 nm: "
                       "it must be below lambda0/5 = 160 nm, or the "
                       "wavepacket would spill into negative frequencies"),
    "tiny_bandwidth": ({"delta_lambda_nm_list": [1e-300]},
                       "bandwidth 1e-300 nm is below the float resolution "
                       "of the carrier 800 nm: no quadrature interval"),
    "narrow_span": ({"span": 1.0},
                    "wavepacket weights sum to 0.981468322249, not 1: the "
                    "quadrature span or the material window cuts the "
                    "wavepacket, or the bandwidth is below the carrier's "
                    "float resolution"),
}


@pytest.mark.parametrize("case", list(SPECTRUM_ERRORS))
def test_nonpositive_span_exits_1(tmp_path, capsys, case):
    """A span or bandwidth the wavepacket cannot take, or a span too
    narrow for a grid of unit mass: one error line, exit 1, no output."""
    extra, message = SPECTRUM_ERRORS[case]
    code, out = _run(tmp_path, "continuum", {
        "stack_path": str(FIXTURE_STACK), "n_s_grid": [1.31], "n_nodes": 41,
        **extra})
    assert code == 1
    assert capsys.readouterr().err == "error: %s\n" % (message,)
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "coincidence", "fisher"])
def test_unequal_half_spaces_exit_1(tmp_path, capsys, command):
    """The outcome models assume a mirror-symmetric splitter: a fixture
    whose exit prism has another index is refused before any response,
    naming the file and the half-spaces."""
    d = json.loads(FIXTURE_STACK.read_text())
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(_with_layer(d, 4, {
        **d["layers"][4], "material": {"constant": [1.7, 0]}})))
    code, out = _run(tmp_path, command, {"stack_path": str(path)})
    assert code == 1
    assert capsys.readouterr().err == (
        "error: stack file %s: stack 'dual_film_sensor' is not "
        "mirror-symmetric: half-space 0 ('prism') and half-space 4 "
        "('constant') differ in material\n" % path)
    assert not out.exists()


def _with_layer(d, j, layer):
    return {**d, "layers": [layer if i == j else old
                            for i, old in enumerate(d["layers"])]}


def _with_film_table(d, table, name="film"):
    """Both films of stack description d made of one tabulated material."""
    film = {**d["layers"][1], "material": {"name": name, "table": table}}
    return _with_layer(_with_layer(d, 1, film), 3, film)


# case: (the fixture's stack description -> file text, the error names)
MALFORMED_STACKS = {
    "no_layers": (lambda d: json.dumps({"name": d["name"]}),
                  "stack: missing key 'layers'"),
    "invalid_json": (lambda d: json.dumps(d)[:-2],
                     "is not valid UTF-8 JSON"),
    "not_utf8": (lambda d: json.dumps({**d, "name": "Größe"},
                                      ensure_ascii=False),
                 "is not valid UTF-8 JSON"),
    "top_level_list": (lambda d: json.dumps(d["layers"]),
                       "must be a JSON object, got list"),
    "missing_thickness": (lambda d: json.dumps(_with_layer(
        d, 2, {"material": d["layers"][2]["material"]})),
        "layers[2]: missing key 'thickness_nm'"),
    "string_thickness": (lambda d: json.dumps(_with_layer(
        d, 2, {**d["layers"][2], "thickness_nm": "502.4"})),
        "layers[2].thickness_nm must be a number, got '502.4'"),
    "list_thickness": (lambda d: json.dumps(_with_layer(
        d, 2, {**d["layers"][2], "thickness_nm": [500.0, 502.0]})),
        "layers[2].thickness_nm must be a number, got [500.0"),
    "string_sample_layer": (lambda d: json.dumps({**d, "sample_layer": "2"}),
                            "sample_layer must be null or of type int"),
    "unknown_builtin": (lambda d: json.dumps(_with_layer(
        d, 1, {**d["layers"][1], "material": {"builtin": "silver"}})),
        "unknown builtin material 'silver'"),
    "short_constant": (lambda d: json.dumps(_with_layer(
        d, 0, {**d["layers"][0], "material": {"constant": [1.5]}})),
        "material constant must be [re, im], got [1.5]"),
    "huge_thickness": (lambda d: json.dumps(_with_layer(
        d, 2, {**d["layers"][2], "thickness_nm": HUGE_INT})),
        "thickness_nm: int too large to convert to float"),
    "huge_constant": (lambda d: json.dumps(_with_layer(
        d, 0, {**d["layers"][0], "material": {"constant": [HUGE_INT, 0]}})),
        "layers[0].material.constant: int too large to convert to float"),
    "bool_constant": (lambda d: json.dumps(_with_layer(
        d, 0, {**d["layers"][0], "material": {"name": "prism",
                                              "constant": [1.5, True]}})),
        "layers[0].material.constant must be a number, got True"),
    "string_table_wavelength": (lambda d: json.dumps(_with_film_table(
        d, {"wavelength_nm": ["700", "900"], "n": [0.2, 0.3],
            "k": [5.0, 6.0]})),
        "layers[1].material.table.wavelength_nm must be a number, got '700'"),
    "bool_table_n": (lambda d: json.dumps(_with_film_table(
        d, {"wavelength_nm": [700, 900], "n": [0.2, True], "k": [5.0, 6.0]})),
        "layers[1].material.table.n must be a number, got True"),
    "constant_and_table": (lambda d: json.dumps(_with_layer(
        d, 0, {**d["layers"][0], "material": {
            "constant": [1.5, 0.0], "table": {
                "wavelength_nm": [700, 900], "n": [1.5, 1.5],
                "k": [0.0, 0.0]}}})),
        "layers[0].material must give exactly one of ['builtin', "
        "'constant', 'table'], got ['constant', 'table']"),
    "nan_sample_n": (lambda d: json.dumps({**d, "sample_n": math.nan}),
                     "sample_n must be finite, got nan"),
    "unknown_layer_key": (lambda d: json.dumps(_with_layer(
        d, 2, {**d["layers"][2], "thickness": 500.0})),
        "unknown layers[2] keys: ['thickness'] (accepted: ['material', "
        "'thickness_nm'])"),
    "list_stack_name": (lambda d: json.dumps({**d, "name": [1, 2]}),
                        "name must be a non-empty string, got [1, 2]"),
    "number_material_name": (lambda d: json.dumps(_with_layer(
        d, 0, {**d["layers"][0], "material": {"name": 5,
                                              "constant": [1.5, 0.0]}})),
        "layers[0].material.name must be a non-empty string, got 5"),
    "named_builtin": (lambda d: json.dumps(_with_layer(
        d, 1, {**d["layers"][1], "material": {"builtin": "gold_jc",
                                              "name": "Ag"}})),
        "layers[1].material.name is not accepted with builtin"),
    "unsorted_table": (lambda d: json.dumps(_with_film_table(
        d, {"wavelength_nm": [900, 700], "n": [0.2, 0.3], "k": [5.0, 6.0]})),
        "layers[1].material.table: material 'film': wavelengths must be "
        "strictly increasing"),
    "empty_table_name": (lambda d: json.dumps(_with_film_table(
        d, {"wavelength_nm": [700, 900], "n": [0.2, 0.3], "k": [5.0, 6.0]},
        name="")),
        "layers[1].material.name must be a non-empty string, got ''"),
}


def _ftir_stack_path(tmp_path):
    """The FTIR control (prism | 0 nm | 208.826 nm gap | 0 nm | prism),
    written from the fixture."""
    d = json.loads(FIXTURE_STACK.read_text())
    film = {**d["layers"][1], "thickness_nm": 0.0}
    d = _with_layer(_with_layer(_with_layer(d, 1, film), 3, film), 2,
                    {**d["layers"][2], "thickness_nm": 208.826})
    path = tmp_path / "ftir.json"
    path.write_text(json.dumps(d))
    return path


def test_budget_of_a_bare_gap_takes_a_forward_film_difference(tmp_path,
                                                              capsys):
    """On the FTIR control the default sources' film rows step the films
    to +BUDGET_STEP and 0 nm, not below: exit 0, and the film's c is the
    forward difference (S(h) - S(0)) / h per meter over the printed
    signal slope, S from two stack_response calls."""
    path = _ftir_stack_path(tmp_path)
    code, out = _run(tmp_path, "budget", {"stack_path": str(path)})
    assert code == 0
    assert capsys.readouterr().err == ""
    rows, (slope, _) = _budget_rows(out)
    film, = (row for row in rows if row["kind"] == "film_thickness")
    stack, h = tmm.load_stack(path), estimation.BUDGET_STEP
    s_h, s_0 = (scalar_coincidence_signal(
        tmm.with_sensor(stack, film_nm=d), 800.0, 70.0, 1.32, "tm")
        for d in (h, 0.0))
    assert float(film["c"]) == pytest.approx(
        abs((s_h - s_0) / h * 1e9) / abs(float(slope)), rel=1e-10)


def test_budget_of_a_bare_gap_runs_without_a_film_source(tmp_path, capsys):
    """Without a film_thickness source the film rows stay at the centre,
    so the FTIR control has a budget for its other sources: exit 0."""
    sources = [src for src in json.loads(
        (Path(estimation.__file__).parent / "data"
         / "budget_sources.json").read_text())["sources"]
        if src["kind"] != "film_thickness"]
    sources_path = tmp_path / "sources.json"
    sources_path.write_text(json.dumps({"sources": sources}))
    code, out = _run(tmp_path, "budget",
                     {"stack_path": str(_ftir_stack_path(tmp_path)),
                      "sources_path": str(sources_path)})
    assert code == 0
    assert capsys.readouterr().err == ""
    header, rows = _table(out / "budget.csv")
    assert [row[header.index("kind")] for row in rows] \
        == ["incidence_angle", "prism_index", "polarization_angle"]


@pytest.mark.parametrize("case", sorted(MALFORMED_STACKS))
def test_malformed_stack_file_exits_1(tmp_path, capsys, case):
    """A stack_path file that holds no valid stack ends in one `error:`
    line naming the file and the bad key or value, and writes nothing."""
    text, names = MALFORMED_STACKS[case]
    path = tmp_path / "stack.json"
    # written as latin-1, so that the not_utf8 case is not UTF-8 text
    path.write_bytes(text(json.loads(FIXTURE_STACK.read_text()))
                     .encode("latin-1"))
    code, out = _run(tmp_path, "spectrum", {"stack_path": str(path)})
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: stack file %s" % path)
    assert names in err and err.count("\n") == 1
    assert not out.exists()


def test_run_metadata_reports_library_tolerances(tmp_path):
    code, out = _run(tmp_path, "budget", {"stack_path": str(FIXTURE_STACK)})
    assert code == 0
    meta = json.loads((out / "budget_run.json").read_text())
    assert meta["tolerances"] == {
        "calibration_tol_abs_imbalance": CALIBRATION_TOL,
        "derivative_noise_floor": DERIV_FLOOR,
        "derivative_step_riu": NS_STEP,
        "probability_clamp": -CLAMP_FLOOR,
        "ratio_floor": RATIO_FLOOR,
        "zero_prob_floor": ZERO_PROB_FLOOR,
    }


def _utf16_json(path, data):
    """data as UTF-16 JSON, which starts with the bytes ff fe."""
    path.write_bytes(json.dumps(data).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    return path


SOURCE = {"name": "angle", "kind": "incidence_angle", "s": 0.03,
          "unit": "deg"}


def _one_source(**change):
    """A sources file whose one entry is SOURCE with the changed keys."""
    return {"sources": [{**SOURCE, **change}]}


@pytest.mark.parametrize("data, names", [
    (_one_source(divisor=0), "divisor must be finite and > 0, got 0.0"),
    (_one_source(s=math.nan, divisor=-2), "s must be finite, got nan"),
    (_one_source(name="angle,\njitter"), "name must be a non-empty string "
     "without commas, quotes or line breaks"),
    (_one_source(s=True, divisor="2"), "s must be a number, got True"),
    (_one_source(divsor=100), "unknown sources[0] keys: ['divsor'] "
     "(accepted: ['divisor', 'kind', 'name', 'reference_c', "
     "'reference_sigma', 's', 'unit'])"),
    ({"sources": [{k: v for k, v in SOURCE.items() if k != "s"}]},
     "sources[0]: missing key 's'"),
    ({}, "budget sources: missing key 'sources'"),
], ids=["zero_divisor", "nan_s", "comma_newline_name", "bool_s_string_divisor",
        "misspelt_divisor", "missing_s", "missing_sources"])
def test_bad_budget_source_exits_1(tmp_path, capsys, data, names):
    """A sources file that would divide by zero, print nan or break the
    table's rows, that holds a non-number or an unknown key, or that lacks
    a key, ends in one `error:` line naming the sources file and the key,
    and writes nothing."""
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps(data))
    code, out = _run(tmp_path, "budget", {"stack_path": str(FIXTURE_STACK),
                                          "sources_path": str(sources)})
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: budget sources file %s: " % sources)
    assert names in err and err.count("\n") == 1
    assert not out.exists()


def _budget_rows(out):
    """budget.csv's rows as dicts, and its (signal_slope, total_sigma)
    note cells."""
    header, body = _table(out / "budget.csv")
    note = re.search(r"^# signal_slope=(\S+) total_sigma=(\S+)$",
                     (out / "budget.csv").read_text(), re.M)
    return [dict(zip(header, row)) for row in body], note.groups()


def test_note_lines_print_the_library_values(tmp_path):
    """On the fixture stack the phase scan's note prints phi_ab_scan's
    phi_opt and fisher_opt, and the budget's sigma cells are c*s/divisor
    of their rows, with total_sigma their quadrature sum."""
    code, out = _run(tmp_path, "fisher", {"stack_path": str(FIXTURE_STACK),
                                          "phi_ab_policy": "scan"}, "fisher")
    assert code == 0
    cfg = cli.load_config(tmp_path / "fisher.json", "fisher")
    _, _, phi_opt, fisher_opt = estimation.phi_ab_scan(
        tmm.load_stack(FIXTURE_STACK), cfg["wavelength_nm"],
        cfg["theta_deg"], cfg["phase_scan_ns"],
        n_points=cfg["phase_scan_points"], polarization=cfg["polarization"],
        phi_tr_assumption=cfg["phase_scan_phi_tr"])
    note = re.search(r"^# phase scan at n_s=1.3: phi_opt=(\S+) "
                     r"fisher_opt=(\S+) phi_tr_assumption=1.57079632679$",
                     (out / "phase_scan.csv").read_text(), re.M)
    assert note.groups() == (cli._fmt_cell(phi_opt),
                             cli._fmt_cell(fisher_opt))

    code, out = _run(tmp_path, "budget", {"stack_path": str(FIXTURE_STACK)},
                     "budget")
    assert code == 0
    rows, (_, total) = _budget_rows(out)
    sigma = [float(row["sigma"]) for row in rows]
    assert len(sigma) == 4 and all(sigma)
    for row, value in zip(rows, sigma):
        assert value == pytest.approx(float(row["c"]) * float(row["s"])
                                      / float(row["divisor"]), rel=1e-11)
    assert float(total) == pytest.approx(
        math.sqrt(sum(x ** 2 for x in sigma)), rel=1e-11)


def test_budget_without_sources(tmp_path, capsys):
    """An empty sources list is a budget of no rows: the header alone,
    total_sigma=0, and the signal slope of the default sources' run."""
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps({"sources": []}))
    code, out = _run(tmp_path, "budget", {"stack_path": str(FIXTURE_STACK),
                                          "sources_path": str(sources)})
    assert code == 0
    assert capsys.readouterr().out == "budget: 0 sources -> %s\n" % (
        out / "budget.csv")
    header, body = _table(out / "budget.csv")
    assert header == ["name", "kind", "s", "unit", "divisor", "c", "sigma",
                      "reference_c", "reference_sigma",
                      "sigma_from_reference"]
    assert body == []
    rows, (slope, total) = _budget_rows(out)
    assert total == "0"
    code, out = _run(tmp_path, "budget", {"stack_path": str(FIXTURE_STACK)},
                     "default")
    assert code == 0 and _budget_rows(out)[1][0] == slope


@pytest.mark.parametrize("command", ["spectrum", "budget"])
def test_non_utf8_input_file_exits_1(tmp_path, capsys, command):
    """A config file (spectrum) or budget sources file (budget) that is not
    UTF-8 ends in one `error:` line naming the file, and writes nothing."""
    config = tmp_path / "cfg.json"
    cfg = {"stack_path": str(FIXTURE_STACK)}
    if command == "spectrum":
        _utf16_json(config, cfg)
        named = "error: config %s is not valid UTF-8 JSON" % config
    else:
        sources = _utf16_json(tmp_path / "sources.json", {"sources": []})
        config.write_text(json.dumps(dict(cfg, sources_path=str(sources))))
        named = "error: budget sources file %s is not valid UTF-8 JSON" \
            % sources
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(named) and err.count("\n") == 1
    assert not out.exists()
