"""Command-line front end for the plasmonic beamsplitter sensor model.

Subcommands
-----------
calibrate    find film/gap thicknesses that balance the splitter (T = R)
spectrum     angle sweep of the intensity response T, R, A
coincidence  index sweep of the two-photon click statistics
fisher       index sweep of both information figures, their ratio and
             the channel decomposition; optional probe-phase scan
map          enhancement ratio over a wavelength x index grid
budget       instrumental disturbances converted to index errors
continuum    finite-bandwidth drift of both information figures

All physics subcommands read a JSON configuration (units are explicit
in the key names) and write CSV tables plus a JSON run-metadata file
into the output directory.  The config, its calibration block and each
{start, stop, step} grid are read by errors.read_fields, the reader of
the JSON objects of stack, budget-sources and material-table files too,
against a schema {key: (default, coerce)}: it rejects unknown keys,
names a missing required one and coerces each value by the key's rule.
Outputs are deterministic: the same configuration produces
byte-identical files, with no wall-clock, locale, or ordering
dependence.  A table is typed columns of one length; floats print with
12 significant digits, and undefined ratios as `nan` next to a zero
flag column rather than dropped, so every grid in every file is
rectangular and complete.

Each physics subcommand is one row of the table COMMANDS: its help
text, its body, the config keys echoed on the settings line of its CSVs
and its config schema.  One pipeline, run_command, runs them all: load
the config, resolve the stack, compute the run id, call the body,
prepare the output directory, write each Table it returns under the
shared '#' header, write `<command>_run.json` and print
`<command>: <summary> -> <paths>`.
A body takes (cfg, stack), makes the library calls and returns
(summary, [Table]); a new subcommand is a body and a COMMANDS row.

Grids are evaluated in one process by broadcast library calls: `map`
(by wavelength) and `continuum` (by index) in row blocks of at most
BLOCK_POINTS stack_response points, so memory does not grow with the
grid, one continuum_fisher call per block (a single frequency is its
one-node grid), and `fisher` in one pass: one fisher_report call over
the index grid and one phi_ab_scan call over the phase grid, one
stack_response call each.

Exit status: 0 on success, 1 on configuration or physics errors, 2 on
calibration failure.  A TE run needs a stack_path: no 20-80 nm film of
the default design balances TE at the default 70 degrees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .continuum import DEFAULT_NODES, DEFAULT_SPAN, MAX_NODES, \
    continuum_fisher, quadrature_grid, single_frequency
from .errors import (CalibrationError, ConfigError, HomsensorError,
                     as_number, or_null, read_fields, read_json, write_json)
from .estimation import RATIO_FLOOR, defined_ratio, fisher_report, \
    load_budget_sources, phi_ab_scan, precision_bound, uncertainty_budget
from .quantum_stats import CLAMP_FLOOR, DEFAULT_PHI_AB, DERIV_FLOOR, \
    ZERO_PROB_FLOOR, hom_click_distribution, validate_points
from .records import Record
from .tmm import CALIBRATION_TOL, NS_STEP, calibrate_stack, load_stack, \
    save_stack, sensor_thicknesses, stack_response

# The interpreter's built-in SHA-256 gives hashlib's digest without
# loading OpenSSL, which costs every process a few ms and MB for one id.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

# %-conversion of a column's cells by its dtype kind (numpy's dtype.kind)
_KIND_FORMATS = {"f": "%.12g", "b": "%d", "i": "%d", "u": "%d", "U": "%s"}
# stack_response points per call of _in_blocks: cache-sized temporaries
BLOCK_POINTS = 8192
# Most points any config size may ask for (a grid or list, n_nodes,
# phase_scan_points); paper resolution needs at most 721 (phases).
MAX_GRID_POINTS = 100_000

# Tolerances recorded in every metadata file, read from the library
# constants so a run can be audited from its outputs alone.
REPORTED_TOLERANCES = {
    "calibration_tol_abs_imbalance": CALIBRATION_TOL,
    "derivative_noise_floor": DERIV_FLOOR,
    "derivative_step_riu": NS_STEP,
    "probability_clamp": -CLAMP_FLOOR,
    "ratio_floor": RATIO_FLOOR,
    "zero_prob_floor": ZERO_PROB_FLOOR,
}


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def _as_float(value, key):
    return as_number(value, "config key %r" % (key,), ConfigError)


def _check_size(count, key):
    if count > MAX_GRID_POINTS:
        raise ConfigError("config key %r asks for more than %d points"
                          % (key, MAX_GRID_POINTS))


def _as_count(subject, unit, most=MAX_GRID_POINTS):
    """The coerce of an integer key that counts the units subject needs
    at least 2 and at most `most` of."""
    def coerce(value, key):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("config key %r must be an integer, got %r"
                              % (key, value))
        _check_size(value, key)
        if value < 2:
            raise ConfigError("%s needs at least 2 %s, got %r"
                              % (subject, unit, value))
        if value > most:
            raise ConfigError("config key %r asks for more than %d %s"
                              % (key, most, unit))
        return int(value)
    return coerce


def _as_choice(options):
    def coerce(value, key):
        if value not in options:
            raise ConfigError("config key %r must be one of %s, got %r"
                              % (key, sorted(options), value))
        return value
    return coerce


def _as_path(value, key):
    if not isinstance(value, str) or not value:
        raise ConfigError("config key %r must be a path string" % (key,))
    return value


_GRID_SCHEMA = dict.fromkeys(("start", "stop", "step"), (..., _as_float))


def _as_grid(value, key):
    """Normalize a grid spec: {start, stop, step} or an explicit list."""
    if isinstance(value, dict):
        spec = read_fields(value, _GRID_SCHEMA, "grid %r" % (key,),
                           ConfigError, key + ".")
        start, stop, step = spec.values()
        if step <= 0.0:
            raise ConfigError("grid %r step must be positive" % (key,))
        if stop < start:
            raise ConfigError("grid %r has stop < start" % (key,))
        _check_size(_grid_count(start, stop, step), key)
        return spec
    if isinstance(value, list):
        _check_size(len(value), key)
        pts = [_as_float(v, key) for v in value]
        if not pts:
            raise ConfigError("grid %r is empty" % (key,))
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ConfigError("grid %r must be strictly increasing" % (key,))
        return pts
    raise ConfigError("grid %r must be {start, stop, step} or a list"
                      % (key,))


def _as_float_list(value, key):
    if not isinstance(value, list) or not value:
        raise ConfigError("config key %r must be a non-empty list" % (key,))
    _check_size(len(value), key)
    return [_as_float(v, key) for v in value]


def _as_scheme_list(value, key):
    if not isinstance(value, list) or not value:
        raise ConfigError("config key %r must be a non-empty list" % (key,))
    for v in value:
        if v not in ("hom", "classical"):
            raise ConfigError("config key %r entries must be 'hom' or "
                              "'classical', got %r" % (key, v))
    if len(set(value)) != len(value):
        raise ConfigError("config key %r has duplicate entries" % (key,))
    return list(value)


# The operating point an automatic calibration balances the splitter at;
# also the defaults of the `calibrate` flags.
CALIBRATION_DEFAULTS = {"target_ns": 1.31, "wavelength_nm": 800.0,
                        "theta_deg": 70.0}
_CALIBRATION_SCHEMA = {key: (default, _as_float)
                       for key, default in CALIBRATION_DEFAULTS.items()}


def _as_calibration(value, key):
    return read_fields({} if value is None else value, _CALIBRATION_SCHEMA,
                       "calibration", ConfigError, key + ".")


# Shared keys available to every physics subcommand.
_COMMON_SCHEMA = {
    "stack_path": (None, or_null(_as_path)),
    "calibration": (None, _as_calibration),
    "polarization": ("tm", _as_choice(("tm", "te"))),
    "wavelength_nm": (800.0, _as_float),
    "theta_deg": (70.0, _as_float),
}

_DEFAULT_NS_GRID = {"start": 1.25, "stop": 1.34, "step": 1e-3}
_DEFAULT_LAMBDA_GRID = {"start": 790.0, "stop": 810.0, "step": 0.5}
_DEFAULT_THETA_GRID = {"start": 60.0, "stop": 80.0, "step": 0.05}

def load_config(path, command) -> dict:
    """Read, validate and normalize a JSON configuration file."""
    return read_fields(read_json(path, "config", ConfigError),
                       COMMANDS[command][3], "config", ConfigError)


def _grid_count(start, stop, step):
    """Points of the grid {start, stop, step}; inf when no int holds it."""
    steps = (stop - start) / step + 1e-9
    return math.floor(steps) + 1 if math.isfinite(steps) else math.inf


def grid_values(spec) -> np.ndarray:
    """Materialize a normalized grid spec into an ascending array."""
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    start, stop, step = spec["start"], spec["stop"], spec["step"]
    return start + step * np.arange(_grid_count(start, stop, step))


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    """A '#'-line or stdout scalar, printed as a CSV cell of its kind."""
    return _KIND_FORMATS[np.asarray(value).dtype.kind] % value


def write_csv(path, header, columns, meta_lines=()):
    """One CSV table: '#' metadata lines, the header line, one row per
    index of the columns, each column in the format of its dtype kind.
    ValueError rejects another kind or unequal lengths before writing."""
    columns = [np.asarray(column) for column in columns]
    formats = [_KIND_FORMATS.get(column.dtype.kind) for column in columns]
    if None in formats or len({len(column) for column in columns}) > 1:
        found = [(column.dtype.name, len(column)) for column in columns]
        raise ValueError("%s: columns (dtype, length) %s need one length and "
                         "a dtype kind in %s"
                         % (path, found, "".join(_KIND_FORMATS)))
    fmt = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in meta_lines:
            f.write("# %s\n" % line)
        f.write(",".join(header) + "\n")
        f.writelines(fmt % row for row in zip(*(column.tolist()
                                                 for column in columns)))


def run_identifier(command, cfg) -> str:
    """Deterministic id: a digest of the command, config and version."""
    payload = json.dumps({"command": command, "config": cfg,
                          "version": __version__}, sort_keys=True)
    return sha256(payload.encode("utf-8")).hexdigest()[:16]


def _stack_summary(stack) -> dict:
    d_metal, d_sample = sensor_thicknesses(stack)
    return {"d_metal_nm": d_metal, "d_sample_nm": d_sample,
            "layer_names": [layer.material.name for layer in stack.layers]}


def write_metadata(out_dir, command, cfg, run_id, stack, cal_info, outputs):
    meta = {
        "command": command,
        "config": cfg,
        "run_id": run_id,
        "version": __version__,
        "stack": _stack_summary(stack),
        "calibration": cal_info,
        "tolerances": REPORTED_TOLERANCES,
        "outputs": sorted(outputs),
    }
    write_json(os.path.join(out_dir, command + "_run.json"), meta)


def _resolve_stack(cfg):
    """The operating stack plus a record of where it came from.

    A stack_path short-circuits calibration (the file is trusted to
    describe a balanced splitter) but must hold the dual-film layout the
    outputs label, which tmm.sensor_thicknesses, its one reader, checks;
    otherwise the default geometry is calibrated at the configured
    target and the result recorded.
    """
    if cfg["stack_path"] is not None:
        return (load_stack(cfg["stack_path"], check=sensor_thicknesses),
                {"source": "stack_path", "path": cfg["stack_path"]})
    return _calibrate(cfg["calibration"], cfg["polarization"])


def _calibrate(cal, polarization):
    """The stack balanced at operating point cal, and its metadata record."""
    stack, residual = calibrate_stack(wavelength_nm=cal["wavelength_nm"],
                                      theta_deg=cal["theta_deg"],
                                      n_s_target=cal["target_ns"],
                                      polarization=polarization)
    d_metal, d_sample = sensor_thicknesses(stack)
    return stack, {"source": "auto", **cal, "d_metal_nm": d_metal,
                   "d_sample_nm": d_sample, "residual": residual}


def _prepare_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w", encoding="utf-8") as f:
            f.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError("output directory %r is not writable: %s"
                          % (path, exc)) from exc


# ---------------------------------------------------------------------------
# subcommands: calibrate, then one body per physics subcommand and the
# pipeline that runs them
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    # checked as config values are: nan and inf exit 1
    cfg = {key: _as_float(getattr(args, key), key)
           for key in CALIBRATION_DEFAULTS}
    stack, info = _calibrate(cfg, "tm")
    print("calibrated: d_metal_nm=%s d_sample_nm=%s residual=%s"
          % tuple(_fmt_cell(info[key])
                  for key in ("d_metal_nm", "d_sample_nm", "residual")))
    if args.out is not None:
        _prepare_out_dir(args.out)
        run_id = run_identifier("calibrate", cfg)
        stack_file = os.path.join(args.out, "calibrated_stack.json")
        save_stack(stack, stack_file)
        write_metadata(args.out, "calibrate", cfg, run_id, stack, info,
                       ["calibrated_stack.json"])
        print("wrote %s" % stack_file)
    return 0


class Table(Record):
    """One CSV a body returns: `header` names the arrays in `columns`; its
    '#' lines are the shared header, then `notes`, then `columns: <legend>`."""

    name: str
    header: tuple
    columns: tuple
    legend: str
    notes: tuple = ()


def _spectrum(cfg, stack):
    theta = grid_values(cfg["theta_grid_deg"])
    resp = stack_response(stack, cfg["wavelength_nm"], theta, cfg["n_s"],
                          cfg["polarization"])
    validate_points(resp.T, resp.R, resp.phi_tr)  # the raw T, R are written
    return "%d angles" % len(theta), [Table(
        "spectrum.csv", ("theta_deg", "T", "R", "A"),
        (theta, resp.T, resp.R, 1.0 - resp.T - resp.R),
        "theta_deg (incidence angle), T (transmittance), R (reflectance), "
        "A (absorbed fraction 1-T-R)")]


def _coincidence(cfg, stack):
    ns = grid_values(cfg["n_s_grid"])
    resp = stack_response(stack, cfg["wavelength_nm"], cfg["theta_deg"], ns,
                          cfg["polarization"])
    T, R, phi = validate_points(resp.T, resp.R, resp.phi_tr)
    clicks = hom_click_distribution(T, R, phi)
    return "%d index points" % len(ns), [Table(
        "coincidence.csv",
        ("n_s", "T", "R", "A", "abs_imbalance", "phi_tr", "p0_click",
         "p1_click", "p2_click"),
        (ns, T, R, 1.0 - T - R, np.abs(T - R), phi, *clicks.T),
        "n_s (sample index), T, R, A, abs_imbalance (|T-R|), phi_tr "
        "(transmission-reflection phase, rad), p0_click, p1_click, p2_click "
        "(threshold-detector click probabilities)")]


def _fisher(cfg, stack):
    ns = grid_values(cfg["n_s_grid"])
    i_h, i_c, m, jacobian, contracted = fisher_report(
        stack, cfg["wavelength_nm"], cfg["theta_deg"], ns,
        phi_ab=cfg["phi_ab"], polarization=cfg["polarization"])
    g, g_defined = defined_ratio(i_h - i_c, i_c)
    tables = [
        Table("fisher.csv",
              ("n_s", "i_hom", "i_classical", "g", "g_defined", "sigma_hom",
               "sigma_classical"),
              (ns, i_h, i_c, g, g_defined, precision_bound(i_h),
               precision_bound(i_c)),
              "n_s, i_hom (pair-probe information), i_classical "
              "(coherent-probe information), g (fractional enhancement, nan "
              "where undefined), g_defined (1 valid, 0 sentinel), sigma_hom, "
              "sigma_classical (per-trial precision bounds 1/sqrt(I))"),
        Table("decomposition.csv",
              ("n_s", "i_tt", "i_rr", "i_pp", "i_tr", "i_tp", "i_rp",
               "dt_dns", "dr_dns", "dphi_dns", "i_contracted"),
              (ns, m[:, 0, 0], m[:, 1, 1], m[:, 2, 2], m[:, 0, 1],
               m[:, 0, 2], m[:, 1, 2], *jacobian.T, contracted),
              "n_s, pair-probe information matrix over (T, R, phi_tr) "
              "(i_tt..i_rp), response derivatives d(T,R,phi_tr)/dn_s, and "
              "their contraction J.M.J (equals the direct information)"),
    ]
    if cfg["phi_ab_policy"] == "scan":
        frozen = cfg["phase_scan_phi_tr"]
        phi_ab, fisher, phi_opt, fisher_opt = phi_ab_scan(
            stack, cfg["wavelength_nm"], cfg["theta_deg"],
            cfg["phase_scan_ns"], n_points=cfg["phase_scan_points"],
            polarization=cfg["polarization"], phi_tr_assumption=frozen)
        tables.append(Table(
            "phase_scan.csv", ("phi_ab", "i_classical"), (phi_ab, fisher),
            "phi_ab (probe relative phase, rad), i_classical (coherent-probe "
            "information)",
            ("phase scan at n_s=%s: phi_opt=%s fisher_opt=%s "
             "phi_tr_assumption=%s"
             % (_fmt_cell(cfg["phase_scan_ns"]), _fmt_cell(phi_opt),
                _fmt_cell(fisher_opt),
                "actual" if frozen is None else _fmt_cell(frozen)),)))
    return "%d index points" % len(ns), tables


def _in_blocks(evaluate, n_rows, points_per_row):
    """evaluate(rows) over row slices of at most BLOCK_POINTS points (one
    row at least), each returned array joined on the leading axis; cells
    are independent, so blocks leave the bytes as they are.  An error
    keeps its class and gains its block's grid rows, from whose first
    row its grid index counts."""
    per_block, parts = max(1, BLOCK_POINTS // points_per_row), []
    for start in range(0, n_rows, per_block):
        try:
            parts.append(evaluate(slice(start, start + per_block)))
        except HomsensorError as exc:  # its grid index counts in the block
            raise type(exc)("%s (block of grid rows %d..%d)" % (
                exc, start, min(start + per_block, n_rows) - 1)) from exc
    return tuple(map(np.concatenate, zip(*parts)))


def _map(cfg, stack):
    ns = grid_values(cfg["n_s_grid"])
    lams = grid_values(cfg["wavelength_grid_nm"])
    i_h, i_c = _in_blocks(lambda block: continuum_fisher(
        stack, single_frequency(lams[block, None]), cfg["theta_deg"], ns,
        cfg["phi_ab"], cfg["polarization"]), len(lams), 2 * len(ns))
    g, defined = defined_ratio(i_h - i_c, i_c)
    lam_mesh, ns_mesh = np.meshgrid(lams, ns, indexing="ij")
    return "%d x %d cells" % (len(lams), len(ns)), [Table(
        "map.csv",
        ("wavelength_nm", "n_s", "i_hom", "i_classical", "g", "g_defined"),
        tuple(a.ravel() for a in (lam_mesh, ns_mesh, i_h, i_c, g, defined)),
        "wavelength_nm, n_s, i_hom, i_classical, g (fractional enhancement, "
        "nan where the coherent information vanishes), g_defined (1 valid, "
        "0 sentinel)",
        ("grid: %d wavelengths x %d index points, row-major in wavelength"
         % (len(lams), len(ns)),))]


def _budget(cfg, stack):
    sources = load_budget_sources(cfg["sources_path"])
    c, slope = uncertainty_budget(stack, wavelength_nm=cfg["wavelength_nm"],
                                  theta_deg=cfg["theta_deg"],
                                  n_analyte=cfg["n_analyte"], sources=sources,
                                  polarization=cfg["polarization"])
    c = c.tolist()
    sigma = [c_k * src.s / src.divisor for src, c_k in zip(sources, c)]
    rows = [(src.name, src.kind, src.s, src.unit, src.divisor, c_k, sigma_k,
             src.reference_c, src.reference_sigma,
             src.reference_c * src.s / src.divisor)
            for src, c_k, sigma_k in zip(sources, c, sigma)]
    return "%d sources" % len(rows), [Table(
        "budget.csv",
        ("name", "kind", "s", "unit", "divisor", "c", "sigma", "reference_c",
         "reference_sigma", "sigma_from_reference"),
        tuple(zip(*rows)),  # no columns, and so no rows, without sources
        "name, kind, s (disturbance size), unit, divisor, c (computed "
        "sensitivity, RIU per unit), sigma (c*s/divisor), reference_c, "
        "reference_sigma (externally quoted values, nan when absent), "
        "sigma_from_reference (reference_c*s/divisor)",
        ("signal_slope=%s total_sigma=%s"
         % (_fmt_cell(slope),
            _fmt_cell(math.sqrt(sum(x ** 2 for x in sigma)))),))]


def _continuum(cfg, stack):
    ns = grid_values(cfg["n_s_grid"])
    lam0, theta, pol, phi_ab, nodes = (cfg[key] for key in (
        "wavelength_nm", "theta_deg", "polarization", "phi_ab", "n_nodes"))

    def pair(grid):
        return dict(zip(("hom", "classical"), _in_blocks(
            lambda block: continuum_fisher(stack, grid, theta, ns[block],
                                           phi_ab, pol),
            len(ns), 2 * grid.weights.size)))

    i_single = pair(single_frequency(lam0))
    blocks = []  # the columns of each (bandwidth, scheme) block of rows
    for dlam in cfg["delta_lambda_nm_list"]:
        i_cont = pair(quadrature_grid(stack, lam0, dlam, nodes, cfg["span"]))
        for scheme in cfg["schemes"]:
            d, defined = defined_ratio(
                np.abs(i_single[scheme] - i_cont[scheme]), i_single[scheme])
            blocks.append((np.full(len(ns), dlam), np.full(len(ns), scheme),
                           ns, i_single[scheme], i_cont[scheme], d, defined))
    columns = tuple(map(np.concatenate, zip(*blocks)))
    return "%d cells" % len(columns[0]), [Table(
        "continuum.csv",
        ("delta_lambda_nm", "scheme", "n_s", "i_single", "i_continuum", "d",
         "d_defined"),
        columns,
        "delta_lambda_nm (FWHM bandwidth), scheme, n_s, i_single "
        "(single-frequency information), i_continuum (finite-bandwidth "
        "information), d (relative drift |i_single-i_continuum|/i_single, "
        "nan where undefined), d_defined (1 valid, 0 sentinel)")]


# name: (help text, body (cfg, stack) -> (summary, [Table]), config keys
# echoed on the settings line of every CSV the subcommand writes, config
# schema {key: (default, coerce)})
COMMANDS = {
    "spectrum": ("angle sweep of T, R, A", _spectrum,
                 ("wavelength_nm", "n_s", "polarization"), {
                     **_COMMON_SCHEMA,
                     "n_s": (1.33, _as_float),
                     "theta_grid_deg": (_DEFAULT_THETA_GRID, _as_grid)}),
    "coincidence": ("index sweep of two-photon click statistics",
                    _coincidence,
                    ("wavelength_nm", "theta_deg", "polarization"), {
                        **_COMMON_SCHEMA,
                        "n_s_grid": (_DEFAULT_NS_GRID, _as_grid)}),
    "fisher": ("information figures, enhancement and decomposition",
               _fisher, ("wavelength_nm", "theta_deg", "polarization",
                         "phi_ab"), {
                   **_COMMON_SCHEMA,
                   "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
                   "phi_ab": (DEFAULT_PHI_AB, _as_float),
                   "phi_ab_policy": ("fixed", _as_choice(("fixed", "scan"))),
                   "phase_scan_ns": (1.30, _as_float),
                   "phase_scan_points": (721, _as_count("phase scan",
                                                         "points")),
                   # The scan freezes the response phase at pi/2 by
                   # default (the quarter-wave diagnostic convention, a
                   # default of this scan only: the decomposition uses the
                   # actual phase); null scans with the actual response
                   # phase instead.
                   "phase_scan_phi_tr": (math.pi / 2.0, or_null(_as_float))}),
    "map": ("enhancement over a wavelength x index grid", _map,
            ("theta_deg", "polarization", "phi_ab"), {
                **_COMMON_SCHEMA,
                "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
                "wavelength_grid_nm": (_DEFAULT_LAMBDA_GRID, _as_grid),
                "phi_ab": (DEFAULT_PHI_AB, _as_float)}),
    "budget": ("instrumental uncertainty budget", _budget,
               ("n_analyte", "wavelength_nm", "theta_deg"), {
                   **_COMMON_SCHEMA,
                   "n_analyte": (1.32, _as_float),
                   "sources_path": (None, or_null(_as_path))}),
    "continuum": ("finite-bandwidth information drift", _continuum,
                  ("wavelength_nm", "theta_deg", "polarization", "phi_ab",
                   "n_nodes", "span"), {
                      **_COMMON_SCHEMA,
                      "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
                      "delta_lambda_nm_list": ([9.4, 94.0], _as_float_list),
                      "schemes": (["hom", "classical"], _as_scheme_list),
                      "phi_ab": (DEFAULT_PHI_AB, _as_float),
                      "n_nodes": (DEFAULT_NODES, _as_count(
                          "quadrature", "nodes", MAX_NODES)),
                      "span": (DEFAULT_SPAN, _as_float)}),
}


def run_command(args) -> int:
    """Run one physics subcommand: config -> stack -> body -> CSV tables,
    run metadata and a one-line summary on stdout."""
    _, body, settings, _ = COMMANDS[args.command]
    cfg = load_config(args.config, args.command)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier(args.command, cfg)
    summary, tables = body(cfg, stack)
    _prepare_out_dir(args.out)  # a failed run leaves no directory behind
    header = (
        "homsensor %s output (version %s)" % (args.command, __version__),
        "run_id: %s" % run_id,
        "stack: d_metal_nm=%s d_sample_nm=%s"
        % tuple(map(_fmt_cell, sensor_thicknesses(stack))),
        " ".join("%s=%s" % (key, _fmt_cell(cfg[key]))
                 for key in settings),
    )
    for table in tables:
        write_csv(os.path.join(args.out, table.name), table.header,
                  table.columns,
                  header + table.notes + ("columns: " + table.legend,))
    names = sorted(table.name for table in tables)
    write_metadata(args.out, args.command, cfg, run_id, stack, cal_info,
                   names)
    print("%s: %s -> %s" % (args.command, summary,
                            ", ".join(os.path.join(args.out, name)
                                      for name in names)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsensor",
        description="Plasmonic beamsplitter sensing model: calibration, "
                    "response sweeps and information analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate",
                         help="balance the splitter (T = R) at the target")
    for key, help_text in (("target_ns", "sample index at which T = R"),
                           ("wavelength_nm", "operating wavelength in nm"),
                           ("theta_deg", "incidence angle in degrees")):
        cal.add_argument("--" + key.replace("_", "-"), type=float,
                         default=CALIBRATION_DEFAULTS[key],
                         help=help_text + " (default %(default)s)")
    cal.add_argument("--out", default=None,
                     help="directory for the stack JSON and run metadata")
    cal.set_defaults(func=cmd_calibrate)

    for name, (help_text, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=run_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print("calibration failed: %s" % (exc,), file=sys.stderr)
        return 2
    except (HomsensorError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
