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
in the key names, unknown keys are rejected) and write CSV tables plus
a JSON run-metadata file into the output directory.  Outputs are
deterministic: the same configuration produces byte-identical files,
with no wall-clock, locale, or ordering dependence.  Numeric cells are
printed with 12 significant digits; undefined ratios are emitted as
`nan` next to a zero flag column rather than dropped, so every grid in
every file is rectangular and complete.

Grids are evaluated in one process by broadcast library calls: `map`
makes one call per information scheme over the whole wavelength x index
mesh, and `continuum` one call per (bandwidth, scheme).

Exit status: 0 on success, 1 on configuration or physics errors, 2 on
calibration failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .continuum import continuum_fisher
from .errors import CalibrationError, ConfigError, HomsensorError
from .estimation import DEFAULT_NS_STEP, RATIO_FLOOR, fisher_classical, \
    fisher_hom, fisher_report, load_budget_sources, phi_ab_scan, \
    uncertainty_budget
from .quantum_stats import CLAMP_FLOOR, bs_point, hom_click_distribution
from .tmm import calibrate_stack, load_stack, save_stack, stack_response

CSV_FLOAT_FORMAT = "%.12g"

# Tolerances recorded in every metadata file, read from the library
# constants so a run can be audited from its outputs alone.
REPORTED_TOLERANCES = {
    "calibration_tol_riu": 1e-3,
    "derivative_step_riu": DEFAULT_NS_STEP,
    "probability_clamp": -CLAMP_FLOOR,
    "ratio_floor": RATIO_FLOOR,
}


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def _as_float(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("config key %r must be a number, got %r"
                          % (key, value))
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError("config key %r must be finite" % (key,))
    return x


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("config key %r must be an integer, got %r"
                          % (key, value))
    return int(value)


def _as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError("config key %r must be true or false" % (key,))
    return value


def _as_choice(options):
    def coerce(value, key):
        if value not in options:
            raise ConfigError("config key %r must be one of %s, got %r"
                              % (key, sorted(options), value))
        return value
    return coerce


def _as_optional_path(value, key):
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ConfigError("config key %r must be a path string" % (key,))
    return value


def _as_optional_float(value, key):
    return None if value is None else _as_float(value, key)


def _as_grid(value, key):
    """Normalize a grid spec: {start, stop, step} or an explicit list."""
    if isinstance(value, dict):
        unknown = sorted(set(value) - {"start", "stop", "step"})
        if unknown:
            raise ConfigError("grid %r has unknown keys %s" % (key, unknown))
        try:
            start = _as_float(value["start"], key + ".start")
            stop = _as_float(value["stop"], key + ".stop")
            step = _as_float(value["step"], key + ".step")
        except KeyError as exc:
            raise ConfigError("grid %r needs start, stop and step"
                              % (key,)) from exc
        if step <= 0.0:
            raise ConfigError("grid %r step must be positive" % (key,))
        if stop < start:
            raise ConfigError("grid %r has stop < start" % (key,))
        return {"start": start, "stop": stop, "step": step}
    if isinstance(value, list):
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


def _as_calibration(value, key):
    defaults = {"target_ns": 1.31, "wavelength_nm": 800.0, "theta_deg": 70.0}
    if value is None:
        return dict(defaults)
    if not isinstance(value, dict):
        raise ConfigError("config key %r must be an object" % (key,))
    unknown = sorted(set(value) - set(defaults))
    if unknown:
        raise ConfigError("calibration block has unknown keys %s"
                          % (unknown,))
    out = dict(defaults)
    for k, v in value.items():
        out[k] = _as_float(v, key + "." + k)
    return out


# Shared keys available to every physics subcommand.
_COMMON_SCHEMA = {
    "stack_path": (None, _as_optional_path),
    "calibration": (None, _as_calibration),
    "polarization": ("tm", _as_choice(("tm", "te"))),
    "wavelength_nm": (800.0, _as_float),
    "theta_deg": (70.0, _as_float),
    "deterministic": (True, _as_bool),
}

_DEFAULT_NS_GRID = {"start": 1.25, "stop": 1.34, "step": 1e-3}
_DEFAULT_LAMBDA_GRID = {"start": 790.0, "stop": 810.0, "step": 0.5}
_DEFAULT_THETA_GRID = {"start": 60.0, "stop": 80.0, "step": 0.05}

_SCHEMAS = {
    "spectrum": {
        **_COMMON_SCHEMA,
        "n_s": (1.33, _as_float),
        "theta_grid_deg": (_DEFAULT_THETA_GRID, _as_grid),
    },
    "coincidence": {
        **_COMMON_SCHEMA,
        "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
    },
    "fisher": {
        **_COMMON_SCHEMA,
        "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
        "phi_ab": (math.pi / 2.0, _as_float),
        "phi_ab_policy": ("fixed", _as_choice(("fixed", "scan"))),
        "phase_scan_ns": (1.30, _as_float),
        "phase_scan_points": (721, _as_int),
        # The scan freezes the response phase at pi/2 by default (the
        # quarter-wave diagnostic convention, a default of this scan only:
        # the decomposition uses the actual phase); null scans with the
        # actual response phase instead.
        "phase_scan_phi_tr": (math.pi / 2.0, _as_optional_float),
    },
    "map": {
        **_COMMON_SCHEMA,
        "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
        "wavelength_grid_nm": (_DEFAULT_LAMBDA_GRID, _as_grid),
        "phi_ab": (math.pi / 2.0, _as_float),
    },
    "budget": {
        **_COMMON_SCHEMA,
        "n_analyte": (1.32, _as_float),
        "sources_path": (None, _as_optional_path),
    },
    "continuum": {
        **_COMMON_SCHEMA,
        "n_s_grid": (_DEFAULT_NS_GRID, _as_grid),
        "delta_lambda_nm_list": ([9.4, 94.0], _as_float_list),
        "schemes": (["hom", "classical"], _as_scheme_list),
        "phi_ab": (math.pi / 2.0, _as_float),
        "n_nodes": (201, _as_int),
        "span": (5.0, _as_float),
    },
}


def load_config(path, command) -> dict:
    """Read, validate and normalize a JSON configuration file."""
    schema = _SCHEMAS[command]
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s"
                          % (path, exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config %s must hold a JSON object" % (path,))
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError("unknown config keys for %s: %s (accepted: %s)"
                          % (command, unknown, sorted(schema)))
    cfg = {}
    for key, (default, coerce) in schema.items():
        if key in raw:
            cfg[key] = coerce(raw[key], key)
        elif key == "calibration":
            cfg[key] = _as_calibration(None, key)
        else:
            cfg[key] = default
    if not cfg["deterministic"]:
        raise ConfigError("deterministic mode cannot be disabled")
    return cfg


def grid_values(spec) -> np.ndarray:
    """Materialize a normalized grid spec into an ascending array."""
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    start, stop, step = spec["start"], spec["stop"], spec["step"]
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return "nan"
    return CSV_FLOAT_FORMAT % x


def write_csv(path, columns, rows, meta_lines=()):
    """One CSV table: '#' metadata lines, a header line, data rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in meta_lines:
            f.write("# %s\n" % line)
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt_cell(v) for v in row) + "\n")


def run_identifier(command, cfg) -> str:
    """Deterministic id: a digest of the command, config and version."""
    payload = json.dumps({"command": command, "config": cfg,
                          "version": __version__}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _stack_summary(stack) -> dict:
    return {
        "d_metal_nm": float(stack.layers[1].thickness_nm),
        "d_sample_nm": float(stack.layers[2].thickness_nm),
        "layer_names": [layer.material.name for layer in stack.layers],
    }


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
    path = os.path.join(out_dir, command + "_run.json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")
    return path


def _meta_lines(command, run_id, stack, extra=()):
    lines = [
        "homsensor %s output (version %s)" % (command, __version__),
        "run_id: %s" % run_id,
        "stack: d_metal_nm=%s d_sample_nm=%s"
        % (_fmt_cell(stack.layers[1].thickness_nm),
           _fmt_cell(stack.layers[2].thickness_nm)),
    ]
    lines.extend(extra)
    return lines


def _resolve_stack(cfg):
    """The operating stack plus a record of where it came from.

    A stack_path short-circuits calibration (the file is trusted to
    describe a balanced splitter); otherwise the default geometry is
    calibrated at the configured target and the result recorded.
    """
    if cfg["stack_path"] is not None:
        stack = load_stack(cfg["stack_path"])
        return stack, {"source": "stack_path", "path": cfg["stack_path"]}
    cal = cfg["calibration"]
    result = calibrate_stack(wavelength_nm=cal["wavelength_nm"],
                             theta_deg=cal["theta_deg"],
                             n_s_target=cal["target_ns"],
                             polarization=cfg["polarization"])
    info = {
        "source": "auto",
        "target_ns": cal["target_ns"],
        "wavelength_nm": cal["wavelength_nm"],
        "theta_deg": cal["theta_deg"],
        "d_metal_nm": result.d_metal_nm,
        "d_sample_nm": result.d_sample_nm,
        "residual": result.residual,
    }
    return result.stack, info


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


def _defined_ratio(num, den):
    """Elementwise num / den, nan with flag 0 where den <= RATIO_FLOOR."""
    defined = den > RATIO_FLOOR
    return np.where(defined, num / np.where(defined, den, 1.0), np.nan), \
        defined


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    result = calibrate_stack(wavelength_nm=args.wavelength_nm,
                             theta_deg=args.theta_deg,
                             n_s_target=args.target_ns)
    print("calibrated: d_metal_nm=%s d_sample_nm=%s residual=%s"
          % (_fmt_cell(result.d_metal_nm), _fmt_cell(result.d_sample_nm),
             _fmt_cell(result.residual)))
    if args.out is not None:
        _prepare_out_dir(args.out)
        cfg = {"target_ns": args.target_ns,
               "wavelength_nm": args.wavelength_nm,
               "theta_deg": args.theta_deg}
        run_id = run_identifier("calibrate", cfg)
        stack_file = os.path.join(args.out, "calibrated_stack.json")
        save_stack(result.stack, stack_file)
        cal_info = {
            "source": "auto",
            "target_ns": args.target_ns,
            "wavelength_nm": args.wavelength_nm,
            "theta_deg": args.theta_deg,
            "d_metal_nm": result.d_metal_nm,
            "d_sample_nm": result.d_sample_nm,
            "residual": result.residual,
        }
        write_metadata(args.out, "calibrate", cfg, run_id, result.stack,
                       cal_info, ["calibrated_stack.json"])
        print("wrote %s" % stack_file)
    return 0


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config, "spectrum")
    _prepare_out_dir(args.out)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier("spectrum", cfg)

    theta = grid_values(cfg["theta_grid_deg"])
    resp = stack_response(stack, cfg["wavelength_nm"], theta, cfg["n_s"],
                          cfg["polarization"])
    T, R = np.asarray(resp.T), np.asarray(resp.R)
    A = 1.0 - T - R
    rows = [(th, t, r, a) for th, t, r, a in zip(theta, T, R, A)]
    meta = _meta_lines("spectrum", run_id, stack, [
        "wavelength_nm=%s n_s=%s polarization=%s"
        % (_fmt_cell(cfg["wavelength_nm"]), _fmt_cell(cfg["n_s"]),
           cfg["polarization"]),
        "columns: theta_deg (incidence angle), T (transmittance), "
        "R (reflectance), A (absorbed fraction 1-T-R)",
    ])
    write_csv(os.path.join(args.out, "spectrum.csv"),
              ["theta_deg", "T", "R", "A"], rows, meta)
    write_metadata(args.out, "spectrum", cfg, run_id, stack, cal_info,
                   ["spectrum.csv"])
    print("spectrum: %d angles -> %s" % (len(theta),
                                         os.path.join(args.out,
                                                      "spectrum.csv")))
    return 0


def cmd_coincidence(args) -> int:
    cfg = load_config(args.config, "coincidence")
    _prepare_out_dir(args.out)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier("coincidence", cfg)

    ns = grid_values(cfg["n_s_grid"])
    rows = []
    for n in ns:
        resp = stack_response(stack, cfg["wavelength_nm"], cfg["theta_deg"],
                              float(n), cfg["polarization"])
        point = bs_point(resp)
        clicks = hom_click_distribution(point)
        rows.append((n, point.T, point.R, 1.0 - point.T - point.R,
                     abs(point.T - point.R), point.phi_tr,
                     clicks.p0_click, clicks.p1_click, clicks.p2_click))
    meta = _meta_lines("coincidence", run_id, stack, [
        "wavelength_nm=%s theta_deg=%s polarization=%s"
        % (_fmt_cell(cfg["wavelength_nm"]), _fmt_cell(cfg["theta_deg"]),
           cfg["polarization"]),
        "columns: n_s (sample index), T, R, A, abs_imbalance (|T-R|), "
        "phi_tr (transmission-reflection phase, rad), p0_click, p1_click, "
        "p2_click (threshold-detector click probabilities)",
    ])
    write_csv(os.path.join(args.out, "coincidence.csv"),
              ["n_s", "T", "R", "A", "abs_imbalance", "phi_tr",
               "p0_click", "p1_click", "p2_click"], rows, meta)
    write_metadata(args.out, "coincidence", cfg, run_id, stack, cal_info,
                   ["coincidence.csv"])
    print("coincidence: %d index points -> %s"
          % (len(ns), os.path.join(args.out, "coincidence.csv")))
    return 0


def cmd_fisher(args) -> int:
    cfg = load_config(args.config, "fisher")
    _prepare_out_dir(args.out)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier("fisher", cfg)

    ns = grid_values(cfg["n_s_grid"])
    fisher_rows = []
    decomp_rows = []
    for n in ns:
        rep = fisher_report(stack, cfg["wavelength_nm"], cfg["theta_deg"],
                            float(n), phi_ab=cfg["phi_ab"],
                            polarization=cfg["polarization"])
        fisher_rows.append((n, rep.i_hom, rep.i_classical, rep.g,
                            1 if rep.g_defined else 0, rep.precision_hom,
                            rep.precision_classical))
        m, (dT, dR, dphi) = rep.decomposition, rep.derivs
        contracted = float(np.array([dT, dR, dphi])
                           @ m @ np.array([dT, dR, dphi]))
        decomp_rows.append((n, m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2],
                            m[1, 2], dT, dR, dphi, contracted))

    base_meta = [
        "wavelength_nm=%s theta_deg=%s polarization=%s phi_ab=%s"
        % (_fmt_cell(cfg["wavelength_nm"]), _fmt_cell(cfg["theta_deg"]),
           cfg["polarization"], _fmt_cell(cfg["phi_ab"])),
    ]
    outputs = ["fisher.csv", "decomposition.csv"]
    write_csv(os.path.join(args.out, "fisher.csv"),
              ["n_s", "i_hom", "i_classical", "g", "g_defined",
               "sigma_hom", "sigma_classical"], fisher_rows,
              _meta_lines("fisher", run_id, stack, base_meta + [
                  "columns: n_s, i_hom (pair-probe information), "
                  "i_classical (coherent-probe information), g (fractional "
                  "enhancement, nan where undefined), g_defined (1 valid, "
                  "0 sentinel), sigma_hom, sigma_classical (per-trial "
                  "precision bounds 1/sqrt(I))",
              ]))
    write_csv(os.path.join(args.out, "decomposition.csv"),
              ["n_s", "i_tt", "i_rr", "i_pp", "i_tr", "i_tp", "i_rp",
               "dt_dns", "dr_dns", "dphi_dns", "i_contracted"], decomp_rows,
              _meta_lines("fisher", run_id, stack, base_meta + [
                  "columns: n_s, pair-probe information matrix over "
                  "(T, R, phi_tr) (i_tt..i_rp), response derivatives "
                  "d(T,R,phi_tr)/dn_s, and their contraction J.M.J "
                  "(equals the direct information)",
              ]))

    if cfg["phi_ab_policy"] == "scan":
        scan = phi_ab_scan(stack, cfg["wavelength_nm"], cfg["theta_deg"],
                           cfg["phase_scan_ns"],
                           n_points=cfg["phase_scan_points"],
                           polarization=cfg["polarization"],
                           phi_tr_assumption=cfg["phase_scan_phi_tr"])
        scan_rows = list(zip(scan.phi_ab, scan.fisher))
        frozen = cfg["phase_scan_phi_tr"]
        write_csv(os.path.join(args.out, "phase_scan.csv"),
                  ["phi_ab", "i_classical"], scan_rows,
                  _meta_lines("fisher", run_id, stack, base_meta + [
                      "phase scan at n_s=%s: phi_opt=%s fisher_opt=%s "
                      "phi_tr_assumption=%s"
                      % (_fmt_cell(cfg["phase_scan_ns"]),
                         _fmt_cell(scan.phi_opt), _fmt_cell(scan.fisher_opt),
                         "actual" if frozen is None else _fmt_cell(frozen)),
                      "columns: phi_ab (probe relative phase, rad), "
                      "i_classical (coherent-probe information)",
                  ]))
        outputs.append("phase_scan.csv")

    write_metadata(args.out, "fisher", cfg, run_id, stack, cal_info, outputs)
    print("fisher: %d index points -> %s"
          % (len(ns), ", ".join(os.path.join(args.out, f)
                                for f in sorted(outputs))))
    return 0


def cmd_map(args) -> int:
    cfg = load_config(args.config, "map")
    _prepare_out_dir(args.out)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier("map", cfg)

    ns = grid_values(cfg["n_s_grid"])
    lams = grid_values(cfg["wavelength_grid_nm"])
    i_h = fisher_hom(stack, lams[:, None], cfg["theta_deg"], ns,
                     cfg["polarization"])
    i_c = fisher_classical(stack, lams[:, None], cfg["theta_deg"], ns,
                           phi_ab=cfg["phi_ab"],
                           polarization=cfg["polarization"])
    g, defined = _defined_ratio(i_h - i_c, i_c)
    lam_mesh, ns_mesh = np.meshgrid(lams, ns, indexing="ij")
    rows = zip(*(a.ravel() for a in (lam_mesh, ns_mesh, i_h, i_c, g,
                                     defined)))

    meta = _meta_lines("map", run_id, stack, [
        "theta_deg=%s polarization=%s phi_ab=%s"
        % (_fmt_cell(cfg["theta_deg"]), cfg["polarization"],
           _fmt_cell(cfg["phi_ab"])),
        "grid: %d wavelengths x %d index points, row-major in wavelength"
        % (len(lams), len(ns)),
        "columns: wavelength_nm, n_s, i_hom, i_classical, g (fractional "
        "enhancement, nan where the coherent information vanishes), "
        "g_defined (1 valid, 0 sentinel)",
    ])
    write_csv(os.path.join(args.out, "map.csv"),
              ["wavelength_nm", "n_s", "i_hom", "i_classical", "g",
               "g_defined"], rows, meta)
    write_metadata(args.out, "map", cfg, run_id, stack, cal_info, ["map.csv"])
    print("map: %d x %d cells -> %s"
          % (len(lams), len(ns), os.path.join(args.out, "map.csv")))
    return 0


def cmd_budget(args) -> int:
    cfg = load_config(args.config, "budget")
    _prepare_out_dir(args.out)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier("budget", cfg)

    sources = load_budget_sources(cfg["sources_path"])
    report = uncertainty_budget(stack, wavelength_nm=cfg["wavelength_nm"],
                                theta_deg=cfg["theta_deg"],
                                n_analyte=cfg["n_analyte"], sources=sources,
                                polarization=cfg["polarization"])
    rows = []
    for row in report.rows:
        src = row.source
        sigma_ref = src.reference_c * src.s / src.divisor \
            if math.isfinite(src.reference_c) else math.nan
        rows.append((src.name, src.kind, src.s, src.unit, src.divisor,
                     row.c, row.sigma, src.reference_c, src.reference_sigma,
                     sigma_ref))
    meta = _meta_lines("budget", run_id, stack, [
        "n_analyte=%s wavelength_nm=%s theta_deg=%s"
        % (_fmt_cell(cfg["n_analyte"]), _fmt_cell(cfg["wavelength_nm"]),
           _fmt_cell(cfg["theta_deg"])),
        "signal_slope=%s total_sigma=%s"
        % (_fmt_cell(report.signal_slope), _fmt_cell(report.total_sigma())),
        "columns: name, kind, s (disturbance size), unit, divisor, "
        "c (computed sensitivity, RIU per unit), sigma (c*s/divisor), "
        "reference_c, reference_sigma (externally quoted values, nan "
        "when absent), sigma_from_reference (reference_c*s/divisor)",
    ])
    write_csv(os.path.join(args.out, "budget.csv"),
              ["name", "kind", "s", "unit", "divisor", "c", "sigma",
               "reference_c", "reference_sigma", "sigma_from_reference"],
              rows, meta)
    write_metadata(args.out, "budget", cfg, run_id, stack, cal_info,
                   ["budget.csv"])
    print("budget: %d sources -> %s"
          % (len(rows), os.path.join(args.out, "budget.csv")))
    return 0


def cmd_continuum(args) -> int:
    cfg = load_config(args.config, "continuum")
    _prepare_out_dir(args.out)
    stack, cal_info = _resolve_stack(cfg)
    run_id = run_identifier("continuum", cfg)

    ns = grid_values(cfg["n_s_grid"])
    lam0, theta, pol = cfg["wavelength_nm"], cfg["theta_deg"], \
        cfg["polarization"]

    def single_frequency(scheme):
        if scheme == "hom":
            return fisher_hom(stack, lam0, theta, ns, pol)
        return fisher_classical(stack, lam0, theta, ns, phi_ab=cfg["phi_ab"],
                                polarization=pol)

    i_single = {scheme: single_frequency(scheme) for scheme in cfg["schemes"]}
    rows = []
    for dlam in cfg["delta_lambda_nm_list"]:
        for scheme in cfg["schemes"]:
            i_cont = continuum_fisher(scheme, stack, lam0, dlam, theta, ns,
                                      phi_ab=cfg["phi_ab"], polarization=pol,
                                      n_nodes=cfg["n_nodes"],
                                      span=cfg["span"])
            d, defined = _defined_ratio(np.abs(i_single[scheme] - i_cont),
                                        i_single[scheme])
            rows.extend(zip([dlam] * len(ns), [scheme] * len(ns), ns,
                            i_single[scheme], i_cont, d, defined))

    meta = _meta_lines("continuum", run_id, stack, [
        "wavelength_nm=%s theta_deg=%s polarization=%s phi_ab=%s "
        "n_nodes=%d span=%s"
        % (_fmt_cell(cfg["wavelength_nm"]), _fmt_cell(cfg["theta_deg"]),
           cfg["polarization"], _fmt_cell(cfg["phi_ab"]), cfg["n_nodes"],
           _fmt_cell(cfg["span"])),
        "columns: delta_lambda_nm (FWHM bandwidth), scheme, n_s, "
        "i_single (single-frequency information), i_continuum "
        "(finite-bandwidth information), d (relative drift "
        "|i_single-i_continuum|/i_single, nan where undefined), "
        "d_defined (1 valid, 0 sentinel)",
    ])
    write_csv(os.path.join(args.out, "continuum.csv"),
              ["delta_lambda_nm", "scheme", "n_s", "i_single", "i_continuum",
               "d", "d_defined"], rows, meta)
    write_metadata(args.out, "continuum", cfg, run_id, stack, cal_info,
                   ["continuum.csv"])
    print("continuum: %d cells -> %s"
          % (len(rows), os.path.join(args.out, "continuum.csv")))
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
    cal.add_argument("--target-ns", type=float, default=1.31,
                     help="sample index at which T = R (default 1.31)")
    cal.add_argument("--wavelength-nm", type=float, default=800.0,
                     help="operating wavelength in nm (default 800)")
    cal.add_argument("--theta-deg", type=float, default=70.0,
                     help="incidence angle in degrees (default 70)")
    cal.add_argument("--out", default=None,
                     help="directory for the stack JSON and run metadata")
    cal.set_defaults(func=cmd_calibrate)

    bodies = {
        "spectrum": (cmd_spectrum, "angle sweep of T, R, A"),
        "coincidence": (cmd_coincidence,
                        "index sweep of two-photon click statistics"),
        "fisher": (cmd_fisher,
                   "information figures, enhancement and decomposition"),
        "map": (cmd_map, "enhancement over a wavelength x index grid"),
        "budget": (cmd_budget, "instrumental uncertainty budget"),
        "continuum": (cmd_continuum, "finite-bandwidth information drift"),
    }
    for name, (func, help_text) in bodies.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print("calibration failed: %s" % (exc,), file=sys.stderr)
        return 2
    except HomsensorError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
