"""Seeded workload inputs: the configs each workload hands to the CLI.

A workload is a fixed list of `homsensor` invocations.  The seed moves
only the start point of each grid, by a whole number of grid steps in
[0, MAX_SHIFT]; every grid size and every physics parameter stays at the
CLI default, so runs on different seeds do the same amount of work and
compare directly.  Because shifts are whole steps, every grid point of
every seed lies on a reference grid that extends the default grid by
MAX_SHIFT steps (`reference_configs`), which is what lets the checker
compare each output cell with a committed reference at any seed.

The program sees only the JSON files `write_configs` produces.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("sweeps", "grid", "spectral")

MAX_SHIFT = 8  # grid steps a seed may move a start point by

# CLI default grids as (start, step, count); see homsensor.cli._DEFAULT_*.
DEFAULT_GRIDS = {
    "theta_grid_deg": (60.0, 0.05, 401),
    "n_s_grid": (1.25, 1e-3, 91),
    "wavelength_grid_nm": (790.0, 0.5, 41),
}

# Subcommands per workload, each with the grids the seed moves and the
# config keys it sets on top of the CLI defaults.  Workloads that use
# the fixture stack skip calibration through `stack_path`.
_PLAN = {
    "sweeps": (
        ("spectrum", ("theta_grid_deg",), {}),
        ("coincidence", ("n_s_grid",), {}),
        ("fisher", ("n_s_grid",), {"phi_ab_policy": "scan"}),
        ("budget", (), {}),
    ),
    "grid": (
        ("map", ("n_s_grid", "wavelength_grid_nm"), {}),
    ),
    "spectral": (
        ("continuum", ("n_s_grid",), {}),
    ),
}

_USES_FIXTURE = {"sweeps": False, "grid": True, "spectral": True}

# Data rows each subcommand writes per CSV at the default grid sizes.
_PHASE_SCAN_POINTS = 721
_BUDGET_SOURCES = 4
_CONTINUUM_CELLS_PER_NS = 4  # 2 bandwidths x 2 schemes


def _grid(start: float, step: float, count: int, shift: int) -> dict:
    first = round(start + shift * step, 10)
    return {"start": first, "stop": round(first + (count - 1) * step, 10),
            "step": step}


def grid_shifts(seed: int) -> dict:
    """Whole-step start shift per grid name, drawn from the seed."""
    rng = random.Random(seed)
    return {name: rng.randint(0, MAX_SHIFT) for name in sorted(DEFAULT_GRIDS)}


def _configs(workload: str, grids: dict, stack_path: str | None) -> list:
    out = []
    for command, names, extra in _PLAN[workload]:
        cfg = {name: grids[name] for name in names}
        cfg.update(extra)
        if _USES_FIXTURE[workload]:
            cfg["stack_path"] = stack_path
        out.append((command, cfg))
    return out


def configs(workload: str, seed: int, stack_path: str | None) -> list:
    """[(subcommand, config dict)] for one run of the workload."""
    if workload not in _PLAN:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    shifts = grid_shifts(seed)
    grids = {name: _grid(*spec, shifts[name])
             for name, spec in DEFAULT_GRIDS.items()}
    return _configs(workload, grids, stack_path)


def reference_configs(stack_path: str) -> list:
    """[(subcommand, config dict)] of every workload on the reference
    grids: each default grid extended by MAX_SHIFT steps, the union of
    the grids of all seeds."""
    grids = {name: _grid(start, step, count + MAX_SHIFT, 0)
             for name, (start, step, count) in DEFAULT_GRIDS.items()}
    return [item for workload in WORKLOADS
            for item in _configs(workload, grids, stack_path)]


def expected_rows(command: str) -> dict:
    """{csv name: data rows} one invocation writes at the default sizes."""
    n_ns = DEFAULT_GRIDS["n_s_grid"][2]
    return {
        "spectrum": {"spectrum.csv": DEFAULT_GRIDS["theta_grid_deg"][2]},
        "coincidence": {"coincidence.csv": n_ns},
        "fisher": {"fisher.csv": n_ns, "decomposition.csv": n_ns,
                   "phase_scan.csv": _PHASE_SCAN_POINTS},
        "budget": {"budget.csv": _BUDGET_SOURCES},
        "map": {"map.csv": n_ns * DEFAULT_GRIDS["wavelength_grid_nm"][2]},
        "continuum": {"continuum.csv": n_ns * _CONTINUUM_CELLS_PER_NS},
    }[command]


def uses_fixture(workload: str) -> bool:
    return _USES_FIXTURE[workload]


def write_configs(workload: str, seed: int, stack_path: str | None,
                  directory: str) -> list:
    """Write one JSON config per invocation; [(subcommand, config path)]."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for i, (command, cfg) in enumerate(configs(workload, seed, stack_path)):
        path = os.path.join(directory, "%d_%s.json" % (i, command))
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
            f.write("\n")
        out.append((command, path))
    return out
