"""Output checker: decides whether one CLI invocation succeeded.

An invocation fails when it exits non-zero, leaves a different file set
than its subcommand writes, writes a wrong header, a wrong number of
data rows or a ragged row, prints `nan` in a row whose flag column is
not 0, or writes a cell that differs from the committed reference by
more than REFERENCE_RTOL.  The references hold every subcommand's
output on grids that contain the grid points of every seed (see
workloads.reference_configs), so every cell of every seed is compared.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

# Relative tolerance of a cell against its reference, taken relative to
# the larger of the two values and of the column's largest magnitude in
# the reference (so cells near a zero crossing are judged on the
# column's scale).  A seed's grid points equal the reference grid's
# points only up to rounding of start + i * step; at the seed that moves
# cells by at most 6e-9 of the column scale.
REFERENCE_RTOL = 1e-7

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


@dataclass(frozen=True)
class Table:
    """Layout of one CSV: header, leading key columns, optional flag."""

    columns: tuple
    keys: int
    flag: str | None = None


TABLES = {
    "spectrum.csv": Table(("theta_deg", "T", "R", "A"), 1),
    "coincidence.csv": Table(
        ("n_s", "T", "R", "A", "abs_imbalance", "phi_tr", "p0_click",
         "p1_click", "p2_click"), 1),
    "fisher.csv": Table(
        ("n_s", "i_hom", "i_classical", "g", "g_defined", "sigma_hom",
         "sigma_classical"), 1, "g_defined"),
    "decomposition.csv": Table(
        ("n_s", "i_tt", "i_rr", "i_pp", "i_tr", "i_tp", "i_rp", "dt_dns",
         "dr_dns", "dphi_dns", "i_contracted"), 1),
    "phase_scan.csv": Table(("phi_ab", "i_classical"), 1),
    "budget.csv": Table(
        ("name", "kind", "s", "unit", "divisor", "c", "sigma", "reference_c",
         "reference_sigma", "sigma_from_reference"), 1),
    "map.csv": Table(
        ("wavelength_nm", "n_s", "i_hom", "i_classical", "g", "g_defined"),
        2, "g_defined"),
    "continuum.csv": Table(
        ("delta_lambda_nm", "scheme", "n_s", "i_single", "i_continuum", "d",
         "d_defined"), 3, "d_defined"),
}


def read_csv(path) -> tuple:
    """(header, rows) of a CLI table, skipping '#' metadata lines."""
    header, rows = None, []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(cells)
    return header, rows


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _key(cells, n) -> tuple:
    """Grid coordinates of a row, insensitive to last-digit rounding."""
    out = []
    for cell in cells[:n]:
        x = _number(cell)
        out.append(cell if x is None else "%.9g" % x)
    return tuple(out)


@lru_cache(maxsize=None)
def reference(name: str) -> tuple:
    """({row key: cells}, [column scale]) of a committed reference table.

    A column's scale is its largest finite magnitude (0 for text).
    """
    _, rows = read_csv(os.path.join(REFERENCE_DIR, name))
    keys = TABLES[name].keys
    scales = [0.0] * len(TABLES[name].columns)
    for row in rows:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None and math.isfinite(x):
                scales[j] = max(scales[j], abs(x))
    return {_key(row, keys): row for row in rows}, scales


def _close(x: float, y: float, scale: float = 0.0) -> bool:
    return x == y or (abs(x - y)
                      <= REFERENCE_RTOL * max(abs(x), abs(y), scale))


def _cells_close(a: str, b: str, scale: float) -> bool:
    if a == b:
        return True
    x, y = _number(a), _number(b)
    return x is not None and y is not None and _close(x, y, scale)


def check_table(path, name: str, rows_expected: int) -> tuple:
    """(data rows read, [problems]) for one CSV against its layout."""
    table = TABLES[name]
    header, rows = read_csv(path)
    if header != list(table.columns):
        return len(rows), ["%s: header %s" % (name, header)]
    problems = []
    if len(rows) != rows_expected:
        problems.append("%s: %d data rows, expected %d"
                        % (name, len(rows), rows_expected))
    flag = table.columns.index(table.flag) if table.flag else None
    ref, scales = reference(name)
    for i, row in enumerate(rows):
        where = "%s row %d" % (name, i + 1)
        if len(row) != len(table.columns):
            problems.append("%s: %d cells" % (where, len(row)))
            continue
        if "nan" in row and (flag is None or row[flag] != "0"):
            problems.append("%s: nan with flag %s"
                            % (where, "absent" if flag is None
                               else row[flag]))
        expect = ref.get(_key(row, table.keys))
        if expect is None:
            problems.append("%s: key %s not in reference"
                            % (where, row[:table.keys]))
            continue
        bad = [col for col, a, b, scale
               in zip(table.columns, row, expect, scales)
               if not _cells_close(a, b, scale)]
        if bad:
            problems.append("%s: %s differ from reference" % (where, bad))
    return len(rows), problems


def check_invocation(returncode: int, out_dir, command: str,
                     rows_expected: dict) -> tuple:
    """(data rows written, [problems]) for one subcommand run.

    rows_expected maps each CSV the subcommand writes to its row count;
    the run metadata file `<command>_run.json` is expected beside them.
    """
    problems = []
    if returncode != 0:
        problems.append("%s exited with %d" % (command, returncode))
    meta = command + "_run.json"
    try:
        present = set(os.listdir(out_dir))
    except OSError:
        present = set()
    expected = set(rows_expected) | {meta}
    if present != expected:
        problems.append("%s wrote %s, expected %s"
                        % (command, sorted(present), sorted(expected)))
    rows = 0
    for name in sorted(rows_expected):
        if name not in present:
            continue
        n, found = check_table(os.path.join(out_dir, name), name,
                               rows_expected[name])
        rows += n
        problems.extend(found)
    if meta in present:
        try:
            with open(os.path.join(out_dir, meta), encoding="utf-8") as f:
                outputs = json.load(f).get("outputs")
        except (OSError, ValueError, AttributeError) as exc:
            outputs = "unreadable (%s)" % (exc,)
        if outputs != sorted(rows_expected):
            problems.append("%s lists outputs %s" % (meta, outputs))
    return rows, problems


def _thicknesses(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [layer["thickness_nm"] for layer in json.load(f)["layers"]]


def check_calibration(returncode: int, out_dir, fixture_path) -> list:
    """Problems with a `calibrate --out` run: it must rebuild the fixture."""
    if returncode != 0:
        return ["calibrate exited with %d" % (returncode,)]
    try:
        got = _thicknesses(os.path.join(out_dir, "calibrated_stack.json"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["calibrated stack unreadable: %s" % (exc,)]
    want = _thicknesses(fixture_path)
    if len(got) != len(want) or not all(
            a == b or (None not in (a, b) and _close(a, b))
            for a, b in zip(got, want)):
        return ["calibrated thicknesses %s differ from the fixture %s"
                % (got, want)]
    return []
