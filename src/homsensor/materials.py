"""Optical materials: dispersion tables and constant-index media.

A material is either a tabulated complex refractive index n + ik sampled
on a strictly increasing vacuum-wavelength grid (linear interpolation in
between, hard error outside), or a wavelength-independent constant.
The package ships the Johnson & Christy (1972) gold table as its default
metal; everything else in a typical sensor stack (glass prism, aqueous
analyte) is modeled as a constant.  table_from_dict reads the one JSON
form of a table, in stack files and the packaged gold file alike.

Sign convention: complex indices are written n + ik with k >= 0, paired
with exp(-i omega t) time dependence, so absorbing media attenuate
forward-propagating waves.
"""

from __future__ import annotations

import numpy as np

from .errors import (MaterialDataError, WavelengthRangeError, as_numbers,
                     check_keys, package_data, read_json)
from .records import Record

# ---------------------------------------------------------------------------
# material table
# ---------------------------------------------------------------------------

class MaterialTable(Record):
    """Tabulated dispersion: n(lambda) + i k(lambda) on a wavelength grid.

    Attributes
    ----------
    wavelength_nm : ndarray
        Strictly increasing vacuum wavelengths in nm, at least two rows.
    n, k : ndarray
        Real index and extinction coefficient at each wavelength, k >= 0.
    name : str
        Short label used in error messages and file metadata.
    """

    wavelength_nm: np.ndarray
    n: np.ndarray
    k: np.ndarray
    name: str = "table"

    def __post_init__(self):
        lam = np.asarray(self.wavelength_nm, dtype=float)
        n = np.asarray(self.n, dtype=float)
        k = np.asarray(self.k, dtype=float)
        object.__setattr__(self, "wavelength_nm", lam)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        if lam.ndim != 1 or lam.size < 2:
            raise MaterialDataError(
                "material %r needs at least two tabulated rows, got %d"
                % (self.name, lam.size))
        if n.shape != lam.shape or k.shape != lam.shape:
            raise MaterialDataError(
                "material %r: column lengths disagree" % (self.name,))
        if not (np.isfinite(lam).all() and np.isfinite(n).all()
                and np.isfinite(k).all()):
            raise MaterialDataError(
                "material %r contains non-finite entries" % (self.name,))
        if not np.all(np.diff(lam) > 0.0):
            raise MaterialDataError(
                "material %r: wavelengths must be strictly increasing"
                % (self.name,))
        if np.any(k < 0.0):
            raise MaterialDataError(
                "material %r: extinction coefficient must be >= 0"
                % (self.name,))

    @property
    def wavelength_min_nm(self) -> float:
        return float(self.wavelength_nm[0])

    @property
    def wavelength_max_nm(self) -> float:
        return float(self.wavelength_nm[-1])

    def index(self, wavelength_nm):
        """Complex refractive index at the given wavelength(s) in nm.

        Linear interpolation on n and k separately.  Raises
        WavelengthRangeError if any requested wavelength falls outside
        the tabulated window.
        """
        lam = np.asarray(wavelength_nm, dtype=float)
        if np.any(lam < self.wavelength_min_nm) or np.any(lam > self.wavelength_max_nm):
            raise WavelengthRangeError(
                "material %r tabulated on [%.3f, %.3f] nm, requested "
                "wavelength(s) reach [%.3f, %.3f] nm"
                % (self.name, self.wavelength_min_nm, self.wavelength_max_nm,
                   float(np.min(lam)), float(np.max(lam))))
        n = np.interp(lam, self.wavelength_nm, self.n)
        k = np.interp(lam, self.wavelength_nm, self.k)
        out = n + 1j * k
        if np.ndim(wavelength_nm) == 0:
            return complex(out)
        return out


# ---------------------------------------------------------------------------
# material wrapper (table or constant)
# ---------------------------------------------------------------------------

class Material(Record):
    """A dispersive (tabulated) or constant-index optical medium.

    constant is one complex index, stored as a complex, or an array of
    them, stored as a complex array: like an array thickness of a
    layer, an array index joins the broadcast grid of
    tmm.stack_response.  Every element must be finite, with Re(n) > 0
    and Im(n) >= 0.
    """

    name: str
    table: MaterialTable | None = None
    constant: complex | np.ndarray | None = None

    def __post_init__(self):
        if (self.table is None) == (self.constant is None):
            raise MaterialDataError(
                "material %r must define exactly one of table / constant"
                % (self.name,))
        if self.constant is not None:
            c = np.asarray(self.constant, dtype=complex)
            if not np.all(np.isfinite(c)):
                raise MaterialDataError(
                    "material %r: constant index must be finite" % (self.name,))
            if np.any(c.real <= 0.0):
                raise MaterialDataError(
                    "material %r: Re(n) must be positive" % (self.name,))
            if np.any(c.imag < 0.0):
                raise MaterialDataError(
                    "material %r: Im(n) must be >= 0 (passive medium)"
                    % (self.name,))
            object.__setattr__(self, "constant", c if c.ndim else complex(c))

    def index(self, wavelength_nm):
        """Complex index at wavelength(s) in nm.  A table's has the
        wavelengths' shape; a constant medium's is its constant, whatever
        the wavelengths' shape: a scalar, or an array whose shape joins
        the broadcast grid of tmm.stack_response."""
        if self.table is not None:
            return self.table.index(wavelength_nm)
        return self.constant

    def wavelength_window_nm(self) -> tuple[float, float] | None:
        """Valid wavelength window in nm, or None for a constant medium."""
        if self.table is None:
            return None
        return (self.table.wavelength_min_nm, self.table.wavelength_max_nm)


def constant_material(name: str, index) -> Material:
    """Convenience constructor for a non-dispersive medium; index is one
    complex index or an array of them (see Material)."""
    return Material(name=name, constant=index)


# ---------------------------------------------------------------------------
# the material-table format
# ---------------------------------------------------------------------------

def table_from_dict(d, name: str, what: str, error) -> MaterialTable:
    """The table a JSON object {wavelength_nm, n, k} of number lists holds;
    error names a bad key or number, or prefixes what to a MaterialTable
    check that fails; a missing column raises KeyError."""
    keys = ("wavelength_nm", "n", "k")
    check_keys(d, keys, what, error)
    columns = [as_numbers(d[key], what + "." + key, error) for key in keys]
    try:
        return MaterialTable(*columns, name=name)
    except MaterialDataError as exc:
        raise error("%s: %s" % (what, exc)) from exc


# ---------------------------------------------------------------------------
# bundled gold data
# ---------------------------------------------------------------------------

_gold_cache: list[Material] = []


def gold_jc() -> Material:
    """Gold from the Johnson & Christy (1972) thin-film measurements.

    P. B. Johnson and R. W. Christy, Phys. Rev. B 6, 4370 (1972), Table
    1: 49 rows spanning 0.64 to 6.60 eV (roughly 188 to 1937 nm, as
    lambda_nm = 1239.84193 / E_eV), shipped as the JSON {comment, table}
    in data/; a malformed file raises MaterialDataError naming it.  The
    instance is cached; tables are immutable.
    """
    if not _gold_cache:
        path = package_data("gold_johnson_christy_1972.json")
        data = read_json(path, "material table file", MaterialDataError)
        try:
            check_keys(data, ("comment", "table"), "material table",
                       MaterialDataError)
            table = table_from_dict(data["table"],
                                    "Au (Johnson & Christy 1972)", "table",
                                    MaterialDataError)
        except MaterialDataError as exc:
            raise MaterialDataError("material table file %s: %s"
                                    % (path, exc)) from exc
        except KeyError as exc:
            raise MaterialDataError("material table file %s: missing key %s"
                                    % (path, exc)) from exc
        _gold_cache.append(Material(name="Au", table=table))
    return _gold_cache[0]
