"""Exception hierarchy and input checks of the homsensor package.

Every error raised intentionally by this package derives from
:class:`HomsensorError`, so callers can catch one type at an API boundary.
The subclasses separate the three failure families that need different
handling: bad input data, physically inconsistent numbers, and solver
failures.

The functions at the end locate the packaged data files, write every
JSON output file (write_json: the saved stack and each run's metadata)
and are the one set of checks every JSON input file (config, stack,
budget sources, the packaged gold table) passes; each check names
`what` it checks and raises the caller's `error` class.  Every JSON
object of those files is read by read_fields, against a schema
{key: (default, coerce)} whose default ... marks a required key (only
a stack's material object, whose keys are exclusive, calls check_keys
itself), and every file but the config by read_file, which names the
file in front of any error its reader raises.

first_bad is the one refusal of an array's bad elements: every check
of a grid (a splitter point, an index, a wavelength, an angle, a
thickness, a transfer-matrix entry) names its first flagged cell, in C
order, with that cell's values and its grid index.
"""

import json
import math
import os

import numpy as np


class HomsensorError(Exception):
    """Base class for all package errors."""


class MaterialDataError(HomsensorError):
    """Raised when optical-constant data is malformed.

    Examples: a dispersion table with fewer than two rows, wavelengths
    that are not strictly increasing, a negative extinction coefficient,
    or a packaged material table file that fails the input checks.
    """


class WavelengthRangeError(HomsensorError):
    """Raised when a tabulated material is evaluated outside its table,
    or a stack at a wavelength that is not positive.

    Linear interpolation is trusted inside the tabulated window only;
    extrapolation silently produces unphysical optical constants, so it
    is an error instead.
    """


class StackDefinitionError(HomsensorError):
    """Raised when a layer stack is structurally invalid.

    Examples: fewer than two layers, a finite thickness on a terminal
    half-space, a negative interior thickness, a sample-layer index
    that does not point at an interior layer, or a stack file that
    fails the input checks.
    """


class UnphysicalPointError(HomsensorError):
    """Raised when computed response numbers violate a physical bound.

    Used for probabilities below the numerical-noise floor, intensity
    coefficients outside [0, 1 + tol], or a beamsplitter point whose
    interference terms exceed the passivity bound.
    """


class CalibrationError(HomsensorError):
    """Raised when the thickness calibration cannot find a balanced point.

    Carries enough context in the message to diagnose whether the search
    window was exhausted or the balance condition could not be bracketed.
    """


class UndefinedRatioError(HomsensorError):
    """Raised when a ratio has a vanishing denominator, e.g. the budget's
    sensitivity ratios at an operating point where the coincidence
    signal has no index slope."""


class ConfigError(HomsensorError):
    """Raised for a malformed run configuration or budget-sources file:
    unknown keys, wrong types, missing entries, or empty grids."""


def first_bad(bad, error, message, *values):
    """Raise error(message % values) if the mask bad holds a True: each
    value, broadcast to bad's shape, taken at the first True cell in C
    order, and the message followed by " at grid index (i, ...)" unless
    bad is 0-d."""
    bad = np.asarray(bad)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise error(message % tuple(np.broadcast_to(v, bad.shape).item(*index)
                                    for v in values)
                    + (" at grid index %s" % (index,) if index else ""))


def package_data(name) -> str:
    """The path of the file `name` under the package's data/."""
    return os.path.join(os.path.dirname(__file__), "data", name)


def read_json(path, what, error):
    """The JSON value in the UTF-8 file at path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise error("%s %s is not valid UTF-8 JSON: %s"
                    % (what, path, exc)) from exc


def read_file(path, what, error, read):
    """read(the JSON value in the UTF-8 file at path); a HomsensorError
    that read raises comes back as error, prefixed by what and path."""
    data = read_json(path, what, error)
    try:
        return read(data)
    except HomsensorError as exc:
        raise error("%s %s: %s" % (what, path, exc)) from exc


def write_json(path, data):
    """Write data to path as UTF-8 JSON: LF line ends, keys sorted, an
    indent of 2 and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def check_keys(obj, accepted, what, error):
    """obj, if it is a JSON object whose keys are all in accepted."""
    if not isinstance(obj, dict):
        raise error("%s must be a JSON object, got %s"
                    % (what, type(obj).__name__))
    unknown = sorted(set(obj) - set(accepted))
    if unknown:
        raise error("unknown %s keys: %s (accepted: %s)"
                    % (what, unknown, sorted(accepted)))
    return obj


def read_fields(obj, schema, what, error, prefix="") -> dict:
    """The fields of JSON object obj by schema {key: (default, coerce)}:
    obj may hold the schema's keys only, and must hold each key whose
    default is ...; every key, given or defaulted, is
    coerce(value, prefix + key)."""
    check_keys(obj, schema, what, error)
    fields = {}
    for key, (default, coerce) in schema.items():
        if key not in obj and default is ...:
            raise error("%s: missing key %r" % (what, key))
        fields[key] = coerce(obj.get(key, default), prefix + key)
    return fields


def as_is(value, what):
    """value unchecked: the coerce of a key checked later or never."""
    return value


def check_list(value, what, error):
    """value, if it is a JSON list."""
    if not isinstance(value, list):
        raise error("%s must be a JSON list, got %s"
                    % (what, type(value).__name__))
    return value


def as_number(value, what, error) -> float:
    """The number rule: an int or float, not a bool, as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error("%s must be a number, got %r" % (what, value))
    try:
        x = float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise error("%s: %s" % (what, exc)) from exc
    if not math.isfinite(x):
        raise error("%s must be finite, got %r" % (what, x))
    return x


def as_numbers(values, what, error) -> list:
    """The list form of the number rule: a JSON list of numbers."""
    return [as_number(x, what, error)
            for x in check_list(values, what, error)]


def as_name(value, what, error) -> str:
    """value, if it is a non-empty string."""
    if not isinstance(value, str) or not value:
        raise error("%s must be a non-empty string, got %r" % (what, value))
    return value


def or_null(check):
    """check, except that a JSON null passes as None."""
    return lambda value, *args: None if value is None else check(value, *args)
