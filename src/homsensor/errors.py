"""Exception hierarchy and input checks of the homsensor package.

Every error raised intentionally by this package derives from
:class:`HomsensorError`, so callers can catch one type at an API boundary.
The subclasses separate the three failure families that need different
handling: bad input data, physically inconsistent numbers, and solver
failures.

The functions at the end locate the packaged data files and are the
one set of checks every JSON input file (config, stack, budget sources,
the packaged gold table) passes; each check names `what` it checks and
raises the caller's `error` class.
"""

import json
import math
import os


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
