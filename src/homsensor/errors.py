"""Exception hierarchy for the homsensor package.

Every error raised intentionally by this package derives from
:class:`HomsensorError`, so callers can catch one type at an API boundary.
The subclasses separate the three failure families that need different
handling: bad input data, physically inconsistent numbers, and solver
failures.
"""


class HomsensorError(Exception):
    """Base class for all package errors."""


class MaterialDataError(HomsensorError):
    """Raised when optical-constant data is malformed.

    Examples: a dispersion table with fewer than two rows, wavelengths
    that are not strictly increasing, a negative extinction coefficient,
    or a CSV file that cannot be parsed.
    """


class WavelengthRangeError(HomsensorError):
    """Raised when a tabulated material is evaluated outside its table.

    Linear interpolation is trusted inside the tabulated window only;
    extrapolation silently produces unphysical optical constants, so it
    is an error instead.
    """


class StackDefinitionError(HomsensorError):
    """Raised when a layer stack is structurally invalid.

    Examples: fewer than two layers, a finite thickness on a terminal
    half-space, a negative interior thickness, or a sample-layer index
    that does not point at an interior layer.
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
    """Raised for malformed run configuration: unknown keys, wrong types,
    missing required entries, or grids that would be empty."""
