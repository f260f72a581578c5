"""Fisher information and precision analysis for index sensing.

Everything here quantifies how well the sample index n_s can be
estimated from photon counts behind the dual-film splitter.  The core
quantity is the (classical) Fisher information of an outcome
distribution P(outcome | n_s),

    I(n_s) = sum_outcomes  (d P / d n_s)^2 / P,

whose inverse square root bounds the standard deviation of any unbiased
single-shot estimate.  Derivatives are taken by central finite
differences in n_s; the denominator uses the midpoint average of the
two perturbed distributions, which is accurate to the same order as the
derivative and costs no extra model evaluation.

A probe is "click", "pair" (photon pairs, clicks or resolved) or a
CoherentInput; _probe_information reads its outcomes through the one
table quantum_stats.probe_outcomes, and every sum is _fisher_sum.
Provided on top of the raw information are:

* per-scheme evaluators for the photon-pair (two-photon interference)
  probe and the coherent probe, alone or both from one response,
* a decomposition of any probe's information over the splitter
  parameters (T, R, phi_tr), exposing which physical channel carries
  the signal (for the coherent probe it differentiates the two Poisson
  means),
* a report of both schemes, their enhancement and the decomposition,
* a scan of the coherent probe's relative phase, locating the phase
  that maximizes its information,
* an uncertainty budget converting instrumental disturbances (angle,
  prism index, polarization, film thickness) into equivalent index
  errors via sensitivity ratios of the coincidence signal.

All are array-first: the evaluators, the decomposition and the report
broadcast over wavelength, angle and n_s (a scalar input returns
floats), the scan over its phase grid, and the budget makes two
stack_response calls, one stencil over every sensor parameter and one
in the other polarization.  The others make one stack_response call
through tmm.ns_stencil (n_s + h, n_s - h and, for the decomposition,
n_s, on a trailing axis), validated once, which in the report feeds
all three.
defined_ratio is the one comparison with RATIO_FLOOR.

Some closed-form diagnostics are conventionally quoted for an idealized
balanced splitter with a quarter-wave transmission-reflection phase.
Operations that reproduce those diagnostics accept phi_tr_assumption,
which freezes the splitter phase at the given value (the index
dependence then enters through T and R only).  With the default None
the actual stack phase and its n_s dependence are used.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (ConfigError, UndefinedRatioError, as_number,
                     check_keys, check_list, package_data, read_json)
from .quantum_stats import (CLAMP_FLOOR, DEFAULT_PHI_AB, CoherentInput,
                            probe_outcomes, splitter_moments,
                            validate_points)
from .records import Record
from .tmm import (NS_STEP, LayerStack, ns_stencil, prism_index,
                  sensor_thicknesses, stack_response, stencil_derivatives,
                  with_sensor)

ZERO_PROB_FLOOR = -CLAMP_FLOOR  # outcomes below the clamp's noise: impossible
DERIV_FLOOR = 1e-8  # ~100 eps / (2 NS_STEP): a derivative's rounding noise
DEAD_INFO_SHARE = 1e-9    # warn when skipped outcomes hide this share of I
RATIO_FLOOR = 1e-12       # information below this leaves a ratio undefined
DECOMP_STEP = 1e-5        # step for (T, R, phi) partials
BUDGET_STEP = 1e-4        # step for budget sensitivities, per variable unit


# ---------------------------------------------------------------------------
# generic Fisher information from a parametric distribution
# ---------------------------------------------------------------------------

def _fisher_sum(d_a, d_b, p):
    """sum over the last axis of d_a d_b / p, skipping outcomes with
    p <= ZERO_PROB_FLOOR: the one Fisher sum of the module."""
    alive = p > ZERO_PROB_FLOOR
    return np.sum(np.where(alive, d_a * d_b / np.where(alive, p, 1.0), 0.0),
                  axis=-1)


def _information(values, step: float = NS_STEP):
    """Fisher information along the last axis from values at n_s + step
    and n_s - step at indices 0 and 1 of axis -2 (the ns_stencil order;
    a centre slice is not read); a 0-d result is a float.

    values hold outcome probabilities, or independent Poisson means
    (I = sum mu'^2 / mu is the same sum).  Entries with midpoint below
    ZERO_PROB_FLOOR are skipped; one whose derivative exceeds the noise
    level DERIV_FLOOR hides at least (d/dn)^2 / ZERO_PROB_FLOOR, and a
    warning is emitted where that bound exceeds DEAD_INFO_SHARE of the
    returned information (the outcome set is too coarse).
    """
    plus, minus = values[..., 0, :], values[..., 1, :]
    deriv = (plus - minus) / (2.0 * step)
    mid = 0.5 * (plus + minus)
    info = _fisher_sum(deriv, deriv, mid)
    dead = ~(mid > ZERO_PROB_FLOOR) & (np.abs(deriv) > DERIV_FLOOR)
    lost = np.sum(np.where(dead, deriv ** 2, 0.0), axis=-1) / ZERO_PROB_FLOOR
    if np.any(lost > DEAD_INFO_SHARE * info):
        warnings.warn(
            "outcome(s) with probability below %g carry derivatives worth "
            "more than %g of the information; Fisher information may be "
            "underestimated" % (ZERO_PROB_FLOOR, DEAD_INFO_SHARE),
            stacklevel=3)
    return _as_result(info)


def _distribution_information(p, step: float = NS_STEP):
    """_information of outcome distributions, each checked to sum to 1."""
    total = np.sum(p, axis=-1)
    bad = np.abs(total - 1.0) > 1e-9
    if np.any(bad):
        raise ConfigError(
            "outcome distribution sums to %r; the outcome set must be "
            "exhaustive (include loss/vacuum outcomes explicitly)"
            % (float(total[bad][0]),))
    return _information(p, step)


def _probe_information(moments, probe):
    """_information of probe's outcomes at moments on the ns_stencil
    axis; a distribution is checked to sum to 1, Poisson means are not."""
    return (_information if isinstance(probe, CoherentInput)
            else _distribution_information)(probe_outcomes(moments, probe))


def _as_result(info):
    """A Python float for 0-d results, the array otherwise."""
    return float(info) if np.ndim(info) == 0 else info


def fisher_from_distribution(dist_fn, n_s: float, step: float = NS_STEP
                             ) -> float:
    """Fisher information of a finite outcome distribution at n_s.

    dist_fn(n_s) must return a 1-D array of outcome probabilities (an
    exhaustive set, possibly including explicit loss/vacuum outcomes).
    Outcomes whose midpoint probability is below ZERO_PROB_FLOOR are
    skipped, with a warning when they hide a noticeable share of the
    information (see _information).
    """
    p_plus = np.asarray(dist_fn(n_s + step), dtype=float).ravel()
    p_minus = np.asarray(dist_fn(n_s - step), dtype=float).ravel()
    if p_plus.shape != p_minus.shape:
        raise ConfigError("distribution changed outcome count under the step")
    return float(_distribution_information(np.stack([p_plus, p_minus]),
                                           step))


def _stencil_points(stack, wavelength_nm, theta_deg, n_s, polarization,
                    centre=False):
    """Validated (T, R, phi_tr) on the trailing axis of one ns_stencil
    call: n_s + h, n_s - h and, with centre, n_s."""
    resp = ns_stencil(stack, wavelength_nm, theta_deg, n_s, polarization,
                      centre)
    return validate_points(resp.T, resp.R, resp.phi_tr)


# ---------------------------------------------------------------------------
# per-scheme information at a stack operating point
# ---------------------------------------------------------------------------

def fisher_hom(stack: LayerStack, wavelength_nm, theta_deg, n_s,
               polarization: str = "tm", outcomes: str = "click"):
    """Information carried by the photon-pair probe.

    outcomes selects the detection model: "click" (default) counts the
    number of ports that fired, "pair" resolves the joint photon numbers
    and therefore carries at least as much information.
    """
    return _probe_information(splitter_moments(*_stencil_points(
        stack, wavelength_nm, theta_deg, n_s, polarization)), outcomes)


def fisher_classical(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                     probe: CoherentInput | None = None,
                     polarization: str = "tm"):
    """Information carried by the coherent probe's two output counters.

    Independent Poissonian outputs admit the closed form
    I = sum_j (d mu_j / d n_s)^2 / mu_j; the means are differentiated by
    the same central difference used elsewhere.  probe sets the
    intensities and the phase; the default is CoherentInput(), unit
    intensities at quadrature phase.
    """
    return _probe_information(splitter_moments(*_stencil_points(
        stack, wavelength_nm, theta_deg, n_s, polarization)),
        probe or CoherentInput())


def fisher_schemes(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                   phi_ab: float = DEFAULT_PHI_AB, polarization: str = "tm"):
    """(fisher_hom, fisher_classical at phi_ab) from one stack_response
    call: the single-frequency twin of continuum.continuum_fisher."""
    moments = splitter_moments(*_stencil_points(
        stack, wavelength_nm, theta_deg, n_s, polarization))
    return _probe_information(moments, "click"), _probe_information(
        moments, CoherentInput(phi_ab=float(phi_ab)))


def precision_bound(info):
    """Single-shot standard-deviation bound 1/sqrt(I); inf where I <= 0.

    Broadcasts; a scalar input returns a float.
    """
    info = np.asarray(info, dtype=float)
    positive = info > 0.0
    return _as_result(np.where(
        positive, 1.0 / np.sqrt(np.where(positive, info, 1.0)), math.inf))


def defined_ratio(num, den):
    """Elementwise num / den and its flag den > RATIO_FLOOR.

    The ratio is nan where the flag is False: there the denominator has
    collapsed and the ratio is undefined rather than huge.
    """
    defined = np.asarray(den) > RATIO_FLOOR
    return np.where(defined, num / np.where(defined, den, 1.0), np.nan), \
        defined


# ---------------------------------------------------------------------------
# information decomposition over (T, R, phi_tr)
# ---------------------------------------------------------------------------

class DecompositionResult(Record):
    """Fisher-information matrix over the splitter parameters.

    matrix[..., a, b] = sum_outcomes (d P / d tau_a)(d P / d tau_b) / P
    with tau = (T, R, phi_tr), evaluated at the operating point
    (T, R, phi_used), where phi_used is the phase frozen by
    phi_tr_assumption or the actual one.  jacobian[..., a] holds
    d tau_a / d n_s from the stack response; contracting the matrix
    with it reproduces the direct information in n_s (chain rule):

        I(n_s) = J . matrix . J

    The broadcast shape of the inputs leads every array; a scalar input
    gives a (3, 3) matrix, a (3,) jacobian and floats elsewhere.
    """

    matrix: np.ndarray
    jacobian: np.ndarray
    contracted: np.ndarray | float
    T: np.ndarray | float
    R: np.ndarray | float
    phi_used: np.ndarray | float


# offsets of the fourth-order central stencil, in units of the step, and
# the operating point last
_STENCIL = np.array([-2.0, -1.0, 1.0, 2.0, 0.0])


def fisher_decomposition(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                         probe="click", polarization: str = "tm",
                         phi_tr_assumption: float | None = None
                         ) -> DecompositionResult:
    """Resolve the information over the (T, R, phi_tr) channels.

    probe is "click" (the default), "pair" or a CoherentInput, whose two
    Poisson means mu give the same sum sum_j d_a mu_j d_b mu_j / mu_j.
    The 3x3 matrix is evaluated at the stack's operating point;
    phi_tr_assumption, when given, replaces the phase coordinate of that
    point (see the module docstring).  The jacobian and the contracted
    scalar always use the actual stack response.  wavelength_nm,
    theta_deg and n_s broadcast.

    The (T, R, phi) partials use the five-point stencil
    (f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / (12 h), h = DECOMP_STEP, whose
    truncation error ~h^4 matters for entries that vanish identically at
    symmetric points (plain second-order differences leave a residue well
    above the verification tolerances there).  All four offsets along
    all three axes and the operating point are one model call.

    For the coherent probe with equal intensities (a = b) at the
    quadrature probe phase phi_ab = pi/2, the Poisson closed form of the
    T-R entry is

        I_TR = 2 u cos^2(phi_tr) / (sqrt(T R) (u^2 - 4 sin^2(phi_tr))),
        u = (T + R) / sqrt(T R),

    which vanishes only where cos(phi_tr) = 0.  A lossy stack's phase is
    not a quarter wave, so the quarter-wave diagnostic with no T-R cross
    term is reproduced by passing phi_tr_assumption = pi/2.
    """
    return _decompose(_stencil_points(stack, wavelength_nm, theta_deg, n_s,
                                      polarization, centre=True),
                      probe, phi_tr_assumption)


def _decompose(points, probe="click", phi_tr_assumption=None):
    """fisher_decomposition from its _stencil_points with the centre."""
    T, R, phi = (x[..., 2] for x in points)
    if phi_tr_assumption is not None:
        phi = np.full_like(phi, phi_tr_assumption)
    tau = np.stack([T, R, phi], axis=-1)

    # (..., offset, axis, coordinate): tau moved by offset * h along axis
    moved = tau[..., None, None, :] \
        + (_STENCIL[:, None, None] * DECOMP_STEP) * np.eye(3)
    f = probe_outcomes(splitter_moments(*np.moveaxis(moved, -1, 0)),
                       probe)                       # (..., offset, axis, K)
    partials = (f[..., 0, :, :] - 8.0 * f[..., 1, :, :]
                + 8.0 * f[..., 2, :, :] - f[..., 3, :, :]) \
        / (12.0 * DECOMP_STEP)
    matrix = _fisher_sum(partials[..., :, None, :], partials[..., None, :, :],
                         f[..., 4:, :1, :])  # offset 0: the operating point

    jac = np.stack(stencil_derivatives(*points), axis=-1)
    contracted = (jac[..., None, :] @ matrix @ jac[..., :, None])[..., 0, 0]
    return DecompositionResult(
        matrix=matrix, jacobian=jac, contracted=_as_result(contracted),
        T=_as_result(T), R=_as_result(R), phi_used=_as_result(phi))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

class FisherReport(Record):
    """Both information figures, their ratio and the decomposition.

    Fields have the inputs' broadcast shape leading (floats for scalar
    inputs).  g is NaN where the coherent information is below the
    ratio floor (the undefined-enhancement window around the dip);
    g_defined flags that case.  decomposition, derivs and contracted
    are the photon-pair DecompositionResult's matrix, jacobian and
    contraction.
    """

    i_hom: np.ndarray | float
    i_classical: np.ndarray | float
    g: np.ndarray | float
    g_defined: np.ndarray | bool
    decomposition: np.ndarray
    derivs: np.ndarray
    contracted: np.ndarray | float
    precision_hom: np.ndarray | float
    precision_classical: np.ndarray | float


def fisher_report(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                  phi_ab: float = DEFAULT_PHI_AB, polarization: str = "tm"
                  ) -> FisherReport:
    """Evaluate both schemes, the enhancement and the HOM decomposition
    on the broadcast grid, all from one ns_stencil call."""
    points = _stencil_points(stack, wavelength_nm, theta_deg, n_s,
                             polarization, centre=True)
    moments = splitter_moments(*points)
    i_h = _probe_information(moments, "click")
    i_c = _probe_information(moments, CoherentInput(phi_ab=float(phi_ab)))
    g, g_defined = defined_ratio(i_h - i_c, i_c)
    decomp = _decompose(points)
    return FisherReport(
        i_hom=i_h, i_classical=i_c, g=_as_result(g),
        g_defined=g_defined[()], decomposition=decomp.matrix,
        derivs=decomp.jacobian, contracted=decomp.contracted,
        precision_hom=precision_bound(i_h),
        precision_classical=precision_bound(i_c))


# ---------------------------------------------------------------------------
# coherent relative-phase scan
# ---------------------------------------------------------------------------

class PhaseScanResult(Record):
    """Coherent-probe information as a function of the probe phase."""

    phi_ab: np.ndarray
    fisher: np.ndarray
    phi_opt: float
    fisher_opt: float


def phi_ab_scan(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                n_points: int = 721, polarization: str = "tm",
                phi_tr_assumption: float | None = None) -> PhaseScanResult:
    """Scan the coherent probe's relative phase over [-pi, pi].

    The unit-intensity probe's closed-form Poisson information is
    evaluated on the half-open grid [-pi, pi), one CoherentInput phase
    array.  The returned phi_opt is the grid maximizer, polished by one
    parabolic fit through the maximum and its two neighbours (kept
    inside the bracketing interval).
    """
    if n_points < 2:
        raise ConfigError("phase scan needs at least 2 points, got %r"
                          % (n_points,))
    grid = np.linspace(-np.pi, np.pi, int(n_points), endpoint=False)
    T, R, phi = _stencil_points(stack, wavelength_nm, theta_deg, float(n_s),
                                polarization)
    if phi_tr_assumption is not None:
        phi = np.full_like(phi, phi_tr_assumption)
    moments = splitter_moments(T, R, phi)
    values = _probe_information(moments, CoherentInput(phi_ab=grid[:, None]))
    k = int(np.argmax(values))
    phi_opt = float(grid[k])
    fisher_opt = float(values[k])
    if 0 < k < len(grid) - 1:
        y0, y1, y2 = values[k - 1], values[k], values[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:  # proper local maximum
            shift = 0.5 * (y0 - y2) / denom
            if abs(shift) <= 1.0:
                h = grid[1] - grid[0]
                phi_ref = float(grid[k] + shift * h)
                f_ref = _probe_information(moments,
                                           CoherentInput(phi_ab=phi_ref))
                if f_ref >= fisher_opt:
                    phi_opt, fisher_opt = phi_ref, f_ref
    return PhaseScanResult(phi_ab=grid, fisher=values, phi_opt=phi_opt,
                           fisher_opt=fisher_opt)


# ---------------------------------------------------------------------------
# uncertainty budget
# ---------------------------------------------------------------------------

class BudgetSource(Record):
    """One instrumental disturbance: its size and reference sensitivity.

    name/kind identify the mechanism; s is the one-sigma disturbance in
    `unit`; divisor divides the resulting index error (e.g. sqrt(N) for
    an averaged quantity); reference_c / reference_sigma are externally
    quoted sensitivity and index-error values used for cross-checks,
    NaN when absent.  ConfigError rejects a number that fails
    errors.as_number (a NaN reference is absent, not bad) and a value
    that would divide by zero, print nan or break a CSV row.
    """

    name: str
    kind: str
    s: float
    unit: str
    divisor: float = 1.0
    reference_c: float = math.nan
    reference_sigma: float = math.nan

    def __post_init__(self):
        for field in ("name", "unit"):
            text = getattr(self, field)
            if not isinstance(text, str) or not text \
                    or set(text) & set(',"\r\n'):
                raise ConfigError(
                    "budget source %s must be a non-empty string without "
                    "commas, quotes or line breaks, got %r" % (field, text))
        if self.kind not in _BUDGET_KINDS:
            raise ConfigError("unknown budget source kind %r" % (self.kind,))
        for field in ("s", "divisor", "reference_c", "reference_sigma"):
            value = getattr(self, field)
            if field in ("s", "divisor") or not (isinstance(value, float)
                                                 and math.isnan(value)):
                object.__setattr__(self, field, as_number(
                    value, "budget source %r: %s" % (self.name, field),
                    ConfigError))
        if self.s < 0.0:
            raise ConfigError("budget source %r: s must be finite and >= 0, "
                              "got %r" % (self.name, self.s))
        if self.divisor <= 0.0:
            raise ConfigError("budget source %r: divisor must be finite and "
                              "> 0, got %r" % (self.name, self.divisor))


class BudgetRow(Record):
    """Computed budget line for one source."""

    source: BudgetSource
    c: float          # |dS/dx| / |dS/dn_s|, equivalent RIU per unit x
    sigma: float      # c * s / divisor, equivalent index error


class BudgetReport(Record):
    rows: tuple[BudgetRow, ...]
    signal_slope: float   # dS/dn_s at the operating point

    def total_sigma(self) -> float:
        """Quadrature sum of the per-source index errors."""
        return math.sqrt(sum(r.sigma ** 2 for r in self.rows))


# kind: (stencil row of its +h point, -h next, or None; factor to its unit)
_BUDGET_KINDS = {"incidence_angle": (3, 1.0), "film_thickness": (5, 1e9),
                 "prism_index": (7, 1.0), "polarization_angle": (None, 1.0)}


def load_budget_sources(path=None) -> tuple[BudgetSource, ...]:
    """Budget sources from a UTF-8 JSON file {comment, sources: [one
    object of BudgetSource fields each]}; the packaged defaults when path
    is None.  ConfigError names the file and the bad, unknown or missing
    key or value."""
    if path is None:
        path = package_data("budget_sources.json")
    data = read_json(path, "budget sources file", ConfigError)
    try:
        sources = check_keys(data, ("comment", "sources"), "budget sources",
                             ConfigError)["sources"]
        return tuple(_budget_source(entry, "sources[%d]" % j)
                     for j, entry in enumerate(check_list(sources, "sources",
                                                          ConfigError)))
    except ConfigError as exc:
        raise ConfigError("budget sources file %s: %s" % (path, exc)) from exc
    except KeyError as exc:
        raise ConfigError("budget sources file %s: missing key %s"
                          % (path, exc)) from exc


def _budget_source(d, what: str) -> BudgetSource:
    """The BudgetSource a JSON object of its fields holds."""
    check_keys(d, BudgetSource._fields, what, ConfigError)
    for key in BudgetSource._fields:
        if key not in d and key not in BudgetSource._defaults:
            raise ConfigError("%s: missing key %r" % (what, key))
    return BudgetSource(**d)


def uncertainty_budget(stack: LayerStack, wavelength_nm: float = 800.0,
                       theta_deg: float = 70.0, n_analyte: float = 1.32,
                       sources: tuple[BudgetSource, ...] | None = None,
                       polarization: str = "tm") -> BudgetReport:
    """Convert instrumental disturbances into equivalent index errors.

    The monitored signal S is the two-photon coincidence probability.
    For each source the sensitivity c = |dS/dx| / |dS/dn_s| rescales the
    disturbance into the index error it masquerades as; sigma = c s /
    divisor.  All derivatives are central differences with the step
    h = BUDGET_STEP in the variable's own unit (degrees, RIU, nm).

    S takes two stack_response calls: one nine-point stencil (the
    centre, then n_s, theta, film thickness and prism index +- h, as
    arrays, through tmm.with_sensor) and the other polarization, which
    only a polarization source calls for.

    The budget is undefined at the dip.  UndefinedRatioError is raised
    when the coincidence extremum lies within +-h of n_analyte, so
    the index slope is not resolved: the parabola through S(n - h),
    S(n) and S(n + h) has its vertex at distance |S'/S''| <= h.

    Per-kind details: the polarization model mixes the TM and TE
    coincidence signals by intensity, S(gamma) = cos^2(gamma) S_tm +
    sin^2(gamma) S_te; since dS/dgamma vanishes at gamma = 0 exactly,
    the derivative is evaluated at the stated offset gamma = s.  Film
    thickness perturbs both films together (they are deposited by the
    same process); its c is reported per meter.  The other kinds read
    their stencil rows from _BUDGET_KINDS.
    """
    sources = sources if sources is not None else load_budget_sources()
    h = BUDGET_STEP

    def signal(stk, theta, n_s, pol=polarization):
        resp = stack_response(stk, wavelength_nm, theta, n_s, pol)
        return probe_outcomes(splitter_moments(*validate_points(
            resp.T, resp.R, resp.phi_tr)), "pair")[..., -1]

    def central(plus, minus):
        return (plus - minus) / (2 * h)

    # the centre, then n_s, theta, films and prisms +- h
    dn, dtheta, dfilm, dprism = h * np.hstack(
        [np.zeros((4, 1)), np.kron(np.eye(4), [1, -1])])
    s = signal(with_sensor(stack, film_nm=sensor_thicknesses(stack)[0] + dfilm,
                           prism_n=prism_index(stack, wavelength_nm) + dprism),
               theta_deg + dtheta, n_analyte + dn)
    slope = central(s[1], s[2])
    curvature = (s[1] - 2.0 * s[0] + s[2]) / h ** 2
    if abs(slope) <= h * abs(curvature):
        vertex = abs(slope / curvature) if curvature else 0.0
        raise UndefinedRatioError(
            "degenerate operating point: the coincidence extremum lies "
            "within +-%r of n_analyte=%r (vertex distance %.3g), so the "
            "index slope is not resolved; the budget is undefined at the dip"
            % (h, n_analyte, vertex))

    rows = []
    for src in sources:
        row, scale = _BUDGET_KINDS[src.kind]
        if row is not None:
            d = central(s[row], s[row + 1]) * scale
        else:  # polarization_angle: the stencil's centre and one more call
            s_tm, s_te = (s[0] if pol == polarization else signal(
                stack, theta_deg, n_analyte, pol) for pol in ("tm", "te"))
            d = central(*(math.cos(g) ** 2 * s_tm + math.sin(g) ** 2 * s_te
                          for g in map(math.radians, (src.s + h, src.s - h))))
        c = float(abs(d) / abs(slope))
        rows.append(BudgetRow(source=src, c=c, sigma=c * src.s / src.divisor))

    return BudgetReport(rows=tuple(rows), signal_slope=float(slope))
