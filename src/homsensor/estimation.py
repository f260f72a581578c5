"""Fisher information and precision analysis for index sensing.

Everything here quantifies how well the sample index n_s can be
estimated from photon counts behind the dual-film splitter.  The core
quantity is the (classical) Fisher information of an outcome
distribution P(outcome | n_s),

    I(n_s) = sum_outcomes  (d P / d n_s)^2 / P,

whose inverse square root bounds the standard deviation of any unbiased
single-shot estimate.  The Fisher kernel that forms it, with its floors,
lives in quantum_stats next to the probe table it sums.

A probe is "click", "pair" (photon pairs, clicks or resolved) or a
CoherentInput; quantum_stats._probe_information reads its outcomes
through the one table quantum_stats.probe_outcomes, with no branch per
probe, and every sum is quantum_stats._fisher_sum.  Outcome values from
outside the probe table enter only through fisher_from_distribution,
which holds them to quantum_stats.validate_distribution.  Provided on
top of the raw information are:

* the information of one probe, the photon-pair (two-photon
  interference) probe or the coherent probe,
* a decomposition of any probe's information over the splitter
  parameters (T, R, phi_tr), exposing which physical channel carries
  the signal, from the probe table's exact partials in the moments
  (the K channel is not resolved where T R = 0),
* a report: the (pair, coherent) information pair and the photon-pair
  decomposition from one response,
* a scan of the coherent probe's relative phase, locating the phase
  that maximizes its information,
* an uncertainty budget: the sensitivity ratios of the coincidence
  signal that convert instrumental disturbances (angle, prism index,
  polarization, film thickness) into equivalent index errors.

All are array-first: the evaluators, the decomposition and
fisher_report broadcast over wavelength, angle and n_s (a scalar input
returns floats).  Each runs continuum's one chain to the moments on the
one-node grid continuum.single_frequency(wavelength_nm): one validated
tmm.param_stencil call in n_s (n_s + h, n_s - h and, for the
decomposition, n_s), which fisher_report shares between both probes
and the decomposition.  Only the decomposition and the frozen-phase
scan read the splitter point at that node; the scan broadcasts over
its phase grid.
continuum.continuum_fisher runs the same chain over a wavelength x
index grid or a wavepacket.  The figures of merit on that pair,
defined_ratio (the one comparison with RATIO_FLOOR) and
precision_bound, are the caller's to form; so is a budget's index
error sigma = c s / divisor per source, and their quadrature sum, from
the sensitivities c the budget returns.

Some closed-form diagnostics are conventionally quoted for an idealized
balanced splitter with a quarter-wave transmission-reflection phase.
Operations that reproduce those diagnostics accept phi_tr_assumption,
which freezes the splitter phase at the given value (the index
dependence then enters through T and R only).  With the default None
the actual stack phase and its n_s dependence are used.
"""

from __future__ import annotations

import math

import numpy as np

from .continuum import _information_pair, _stencil_moments, single_frequency
from .errors import (ConfigError, UndefinedRatioError, UnphysicalPointError,
                     as_number, check_keys, check_list, package_data,
                     read_json)
from .quantum_stats import (DEFAULT_PHI_AB, CoherentInput, _as_result,
                            _fisher_sum, _information, _probe_information,
                            _probe_partials, probe_outcomes, splitter_moments,
                            validate_distribution, validate_points)
from .records import Record
from .tmm import (NS_STEP, LayerStack, param_stencil, stack_response,
                  stencil_derivatives)

RATIO_FLOOR = 1e-12       # information below this leaves a ratio undefined
BUDGET_STEP = 1e-4        # step for budget sensitivities, per variable unit


# ---------------------------------------------------------------------------
# generic Fisher information from a parametric distribution
# ---------------------------------------------------------------------------

def fisher_from_distribution(dist_fn, n_s: float, step: float = NS_STEP
                             ) -> float:
    """Fisher information of a finite outcome distribution at n_s.

    dist_fn(n_s) must return a 1-D array of outcome probabilities (an
    exhaustive set, possibly including explicit loss/vacuum outcomes).
    This is where outside values enter the Fisher kernel: both rows,
    at n_s + step (grid index 0) and n_s - step (1), must pass
    quantum_stats.validate_distribution, or ConfigError says why; the
    information is read from the rows as given, not clamped.
    Outcomes whose midpoint probability is below ZERO_PROB_FLOOR are
    skipped, with a warning when they hide a noticeable share of the
    information (see quantum_stats._information).
    """
    p_plus = np.asarray(dist_fn(n_s + step), dtype=float).ravel()
    p_minus = np.asarray(dist_fn(n_s - step), dtype=float).ravel()
    if p_plus.shape != p_minus.shape:
        raise ConfigError("distribution changed outcome count under the step")
    p = np.stack([p_plus, p_minus])
    try:
        validate_distribution(p, "outcome")
    except UnphysicalPointError as exc:
        raise ConfigError("dist_fn: %s; the outcome set must be exhaustive "
                          "(list loss/vacuum outcomes)" % (exc,)) from exc
    return float(_information(p, step))


# ---------------------------------------------------------------------------
# one probe's information at a stack operating point
# ---------------------------------------------------------------------------

def _assumed_moments(T, R, phi_tr, phi_tr_assumption=None):
    """splitter_moments of (T, R, phi_tr), the phase frozen at
    phi_tr_assumption when one is given (see the module docstring)."""
    if phi_tr_assumption is not None:
        phi_tr = np.full_like(phi_tr, phi_tr_assumption)
    return splitter_moments(T, R, phi_tr)


def fisher_hom(stack: LayerStack, wavelength_nm, theta_deg, n_s,
               polarization: str = "tm", outcomes: str = "click"):
    """Information carried by the photon-pair probe.

    outcomes selects the detection model: "click" (default) counts the
    number of ports that fired, "pair" resolves the joint photon numbers
    and therefore carries at least as much information.
    """
    return _probe_information(_stencil_moments(
        stack, single_frequency(wavelength_nm), theta_deg, n_s,
        polarization)[1], outcomes)


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
    return _probe_information(_stencil_moments(
        stack, single_frequency(wavelength_nm), theta_deg, n_s,
        polarization)[1], probe or CoherentInput())


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

def fisher_decomposition(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                         probe="click", polarization: str = "tm",
                         phi_tr_assumption: float | None = None):
    """Resolve the information over the (T, R, phi_tr) channels.

    Returns (matrix, jacobian, contracted).  matrix[..., a, b] =
    sum_outcomes (d P / d tau_a)(d P / d tau_b) / P with tau = (T, R,
    phi_tr) at the operating point; jacobian[..., a] holds d tau_a / d
    n_s from the stack response; contracting the matrix with it
    reproduces the direct information in n_s (chain rule):

        I(n_s) = J . matrix . J = contracted

    The broadcast shape of the inputs leads every array; a scalar input
    gives a (3, 3) matrix, a (3,) jacobian and a float contracted.

    probe is "click" (the default), "pair" or a CoherentInput, whose two
    Poisson means mu give the same sum sum_j d_a mu_j d_b mu_j / mu_j.
    The 3x3 matrix is evaluated at the stack's operating point;
    phi_tr_assumption, when given, replaces the phase coordinate of that
    point (see the module docstring).  The jacobian and the contracted
    scalar always use the actual stack response.

    The (T, R, phi) partials are exact, chained from the probe table's
    partials in the moments; _decompose defines the T R = 0 edge.

    For the coherent probe with equal intensities (a = b) at the
    quadrature probe phase phi_ab = pi/2, the Poisson closed form of the
    T-R entry is

        I_TR = 2 u cos^2(phi_tr) / (sqrt(T R) (u^2 - 4 sin^2(phi_tr))),
        u = (T + R) / sqrt(T R),

    which vanishes only where cos(phi_tr) = 0.  A lossy stack's phase is
    not a quarter wave, so the quarter-wave diagnostic with no T-R cross
    term is reproduced by passing phi_tr_assumption = pi/2.
    """
    return _decompose(_stencil_moments(
        stack, single_frequency(wavelength_nm), theta_deg, n_s,
        polarization, centre=True)[0], probe, phi_tr_assumption)


def _decompose(points, probe="click", phi_tr_assumption=None):
    """fisher_decomposition from the points of a centred one-node
    _stencil_moments: the moment partials chained by dK/dT = K/(2T),
    dK/dR = K/(2R) and dK/dphi = -iK.  Where T R = 0, K = 0 with
    stack_response's zero-amplitude phase convention: the K channel is
    not resolved there, and its partials are taken as 0 (T and R read
    as inf)."""
    points = tuple(x[..., 0] for x in points)  # the one node
    T, R, phi = (x[..., 2] for x in points)
    moments = _assumed_moments(T, R, phi, phi_tr_assumption)
    k = moments[2][..., None]
    t_r = np.where(k != 0.0, np.stack([T, R], axis=-1), np.inf)
    dk = np.concatenate([0.5 * k / t_r, -1j * k], axis=-1)  # dK/d(T, R, phi)
    d = _probe_partials(moments, probe)  # (..., moment coordinate, outcome)
    partials = np.real(dk[..., None] * (d[..., 2:3, :] - 1j * d[..., 3:, :]))
    partials[..., :2, :] += d[..., :2, :]  # dI_T/dT = dI_R/dR = 1
    matrix = _fisher_sum(partials[..., :, None, :], partials[..., None, :, :],
                         probe_outcomes(moments, probe)[..., None, None, :])

    jac = np.stack(stencil_derivatives(*points), axis=-1)
    contracted = (jac[..., None, :] @ matrix @ jac[..., :, None])[..., 0, 0]
    return matrix, jac, _as_result(contracted)


# ---------------------------------------------------------------------------
# the information pair with the decomposition
# ---------------------------------------------------------------------------

def fisher_report(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                  phi_ab: float = DEFAULT_PHI_AB, polarization: str = "tm"):
    """(i_hom, i_classical at phi_ab, matrix, jacobian, contracted): the
    click and coherent information and the click probe's
    fisher_decomposition on the broadcast grid, all from one n_s
    stencil with the centre; the figures of merit built on the pair
    (defined_ratio, precision_bound) are left to the caller."""
    grid = single_frequency(wavelength_nm)
    points, moments = _stencil_moments(stack, grid, theta_deg, n_s,
                                       polarization, centre=True)
    return (*_information_pair(moments, phi_ab), *_decompose(points))


# ---------------------------------------------------------------------------
# coherent relative-phase scan
# ---------------------------------------------------------------------------

def phi_ab_scan(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                n_points: int = 721, polarization: str = "tm",
                phi_tr_assumption: float | None = None):
    """Scan the coherent probe's relative phase over [-pi, pi].

    Returns (phi_ab, fisher, phi_opt, fisher_opt): the unit-intensity
    probe's closed-form Poisson information fisher on the half-open grid
    phi_ab of [-pi, pi), one CoherentInput phase array, and its maximum
    fisher_opt at phi_opt, the grid maximizer polished by one parabolic
    fit through the maximum and its two neighbours (kept inside the
    bracketing interval); phi_opt and fisher_opt are floats.
    """
    if n_points < 2:
        raise ConfigError("phase scan needs at least 2 points, got %r"
                          % (n_points,))
    grid = np.linspace(-np.pi, np.pi, int(n_points), endpoint=False)
    moments = _assumed_moments(*(x[..., 0] for x in _stencil_moments(
        stack, single_frequency(wavelength_nm), theta_deg, float(n_s),
        polarization)[0]), phi_tr_assumption)
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
    return grid, values, phi_opt, fisher_opt


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


# kind: (the tmm.param_stencil parameter it moves, or None; factor to its
# unit)
_BUDGET_KINDS = {
    "incidence_angle": ("theta", 1.0), "film_thickness": ("film", 1e9),
    "prism_index": ("prism", 1.0), "polarization_angle": (None, 1.0)}


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
                       polarization: str = "tm"):
    """Sensitivities that turn instrumental disturbances into index errors.

    Returns (c, signal_slope): c is a float array with one entry per
    source, in source order, and signal_slope is dS/dn_s at the
    operating point.  The monitored signal S is the two-photon
    coincidence probability.  For each source the sensitivity
    c = |dS/dx| / |dS/dn_s| (equivalent RIU per unit of x) rescales the
    disturbance into the index error it masquerades as; that error,
    sigma = c s / divisor, and the sources' quadrature sum are the
    caller's to form.  All derivatives are central differences with the
    step h = BUDGET_STEP in the variable's own unit (degrees, RIU, nm),
    but a film steps down to no less than 0 nm: a 0-nm film (the FTIR
    control) has the forward difference (S(h) - S(0)) / h.

    S takes two stack_response calls: one tmm.param_stencil with the
    centre (n_s, then theta, film thickness and prism index where a
    source moves them, +- h) and the other polarization, which only a
    polarization source needs.

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
    the stencil of the parameter _BUDGET_KINDS names.
    """
    sources = sources if sources is not None else load_budget_sources()
    h = BUDGET_STEP

    def signal(resp):
        return probe_outcomes(splitter_moments(*validate_points(
            resp.T, resp.R, resp.phi_tr)), "pair")[..., -1]

    moved = {"n_s"} | {_BUDGET_KINDS[src.kind][0] for src in sources}
    steps = {x: h for x in ("n_s", "theta", "film", "prism") if x in moved}
    resp, offset = param_stencil(stack, wavelength_nm, theta_deg, n_analyte,
                                 steps, polarization, centre=True)
    s = signal(resp)[:, 0]
    # each name's (S(+) - S(-)) / (offset(+) - offset(-)) from its pair of
    # rows; the centre is the last row
    quotient = dict(zip(steps, np.diff(s)[::2] / np.diff(offset)[::2]))
    slope = quotient["n_s"]
    curvature = (s[0] - 2.0 * s[-1] + s[1]) / h ** 2
    if abs(slope) <= h * abs(curvature):
        vertex = abs(slope / curvature) if curvature else 0.0
        raise UndefinedRatioError(
            "degenerate operating point: the coincidence extremum lies "
            "within +-%r of n_analyte=%r (vertex distance %.3g), so the "
            "index slope is not resolved; the budget is undefined at the dip"
            % (h, n_analyte, vertex))

    c = []
    for src in sources:
        name, scale = _BUDGET_KINDS[src.kind]
        if name is not None:
            d = quotient[name] * scale
        else:  # polarization_angle: the stencil's centre and one more call
            s_tm, s_te = (s[-1] if pol == polarization else signal(
                stack_response(stack, wavelength_nm, theta_deg, n_analyte,
                               pol)) for pol in ("tm", "te"))
            mixed = [math.cos(g) ** 2 * s_tm + math.sin(g) ** 2 * s_te
                     for g in map(math.radians, (src.s + h, src.s - h))]
            d = (mixed[0] - mixed[1]) / (2 * h)
        c.append(float(abs(d) / abs(slope)))
    return np.array(c, dtype=float), float(slope)
