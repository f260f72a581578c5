"""Photon-counting statistics of a lossy symmetric two-port splitter.

A planar stack evaluated at one (wavelength, angle, sample index) point
acts on its two input modes as the symmetric network

    S = [[t, r],
         [r, t]],

with T = |t|^2, R = |r|^2 and phi_tr = arg(r) - arg(t).  Loss is
allowed: T + R < 1 routes photons into unmonitored environment modes.

The outcome models read the splitter only through its moments

    I_T = T,   I_R = R,   K = t conj(r) = sqrt(T R) e^{-i phi_tr},

built by splitter_moments.  A finite-bandwidth probe sees the same
three numbers averaged over its intensity spectrum (continuum), so one
frequency is the one-node case and every formula below serves both.
Two probes are modeled:

* one photon in each input port, interfering on the splitter; the
  outcome classes are the photon-pair configurations (p00, p10, p20,
  p11, with p01 = p10 and p02 = p20 by symmetry) and, after merging by
  number of detectors that fire, the click classes (p0, p1, p2),
* a pair of coherent beams with mean photon numbers |alpha|^2, |beta|^2
  and relative phase phi_ab, which produce independent Poisson counts
  at the two outputs.

The symmetric matrix S has singular values |t +/- r|, so passivity is

    T + R + 2 sqrt(T R) |cos phi_tr| <= 1,

enforced by validate_points with a 1e-9 allowance.  Probabilities and
means in [-1e-12, 0) are clamped to zero (floating-point noise); more
negative values raise UnphysicalPointError (physics or convention bug).

Everything broadcasts over arrays of points, with outcomes on a
trailing axis.  The raw models _hom_pair_vector, _hom_click_vector and
_coherent_mean_pair take moments and do not validate: _probe_partials
evaluates them a unit step off the physical set.  Every information
figure reads them through probe_outcomes, the one table from a probe
to its model, and _probe_partials; a new probe is one row there.
The public hom_click_distribution, coherent_output_means and bs_point
validate or clamp what they return.

The Fisher kernel sums that table: _information turns outcome values
at tmm.param_stencil's n_s +/- NS_STEP into I = sum (d P / d n_s)^2 / P,
by central differences over a denominator that is the midpoint average
of the two perturbed values (accurate to the same order as the
derivative, at no extra model evaluation), skipping outcomes below
ZERO_PROB_FLOOR.  _probe_information is that sum for one probe, the
same expression for every row, and _fisher_sum, which the
decomposition in estimation also uses, is the one sum of the package.

The click and pair rows sum to 1 as an identity of the moments, for
any moments (physical or not), so the kernel checks no normalisation.
validate_distribution is the one rule for what a distribution is
(finite, clamped, summing to 1); it checks the public
hom_click_distribution and, in estimation.fisher_from_distribution,
the one place where outside values enter the kernel.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .errors import ConfigError, UnphysicalPointError
from .records import Record
from .tmm import NS_STEP, StackResponse

CLAMP_FLOOR = -1e-12          # below this a probability is an error
PHYSICALITY_TOL = 1e-9        # allowance on the passivity bound
DEFAULT_PHI_AB = math.pi / 2  # coherent relative phase, quadrature point
POISSON_L_MAX = 40            # truncation of per-port count distributions
ZERO_PROB_FLOOR = -CLAMP_FLOOR  # outcomes below the clamp's noise: impossible
DERIV_FLOOR = 1e-8  # ~100 eps / (2 NS_STEP): a derivative's rounding noise
DEAD_INFO_SHARE = 1e-9    # warn when skipped outcomes hide this share of I


# ---------------------------------------------------------------------------
# splitter operating point
# ---------------------------------------------------------------------------

def _first_bad(bad, message, values):
    """Raise UnphysicalPointError for the first flagged grid cell."""
    if not np.any(bad):
        return
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    where = " at grid index %s" % (index,) if index else ""
    raise UnphysicalPointError(
        message % tuple(float(v[index]) for v in values) + where)


def validate_points(T, R, phi_tr):
    """Check every splitter point (T, R, phi_tr) of a broadcast grid:
    finite, T, R >= 0 and passive (the module docstring's bound), within
    PHYSICALITY_TOL.  Returns the float arrays (T, R, phi_tr) with T, R
    clamped to [0, 1]; raises UnphysicalPointError naming the first
    offending grid index.
    """
    T, R, phi = np.broadcast_arrays(np.asarray(T, dtype=float),
                                    np.asarray(R, dtype=float),
                                    np.asarray(phi_tr, dtype=float))
    _first_bad(~(np.isfinite(T) & np.isfinite(R) & np.isfinite(phi)),
               "non-finite splitter point (T, R, phi_tr) = (%r, %r, %r)",
               (T, R, phi))
    _first_bad((T < -PHYSICALITY_TOL) | (R < -PHYSICALITY_TOL),
               "negative power coefficient: T=%r, R=%r", (T, R))
    T = np.clip(T, 0.0, 1.0)
    R = np.clip(R, 0.0, 1.0)
    # largest squared singular value |t +/- r|^2 of [[t, r], [r, t]]
    s_sq = T + R + 2.0 * np.sqrt(T * R) * np.abs(np.cos(phi))
    _first_bad(s_sq > 1.0 + PHYSICALITY_TOL,
               "splitter point is not passive: largest squared singular "
               "value %.12g > 1 at T=%.6g, R=%.6g, phi_tr=%.6g",
               (s_sq, T, R, phi))
    return T, R, phi


def bs_point(resp: StackResponse) -> tuple[float, float, float]:
    """Collapse a scalar stack response to its splitter operating point:
    the floats (T, R, phi_tr) that validate_points passed.  A violation
    signals a sign or branch bug upstream rather than bad user input."""
    point = validate_points(resp.T, resp.R, resp.phi_tr)
    if point[0].shape:
        raise UnphysicalPointError("bs_point expects a scalar response, got "
                                   "shape %s" % (point[0].shape,))
    return tuple(map(float, point))


def _clamp_probability(p, what: str):
    """Zero out float noise in [-1e-12, 0) of an array of outcomes;
    reject anything more negative."""
    p = np.asarray(p, dtype=float)
    _first_bad(p < CLAMP_FLOOR, what + " = %.6g is negative beyond tolerance",
               (p,))
    return np.maximum(p, 0.0)


def validate_distribution(p, what: str):
    """Check distributions with outcomes on the last axis: the package's
    one rule for what a distribution is.

    Every probability must be finite and is clamped by
    _clamp_probability, and every distribution must sum to 1 within
    1e-9.  Returns the clamped float array; raises UnphysicalPointError
    naming the first offending grid index (for a non-finite or clamped
    entry, the outcome index too).
    """
    p = np.asarray(p, dtype=float)
    _first_bad(~np.isfinite(p), what + " probability %r is not finite", (p,))
    p = _clamp_probability(p, what + " probability")
    total = np.sum(p, axis=-1)
    _first_bad(np.abs(total - 1.0) > 1e-9,
               what + " probabilities sum to %.17g, not 1", (total,))
    return p


def splitter_moments(T, R, phi_tr):
    """The moments (I_T, I_R, K) of one splitter point: the one-node
    case (T, R, sqrt(T R) e^{-i phi_tr}); broadcasts, no validation.
    T R is floored at 0 for unvalidated library callers only."""
    k = np.sqrt(np.maximum(T * R, 0.0)) * np.exp(-1j * phi_tr)
    return T, R, k


# ---------------------------------------------------------------------------
# photon-pair probe
# ---------------------------------------------------------------------------

def _hom_pair_vector(i_t, i_r, k):
    """Joint pair outcomes (00, 10, 01, 20, 02, 11) on a trailing axis.

    p00: both photons absorbed; p10: one photon in output 1, none in 2;
    p20: both photons in output 1; p11: one photon in each output, the
    coincidence class.  With N1 = I_T + I_R and A = 1 - N1:

        p00 = A^2 + 4 (Re K)^2
        p10 = p01 = N1 A - 4 (Re K)^2
        p20 = p02 = I_T I_R + |K|^2
        p11 = I_T^2 + I_R^2 + 2 Re(K^2)

    At one node p11 = T^2 + R^2 + 2 T R cos(2 phi_tr), which is
    (T - R)^2 at phi_tr = pi/2, hence zero exactly at a balanced
    splitter with quadrature phase: the two-photon dip.  p00 is a sum
    of squares and p10 a product with A, not differences of order-one
    terms, so on a lossless splitter (A = 0, Re K = 0) they vanish to
    the rounding of A instead of carrying order-one rounding debris.
    """
    n1 = i_t + i_r
    absorbed = 1.0 - n1
    re_k_sq = 4.0 * np.real(k) ** 2
    p00 = absorbed * absorbed + re_k_sq
    p10 = n1 * absorbed - re_k_sq
    p20 = i_t * i_r + np.abs(k) ** 2
    p11 = i_t * i_t + i_r * i_r + 2.0 * np.real(k * k)
    return np.stack(np.broadcast_arrays(p00, p10, p10, p20, p20, p11),
                    axis=-1)


def _hom_click_vector(i_t, i_r, k):
    """Click probabilities (0, 1, 2 ports fired) on a trailing axis.

    Threshold detectors: p0 = p00; p1 = 2 p10 + 2 p20 (one photon
    surviving, or both bunched into one port, which fires that port's
    detector once); p2 = p11.
    """
    p = _hom_pair_vector(i_t, i_r, k)
    return np.stack([p[..., 0], 2.0 * (p[..., 1] + p[..., 3]), p[..., 5]],
                    axis=-1)


def hom_click_distribution(T, R, phi_tr):
    """Validated click probabilities (p0, p1, p2) on a trailing axis.

    The points pass validate_points, and the result validate_distribution;
    broadcasts over (T, R, phi_tr).
    """
    return validate_distribution(_hom_click_vector(*splitter_moments(
        *validate_points(T, R, phi_tr))), "click")


# ---------------------------------------------------------------------------
# coherent-state benchmark
# ---------------------------------------------------------------------------

class CoherentInput(Record):
    """Two coherent beams: mean photon numbers and relative phase.

    alpha_sq and beta_sq are |alpha|^2 and |beta|^2; phi_ab is
    arg(alpha) - arg(beta), a float or an array (a phase scan).  The
    default is one mean photon per port at quadrature phase, matching
    the two-photon probe's energy.
    """

    alpha_sq: float = 1.0
    beta_sq: float = 1.0
    phi_ab: float | np.ndarray = DEFAULT_PHI_AB

    def __post_init__(self):
        if not (math.isfinite(self.alpha_sq) and math.isfinite(self.beta_sq)
                and np.all(np.isfinite(self.phi_ab))):
            raise UnphysicalPointError("non-finite coherent input")
        if self.alpha_sq < 0.0 or self.beta_sq < 0.0:
            raise UnphysicalPointError(
                "mean photon numbers must be >= 0, got |alpha|^2=%r, "
                "|beta|^2=%r" % (self.alpha_sq, self.beta_sq))


def _coherent_mean_pair(i_t, i_r, k, a, b, phi_ab) -> np.ndarray:
    """Raw output means (mu1, mu2) on a trailing axis, unclamped:

        mu1 = a I_T + b I_R + 2 sqrt(a b) Re(K e^{+i phi_ab})
        mu2 = b I_T + a I_R + 2 sqrt(a b) Re(K e^{-i phi_ab})

    with a = |alpha|^2, b = |beta|^2: mu1 = |t alpha + r beta|^2 and
    mu2 = |t beta + r alpha|^2 averaged over the spectrum, so
    mu1 + mu2 = (a + b) N1 + 4 sqrt(a b) Re K cos(phi_ab), which is
    (a + b) on a lossless splitter.  Broadcasts over the moments and
    phi_ab.
    """
    cross = 2.0 * math.sqrt(a * b)
    turn = np.exp(1j * phi_ab)
    return np.stack(np.broadcast_arrays(
        a * i_t + b * i_r + cross * np.real(k * turn),
        b * i_t + a * i_r + cross * np.real(k * np.conj(turn))), axis=-1)


def _raw_model(probe):
    """probe's raw model of the moments (I_T, I_R, K): the "click" or
    "pair" distribution, or a CoherentInput's unfloored means; anything
    else raises ConfigError.  An array phase is never hashed."""
    if isinstance(probe, CoherentInput):
        return lambda *moments: _coherent_mean_pair(
            *moments, probe.alpha_sq, probe.beta_sq, probe.phi_ab)
    model = {"click": _hom_click_vector, "pair": _hom_pair_vector}.get(
        probe) if isinstance(probe, str) else None
    if model is None:
        raise ConfigError("probe must be 'click', 'pair' or a CoherentInput, "
                          "got %r" % (probe,))
    return model


def probe_outcomes(moments, probe):
    """Unvalidated outcome values of probe at the moments, on a trailing
    axis: _raw_model's, with a CoherentInput's means floored at zero."""
    values = _raw_model(probe)(*moments)
    return np.maximum(values, 0.0) if isinstance(probe, CoherentInput) \
        else values


def _probe_partials(moments, probe):
    """d(outcome)/d(I_T, I_R, Re K, Im K) of probe's unfloored model, on
    a new axis before the outcome axis: central differences with the unit
    steps (1, 1, 1, 1j).  Every row is a polynomial of degree <= 2 in
    those four, so the difference is exact up to rounding."""
    model, (i_t, i_r, k) = _raw_model(probe), moments
    return np.stack([
        (model(i_t + a, i_r + b, k + c) - model(i_t - a, i_r - b, k - c)) / 2.0
        for a, b, c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                        (0.0, 0.0, 1.0), (0.0, 0.0, 1j))], axis=-2)


def coherent_output_means(T, R, phi_tr, probe: CoherentInput | None = None):
    """Mean photon numbers (mu1, mu2) at the two outputs, on a trailing
    axis, clamped by _clamp_probability; broadcasts over (T, R, phi_tr)."""
    return _clamp_probability(_raw_model(probe or CoherentInput())(
        *splitter_moments(T, R, phi_tr)), "mu")


def poisson_pmf(counts, mu) -> np.ndarray:
    """Poisson pmf mu^k e^-mu / k!, broadcasting over counts and mu.

    Evaluated as exp(k log mu - mu - log k!) with cumulative
    log-factorials; exactly [1, 0, 0, ...] at mu = 0.
    """
    k = np.asarray(counts, dtype=int)
    mu = np.asarray(mu, dtype=float)
    if np.any(k < 0):
        raise ValueError("photon counts must be >= 0")
    log_fact = np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(1.0, np.max(k, initial=0) + 1)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_mu = np.where(k == 0, 0.0, k * np.log(mu))
    return np.exp(k_log_mu - mu - log_fact[k])


def poisson_pair_grid(mu1: float, mu2: float, l_max: int = POISSON_L_MAX
                      ) -> np.ndarray:
    """Joint pmf on the truncated grid 0..l_max x 0..l_max.

    Outer product of the two marginal pmf vectors; with l_max = 40 and
    means of order 1 the discarded tail is far below 1e-12.
    """
    counts = np.arange(l_max + 1)
    return np.outer(poisson_pmf(counts, mu1), poisson_pmf(counts, mu2))


# ---------------------------------------------------------------------------
# Fisher information of the probe table
# ---------------------------------------------------------------------------

def _fisher_sum(d_a, d_b, p):
    """sum over the last axis of d_a d_b / p, skipping outcomes with
    p <= ZERO_PROB_FLOOR: the one Fisher sum of the package."""
    alive = p > ZERO_PROB_FLOOR
    return np.sum(np.where(alive, d_a * d_b / np.where(alive, p, 1.0), 0.0),
                  axis=-1)


def _information(values, step: float = NS_STEP):
    """Fisher information along the last axis from values at n_s + step
    and n_s - step at indices 0 and 1 of axis -2 (param_stencil's rows,
    nodes read or summed; a centre is not read); a 0-d result is a float.

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
        # the warning names the first frame outside the package
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__", "").startswith("homsensor."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "outcome(s) with probability below %g carry derivatives worth "
            "more than %g of the information; Fisher information may be "
            "underestimated" % (ZERO_PROB_FLOOR, DEAD_INFO_SHARE),
            stacklevel=level)
    return _as_result(info)


def _probe_information(moments, probe):
    """_information of probe's outcomes at moments on the n_s stencil
    axis: one expression for every row of the probe table."""
    return _information(probe_outcomes(moments, probe))


def _as_result(info):
    """A Python float for 0-d results, the array otherwise."""
    return float(info) if np.ndim(info) == 0 else info
