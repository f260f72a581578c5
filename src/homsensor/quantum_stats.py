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
_coherent_mean_pair take moments and do not validate, because
finite-difference stencils step slightly off physical points.
hom_click_distribution checks its points with validate_points and its
result with validate_distribution; coherent_output_means clamps its
means with _clamp_probability.  BsPoint (built by bs_point) is the
validated point of one scalar response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalPointError
from .tmm import StackResponse

CLAMP_FLOOR = -1e-12          # below this a probability is an error
PHYSICALITY_TOL = 1e-9        # allowance on the passivity bound
DEFAULT_PHI_AB = math.pi / 2  # coherent relative phase, quadrature point
POISSON_L_MAX = 40            # truncation of per-port count distributions


# ---------------------------------------------------------------------------
# splitter operating point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BsPoint:
    """One splitter operating point: power splitting plus relative phase.

    T and R are the power transmittance and reflectance, phi_tr the
    reflected-minus-transmitted phase in radians.  Construction checks
    finiteness, T, R in [0, 1], T + R <= 1, and the passivity bound
    T + R + 2 sqrt(T R) |cos phi_tr| <= 1 (the largest squared singular
    value of [[t, r], [r, t]]), all with a 1e-9 allowance.
    """

    T: float
    R: float
    phi_tr: float

    def __post_init__(self):
        T, R, phi = validate_points(self.T, self.R, self.phi_tr)
        object.__setattr__(self, "T", float(T))
        object.__setattr__(self, "R", float(R))
        object.__setattr__(self, "phi_tr", float(phi))


def _first_bad(bad, message, values):
    """Raise UnphysicalPointError for the first flagged grid cell."""
    if not np.any(bad):
        return
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    where = " at grid index %s" % (index,) if index else ""
    raise UnphysicalPointError(
        message % tuple(float(v[index]) for v in values) + where)


def validate_points(T, R, phi_tr):
    """Apply the BsPoint rule to every cell of a broadcast grid.

    Returns the float arrays (T, R, phi_tr) with T, R clamped to [0, 1];
    raises UnphysicalPointError naming the first offending grid index.
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


def bs_point(resp: StackResponse) -> BsPoint:
    """Collapse a scalar stack response to its splitter operating point.

    Extracts (T, R, phi_tr) and re-validates passivity; a violation here
    signals a sign or branch bug upstream rather than bad user input.
    """
    T = np.asarray(resp.T, dtype=float)
    R = np.asarray(resp.R, dtype=float)
    phi = np.asarray(resp.phi_tr, dtype=float)
    if T.shape or R.shape or phi.shape:
        raise UnphysicalPointError(
            "bs_point expects a scalar response, got shape %s" % (T.shape,))
    return BsPoint(T=float(T), R=float(R), phi_tr=float(phi))


def _clamp_probability(p, what: str):
    """Zero out float noise in [-1e-12, 0); reject anything more negative.

    Broadcasts over arrays; a scalar input returns a float.
    """
    p = np.asarray(p, dtype=float)
    _first_bad(p < CLAMP_FLOOR, what + " = %.6g is negative beyond tolerance",
               (p,))
    p = np.maximum(p, 0.0)
    return float(p) if p.ndim == 0 else p


def validate_distribution(p, what: str):
    """Check distributions with outcomes on the last axis.

    Every probability is clamped by _clamp_probability, and every
    distribution must sum to 1 within 1e-9.  Returns the clamped float
    array; raises UnphysicalPointError naming the first offending grid
    index (for a clamp failure, the outcome index too).
    """
    p = _clamp_probability(p, what + " probability")
    total = np.sum(p, axis=-1)
    _first_bad(np.abs(total - 1.0) > 1e-9,
               what + " probabilities sum to %.17g, not 1", (total,))
    return p


def splitter_moments(T, R, phi_tr):
    """The moments (I_T, I_R, K) of one splitter point: the one-node
    case (T, R, sqrt(T R) e^{-i phi_tr}); broadcasts, no validation.
    T R is floored at 0, so a stencil step just below a vanishing
    coefficient stays finite."""
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

@dataclass(frozen=True)
class CoherentInput:
    """Two coherent beams: mean photon numbers and relative phase.

    alpha_sq and beta_sq are |alpha|^2 and |beta|^2; phi_ab is
    arg(alpha) - arg(beta).  The default is one mean photon per port at
    quadrature phase, matching the two-photon probe's energy.
    """

    alpha_sq: float = 1.0
    beta_sq: float = 1.0
    phi_ab: float = DEFAULT_PHI_AB

    def __post_init__(self):
        if not (math.isfinite(self.alpha_sq) and math.isfinite(self.beta_sq)
                and math.isfinite(self.phi_ab)):
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


def coherent_output_means(T, R, phi_tr, probe: CoherentInput | None = None):
    """Mean photon numbers (mu1, mu2) at the two outputs, on a trailing
    axis, clamped by _clamp_probability; broadcasts over (T, R, phi_tr)."""
    probe = probe or CoherentInput()
    return _clamp_probability(_coherent_mean_pair(
        *splitter_moments(T, R, phi_tr), probe.alpha_sq, probe.beta_sq,
        probe.phi_ab), "mu")


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
