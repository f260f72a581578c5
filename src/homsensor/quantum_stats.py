"""Photon-counting statistics of a lossy symmetric two-port splitter.

A planar stack evaluated at one (wavelength, angle, sample index) point
acts on its two input modes as the symmetric network

    S = [[t, r],
         [r, t]],

so everything downstream depends only on the triple (T, R, phi_tr) with
T = |t|^2, R = |r|^2 and phi_tr = arg(r) - arg(t).  That triple is the
interchange type here (BsPoint).  Loss is allowed: T + R < 1 routes
photons into unmonitored environment modes.

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

enforced at construction with a 1e-9 allowance.  Probabilities and
means in [-1e-12, 0) are clamped to zero (floating-point noise); more
negative values raise UnphysicalPointError (physics or convention bug).

The raw outcome models and validate_points broadcast over arrays of
points (outcomes on a trailing axis); the dataclasses are validating
scalar views over them.
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
    s_sq = T + R + 2.0 * np.sqrt(T * R) * np.abs(np.cos(phi))
    _first_bad(s_sq > 1.0 + PHYSICALITY_TOL,
               "splitter point is not passive: largest squared singular "
               "value %.12g > 1 at T=%.6g, R=%.6g, phi_tr=%.6g",
               (s_sq, T, R, phi))
    return T, R, phi


def splitter_singular_values(point: BsPoint) -> tuple[float, float]:
    """Singular values (|t + r|, |t - r|) of the symmetric network.

    Computed from the operating point alone:
    |t +/- r|^2 = T + R +/- 2 sqrt(T R) cos(phi_tr).  Both must be at
    most 1 for a passive splitter.
    """
    cross = 2.0 * math.sqrt(point.T * point.R) * math.cos(point.phi_tr)
    s_plus = math.sqrt(max(point.T + point.R + cross, 0.0))
    s_minus = math.sqrt(max(point.T + point.R - cross, 0.0))
    return s_plus, s_minus


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


# ---------------------------------------------------------------------------
# photon-pair probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairDistribution:
    """Outcome probabilities for one photon entering each input port.

    p00: both photons absorbed; p10: one photon in output 1, none in 2
    (p01 = p10 by the splitter symmetry); p20: both photons in output 1
    (p02 = p20); p11: one photon in each output, the coincidence class.
    The six underlying outcomes satisfy
    p00 + 2 p10 + 2 p20 + p11 = 1.
    """

    p00: float
    p10: float
    p20: float
    p11: float

    def __post_init__(self):
        for name in ("p00", "p10", "p20", "p11"):
            object.__setattr__(self, name,
                               _clamp_probability(getattr(self, name), name))
        total = self.p00 + 2.0 * self.p10 + 2.0 * self.p20 + self.p11
        if abs(total - 1.0) > 1e-9:
            raise UnphysicalPointError(
                "pair probabilities sum to %.17g, not 1" % total)

    @property
    def p01(self) -> float:
        return self.p10

    @property
    def p02(self) -> float:
        return self.p20

    def as_dict(self) -> dict:
        return {"p00": self.p00, "p10": self.p10, "p01": self.p10,
                "p20": self.p20, "p02": self.p20, "p11": self.p11}


def _hom_pair_vector(T, R, phi):
    """Joint pair outcomes (00, 10, 01, 20, 02, 11) on a trailing axis.

    Raw formulas, no validation, broadcasting over (T, R, phi):

        p11 = T^2 + R^2 + 2 T R cos(2 phi_tr)
        p20 = p02 = 2 T R
        p10 = p01 = (T + R) - 4 T R - p11
        p00 = 1 - 2 (T + R) + 4 T R + p11

    Finite-difference stencils perturb (T, R, phi) slightly around a
    physical point, so tiny excursions must not raise here.
    """
    p11 = T * T + R * R + 2.0 * T * R * np.cos(2.0 * phi)
    p20 = 2.0 * T * R
    p10 = (T + R) - 4.0 * T * R - p11
    p00 = 1.0 - 2.0 * (T + R) + 4.0 * T * R + p11
    return np.stack(np.broadcast_arrays(p00, p10, p10, p20, p20, p11),
                    axis=-1)


def _hom_click_vector(T, R, phi):
    """Click probabilities (0, 1, 2 ports fired) on a trailing axis: the
    pair outcomes merged by the number of detectors that fire."""
    p = _hom_pair_vector(T, R, phi)
    return np.stack([p[..., 0], 2.0 * (p[..., 1] + p[..., 3]), p[..., 5]],
                    axis=-1)


def hom_pair_distribution(point: BsPoint) -> PairDistribution:
    """Photon-pair outcome probabilities at a splitter point.

    p11 carries the two-photon interference term cos(2 phi_tr); the
    bunched classes p20 = p02 = 2 T R do not depend on the phase, and
    the loss classes follow from the single-photon marginals (see
    _hom_pair_vector for the formulas).
    """
    p00, p10, _, p20, _, p11 = _hom_pair_vector(point.T, point.R,
                                                point.phi_tr)
    return PairDistribution(p00=p00, p10=p10, p20=p20, p11=p11)


@dataclass(frozen=True)
class ClickDistribution:
    """Probabilities of 0, 1, or 2 detectors firing on a photon pair.

    Threshold (non-number-resolving) detectors: a bunched pair on one
    port fires that port's detector once, so it lands in the one-click
    class together with the single-photon loss outcomes.
    """

    p0_click: float
    p1_click: float
    p2_click: float

    def __post_init__(self):
        for name in ("p0_click", "p1_click", "p2_click"):
            object.__setattr__(self, name,
                               _clamp_probability(getattr(self, name), name))
        total = self.p0_click + self.p1_click + self.p2_click
        if abs(total - 1.0) > 1e-9:
            raise UnphysicalPointError(
                "click probabilities sum to %.17g, not 1" % total)

    def as_array(self) -> np.ndarray:
        return np.array([self.p0_click, self.p1_click, self.p2_click])


def click_distribution(pair: PairDistribution) -> ClickDistribution:
    """Merge pair outcomes by the number of detectors that fire.

    p0 = p00; p1 = 2 p10 + 2 p20 (one photon surviving, or both bunched
    into one port); p2 = p11.
    """
    return ClickDistribution(
        p0_click=pair.p00,
        p1_click=2.0 * pair.p10 + 2.0 * pair.p20,
        p2_click=pair.p11)


def hom_click_distribution(point: BsPoint) -> ClickDistribution:
    """Click probabilities straight from a splitter point."""
    return click_distribution(hom_pair_distribution(point))


def coincidence_probability(point: BsPoint) -> float:
    """Probability that both detectors fire, p11.

    Equals (T - R)^2 at phi_tr = pi/2, hence zero exactly at a balanced
    splitter with quadrature phase: the two-photon dip.
    """
    return hom_pair_distribution(point).p11


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


def _coherent_mean_pair(T, R, phi, probe: CoherentInput) -> np.ndarray:
    """Raw output means (mu1, mu2) on a trailing axis, unclamped:

        mu1,2 = T a + R b + 2 sqrt(T R a b) cos(phi_tr -/+ phi_ab)

    with a = |alpha|^2, b = |beta|^2; broadcasts over (T, R, phi).
    """
    a, b = probe.alpha_sq, probe.beta_sq
    direct = T * a + R * b
    cross = 2.0 * np.sqrt(np.maximum(T * R * a * b, 0.0))
    return np.stack(np.broadcast_arrays(
        direct + cross * np.cos(phi - probe.phi_ab),
        direct + cross * np.cos(phi + probe.phi_ab)), axis=-1)


def coherent_output_means(point: BsPoint, probe: CoherentInput | None = None
                          ) -> tuple[float, float]:
    """Mean photon numbers (mu1, mu2) at the two outputs.

    Note the direct intensity term T a + R b is shared by both outputs
    (see _coherent_mean_pair); the conventional port-swapped form would
    carry T b + R a in mu2 instead.  The two agree for the default
    balanced probe a = b, which is the regime this model is used in;
    the shared-term form is kept deliberately and this is the only
    place the choice enters.
    """
    mu1, mu2 = _clamp_probability(
        _coherent_mean_pair(point.T, point.R, point.phi_tr,
                            probe or CoherentInput()), "mu")
    return float(mu1), float(mu2)


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


def coherent_pair_probability(l1: int, l2: int,
                              means: tuple[float, float]) -> float:
    """Joint probability of counting (l1, l2) photons at the outputs.

    The outputs of a linear network fed with coherent light stay
    coherent, so the counts are independent Poisson variables.
    """
    return float(np.prod(poisson_pmf([l1, l2], means)))


def poisson_pair_grid(mu1: float, mu2: float, l_max: int = POISSON_L_MAX
                      ) -> np.ndarray:
    """Joint pmf on the truncated grid 0..l_max x 0..l_max.

    Outer product of the two marginal pmf vectors; with l_max = 40 and
    means of order 1 the discarded tail is far below 1e-12.
    """
    counts = np.arange(l_max + 1)
    return np.outer(poisson_pmf(counts, mu1), poisson_pmf(counts, mu2))


def coherent_pair_grid(point: BsPoint, probe: CoherentInput | None = None,
                       l_max: int = POISSON_L_MAX) -> np.ndarray:
    """Truncated joint count pmf of the coherent benchmark at a point."""
    mu1, mu2 = coherent_output_means(point, probe)
    return poisson_pair_grid(mu1, mu2, l_max)
