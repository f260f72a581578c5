"""Finite-bandwidth corrections to the single-frequency model.

The single-frequency ("single-mode") model evaluates the splitter at
the carrier wavelength only.  Real sources have spectral width: this
module propagates a transform-limited Gaussian wavepacket through the
frequency-dependent response and rebuilds the photon statistics from
spectral moments, then quantifies how far the single-frequency
information estimate drifts as the bandwidth grows.

For the photon-pair probe (two identical factorized wavepackets, one
per port) the detection moments are double frequency integrals; with a
product joint spectrum they factor into single integrals over the
intensity spectrum q(omega) = |xi(omega)|^2:

    I_T = int q T,   I_R = int q R,   K = int q t conj(r)

    N1  = I_T + I_R                     mean photon number per port
    F   = 2 I_T I_R + 2 |K|^2           both-photons-one-port weight
    N12 = I_T^2 + I_R^2 + 2 Re(K^2)     coincidence probability

whose single-frequency limits are T + R, 4 T R and the familiar
T^2 + R^2 + 2 T R cos(2 phi_tr).  For the coherent probe each output
stays Poissonian with a spectrally averaged mean

    mu1 = int |t A + r B|^2,   mu2 = int |t B + r A|^2,

where A and B are the two beams' spectral amplitudes, normalized to
unit mean photon number each for a fair comparison against the pair.

The response enters as a callable omega -> (t, r) so the moments can be
tested against analytically known responses; stack_spectral_response
adapts a LayerStack to that interface.  Integrals use Gauss-Legendre
quadrature on a window of +/- span * delta_omega around the carrier,
clipped to the frequency window where every dispersive material is
tabulated (the clipped tail mass is negligible at the default span, but
evaluating gold beyond its table would be meaningless).

The headline diagnostic is the relative drift
D = |I_single - I_continuum| / I_single of the Fisher information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UndefinedRatioError
from .estimation import (DEFAULT_NS_STEP, RATIO_FLOOR, _as_result,
                         _distribution_information, _information)
from .tmm import LayerStack, stack_response

C_NM_PER_S = 2.99792458e17     # speed of light in nm/s
DEFAULT_NODES = 201
DEFAULT_SPAN = 5.0             # quadrature half-width in units of delta_omega
DEFAULT_PHI_AB = math.pi / 2


# ---------------------------------------------------------------------------
# spectral profile and quadrature grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralProfile:
    """Transform-limited Gaussian wavepacket in angular frequency.

    delta_omega is the FWHM of the intensity spectrum |xi|^2, derived
    from the wavelength FWHM via delta_omega = 2 pi c delta_lambda /
    lambda0^2 (first-order dispersion of omega = 2 pi c / lambda).
    norm scales the bare Gaussian exp(-2 ln2 ((omega-omega0)/
    delta_omega)^2) so that int |xi|^2 d(omega) = 1 exactly.

    The carrier must sit well clear of zero frequency (omega0 > 5
    delta_omega) so the profile carries no significant mass at
    unphysical negative frequencies.
    """

    lambda0_nm: float
    delta_lambda_nm: float
    omega0: float
    delta_omega: float
    norm: float

    def __post_init__(self):
        if not self.delta_omega > 0.0:
            raise ConfigError("profile bandwidth must be positive")
        if not self.omega0 > 5.0 * self.delta_omega:
            raise ConfigError(
                "carrier frequency %.6g is not above 5 bandwidths %.6g; "
                "the wavepacket would spill into negative frequencies"
                % (self.omega0, 5.0 * self.delta_omega))

    def xi(self, omega) -> np.ndarray:
        """Normalized spectral amplitude (real, peaked at omega0)."""
        u = (np.asarray(omega, dtype=float) - self.omega0) / self.delta_omega
        return self.norm * np.exp(-2.0 * math.log(2.0) * u * u)

    def xi_sq(self, omega) -> np.ndarray:
        """Intensity spectrum |xi|^2, unit area in omega."""
        u = (np.asarray(omega, dtype=float) - self.omega0) / self.delta_omega
        return self.norm ** 2 * np.exp(-4.0 * math.log(2.0) * u * u)


def spectral_profile(lambda0_nm: float, delta_lambda_nm: float
                     ) -> SpectralProfile:
    """Profile from carrier wavelength and wavelength FWHM, both in nm.

    int exp(-4 ln2 (x/dw)^2) dx = dw sqrt(pi / (4 ln2)), which fixes the
    amplitude constant analytically; the quadrature reproduces unit area
    to its own precision.
    """
    if lambda0_nm <= 0 or delta_lambda_nm <= 0:
        raise ConfigError("profile needs positive carrier wavelength and "
                          "bandwidth")
    omega0 = 2.0 * math.pi * C_NM_PER_S / lambda0_nm
    delta_omega = 2.0 * math.pi * C_NM_PER_S * delta_lambda_nm / lambda0_nm ** 2
    norm = (4.0 * math.log(2.0) / math.pi) ** 0.25 / math.sqrt(delta_omega)
    return SpectralProfile(lambda0_nm=float(lambda0_nm),
                           delta_lambda_nm=float(delta_lambda_nm),
                           omega0=omega0, delta_omega=delta_omega, norm=norm)


def omega_to_wavelength_nm(omega):
    return 2.0 * math.pi * C_NM_PER_S / np.asarray(omega)


def stack_omega_window(stack: LayerStack) -> tuple[float, float] | None:
    """Frequency window where all dispersive layers are tabulated."""
    win = stack.wavelength_window_nm()
    if win is None:
        return None
    lo_nm, hi_nm = win
    return (2.0 * math.pi * C_NM_PER_S / hi_nm,
            2.0 * math.pi * C_NM_PER_S / lo_nm)


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights on the integration window."""

    nodes: np.ndarray
    weights: np.ndarray
    omega_lo: float
    omega_hi: float
    n_nodes: int
    span: float
    clipped: bool   # True when the material window truncated the span


def quadrature_grid(profile: SpectralProfile, n_nodes: int = DEFAULT_NODES,
                    span: float = DEFAULT_SPAN,
                    omega_window: tuple[float, float] | None = None
                    ) -> QuadratureGrid:
    """Quadrature over [omega0 - span dw, omega0 + span dw], clipped.

    omega_window, when given, bounds the interval to where the stack's
    materials are defined; the Gaussian tail beyond a few delta_omega is
    negligible, so clipping changes the integrals only at the level of
    the discarded tail mass.
    """
    if n_nodes < 2:
        raise ConfigError("quadrature needs at least 2 nodes")
    lo = profile.omega0 - span * profile.delta_omega
    hi = profile.omega0 + span * profile.delta_omega
    clipped = False
    if omega_window is not None:
        wlo, whi = omega_window
        if wlo > lo:
            lo, clipped = wlo, True
        if whi < hi:
            hi, clipped = whi, True
        if not lo < hi:
            raise ConfigError("material window leaves no quadrature interval")
    x, w = np.polynomial.legendre.leggauss(int(n_nodes))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return QuadratureGrid(nodes=mid + half * x, weights=half * w,
                          omega_lo=float(lo), omega_hi=float(hi),
                          n_nodes=int(n_nodes), span=float(span),
                          clipped=clipped)


def default_grid(stack: LayerStack, profile: SpectralProfile,
                 n_nodes: int = DEFAULT_NODES, span: float = DEFAULT_SPAN
                 ) -> QuadratureGrid:
    return quadrature_grid(profile, n_nodes, span, stack_omega_window(stack))


# ---------------------------------------------------------------------------
# response and beam-amplitude adapters
# ---------------------------------------------------------------------------

def stack_spectral_response(stack: LayerStack, theta_deg, n_s,
                            polarization: str = "tm"):
    """Adapt a stack to the response interface omega -> (t, r).

    The returned callable accepts an array of angular frequencies,
    converts each node to its vacuum wavelength, and evaluates the
    stack there, so material dispersion enters through the tables.
    theta_deg and n_s broadcast against the frequency array, so an n_s
    array with a trailing singleton axis yields one response per index.
    """
    def response(omega):
        lam = omega_to_wavelength_nm(omega)
        resp = stack_response(stack, lam, theta_deg, n_s, polarization)
        return np.asarray(resp.t), np.asarray(resp.r)

    return response


def coherent_spectral_amplitudes(profile: SpectralProfile,
                                 phi_ab: float = DEFAULT_PHI_AB):
    """Default beam amplitudes: flat unit envelopes on the wavepacket.

    Beam a carries the relative phase, A(omega) = xi(omega) e^{i
    phi_ab}; beam b is B(omega) = xi(omega).  Both integrate to one
    photon on average, the fair-comparison normalization.
    """
    phase = complex(math.cos(phi_ab), math.sin(phi_ab))

    def alpha_profile(omega):
        return profile.xi(omega) * phase

    def beta_profile(omega):
        return profile.xi(omega) + 0j

    return alpha_profile, beta_profile


# ---------------------------------------------------------------------------
# spectral moments of the photon statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomMoments:
    """Spectral moments of the photon-pair detection statistics.

    n1: mean photon number per output port; pair_factorial: the
    factorial moment <N(N-1)> counting both-photons-one-port events
    (twice the bunched probability); coincidence: <N1 N2>, the
    both-ports-fire probability.
    """

    n1: float
    pair_factorial: float
    coincidence: float


def continuum_hom_moments(response, profile: SpectralProfile,
                          grid: QuadratureGrid) -> HomMoments:
    """Photon-pair moments of a frequency-dependent splitter.

    response(omega_array) must return the amplitude arrays (t, r) at
    the grid nodes, with the nodes on the last axis; any leading axes
    carry through to the moments.  The double integrals over the
    product joint spectrum factor exactly into the single integrals
    I_T, I_R, K (tensor-product quadrature of a factorized integrand is
    the product of the one-dimensional quadratures).
    """
    t, r = response(grid.nodes)
    q = grid.weights * profile.xi_sq(grid.nodes)
    i_t = np.abs(t) ** 2 @ q
    i_r = np.abs(r) ** 2 @ q
    k = (t * np.conj(r)) @ q
    return HomMoments(
        n1=i_t + i_r,
        pair_factorial=2.0 * i_t * i_r + 2.0 * np.abs(k) ** 2,
        coincidence=i_t ** 2 + i_r ** 2 + 2.0 * (k * k).real)


def hom_click_vector_from_moments(m: HomMoments) -> np.ndarray:
    """Click probabilities (0, 1, 2 ports fired) on a trailing axis.

    Inverts the moment-probability relations of the single-frequency
    model: p2 = coincidence, p1 = 2 N1 - F - 2 N12, p0 the remainder.
    Reduces to the single-frequency click vector for a flat response.
    """
    p2 = m.coincidence
    p1 = 2.0 * m.n1 - m.pair_factorial - 2.0 * m.coincidence
    p0 = 1.0 - p1 - p2
    return np.stack([p0, p1, p2], axis=-1)


def continuum_classical_means(response, alpha_profile, beta_profile,
                              grid: QuadratureGrid):
    """Spectrally averaged Poisson means (mu1, mu2) of the coherent benchmark.

    alpha_profile and beta_profile are callables omega -> complex
    spectral amplitude of each beam (wavepacket included), each required
    to normalize to unit mean photon number on the grid within 1e-8.
    mu1 collects t from beam a and r from beam b; mu2 the reverse, as
    printed (for equal beam intensities this coincides with the
    single-frequency convention used in quantum_stats).  Leading axes
    of the response (nodes last) carry through to each mean.
    """
    a_amp = np.asarray(alpha_profile(grid.nodes), dtype=complex)
    b_amp = np.asarray(beta_profile(grid.nodes), dtype=complex)
    for name, amp in (("alpha", a_amp), ("beta", b_amp)):
        total = float(np.dot(grid.weights, np.abs(amp) ** 2))
        if abs(total - 1.0) > 1e-8:
            raise ConfigError(
                "%s beam integrates to %.12g mean photons, not 1; the "
                "benchmark requires unit-normalized beams" % (name, total))
    t, r = response(grid.nodes)
    mu1 = np.abs(t * a_amp + r * b_amp) ** 2 @ grid.weights
    mu2 = np.abs(t * b_amp + r * a_amp) ** 2 @ grid.weights
    return np.maximum(mu1, 0.0), np.maximum(mu2, 0.0)


# ---------------------------------------------------------------------------
# continuum Fisher information and the bandwidth drift D
# ---------------------------------------------------------------------------

def continuum_fisher(scheme: str, stack: LayerStack, lambda0_nm: float,
                     delta_lambda_nm: float, theta_deg: float, n_s,
                     phi_ab: float = DEFAULT_PHI_AB,
                     polarization: str = "tm",
                     n_nodes: int = DEFAULT_NODES, span: float = DEFAULT_SPAN,
                     step: float = DEFAULT_NS_STEP):
    """Fisher information in n_s with the full spectral profile.

    scheme is "hom" (photon-pair clicks rebuilt from the spectral
    moments) or "classical" (coherent probe, spectrally averaged
    Poisson means, closed-form information).

    n_s may be an array: the result has its shape (a float for a
    scalar).  One quadrature grid serves every n_s, and the stack is
    evaluated in a single call on n_s x (-/+ step) x nodes.
    """
    if scheme not in ("hom", "classical"):
        raise ConfigError("scheme must be 'hom' or 'classical', got %r"
                          % (scheme,))
    profile = spectral_profile(lambda0_nm, delta_lambda_nm)
    grid = default_grid(stack, profile, n_nodes, span)
    ns = np.asarray(n_s, dtype=float)[..., None] + np.array([-step, step])
    response = stack_spectral_response(stack, theta_deg, ns[..., None],
                                       polarization)
    if scheme == "hom":
        p = hom_click_vector_from_moments(
            continuum_hom_moments(response, profile, grid))
        info = _distribution_information(p[..., 1, :], p[..., 0, :], step)
    else:
        mu = np.stack(continuum_classical_means(
            response, *coherent_spectral_amplitudes(profile, phi_ab), grid),
            axis=-1)
        info = _information(mu[..., 1, :], mu[..., 0, :], step)
    return _as_result(info)


def relative_difference(i_single: float, i_continuum: float) -> float:
    """D = |I_single - I_continuum| / I_single, the bandwidth drift."""
    if i_single <= RATIO_FLOOR:
        raise UndefinedRatioError(
            "single-frequency information %r is too small to normalize "
            "the bandwidth drift" % (i_single,))
    return abs(i_single - i_continuum) / i_single
