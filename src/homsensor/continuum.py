"""Finite-bandwidth corrections to the single-frequency model.

The single-frequency ("single-mode") model evaluates the splitter at
the carrier wavelength only.  Real sources have spectral width: this
module propagates a transform-limited Gaussian wavepacket through the
frequency-dependent response and quantifies how far the
single-frequency information estimate drifts as the bandwidth grows.

Both probes read the splitter only through the moments (I_T, I_R, K)
of quantum_stats.splitter_moments.  For two identical factorized
wavepackets (the photon pair, one per port) and for two unit-photon
coherent beams on the same wavepacket, the detection statistics are
the single-frequency formulas with each moment replaced by its average
over the intensity spectrum q(omega) = |xi(omega)|^2:

    I_T = int q T,   I_R = int q R,   K = int q t conj(r).

The double integrals of the pair probe factor into these single
integrals for a product joint spectrum (tensor-product quadrature of a
factorized integrand is the product of the one-dimensional
quadratures).  A single frequency is the one-node grid of
single_frequency.  The chain from a stack to the information pair is
written once: _stencil_moments makes the one tmm.param_stencil call in
n_s at the grid's nodes, validates the points and averages their
moments, and _information_pair reads the click probe and the coherent
benchmark CoherentInput(phi_ab) from those through the one expression
quantum_stats._probe_information.
continuum_fisher is the two in turn, and every per-point figure of
estimation runs the same chain on single_frequency(wavelength_nm), so
this module sits below estimation and imports nothing from it.

The wavepacket is one record, a QuadratureGrid: the wavelengths of its
nodes and their intensity weights q = w |xi|^2, so each integral above
is a weighted sum over the nodes.  quadrature_grid builds it once per
bandwidth by Gauss-Legendre quadrature on a window of +/- span *
delta_omega around the carrier, clipped to the frequency window where
every dispersive material of the stack is tabulated (the clipped tail
mass is negligible at the default span, but evaluating gold beyond its
table would be meaningless).  A grid's weights must sum to 1 within
1e-8, checked when the record is built, so every grid, the one-node
single_frequency included, carries unit mass: each unit-photon beam of
the coherent benchmark integrates to one mean photon.  A span or window
that cuts the wavepacket, or a bandwidth below the carrier's float
resolution, fails there.  Nothing downstream of the grid knows it came
from a spectrum.

The headline diagnostic, which the `continuum` subcommand reports, is
the relative drift D = |I_single - I_continuum| / I_single of the
Fisher information.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError
from .quantum_stats import (DEFAULT_PHI_AB, CoherentInput,
                            _probe_information, probe_outcomes,
                            splitter_moments, validate_points)
from .records import Record
from .tmm import NS_STEP, LayerStack, param_stencil

C_NM_PER_S = 2.99792458e17     # speed of light in nm/s
DEFAULT_NODES = 201
DEFAULT_SPAN = 5.0             # quadrature half-width in units of delta_omega
# Newton steps of the Gauss-Legendre rule.  From Tricomi's guess two
# reach rounding level for n >= 50 and three for every n >= 2; further
# steps only move a node back and forth by up to 10 units in the last
# place (checked for n < 700).
_NEWTON_STEPS = 3
# Most nodes a rule may have: the Newton count above is checked only
# this far, and the rule's cost grows as n^2.
MAX_NODES = 699


# ---------------------------------------------------------------------------
# quadrature grid of the wavepacket
# ---------------------------------------------------------------------------

class QuadratureGrid(Record):
    """Quadrature nodes as wavelengths on the last axis, with their
    intensity weights q.  The weights are the wavepacket's unit mass:
    ConfigError refuses a grid whose weights do not sum to 1 within
    1e-8, so each beam of the coherent benchmark carries one mean
    photon, the fair comparison against the pair."""

    wavelength_nm: np.ndarray
    weights: np.ndarray
    clipped: bool   # True when the material window truncated the span

    def __post_init__(self):
        total = float(np.sum(self.weights))
        if not abs(total - 1.0) <= 1e-8:
            raise ConfigError(
                "wavepacket weights sum to %.12g, not 1: the quadrature "
                "span or the material window cuts the wavepacket, or the "
                "bandwidth is below the carrier's float resolution" % total)


_ONE_NODE = np.ones(1)
_ONE_NODE.flags.writeable = False


def single_frequency(wavelength_nm) -> QuadratureGrid:
    """The grid of a single frequency: one node of weight 1 at each of
    the wavelengths.  Their axes lead the n_s and stencil axes of
    continuum_fisher, so a (rows, 1) array broadcasts against n_s as
    the rows of a wavelength x index grid."""
    return QuadratureGrid(
        wavelength_nm=np.asarray(wavelength_nm, dtype=float)[..., None, None],
        weights=_ONE_NODE, clipped=False)


def _legendre_and_derivative(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (p_prev - x * p) / (1.0 - x * x)


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int):
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated by its three-term recurrence (Hale
    and Townsend, SIAM J. Sci. Comput. 35, A652, 2013), from Tricomi's
    asymptotic guess (1 - (n-1)/(8n^3) - (39 - 28/sin^2 t)/(384n^4))
    cos t, t = pi (4k - 1)/(4n + 2), for the non-negative nodes; cos t
    is written sin(pi (n + 1 - 2k)/(2n + 1)), so the middle node of an
    odd rule is exactly 0.  The weights are 2 / ((1 - x^2) P_n'(x)^2) at
    the converged nodes, and the rule is mirrored about 0, so it is
    exactly symmetric.
    """
    phi = np.pi * (n + 1 - 2 * np.arange(1, (n + 1) // 2 + 1)) / (2 * n + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.cos(phi) ** 2) / (384.0 * n ** 4)) * np.sin(phi)
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre_and_derivative(n, x)
        x = x - p / dp
    dp = _legendre_and_derivative(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = np.concatenate((-x[:n // 2], x[::-1]))
    w = np.concatenate((w[:n // 2], w[::-1]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_grid(stack: LayerStack, lambda0_nm: float,
                    delta_lambda_nm: float, n_nodes: int = DEFAULT_NODES,
                    span: float = DEFAULT_SPAN) -> QuadratureGrid:
    """Grid of a transform-limited Gaussian wavepacket on the stack.

    lambda0_nm is the carrier and delta_lambda_nm the FWHM of the
    intensity spectrum, both in nm.  In angular frequency the FWHM is
    delta_omega = 2 pi c delta_lambda / lambda0^2 (first-order
    dispersion of omega = 2 pi c / lambda), and |xi|^2 = norm^2
    exp(-4 ln2 ((omega - omega0) / delta_omega)^2) with the norm fixed
    analytically (int exp(-4 ln2 (x/dw)^2) dx = dw sqrt(pi / (4 ln2)))
    so that int |xi|^2 d(omega) = 1.  The carrier must sit well clear
    of zero frequency (omega0 > 5 delta_omega) so the profile carries
    no significant mass at unphysical negative frequencies.

    The n_nodes Gauss-Legendre nodes cover [omega0 - span dw, omega0 +
    span dw], clipped to the frequency window where the stack's
    materials are tabulated; each weight is the rule's weight times
    |xi|^2 at its node.  A bandwidth whose interval rounds to the
    carrier's one float (delta_omega underflowing to 0 included) is
    refused before the window is read; one only a few floats wide
    leaves a grid without unit mass, which QuadratureGrid refuses.
    """
    if not (lambda0_nm > 0 and delta_lambda_nm > 0):
        raise ConfigError("profile needs positive carrier wavelength and "
                          "bandwidth")
    two_pi_c = 2.0 * math.pi * C_NM_PER_S   # omega = two_pi_c / lambda
    omega0 = two_pi_c / lambda0_nm
    try:
        delta_omega = two_pi_c * delta_lambda_nm / lambda0_nm ** 2
    except OverflowError as exc:
        raise ConfigError("profile carrier wavelength %.6g nm is out of "
                          "range: its square overflows" % (lambda0_nm,)
                          ) from exc
    if not omega0 > 5.0 * delta_omega:
        raise ConfigError(
            "carrier frequency %.6g is not above 5 bandwidths %.6g; "
            "the wavepacket would spill into negative frequencies"
            % (omega0, 5.0 * delta_omega))
    if n_nodes < 2:
        raise ConfigError("quadrature needs at least 2 nodes")
    if n_nodes > MAX_NODES:
        raise ConfigError("quadrature takes at most %d nodes, got %r"
                          % (MAX_NODES, n_nodes))
    if not span > 0.0:
        raise ConfigError("quadrature span must be positive, got %r"
                          % (span,))
    lo = omega0 - span * delta_omega
    hi = omega0 + span * delta_omega
    if not lo < hi:
        raise ConfigError("bandwidth %.6g nm is below the float resolution "
                          "of the carrier %.6g nm: no quadrature interval"
                          % (delta_lambda_nm, lambda0_nm))
    clipped = False
    window = stack.wavelength_window_nm()
    if window is not None:
        wlo, whi = two_pi_c / window[1], two_pi_c / window[0]
        if wlo > lo:
            lo, clipped = wlo, True
        if whi < hi:
            hi, clipped = whi, True
        if not lo < hi:
            raise ConfigError("material window leaves no quadrature interval")
    x, w = _legendre_rule(int(n_nodes))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    omega = mid + half * x
    u = (omega - omega0) / delta_omega
    norm = (4.0 * math.log(2.0) / math.pi) ** 0.25 / math.sqrt(delta_omega)
    return QuadratureGrid(
        wavelength_nm=two_pi_c / omega,
        weights=half * w * (norm ** 2 * np.exp(-4.0 * math.log(2.0) * u * u)),
        clipped=clipped)


# ---------------------------------------------------------------------------
# averaged moments and the continuum Fisher information
# ---------------------------------------------------------------------------

def continuum_hom_moments(T, R, phi_tr, grid: QuadratureGrid):
    """Averaged moments (I_T, I_R, K) of a node-dependent splitter.

    T, R and phi_tr hold the splitter at the grid nodes, nodes on the
    last axis; any leading axes carry through to the moments.  Each
    moment is the grid.weights-weighted sum of splitter_moments, so a
    flat response on an unclipped grid returns its one-node moments.
    """
    return tuple(np.asarray(m) @ grid.weights
                 for m in splitter_moments(T, R, phi_tr))


def continuum_classical_means(moments, phi_ab: float = DEFAULT_PHI_AB):
    """Averaged Poisson means (mu1, mu2) of the coherent benchmark, on a
    trailing axis: the CoherentInput(phi_ab=phi_ab) row of the probe
    table at moments from continuum_hom_moments.  Both beams ride the
    wavepacket with unit envelopes, beam a carrying the relative phase
    phi_ab; the grid's unit mass gives each one mean photon."""
    return probe_outcomes(moments, CoherentInput(phi_ab=phi_ab))


def _stencil_moments(stack, grid, theta_deg, n_s, polarization, centre=False):
    """(points, moments): the validated splitter points (T, R, phi_tr)
    of one param_stencil call in n_s at grid's nodes, nodes on the last
    axis, and their continuum_hom_moments; the one chain from a stack to
    the moments of every information figure."""
    resp, _ = param_stencil(stack, grid.wavelength_nm, theta_deg, n_s,
                            {"n_s": NS_STEP}, polarization, centre)
    points = validate_points(resp.T, resp.R, resp.phi_tr)
    del resp  # its amplitudes t and r are not needed for the moments
    return points, continuum_hom_moments(*points, grid)


def _information_pair(moments, phi_ab):
    """(i_hom, i_classical) at the stencil moments of _stencil_moments:
    the click information and the unit-intensity coherent benchmark's,
    both read through quantum_stats._probe_information."""
    return (_probe_information(moments, "click"),
            _probe_information(moments, CoherentInput(phi_ab=phi_ab)))


def continuum_fisher(stack: LayerStack, grid: QuadratureGrid, theta_deg,
                     n_s, phi_ab: float = DEFAULT_PHI_AB,
                     polarization: str = "tm"):
    """Fisher information in n_s with the wavepacket of grid.

    Returns the pair (i_hom, i_classical): the photon-pair click
    information and the coherent-probe closed-form Poisson information,
    both from the same averaged moments.  grid is a wavepacket of
    quadrature_grid, or single_frequency(wavelength_nm) for the
    single-frequency model.

    theta_deg and n_s may be arrays: each result has their broadcast
    shape and the grid's leading axes (a float for scalars).  The stack
    is evaluated by one param_stencil call on that x (+/-NS_STEP) x
    nodes.
    """
    return _information_pair(_stencil_moments(
        stack, grid, theta_deg, n_s, polarization)[1], phi_ab)
