"""Independent reference implementations used to cross-check the library.

Most of these are deliberately written with a different algorithm than
the code under test: the multilayer response uses the interface
recursion (Airy summation) instead of matrix products, the information
helpers use direct probability-space formulas, and the coherent-probe
information is computed from the explicit joint count grid instead of
the Poisson closed form.  Two pin the library's arithmetic instead: the
transfer loop written with tuple assignments, which stack_response must
match bit for bit, and numpy's eigenvalue-based Gauss-Legendre rule.
The scalar uncertainty budget evaluates one point per stack_response
call, where the library evaluates one stencil over every parameter.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from homsensor.errors import ConfigError
from homsensor.estimation import (BUDGET_STEP, fisher_from_distribution,
                                  load_budget_sources)
from homsensor.quantum_stats import (POISSON_L_MAX, CoherentInput,
                                     _hom_pair_vector, bs_point,
                                     coherent_output_means, poisson_pair_grid,
                                     splitter_moments, validate_points)
from homsensor.tmm import (NS_STEP, PHASE_AMPLITUDE_FLOOR,
                           _cosines_from_indices, _flux_factor, _resolve_ns,
                           prism_index, sensor_thicknesses, stack_response,
                           with_sensor)


# ---------------------------------------------------------------------------
# interface-recursion multilayer response
# ---------------------------------------------------------------------------

def _cosine(n, n0_sin):
    """Complex propagation cosine in a layer, decaying-wave branch."""
    c = cmath.sqrt(1.0 - (n0_sin / n) ** 2)
    if (n * c).imag < 0.0:
        c = -c
    return c


def _fresnel_pair(n_i, n_f, c_i, c_f, pol):
    if pol == "tm":
        denom = n_f * c_i + n_i * c_f
        r = (n_f * c_i - n_i * c_f) / denom
        t = 2.0 * n_i * c_i / denom
    else:
        denom = n_i * c_i + n_f * c_f
        r = (n_i * c_i - n_f * c_f) / denom
        t = 2.0 * n_i * c_i / denom
    return r, t


def airy_response(indices, thicknesses_nm, wavelength_nm, theta_deg,
                  pol="tm"):
    """Amplitudes (t, r) of a multilayer by backward interface recursion.

    indices: complex index per layer, first and last semi-infinite.
    thicknesses_nm: interior thicknesses (len(indices) - 2 entries).
    The recursion folds the partial-wave geometric series interface by
    interface, a different composition than the transfer matrix.
    """
    n = [complex(v) for v in indices]
    L = len(n)
    if len(thicknesses_nm) != L - 2:
        raise ValueError("need one thickness per interior layer")
    theta = math.radians(theta_deg)
    n0_sin = n[0] * math.sin(theta)
    cos = [_cosine(v, n0_sin) for v in n]

    r_if = []
    t_if = []
    for j in range(L - 1):
        r, t = _fresnel_pair(n[j], n[j + 1], cos[j], cos[j + 1], pol)
        r_if.append(r)
        t_if.append(t)

    # one-way phase across each interior layer
    phases = [2.0 * math.pi * n[j + 1] * cos[j + 1]
              * thicknesses_nm[j] / wavelength_nm
              for j in range(L - 2)]

    r_tot = r_if[L - 2]
    t_tot = t_if[L - 2]
    for j in range(L - 3, -1, -1):
        ph = cmath.exp(1j * phases[j])
        denom = 1.0 + r_if[j] * r_tot * ph * ph
        t_tot = t_if[j] * ph * t_tot / denom
        r_tot = (r_if[j] + r_tot * ph * ph) / denom
    return t_tot, r_tot


def airy_flux(indices, thicknesses_nm, wavelength_nm, theta_deg, pol="tm"):
    """(T, R) intensity coefficients from the recursion amplitudes."""
    t, r = airy_response(indices, thicknesses_nm, wavelength_nm, theta_deg,
                         pol)
    n = [complex(v) for v in indices]
    theta = math.radians(theta_deg)
    n0_sin = n[0] * math.sin(theta)
    c0 = _cosine(n[0], n0_sin)
    cL = _cosine(n[-1], n0_sin)
    if pol == "tm":
        f0 = (n[0] * c0.conjugate()).real
        fL = (n[-1] * cL.conjugate()).real
    else:
        f0 = (n[0] * c0).real
        fL = (n[-1] * cL).real
    return abs(t) ** 2 * fL / f0, abs(r) ** 2


# ---------------------------------------------------------------------------
# transfer loop with tuple assignments
# ---------------------------------------------------------------------------

def tuple_loop_response(stack, wavelength_nm, theta_deg, n_s=None,
                        polarization="tm"):
    """(t, r, T, R, phi_tr) of stack_response from the transfer loop
    written with tuple assignments, which hold every old and new matrix
    entry at once, and the Fresnel pair of _fresnel_pair.  The arithmetic
    is stack_response's, operand for operand, so the two agree bit for
    bit; inputs are assumed valid."""
    n_s = _resolve_ns(stack, n_s)

    lam = np.asarray(wavelength_nm, dtype=float)
    th = np.radians(np.asarray(theta_deg, dtype=float))
    ns = None if n_s is None else np.asarray(n_s, dtype=complex)

    n_list = [ns if j == stack.sample_layer
              else np.asarray(layer.material.index(lam), dtype=complex)
              for j, layer in enumerate(stack.layers)]
    shape = np.broadcast_shapes(
        lam.shape, th.shape, *(n.shape for n in n_list),
        *(np.shape(layer.thickness_nm) for layer in stack.layers[1:-1]))
    n0_sin = n_list[0] * np.sin(th)
    cos_list = [_cosines_from_indices(nj, n0_sin) for nj in n_list]

    def interface(j):
        r_ij, t_ij = _fresnel_pair(n_list[j], n_list[j + 1], cos_list[j],
                                   cos_list[j + 1], polarization)
        return 1.0 / t_ij, r_ij / t_ij

    m11, m12 = interface(0)
    m21, m22 = m12, m11
    for j in range(1, len(n_list) - 1):
        d = stack.layers[j].thickness_nm
        delta = 2.0 * np.pi * n_list[j] * cos_list[j] * d / lam
        em, ep = np.exp(-1j * delta), np.exp(1j * delta)
        m11, m12 = m11 * em, m12 * ep
        m21, m22 = m21 * em, m22 * ep
        b11, b12 = interface(j)
        m11, m12, m21, m22 = (m11 * b11 + m12 * b12, m11 * b12 + m12 * b11,
                              m21 * b11 + m22 * b12, m21 * b12 + m22 * b11)

    t = 1.0 / m11
    r = m21 / m11

    f_in = _flux_factor(n_list[0], cos_list[0], polarization)
    f_out = _flux_factor(n_list[-1], cos_list[-1], polarization)
    T = (np.abs(t) ** 2) * f_out / f_in
    R = np.abs(r) ** 2
    arg_r = np.where(np.abs(r) <= PHASE_AMPLITUDE_FLOOR, 0.0, np.angle(r))
    arg_t = np.where(np.abs(t) <= PHASE_AMPLITUDE_FLOOR, 0.0, np.angle(t))
    phi = arg_r - arg_t
    phi = np.where(phi > np.pi, phi - 2.0 * np.pi, phi)
    phi = np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi)
    return tuple(np.broadcast_to(x, shape)[()]
                 for x in (t, r, T.real, R.real, phi))


# ---------------------------------------------------------------------------
# information oracles
# ---------------------------------------------------------------------------

def fisher_direct(probs_fn, x, step):
    """Plain central-difference Fisher information of a distribution."""
    p_plus = np.asarray(probs_fn(x + step), dtype=float)
    p_minus = np.asarray(probs_fn(x - step), dtype=float)
    dp = (p_plus - p_minus) / (2.0 * step)
    p_mid = 0.5 * (p_plus + p_minus)
    keep = p_mid > 1e-15
    return float(np.sum(dp[keep] ** 2 / p_mid[keep]))


def bernoulli_fisher(p, dp):
    """Closed form for a two-outcome distribution (p, 1-p)."""
    return dp * dp / p + dp * dp / (1.0 - p)


def mixture_fisher(components_fn, x, step):
    """Fisher information of an equal-weight mixture of distributions.

    components_fn(x) returns a list of outcome arrays; the mixture
    averages them element-wise before differentiating.
    """
    def mixed(v):
        parts = [np.asarray(c, dtype=float) for c in components_fn(v)]
        return sum(parts) / len(parts)

    return fisher_direct(mixed, x, step)


# ---------------------------------------------------------------------------
# coherent probe from the explicit joint count grid
# ---------------------------------------------------------------------------

def _count_grid(stack, wavelength_nm, theta_deg, n, probe, polarization,
                l_max):
    """Truncated joint count pmf of the coherent probe at one n_s."""
    resp = stack_response(stack, wavelength_nm, theta_deg, n, polarization)
    mu1, mu2 = coherent_output_means(
        *validate_points(resp.T, resp.R, resp.phi_tr), probe)
    return poisson_pair_grid(mu1, mu2, l_max)


def fisher_classical_counts(stack, wavelength_nm, theta_deg, n_s,
                            probe=None, polarization="tm",
                            step=NS_STEP, l_max=POISSON_L_MAX):
    """Coherent-probe information from the explicit joint count grid.

    Numerically redundant with fisher_classical (the Poisson closed
    form), and the building block for non-product count distributions
    such as phase mixtures.
    """
    probe = probe or CoherentInput()

    def dist(n):
        return _count_grid(stack, wavelength_nm, theta_deg, n, probe,
                           polarization, l_max).ravel()

    return fisher_from_distribution(dist, float(n_s), step)


def mixed_phase_classical_fisher(stack, wavelength_nm, theta_deg, n_s,
                                 phi_ab_magnitude=None, probe=None,
                                 polarization="tm", step=NS_STEP,
                                 l_max=POISSON_L_MAX):
    """Coherent-probe information without a locked phase sign.

    Models a probe whose relative phase is +phi_ab or -phi_ab with equal
    probability on each trial: the outcome distribution is the equal
    mixture of the two joint count grids.  Mixing can only discard
    information, so this never exceeds the phase-locked value.

    phi_ab_magnitude sets |phi_ab| (unit intensities); its sign does not
    matter since both signs are mixed.  Give it or a full CoherentInput
    via probe, not both.
    """
    if probe is None:
        probe = CoherentInput() if phi_ab_magnitude is None \
            else CoherentInput(phi_ab=float(phi_ab_magnitude))
    elif phi_ab_magnitude is not None:
        raise ConfigError("give phi_ab_magnitude or probe, not both")
    flipped = CoherentInput(probe.alpha_sq, probe.beta_sq, -probe.phi_ab)

    def dist(n):
        return (0.5 * sum(_count_grid(stack, wavelength_nm, theta_deg, n, p,
                                      polarization, l_max)
                          for p in (probe, flipped))).ravel()

    return fisher_from_distribution(dist, float(n_s), step)


def _poisson_pair(mu1, mu2, l_max):
    """Joint pmf of two independent Poisson counts, 0..l_max each."""
    k = np.arange(l_max + 1)
    fact = np.array([math.factorial(int(i)) for i in k], dtype=float)
    return np.outer(mu1 ** k * math.exp(-mu1) / fact,
                    mu2 ** k * math.exp(-mu2) / fact)


def count_grid_information_matrix(T, R, phi, a=1.0, b=1.0,
                                  phi_ab=math.pi / 2.0, step=1e-5,
                                  l_max=40):
    """3x3 information matrix over (T, R, phi_tr) of the coherent probe's
    truncated joint count grid: a five-point stencil per axis and a plain
    sum over the count outcomes for each entry."""
    def counts(tau):
        t, r, p = tau
        cross = 2.0 * math.sqrt(max(t * r * a * b, 0.0))
        mu1 = max(t * a + r * b + cross * math.cos(p - phi_ab), 0.0)
        mu2 = max(t * a + r * b + cross * math.cos(p + phi_ab), 0.0)
        return _poisson_pair(mu1, mu2, l_max).ravel()

    tau = np.array([T, R, phi], dtype=float)
    p0 = counts(tau)
    partials = []
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = step
        partials.append((counts(tau - 2 * e) - 8.0 * counts(tau - e)
                         + 8.0 * counts(tau + e) - counts(tau + 2 * e))
                        / (12.0 * step))
    keep = p0 > 1e-15
    return np.array([[np.sum(pa[keep] * pb[keep] / p0[keep])
                      for pb in partials] for pa in partials])


# ---------------------------------------------------------------------------
# Gauss-Legendre rule
# ---------------------------------------------------------------------------

def eigenvalue_legendre_rule(n):
    """numpy's Gauss-Legendre nodes and weights on [-1, 1]: Golub-Welsch
    eigenvalues, one Newton step, weights normalized to sum 2."""
    return np.polynomial.legendre.leggauss(n)


# ---------------------------------------------------------------------------
# sequential bisection
# ---------------------------------------------------------------------------

def sequential_bisection(imbalance, lo, hi, glo):
    """calibrate_stack's bisection one step per imbalance call: every
    bracket [lo, hi] at once, 80 steps, an exact zero pinning both ends."""
    for _ in range(80):  # bisection to ~1e-22 nm, converges long before
        mid = 0.5 * (lo + hi)
        gm = imbalance(mid)
        # an exact zero pins both ends, which then stay put
        same = np.sign(gm) == np.sign(glo)
        lo = np.where(same | (gm == 0.0), mid, lo)
        hi = np.where(same, hi, mid)
        glo = np.where(same, gm, glo)
    return lo, hi


# ---------------------------------------------------------------------------
# scalar uncertainty budget
# ---------------------------------------------------------------------------

def scalar_coincidence_signal(stack, wavelength_nm, theta_deg, n_s,
                              polarization):
    """p11 at one point, through bs_point and one scalar stack_response."""
    point = bs_point(stack_response(stack, wavelength_nm, theta_deg, n_s,
                                    polarization))
    return float(_hom_pair_vector(*splitter_moments(*point))[-1])


def scalar_uncertainty_budget(stack, wavelength_nm=800.0, theta_deg=70.0,
                              n_analyte=1.32, sources=None,
                              polarization="tm"):
    """(signal slope, [(c, sigma)] per source) of uncertainty_budget from
    one scalar stack_response call per stencil point: 11 calls for the
    default sources, each central difference at step BUDGET_STEP."""
    sources = sources if sources is not None else load_budget_sources()
    h = BUDGET_STEP

    def signal(n_s, stk=stack, theta=theta_deg, pol=polarization):
        return scalar_coincidence_signal(stk, wavelength_nm, theta, n_s, pol)

    def central(f, x):
        return (f(x + h) - f(x - h)) / (2 * h)

    slope = central(signal, n_analyte)
    rows = []
    for src in sources:
        if src.kind == "incidence_angle":
            d = central(lambda th: signal(n_analyte, theta=th), theta_deg)
        elif src.kind == "prism_index":
            d = central(lambda n: signal(
                n_analyte, stk=with_sensor(stack, prism_n=n)),
                prism_index(stack, wavelength_nm))
        elif src.kind == "polarization_angle":
            s_tm = signal(n_analyte, pol="tm")
            s_te = signal(n_analyte, pol="te")

            def mixed(gamma_deg):
                g = math.radians(gamma_deg)
                return math.cos(g) ** 2 * s_tm + math.sin(g) ** 2 * s_te

            d = central(mixed, src.s)
        else:  # film_thickness, both films, per meter
            d = central(lambda d_nm: signal(
                n_analyte, stk=with_sensor(stack, film_nm=d_nm)),
                sensor_thicknesses(stack)[0]) * 1e9
        c = abs(d) / abs(slope)
        rows.append((c, c * src.s / src.divisor))
    return slope, rows
