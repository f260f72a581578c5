"""Splitter-point statistics: pair/click outcomes, coherent means."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import homsensor
from homsensor.errors import UnphysicalPointError
from homsensor.quantum_stats import (
    PHYSICALITY_TOL, CoherentInput, _hom_click_vector,
    _hom_pair_vector, _probe_partials, _raw_model, bs_point,
    coherent_output_means, hom_click_distribution, poisson_pair_grid, poisson_pmf,
    splitter_moments, validate_distribution, validate_points,
)
from homsensor.tmm import stack_response

from oracles import moment_partials

PI_HALF = math.pi / 2.0


def pair(T, R, phi):
    """Validated pair outcomes (p00, p10, p01, p20, p02, p11)."""
    return validate_distribution(
        _hom_pair_vector(*splitter_moments(*validate_points(T, R, phi))),
        "pair")


def point(T, R, phi_tr):
    """bs_point of a scalar response that holds only (T, R, phi_tr)."""
    return bs_point(SimpleNamespace(T=T, R=R, phi_tr=phi_tr))


# ---------------------------------------------------------------------------
# splitter point extraction and validation
# ---------------------------------------------------------------------------

def test_bs_point_from_amplitudes(stack):
    resp = stack_response(stack, 800.0, 70.0, 1.31)
    T, R, phi = bs_point(resp)
    assert T == pytest.approx(abs(resp.t) ** 2
                              * (resp.T / abs(resp.t) ** 2), rel=1e-12)
    assert R == pytest.approx(abs(resp.r) ** 2, rel=1e-12)
    assert phi == resp.phi_tr
    assert all(type(x) is float for x in (T, R, phi))


def test_bs_point_examples():
    # t = 0.5, r = 0.5i: quarter power each, quarter-turn phase
    assert point(0.25, 0.25, math.pi / 2.0) == (0.25, 0.25, math.pi / 2.0)
    # total absorption: phase pinned to zero by convention
    assert point(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)
    # t = r = 0.8 has singular value 1.6: not a passive splitter
    with pytest.raises(UnphysicalPointError):
        point(0.64, 0.64, 0.0)


def test_bs_point_requires_scalar_response(stack):
    resp = stack_response(stack, 800.0, 70.0, np.array([1.30, 1.31]))
    with pytest.raises(UnphysicalPointError):
        bs_point(resp)


def test_validate_points_agrees_with_bs_point():
    values = (-5e-10, 0.1, 0.25, 0.5)
    phis = (0.0, 0.7, math.pi / 2.0, math.pi)
    T, R, phi = np.meshgrid(values, values, phis, indexing="ij")
    passive = np.zeros(T.shape, dtype=bool)
    points = {}
    for index in np.ndindex(T.shape):
        t, r, p = float(T[index]), float(R[index]), float(phi[index])
        tc, rc = max(t, 0.0), max(r, 0.0)
        passive[index] = (tc + rc + 2.0 * math.sqrt(tc * rc) * abs(math.cos(p))
                          <= 1.0 + PHYSICALITY_TOL)
        if passive[index]:
            points[index] = point(t, r, p)
        else:
            with pytest.raises(UnphysicalPointError):
                point(t, r, p)
    # T = R = 0.5 at phi_tr = 0 has singular value 1 + 1 = 2
    assert not passive[3, 3, 0]
    first = tuple(int(i) for i in np.argwhere(~passive)[0])
    with pytest.raises(UnphysicalPointError,
                       match=r"not passive.*grid index \(%d, %d, %d\)" % first):
        validate_points(T, R, phi)
    got = validate_points(T[passive], R[passive], phi[passive])
    expected = [points[index] for index in np.ndindex(T.shape)
                if passive[index]]
    assert np.array_equal(np.stack(got, axis=-1), expected)


def test_singular_values_passive(stack):
    """|t +/- r| from the amplitudes stay <= 1, and validate_points
    accepts the same points."""
    resp = stack_response(stack, 800.0, 70.0, np.array([1.26, 1.30, 1.31,
                                                         1.33]))
    s_max = np.maximum(np.abs(resp.t + resp.r), np.abs(resp.t - resp.r))
    assert np.all(s_max <= 1.0 + 1e-9)
    validate_points(resp.T, resp.R, resp.phi_tr)


# ---------------------------------------------------------------------------
# pair distribution
# ---------------------------------------------------------------------------

def test_pair_ideal_dip():
    p00, p10, _, p20, _, p11 = pair(0.5, 0.5, PI_HALF)
    assert p00 == pytest.approx(0.0, abs=1e-15)
    assert p10 == pytest.approx(0.0, abs=1e-15)
    assert p20 == pytest.approx(0.5, abs=1e-15)
    assert p11 == pytest.approx(0.0, abs=1e-15)


def test_pair_lossy_example():
    p00, p10, _, p20, _, p11 = pair(0.3, 0.1, PI_HALF)
    assert p00 == pytest.approx(0.36, abs=1e-12)
    assert p10 == pytest.approx(0.24, abs=1e-12)
    assert p20 == pytest.approx(0.06, abs=1e-12)
    assert p11 == pytest.approx(0.04, abs=1e-12)


def test_pair_total_absorption():
    p = pair(0.0, 0.0, 0.0)
    assert p[0] == 1.0
    assert np.all(p[1:] == 0.0)


def test_pair_symmetry_and_sum():
    p00, p10, p01, p20, p02, p11 = pair(0.3, 0.1, 1.2)
    assert p01 == p10
    assert p02 == p20
    total = p00 + 2.0 * p10 + 2.0 * p20 + p11
    assert total == pytest.approx(1.0, abs=1e-12)


def test_dip_identity():
    # p11 = (T - R)^2 when phi_tr = pi/2, zero exactly at T = R
    T = np.array([0.4, 0.35, 0.5])
    R = np.array([0.2, 0.35, 0.1])
    p11 = pair(T, R, PI_HALF)[..., 5]
    assert p11 == pytest.approx((T - R) ** 2, abs=1e-12)
    assert pair(0.35, 0.35, PI_HALF)[5] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# click distribution
# ---------------------------------------------------------------------------

def test_click_ideal_dip():
    p0, p1, p2 = hom_click_distribution(0.5, 0.5, PI_HALF)
    assert p0 == pytest.approx(0.0, abs=1e-15)
    assert p1 == pytest.approx(1.0, abs=1e-15)
    assert p2 == pytest.approx(0.0, abs=1e-15)


def test_click_linear_combination():
    # pair outcomes (p00, p10, p20, p11) = (0.36, 0.24, 0.06, 0.04) here
    p0, p1, p2 = hom_click_distribution(0.3, 0.1, PI_HALF)
    assert p0 == pytest.approx(0.36, abs=1e-12)
    assert p1 == pytest.approx(2 * 0.24 + 2 * 0.06, abs=1e-12)
    assert p2 == pytest.approx(0.04, abs=1e-12)


def test_click_vacuum():
    assert tuple(hom_click_distribution(0.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)


def test_validate_distribution_names_first_bad_index():
    """Noise above CLAMP_FLOOR is zeroed, sums must be 1 within 1e-9, and
    the first bad cell is named; click and pair vectors obey one rule."""
    grid = np.array([[0.5, 0.5, 0.0], [1.0, -5e-13, 0.0],
                     [0.2, 0.3, 0.4], [0.3, 0.3, 0.3]])
    with pytest.raises(UnphysicalPointError,
                       match=r"sum to .* at grid index \(2,\)"):
        validate_distribution(grid, "click")
    clamped = validate_distribution(grid[:2], "click")
    assert clamped[1, 1] == 0.0
    assert np.array_equal(clamped[0], grid[0])
    with pytest.raises(UnphysicalPointError,
                       match=r"negative .* at grid index \(1, 1\)"):
        validate_distribution([[0.5, 0.5], [1.1, -0.1]], "click")
    assert validate_distribution([1.0, -5e-13, 0.0], "click")[1] == 0.0
    with pytest.raises(UnphysicalPointError):
        validate_distribution([0.5, 0.6, -0.1], "click")
    with pytest.raises(UnphysicalPointError):
        validate_distribution([0.5, 0.2, 0.2, 0.1, 0.1, 0.1], "pair")


def test_hom_click_shortcut(stack):
    """Clicks are the pair outcomes merged by detectors fired, and the
    validated function equals the raw vector on physical points."""
    resp = stack_response(stack, 800.0, 70.0, np.linspace(1.25, 1.34, 19))
    direct = hom_click_distribution(resp.T, resp.R, resp.phi_tr)
    p = pair(resp.T, resp.R, resp.phi_tr)
    assert np.array_equal(direct[:, 0], p[:, 0])
    assert np.array_equal(direct[:, 1], 2.0 * (p[:, 1] + p[:, 3]))
    assert np.array_equal(direct[:, 2], p[:, 5])
    assert np.array_equal(direct, _hom_click_vector(
        *splitter_moments(resp.T, resp.R, resp.phi_tr)))
    with pytest.raises(UnphysicalPointError, match="not passive"):
        hom_click_distribution(0.64, 0.64, 0.0)


# ---------------------------------------------------------------------------
# coincidence probability
# ---------------------------------------------------------------------------

def test_coincidence_balanced_quarter_phase():
    assert hom_click_distribution(0.35, 0.35, PI_HALF)[2] \
        == pytest.approx(0.0, abs=1e-15)


def test_coincidence_formula_with_validation_bypassed():
    # T = R = 0.5 with phi_tr = 0 violates passivity; the raw vector
    # evaluates the formula without the validation.
    assert _hom_pair_vector(*splitter_moments(0.5, 0.5, 0.0))[5] \
        == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(UnphysicalPointError):
        validate_points(0.5, 0.5, 0.0)


def test_coincidence_sweep_shape(stack):
    ns = np.linspace(1.25, 1.34, 91)
    resp = stack_response(stack, 800.0, 70.0, ns)
    vals = hom_click_distribution(resp.T, resp.R, resp.phi_tr)[:, 2]
    assert 0.55 <= vals.max() <= 0.8
    assert ns[int(np.argmin(vals))] == pytest.approx(1.31, abs=2e-3)


# ---------------------------------------------------------------------------
# coherent means
# ---------------------------------------------------------------------------

def test_coherent_means_constructive_destructive():
    means = coherent_output_means(0.5, 0.5, PI_HALF,
                                  CoherentInput(1.0, 1.0, PI_HALF))
    assert means[0] == pytest.approx(2.0, abs=1e-12)
    assert means[1] == pytest.approx(0.0, abs=1e-12)


def test_coherent_means_sum_rule(stack):
    probe = CoherentInput(1.0, 1.0, PI_HALF)
    resp = stack_response(stack, 800.0, 70.0,
                          np.array([1.25, 1.29, 1.31, 1.34]))
    mu = coherent_output_means(resp.T, resp.R, resp.phi_tr, probe)
    assert mu.shape == (4, 2)
    assert mu.sum(axis=-1) == pytest.approx(2.0 * (resp.T + resp.R),
                                            abs=1e-12)


def test_coherent_means_symmetric_point():
    means = coherent_output_means(0.3, 0.2, PI_HALF,
                                  CoherentInput(1.0, 1.0, 0.0))
    assert means[0] == pytest.approx(0.5, abs=1e-12)
    assert means[1] == pytest.approx(0.5, abs=1e-12)



@pytest.mark.parametrize("phi_ab", [0.0, 0.7, PI_HALF, 2.5, -1.2])
def test_coherent_means_conserve_photon_number(phi_ab):
    """An unbalanced probe on a lossless splitter: mu1 = |t alpha + r
    beta|^2, mu2 = |t beta + r alpha|^2, and every photon leaves."""
    T, R, phi_tr, a, b = 0.3, 0.7, PI_HALF, 2.0, 0.5
    mu = coherent_output_means(T, R, phi_tr, CoherentInput(a, b, phi_ab))
    assert mu.sum() == pytest.approx(a + b, abs=1e-12)
    t, r = math.sqrt(T), math.sqrt(R) * complex(math.cos(phi_tr),
                                                math.sin(phi_tr))
    alpha = math.sqrt(a) * complex(math.cos(phi_ab), math.sin(phi_ab))
    beta = math.sqrt(b)
    assert mu == pytest.approx([abs(t * alpha + r * beta) ** 2,
                                abs(t * beta + r * alpha) ** 2], abs=1e-12)

def test_coherent_input_validation():
    with pytest.raises(UnphysicalPointError):
        CoherentInput(alpha_sq=-0.5)
    with pytest.raises(UnphysicalPointError):
        CoherentInput(beta_sq=float("nan"))
    CoherentInput(phi_ab=np.linspace(-1.0, 1.0, 5))
    with pytest.raises(UnphysicalPointError):
        CoherentInput(phi_ab=np.array([0.0, float("nan"), 1.0]))


# ---------------------------------------------------------------------------
# partials of the probe table in the moments
# ---------------------------------------------------------------------------

# (I_T, I_R, K): two passive splitters (one at the dip), the vacuum, a
# point whose first coherent mean is negative, and two far off the
# physical set
MOMENTS = [splitter_moments(0.3, 0.25, 1.1),
           splitter_moments(0.5, 0.5, PI_HALF), (0.0, 0.0, 0j),
           (0.01, 0.01, 0.5j), (1.7, -0.4, 2.0 - 3.0j),
           (-3.0, 12.0, -0.5 + 7.0j)]
BATCH = tuple(np.array(column) for column in zip(*MOMENTS))
PROBES = ["click", "pair", CoherentInput(), CoherentInput(2.0, 0.5, 0.7)]
PROBE_IDS = ["click", "pair", "coherent", "unbalanced_coherent"]


@pytest.mark.parametrize("probe", PROBES, ids=PROBE_IDS)
def test_probe_partials_match_written_out_oracle(probe):
    """Every row's partials in (I_T, I_R, Re K, Im K), batched, equal the
    derivatives of its formula at each point, physical or not; the
    coherent row is the unfloored mean's, negative mu1 included."""
    got = _probe_partials(BATCH, probe)
    for j, moments in enumerate(MOMENTS):
        ref = moment_partials(*moments, probe)
        assert got[j].shape == ref.shape
        assert np.max(np.abs(got[j] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("probe", PROBES, ids=PROBE_IDS)
def test_probe_partials_do_not_depend_on_the_step(probe):
    """A central difference is exact for rows of degree <= 2: the raw
    model's half-step differences agree with _probe_partials' unit steps
    to rounding (a row of higher degree would not)."""
    model, (i_t, i_r, k) = _raw_model(probe), BATCH
    half = np.stack([
        model(i_t + a, i_r + b, k + c) - model(i_t - a, i_r - b, k - c)
        for a, b, c in ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0),
                        (0.0, 0.0, 0.5), (0.0, 0.0, 0.5j))], axis=-2)
    one = _probe_partials(BATCH, probe)
    scale = np.max(np.abs(one), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(one - half) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Poisson pair counts
# ---------------------------------------------------------------------------

def test_poisson_at_zero():
    assert poisson_pair_grid(1.0, 1.0)[0, 0] \
        == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_poisson_forced_empty_port():
    grid = poisson_pair_grid(2.0, 0.0)
    assert grid[1, 0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert grid[1, 1] == 0.0


def test_poisson_negative_counts_rejected():
    with pytest.raises(ValueError):
        poisson_pmf([-1, 0], [1.0, 1.0])


@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5, 1.0, 2.0, 4.0])
def test_poisson_pmf_matches_factorial_oracle(mu):
    got = poisson_pmf(np.arange(41), mu)
    for k, value in enumerate(got):
        oracle = mu ** k * math.exp(-mu) / math.factorial(k)
        if oracle == 0.0:
            assert value == 0.0
        else:
            assert abs(value - oracle) <= 1e-12 * oracle
    if mu == 0.0:
        assert got[0] == 1.0


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        homsensor.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, homsensor.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_truncated_grid_normalization():
    grid = poisson_pair_grid(1.0, 1.0, l_max=40)
    assert grid.shape == (41, 41)
    assert float(grid.sum()) == pytest.approx(1.0, abs=1e-12)


def test_coherent_pair_grid_matches_probabilities(stack):
    resp = stack_response(stack, 800.0, 70.0, 1.30)
    means = coherent_output_means(resp.T, resp.R, resp.phi_tr,
                                  CoherentInput())
    grid = poisson_pair_grid(*means, l_max=10)
    for l1, l2 in ((0, 0), (1, 2), (3, 1)):
        oracle = math.prod(mu ** k * math.exp(-mu) / math.factorial(k)
                           for k, mu in zip((l1, l2), means))
        assert grid[l1, l2] == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# normalization and positivity over a dense physical sweep
# ---------------------------------------------------------------------------

def test_distributions_normalized_on_physical_sweep(stack):
    ns = np.linspace(1.25, 1.34, 10_000)
    resp = stack_response(stack, 800.0, 70.0, ns)
    pairs = pair(resp.T, resp.R, resp.phi_tr)
    clicks = hom_click_distribution(resp.T, resp.R, resp.phi_tr)
    assert np.all(np.abs(pairs.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(np.abs(clicks.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(pairs >= 0.0) and np.all(clicks >= 0.0)
