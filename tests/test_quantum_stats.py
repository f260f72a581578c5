"""Splitter-point statistics: pair/click distributions, coherent means."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import homsensor
from homsensor.errors import UnphysicalPointError
from homsensor.quantum_stats import (
    PHYSICALITY_TOL, BsPoint, ClickDistribution, CoherentInput,
    PairDistribution, bs_point, click_distribution, coherent_output_means,
    coherent_pair_grid, coherent_pair_probability, coincidence_probability,
    hom_click_distribution, hom_pair_distribution, poisson_pair_grid,
    poisson_pmf, splitter_singular_values, validate_points,
)
from homsensor.tmm import stack_response


# ---------------------------------------------------------------------------
# BsPoint extraction and validation
# ---------------------------------------------------------------------------

def test_bs_point_from_amplitudes(stack):
    resp = stack_response(stack, 800.0, 70.0, 1.31)
    point = bs_point(resp)
    assert point.T == pytest.approx(abs(resp.t) ** 2
                                    * (resp.T / abs(resp.t) ** 2), rel=1e-12)
    assert point.R == pytest.approx(abs(resp.r) ** 2, rel=1e-12)
    assert point.phi_tr == resp.phi_tr


def test_bs_point_examples():
    # t = 0.5, r = 0.5i: quarter power each, quarter-turn phase
    p = BsPoint(T=0.25, R=0.25, phi_tr=math.pi / 2.0)
    assert (p.T, p.R, p.phi_tr) == (0.25, 0.25, math.pi / 2.0)
    # total absorption: phase pinned to zero by convention
    dead = BsPoint(T=0.0, R=0.0, phi_tr=0.0)
    assert dead.T == dead.R == dead.phi_tr == 0.0
    # t = r = 0.8 has singular value 1.6: not a passive splitter
    with pytest.raises(UnphysicalPointError):
        BsPoint(T=0.64, R=0.64, phi_tr=0.0)


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
            points[index] = BsPoint(T=t, R=r, phi_tr=p)
        else:
            with pytest.raises(UnphysicalPointError):
                BsPoint(T=t, R=r, phi_tr=p)
    # T = R = 0.5 at phi_tr = 0 has singular value 1 + 1 = 2
    assert not passive[3, 3, 0]
    first = tuple(int(i) for i in np.argwhere(~passive)[0])
    with pytest.raises(UnphysicalPointError,
                       match=r"not passive.*grid index \(%d, %d, %d\)" % first):
        validate_points(T, R, phi)
    got = validate_points(T[passive], R[passive], phi[passive])
    expected = [points[index] for index in np.ndindex(T.shape)
                if passive[index]]
    assert np.array_equal(got[0], [e.T for e in expected])
    assert np.array_equal(got[1], [e.R for e in expected])
    assert np.array_equal(got[2], [e.phi_tr for e in expected])


def test_singular_values_passive(stack):
    for n in (1.26, 1.30, 1.31, 1.33):
        point = bs_point(stack_response(stack, 800.0, 70.0, n))
        s_max, s_min = splitter_singular_values(point)
        assert max(s_max, s_min) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# pair distribution
# ---------------------------------------------------------------------------

def test_pair_ideal_dip():
    p = hom_pair_distribution(BsPoint(0.5, 0.5, math.pi / 2.0))
    assert p.p00 == pytest.approx(0.0, abs=1e-15)
    assert p.p10 == pytest.approx(0.0, abs=1e-15)
    assert p.p20 == pytest.approx(0.5, abs=1e-15)
    assert p.p11 == pytest.approx(0.0, abs=1e-15)


def test_pair_lossy_example():
    p = hom_pair_distribution(BsPoint(0.3, 0.1, math.pi / 2.0))
    assert p.p00 == pytest.approx(0.36, abs=1e-12)
    assert p.p10 == pytest.approx(0.24, abs=1e-12)
    assert p.p20 == pytest.approx(0.06, abs=1e-12)
    assert p.p11 == pytest.approx(0.04, abs=1e-12)


def test_pair_total_absorption():
    p = hom_pair_distribution(BsPoint(0.0, 0.0, 0.0))
    assert p.p00 == 1.0
    assert p.p10 == p.p01 == p.p20 == p.p02 == p.p11 == 0.0


def test_pair_symmetry_and_sum():
    p = hom_pair_distribution(BsPoint(0.3, 0.1, 1.2))
    assert p.p01 == p.p10
    assert p.p02 == p.p20
    total = p.p00 + 2.0 * p.p10 + 2.0 * p.p20 + p.p11
    assert total == pytest.approx(1.0, abs=1e-12)


def test_dip_identity():
    # p11 = (T - R)^2 when phi_tr = pi/2, zero exactly at T = R
    for T, R in ((0.4, 0.2), (0.35, 0.35), (0.5, 0.1)):
        p = hom_pair_distribution(BsPoint(T, R, math.pi / 2.0))
        assert p.p11 == pytest.approx((T - R) ** 2, abs=1e-12)
    assert hom_pair_distribution(
        BsPoint(0.35, 0.35, math.pi / 2.0)).p11 == pytest.approx(0.0,
                                                                 abs=1e-15)


# ---------------------------------------------------------------------------
# click distribution
# ---------------------------------------------------------------------------

def test_click_ideal_dip():
    pair = hom_pair_distribution(BsPoint(0.5, 0.5, math.pi / 2.0))
    c = click_distribution(pair)
    assert c.p0_click == pytest.approx(0.0, abs=1e-15)
    assert c.p1_click == pytest.approx(1.0, abs=1e-15)
    assert c.p2_click == pytest.approx(0.0, abs=1e-15)


def test_click_linear_combination():
    pair = PairDistribution(p00=0.36, p10=0.24, p20=0.06, p11=0.04)
    c = click_distribution(pair)
    assert c.p0_click == pytest.approx(0.36, abs=1e-12)
    assert c.p1_click == pytest.approx(0.60, abs=1e-12)
    assert c.p2_click == pytest.approx(0.04, abs=1e-12)


def test_click_vacuum():
    c = click_distribution(PairDistribution(1.0, 0.0, 0.0, 0.0))
    assert (c.p0_click, c.p1_click, c.p2_click) == (1.0, 0.0, 0.0)


def test_hom_click_shortcut(stack):
    point = bs_point(stack_response(stack, 800.0, 70.0, 1.30))
    direct = hom_click_distribution(point)
    via_pair = click_distribution(hom_pair_distribution(point))
    assert direct.p0_click == via_pair.p0_click
    assert direct.p1_click == via_pair.p1_click
    assert direct.p2_click == via_pair.p2_click


# ---------------------------------------------------------------------------
# coincidence probability
# ---------------------------------------------------------------------------

def test_coincidence_balanced_quarter_phase():
    assert coincidence_probability(
        BsPoint(0.35, 0.35, math.pi / 2.0)) == pytest.approx(0.0, abs=1e-15)


def test_coincidence_formula_with_validation_bypassed():
    # T = R = 0.5 with phi_tr = 0 violates passivity; evaluate the raw
    # formula by sidestepping the constructor checks.
    p = object.__new__(BsPoint)
    object.__setattr__(p, "T", 0.5)
    object.__setattr__(p, "R", 0.5)
    object.__setattr__(p, "phi_tr", 0.0)
    T, R, phi = p.T, p.R, p.phi_tr
    value = T ** 2 + R ** 2 + 2.0 * T * R * math.cos(2.0 * phi)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_coincidence_sweep_shape(stack):
    ns = np.linspace(1.25, 1.34, 91)
    vals = []
    for n in ns:
        point = bs_point(stack_response(stack, 800.0, 70.0, float(n)))
        vals.append(coincidence_probability(point))
    vals = np.array(vals)
    assert 0.55 <= vals.max() <= 0.8
    assert ns[int(np.argmin(vals))] == pytest.approx(1.31, abs=2e-3)


# ---------------------------------------------------------------------------
# coherent means
# ---------------------------------------------------------------------------

def test_coherent_means_constructive_destructive():
    means = coherent_output_means(BsPoint(0.5, 0.5, math.pi / 2.0),
                                  CoherentInput(1.0, 1.0, math.pi / 2.0))
    assert means[0] == pytest.approx(2.0, abs=1e-12)
    assert means[1] == pytest.approx(0.0, abs=1e-12)


def test_coherent_means_sum_rule(stack):
    probe = CoherentInput(1.0, 1.0, math.pi / 2.0)
    for n in (1.25, 1.29, 1.31, 1.34):
        point = bs_point(stack_response(stack, 800.0, 70.0, n))
        mu1, mu2 = coherent_output_means(point, probe)
        assert mu1 + mu2 == pytest.approx(2.0 * (point.T + point.R),
                                          abs=1e-12)


def test_coherent_means_symmetric_point():
    means = coherent_output_means(BsPoint(0.3, 0.2, math.pi / 2.0),
                                  CoherentInput(1.0, 1.0, 0.0))
    assert means[0] == pytest.approx(0.5, abs=1e-12)
    assert means[1] == pytest.approx(0.5, abs=1e-12)


def test_coherent_input_validation():
    with pytest.raises(UnphysicalPointError):
        CoherentInput(alpha_sq=-0.5)
    with pytest.raises(UnphysicalPointError):
        CoherentInput(beta_sq=float("nan"))


# ---------------------------------------------------------------------------
# Poisson pair counts
# ---------------------------------------------------------------------------

def test_poisson_at_zero():
    assert coherent_pair_probability(0, 0, (1.0, 1.0)) \
        == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_poisson_forced_empty_port():
    assert coherent_pair_probability(1, 0, (2.0, 0.0)) \
        == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert coherent_pair_probability(1, 1, (2.0, 0.0)) == 0.0


def test_poisson_negative_counts_rejected():
    with pytest.raises(ValueError):
        coherent_pair_probability(-1, 0, (1.0, 1.0))


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
    code = ("import sys, homsensor; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_truncated_grid_normalization():
    grid = poisson_pair_grid(1.0, 1.0, l_max=40)
    assert grid.shape == (41, 41)
    assert float(grid.sum()) == pytest.approx(1.0, abs=1e-12)


def test_coherent_pair_grid_matches_probabilities(stack):
    point = bs_point(stack_response(stack, 800.0, 70.0, 1.30))
    means = coherent_output_means(point, CoherentInput())
    grid = coherent_pair_grid(point, CoherentInput(), l_max=10)
    for l1, l2 in ((0, 0), (1, 2), (3, 1)):
        assert grid[l1, l2] == pytest.approx(
            coherent_pair_probability(l1, l2, means), rel=1e-12)


# ---------------------------------------------------------------------------
# normalization and positivity over a dense physical sweep
# ---------------------------------------------------------------------------

def test_distributions_normalized_on_physical_sweep(stack):
    ns = np.linspace(1.25, 1.34, 10_000)
    resp = stack_response(stack, 800.0, 70.0, ns)
    for i in range(0, ns.size, 7):
        point = BsPoint(float(resp.T[i]), float(resp.R[i]),
                        float(resp.phi_tr[i]))
        pair = hom_pair_distribution(point)
        click = click_distribution(pair)
        pair_sum = pair.p00 + 2 * pair.p10 + 2 * pair.p20 + pair.p11
        click_sum = click.p0_click + click.p1_click + click.p2_click
        assert abs(pair_sum - 1.0) <= 1e-12
        assert abs(click_sum - 1.0) <= 1e-12
        for v in (pair.p00, pair.p10, pair.p20, pair.p11,
                  click.p0_click, click.p1_click, click.p2_click):
            assert v >= 0.0
