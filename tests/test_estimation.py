"""Information layer: Fisher quantities, decomposition, budget, scans."""

import math
import warnings

import numpy as np
import pytest

from homsensor.errors import ConfigError, UndefinedRatioError
from homsensor.estimation import (
    BUDGET_STEP, BudgetSource, CoherentInput, _coincidence_signal,
    enhancement_ratio, fisher_classical, fisher_decomposition,
    fisher_from_distribution, fisher_hom, fisher_report, load_budget_sources,
    phi_ab_scan, precision_bound, uncertainty_budget,
)
from homsensor.materials import constant_material
from homsensor.quantum_stats import (
    coherent_output_means, hom_click_distribution, poisson_pair_grid,
)
from homsensor.tmm import (Layer, LayerStack, make_sensor_stack,
                           stack_response)

from oracles import (count_grid_information_matrix, fisher_classical_counts,
                     fisher_direct, mixed_phase_classical_fisher,
                     mixture_fisher)

PI_HALF = math.pi / 2.0


def flat_stack():
    """Five layers of one glass: no n_s dependence (zero-thickness gap)."""
    glass = constant_material("glass", 1.5)
    return LayerStack(layers=(Layer(glass, None), Layer(glass, 50.0),
                              Layer(glass, 0.0), Layer(glass, 50.0),
                              Layer(glass, None)),
                      sample_layer=2, sample_n=1.5)


# ---------------------------------------------------------------------------
# generic Fisher evaluator
# ---------------------------------------------------------------------------

def test_constant_distribution_zero_information():
    assert fisher_from_distribution(lambda n: [0.3, 0.7], 0.5) == 0.0


def test_bernoulli_information():
    info = fisher_from_distribution(lambda n: [n, 1.0 - n], 0.5)
    assert info == pytest.approx(4.0, abs=1e-6)


def _clicks(stack, n):
    resp = stack_response(stack, 800.0, 70.0, n)
    return hom_click_distribution(resp.T, resp.R, resp.phi_tr)


def test_relabeling_invariance(stack):
    def clicks(n):
        return _clicks(stack, n)

    def permuted(n):
        p = clicks(n)
        return np.array([p[2], p[0], p[1]])

    a = fisher_from_distribution(clicks, 1.30)
    b = fisher_from_distribution(permuted, 1.30)
    assert b == pytest.approx(a, rel=1e-12)


def test_dead_outcome_carrying_information_warns():
    # The third outcome stays below ZERO_PROB_FLOOR (1e-16 .. 9e-16) but
    # moves by 4e-10 per RIU, so at least (4e-10)^2 / 1e-15 = 1.6e-4 of
    # information is skipped against 0.04 carried by the live outcomes.
    def dist(n):
        eps = 5e-16 + 4e-10 * n
        a = 0.5 + 0.1 * n
        return np.array([1.0 - a - eps, a, eps])

    with pytest.warns(UserWarning, match="underestimated"):
        fisher_from_distribution(dist, 0.0)


def test_non_normalized_distribution_rejected():
    with pytest.raises(ConfigError):
        fisher_from_distribution(lambda n: [0.3, 0.3], 0.5)


def test_matches_plain_central_difference_oracle(stack):
    def clicks(n):
        return _clicks(stack, n)

    mine = fisher_from_distribution(clicks, 1.29)
    ref = fisher_direct(clicks, 1.29, 1e-6)
    assert mine == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# photon-pair information
# ---------------------------------------------------------------------------

def test_hom_information_dips_at_crossing(stack):
    ns = np.linspace(1.25, 1.34, 91)
    vals = np.array([fisher_hom(stack, 800.0, 70.0, float(n)) for n in ns])
    at_cross = fisher_hom(stack, 800.0, 70.0, 1.31)
    assert at_cross < 1e-2 * vals.max()


def test_hom_precision_scale(stack):
    ns = np.linspace(1.25, 1.34, 91)
    vals = [fisher_hom(stack, 800.0, 70.0, float(n)) for n in ns]
    best = precision_bound(max(vals))
    assert best == pytest.approx(0.0154, rel=0.30)


def test_hom_zero_for_flat_stack():
    assert fisher_hom(flat_stack(), 800.0, 40.0, 1.5) == 0.0


def test_pair_outcomes_carry_at_least_click_information(stack):
    for n in (1.26, 1.295, 1.305, 1.325):
        click = fisher_hom(stack, 800.0, 70.0, n, outcomes="click")
        pair = fisher_hom(stack, 800.0, 70.0, n, outcomes="pair")
        assert click <= pair * (1.0 + 1e-9) + 1e-12


def test_information_nonnegative(stack):
    for n in (1.25, 1.28, 1.31, 1.34):
        assert fisher_hom(stack, 800.0, 70.0, n) >= 0.0
        assert fisher_classical(stack, 800.0, 70.0, n) >= 0.0


# ---------------------------------------------------------------------------
# coherent-probe information
# ---------------------------------------------------------------------------

def test_closed_form_matches_truncated_counts(stack):
    for n in (1.27, 1.30, 1.325):
        closed = fisher_classical(stack, 800.0, 70.0, n, phi_ab=PI_HALF)
        counted = fisher_classical_counts(stack, 800.0, 70.0, n)
        assert counted == pytest.approx(closed, rel=1e-8)


def test_classical_counts_no_warning_on_ordinary_points(stack):
    # The truncated Poisson tail has outcomes below ZERO_PROB_FLOOR whose
    # derivatives are ~1e-12: their skipped share of I is ~1e-12.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1.27, 1.30, 1.325):
            fisher_classical_counts(stack, 800.0, 70.0, n)


@pytest.mark.parametrize("scheme", ["click", "pair", "classical"])
def test_batched_fisher_matches_scalar_calls(stack, scheme):
    lams = np.array([795.0, 800.0, 805.0])
    ns = np.linspace(1.26, 1.34, 7)

    def info(lam, n):
        if scheme == "classical":
            return fisher_classical(stack, lam, 70.0, n)
        return fisher_hom(stack, lam, 70.0, n, outcomes=scheme)

    grid = info(lams[:, None], ns)
    assert grid.shape == (3, 7)
    for i, lam in enumerate(lams):
        for j, n in enumerate(ns):
            scalar = info(float(lam), float(n))
            assert isinstance(scalar, float)
            assert grid[i, j] == pytest.approx(scalar, rel=1e-9)


def test_classical_zero_for_flat_stack():
    assert fisher_classical(flat_stack(), 800.0, 40.0, 1.5) == 0.0


def test_phi_ab_or_probe_not_both(stack):
    with pytest.raises(ConfigError):
        fisher_classical(stack, 800.0, 70.0, 1.30, phi_ab=0.1,
                         probe=CoherentInput())


def test_phase_scan_peaks_at_quarter_turns(stack):
    """Under the frozen-phase convention the scan peaks at +/- pi/2."""
    for n in (1.27, 1.30, 1.33):
        scan = phi_ab_scan(stack, 800.0, 70.0, n,
                           phi_tr_assumption=PI_HALF)
        dist = min(abs(scan.phi_opt - PI_HALF), abs(scan.phi_opt + PI_HALF))
        assert dist <= scan.grid_step


def test_phase_scan_matches_fisher_classical(stack):
    """Each scanned phase carries fisher_classical's value there."""
    scan = phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=12)
    for phi_ab, value in zip(scan.phi_ab, scan.fisher):
        expected = fisher_classical(stack, 800.0, 70.0, 1.30,
                                    phi_ab=float(phi_ab))
        assert value == pytest.approx(expected, rel=1e-12)
    assert scan.fisher_opt >= scan.fisher.max()


def test_phase_scan_grid_is_half_open(stack):
    scan = phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=8,
                       refine=False)
    assert scan.phi_ab[0] == pytest.approx(-math.pi)
    assert scan.phi_ab[-1] < math.pi
    assert scan.phi_ab.size == 8


# ---------------------------------------------------------------------------
# mixture of probe phases
# ---------------------------------------------------------------------------

def test_mixture_never_beats_fixed_phase(stack):
    for n in (1.27, 1.2951, 1.31, 1.3249, 1.34):
        mixed = mixed_phase_classical_fisher(stack, 800.0, 70.0, n)
        fixed = fisher_classical(stack, 800.0, 70.0, n, phi_ab=PI_HALF)
        assert mixed <= fixed * (1.0 + 1e-9) + 1e-12


def test_mixture_of_identical_components(stack):
    # At phi_ab = 0 the two component distributions coincide, so the
    # mixture must equal the unmixed information.
    mixed = mixed_phase_classical_fisher(stack, 800.0, 70.0, 1.30,
                                         phi_ab_magnitude=0.0)
    plain = fisher_classical_counts(stack, 800.0, 70.0, 1.30,
                                    probe=CoherentInput(phi_ab=0.0))
    assert mixed == pytest.approx(plain, rel=1e-10)


def test_mixture_phase_magnitude_or_probe_not_both(stack):
    with pytest.raises(ConfigError):
        mixed_phase_classical_fisher(stack, 800.0, 70.0, 1.30,
                                     phi_ab_magnitude=0.1,
                                     probe=CoherentInput())


def test_mixture_matches_direct_sum_oracle(stack):
    n0 = 1.30

    def components(n):
        resp = stack_response(stack, 800.0, 70.0, n)
        out = []
        for phi in (PI_HALF, -PI_HALF):
            mu1, mu2 = coherent_output_means(resp.T, resp.R, resp.phi_tr,
                                             CoherentInput(phi_ab=phi))
            out.append(poisson_pair_grid(mu1, mu2, 40).ravel())
        return out

    ref = mixture_fisher(components, n0, 1e-6)
    mine = mixed_phase_classical_fisher(stack, 800.0, 70.0, n0)
    assert mine == pytest.approx(ref, rel=1e-8)


# ---------------------------------------------------------------------------
# enhancement ratio and precision bound
# ---------------------------------------------------------------------------

def test_enhancement_examples():
    assert enhancement_ratio(2.0, 2.0) == 0.0
    assert enhancement_ratio(3.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(UndefinedRatioError):
        enhancement_ratio(1.0, 0.0)
    with pytest.raises(UndefinedRatioError):
        enhancement_ratio(1.0, 1e-13)


def test_enhancement_reaches_half_on_sweep(stack):
    ns = np.linspace(1.25, 1.34, 91)
    best = -math.inf
    for n in ns:
        if abs(n - 1.31) < 5e-3:
            continue  # skip the undefined window around the dip
        i_h = fisher_hom(stack, 800.0, 70.0, float(n))
        i_c = fisher_classical(stack, 800.0, 70.0, float(n), phi_ab=PI_HALF)
        try:
            best = max(best, enhancement_ratio(i_h, i_c))
        except UndefinedRatioError:
            continue
    assert best == pytest.approx(0.5, abs=0.25)



def test_lossless_limit_enhancement_is_one():
    """Without metal films the splitter is lossless: the pair probe
    carries twice the coherent information in every cell, and no
    outcome is left as rounding debris that trips the dead-outcome
    warning."""
    stack = make_sensor_stack(d_metal_nm=0.0, d_sample_nm=250.0)
    lam = np.linspace(600.0, 1000.0, 41)[:, None]
    ns = np.linspace(1.20, 1.34, 141)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_h = fisher_hom(stack, lam, 70.0, ns)
        i_c = fisher_classical(stack, lam, 70.0, ns)
    assert i_h.shape == (41, 141)
    assert np.max(np.abs(enhancement_ratio(i_h, i_c) - 1.0)) <= 1e-6

def test_precision_bound_values():
    assert precision_bound(4217.0) == pytest.approx(0.0154, abs=2e-4)
    assert precision_bound(1.0) == 1.0
    assert precision_bound(0.0) == math.inf
    assert precision_bound(-3.0) == math.inf


def test_precision_bound_and_ratio_broadcast():
    assert np.array_equal(precision_bound(np.array([4.0, 0.0, -3.0])),
                          [0.5, math.inf, math.inf])
    g = enhancement_ratio(np.array([3.0, 2.0]), np.array([2.0, 2.0]))
    assert np.array_equal(g, [0.5, 0.0])
    with pytest.raises(UndefinedRatioError, match="1e-13"):
        enhancement_ratio(np.array([3.0, 1.0]), np.array([2.0, 1e-13]))


# ---------------------------------------------------------------------------
# decomposition over (T, R, phi_tr)
# ---------------------------------------------------------------------------

def test_classical_cross_term_vanishes(stack):
    """With a = b at phi_ab = pi/2 the T-R entry is the Poisson closed form
    2 u cos^2(phi) / (sqrt(TR) (u^2 - 4 sin^2(phi))), u = (T + R)/sqrt(TR):
    zero under the quarter-wave freeze, and matched at the actual phase."""
    for n in (1.26, 1.29, 1.315, 1.335):
        dec = fisher_decomposition(stack, 800.0, 70.0, n,
                                   scheme="classical",
                                   phi_tr_assumption=PI_HALF)
        assert abs(dec.matrix[0, 1]) <= 1e-9
        assert abs(dec.matrix[1, 0]) <= 1e-9

        actual = fisher_decomposition(stack, 800.0, 70.0, n,
                                      scheme="classical")
        T, R, phi = actual.T, actual.R, actual.phi_used
        g = math.sqrt(T * R)
        u = (T + R) / g
        closed = 2.0 * u * math.cos(phi) ** 2 \
            / (g * (u * u - 4.0 * math.sin(phi) ** 2))
        assert actual.matrix[0, 1] == pytest.approx(closed, rel=1e-7)


def test_classical_decomposition_matches_count_grid_oracle(stack):
    """The Poisson-mean matrix equals the truncated count grid's, at the
    actual and at the frozen phase."""
    for n in (1.26, 1.29, 1.315, 1.335):
        for frozen in (None, PI_HALF):
            dec = fisher_decomposition(stack, 800.0, 70.0, n,
                                       scheme="classical",
                                       phi_tr_assumption=frozen)
            ref = count_grid_information_matrix(dec.T, dec.R, dec.phi_used)
            assert np.max(np.abs(dec.matrix - ref)) \
                <= 1e-9 * np.max(np.abs(ref))


def test_classical_contraction_matches_direct(stack):
    ns = np.array([1.26, 1.29, 1.30, 1.315, 1.335])
    dec = fisher_decomposition(stack, 800.0, 70.0, ns, scheme="classical")
    direct = fisher_classical(stack, 800.0, 70.0, ns)
    assert dec.contracted == pytest.approx(direct, rel=1e-6)


@pytest.mark.parametrize("scheme", ["hom", "classical"])
def test_decomposition_batched_matches_scalar_calls(stack, scheme):
    lams = np.array([795.0, 805.0])
    ns = np.linspace(1.26, 1.34, 5)
    grid = fisher_decomposition(stack, lams[:, None], 70.0, ns,
                                scheme=scheme)
    assert grid.matrix.shape == (2, 5, 3, 3)
    assert grid.jacobian.shape == (2, 5, 3)
    assert grid.contracted.shape == (2, 5)
    for i, lam in enumerate(lams):
        for j, n in enumerate(ns):
            one = fisher_decomposition(stack, float(lam), 70.0, float(n),
                                       scheme=scheme)
            assert one.matrix.shape == (3, 3)
            assert one.jacobian.shape == (3,)
            assert isinstance(one.contracted, float)
            scale = np.max(np.abs(one.matrix))
            assert np.max(np.abs(grid.matrix[i, j] - one.matrix)) \
                <= 1e-9 * scale
            assert grid.jacobian[i, j] == pytest.approx(one.jacobian,
                                                        rel=1e-9, abs=1e-9)
            assert grid.contracted[i, j] == pytest.approx(one.contracted,
                                                          rel=1e-9)


def test_contraction_matches_direct(stack, rng):
    for _ in range(10):
        n = float(rng.uniform(1.25, 1.34))
        dec = fisher_decomposition(stack, 800.0, 70.0, n, scheme="hom")
        direct = fisher_hom(stack, 800.0, 70.0, n)
        assert dec.contracted == pytest.approx(direct, rel=1e-6)


def test_decomposition_diagonal_nonnegative(stack):
    for scheme in ("hom", "classical"):
        dec = fisher_decomposition(stack, 800.0, 70.0, 1.30, scheme=scheme)
        for a in range(3):
            assert dec.matrix[a, a] >= -1e-12


def test_decomposition_matrix_symmetric(stack):
    dec = fisher_decomposition(stack, 800.0, 70.0, 1.28)
    assert np.allclose(dec.matrix, dec.matrix.T, atol=1e-8)


def test_phase_freeze_changes_matrix_not_jacobian(stack):
    free = fisher_decomposition(stack, 800.0, 70.0, 1.30)
    frozen = fisher_decomposition(stack, 800.0, 70.0, 1.30,
                                  phi_tr_assumption=PI_HALF)
    assert np.allclose(free.jacobian, frozen.jacobian, rtol=1e-12)
    assert not np.allclose(free.matrix, frozen.matrix, rtol=1e-3)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_fisher_report_fields(stack):
    rep = fisher_report(stack, 800.0, 70.0, 1.30)
    assert rep.i_hom == pytest.approx(
        fisher_hom(stack, 800.0, 70.0, 1.30), rel=1e-12)
    assert rep.g_defined
    assert rep.g == pytest.approx(
        (rep.i_hom - rep.i_classical) / rep.i_classical, rel=1e-12)
    assert rep.precision_hom == pytest.approx(1.0 / math.sqrt(rep.i_hom),
                                              rel=1e-12)
    assert rep.decomposition.shape == (3, 3)
    assert rep.contracted == pytest.approx(rep.i_hom, rel=1e-6)


def test_fisher_report_on_grid_matches_point_reports(stack):
    ns = np.linspace(1.25, 1.34, 7)
    rep = fisher_report(stack, 800.0, 70.0, ns)
    assert rep.decomposition.shape == (7, 3, 3)
    assert rep.derivs.shape == (7, 3)
    for k, n in enumerate(ns):
        one = fisher_report(stack, 800.0, 70.0, float(n))
        for field in ("i_hom", "i_classical", "g", "precision_hom",
                      "precision_classical"):
            assert getattr(rep, field)[k] == getattr(one, field)
        assert bool(rep.g_defined[k]) == bool(one.g_defined)
        assert rep.contracted[k] == pytest.approx(
            one.contracted, abs=1e-9 * np.max(rep.contracted))


# ---------------------------------------------------------------------------
# uncertainty budget
# ---------------------------------------------------------------------------

def test_budget_sigma_arithmetic_exact(stack):
    report = uncertainty_budget(stack)
    for row in report.rows:
        assert row.sigma == row.c * row.source.s / row.source.divisor


def test_budget_zero_disturbance(stack):
    src = (BudgetSource(name="still", kind="incidence_angle", s=0.0,
                        unit="deg"),)
    report = uncertainty_budget(stack, sources=src)
    assert report.rows[0].sigma == 0.0


def test_budget_reference_sigma_reproduction():
    # reference_c * s / divisor must land on the quoted sigma to the
    # three significant figures the quotes carry.
    for src in load_budget_sources():
        sigma = src.reference_c * src.s / src.divisor
        def round3(x):
            return float("%.2e" % x)
        assert round3(sigma) == round3(src.reference_sigma)


def test_budget_incidence_row_example():
    src = next(s for s in load_budget_sources()
               if s.kind == "incidence_angle")
    assert src.reference_c * src.s / src.divisor \
        == pytest.approx(2.18e-5, rel=5e-3)


def test_budget_degenerate_at_dip(stack):
    with pytest.raises(UndefinedRatioError):
        uncertainty_budget(stack, n_analyte=1.31)


def _coincidence_minimum(stack, lo=1.30, hi=1.32, tol=1e-10):
    """Golden-section search for the coincidence minimum near the dip."""
    def signal(n):
        return _coincidence_signal(stack, 800.0, 70.0, n, "tm")

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > tol:
        c = b - ratio * (b - a)
        d = a + ratio * (b - a)
        if signal(c) < signal(d):
            b = d
        else:
            a = c
    return 0.5 * (a + b)


def test_budget_guard_width(stack):
    """The guard fires at the located minimum, and at no valid point."""
    n_min = _coincidence_minimum(stack)
    # phi_tr is not -pi/2 at the T = R calibration point, so the minimum
    # sits off it (near 1.31005).
    assert abs(n_min - 1.31) > 1e-5
    with pytest.raises(UndefinedRatioError, match="vertex distance"):
        uncertainty_budget(stack, n_analyte=n_min)
    # Two stencil steps either side of the minimum are already resolved.
    for n in (n_min - 2 * BUDGET_STEP, n_min + 2 * BUDGET_STEP,
              1.305, 1.315, 1.32):
        report = uncertainty_budget(stack, n_analyte=n)
        assert report.signal_slope != 0.0


def test_budget_rejects_unknown_kind(tmp_path):
    import json
    bad = {"sources": [{"name": "x", "kind": "humidity", "s": 1.0,
                        "unit": "pct"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_budget_sources(path)
