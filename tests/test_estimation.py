"""Information layer: Fisher quantities, decomposition, budget, scans."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from homsensor import estimation, tmm
from homsensor.errors import ConfigError, UndefinedRatioError
from homsensor.estimation import (
    BUDGET_STEP, DEAD_INFO_SHARE, DERIV_FLOOR, ZERO_PROB_FLOOR, BudgetSource,
    CoherentInput, defined_ratio, fisher_classical,
    fisher_decomposition, fisher_from_distribution, fisher_hom,
    fisher_report, fisher_schemes, load_budget_sources, phi_ab_scan,
    precision_bound, uncertainty_budget,
)
from homsensor.materials import constant_material
from homsensor.quantum_stats import (
    coherent_output_means, hom_click_distribution, poisson_pair_grid,
    probe_outcomes, splitter_moments, validate_points,
)
from homsensor.tmm import (NS_STEP, Layer, LayerStack, load_stack,
                           make_sensor_stack, prism_index, sensor_thicknesses,
                           stack_response, with_sensor)

from oracles import (count_grid_information_matrix, fisher_classical_counts,
                     fisher_direct, mixed_phase_classical_fisher,
                     mixture_fisher, scalar_coincidence_signal,
                     scalar_uncertainty_budget)

PI_HALF = math.pi / 2.0
FIXTURE_STACK = Path(__file__).resolve().parents[1] / "bench" / "fixtures" \
    / "stack.json"


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
    # The third outcome stays below ZERO_PROB_FLOOR (0.5 +- 0.04 of it)
    # but moves by 4 DERIV_FLOOR per RIU, so at least
    # (4 DERIV_FLOOR)^2 / ZERO_PROB_FLOOR = 1.6e-3 of information is
    # skipped against 0.04 carried by the live outcomes.
    def dist(n):
        eps = 0.5 * ZERO_PROB_FLOOR + 4.0 * DERIV_FLOOR * n
        a = 0.5 + 0.1 * n
        return np.array([1.0 - a - eps, a, eps])

    assert (4.0 * DERIV_FLOOR) ** 2 / ZERO_PROB_FLOOR \
        > DEAD_INFO_SHARE * 0.04
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


@pytest.mark.parametrize("theta", [40.0, 70.0])
def test_flat_stack_information_vanishes_on_grid(theta):
    """With no n_s dependence the response moves only by rounding; the
    noise floors keep that noise out of every scheme's information,
    without a dead-outcome warning."""
    lams = np.linspace(795.0, 805.0, 41)[:, None]
    ns = np.linspace(1.29, 1.32, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for info in (fisher_hom(flat_stack(), lams, theta, ns),
                     fisher_hom(flat_stack(), lams, theta, ns,
                                outcomes="pair"),
                     fisher_classical(flat_stack(), lams, theta, ns)):
            assert info.shape == (41, 31)
            assert np.max(info) <= 1e-12


def test_pair_outcomes_carry_at_least_click_information(stack):
    for n in (1.26, 1.295, 1.305, 1.325):
        click = fisher_hom(stack, 800.0, 70.0, n, outcomes="click")
        pair = fisher_hom(stack, 800.0, 70.0, n, outcomes="pair")
        assert click <= pair * (1.0 + 1e-9) + 1e-12


@pytest.mark.parametrize("evaluate", [
    lambda stack: fisher_hom(stack, 800.0, 70.0, 1.30, outcomes="hom"),
    lambda stack: fisher_decomposition(stack, 800.0, 70.0, 1.30,
                                       probe="hom"),
], ids=["fisher_hom", "fisher_decomposition"])
def test_unknown_probe_is_refused(stack, evaluate):
    with pytest.raises(ConfigError, match="probe must be 'click', 'pair' "
                       "or a CoherentInput, got 'hom'"):
        evaluate(stack)


def test_information_nonnegative(stack):
    for n in (1.25, 1.28, 1.31, 1.34):
        assert fisher_hom(stack, 800.0, 70.0, n) >= 0.0
        assert fisher_classical(stack, 800.0, 70.0, n) >= 0.0


# ---------------------------------------------------------------------------
# coherent-probe information
# ---------------------------------------------------------------------------

def test_closed_form_matches_truncated_counts(stack):
    for n in (1.27, 1.30, 1.325):
        closed = fisher_classical(stack, 800.0, 70.0, n,
                                  probe=CoherentInput(phi_ab=PI_HALF))
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


@pytest.mark.parametrize("lam, ns", [
    (800.0, 1.30),
    (np.array([[795.0], [805.0]]), np.linspace(1.26, 1.34, 7)),
])
def test_fisher_schemes_is_both_evaluators(stack, lam, ns):
    """One shared response gives each scheme's evaluator bit for bit."""
    i_h, i_c = fisher_schemes(stack, lam, 70.0, ns, phi_ab=0.7)
    want_h = fisher_hom(stack, lam, 70.0, ns)
    want_c = fisher_classical(stack, lam, 70.0, ns,
                              probe=CoherentInput(phi_ab=0.7))
    assert type(i_h) is type(want_h) and type(i_c) is type(want_c)
    assert np.array_equal(i_h, want_h) and np.array_equal(i_c, want_c)


def test_classical_zero_for_flat_stack():
    assert fisher_classical(flat_stack(), 800.0, 40.0, 1.5) == 0.0


def test_phase_scan_peaks_at_quarter_turns(stack):
    """Under the frozen-phase convention the scan peaks at +/- pi/2."""
    for n in (1.27, 1.30, 1.33):
        scan = phi_ab_scan(stack, 800.0, 70.0, n,
                           phi_tr_assumption=PI_HALF)
        dist = min(abs(scan.phi_opt - PI_HALF), abs(scan.phi_opt + PI_HALF))
        assert dist <= scan.phi_ab[1] - scan.phi_ab[0]


def test_phase_scan_matches_fisher_classical(stack):
    """Each scanned phase carries fisher_classical's value there."""
    scan = phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=12)
    for phi_ab, value in zip(scan.phi_ab, scan.fisher):
        expected = fisher_classical(stack, 800.0, 70.0, 1.30,
                                    probe=CoherentInput(phi_ab=float(phi_ab)))
        assert value == pytest.approx(expected, rel=1e-12)
    assert scan.fisher_opt >= scan.fisher.max()


def test_phase_scan_grid_is_half_open(stack):
    scan = phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=8)
    assert scan.phi_ab[0] == pytest.approx(-math.pi)
    assert scan.phi_ab[-1] < math.pi
    assert scan.phi_ab.size == 8


def test_phase_scan_needs_two_points(stack):
    assert phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=2).phi_ab.size == 2
    for n in (1, 0, -3):
        with pytest.raises(ConfigError, match="at least 2 points"):
            phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=n)


# ---------------------------------------------------------------------------
# mixture of probe phases
# ---------------------------------------------------------------------------

def test_mixture_never_beats_fixed_phase(stack):
    for n in (1.27, 1.2951, 1.31, 1.3249, 1.34):
        mixed = mixed_phase_classical_fisher(stack, 800.0, 70.0, n)
        fixed = fisher_classical(stack, 800.0, 70.0, n,
                                 probe=CoherentInput(phi_ab=PI_HALF))
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

def enhancement(i_hom, i_classical):
    """G = (I_pair - I_coherent) / I_coherent and its defined flag."""
    return defined_ratio(i_hom - i_classical, i_classical)


def test_enhancement_examples():
    assert enhancement(2.0, 2.0) == (0.0, True)
    g, defined = enhancement(3.0, 2.0)
    assert defined and g == pytest.approx(0.5, abs=1e-15)
    for collapsed in (0.0, 1e-13):
        g, defined = enhancement(1.0, collapsed)
        assert math.isnan(g) and not defined


def test_enhancement_reaches_half_on_sweep(stack):
    ns = np.linspace(1.25, 1.34, 91)
    best = -math.inf
    for n in ns:
        if abs(n - 1.31) < 5e-3:
            continue  # skip the undefined window around the dip
        i_h = fisher_hom(stack, 800.0, 70.0, float(n))
        i_c = fisher_classical(stack, 800.0, 70.0, float(n),
                               probe=CoherentInput(phi_ab=PI_HALF))
        g, defined = enhancement(i_h, i_c)
        if defined:
            best = max(best, g)
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
    g, defined = enhancement(i_h, i_c)
    assert np.all(defined)
    assert np.max(np.abs(g - 1.0)) <= 1e-6

def test_precision_bound_values():
    assert precision_bound(4217.0) == pytest.approx(0.0154, abs=2e-4)
    assert precision_bound(1.0) == 1.0
    assert precision_bound(0.0) == math.inf
    assert precision_bound(-3.0) == math.inf


def test_precision_bound_and_ratio_broadcast():
    assert np.array_equal(precision_bound(np.array([4.0, 0.0, -3.0])),
                          [0.5, math.inf, math.inf])
    g, defined = enhancement(np.array([3.0, 2.0]), np.array([2.0, 2.0]))
    assert np.array_equal(g, [0.5, 0.0]) and np.all(defined)
    g, defined = enhancement(np.array([3.0, 1.0]), np.array([2.0, 1e-13]))
    assert np.array_equal(g, [0.5, np.nan], equal_nan=True)
    assert defined.tolist() == [True, False]


# ---------------------------------------------------------------------------
# decomposition over (T, R, phi_tr)
# ---------------------------------------------------------------------------

def test_classical_cross_term_vanishes(stack):
    """With a = b at phi_ab = pi/2 the T-R entry is the Poisson closed form
    2 u cos^2(phi) / (sqrt(TR) (u^2 - 4 sin^2(phi))), u = (T + R)/sqrt(TR):
    zero under the quarter-wave freeze, and matched at the actual phase."""
    for n in (1.26, 1.29, 1.315, 1.335):
        dec = fisher_decomposition(stack, 800.0, 70.0, n,
                                   probe=CoherentInput(),
                                   phi_tr_assumption=PI_HALF)
        assert abs(dec.matrix[0, 1]) <= 1e-9
        assert abs(dec.matrix[1, 0]) <= 1e-9

        actual = fisher_decomposition(stack, 800.0, 70.0, n,
                                      probe=CoherentInput())
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
                                       probe=CoherentInput(),
                                       phi_tr_assumption=frozen)
            ref = count_grid_information_matrix(dec.T, dec.R, dec.phi_used)
            assert np.max(np.abs(dec.matrix - ref)) \
                <= 1e-9 * np.max(np.abs(ref))


def test_classical_contraction_matches_direct(stack):
    ns = np.array([1.26, 1.29, 1.30, 1.315, 1.335])
    dec = fisher_decomposition(stack, 800.0, 70.0, ns, probe=CoherentInput())
    direct = fisher_classical(stack, 800.0, 70.0, ns)
    assert dec.contracted == pytest.approx(direct, rel=1e-6)


@pytest.mark.parametrize("probe", ["click", "pair", CoherentInput()],
                         ids=["hom", "pair", "classical"])
def test_decomposition_batched_matches_scalar_calls(stack, probe):
    lams = np.array([795.0, 805.0])
    ns = np.linspace(1.26, 1.34, 5)
    grid = fisher_decomposition(stack, lams[:, None], 70.0, ns, probe=probe)
    assert grid.matrix.shape == (2, 5, 3, 3)
    assert grid.jacobian.shape == (2, 5, 3)
    assert grid.contracted.shape == (2, 5)
    for i, lam in enumerate(lams):
        for j, n in enumerate(ns):
            one = fisher_decomposition(stack, float(lam), 70.0, float(n),
                                       probe=probe)
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
        dec = fisher_decomposition(stack, 800.0, 70.0, n, probe="click")
        direct = fisher_hom(stack, 800.0, 70.0, n)
        assert dec.contracted == pytest.approx(direct, rel=1e-6)
        dec = fisher_decomposition(stack, 800.0, 70.0, n, probe="pair")
        direct = fisher_hom(stack, 800.0, 70.0, n, outcomes="pair")
        assert dec.contracted == pytest.approx(direct, rel=1e-6)


def test_decomposition_diagonal_nonnegative(stack):
    for probe in ("click", CoherentInput()):
        dec = fisher_decomposition(stack, 800.0, 70.0, 1.30, probe=probe)
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


@pytest.mark.parametrize("evaluate", [fisher_report, fisher_decomposition])
def test_report_and_decomposition_make_one_call(stack, monkeypatch, evaluate):
    """The n_s stencil with its centre feeds the schemes, the operating
    point and the jacobian: one stack_response call for the grid."""
    calls = []
    original = tmm.stack_response

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (tmm, estimation):
        monkeypatch.setattr(module, "stack_response", counting)
    evaluate(stack, 800.0, 70.0, np.linspace(1.25, 1.34, 7))
    assert len(calls) == 1


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
        return scalar_coincidence_signal(stack, 800.0, 70.0, n, "tm")

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


@pytest.mark.parametrize("n_analyte", [1.32, 1.305])
@pytest.mark.parametrize("which", ["fixture", "calibrated"])
def test_budget_matches_scalar_oracle(stack, which, n_analyte):
    """The budget's two calls give the sensitivities of one scalar call
    per stencil point, up to rounding."""
    stk = load_stack(FIXTURE_STACK) if which == "fixture" else stack
    report = uncertainty_budget(stk, n_analyte=n_analyte)
    slope, rows = scalar_uncertainty_budget(stk, n_analyte=n_analyte)
    assert report.signal_slope == pytest.approx(slope, rel=1e-10)
    assert len(report.rows) == len(rows) == 4
    for row, (c, sigma) in zip(report.rows, rows):
        assert row.c == pytest.approx(c, rel=1e-10), row.source.kind
        assert row.sigma == pytest.approx(sigma, rel=1e-10), row.source.kind


def _counting_stack_response(monkeypatch):
    """The list that records each stack_response call of estimation."""
    calls = []
    original = estimation.stack_response

    def counting(*args, **kwargs):
        resp = original(*args, **kwargs)
        calls.append((args, resp))
        return resp

    monkeypatch.setattr(estimation, "stack_response", counting)
    return calls


def test_budget_makes_one_call_per_stack_variant(stack, monkeypatch):
    """The nine-point stencil and the other polarization: 2 calls for
    the default sources, one for sources on the stencil alone."""
    calls = _counting_stack_response(monkeypatch)
    uncertainty_budget(stack)
    assert len(calls) == 2
    assert [np.shape(resp.T) for _, resp in calls] == [(9,), ()]
    del calls[:]
    uncertainty_budget(stack, sources=(
        BudgetSource(name="film", kind="film_thickness", s=1e-9, unit="m"),
        BudgetSource(name="prism", kind="prism_index", s=1e-4, unit="RIU")))
    assert len(calls) == 1


def test_budget_centre_signal_is_the_click_model(stack, monkeypatch):
    """The stencil's first point is the operating point, and its signal
    is hom_click_distribution's p2 there, bit for bit."""
    calls = _counting_stack_response(monkeypatch)
    pairs = []
    original = estimation.probe_outcomes

    def recording(moments, probe):
        assert probe == "pair"
        pairs.append(original(moments, probe))
        return pairs[-1]

    monkeypatch.setattr(estimation, "probe_outcomes", recording)
    uncertainty_budget(stack, n_analyte=1.32)
    (stk, wavelength, theta, n_s, polarization), resp = calls[0]
    assert (wavelength, theta[0], n_s[0], polarization) \
        == (800.0, 70.0, 1.32, "tm")
    assert stk.layers[1].thickness_nm[0] == sensor_thicknesses(stack)[0]
    clicks = hom_click_distribution(resp.T, resp.R, resp.phi_tr)
    assert pairs[0][0, -1] == clicks[0, 2]


# (entry change, words the error names): each leaves the source invalid
BAD_SOURCES = {
    "zero_divisor": ({"divisor": 0}, "divisor must be finite and > 0"),
    "negative_divisor": ({"divisor": -2}, "divisor must be finite and > 0"),
    "nan_s": ({"s": math.nan}, "s must be finite, got nan"),
    "negative_s": ({"s": -0.1}, "s must be finite and >= 0"),
    "comma_name": ({"name": "jitter, fast"}, "name must be a non-empty"),
    "newline_name": ({"name": "jitter\nfast"}, "name must be a non-empty"),
    "quote_unit": ({"unit": 'd"eg'}, "unit must be a non-empty"),
    "empty_unit": ({"unit": ""}, "unit must be a non-empty"),
    "cr_unit": ({"unit": "deg\r"}, "unit must be a non-empty"),
    "number_name": ({"name": 5}, "name must be a non-empty"),
    "unknown_kind": ({"kind": "humidity"}, "unknown budget source kind"),
    "bool_s": ({"s": True, "divisor": "2"}, "s must be a number, got True"),
    "string_divisor": ({"divisor": "2"}, "divisor must be a number, got '2'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
def test_budget_source_rejects_bad_values(tmp_path, case):
    """BudgetSource checks its own fields; load_budget_sources names the
    file that holds the bad entry."""
    import json
    change, names = BAD_SOURCES[case]
    entry = {"name": "angle", "kind": "incidence_angle", "s": 0.03,
             "unit": "deg", **change}
    with pytest.raises(ConfigError, match=names):
        BudgetSource(**entry)
    path = tmp_path / "sources.json"
    path.write_text(json.dumps({"sources": [entry]}))
    with pytest.raises(ConfigError, match="budget sources file %s: .*%s"
                       % (path, names)):
        load_budget_sources(path)


def test_budget_rejects_unknown_kind(tmp_path):
    import json
    bad = {"sources": [{"name": "x", "kind": "humidity", "s": 1.0,
                        "unit": "pct"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_budget_sources(path)


# ---------------------------------------------------------------------------
# information over several sensor parameters from one call
# ---------------------------------------------------------------------------

def _click_derivatives(stack, offsets):
    """Click probabilities (row, outcome) of one stack_response call at
    (n_s, theta, prism_n, film_nm) = (1.30, 70, the prism's, the film's)
    moved by the offsets rows, and their +-NS_STEP differences: offsets
    rows come in (+h, -h) pairs."""
    dn, dtheta, dprism, dfilm = offsets
    resp = stack_response(
        with_sensor(stack, film_nm=sensor_thicknesses(stack)[0] + dfilm,
                    prism_n=prism_index(stack, 800.0) + dprism),
        800.0, 70.0 + dtheta, 1.30 + dn)
    p = probe_outcomes(splitter_moments(*validate_points(
        resp.T, resp.R, resp.phi_tr)), "click")
    return p, (p[0::2] - p[1::2]) / (2.0 * NS_STEP)


def test_one_call_gives_the_fisher_matrix_over_sensor_parameters():
    """The prism index and the film thickness broadcast as n_s and theta
    do, so one call holds the +-NS_STEP stencils of all four: the click
    probe's Fisher matrix over (n_s, theta, prism_n, film_nm), on the
    midpoint of the n_s pair as fisher_hom, is symmetric positive
    semidefinite, its (n_s, n_s) entry is fisher_hom and each column is
    that of separate per-parameter calls."""
    fixture = load_stack(FIXTURE_STACK)
    steps = NS_STEP * np.kron(np.eye(4), [1.0, -1.0])   # (parameter, row)
    p, d = _click_derivatives(fixture, steps)
    mid = 0.5 * (p[0] + p[1])
    matrix = np.sum(d[:, None, :] * d[None, :, :] / mid, axis=-1)
    assert np.array_equal(matrix, matrix.T)
    eigen = np.linalg.eigvalsh(matrix)
    assert eigen.min() >= -1e-12 * eigen.max()
    assert matrix[0, 0] == pytest.approx(
        fisher_hom(fixture, 800.0, 70.0, 1.30), rel=1e-9)

    separate = np.concatenate([_click_derivatives(fixture, pair)[1]
                               for pair in np.split(steps, 4, axis=1)])
    by_parameter = np.sum(separate[:, None, :] * separate[None, :, :] / mid,
                          axis=-1)
    for a in range(4):
        np.testing.assert_allclose(
            matrix[:, a], by_parameter[:, a], rtol=1e-12,
            atol=1e-12 * np.abs(matrix[:, a]).max())
