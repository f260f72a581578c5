"""Information layer: Fisher quantities, decomposition, budget, scans."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from homsensor import cli, estimation, tmm
from homsensor.continuum import continuum_fisher, single_frequency
from homsensor.errors import ConfigError, UndefinedRatioError
from homsensor.estimation import (
    BUDGET_STEP, BudgetSource, CoherentInput, defined_ratio,
    fisher_classical, fisher_decomposition, fisher_from_distribution,
    fisher_hom, fisher_report, load_budget_sources, phi_ab_scan,
    precision_bound, uncertainty_budget,
)
from homsensor.materials import constant_material
from homsensor.quantum_stats import (
    DEAD_INFO_SHARE, DERIV_FLOOR, ZERO_PROB_FLOOR, coherent_output_means,
    hom_click_distribution, poisson_pair_grid, probe_outcomes,
    splitter_moments, validate_points,
)
from homsensor.tmm import (NS_STEP, Layer, LayerStack, load_stack,
                           make_sensor_stack, sensor_thicknesses,
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
    with pytest.warns(UserWarning, match="underestimated") as record:
        fisher_from_distribution(dist, 0.0)
    assert [w.filename for w in record] == [__file__]  # names the caller


def test_non_normalized_distribution_rejected():
    with pytest.raises(ConfigError, match="sum to 0.59999999999999998, not "
                       "1 .*must be exhaustive .*loss/vacuum"):
        fisher_from_distribution(lambda n: [0.3, 0.3], 0.5)


def test_float_noise_entry_is_read_as_given():
    """An entry in the clamp's noise band [-1e-12, 0) passes the
    distribution rule, and the information is read from the rows as
    dist_fn gave them, not from clamped rows (which differ here by a
    relative 6.4e-12)."""
    plus = np.array([-5e-13, 0.3, 0.7 + 5e-13])
    minus = np.array([0.2, 0.3, 0.5])
    info = fisher_from_distribution(
        lambda n: plus if n > 0.5 else minus, 0.5)
    deriv = (plus - minus) / (2.0 * NS_STEP)
    mid = 0.5 * (plus + minus)
    live = mid > ZERO_PROB_FLOOR
    assert info == pytest.approx(np.sum(deriv[live] ** 2 / mid[live]),
                                 rel=1e-14)


@pytest.mark.parametrize("row", [[math.nan, 1.0], [1.5, -0.5],
                                 [math.inf, -math.inf]],
                         ids=["nan", "negative", "infinite"])
def test_non_distribution_rejected(row):
    """Outside values enter the kernel through fisher_from_distribution,
    which holds them to quantum_stats.validate_distribution: a nan, a
    negative probability or an infinity is a ConfigError, not an
    information of 0 or nan."""
    with pytest.raises(ConfigError, match="outcome probability"):
        fisher_from_distribution(lambda n: row, 0.5)


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
    """The single frequency's one-node grid gives each probe's evaluator
    bit for bit."""
    i_h, i_c = continuum_fisher(stack, single_frequency(lam), 70.0, ns,
                                phi_ab=0.7)
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
        phi_ab, _, phi_opt, _ = phi_ab_scan(stack, 800.0, 70.0, n,
                                            phi_tr_assumption=PI_HALF)
        dist = min(abs(phi_opt - PI_HALF), abs(phi_opt + PI_HALF))
        assert dist <= phi_ab[1] - phi_ab[0]


def test_phase_scan_matches_fisher_classical(stack):
    """Each scanned phase carries fisher_classical's value there."""
    grid, fisher, phi_opt, fisher_opt = phi_ab_scan(stack, 800.0, 70.0, 1.30,
                                                    n_points=12)
    for phi_ab, value in zip(grid, fisher):
        expected = fisher_classical(stack, 800.0, 70.0, 1.30,
                                    probe=CoherentInput(phi_ab=float(phi_ab)))
        assert value == pytest.approx(expected, rel=1e-12)
    assert fisher_opt >= fisher.max()
    assert type(phi_opt) is float and type(fisher_opt) is float


def test_phase_scan_grid_is_half_open(stack):
    phi_ab, fisher, _, _ = phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=8)
    assert phi_ab[0] == pytest.approx(-math.pi)
    assert phi_ab[-1] < math.pi
    assert phi_ab.size == fisher.size == 8


def test_phase_scan_needs_two_points(stack):
    assert phi_ab_scan(stack, 800.0, 70.0, 1.30, n_points=2)[0].size == 2
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
    stack = with_sensor(make_sensor_stack(), film_nm=0.0, gap_nm=250.0)
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

def _operating_point(stack, n, frozen=None):
    """(T, R, phi) at which fisher_decomposition evaluates its matrix:
    the centre of its n_s stencil at the one wavelength node, the phase
    frozen when given."""
    resp, _ = tmm.param_stencil(stack, 800.0, 70.0, n, {"n_s": NS_STEP},
                                centre=True)
    return resp.T[2, 0], resp.R[2, 0], \
        resp.phi_tr[2, 0] if frozen is None else frozen


def test_classical_cross_term_vanishes(stack):
    """With a = b at phi_ab = pi/2 the T-R entry is the Poisson closed form
    2 u cos^2(phi) / (sqrt(TR) (u^2 - 4 sin^2(phi))), u = (T + R)/sqrt(TR):
    zero under the quarter-wave freeze, and matched at the actual phase."""
    for n in (1.26, 1.29, 1.315, 1.335):
        matrix, _, _ = fisher_decomposition(stack, 800.0, 70.0, n,
                                            probe=CoherentInput(),
                                            phi_tr_assumption=PI_HALF)
        scale = np.max(np.abs(matrix))
        assert abs(matrix[0, 1]) <= 1e-12 * scale
        assert abs(matrix[1, 0]) <= 1e-12 * scale

        matrix, _, _ = fisher_decomposition(stack, 800.0, 70.0, n,
                                            probe=CoherentInput())
        T, R, phi = _operating_point(stack, n)
        g = math.sqrt(T * R)
        u = (T + R) / g
        closed = 2.0 * u * math.cos(phi) ** 2 \
            / (g * (u * u - 4.0 * math.sin(phi) ** 2))
        assert matrix[0, 1] == pytest.approx(closed, rel=1e-7)


def test_classical_decomposition_matches_count_grid_oracle(stack):
    """The Poisson-mean matrix equals the truncated count grid's, at the
    actual and at the frozen phase."""
    for n in (1.26, 1.29, 1.315, 1.335):
        for frozen in (None, PI_HALF):
            matrix, _, _ = fisher_decomposition(stack, 800.0, 70.0, n,
                                                probe=CoherentInput(),
                                                phi_tr_assumption=frozen)
            ref = count_grid_information_matrix(
                *_operating_point(stack, n, frozen))
            assert np.max(np.abs(matrix - ref)) \
                <= 1e-9 * np.max(np.abs(ref))


def test_classical_contraction_matches_direct(stack):
    ns = np.array([1.26, 1.29, 1.30, 1.315, 1.335])
    _, _, contracted = fisher_decomposition(stack, 800.0, 70.0, ns,
                                            probe=CoherentInput())
    direct = fisher_classical(stack, 800.0, 70.0, ns)
    assert contracted == pytest.approx(direct, rel=1e-6)


@pytest.mark.parametrize("probe", ["click", "pair", CoherentInput()],
                         ids=["hom", "pair", "classical"])
def test_decomposition_batched_matches_scalar_calls(stack, probe):
    lams = np.array([795.0, 805.0])
    ns = np.linspace(1.26, 1.34, 5)
    matrix, jacobian, contracted = fisher_decomposition(
        stack, lams[:, None], 70.0, ns, probe=probe)
    assert matrix.shape == (2, 5, 3, 3)
    assert jacobian.shape == (2, 5, 3)
    assert contracted.shape == (2, 5)
    for i, lam in enumerate(lams):
        for j, n in enumerate(ns):
            one_m, one_j, one_c = fisher_decomposition(
                stack, float(lam), 70.0, float(n), probe=probe)
            assert one_m.shape == (3, 3)
            assert one_j.shape == (3,)
            assert isinstance(one_c, float)
            scale = np.max(np.abs(one_m))
            assert np.max(np.abs(matrix[i, j] - one_m)) <= 1e-9 * scale
            assert jacobian[i, j] == pytest.approx(one_j, rel=1e-9, abs=1e-9)
            assert contracted[i, j] == pytest.approx(one_c, rel=1e-9)


def test_contraction_matches_direct(stack, rng):
    for _ in range(10):
        n = float(rng.uniform(1.25, 1.34))
        for probe in ("click", "pair"):
            _, _, contracted = fisher_decomposition(stack, 800.0, 70.0, n,
                                                    probe=probe)
            direct = fisher_hom(stack, 800.0, 70.0, n, outcomes=probe)
            assert contracted == pytest.approx(direct, rel=1e-6)


DECOMPOSITION_PROBES = pytest.mark.parametrize(
    "probe", ["click", "pair", CoherentInput()],
    ids=["hom", "pair", "classical"])


@DECOMPOSITION_PROBES
def test_decomposition_of_flat_stack_is_finite_and_silent(probe):
    """Glass only: R = 0 exactly, so K = 0 and the K channel is not
    resolved; its partials are 0, the matrix is finite, and the zero
    jacobian contracts it to 0, without a warning."""
    assert stack_response(flat_stack(), 800.0, 40.0, 1.5).R == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix, jacobian, contracted = fisher_decomposition(
            flat_stack(), 800.0, 40.0, 1.5, probe=probe)
    assert np.all(np.isfinite(matrix)) and np.all(np.isfinite(jacobian))
    assert np.all(matrix[2] == 0.0) and np.all(matrix[:, 2] == 0.0)
    assert abs(contracted) < 1e-12


def ftir_stack():
    """The FTIR control: the fixture with 0-nm films and a 208.826 nm
    gap, lossless and balanced at n_s = 1.31 (800 nm, 70 deg)."""
    return with_sensor(load_stack(FIXTURE_STACK), film_nm=0.0, gap_nm=208.826)


@DECOMPOSITION_PROBES
def test_contraction_matches_direct_on_the_ftir_control(probe):
    """Off the balance point, where the midpoint rule of the direct
    information is sound, J.M.J equals it on a lossless splitter."""
    ns = np.array([1.29, 1.33])
    _, _, contracted = fisher_decomposition(ftir_stack(), 800.0, 70.0, ns,
                                            probe=probe)
    direct = fisher_classical(ftir_stack(), 800.0, 70.0, ns, probe=probe) \
        if isinstance(probe, CoherentInput) \
        else fisher_hom(ftir_stack(), 800.0, 70.0, ns, outcomes=probe)
    assert contracted == pytest.approx(direct, rel=1e-6)


def test_decomposition_diagonal_nonnegative(stack):
    for probe in ("click", CoherentInput()):
        matrix, _, _ = fisher_decomposition(stack, 800.0, 70.0, 1.30,
                                            probe=probe)
        for a in range(3):
            assert matrix[a, a] >= -1e-12


def test_decomposition_matrix_symmetric(stack):
    matrix, _, _ = fisher_decomposition(stack, 800.0, 70.0, 1.28)
    assert np.allclose(matrix, matrix.T, atol=1e-8)


def test_phase_freeze_changes_matrix_not_jacobian(stack):
    free_m, free_j, _ = fisher_decomposition(stack, 800.0, 70.0, 1.30)
    frozen_m, frozen_j, _ = fisher_decomposition(stack, 800.0, 70.0, 1.30,
                                                 phi_tr_assumption=PI_HALF)
    assert np.array_equal(free_j, frozen_j)
    assert not np.allclose(free_m, frozen_m, rtol=1e-3)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_fisher_report_fields(stack):
    """The pair and the click decomposition, as the evaluators give them;
    g and sigma are the caller's (defined_ratio, precision_bound)."""
    i_h, i_c, matrix, jacobian, contracted = fisher_report(
        stack, 800.0, 70.0, 1.30, phi_ab=0.7)
    assert type(i_h) is float and type(i_c) is float
    assert i_h == pytest.approx(
        fisher_hom(stack, 800.0, 70.0, 1.30), rel=1e-12)
    assert i_c == pytest.approx(fisher_classical(
        stack, 800.0, 70.0, 1.30, probe=CoherentInput(phi_ab=0.7)), rel=1e-12)
    assert matrix.shape == (3, 3) and jacobian.shape == (3,)
    assert type(contracted) is float
    assert contracted == pytest.approx(i_h, rel=1e-6)


def test_fisher_report_on_grid_matches_point_reports(stack):
    ns = np.linspace(1.25, 1.34, 7)
    i_h, i_c, matrix, jacobian, contracted = fisher_report(stack, 800.0,
                                                           70.0, ns)
    # the +-h stencil only
    i_pair = continuum_fisher(stack, single_frequency(800.0), 70.0, ns)
    assert np.array_equal(i_h, i_pair[0]) and np.array_equal(i_c, i_pair[1])
    assert matrix.shape == (7, 3, 3)
    assert jacobian.shape == (7, 3)
    for k, n in enumerate(ns):
        one_h, one_c, _, _, one = fisher_report(stack, 800.0, 70.0, float(n))
        assert i_h[k] == one_h and i_c[k] == one_c
        assert contracted[k] == pytest.approx(
            one, abs=1e-9 * np.max(contracted))


@pytest.mark.parametrize("evaluate", [fisher_report, fisher_decomposition])
def test_report_and_decomposition_make_one_call(stack, monkeypatch, evaluate):
    """The n_s stencil with its centre feeds the schemes, the operating
    point and the jacobian: one stack_response call for the grid."""
    calls = []
    original = tmm.stack_response

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tmm, "stack_response", counting)
    evaluate(stack, 800.0, 70.0, np.linspace(1.25, 1.34, 7))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# uncertainty budget
# ---------------------------------------------------------------------------

def _budget_csv(tmp_path, sources=None):
    """budget.csv of `budget` on the fixture stack, with the sources file
    {"sources": sources} when given: its rows as dicts and its text."""
    cfg = {"stack_path": str(FIXTURE_STACK)}
    if sources is not None:
        cfg["sources_path"] = str(tmp_path / "sources.json")
        Path(cfg["sources_path"]).write_text(json.dumps({"sources": sources}))
    (tmp_path / "budget.json").write_text(json.dumps(cfg))
    assert cli.main(["budget", "--config", str(tmp_path / "budget.json"),
                     "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "budget.csv").read_text()
    header, *rows = [line.split(",") for line in text.splitlines()
                     if not line.startswith("#")]
    return [dict(zip(header, row)) for row in rows], text


def test_budget_sigma_arithmetic_exact(tmp_path):
    """budget.csv prints uncertainty_budget's c and c * s / divisor of
    each source, bit for bit."""
    rows, _ = _budget_csv(tmp_path)
    c, _ = uncertainty_budget(load_stack(FIXTURE_STACK))
    sources = load_budget_sources()
    assert len(rows) == len(sources) == len(c) == 4
    for row, src, c_k in zip(rows, sources, c.tolist()):
        assert row["c"] == cli._fmt_cell(c_k)
        assert row["sigma"] == cli._fmt_cell(c_k * src.s / src.divisor)


def test_budget_zero_disturbance(tmp_path):
    """A source of size 0 prints sigma 0 and a total of 0."""
    rows, text = _budget_csv(tmp_path, [
        {"name": "still", "kind": "incidence_angle", "s": 0.0,
         "unit": "deg"}])
    assert [row["sigma"] for row in rows] == ["0"]
    assert float(rows[0]["c"]) > 0.0
    assert re.search(r"^# signal_slope=\S+ total_sigma=0$", text, re.M)


def test_budget_returns_one_c_per_source(stack):
    """c is a float array in source order, empty without sources; the
    slope does not depend on the sources."""
    sources = load_budget_sources()
    c, slope = uncertainty_budget(stack, sources=sources)
    c_rev, slope_rev = uncertainty_budget(stack, sources=sources[::-1])
    none, slope_none = uncertainty_budget(stack, sources=())
    assert c.dtype == none.dtype == float
    assert c.shape == (4,) and none.shape == (0,)
    assert np.array_equal(c_rev, c[::-1])
    assert type(slope) is float and slope == slope_rev == slope_none


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
        assert uncertainty_budget(stack, n_analyte=n)[1] != 0.0


def test_budget_step_convergence(monkeypatch):
    """BUDGET_STEP resolves every sensitivity: the central differences
    err by ~C h^2, so halving h moves each by 3/4 of its error, and the
    Richardson estimate 4/3 |D(h) - D(h/2)| of the truncation at h
    (about 7.8e-6 on the fixture at n_analyte = 1.32) stays below 2e-5
    of every default c and of the slope."""
    stack = load_stack(FIXTURE_STACK)
    figures = []
    for h in (BUDGET_STEP, BUDGET_STEP / 2):
        monkeypatch.setattr(estimation, "BUDGET_STEP", h)
        c, slope = uncertainty_budget(stack, n_analyte=1.32)
        figures.append(np.append(c, slope))
    coarse, fine = figures
    assert np.all(4.0 / 3.0 * np.abs(coarse - fine) <= 2e-5 * np.abs(fine))


def test_ns_step_convergence():
    """NS_STEP resolves the click and coherent information on the
    fixture's default n_s grid (800 nm, 70 deg): at h = NS_STEP the plain
    central-difference oracle is fisher_report's pair, bit for bit, and
    the Richardson estimate 4/3 |I(h) - I(h/2)| / I of the truncation
    at h stays below 5e-7 off the dip (measured 2.0e-7) and below 2e-6
    at it (measured 9.6e-7 at n_s = 1.31)."""
    stack = load_stack(FIXTURE_STACK)
    ns = cli.grid_values(cli._DEFAULT_NS_GRID)

    def points(n):
        resp = stack_response(stack, 800.0, 70.0, n)
        return resp.T, resp.R, resp.phi_tr

    probes = (lambda n: hom_click_distribution(*points(n)),
              lambda n: coherent_output_means(*points(n)))
    coarse, fine = (np.array([fisher_direct(probe, ns, h) for probe in probes])
                    for h in (NS_STEP, NS_STEP / 2))
    assert np.array_equal(coarse, fisher_report(stack, 800.0, 70.0, ns)[:2])
    error = 4.0 / 3.0 * np.abs(coarse - fine) / fine
    assert np.all(error[:, np.abs(ns - 1.31) > 2e-3] <= 5e-7)
    assert np.all(error <= 2e-6)


@pytest.mark.parametrize("n_analyte", [1.32, 1.305])
@pytest.mark.parametrize("which", ["fixture", "calibrated"])
def test_budget_matches_scalar_oracle(stack, which, n_analyte):
    """The budget's two calls give the sensitivities of one scalar call
    per stencil point, up to rounding."""
    stk = load_stack(FIXTURE_STACK) if which == "fixture" else stack
    c, slope = uncertainty_budget(stk, n_analyte=n_analyte)
    want_c, want_slope = scalar_uncertainty_budget(stk, n_analyte=n_analyte)
    assert slope == pytest.approx(want_slope, rel=1e-10)
    assert c.dtype == float and c.shape == (len(want_c),) == (4,)
    for src, c_k, want in zip(load_budget_sources(), c, want_c):
        assert c_k == pytest.approx(want, rel=1e-10), src.kind


def _counting_stack_response(monkeypatch):
    """The list that records each stack_response call of tmm, so each
    tmm.param_stencil call of continuum's chain."""
    calls = []
    original = tmm.stack_response

    def counting(*args, **kwargs):
        resp = original(*args, **kwargs)
        calls.append((args, resp))
        return resp

    monkeypatch.setattr(tmm, "stack_response", counting)
    return calls


def test_budget_makes_one_call_per_stack_variant(stack, monkeypatch):
    """The nine-point stencil and the other polarization's centre, both
    array rows of the one-node grid: 2 calls for the default sources,
    one for sources on the stencil alone."""
    calls = _counting_stack_response(monkeypatch)
    uncertainty_budget(stack)
    assert len(calls) == 2
    assert [np.shape(resp.T) for _, resp in calls] == [(9, 1), (1, 1)]
    del calls[:]
    uncertainty_budget(stack, sources=(
        BudgetSource(name="film", kind="film_thickness", s=1e-9, unit="m"),
        BudgetSource(name="prism", kind="prism_index", s=1e-4, unit="RIU")))
    assert len(calls) == 1


def test_budget_centre_signal_is_the_click_model(stack, monkeypatch):
    """The stencil's last point is the operating point, and its signal
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
    assert np.shape(wavelength) == (1, 1)
    assert (wavelength.item(), theta[-1, 0], n_s[-1, 0], polarization) \
        == (800.0, 70.0, 1.32, "tm")
    assert stk.layers[1].thickness_nm[-1, 0] == sensor_thicknesses(stack)[0]
    clicks = hom_click_distribution(resp.T, resp.R, resp.phi_tr)
    assert pairs[0][-1, -1] == clicks[-1, 0, 2]


def test_budget_without_film_source_builds_no_film_rows(stack, monkeypatch):
    """Sources that move no film leave the films out of the stencil: 7
    points, not 9, and the other sources' c are the default set's, bit
    for bit."""
    calls = _counting_stack_response(monkeypatch)
    sources = load_budget_sources()
    c, slope = uncertainty_budget(stack, sources=sources)
    kept = [k for k, src in enumerate(sources)
            if src.kind != "film_thickness"]
    del calls[:]
    c_kept, slope_kept = uncertainty_budget(
        stack, sources=tuple(sources[k] for k in kept))
    assert [np.shape(resp.T) for _, resp in calls] == [(7, 1), (1, 1)]
    assert slope_kept == slope and c_kept.tolist() == c[kept].tolist()


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

def _click_derivatives(stack, steps):
    """Click probabilities (row, outcome) of one tmm.param_stencil call
    at (n_s, theta) = (1.30, 70) with steps, and their central
    differences: its rows come in (+h, -h) pairs."""
    resp, offsets = tmm.param_stencil(stack, 800.0, 70.0, 1.30, steps)
    p = probe_outcomes(splitter_moments(*validate_points(
        resp.T, resp.R, resp.phi_tr)), "click")[:, 0]
    return p, (p[0::2] - p[1::2]) / (offsets[0::2] - offsets[1::2])[:, None]


def test_one_call_gives_the_fisher_matrix_over_sensor_parameters():
    """The prism index and the film thickness broadcast as n_s and theta
    do, so one call holds the +-NS_STEP stencils of all four: the click
    probe's Fisher matrix over (n_s, theta, prism_n, film_nm), on the
    midpoint of the n_s pair as fisher_hom, is symmetric positive
    semidefinite, its (n_s, n_s) entry is fisher_hom and each column is
    that of separate per-parameter calls."""
    fixture = load_stack(FIXTURE_STACK)
    steps = dict.fromkeys(("n_s", "theta", "prism", "film"), NS_STEP)
    p, d = _click_derivatives(fixture, steps)
    mid = 0.5 * (p[0] + p[1])
    matrix = np.sum(d[:, None, :] * d[None, :, :] / mid, axis=-1)
    assert np.array_equal(matrix, matrix.T)
    eigen = np.linalg.eigvalsh(matrix)
    assert eigen.min() >= -1e-12 * eigen.max()
    assert matrix[0, 0] == pytest.approx(
        fisher_hom(fixture, 800.0, 70.0, 1.30), rel=1e-9)

    separate = np.concatenate([_click_derivatives(fixture, {name: h})[1]
                               for name, h in steps.items()])
    by_parameter = np.sum(separate[:, None, :] * separate[None, :, :] / mid,
                          axis=-1)
    for a in range(4):
        np.testing.assert_allclose(
            matrix[:, a], by_parameter[:, a], rtol=1e-12,
            atol=1e-12 * np.abs(matrix[:, a]).max())
