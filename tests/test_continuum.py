"""Finite-bandwidth layer: batched continuum information."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from homsensor import continuum
from homsensor.continuum import (continuum_fisher, continuum_hom_moments,
                                 default_grid, omega_to_wavelength_nm,
                                 quadrature_grid, spectral_profile)
from homsensor.estimation import fisher_classical, fisher_hom
from homsensor.quantum_stats import splitter_moments
from homsensor.tmm import NS_STEP, load_stack, stack_response

from oracles import eigenvalue_legendre_rule

NS = np.array([1.27, 1.30, 1.31, 1.33])
POINT = (0.3, 0.25, 1.1)  # (T, R, phi_tr) of a passive splitter
FIXTURE_STACK = Path(__file__).resolve().parents[1] / "bench" / "fixtures" \
    / "stack.json"


@pytest.fixture(scope="module")
def fixture_stack():
    return load_stack(FIXTURE_STACK)


SCHEMES = ("hom", "classical")  # the order of continuum_fisher's pair


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("delta_lambda_nm", [9.4, 94.0])
def test_batched_matches_scalar_loop(stack, scheme, delta_lambda_nm):
    """Both arrays of the batched pair have the grid's shape; the
    scheme's array matches the scalar loop."""
    pick = SCHEMES.index(scheme)
    batched = continuum_fisher(stack, 800.0, delta_lambda_nm, 70.0, NS)
    assert [np.shape(info) for info in batched] == [NS.shape, NS.shape]
    for n, value in zip(NS, batched[pick]):
        scalar = continuum_fisher(stack, 800.0, delta_lambda_nm, 70.0,
                                  float(n))
        assert all(isinstance(info, float) for info in scalar)
        assert value == pytest.approx(scalar[pick], rel=1e-9)


def test_one_quadrature_grid_per_call(stack, monkeypatch):
    """One quadrature grid and one stack_response call serve both
    schemes."""
    calls = {"quadrature_grid": 0, "stack_response": 0}

    def counting(name):
        original = getattr(continuum, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(continuum, name, counting(name))
    i_hom, i_classical = continuum_fisher(stack, 800.0, 9.4, 70.0,
                                          np.linspace(1.25, 1.34, 91))
    assert i_hom.shape == i_classical.shape == (91,)
    assert calls == {"quadrature_grid": 1, "stack_response": 1}


def test_legendre_rule_is_cached_and_read_only():
    """Two grids with the same node count share one read-only rule."""
    profile = spectral_profile(800.0, 9.4)
    quadrature_grid(profile, 57)
    hits = continuum._legendre_rule.cache_info().hits
    quadrature_grid(profile, 57)
    assert continuum._legendre_rule.cache_info().hits == hits + 1
    x, w = continuum._legendre_rule(57)
    assert not (x.flags.writeable or w.flags.writeable)


RULE_SIZES = [2, 3, 4, 5, 50, 201, 401]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_legendre_rule_is_exact_and_symmetric(n):
    """Every monomial of degree < 2n integrates exactly; the rule is
    mirror-symmetric and its weights sum to 2."""
    x, w = continuum._legendre_rule(n)
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 1e-14
    for degree in range(2 * n):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(np.sum(w * x ** degree) - exact) <= 1e-14, degree


@pytest.mark.parametrize("n", RULE_SIZES)
def test_legendre_rule_matches_eigenvalue_rule(n):
    """Nodes within 2 units in the last place of numpy's Golub-Welsch
    rule, weights within 1e-10 relative (numpy's end weights are the
    less accurate ones, ~3e-11 at n = 201)."""
    x, w = continuum._legendre_rule(n)
    x_ref, w_ref = eigenvalue_legendre_rule(n)
    assert np.all(np.abs(x - x_ref) <= 2.0 * np.spacing(np.abs(x_ref)))
    assert np.all(np.abs(w - w_ref) <= 1e-10 * w_ref)


def test_block_working_set_is_bounded(fixture_stack):
    """The traced peak of stack_response on the block continuum_fisher
    evaluates for 20 n_s (20 x 2 x 201 points, 129 kB per complex
    array) stays under 1.5 MB, about 11 complex arrays of the block."""
    grid = default_grid(fixture_stack, spectral_profile(800.0, 9.4))
    args = (fixture_stack, omega_to_wavelength_nm(grid.nodes), 70.0,
            np.linspace(1.25, 1.34, 20)[:, None, None]
            + np.array([[NS_STEP], [-NS_STEP]]))
    stack_response(*args)  # materials and caches loaded before tracing
    tracemalloc.start()
    try:
        resp = stack_response(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shape(resp.t) == (20, 2, 201)
    assert peak <= 1.5e6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_narrow_band_limit_is_single_frequency(fixture_stack, scheme):
    """At 0.01 nm bandwidth the spectral information is the
    single-frequency one."""
    ns = np.array([1.29, 1.30, 1.325])
    narrow = continuum_fisher(fixture_stack, 800.0, 0.01, 70.0,
                              ns)[SCHEMES.index(scheme)]
    if scheme == "hom":
        single = fisher_hom(fixture_stack, 800.0, 70.0, ns)
    else:
        single = fisher_classical(fixture_stack, 800.0, 70.0, ns)
    assert narrow == pytest.approx(single, rel=1e-8)


@pytest.mark.parametrize("delta_lambda_nm", [0.01, 9.4])
def test_quadrature_has_unit_area(fixture_stack, delta_lambda_nm):
    profile = spectral_profile(800.0, delta_lambda_nm)
    grid = default_grid(fixture_stack, profile)
    area = np.sum(grid.weights * profile.xi_sq(grid.nodes))
    assert abs(area - 1.0) <= 1e-10


def test_quadrature_clipped_by_material_window(fixture_stack):
    """At 94 nm the +/- 5 FWHM window reaches past the gold table's
    long-wavelength edge; at 9.4 nm it does not."""
    assert default_grid(fixture_stack, spectral_profile(800.0, 94.0)).clipped
    assert not default_grid(fixture_stack,
                            spectral_profile(800.0, 9.4)).clipped


def _unclipped(delta_lambda_nm):
    profile = spectral_profile(800.0, delta_lambda_nm)
    grid = quadrature_grid(profile)
    assert not grid.clipped
    return profile, grid


@pytest.mark.parametrize("delta_lambda_nm", [0.01, 9.4, 94.0])
def test_flat_response_moments_are_one_node(delta_lambda_nm):
    profile, grid = _unclipped(delta_lambda_nm)
    nodes = np.ones(grid.nodes.size)
    moments = continuum_hom_moments(*(x * nodes for x in POINT), profile,
                                    grid)
    for got, want in zip(moments, splitter_moments(*POINT)):
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("tau_dw", [0.5, 2.0, 4.0])
def test_linear_phase_damps_interference_moment(tau_dw):
    """phi_tr(omega) = phi0 + tau omega averages K = sqrt(T R) e^{-i phi_tr}
    over the Gaussian intensity spectrum: its Fourier transform
    exp(-dw^2 tau^2 / (16 ln 2)) e^{-i omega0 tau}; I_T and I_R stay."""
    profile, grid = _unclipped(9.4)
    T, R, phi0 = POINT
    tau = tau_dw / profile.delta_omega
    nodes = np.ones(grid.nodes.size)
    i_t, i_r, k = continuum_hom_moments(T * nodes, R * nodes,
                                        phi0 + tau * grid.nodes, profile,
                                        grid)
    assert abs(i_t - T) <= 1e-9 and abs(i_r - R) <= 1e-9
    damping = np.exp(-(profile.delta_omega * tau) ** 2
                     / (16.0 * np.log(2.0)))
    expected = splitter_moments(T, R, phi0)[2] * damping \
        * np.exp(-1j * profile.omega0 * tau)
    assert abs(k - expected) <= 1e-9
