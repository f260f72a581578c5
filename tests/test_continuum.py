"""Finite-bandwidth layer: batched continuum information."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from homsensor import continuum, tmm
from homsensor.continuum import (C_NM_PER_S, MAX_NODES, QuadratureGrid,
                                 continuum_classical_means, continuum_fisher,
                                 continuum_hom_moments, quadrature_grid,
                                 single_frequency)
from homsensor.errors import ConfigError
from homsensor.estimation import fisher_classical, fisher_hom, fisher_report
from homsensor.materials import constant_material
from homsensor.quantum_stats import (DEFAULT_PHI_AB, CoherentInput,
                                     probe_outcomes, splitter_moments)
from homsensor.tmm import Layer, LayerStack, load_stack

from oracles import eigenvalue_legendre_rule

NS = np.array([1.27, 1.30, 1.31, 1.33])
POINT = (0.3, 0.25, 1.1)  # (T, R, phi_tr) of a passive splitter
FIXTURE_STACK = Path(__file__).resolve().parents[1] / "bench" / "fixtures" \
    / "stack.json"
# a dispersionless stack: no material window clips its grids
GLASS = constant_material("glass", 1.5)
GLASS_STACK = LayerStack((Layer(GLASS), Layer(GLASS, 10.0), Layer(GLASS)),
                         sample_layer=1, sample_n=1.33)


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
    grid = quadrature_grid(stack, 800.0, delta_lambda_nm)
    batched = continuum_fisher(stack, grid, 70.0, NS)
    assert [np.shape(info) for info in batched] == [NS.shape, NS.shape]
    for n, value in zip(NS, batched[pick]):
        scalar = continuum_fisher(stack, grid, 70.0, float(n))
        assert all(isinstance(info, float) for info in scalar)
        assert value == pytest.approx(scalar[pick], rel=1e-9)


def test_one_quadrature_grid_per_call(stack, monkeypatch):
    """continuum_fisher builds no grid of its own: the caller's grid
    and one stack_response call, through tmm.param_stencil, serve both
    schemes."""
    owners = {"quadrature_grid": continuum, "stack_response": tmm}
    calls = dict.fromkeys(owners, 0)

    def counting(name):
        original = getattr(owners[name], name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapped

    grid = quadrature_grid(stack, 800.0, 9.4)
    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counting(name))
    i_hom, i_classical = continuum_fisher(stack, grid, 70.0,
                                          np.linspace(1.25, 1.34, 91))
    assert i_hom.shape == i_classical.shape == (91,)
    assert calls == {"quadrature_grid": 0, "stack_response": 1}


def test_legendre_rule_is_cached_and_read_only():
    """Two grids with the same node count share one read-only rule."""
    quadrature_grid(GLASS_STACK, 800.0, 9.4, 57)
    hits = continuum._legendre_rule.cache_info().hits
    quadrature_grid(GLASS_STACK, 800.0, 94.0, 57)
    assert continuum._legendre_rule.cache_info().hits == hits + 1
    x, w = continuum._legendre_rule(57)
    assert not (x.flags.writeable or w.flags.writeable)


RULE_SIZES = [2, 3, 4, 5, 50, 201, 401]


# the rule is checked for exactness up to MAX_NODES; numpy's eigenvalue
# weights miss the 1e-10 bound from n = 402 on
@pytest.mark.parametrize("n", RULE_SIZES + [MAX_NODES])
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
    """The traced peak of the param_stencil call continuum_fisher makes on
    a block of 20 n_s (20 x 2 x 201 points, 129 kB per complex array)
    stays under 1.5 MB, about 11 complex arrays of the block."""
    grid = quadrature_grid(fixture_stack, 800.0, 9.4)
    args = (fixture_stack, grid.wavelength_nm, 70.0,
            np.linspace(1.25, 1.34, 20), {"n_s": tmm.NS_STEP})
    tmm.param_stencil(*args)  # materials and caches loaded before tracing
    tracemalloc.start()
    try:
        resp, _ = tmm.param_stencil(*args)
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
    narrow = continuum_fisher(fixture_stack,
                              quadrature_grid(fixture_stack, 800.0, 0.01),
                              70.0, ns)[SCHEMES.index(scheme)]
    if scheme == "hom":
        single = fisher_hom(fixture_stack, 800.0, 70.0, ns)
    else:
        single = fisher_classical(fixture_stack, 800.0, 70.0, ns)
    assert narrow == pytest.approx(single, rel=1e-8)


def test_single_frequency_is_one_node_of_weight_one():
    """The wavelengths lead two new axes (n_s, stencil); one read-only
    node of weight 1, never clipped."""
    grid = single_frequency(np.array([[795.0], [805.0]]))
    assert isinstance(grid, QuadratureGrid) and grid.clipped is False
    assert grid.wavelength_nm.shape == (2, 1, 1, 1)
    assert grid.wavelength_nm.ravel().tolist() == [795.0, 805.0]
    assert grid.weights.tolist() == [1.0] and not grid.weights.flags.writeable
    assert single_frequency(800.0).wavelength_nm.shape == (1, 1)


@pytest.mark.parametrize("theta_deg", [65.0, 75.0])
@pytest.mark.parametrize("lam, ns, shape", [
    (np.linspace(790.0, 810.0, 13)[:, None], np.linspace(1.25, 1.34, 37),
     (13, 37)),
    (800.0, 1.30, ()),
], ids=["grid", "point"])
def test_single_frequency_is_the_report_pair(fixture_stack, theta_deg, lam,
                                             ns, shape):
    """The one-node wavepacket gives the information pair of
    fisher_report's centred stencil bit for bit, floats at a point."""
    pair = continuum_fisher(fixture_stack, single_frequency(lam), theta_deg,
                            ns, phi_ab=0.7)
    report = fisher_report(fixture_stack, lam, theta_deg, ns, phi_ab=0.7)
    for got, want in zip(pair, report[:2]):
        assert np.shape(got) == shape
        assert type(got) is type(want) is (float if shape == ()
                                           else np.ndarray)
        assert np.array_equal(got, want)


def test_angle_array_leads_like_the_index(fixture_stack):
    """An angle array leads the stencil and node axes as n_s does: one
    call over three angles equals three per-angle calls bit for bit."""
    thetas = np.array([65.0, 70.0, 75.0])
    pair = continuum_fisher(fixture_stack, single_frequency(800.0), thetas,
                            1.30)
    for got, want in zip(pair, zip(*(
            continuum_fisher(fixture_stack, single_frequency(800.0),
                             float(theta), 1.30) for theta in thetas))):
        assert got.shape == (3,)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("delta_lambda_nm", [0.01, 9.4])
def test_quadrature_has_unit_area(fixture_stack, delta_lambda_nm):
    grid = quadrature_grid(fixture_stack, 800.0, delta_lambda_nm)
    assert abs(np.sum(grid.weights) - 1.0) <= 1e-10


def test_quadrature_clipped_by_material_window(fixture_stack):
    """At 94 nm the +/- 5 FWHM window reaches past the gold table's
    long-wavelength edge; at 9.4 nm it does not."""
    assert quadrature_grid(fixture_stack, 800.0, 94.0).clipped
    assert not quadrature_grid(fixture_stack, 800.0, 9.4).clipped


# (lambda0_nm, delta_lambda_nm, n_nodes, span) -> the error it raises
BAD_GRIDS = {
    "zero_carrier": ((0.0, 9.4, 41, 5.0), "positive carrier wavelength"),
    "zero_bandwidth": ((800.0, 0.0, 41, 5.0), "positive carrier wavelength"),
    "underflow": ((1e150, 1e-50, 41, 5.0),  # delta_omega rounds to 0
                  "bandwidth 1e-50 nm is below the float resolution of "
                  "the carrier 1e\\+150 nm"),
    "wide": ((800.0, 200.0, 41, 5.0), "spill into negative frequencies"),
    "one_node": ((800.0, 9.4, 1, 5.0), "at least 2 nodes"),
    "over_cap": ((800.0, 9.4, MAX_NODES + 1, 5.0),
                 "at most %d nodes, got %d" % (MAX_NODES, MAX_NODES + 1)),
    "zero_span": ((800.0, 9.4, 41, 0.0), "span must be positive"),
    "outside_window": ((5000.0, 9.4, 41, 5.0),
                       "material window leaves no quadrature interval"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
def test_quadrature_grid_refuses_bad_input(fixture_stack, case):
    """Every check of the wavepacket and its rule, for library callers."""
    args, message = BAD_GRIDS[case]
    with pytest.raises(ConfigError, match=message):
        quadrature_grid(fixture_stack, *args)


@pytest.mark.parametrize("weights", [[0.25, 0.5], [0.5, 0.5 + 2e-8],
                                     [np.nan, 1.0]],
                         ids=["short", "over_tolerance", "nan"])
def test_grid_without_unit_mass_is_refused(weights):
    """The wavepacket's unit mass is checked where a grid is built, so a
    hand-built grid is held to it as quadrature_grid's are."""
    with pytest.raises(ConfigError, match="wavepacket weights sum to"):
        QuadratureGrid(np.array([799.0, 801.0]), np.array(weights), False)
    QuadratureGrid(np.array([799.0, 801.0]), np.array([0.5, 0.5 + 5e-9]),
                   False)


@pytest.mark.parametrize("stack", ["fixture", "glass"])
def test_unresolvable_bandwidth_is_named(fixture_stack, stack):
    """A bandwidth below the carrier's float resolution is named with the
    carrier, before the material window is read: the fixture's window
    holds 800 nm and the glass stack has none, and both fail alike.  A
    bandwidth a few units in the last place wide leaves an interval but
    no unit mass, and the grid says both causes."""
    stack = fixture_stack if stack == "fixture" else GLASS_STACK
    with pytest.raises(ConfigError, match=(
            r"^bandwidth 1e-300 nm is below the float resolution of the "
            r"carrier 800 nm: no quadrature interval$")):
        quadrature_grid(stack, 800.0, 1e-300, 41)
    with pytest.raises(ConfigError, match=(
            r"^wavepacket weights sum to 1\.06476793421, not 1: the "
            r"quadrature span or the material window cuts the wavepacket, "
            r"or the bandwidth is below the carrier's float resolution$")):
        quadrature_grid(stack, 800.0, 1e-12, 41)


def _unclipped(delta_lambda_nm):
    grid = quadrature_grid(GLASS_STACK, 800.0, delta_lambda_nm)
    assert not grid.clipped
    return grid


@pytest.mark.parametrize("delta_lambda_nm", [0.01, 9.4, 94.0])
def test_flat_response_moments_are_one_node(delta_lambda_nm):
    grid = _unclipped(delta_lambda_nm)
    nodes = np.ones(grid.wavelength_nm.size)
    moments = continuum_hom_moments(*(x * nodes for x in POINT), grid)
    for got, want in zip(moments, splitter_moments(*POINT)):
        assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("phi_ab", [DEFAULT_PHI_AB, 0.0, 1.2])
def test_classical_means_are_the_coherent_probe_row(phi_ab):
    """continuum_classical_means, public but no longer called inside the
    package, is the CoherentInput(phi_ab) row of the probe table."""
    grid = _unclipped(9.4)
    nodes = np.linspace(0.0, 0.02, grid.wavelength_nm.size)
    T = np.array([[0.3], [0.29]]) + nodes  # (stencil row, node)
    moments = continuum_hom_moments(T, 0.6 - T, 1.1 + T, grid)
    want = probe_outcomes(moments, CoherentInput(phi_ab=phi_ab))
    got = continuum_classical_means(moments, phi_ab)
    assert np.array_equal(got, want) and got.shape == (2, 2)


@pytest.mark.parametrize("tau_dw", [0.5, 2.0, 4.0])
def test_linear_phase_damps_interference_moment(tau_dw):
    """phi_tr(omega) = phi0 + tau omega averages K = sqrt(T R) e^{-i phi_tr}
    over the Gaussian intensity spectrum: its Fourier transform
    exp(-dw^2 tau^2 / (16 ln 2)) e^{-i omega0 tau}; I_T and I_R stay."""
    grid = _unclipped(9.4)
    omega0 = 2.0 * np.pi * C_NM_PER_S / 800.0
    delta_omega = 2.0 * np.pi * C_NM_PER_S * 9.4 / 800.0 ** 2
    omega = 2.0 * np.pi * C_NM_PER_S / grid.wavelength_nm
    T, R, phi0 = POINT
    tau = tau_dw / delta_omega
    nodes = np.ones(omega.size)
    i_t, i_r, k = continuum_hom_moments(T * nodes, R * nodes,
                                        phi0 + tau * omega, grid)
    assert abs(i_t - T) <= 1e-9 and abs(i_r - R) <= 1e-9
    damping = np.exp(-(delta_omega * tau) ** 2 / (16.0 * np.log(2.0)))
    expected = splitter_moments(T, R, phi0)[2] * damping \
        * np.exp(-1j * omega0 * tau)
    assert abs(k - expected) <= 1e-9
