"""Transfer-matrix layer: cosines, Fresnel, composition, calibration."""

import cmath
import math
import re
from pathlib import Path

import numpy as np
import pytest

from homsensor import tmm
from homsensor.errors import (
    CalibrationError, StackDefinitionError, UnphysicalPointError,
    WavelengthRangeError,
)
from homsensor.materials import Material, MaterialTable, constant_material, \
    gold_jc
from homsensor.tmm import (
    Layer, LayerStack, _cosines_from_indices, calibrate_stack, fresnel,
    load_stack, make_sensor_stack, prism_index, response_derivatives,
    save_stack, sensor_thicknesses, stack_from_dict, stack_response,
    stack_to_dict, with_sensor,
)

from oracles import airy_flux, airy_response, sequential_bisection, \
    tuple_loop_response

FIXTURE_STACK = Path(__file__).resolve().parents[1] / "bench" / "fixtures" \
    / "stack.json"


def two_layer(n_a, n_b):
    return LayerStack(layers=(Layer(constant_material("a", n_a), None),
                              Layer(constant_material("b", n_b), None)))


def slab_stack(n_out, n_mid, d_nm):
    return LayerStack(layers=(Layer(constant_material("out", n_out), None),
                              Layer(constant_material("mid", n_mid), d_nm),
                              Layer(constant_material("out", n_out), None)))


def lossless_sensor(d_metal_nm=50.0, d_sample_nm=500.0, n_film=2.0):
    film = constant_material("film", n_film)
    prism = constant_material("prism", 1.5)
    sample = constant_material("sample", 1.31)
    return LayerStack(layers=(Layer(prism, None), Layer(film, d_metal_nm),
                              Layer(sample, d_sample_nm),
                              Layer(film, d_metal_nm), Layer(prism, None)),
                      sample_layer=2, sample_n=1.31)


# ---------------------------------------------------------------------------
# propagation cosines
# ---------------------------------------------------------------------------

def _cosines(indices, n0, theta_deg):
    n0_sin = n0 * math.sin(math.radians(theta_deg))
    return _cosines_from_indices(np.asarray(indices, dtype=complex),
                                 np.asarray(n0_sin))


def test_cosines_equal_for_equal_indices():
    cos = _cosines([1.5, 1.5, 1.5], 1.5, 35.0)
    assert cos[0] == pytest.approx(cos[1], abs=1e-15)
    assert cos[1] == pytest.approx(cos[2], abs=1e-15)


def test_cosines_total_internal_reflection_branch():
    cos = _cosines([1.5, 1.0, 1.5], 1.5, 70.0)
    inner = cos[1]
    assert inner.real == pytest.approx(0.0, abs=1e-12)
    assert inner.imag > 0.0


def test_cosines_normal_incidence():
    for c in _cosines([1.5, 1.2, 1.5], 1.5, 0.0):
        assert c == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# single interface
# ---------------------------------------------------------------------------

def test_fresnel_no_interface():
    for pol in ("tm", "te"):
        r, t = fresnel(1.5, 1.5, 1.0, 1.0, pol)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert t == pytest.approx(1.0, abs=1e-15)


def test_fresnel_normal_incidence_reflectance():
    for pol in ("tm", "te"):
        r, _ = fresnel(1.5, 1.0, 1.0, 1.0, pol)
        assert abs(r) == pytest.approx(0.2, abs=1e-12)


def test_fresnel_flux_conservation_below_critical():
    """Poynting-flux check: n cos(theta) weighted powers sum to one."""
    n_a, n_b = 1.5, 1.0
    theta_a = math.radians(30.0)  # below the 41.8 deg critical angle
    sin_b = n_a * math.sin(theta_a) / n_b
    cos_a = math.cos(theta_a)
    cos_b = math.sqrt(1.0 - sin_b ** 2)
    for pol in ("tm", "te"):
        r, t = fresnel(n_a, n_b, cos_a, cos_b, pol)
        flux = (n_b * cos_b) / (n_a * cos_a)
        total = abs(r) ** 2 + flux * abs(t) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


def test_fresnel_degenerate_interface_rejected():
    """One vanishing denominator anywhere in a broadcast call raises."""
    n_b = np.array([1.2, -1.5])
    for pol in ("tm", "te"):
        with pytest.raises(UnphysicalPointError):
            fresnel(1.5, n_b, 1.0, 1.0, pol)


# ---------------------------------------------------------------------------
# propagation through a uniform slab
# ---------------------------------------------------------------------------

def test_propagation_zero_thickness_identity():
    resp = stack_response(slab_stack(1.5, 1.5, 0.0), 800.0, 35.0)
    assert resp.t == pytest.approx(1.0, abs=1e-15)
    assert resp.r == pytest.approx(0.0, abs=1e-15)


def test_propagation_lossless_unit_modulus():
    """No interfaces: t is the propagation factor exp(+i delta)."""
    d, lam, theta = 320.0, 800.0, 40.0
    resp = stack_response(slab_stack(1.5, 1.5, d), lam, theta)
    delta = 2.0 * math.pi * 1.5 * math.cos(math.radians(theta)) * d / lam
    assert abs(resp.t) == pytest.approx(1.0, abs=1e-12)
    assert resp.t == pytest.approx(cmath.exp(1j * delta), abs=1e-12)


def test_propagation_evanescent_real_decay():
    """Beyond the critical angle the gap field decays as exp(-k kappa d):
    thickening a thick gap by 1000 nm scales t by that real factor."""
    lam, theta = 800.0, 70.0
    kappa = math.sqrt((1.5 * math.sin(math.radians(theta))) ** 2 - 1.0)
    stack = slab_stack(1.5, 1.0, np.array([1000.0, 2000.0]))
    t = stack_response(stack, lam, theta).t
    ratio = t[1] / t[0]
    decay = math.exp(-2.0 * math.pi / lam * kappa * 1000.0)
    assert ratio.imag == pytest.approx(0.0, abs=1e-6 * decay)
    assert ratio.real == pytest.approx(decay, rel=1e-6)


def test_propagation_negative_thickness_rejected():
    """A negative or non-finite thickness, scalar or array element."""
    for d in (-1.0, np.array([100.0, -1.0]), np.array([100.0, np.nan]),
              np.array([np.inf])):
        with pytest.raises(StackDefinitionError):
            slab_stack(1.5, 2.0, d)
        with pytest.raises(StackDefinitionError):
            slab_stack(1.5, 2.0, 100.0).with_thickness({1: d})


# ---------------------------------------------------------------------------
# stack composition
# ---------------------------------------------------------------------------

def test_single_interface_transfer_equals_boundary():
    """A two-layer stack's amplitudes are fresnel's r and t."""
    stack = two_layer(1.5, 1.2)
    cos = _cosines([1.5, 1.2], 1.5, 25.0)
    for pol in ("tm", "te"):
        resp = stack_response(stack, 800.0, 25.0, polarization=pol)
        r, t = fresnel(1.5, 1.2, cos[0], cos[1], pol)
        assert resp.r == pytest.approx(r, abs=1e-15)
        assert resp.t == pytest.approx(t, abs=1e-15)


def test_zero_thickness_insertion_invariant():
    base = slab_stack(1.5, 2.0, 120.0)
    padded = LayerStack(layers=(
        base.layers[0],
        Layer(constant_material("ghost", 3.3 + 0.2j), 0.0),
        base.layers[1],
        base.layers[2],
    ))
    for pol in ("tm", "te"):
        a = stack_response(base, 800.0, 40.0, polarization=pol)
        b = stack_response(padded, 800.0, 40.0, polarization=pol)
        assert b.t == pytest.approx(a.t, abs=1e-14)
        assert b.r == pytest.approx(a.r, abs=1e-14)


def test_default_stack_matches_airy_oracle(stack):
    lam, theta, n_s = 800.0, 70.0, 1.31
    resp = stack_response(stack, lam, theta, n_s)
    indices = [layer.material.index(lam) for layer in stack.layers]
    indices[2] = complex(n_s)
    thick = [layer.thickness_nm for layer in stack.layers[1:-1]]
    t_ref, r_ref = airy_response(indices, thick, lam, theta, "tm")
    assert abs(resp.t - t_ref) <= 1e-10 * max(1.0, abs(t_ref))
    assert abs(resp.r - r_ref) <= 1e-10 * max(1.0, abs(r_ref))


def test_oracle_equivalence_random_points(stack, rng):
    lo, hi = stack.wavelength_window_nm()
    for _ in range(100):
        lam = rng.uniform(max(lo, 400.0), min(hi, 1500.0))
        theta = rng.uniform(0.0, 89.0)
        n_s = rng.uniform(1.0, 2.0)
        pol = "tm" if rng.integers(2) else "te"
        resp = stack_response(stack, lam, theta, n_s, pol)
        indices = [layer.material.index(lam) for layer in stack.layers]
        indices[2] = complex(n_s)
        thick = [layer.thickness_nm for layer in stack.layers[1:-1]]
        t_ref, r_ref = airy_response(indices, thick, lam, theta, pol)
        assert abs(resp.t - t_ref) <= 1e-10 * max(1.0, abs(t_ref))
        assert abs(resp.r - r_ref) <= 1e-10 * max(1.0, abs(r_ref))


# ---------------------------------------------------------------------------
# derived response
# ---------------------------------------------------------------------------

def test_index_matched_stack_transmits_fully():
    glass = constant_material("glass", 1.5)
    stack = LayerStack(layers=(Layer(glass, None), Layer(glass, 50.0),
                               Layer(glass, 500.0), Layer(glass, 50.0),
                               Layer(glass, None)),
                       sample_layer=2, sample_n=1.5)
    resp = stack_response(stack, 800.0, 70.0, 1.5)
    assert resp.T == pytest.approx(1.0, abs=1e-12)
    assert resp.R == pytest.approx(0.0, abs=1e-12)
    assert 1.0 - resp.T - resp.R == pytest.approx(0.0, abs=1e-12)


def test_lossless_energy_conservation_sweep():
    stack = lossless_sensor()
    theta = np.linspace(0.0, 85.0, 171)
    for pol in ("tm", "te"):
        resp = stack_response(stack, 800.0, theta, 1.31, pol)
        total = np.asarray(resp.T) + np.asarray(resp.R)
        assert np.max(np.abs(total - 1.0)) < 1e-9


def test_calibrated_stack_balanced(stack):
    resp = stack_response(stack, 800.0, 70.0, 1.31)
    assert abs(resp.T - resp.R) < 0.01


def test_passivity_random_points(stack, rng):
    for _ in range(200):
        lam = rng.uniform(400.0, 1500.0)
        theta = rng.uniform(0.0, 89.0)
        n_s = rng.uniform(1.0, 2.0)
        resp = stack_response(stack, lam, theta, n_s)
        assert 1.0 - resp.T - resp.R >= -1e-9
        t_flux = math.sqrt(max(resp.T, 0.0)) * cmath.exp(1j * cmath.phase(resp.t))
        for sign in (+1.0, -1.0):
            assert abs(t_flux + sign * resp.r) <= 1.0 + 1e-9


def test_reversal_symmetry(stack):
    rev = LayerStack(layers=stack.layers[::-1],
                     sample_layer=stack.n_layers - 1 - stack.sample_layer,
                     sample_n=stack.sample_n)
    for pol in ("tm", "te"):
        a = stack_response(stack, 800.0, 70.0, 1.30, pol)
        b = stack_response(rev, 800.0, 70.0, 1.30, pol)
        assert b.t == pytest.approx(a.t, abs=1e-12)
        assert b.r == pytest.approx(a.r, abs=1e-12)


def test_phase_convention():
    """phi_tr is arg(r) - arg(t), wrapped into (-pi, pi]."""
    stack = make_sensor_stack()
    resp = stack_response(stack, 800.0, 70.0, 1.31)
    expect = cmath.phase(resp.r) - cmath.phase(resp.t)
    expect = math.remainder(expect, 2.0 * math.pi)
    if expect <= -math.pi:
        expect += 2.0 * math.pi
    assert resp.phi_tr == pytest.approx(expect, abs=1e-12)
    assert -math.pi < resp.phi_tr <= math.pi


def test_vectorized_matches_scalar(stack):
    ns = np.array([1.25, 1.29, 1.33])
    resp = stack_response(stack, 800.0, 70.0, ns)
    for i, n in enumerate(ns):
        one = stack_response(stack, 800.0, 70.0, float(n))
        assert resp.T[i] == pytest.approx(one.T, abs=1e-15)
        assert resp.R[i] == pytest.approx(one.R, abs=1e-15)
        assert resp.phi_tr[i] == pytest.approx(one.phi_tr, abs=1e-15)


def test_array_thickness_matches_scalar_calls(stack):
    """A gap-thickness array crossed with an n_s array equals the
    per-thickness scalar calls."""
    gaps = np.array([[480.0], [502.5], [530.0]])
    ns = np.array([1.27, 1.30, 1.31, 1.33])
    resp = stack_response(stack.with_thickness({2: gaps}), 800.0, 70.0, ns)
    assert resp.T.shape == (3, 4)
    for i, d in enumerate(gaps[:, 0]):
        trial = stack.with_thickness({2: d})
        for k, n in enumerate(ns):
            one = stack_response(trial, 800.0, 70.0, float(n))
            assert resp.t[i, k] == pytest.approx(one.t, abs=1e-15)
            assert resp.r[i, k] == pytest.approx(one.r, abs=1e-15)
            assert resp.phi_tr[i, k] == pytest.approx(one.phi_tr, abs=1e-15)


def _gold_film(d_nm):
    """prism | gold film | prism: a stack with no sample layer."""
    prism = constant_material("prism", 1.5)
    return LayerStack(layers=(Layer(prism, None), Layer(gold_jc(), d_nm),
                              Layer(prism, None)))


# the one input that carries the grid: (values, inputs built from them)
SHAPE_CASES = {
    "gap_thickness": ([480.0, 502.5, 530.0], lambda stack, v: (
        stack.with_thickness({2: v}), 800.0, 70.0, 1.31)),
    "n_s": ([1.27, 1.30, 1.31, 1.33], lambda stack, v: (
        stack, 800.0, 70.0, v)),
    "theta": ([65.0, 70.0], lambda stack, v: (stack, 800.0, v, 1.31)),
    "film_thickness_no_sample": ([40.0, 50.0, 60.0], lambda stack, v: (
        _gold_film(v), 800.0, 70.0, None)),
    "prism_index": ([1.49, 1.5, 1.52 + 1e-4j], lambda stack, v: (
        with_sensor(stack, prism_n=v), 800.0, 70.0, 1.31)),
}
RESPONSE_FIELDS = ("t", "r", "T", "R", "phi_tr")


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_fields_have_full_broadcast_shape(stack, case):
    """Whichever single input carries the grid, every field has the full
    broadcast shape and each cell equals its scalar call."""
    values, inputs = SHAPE_CASES[case]
    resp = stack_response(*inputs(stack, np.array(values)))
    for name in RESPONSE_FIELDS:
        assert np.shape(getattr(resp, name)) == (len(values),), name
    for i, value in enumerate(values):
        one = stack_response(*inputs(stack, value))
        for name in RESPONSE_FIELDS:
            assert getattr(resp, name)[i] == pytest.approx(
                getattr(one, name), abs=1e-15), (name, value)


def test_scalar_inputs_return_scalars(stack):
    resp = stack_response(stack, 800.0, 70.0, 1.31)
    for name in RESPONSE_FIELDS:
        value = getattr(resp, name)
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)


# (stack, wavelength_nm, theta_deg, n_s) built from the calibrated stack
LOOP_CASES = {
    "wavelength_x_ns": lambda stack: (
        stack, np.linspace(700.0, 900.0, 11)[:, None], 70.0,
        np.linspace(1.25, 1.34, 13)),
    "theta_x_ns": lambda stack: (
        stack, 800.0, np.linspace(55.0, 75.0, 9)[:, None],
        np.linspace(1.27, 1.33, 7)),
    "thickness_arrays": lambda stack: (
        stack.with_thickness({1: np.reshape([18.0, 20.0, 24.0], (3, 1, 1)),
                              2: np.reshape([480.0, 502.5, 530.0], (3, 1)),
                              3: np.reshape([19.0, 20.0, 21.0], (3, 1, 1))}),
        800.0, 70.0, np.array([1.29, 1.31, 1.33])),
    "no_sample_layer": lambda stack: (
        _gold_film(np.array([40.0, 50.0, 60.0])[:, None]),
        np.linspace(780.0, 820.0, 5), 70.0, None),
    "scalar": lambda stack: (stack, 800.0, 70.0, 1.31),
    "prism_index_x_ns": lambda stack: (
        with_sensor(stack, film_nm=np.array([[19.0], [20.0]]),
                    prism_n=np.array([1.49, 1.5, 1.51])[:, None, None]),
        800.0, 70.0, np.array([1.29, 1.31, 1.33])),
    "continuum_block": lambda stack: (
        stack, np.linspace(790.0, 810.0, 201), 70.0,
        np.linspace(1.25, 1.34, 20)[:, None, None]
        + np.array([[-1e-6], [1e-6]])),
}


@pytest.mark.parametrize("polarization", ["tm", "te"])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_transfer_loop_is_bit_identical(stack, case, polarization):
    """stack_response frees its temporaries early but keeps the tuple
    loop's arithmetic: every field equal bit for bit, with its type."""
    inputs = LOOP_CASES[case](stack) + (polarization,)
    resp = stack_response(*inputs)
    for name, want in zip(RESPONSE_FIELDS, tuple_loop_response(*inputs)):
        got = getattr(resp, name)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_with_thickness_keeps_kinds(stack):
    trial = stack.with_thickness({1: 30, 2: np.array([400.0, 500.0])})
    assert type(trial.layers[1].thickness_nm) is float
    assert isinstance(trial.layers[2].thickness_nm, np.ndarray)


def test_with_sensor_keeps_what_is_none(stack):
    """None keeps the stack's own film, gap or prism; a value replaces
    both films or both prisms, an array kept as an array."""
    assert with_sensor(stack) == stack
    d_m, d_s = sensor_thicknesses(stack)
    assert sensor_thicknesses(with_sensor(stack, film_nm=30)) == (30.0, d_s)
    assert sensor_thicknesses(with_sensor(stack, gap_nm=400)) == (d_m, 400.0)
    prisms = np.array([1.49, 1.51])
    swept = with_sensor(stack, prism_n=prisms)
    assert sensor_thicknesses(swept) == (d_m, d_s)
    assert np.array_equal(prism_index(swept, 800.0), prisms)
    assert swept.layers[-1] == swept.layers[0]
    assert swept.layers[0].material.name == stack.layers[0].material.name
    assert prism_index(stack, 800.0) == 1.5


@pytest.mark.parametrize("wavelength", [0.0, -800.0, math.nan,
                                        np.array([800.0, -1.0])])
def test_nonpositive_wavelength_is_rejected(wavelength):
    """A constant-index stack has no table window to catch a wavelength
    of 0 (nan rows) or below (the physics of -lambda)."""
    glass = slab_stack(1.5, 2.0, 100.0)
    with pytest.raises(WavelengthRangeError,
                       match="wavelength must be positive, got"):
        stack_response(glass, wavelength, 70.0)


def test_theta_and_polarization_validation(stack):
    with pytest.raises(StackDefinitionError):
        stack_response(stack, 800.0, 90.0, 1.31)
    with pytest.raises(StackDefinitionError):
        stack_response(stack, 800.0, -1.0, 1.31)
    with pytest.raises(StackDefinitionError):
        stack_response(stack, 800.0, 70.0, 1.31, "tem")


def test_ns_without_sample_layer_rejected():
    fixed = slab_stack(1.5, 2.0, 100.0)
    with pytest.raises(StackDefinitionError):
        stack_response(fixed, 800.0, 40.0, 1.31)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivatives_vanish_for_ns_independent_stack():
    glass = constant_material("glass", 1.5)
    # A zero-thickness sample layer: the response cannot depend on n_s
    # anywhere in the probed range, so every derivative vanishes.
    stack = LayerStack(layers=(Layer(glass, None), Layer(glass, 50.0),
                               Layer(glass, 0.0), Layer(glass, 50.0),
                               Layer(glass, None)),
                       sample_layer=2, sample_n=1.5)
    d = response_derivatives(stack, 800.0, 40.0, 1.5)
    for v in d:
        assert abs(v) < 1e-8


def _airy_point(stack, lam, theta, n_s):
    """(T, R, phi_tr) of the Airy oracle at one n_s."""
    indices = [layer.material.index(lam) for layer in stack.layers]
    indices[stack.sample_layer] = complex(n_s)
    thick = [layer.thickness_nm for layer in stack.layers[1:-1]]
    t, r = airy_response(indices, thick, lam, theta, "tm")
    T, R = airy_flux(indices, thick, lam, theta, "tm")
    return np.array([T, R, cmath.phase(r) - cmath.phase(t)])


def test_derivative_step_convergence(stack):
    """response_derivatives' step resolves the derivative: it agrees
    with a five-point stencil at a 100x larger step of the Airy oracle,
    whose truncation error ~h^4 is far below the tolerance."""
    h = 1e-4
    f = [_airy_point(stack, 800.0, 70.0, 1.30 + k * h) for k in (-2, -1, 1, 2)]
    centre = _airy_point(stack, 800.0, 70.0, 1.30)[2]
    for v in f:  # each phase on the branch of the centre one
        v[2] = centre + (v[2] - centre + math.pi) % (2.0 * math.pi) - math.pi
    want = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    got = response_derivatives(stack, 800.0, 70.0, 1.30)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


def test_derivative_product_mostly_negative(stack):
    ns = np.linspace(1.25, 1.34, 91)
    signs = []
    for n in ns:
        dT, dR, _ = response_derivatives(stack, 800.0, 70.0, float(n))
        signs.append(dT * dR < 0.0)
    assert sum(signs) > 0.5 * len(signs)


def test_derivatives_batched_match_scalar_calls(stack, monkeypatch):
    """A (wavelength x n_s) mesh is one stack_response call and agrees
    with per-point calls."""
    lams = np.array([795.0, 800.0, 805.0])
    ns = np.linspace(1.25, 1.34, 10)
    calls = []
    original = tmm.stack_response

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tmm, "stack_response", counting)
    grid = response_derivatives(stack, lams[:, None], 70.0, ns)
    assert len(calls) == 1
    monkeypatch.undo()
    for d in grid:
        assert d.shape == (3, 10)
    for i, lam in enumerate(lams):
        for j, n in enumerate(ns):
            point = response_derivatives(stack, float(lam), 70.0, float(n))
            for d, value in zip(grid, point):
                assert np.ndim(value) == 0
                assert d[i, j] == pytest.approx(value, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_hits_target(calibration):
    resp = stack_response(calibration.stack, 800.0, 70.0, 1.31)
    assert abs(resp.T - resp.R) < 1e-3
    assert calibration.residual < 1e-3


def test_calibration_fixed_point(calibration):
    again = calibrate_stack(calibration.stack)
    d_metal, d_sample = sensor_thicknesses(calibration.stack)
    assert sensor_thicknesses(again.stack)[0] == pytest.approx(d_metal,
                                                               abs=1e-9)
    assert sensor_thicknesses(again.stack)[1] == pytest.approx(d_sample,
                                                               abs=1e-9)
    assert again.stack is calibration.stack


def test_calibration_unique_crossing(calibration):
    ns = np.linspace(1.31 - 0.02, 1.31 + 0.02, 81)
    resp = stack_response(calibration.stack, 800.0, 70.0, ns)
    g = np.asarray(resp.T) - np.asarray(resp.R)
    flips = np.sum(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    assert flips == 1


def test_calibration_matches_bench_fixture(calibration):
    """The default calibration reproduces the committed fixture stack."""
    fixture = load_stack(FIXTURE_STACK)
    d_metal, d_sample = sensor_thicknesses(calibration.stack)
    assert d_metal == fixture.layers[1].thickness_nm
    assert d_sample == fixture.layers[2].thickness_nm
    assert calibration.stack.layers[3].thickness_nm \
        == fixture.layers[3].thickness_nm


def test_calibration_is_bit_pinned(calibration):
    """The default calibration's gap, to the last bit: a reassociated
    transfer product moves it."""
    d_metal, d_sample = sensor_thicknesses(calibration.stack)
    assert d_metal == 20.0
    assert d_sample == 502.4380797301368
    assert calibration.residual == 5.551115123125783e-16


def test_calibration_is_a_few_array_calls(monkeypatch):
    calls = []
    evaluate = tmm.stack_response

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(tmm, "stack_response", counted)
    calibrate_stack()
    assert len(calls) <= 12  # 10: eight bisection levels per call


# (calibrate_stack arguments, the gap it balances at, nm)
CALIBRATION_CASES = {
    "default": ({}, 502.44),
    "790nm": ({"wavelength_nm": 790.0}, 501.07),
    "810nm": ({"wavelength_nm": 810.0}, 503.66),
    "69deg": ({"theta_deg": 69.0}, 563.09),
    "71deg": ({"theta_deg": 71.0}, 451.45),
    "te": ({"polarization": "te", "theta_deg": 50.0,
            "d_metal_bounds": (5.0, 80.0)}, 620.36),
    # the start gap sits next to the winning film's other crossing
    "other_root": ({"stack": make_sensor_stack(d_sample_nm=160.0)}, 160.68),
}


@pytest.mark.parametrize("case", sorted(CALIBRATION_CASES))
def test_calibration_matches_sequential_bisection(monkeypatch, case):
    """The level-batched bisection returns the thicknesses and residual
    of one imbalance call per step, bit for bit.  The uniqueness check
    only accepts or rejects them (810 nm fails it), so it is skipped."""
    kwargs, gap_nm = CALIBRATION_CASES[case]
    monkeypatch.setattr(tmm, "_check_unique_crossing", lambda *args: None)
    batched = calibrate_stack(**kwargs)
    monkeypatch.setattr(tmm, "_bisect_crossings", sequential_bisection)
    sequential = calibrate_stack(**kwargs)
    assert sensor_thicknesses(batched.stack)[1] \
        == pytest.approx(gap_nm, abs=0.01)
    assert (*sensor_thicknesses(batched.stack), batched.residual) \
        == (*sensor_thicknesses(sequential.stack), sequential.residual)


def _counted(imbalance):
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return imbalance(x)
    return counting, calls


def test_bisection_pins_exact_zeros():
    """Roots on a dyadic midpoint (3 at the first level, 13.25 at the
    fourth) pin both ends there while the third bracket bisects on."""
    def imbalance(x):
        return np.where(x < 10.0, x - 3.0,
                        np.where(x < 17.0, 13.25 - x, (x - 20.0) ** 2 - 0.5))

    lo, hi = np.array([2.0, 12.0, 20.0]), np.array([4.0, 16.0, 21.0])
    counting, calls = _counted(imbalance)
    got = tmm._bisect_crossings(counting, lo, hi, imbalance(lo))
    want = sequential_bisection(imbalance, lo, hi, imbalance(lo))
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    assert got[0][:2].tolist() == got[1][:2].tolist() == [3.0, 13.25]
    assert np.nextafter(got[0][2], np.inf) == got[1][2]
    assert calls[0] == (3, 2 ** 8 - 1)


def test_bisection_stops_at_the_float_spacing():
    """A single crossing with no exact zero shrinks to adjacent floats
    after 52 levels: 7 calls of eight levels, not 80 calls."""
    def imbalance(x):
        return x * x - 2.0

    lo, hi, glo = np.array([1.0]), np.array([2.0]), np.array([-1.0])
    counting, calls = _counted(imbalance)
    got = tmm._bisect_crossings(counting, lo, hi, glo)
    want = sequential_bisection(imbalance, lo, hi, glo)
    assert (got[0][0], got[1][0]) == (want[0][0], want[1][0])
    assert got[0][0] ** 2 < 2.0 < got[1][0] ** 2
    assert got[1][0] == np.nextafter(got[0][0], np.inf)
    assert len(calls) == 7


def test_calibration_not_unique_names_the_crossings():
    """At 810 nm the balanced stack's T - R keeps one sign within
    +/- 0.02 RIU of the target, so the dip is not resolved."""
    with pytest.raises(CalibrationError) as err:
        calibrate_stack(wavelength_nm=810.0)
    assert str(err.value) == ("balance point not unique: 0 T = R crossings "
                              "within +/- 0.02 RIU of n_s = 1.31")


def test_calibration_failure_lists_range():
    with pytest.raises(CalibrationError) as err:
        calibrate_stack(d_metal_bounds=(20.0, 20.0),
                        d_sample_bounds=(100.0, 100.0))
    msg = str(err.value)
    assert "20" in msg and "100" in msg


def test_calibration_requires_sensor_shape():
    with pytest.raises(StackDefinitionError):
        calibrate_stack(slab_stack(1.5, 2.0, 100.0))


@pytest.mark.parametrize("film", [
    Layer(gold_jc(), 25.0),
    Layer(constant_material("film", 0.2 + 5.0j), 20.0),
], ids=["thicker", "constant"])
def test_calibration_requires_mirror_symmetry(film):
    """The outcome models assume S = [[t, r], [r, t]]: a second film of
    another thickness or material is refused, not calibrated."""
    prism, metal, gap, _, _ = make_sensor_stack(d_metal_nm=20.0).layers
    stack = LayerStack(layers=(prism, metal, gap, film, prism),
                       sample_layer=2, sample_n=1.31)
    with pytest.raises(StackDefinitionError, match="not mirror-symmetric"):
        calibrate_stack(stack)


def test_sensor_films_compare_by_description():
    """Two films of equal but distinct tables are alike: the records
    compare their array fields by value."""
    def film():
        table = MaterialTable([700.0, 900.0], [0.2, 0.3], [5.0, 6.0])
        return Layer(Material("film", table=table), 20.0)

    prism, _, gap, _, _ = make_sensor_stack().layers
    stack = LayerStack(layers=(prism, film(), gap, film(), prism),
                       sample_layer=2, sample_n=1.31)
    assert stack.layers[1].material is not stack.layers[3].material
    assert sensor_thicknesses(stack) == (20.0, 500.0)


@pytest.mark.parametrize("layers", [(1, 3), (2,)], ids=["films", "gap"])
def test_sensor_thicknesses_rejects_array_thickness(stack, layers):
    """An array thickness describes many stacks, not one dual-film layout:
    StackDefinitionError names the layer, as for any other non-number."""
    swept = stack.with_thickness({j: np.array([20.0, 21.0]) for j in layers})
    with pytest.raises(StackDefinitionError, match="layer %d thickness_nm "
                       "must be a number, got array" % layers[0]):
        sensor_thicknesses(swept)


@pytest.mark.parametrize("n_s", [0.0, -1.31, np.array([1.31, -1.0])])
def test_nonpositive_sample_index_is_rejected(stack, n_s):
    """stack_response(n_s) equals stack_response(-n_s), so a sign slip
    would pass silently; Re(n_s) > 0 is a constant Material's rule."""
    with pytest.raises(StackDefinitionError,
                       match=r"Re\(n_s\) must be positive"):
        stack_response(stack, 800.0, 70.0, n_s)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_stack_dict_roundtrip(stack):
    back = stack_from_dict(stack_to_dict(stack))
    a = stack_response(stack, 800.0, 70.0, 1.30)
    b = stack_response(back, 800.0, 70.0, 1.30)
    assert b.t == a.t and b.r == a.r


@pytest.mark.parametrize("sample_n", ["abc", True, math.nan])
def test_stack_from_dict_checks_sample_n(stack, sample_n):
    """sample_n is checked when the stack is read, as thickness_nm is,
    not when a response first uses it."""
    with pytest.raises(StackDefinitionError, match=r"sample_n must be (a "
                       r"number|finite), got %s" % re.escape(repr(sample_n))):
        stack_from_dict({**stack_to_dict(stack), "sample_n": sample_n})


def test_stack_file_roundtrip(stack, tmp_path):
    path = tmp_path / "stack.json"
    save_stack(stack, path)
    back = load_stack(path)
    a = stack_response(stack, 800.0, 70.0, 1.33)
    b = stack_response(back, 800.0, 70.0, 1.33)
    assert b.t == a.t and b.r == a.r
    assert back.sample_layer == stack.sample_layer


def test_custom_gold_table_survives_file_roundtrip(tmp_path):
    """Only the bundled Johnson-Christy instance is saved as a builtin; a
    user table that is also named "Au" keeps its own values."""
    custom = Material("Au", MaterialTable([700.0, 900.0], [0.2, 0.2],
                                          [5.0, 5.0], name="Au"))
    prism = constant_material("prism", 1.5)
    stack = LayerStack(layers=(Layer(prism, None), Layer(custom, 20.0),
                               Layer(gold_jc(), 20.0), Layer(prism, None)))
    path = tmp_path / "stack.json"
    save_stack(stack, path)
    back = load_stack(path)
    assert back.layers[1].material.index(800.0) == 0.2 + 5.0j
    assert back.layers[2].material is gold_jc()


def test_save_stack_rejects_array_index(stack, tmp_path):
    """An array index describes many stacks too: rejected, naming the
    layer, before any file is written (json.dump cannot write it)."""
    path = tmp_path / "stack.json"
    swept = with_sensor(stack, prism_n=np.array([1.5, 1.51]))
    with pytest.raises(StackDefinitionError, match="layer 0 material "
                       "constant must be a number, got array"):
        save_stack(swept, path)
    assert not path.exists()


def test_save_stack_rejects_array_thickness(stack, tmp_path):
    """An array thickness describes many stacks: rejected, naming the
    layer, before any file is written."""
    path = tmp_path / "stack.json"
    swept = stack.with_thickness({2: np.array([500.0, 502.0])})
    with pytest.raises(StackDefinitionError, match="layer 2"):
        save_stack(swept, path)
    assert not path.exists()
