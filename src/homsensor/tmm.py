"""Transfer-matrix optics for planar multilayers at oblique incidence.

The geometry is a stack of homogeneous layers between two semi-infinite
half-spaces, illuminated from the first half-space at a fixed angle.
Amplitudes follow to the usual 2x2 transfer-matrix bookkeeping:

* in-plane momentum is conserved, so every layer shares
  n0 sin(theta0); layer cosines are sqrt(1 - (n0 sin theta0 / nj)^2)
  taken on the branch with decaying forward evanescent waves,
* each interface contributes (1/t_ij) [[1, r_ij], [r_ij, 1]] with the
  single-interface Fresnel coefficients of the chosen polarization,
* each interior layer contributes diag(exp(-i delta), exp(+i delta))
  with delta = 2 pi n_j cos(theta_j) d_j / lambda,
* the stack amplitudes are t = 1/M11 and r = M21/M11.

stack_response is the one evaluator of that product.  It broadcasts
over wavelength, angle, sample index, the thickness of every interior
layer and the index of every constant medium (a layer may hold an
array of thicknesses, a constant medium an array of indices), so a
whole grid, a whole calibration scan over gap thicknesses, or a
stencil over every sensor parameter at once, is one call.  Each layer
is evaluated on the shape of its own inputs; only the sample layer and
the running matrix product span the whole grid, and every output has
the full broadcast shape.

The sensing geometry of interest is prism | metal film | sample gap |
metal film | prism: a symmetric pair of attenuated-total-reflection
metal films that together behave as a lossy beamsplitter whose split
ratio and phase depend sharply on the index of the medium in the gap.
This module alone reads and writes that layout: make_sensor_stack
builds it, sensor_thicknesses (which checks it) and prism_index read
it, and with_sensor, the one writer, copies it with new film, gap or
prism values; no other module indexes a stack's layers.

Conventions: exp(-i omega t) time dependence; complex index n + ik with
k >= 0; for TM polarization the Fresnel coefficients are written in the
form whose reflection amplitude tends to that of TE at normal incidence
(so r has no extra sign flip there); the reported phase difference is
phi_tr = arg(r) - arg(t).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import (CalibrationError, MaterialDataError,
                     StackDefinitionError, UnphysicalPointError,
                     WavelengthRangeError, as_name, as_number, as_numbers,
                     check_keys, check_list, or_null, read_json)
from .materials import Material, constant_material, gold_jc, table_from_dict
from .records import Record, replace

DEFAULT_PRISM_INDEX = 1.5
# Amplitudes at or below this are treated as zero when a phase is
# extracted (their argument is rounding debris); corresponds to power
# coefficients of 1e-24, far below anything resolvable.
PHASE_AMPLITUDE_FLOOR = 1e-12
# calibrate_stack's default bound on |T - R| at the target point
CALIBRATION_TOL = 1e-3
# Bisection levels calibrate_stack resolves per stack_response call: all
# 2**8 - 1 dyadic nodes of each bracket's next 8 levels are one call.
_BISECTION_LEVELS = 8
# At most this many levels: a 4 nm bracket would then be ~3e-24 nm wide,
# but it stops shrinking at the float spacing long before.
_BISECTION_MAX_LEVELS = 80
_POLARIZATIONS = ("tm", "te")
NS_STEP = 1e-6  # central-difference step (RIU) of every n_s derivative


# ---------------------------------------------------------------------------
# stack definition
# ---------------------------------------------------------------------------

class Layer(Record):
    """One slab: a material plus a thickness in nm.

    thickness_nm is None for the two terminal half-spaces and a finite
    non-negative number, or an array of them, for interior layers; an
    array thickness joins the broadcast grid of stack_response.
    """

    material: Material
    thickness_nm: float | np.ndarray | None = None


class LayerStack(Record):
    """An ordered stack of layers, first and last semi-infinite.

    sample_layer names the interior layer whose refractive index is the
    measurand: stack_response replaces that layer's index with its n_s
    argument, falling back to the stored sample_n when the argument is
    omitted.  Stacks without a sample layer (sample_layer=None) are
    fixed structures and must be evaluated without n_s.
    """

    layers: tuple[Layer, ...]
    sample_layer: int | None = None
    sample_n: float | None = None
    name: str = "stack"

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 2:
            raise StackDefinitionError(
                "stack %r needs at least two layers (entrance and exit "
                "half-spaces), got %d" % (self.name, len(layers)))
        for j, layer in enumerate(layers):
            terminal = j in (0, len(layers) - 1)
            if terminal and layer.thickness_nm is not None:
                raise StackDefinitionError(
                    "stack %r: terminal layer %d must have thickness None"
                    % (self.name, j))
            if not terminal:
                d = layer.thickness_nm
                if d is None or not np.all(np.isfinite(d)) \
                        or np.any(np.asarray(d) < 0.0):
                    raise StackDefinitionError(
                        "stack %r: interior layer %d needs a finite "
                        "thickness >= 0, got %r" % (self.name, j, d))
        if self.sample_layer is not None:
            if not (0 < self.sample_layer < len(layers) - 1):
                raise StackDefinitionError(
                    "stack %r: sample_layer %d is not an interior layer"
                    % (self.name, self.sample_layer))
        if self.sample_n is not None and self.sample_layer is None:
            raise StackDefinitionError(
                "stack %r: sample_n set without a sample_layer" % (self.name,))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def with_thickness(self, updates: dict) -> "LayerStack":
        """Copy of the stack with interior thicknesses replaced; a scalar
        is stored as a float, an array as a float array."""
        layers = list(self.layers)
        for j, d in updates.items():
            if j in (0, len(layers) - 1):
                raise StackDefinitionError(
                    "cannot set a thickness on terminal layer %d" % j)
            d = np.asarray(d, dtype=float)
            layers[j] = replace(layers[j],
                                thickness_nm=d if d.ndim else float(d))
        return replace(self, layers=tuple(layers))

    def wavelength_window_nm(self) -> tuple[float, float] | None:
        """Intersection of the dispersive layers' valid windows, or None."""
        lo, hi = None, None
        for layer in self.layers:
            win = layer.material.wavelength_window_nm()
            if win is None:
                continue
            lo = win[0] if lo is None else max(lo, win[0])
            hi = win[1] if hi is None else min(hi, win[1])
        if lo is None:
            return None
        return (lo, hi)


def make_sensor_stack(d_metal_nm: float = 50.0, d_sample_nm: float = 500.0,
                      prism_index: float = DEFAULT_PRISM_INDEX,
                      metal: Material | None = None,
                      sample_placeholder: float = 1.31) -> LayerStack:
    """Dual-film beamsplitter: prism | metal | sample | metal | prism.

    The sample layer's material is only a placeholder; its index is
    supplied per call through the n_s argument of stack_response.
    """
    metal = metal or gold_jc()
    prism = constant_material("prism", prism_index)
    sample = constant_material("sample", sample_placeholder)
    return LayerStack(
        layers=(
            Layer(prism, None),
            Layer(metal, float(d_metal_nm)),
            Layer(sample, float(d_sample_nm)),
            Layer(metal, float(d_metal_nm)),
            Layer(prism, None),
        ),
        sample_layer=2,
        sample_n=float(sample_placeholder),
        name="dual_film_sensor",
    )


def sensor_thicknesses(stack: LayerStack) -> tuple[float, float]:
    """(d_metal_nm, d_sample_nm) of a make_sensor_stack layout whose two
    films are equal records (one material and thickness): the mirror
    symmetry, S = [[t, r], [r, t]], that every outcome model assumes."""
    if stack.n_layers != 5 or stack.sample_layer != 2:
        raise StackDefinitionError(
            "stack %r has %d layers with sample_layer=%r; expected the "
            "5-layer dual-film geometry (half-space | film | sample | film "
            "| half-space) with sample_layer=2"
            % (stack.name, stack.n_layers, stack.sample_layer))
    _, film, _, other, _ = stack.layers
    if film != other:
        raise StackDefinitionError(
            "stack %r is not mirror-symmetric: film 1 (%s nm of %r) and "
            "film 3 (%s nm of %r) differ in material or thickness"
            % (stack.name, film.thickness_nm, film.material.name,
               other.thickness_nm, other.material.name))
    return tuple(as_number(stack.layers[j].thickness_nm, "stack %r: layer %d "
                           "thickness_nm" % (stack.name, j),
                           StackDefinitionError) for j in (1, 2))


def prism_index(stack: LayerStack, wavelength_nm) -> complex:
    """Complex index of the entrance prism at wavelength_nm."""
    return stack.layers[0].material.index(wavelength_nm)


def with_sensor(stack: LayerStack, film_nm=None, gap_nm=None, prism_n=None
                ) -> LayerStack:
    """Copy of a sensor stack with film_nm on both films, gap_nm on the
    gap and both prisms a constant medium of index prism_n; None keeps
    the stack's own, an array joins the grid of stack_response."""
    layers = list(stack.layers)
    if prism_n is not None:
        layers[0] = layers[-1] = Layer(constant_material(
            layers[0].material.name, prism_n))
    return replace(stack, layers=tuple(layers)).with_thickness(
        {j: d for j, d in ((1, film_nm), (2, gap_nm), (3, film_nm))
         if d is not None})


# ---------------------------------------------------------------------------
# response
# ---------------------------------------------------------------------------

class StackResponse(Record):
    """Amplitudes and intensity coefficients at one (or a grid of) points.

    t, r are the complex transmission and reflection amplitudes; T, R
    the power transmittance and reflectance (flux-normalized, so a
    lossless stack has T + R = 1); phi_tr = arg(r) - arg(t) wrapped to
    (-pi, pi], with the convention that a zero amplitude contributes
    phase 0.
    """

    t: np.ndarray
    r: np.ndarray
    T: np.ndarray
    R: np.ndarray
    phi_tr: np.ndarray


def _cosines_from_indices(n_layers, n0_sin) -> np.ndarray:
    """cos(theta_j) on the branch with Im(n_j cos_j) >= 0.

    In-plane momentum conservation fixes n_0 sin(theta_0) across the
    stack.  The principal square root is kept unless Im(n_j cos_j) < 0,
    in which case the opposite branch is taken so that exp(+i k_z z)
    decays into absorbing or evanescent layers.
    """
    cos = np.sqrt(1.0 - (n0_sin / n_layers) ** 2 + 0j)
    flip = (n_layers * cos).imag < 0.0
    return np.where(flip, -cos, cos)


def fresnel(n_a, n_b, cos_a, cos_b, polarization: str = "tm"):
    """Single-interface amplitude coefficients (r_ab, t_ab), a into b;
    broadcasts over arrays of indices and cosines."""
    if polarization == "tm":
        near, far = n_b * cos_a, n_a * cos_b
    else:
        near, far = n_a * cos_a, n_b * cos_b
    denom = near + far
    if np.any(np.abs(denom) < 1e-300):
        raise UnphysicalPointError(
            "degenerate %s interface: Fresnel denominator = 0"
            % polarization.upper())
    r = near - far
    del near, far  # before the divisions, which need only denom
    r = r / denom
    return r, 2.0 * n_a * cos_a / denom


def _flux_factor(n, c, polarization):
    """Power-flux normalization Re(n cos) (TE) or Re(n conj(cos)) (TM)."""
    if polarization == "tm":
        return (n * np.conj(c)).real
    return (n * c).real


def _check_wavelength(lam):
    """Every wavelength is positive (a table's window does not catch 0
    or a negative wavelength on a stack of constant media)."""
    bad = ~(lam > 0.0)
    if np.any(bad):
        raise WavelengthRangeError(
            "wavelength must be positive, got %.6g nm" % (lam[bad][0],))


def _check_theta(theta_deg):
    th = np.asarray(theta_deg, dtype=float)
    if np.any(th < 0.0) or np.any(th >= 90.0):
        raise StackDefinitionError(
            "incidence angle must satisfy 0 <= theta < 90 degrees")


def _check_sample_index(ns):
    """A constant Material's rule for the sample index: Re(n_s) > 0."""
    bad = ns.real <= 0.0
    if np.any(bad):
        raise StackDefinitionError(
            "sample index: Re(n_s) must be positive, got %.6g"
            % (ns.real[bad][0],))


def _check_polarization(polarization):
    if polarization not in _POLARIZATIONS:
        raise StackDefinitionError(
            "polarization must be one of %s, got %r"
            % (_POLARIZATIONS, polarization))


def _resolve_ns(stack: LayerStack, n_s):
    if stack.sample_layer is None:
        if n_s is not None:
            raise StackDefinitionError(
                "stack %r has no sample layer; n_s must be omitted"
                % (stack.name,))
        return None
    if n_s is None:
        n_s = stack.sample_n
    if n_s is None:
        raise StackDefinitionError(
            "stack %r has a sample layer; pass n_s or set sample_n"
            % (stack.name,))
    return n_s


def stack_response(stack: LayerStack, wavelength_nm, theta_deg, n_s=None,
                   polarization: str = "tm") -> StackResponse:
    """Evaluate t, r, T, R, phi_tr; broadcasts over all numeric inputs.

    wavelength_nm (> 0), theta_deg, n_s, the interior layer
    thicknesses and the layer indices (a constant medium's may be an
    array) may be scalars or arrays with mutually broadcastable shapes;
    the shape of every layer's index joins the grid as a thickness's
    does.  n_s replaces the index of the stack's sample layer
    (defaulting to the stored sample_n) and must be omitted when the
    stack has no sample layer.  t = 1/M11, r = M21/M11 of the total
    transfer matrix.

    Each layer is evaluated on the shape of its own inputs (a fixed
    layer on wavelength x angle, widened only by its own thickness);
    only the sample layer and the running product span the grid, and
    every field has the full broadcast shape (scalars for scalar inputs).

    Each grid-sized temporary is released after its last use (a layer's
    cosines after its last interface, the phase factors after the phase
    step, M12 and M22 after the loop, M11 and M21 once t and r exist), so
    at most about nine complex grid arrays are alive at once.  The
    product is the plain left-to-right one, operand for operand, so the
    results equal those of the loop written with tuple assignments, bit
    for bit.
    """
    _check_polarization(polarization)
    _check_theta(theta_deg)
    n_s = _resolve_ns(stack, n_s)

    lam = np.asarray(wavelength_nm, dtype=float)
    _check_wavelength(lam)
    th = np.radians(np.asarray(theta_deg, dtype=float))
    ns = None if n_s is None else np.asarray(n_s, dtype=complex)
    if ns is not None:
        _check_sample_index(ns)

    n_list = [ns if j == stack.sample_layer
              else np.asarray(layer.material.index(lam), dtype=complex)
              for j, layer in enumerate(stack.layers)]
    shape = np.broadcast_shapes(
        lam.shape, th.shape, *(n.shape for n in n_list),
        *(np.shape(layer.thickness_nm) for layer in stack.layers[1:-1]))
    n0_sin = n_list[0] * np.sin(th)
    cos_list = [_cosines_from_indices(nj, n0_sin) for nj in n_list]

    def interface(j):
        """(1/t, r/t) of the B matrix (1/t) [[1, r], [r, 1]] of j|j+1."""
        r_ij, t_ij = fresnel(n_list[j], n_list[j + 1], cos_list[j],
                             cos_list[j + 1], polarization)
        return 1.0 / t_ij, r_ij / t_ij

    # accumulate M = B01 P1 B12 P2 ... B(N-1,N) as scalar 2x2 components,
    # starting from B01; P = diag(e^{-i delta}, e^{+i delta}).  Each sum
    # x*y + u*v is formed as a = x*y; a += u*v, which gives the same bits
    # and lets an old entry go as soon as no new one needs it.
    m11, m12 = interface(0)
    m21, m22 = m12, m11
    for j in range(1, len(n_list) - 1):
        d = stack.layers[j].thickness_nm
        delta = 2.0 * np.pi * n_list[j] * cos_list[j] * d / lam
        em = np.exp(-1j * delta)
        m11 = m11 * em
        m21 = m21 * em
        del em
        ep = np.exp(1j * delta)
        del delta
        m12 = m12 * ep
        m22 = m22 * ep
        del ep
        b11, b12 = interface(j)
        cos_list[j] = None  # layer j's cosines are used up
        row = m11 * b12
        row += m12 * b11
        m11 = m11 * b11
        m11 += m12 * b12
        m12 = row
        row = m21 * b12
        row += m22 * b11
        m21 = m21 * b11
        m21 += m22 * b12
        m22 = row
        del row, b11, b12
    del m12, m22

    if np.any(m11 == 0.0):
        raise UnphysicalPointError(
            "transfer matrix is singular (M11 = 0): resonance pole, not "
            "reachable for passive stacks at real frequency")
    t = 1.0 / m11
    r = m21 / m11
    del m11, m21

    f_in = _flux_factor(n_list[0], cos_list[0], polarization)
    f_out = _flux_factor(n_list[-1], cos_list[-1], polarization)
    T = (np.abs(t) ** 2) * f_out / f_in
    R = np.abs(r) ** 2
    # The phase of a vanished amplitude is rounding debris (and its
    # branch flips across an amplitude zero), so snap it to the zero
    # convention: any port below the floor contributes phase 0.  The
    # floor sits ~10 orders below every physically resolvable amplitude.
    arg_r = np.where(np.abs(r) <= PHASE_AMPLITUDE_FLOOR, 0.0, np.angle(r))
    arg_t = np.where(np.abs(t) <= PHASE_AMPLITUDE_FLOOR, 0.0, np.angle(t))
    phi = arg_r - arg_t
    phi = np.where(phi > np.pi, phi - 2.0 * np.pi, phi)
    phi = np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi)

    # every field on the full broadcast shape; [()] turns 0-d into scalars
    t, r, T, R, phi = (np.broadcast_to(x, shape)[()]
                       for x in (t, r, T.real, R.real, phi))
    return StackResponse(t=t, r=r, T=T, R=R, phi_tr=phi)


def ns_stencil(stack: LayerStack, wavelength_nm, theta_deg, n_s,
               polarization: str = "tm", centre: bool = False
               ) -> StackResponse:
    """stack_response at n_s + NS_STEP, n_s - NS_STEP and, with centre,
    n_s, in that order on a new trailing axis of the broadcast grid of
    the other inputs (all arrays, so a scalar point computes as a grid
    point does): the one call behind every n_s derivative."""
    def trailing(x):
        return np.asarray(x, dtype=float)[..., None]

    offsets = np.array([NS_STEP, -NS_STEP, 0.0][:3 if centre else 2])
    return stack_response(stack, trailing(wavelength_nm), trailing(theta_deg),
                          trailing(n_s) + offsets, polarization)


def stencil_derivatives(T, R, phi_tr):
    """Central-difference d(T, R, phi_tr)/d n_s from values on the
    trailing (+h, -h, 0) axis of ns_stencil, h = NS_STEP.

    The phase derivative unwraps the +/- h values onto the branch
    nearest the centre value before differencing, so a point near the
    +/- pi seam does not produce a spurious 2 pi / (2 h) spike.
    """
    T, R, phi = (np.moveaxis(np.asarray(x), -1, 0) for x in (T, R, phi_tr))

    def near(x):
        return phi[2] + np.mod(x - phi[2] + np.pi, 2.0 * np.pi) - np.pi

    return ((T[0] - T[1]) / (2.0 * NS_STEP), (R[0] - R[1]) / (2.0 * NS_STEP),
            (near(phi[0]) - near(phi[1])) / (2.0 * NS_STEP))


def response_derivatives(stack: LayerStack, wavelength_nm, theta_deg, n_s,
                         polarization: str = "tm"):
    """Central-difference d(T, R, phi_tr)/d n_s at the given point(s):
    stencil_derivatives of one ns_stencil call, so the step is the
    module's NS_STEP, the step of every n_s derivative in the package."""
    resp = ns_stencil(stack, wavelength_nm, theta_deg, n_s, polarization,
                      centre=True)
    return stencil_derivatives(resp.T, resp.R, resp.phi_tr)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

class CalibrationResult(Record):
    """Outcome of the balanced-splitter thickness search."""

    stack: LayerStack
    residual: float          # |T - R| at the target point


def calibrate_stack(stack: LayerStack | None = None, wavelength_nm: float = 800.0,
                    theta_deg: float = 70.0, n_s_target: float = 1.31,
                    tol: float = CALIBRATION_TOL,
                    d_metal_bounds: tuple[float, float] = (20.0, 80.0),
                    d_sample_bounds: tuple[float, float] = (100.0, 2000.0),
                    polarization: str = "tm") -> CalibrationResult:
    """Find film/gap thicknesses that balance the splitter, T = R.

    At the balanced point the two-photon coincidence rate dips toward
    its minimum and the index sensitivity peaks, so the calibration
    target is |T - R| < tol at (wavelength_nm, theta_deg, n_s_target).

    Search policy (deterministic): scan the film thickness on a 1 nm
    grid ascending across d_metal_bounds; the thinnest film with at
    least one balanced gap wins.  Thinner films attenuate less, so of
    all balanced operating points this one transmits the most light and
    interferes with the highest contrast; thicker films reach balance
    too, but on progressively darker branches.  Among the winning
    film's crossings the gap thickness closest to the input stack's is
    kept (remaining ties break toward the thinner gap), and the crossing
    is polished by bisection.  The input stack is returned unchanged
    when it already meets tol.

    Each film thickness costs one stack_response call over the whole
    4 nm gap grid (the gap thickness is an array).  Every crossing of
    the winning film is bisected at once, eight levels per call: one
    call evaluates all 255 midpoints those levels can visit, and the
    bisection stops once no bracket has a midpoint strictly inside.

    Raises CalibrationError if no sign change exists in bounds, or if
    the balance point is not unique within +/- 0.02 RIU of the target
    index (a non-unique crossing would make the dip ambiguous).
    """
    stack = stack if stack is not None else make_sensor_stack()
    d_m0, d_s0 = sensor_thicknesses(stack)

    def imbalance(d_m, d_s):
        """T - R with film d_m; d_s may be an array of gap thicknesses."""
        trial = with_sensor(stack, d_m, d_s)
        resp = stack_response(trial, wavelength_nm, theta_deg, n_s_target,
                              polarization)
        return resp.T - resp.R

    # fixed point: an already balanced stack is left alone
    res0 = float(abs(imbalance(d_m0, d_s0)))
    if res0 < tol:
        _check_unique_crossing(stack, wavelength_nm, theta_deg, n_s_target,
                               polarization)
        return CalibrationResult(stack, res0)

    metal_grid = np.arange(d_metal_bounds[0], d_metal_bounds[1] + 0.5, 1.0)
    sample_grid = np.arange(d_sample_bounds[0], d_sample_bounds[1] + 1.0, 4.0)

    for d_m in metal_grid:  # the thinnest balanced film wins
        g = imbalance(d_m, sample_grid)
        crossing = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        if crossing.size:
            break
    else:
        raise CalibrationError(
            "no balanced point: T - R has no sign change for film "
            "thickness in %s nm and sample thickness in %s nm at "
            "lambda=%.6g nm, theta=%.6g deg, n_s=%.6g"
            % (d_metal_bounds, d_sample_bounds, wavelength_nm, theta_deg,
               n_s_target))

    d_m = float(d_m)
    lo, hi = _bisect_crossings(lambda d_s: imbalance(d_m, d_s),
                               sample_grid[crossing], sample_grid[crossing + 1],
                               g[crossing])
    balanced = 0.5 * (lo + hi)
    d_s = float(min(zip(np.abs(balanced - d_s0), balanced))[1])

    residual = float(abs(imbalance(d_m, d_s)))
    if residual >= tol:
        raise CalibrationError(
            "bisection stalled: residual |T - R| = %.3g at d_metal=%.6g, "
            "d_sample=%.6g" % (residual, d_m, d_s))
    calibrated = with_sensor(stack, d_m, d_s)
    _check_unique_crossing(calibrated, wavelength_nm, theta_deg, n_s_target,
                           polarization)
    return CalibrationResult(calibrated, residual)


def _bisect_crossings(imbalance, lo, hi, glo):
    """Bisect every bracket [lo, hi] of `imbalance` at once; glo is its
    value at lo, and imbalance(x) is evaluated element-wise on an array.

    Returns the final (lo, hi), bit for bit those of one midpoint
    0.5 * (lo + hi) per step for _BISECTION_MAX_LEVELS steps, with an
    exact zero pinning both ends.  One imbalance call holds every node of
    the next _BISECTION_LEVELS levels, built with that same arithmetic,
    and the steps then walk the nodes.  Once no midpoint lies strictly
    inside any bracket, further steps would change nothing, so the
    bisection stops there.
    """
    rows = np.arange(np.size(lo))
    done = 0
    while done < _BISECTION_MAX_LEVELS:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        depth = min(_BISECTION_LEVELS, _BISECTION_MAX_LEVELS - done)
        # nodes[:, j] in ascending order, from lo (j = 0) to hi (j = 2**depth)
        nodes = np.stack([lo, hi], axis=-1)
        for _ in range(depth):
            finer = np.empty((rows.size, 2 * nodes.shape[1] - 1))
            finer[:, 0::2] = nodes
            finer[:, 1::2] = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
            nodes = finer
        g = imbalance(nodes[:, 1:-1])
        a = np.zeros(rows.size, dtype=int)
        b = np.full(rows.size, nodes.shape[1] - 1)
        for _ in range(depth):
            m = (a + b) // 2
            gm = g[rows, m - 1]
            # an exact zero pins both ends on its node, which then stays
            # the midpoint
            same = np.sign(gm) == np.sign(glo)
            a = np.where(same | (gm == 0.0), m, a)
            b = np.where(same, b, m)
            glo = np.where(same, gm, glo)
        lo, hi = nodes[rows, a], nodes[rows, b]
        done += depth
    return lo, hi


def _check_unique_crossing(stack: LayerStack, wavelength_nm, theta_deg,
                           n_s_target, polarization, half_width=0.02,
                           points=81):
    """Require exactly one T = R crossing within +/- half_width RIU."""
    grid = np.linspace(n_s_target - half_width, n_s_target + half_width, points)
    resp = stack_response(stack, wavelength_nm, theta_deg, grid, polarization)
    g = resp.T - resp.R
    crossings = int(np.sum(np.sign(g[:-1]) * np.sign(g[1:]) < 0))
    if crossings != 1:
        raise CalibrationError(
            "balance point not unique: %d T = R crossings within +/- %.3g "
            "RIU of n_s = %.6g" % (crossings, half_width, n_s_target))


# ---------------------------------------------------------------------------
# stack (de)serialization
# ---------------------------------------------------------------------------

def _material_to_dict(mat: Material, what: str) -> dict:
    if mat is gold_jc():  # only the bundled table; a custom "Au" is data
        return {"builtin": "gold_jc"}
    if mat.constant is not None:
        c = as_number(mat.constant.real, what + " constant",
                      StackDefinitionError)
        return {"name": mat.name, "constant": [c, mat.constant.imag]}
    return {"name": mat.name,
            "table": {"wavelength_nm": mat.table.wavelength_nm.tolist(),
                      "n": mat.table.n.tolist(),
                      "k": mat.table.k.tolist()}}


_number_or_null = or_null(as_number)


def _material_from_dict(d, what: str) -> Material:
    sources = ["builtin", "constant", "table"]
    check_keys(d, ["name"] + sources, what, StackDefinitionError)
    given = [key for key in sources if key in d]
    if len(given) != 1:
        raise StackDefinitionError("%s must give exactly one of %s, got %s"
                                   % (what, sources, given))
    name = as_name(d.get("name", given[0]), what + ".name",
                   StackDefinitionError)
    if "builtin" in d:
        if "name" in d:  # a builtin material keeps its own name
            raise StackDefinitionError("%s.name is not accepted with "
                                       "builtin" % (what,))
        if d["builtin"] != "gold_jc":
            raise StackDefinitionError("unknown builtin material %r"
                                       % (d["builtin"],))
        return gold_jc()
    if "constant" in d:
        value = as_numbers(d["constant"], what + ".constant",
                           StackDefinitionError)
        if len(value) != 2:
            raise StackDefinitionError(
                "material constant must be [re, im], got %r" % (value,))
        return constant_material(name, complex(*value))
    return Material(name=name, table=table_from_dict(
        d["table"], name, what + ".table", StackDefinitionError))


def _layer_from_dict(d, what: str) -> Layer:
    check_keys(d, ("material", "thickness_nm"), what, StackDefinitionError)
    return Layer(_material_from_dict(d["material"], what + ".material"),
                 _number_or_null(d["thickness_nm"], what + ".thickness_nm",
                                 StackDefinitionError))


def stack_to_dict(stack: LayerStack) -> dict:
    """JSON-ready description of a stack; an array thickness or index is
    rejected (StackDefinitionError naming the layer), since one file
    holds one stack."""
    return {
        "name": stack.name,
        "sample_layer": stack.sample_layer,
        "sample_n": stack.sample_n,
        "layers": [{"material": _material_to_dict(
                        layer.material, "stack %r: layer %d material"
                        % (stack.name, j)),
                    "thickness_nm": _number_or_null(
                        layer.thickness_nm, "stack %r: layer %d thickness_nm"
                        % (stack.name, j), StackDefinitionError)}
                   for j, layer in enumerate(stack.layers)],
    }


def stack_from_dict(d: dict) -> LayerStack:
    """The stack a stack_to_dict description holds: each object takes its
    own keys only, a material one of builtin, constant and table, a name
    errors.as_name, a number errors.as_number (a thickness or sample_n may
    be null).  StackDefinitionError names the key (layers[2].thickness_nm)
    and value."""
    check_keys(d, ("layers", "name", "sample_layer", "sample_n"), "stack",
               StackDefinitionError)
    sample = d.get("sample_layer")
    if isinstance(sample, bool) or not isinstance(sample, (int, type(None))):
        raise StackDefinitionError("sample_layer must be null or of type int, "
                                   "got %r" % (sample,))
    try:
        layers = tuple(_layer_from_dict(ld, "layers[%d]" % j) for j, ld in
                       enumerate(check_list(d["layers"], "layers",
                                            StackDefinitionError)))
    except KeyError as exc:
        raise StackDefinitionError("missing key %s" % (exc,)) from exc
    return LayerStack(layers=layers, sample_layer=sample,
                      sample_n=_number_or_null(d.get("sample_n"), "sample_n",
                                               StackDefinitionError),
                      name=as_name(d.get("name", "stack"), "name",
                                   StackDefinitionError))


def save_stack(stack: LayerStack, path):
    data = stack_to_dict(stack)  # validated before the file is opened
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def load_stack(path) -> LayerStack:
    """Read a stack file; StackDefinitionError names the file and the
    bad key or value, or the table MaterialTable rejects."""
    data = read_json(path, "stack file", StackDefinitionError)
    try:
        return stack_from_dict(data)
    except (MaterialDataError, StackDefinitionError) as exc:
        raise StackDefinitionError("stack file %s: %s" % (path, exc)) from exc
