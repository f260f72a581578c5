"""Finite-bandwidth layer: batched continuum information."""

from pathlib import Path

import numpy as np
import pytest

from homsensor import continuum
from homsensor.continuum import (continuum_fisher, default_grid,
                                 spectral_profile)
from homsensor.estimation import fisher_classical, fisher_hom
from homsensor.tmm import load_stack

NS = np.array([1.27, 1.30, 1.31, 1.33])
FIXTURE_STACK = Path(__file__).resolve().parents[1] / "bench" / "fixtures" \
    / "stack.json"


@pytest.fixture(scope="module")
def fixture_stack():
    return load_stack(FIXTURE_STACK)


@pytest.mark.parametrize("scheme", ["hom", "classical"])
@pytest.mark.parametrize("delta_lambda_nm", [9.4, 94.0])
def test_batched_matches_scalar_loop(stack, scheme, delta_lambda_nm):
    batched = continuum_fisher(scheme, stack, 800.0, delta_lambda_nm, 70.0,
                               NS)
    assert batched.shape == NS.shape
    for n, value in zip(NS, batched):
        scalar = continuum_fisher(scheme, stack, 800.0, delta_lambda_nm,
                                  70.0, float(n))
        assert isinstance(scalar, float)
        assert value == pytest.approx(scalar, rel=1e-9)


def test_one_quadrature_grid_per_call(stack, monkeypatch):
    calls = []
    original = continuum.quadrature_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(continuum, "quadrature_grid", counting)
    info = continuum_fisher("hom", stack, 800.0, 9.4, 70.0,
                            np.linspace(1.25, 1.34, 91))
    assert info.shape == (91,)
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", ["hom", "classical"])
def test_narrow_band_limit_is_single_frequency(fixture_stack, scheme):
    """At 0.01 nm bandwidth the spectral information is the
    single-frequency one."""
    ns = np.array([1.29, 1.30, 1.325])
    narrow = continuum_fisher(scheme, fixture_stack, 800.0, 0.01, 70.0, ns)
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
