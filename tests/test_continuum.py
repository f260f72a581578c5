"""Finite-bandwidth layer: batched continuum information."""

import numpy as np
import pytest

from homsensor import continuum
from homsensor.continuum import continuum_fisher

NS = np.array([1.27, 1.30, 1.31, 1.33])


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
