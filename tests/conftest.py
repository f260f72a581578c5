"""Shared fixtures: one calibrated stack reused across the whole run."""

from __future__ import annotations

import numpy as np
import pytest

from homsensor import calibrate_stack, gold_jc, make_sensor_stack


@pytest.fixture(scope="session")
def calibration():
    """The calibrated sensor (balanced at n_s = 1.31, 800 nm, 70 deg) and
    its residual |T - R|."""
    return calibrate_stack()


@pytest.fixture(scope="session")
def stack(calibration):
    stack, _ = calibration
    return stack


@pytest.fixture(scope="session")
def base_stack():
    """The uncalibrated default geometry."""
    return make_sensor_stack()


@pytest.fixture(scope="session")
def gold():
    return gold_jc()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260822)
