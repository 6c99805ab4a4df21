import numpy as np
import pytest

from hazrates.grid import GridFunction
from hazrates.numerics import (
    SolverConfig,
    invert_monotone,
    trapz,
)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, damping=1.5)


def test_trapz_is_exact_for_linear_functions():
    # the piecewise-linear interpolant of t is t itself, so partial
    # cells must integrate exactly
    f = GridFunction.from_callable(lambda t: t, 3.0, 0.25)
    a, b = 0.3, 2.7
    assert trapz(f, a, b) == pytest.approx((b * b - a * a) / 2, abs=1e-14)
    assert trapz(f, 0.0, 3.0) == pytest.approx(4.5, abs=1e-14)


def test_trapz_within_single_cell():
    f = GridFunction.from_callable(lambda t: t, 3.0, 0.25)
    assert trapz(f, 0.30, 0.40) == pytest.approx((0.16 - 0.09) / 2, abs=1e-14)


def test_trapz_degenerate_and_errors():
    f = GridFunction.constant(1.0, 0.25, 2.0)
    assert trapz(f, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        trapz(f, 0.5, 0.4)
    with pytest.raises(ValueError):
        trapz(f, 0.0, 1.5)


def test_invert_monotone_vectorized():
    values = np.array([0.0, 1.0, 1.0, 2.0])
    out = invert_monotone(values, 0.5, np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]))
    np.testing.assert_allclose(out[:2], [0.0, 0.25])
    # first crossing of the flat stretch at exactly 1.0 is its left edge
    assert out[2] == pytest.approx(0.5)
    assert out[3] == pytest.approx(1.25)
    assert out[4] == pytest.approx(1.5)  # reached only at the last node
    assert np.isnan(out[5])
