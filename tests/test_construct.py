import numpy as np
import pytest

from conftest import BETA, STEP, T_MAX

import hazrates as hz
from hazrates.construct import BuildReport, build, rate_ratio
from hazrates.numerics import SolverConfig
from hazrates.rates import rate_treated

# Deviation trace of the undamped iteration from the constant-1 start,
# frozen from an independent run of the same scheme.
EXPECTED_DEVIATIONS = [4.500261e-01, 6.369184e-02, 2.690083e-03, 4.380691e-05, 2.787748e-07]


def test_build_converges_with_decreasing_deviations(standard_build):
    _, _, report = standard_build
    assert isinstance(report, BuildReport)
    assert report.converged
    assert len(report.iterations) == 5
    np.testing.assert_allclose(report.deviations, EXPECTED_DEVIATIONS, rtol=1e-4)
    assert np.all(np.diff(report.deviations) < 0)
    assert report.deviations[-1] < 1e-6


def test_lambda02_is_constant_before_the_lag(standard_build):
    _, _, report = standard_build
    lam02 = report.lambda02
    unit = lam02.values[: lam02.node_index(1.0) + 1]
    # before anyone can have been treated longer than the lag the treated
    # rate is exactly 0.4, so lambda02 solves 0.4 = (2/3) * lambda02
    np.testing.assert_allclose(unit, 0.6, rtol=0, atol=1e-12)


def test_lambda02_frozen_values_past_the_lag(standard_build):
    _, _, report = standard_build
    lam02 = report.lambda02
    assert lam02(1.5) == pytest.approx(0.4713110658, abs=1e-8)
    assert lam02(2.0) == pytest.approx(0.4086523852, abs=1e-8)
    assert lam02(3.0) == pytest.approx(0.3545318060, abs=1e-8)
    # past the lag the mix of long-treated subjects (hazard 0.2) grows,
    # pulling lambda02 strictly below its early-window value; the decay
    # is not monotone node to node (the lag kink echoes around t = 2)
    after = lam02.values[lam02.node_index(1.0) + 1 :]
    assert np.all(after < 0.6)
    assert lam02(3.0) < lam02(2.0) < lam02(1.5) < 0.6


def test_non_convergence_is_reported_not_raised(standard_build):
    lam01, kernel, _ = standard_build
    report = build(lam01, kernel, BETA, config=SolverConfig(tol=1e-12, max_iter=2))
    assert not report.converged
    assert len(report.iterations) == 3  # initial iterate plus two sweeps
    assert report.deviations[-1] > 1e-12


def _bits(f):
    return f.values.view(np.uint64)


def test_report_holds_the_last_iterates_model_and_rate(standard_build):
    lam01, kernel, report = standard_build
    assert np.array_equal(_bits(report.rate), _bits(rate_treated(report.model)))
    assert report.lambda02 is report.model.lambda02
    assert report.model.lambda01 is lam01 and report.model.lambda12 is kernel
    assert np.array_equal(report.deviations, np.array(report.iterations))
    assert all(type(dev) is float for dev in report.iterations)

    # one sweep: lambda02 = exp(-beta) * r12 of the constant-1 start
    one = build(lam01, kernel, BETA, config=SolverConfig(max_iter=1))
    assert not one.converged
    assert len(one.iterations) == 2
    np.testing.assert_allclose(one.deviations, EXPECTED_DEVIATIONS[:2], rtol=1e-4)
    start = hz.IllnessDeathModel(lam01, hz.GridFunction.constant(T_MAX, STEP, 1.0), kernel)
    swept = np.exp(-BETA) * rate_treated(start).values
    assert np.array_equal(one.lambda02.values.view(np.uint64), swept.view(np.uint64))
    assert np.array_equal(_bits(one.rate), _bits(rate_treated(one.model)))


def test_rate_ratio_of_built_model_is_flat(model):
    ratio = rate_ratio(model)
    np.testing.assert_allclose(ratio.values, 2.0 / 3.0, rtol=0, atol=1e-6)


def test_rate_ratio_rejects_vanishing_denominator(standard_build):
    lam01, kernel, _ = standard_build
    degenerate = hz.IllnessDeathModel(
        lam01, hz.GridFunction.constant(T_MAX, STEP, 0.0), kernel
    )
    with pytest.raises(ValueError, match="rate ratio undefined"):
        rate_ratio(degenerate)
