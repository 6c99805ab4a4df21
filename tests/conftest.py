"""Shared fixtures: the standard constructed model and cached cohorts,
the reference first-crossing search and the traced-memory peak of a
call.

The heavy objects (fixed-point build, large simulated cohorts) are
session-scoped so the acceptance tests and the module tests share one
computation each.
"""

import tracemalloc

import numpy as np
import pytest

import hazrates as hz

T_MAX = 3.0
STEP = 0.005
LAM01 = 0.3
EARLY, LATE, LAG = 0.4, 0.2, 1.0
BETA = float(np.log(2.0 / 3.0))


def searchsorted_crossing(values, step, e):
    """Reference first crossing of a nondecreasing node array: the first
    node reaching e by np.searchsorted, the crossing interpolated in the
    cell ending there; 0 where node 0 reaches e, NaN where no node does."""
    idx = np.searchsorted(values, e, side="left")
    hi = np.clip(idx, 1, values.size - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (hi - 1) * step + (e - values[hi - 1]) / (values[hi] - values[hi - 1]) * step
    return np.where(idx == 0, 0.0, np.where(idx < values.size, t, np.nan))


def traced_peak(call):
    """(call(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def standard_build():
    """Build report for the standard proportional-rates construction."""
    lam01 = hz.GridFunction.constant(T_MAX, STEP, LAM01)
    kernel = hz.TwoPieceKernel(early=EARLY, late=LATE, lag=LAG)
    report = hz.build(lam01, kernel, BETA)
    return lam01, kernel, report


@pytest.fixture(scope="session")
def model(standard_build):
    lam01, kernel, report = standard_build
    return hz.IllnessDeathModel(lambda01=lam01, lambda02=report.lambda02, lambda12=kernel)


@pytest.fixture(scope="session")
def rows_100k(model):
    """Counting rows from the fixed-seed n=1e5 cohort the MC criteria use."""
    trajectories = hz.simulate_cohort(model, hz.SimConfig(n=100_000, seed=9))
    return hz.to_counting_rows(trajectories)


@pytest.fixture(scope="session")
def cohort_1m(model):
    """n=1e6 cohort for the tighter Monte Carlo oracle checks."""
    trajectories = hz.simulate_cohort(model, hz.SimConfig(n=1_000_000, seed=22))
    return trajectories, hz.to_counting_rows(trajectories)
