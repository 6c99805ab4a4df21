"""Shared fixtures: the standard constructed model and cached cohorts,
the reference first-crossing search, the traced-memory peak of a call
and separated rows with a monotone partial likelihood.

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

# Eight treated subjects, (initiation u, death d), all die before four
# untreated subjects, deaths at s: each set's partial likelihood grows
# without bound in the level coefficient.
SEPARATED = {
    "a": (
        [(0.67, 1.22), (0.34, 1.28), (0.14, 0.96), (0.11, 0.12),
         (0.83, 1.69), (0.92, 0.96), (0.65, 1.38), (0.76, 0.94)],
        [3.36, 3.04, 2.8, 2.92],
    ),
    "b": (
        [(0.56, 1.03), (0.61, 1.22), (0.56, 1.49), (0.97, 1.22),
         (0.65, 0.97), (0.61, 1.01), (0.36, 0.64), (0.6, 0.96)],
        [3.44, 2.88, 3.27, 2.54],
    ),
}


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


def separated_rows(name):
    """SEPARATED[name] as counting rows: a treated subject is untreated
    on (0, u] and treated on (u, d], an untreated one is at risk on (0, s]."""
    treated, untreated = SEPARATED[name]
    rows = []
    for i, (u, d) in enumerate(treated):
        rows += [hz.CountingRow(i, 0.0, u, 0, False), hz.CountingRow(i, u, d, 1, True)]
    rows += [hz.CountingRow(len(treated) + j, 0.0, s, 0, True) for j, s in enumerate(untreated)]
    return rows


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
