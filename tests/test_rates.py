import tracemalloc

import numpy as np
import pytest

from conftest import BETA, EARLY, LAG, LAM01, LATE, STEP, T_MAX, traced_peak

import hazrates as hz
from hazrates.rates import (
    MAX_DENSE_NODES,
    VACUOUS_P01,
    _Dense,
    kernel_quadrature,
    ode_residual,
    rate_treated,
    rate_untreated,
)


@pytest.fixture(scope="module")
def constant_markov_model():
    lam01 = hz.GridFunction.constant(T_MAX, STEP, 0.3)
    lam02 = hz.GridFunction.constant(T_MAX, STEP, 0.6)
    kernel = hz.MarkovKernel(hz.GridFunction.constant(T_MAX, STEP, 0.5))
    return hz.IllnessDeathModel(lam01, lam02, kernel)


def test_markov_rate_equals_hazard(constant_markov_model):
    # with no dependence on initiation time, averaging over initiation
    # times is averaging a constant: the rate IS the hazard
    r12 = rate_treated(constant_markov_model)
    np.testing.assert_allclose(r12.values, 0.5, rtol=0, atol=1e-12)


def test_markov_rate_equals_hazard_time_varying():
    lam01 = hz.GridFunction.constant(2.0, 0.01, 0.3)
    lam02 = hz.GridFunction.constant(2.0, 0.01, 0.4)
    g = lam02.with_values(0.2 + 0.3 * lam02.times)
    m = hz.IllnessDeathModel(lam01, lam02, hz.MarkovKernel(g))
    np.testing.assert_allclose(rate_treated(m).values, g.values, rtol=0, atol=1e-12)


def test_untreated_rate_is_lambda02(constant_markov_model):
    assert rate_untreated(constant_markov_model) is constant_markov_model.lambda02


def _occupation(model):
    """p01 at every node, from the model's own quadrature."""
    quad = kernel_quadrature(model.lambda12, model.lambda01)
    return quad.occupation(_initiation_density(model))


def test_occupation_against_closed_form(constant_markov_model):
    # constant hazards a=0.3, b=0.6, c=0.5 give
    # p01(t) = a * exp(-c t) * (1 - exp(-(a+b-c) t)) / (a+b-c)
    a, b, c = 0.3, 0.6, 0.5
    p01 = _occupation(constant_markov_model)
    for t in [0.5, 1.0, 2.0, 3.0]:
        want = a * np.exp(-c * t) * (1 - np.exp(-(a + b - c) * t)) / (a + b - c)
        assert p01[constant_markov_model.lambda01.node_index(t)] == pytest.approx(want, abs=1e-5)


def test_occupation_at_zero(constant_markov_model):
    assert _occupation(constant_markov_model)[0] == 0.0


def test_rate_is_bracketed_by_kernel_range(model):
    # a survivor average of values in {0.2, 0.4} must stay in [0.2, 0.4]
    r12 = rate_treated(model)
    assert np.all(r12.values >= LATE - 1e-12)
    assert np.all(r12.values <= EARLY + 1e-12)


def test_rate_on_early_window_is_exactly_early(model):
    # every treated subject at t <= 1 has elapsed duration <= lag
    r12 = rate_treated(model)
    idx = model.lambda01.node_index(1.0)
    np.testing.assert_allclose(r12.values[: idx + 1], EARLY, rtol=0, atol=1e-12)


def test_rate_drops_below_early_after_lag(model):
    r12 = rate_treated(model)
    later = r12.values[model.lambda01.node_index(1.5) :]
    assert np.all(later < EARLY)


def test_vacuous_occupation_falls_back_to_diagonal(model):
    # at t = 0 nobody is treated; the reported rate is lambda12(0 | 0)
    assert rate_treated(model).values[0] == EARLY


def test_ode_residual_separates_built_from_naive(model, standard_build):
    resid = ode_residual(model, BETA)
    assert float(np.max(np.abs(resid.values))) < 1e-3

    # same kernel, constant lambda02: proportional rates fails past the lag
    lam01, kernel, _ = standard_build
    naive = hz.IllnessDeathModel(
        lam01, hz.GridFunction.constant(T_MAX, STEP, 0.6), kernel
    )
    assert float(np.max(np.abs(ode_residual(naive, BETA).values))) > 0.01


def _dense_oracle(model):
    """The dense triangle on the kernel's full grid matrices."""
    times = model.times
    kernel = model.lambda12
    return _Dense(times.size, model.step, kernel.value_grid(times), kernel.cumulative_grid(times))


def _initiation_density(model):
    lam0_cum = hz.cumulative(model.lambda01).values + hz.cumulative(model.lambda02).values
    return np.exp(-lam0_cum) * model.lambda01.values


def _sweep_cases():
    rng = np.random.default_rng(20251018)
    for case in range(12):
        step = float(rng.choice([0.005, 0.01, 0.02]))
        nodes = int(rng.integers(20, 200))
        # even cases put the lag on a grid node, odd ones between nodes
        lag = nodes * step if case % 2 == 0 else (nodes + float(rng.uniform(0.1, 0.9))) * step
        yield (
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            lag,
            float(rng.uniform(-1.0, 0.5)),
            step,
        )


@pytest.mark.parametrize("lam01, early, late, lag, beta, step", list(_sweep_cases()))
def test_convolution_engine_matches_dense_oracle(lam01, early, late, lag, beta, step):
    grid = hz.GridFunction.constant(T_MAX, step, lam01)
    kernel = hz.TwoPieceKernel(early=early, late=late, lag=lag)
    report = hz.build(grid, kernel, beta)
    model = hz.IllnessDeathModel(grid, report.lambda02, kernel)
    a = _initiation_density(model)
    dense = _dense_oracle(model)
    quad = kernel_quadrature(kernel, grid)
    p01_dense = dense.occupation(a)
    live = np.maximum(p01_dense, 0.0) > VACUOUS_P01
    np.testing.assert_allclose(quad.occupation(a)[live], p01_dense[live], rtol=1e-13, atol=0)
    r12 = rate_treated(model).values
    np.testing.assert_allclose(r12[live], dense.treated_rate(a)[live], rtol=1e-13, atol=0)
    assert np.array_equal(r12[~live], dense.treated_rate(a)[~live])


def test_rate_at_step_1e4_runs_in_linear_memory():
    # 30,001 nodes: one dense float64 matrix alone would take 7.2 GB
    lam01 = hz.GridFunction.constant(T_MAX, 1e-4, LAM01)
    lam02 = hz.GridFunction.constant(T_MAX, 1e-4, 0.6)
    model = hz.IllnessDeathModel(lam01, lam02, hz.TwoPieceKernel(EARLY, LATE, LAG))
    tracemalloc.start()
    try:
        r12 = rate_treated(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert r12.values.size == 30_001
    idx = model.lambda01.node_index(1.0)
    np.testing.assert_allclose(r12.values[: idx + 1], EARLY, rtol=0, atol=1e-12)
    assert np.all(r12.values[idx + 1 :] < EARLY)


def test_dense_markov_rates_hold_about_three_grid_arrays():
    # the Markov value grid is a read-only broadcast of one column, so the
    # dense path peaks at about 3.1 n-by-n float arrays (4.1 with a copy)
    n = 1001
    lam = hz.GridFunction.constant(T_MAX, T_MAX / (n - 1), 0.3)
    assert lam.n_nodes == n
    kernel = hz.MarkovKernel(hz.GridFunction.constant(T_MAX, lam.step, 0.5))
    model = hz.IllnessDeathModel(lam, lam, kernel)
    tracemalloc.start()
    try:
        r12 = rate_treated(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n * n)
    assert arrays < 3.5, f"peaked at {arrays:.2f} n-by-n float arrays"
    np.testing.assert_allclose(r12.values, 0.5, rtol=0, atol=1e-12)


def _dense_models(n, step):
    """A Markov and a GridKernel model on n nodes of ``step``, and the
    GridKernel's table, which is negative above the diagonal (storage
    the kernel never reads, so it accepts it)."""
    t_max = (n - 1) * step
    lam = hz.GridFunction.constant(t_max, step, 0.3)
    times = lam.times
    markov = hz.MarkovKernel(lam.with_values(0.5 + 0.3 * np.sin(times)))
    two_piece = hz.TwoPieceKernel(EARLY, LATE, LAG)
    table = two_piece.value_grid(times) * (1 + 0.5 * np.cos(times)[:, None])
    table[np.triu_indices(n, 1)] *= -0.5
    tabulated = hz.GridKernel(t_max, step, table)
    return [hz.IllnessDeathModel(lam, lam, k) for k in (markov, tabulated)], table


@pytest.mark.parametrize(
    "call, bound",
    [("markov rates", 2.25), ("grid kernel rates", 2.25), ("GridKernel", 2.25),
     ("two-piece value_grid", 1.25)],
)
def test_dense_grid_arrays_are_made_once(call, bound):
    # the dense rates hold exp(-K) and exp(-K) * lambda12 alone, a
    # GridKernel its table and cumulative, a two-piece grid its one copy
    n = 1001
    step = T_MAX / (n - 1)
    (markov, tabulated), table = _dense_models(n, step)
    two_piece = hz.TwoPieceKernel(EARLY, LATE, LAG)
    calls = {
        "markov rates": lambda: rate_treated(markov),
        "grid kernel rates": lambda: rate_treated(tabulated),
        "GridKernel": lambda: hz.GridKernel(T_MAX, step, table),
        "two-piece value_grid": lambda: two_piece.value_grid(markov.times),
    }
    _, peak = traced_peak(calls[call])
    arrays = peak / (8 * n * n)
    assert arrays < bound, f"{call} peaked at {arrays:.2f} n-by-n float arrays"


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 601])
def test_dense_grid_arrays_equal_their_plain_expressions_bit_for_bit(n):
    step = STEP
    models, table = _dense_models(n, step)
    times = models[0].times
    upper = np.triu_indices(n, 1)
    kernel = models[1].lambda12
    cum = np.zeros((n, n))
    cum[1:] = np.cumsum(0.5 * (table[1:] + table[:-1]) * step, axis=0)
    assert _same_bits(kernel._cum, cum)
    k_grid = kernel.cumulative_grid(times)
    assert _same_bits(k_grid, np.tril(cum - np.diag(cum)[None, :]))
    c = models[0].lambda12._cum(times)
    k_markov = np.maximum(c[:, None] - c[None, :], 0.0)
    assert _same_bits(models[0].lambda12.cumulative_grid(times), k_markov)
    for model in models:
        value, k_grid = model.lambda12.value_grid(times), model.lambda12.cumulative_grid(times)
        assert not np.signbit(k_grid[upper]).any()
        survival = np.tril(np.exp(-k_grid))
        dense = _Dense(n, step, value, k_grid)
        assert _same_bits(dense.survival, survival)
        assert not np.signbit(dense.survival[upper]).any()
        assert _same_bits(dense.weighted, survival * value)
    two_piece = hz.TwoPieceKernel(EARLY, LATE, LAG + 0.4 * step)
    i, j = np.indices((n, n))
    offsets = np.maximum(i - j, 0)
    g_value, g_cum = two_piece.offset_grid(n, step)
    assert _same_bits(two_piece.value_grid(times), g_value[offsets])
    assert _same_bits(two_piece.cumulative_grid(times), g_cum[offsets])


def test_dense_rates_refuse_a_grid_past_the_node_limit():
    # one node past the limit, where one n-by-n float array takes 200 MB:
    # the refusal must come before the first of them is made
    n = MAX_DENSE_NODES + 1
    lam = hz.GridFunction.constant(T_MAX, T_MAX / (n - 1), 0.3)
    assert lam.n_nodes == n
    model = hz.IllnessDeathModel(lam, lam, hz.MarkovKernel(lam))
    limit = f"{n} grid nodes, more than the dense limit of {MAX_DENSE_NODES}$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=limit):
            rate_treated(model)
        with pytest.raises(ValueError, match=limit):
            hz.build(lam, model.lambda12, BETA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peaked at {peak / 1e6:.1f} MB before refusing"
    # tabulated kernels on the default grid (601 nodes, as in the
    # fine-grid benchmark) stay far inside the limit
    assert 8 * hz.GridFunction.constant(T_MAX, STEP, 0.0).n_nodes < MAX_DENSE_NODES
