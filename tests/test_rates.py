import numpy as np
import pytest

from conftest import BETA, EARLY, LAG, LAM01, LATE, STEP, T_MAX

import hazrates as hz
from hazrates.rates import ode_residual, occupation, rate_treated, rate_untreated


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
    g = hz.GridFunction.from_callable(lambda t: 0.2 + 0.3 * t, 2.0, 0.01)
    m = hz.IllnessDeathModel(lam01, lam02, hz.MarkovKernel(g))
    np.testing.assert_allclose(rate_treated(m).values, g.values, rtol=0, atol=1e-12)


def test_untreated_rate_is_lambda02(constant_markov_model):
    assert rate_untreated(constant_markov_model) is constant_markov_model.lambda02


def test_occupation_against_closed_form(constant_markov_model):
    # constant hazards a=0.3, b=0.6, c=0.5 give
    # p01(t) = a * exp(-c t) * (1 - exp(-(a+b-c) t)) / (a+b-c)
    a, b, c = 0.3, 0.6, 0.5
    for t in [0.5, 1.0, 2.0, 3.0]:
        want = a * np.exp(-c * t) * (1 - np.exp(-(a + b - c) * t)) / (a + b - c)
        sl = occupation(constant_markov_model, t)
        assert sl.p01 == pytest.approx(want, abs=1e-5)
        assert sl.t == t
        assert sl.weights.t_max == pytest.approx(t)
        # the stored weight at u is p00(u) * lam01(u) * p11(u, t)
        assert sl.weights(0.0) == pytest.approx(a * np.exp(-c * t), abs=1e-12)


def test_occupation_at_zero(constant_markov_model):
    assert occupation(constant_markov_model, 0.0).p01 == 0.0


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
