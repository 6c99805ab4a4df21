import numpy as np
import pytest

from conftest import BETA, EARLY, LAG, LAM01, LATE, STEP, T_MAX

import hazrates as hz
from hazrates.contrast import (
    causal_hazard_ratio,
    duration_model_ratio,
    potential_survival,
    rate_based_survival,
)
from hazrates.estimators import cox_fit, nelson_aalen_by_treatment
from hazrates.model import TreatmentPath
from hazrates.rates import rate_treated, rate_untreated


class TestRegime:
    def test_constructors(self):
        assert TreatmentPath.never().u_init is None
        assert TreatmentPath.always().u_init == 0.0
        assert TreatmentPath.initiate_at(1.5).u_init == 1.5

    def test_a_regime_is_a_treatment_path(self):
        assert type(TreatmentPath.never()) is hz.TreatmentPath
        # initiation at 0 is the always-treated path, equal and hashing
        # alike whichever constructor builds it
        assert TreatmentPath.initiate_at(0.0) == TreatmentPath.always() == TreatmentPath(u_init=0.0)
        assert hash(TreatmentPath.initiate_at(0.0)) == hash(TreatmentPath.always())

    def test_validation(self):
        with pytest.raises(ValueError):
            TreatmentPath.initiate_at(-0.5)


class TestPotentialSurvival:
    def test_starts_at_one(self, model):
        paths = (TreatmentPath.never(), TreatmentPath.always(), TreatmentPath.initiate_at(1.0))
        for regime in paths:
            assert potential_survival(model, regime)(0.0) == 1.0

    def test_always_is_the_kernel_cumulative(self, model):
        s = potential_survival(model, TreatmentPath.always())
        # two-piece closed form: 0.4 for one unit, 0.2 for two more
        assert s(3.0) == pytest.approx(np.exp(-0.8), abs=1e-12)
        assert s(0.5) == pytest.approx(np.exp(-0.2), abs=1e-12)

    def test_never_matches_rate_transform_of_untreated_rate(self, model):
        # among the untreated, rate and hazard coincide, so this is the
        # one regime where the rate-based transform is exactly right
        s_never = potential_survival(model, TreatmentPath.never())
        s_rate = rate_based_survival(rate_untreated(model))
        np.testing.assert_array_equal(s_never.values, s_rate.values)

    def test_never_frozen_value(self, model):
        assert potential_survival(model, TreatmentPath.never())(3.0) == pytest.approx(
            0.2324212802, abs=1e-9
        )

    def test_a_treatment_path_gives_the_regime_curve(self, model):
        for u in (0.0, 0.7, 1.2345, T_MAX):
            via_path = potential_survival(model, hz.TreatmentPath.initiate_at(u))
            via_regime = potential_survival(model, TreatmentPath.initiate_at(u))
            assert np.array_equal(via_path.values, via_regime.values)

    def test_initiate_at_zero_is_always(self, model):
        s0 = potential_survival(model, TreatmentPath.initiate_at(0.0))
        s_alw = potential_survival(model, TreatmentPath.always())
        assert float(np.max(np.abs(s0.values - s_alw.values))) <= 1e-12

    def test_initiate_at_horizon_is_never(self, model):
        s3 = potential_survival(model, TreatmentPath.initiate_at(T_MAX))
        s_nev = potential_survival(model, TreatmentPath.never())
        assert float(np.max(np.abs(s3.values - s_nev.values))) <= 1e-12

    def test_initiation_beyond_horizon_rejected(self, model):
        with pytest.raises(ValueError):
            potential_survival(model, TreatmentPath.initiate_at(T_MAX + 1.0))

    def test_regime_ordering(self, model):
        # earlier initiation only ever helps here: the post-initiation
        # hazard is below the untreated hazard at every time
        s_alw = potential_survival(model, TreatmentPath.always())
        s_mid = potential_survival(model, TreatmentPath.initiate_at(1.0))
        s_nev = potential_survival(model, TreatmentPath.never())
        assert np.all(s_alw.values - s_mid.values >= -1e-12)
        assert np.all(s_mid.values - s_nev.values >= -1e-12)
        assert s_alw(3.0) > s_mid(3.0) > s_nev(3.0)


class TestContrasts:
    def test_true_contrast_frozen(self, model):
        s_alw = potential_survival(model, TreatmentPath.always())
        s_nev = potential_survival(model, TreatmentPath.never())
        assert s_alw(3.0) - s_nev(3.0) == pytest.approx(0.2169076839, abs=1e-9)

    def test_rate_based_contrast_frozen(self, model):
        s_t = rate_based_survival(rate_treated(model))
        s_u = rate_based_survival(rate_untreated(model))
        assert s_t(3.0) - s_u(3.0) == pytest.approx(0.1456008915, abs=1e-9)

    def test_rate_based_transform_overstates_treated_survival(self, model):
        # exp(-cumulative rate) among the treated is not a potential
        # outcome; here it undershoots the always-treat curve everywhere
        # past the lag
        s_alw = potential_survival(model, TreatmentPath.always())
        s_t = rate_based_survival(rate_treated(model))
        after = model.times > 1.0
        assert np.all(s_t.values[after] < s_alw.values[after])

    def test_cox_transformed_survival_estimates_the_rate_contrast(self, model):
        # the paper's claim from data: a current-level Cox fit put on the
        # survival scale, S_u^exp(beta_hat) - S_u, centres on the rate
        # contrast, not the true one, while its robust interval covers
        # the rate ratio as a 95% interval should
        n, seeds = 2_000, range(1000, 1400)
        estimates, covered = [], 0
        for seed in seeds:
            rows = hz.to_counting_rows(hz.simulate_cohort(model, hz.SimConfig(n=n, seed=seed)))
            s_u = np.exp(-nelson_aalen_by_treatment(rows)[0](T_MAX))
            fit = cox_fit(rows, "current")
            estimates.append(s_u ** np.exp(fit.beta_hat) - s_u)
            covered += abs(fit.beta_hat - BETA) <= 1.959963984540054 * fit.robust_se
        r = len(estimates)
        mean = np.mean(estimates)
        mc_se = np.std(estimates, ddof=1) / np.sqrt(r)
        s_t, s_0 = (rate_based_survival(rate(model)) for rate in (rate_treated, rate_untreated))
        paths = (TreatmentPath.always(), TreatmentPath.never())
        s_alw, s_nev = (potential_survival(model, r) for r in paths)
        rate_c, true_c = s_t(T_MAX) - s_0(T_MAX), s_alw(T_MAX) - s_nev(T_MAX)
        assert abs(mean - rate_c) < 4 * mc_se, f"mean {mean:.5f}, MC SE {mc_se:.5f}"
        assert mean < true_c - 20 * mc_se, f"mean {mean:.5f}, MC SE {mc_se:.5f}"
        assert abs(covered / r - 0.95) < 4 * np.sqrt(0.95 * 0.05 / r), f"covered {covered}/{r}"

    def test_rate_based_survival_rejects_negative(self):
        with pytest.raises(ValueError):
            rate_based_survival(hz.GridFunction.constant(1.0, 0.5, -0.1))


def delay_ode_contrasts(h):
    """(true, rate-based) contrast at T_MAX of the standard model, from
    its delay ODE, independently of the grid engines.

    With p0(t) = exp(-c t - H02(t)) the untreated survival and A, B the
    treated occupation started within the last lag and before it,
    r12 = (e A + l B) / (A + B), lam02 = r12 / exp(beta) and
    H02' = lam02, A' = c p0(t) - e A - c e^{-e L} p0(t - L),
    B' = c e^{-e L} p0(t - L) - l B.  On [0, L] the solution is closed
    form (B = 0, lam02 = e / exp(beta)); past it the method of steps runs
    RK4 at step h, a divisor of L, reading p0(t - L) from the closed form
    or, at a half step, from the cubic Hermite interpolant of the nodes
    already solved (p0' = -(c + lam02) p0 there)."""
    c, e, l, ratio = LAM01, EARLY, LATE, float(np.exp(BETA))
    m, n_end = round(LAG / h), round(T_MAX / h)
    k = c + e / ratio  # the untreated exit rate on [0, L]
    inflow = c * np.exp(-e * LAG)  # times p0(t - L): the flow from A to B at t
    p, dp = np.empty(n_end + 1), np.empty(n_end + 1)
    p[: m + 1] = np.exp(-k * h * np.arange(m + 1))
    dp[: m + 1] = -k * p[: m + 1]

    def lagged(j, half):
        """p0 at node j (+ h/2 if half)."""
        if j < m:
            return np.exp(-k * (j + 0.5 * half) * h)
        if not half:
            return p[j]
        return 0.5 * (p[j] + p[j + 1]) + h * (dp[j] - dp[j + 1]) / 8

    def f(t, y, q):
        """(y', p0(t), p0'(t)) at time t, state y = (H02, A, B) and q = p0(t - L)."""
        h02, a, b = y
        lam02 = (e * a + l * b) / (a + b) / ratio
        p0 = np.exp(-c * t - h02)
        y_prime = np.array([lam02, c * p0 - e * a - inflow * q, inflow * q - l * b])
        return y_prime, p0, -(c + lam02) * p0

    y = np.array([e / ratio * LAG, c * (np.exp(-k * LAG) - np.exp(-e * LAG)) / (e - k), 0.0])
    for i in range(m, n_end):
        t = i * h
        q0, q_half, q1 = lagged(i - m, False), lagged(i - m, True), lagged(i + 1 - m, False)
        k1 = f(t, y, q0)[0]
        k2 = f(t + h / 2, y + h / 2 * k1, q_half)[0]
        k3 = f(t + h / 2, y + h / 2 * k2, q_half)[0]
        k4 = f(t + h, y + h * k3, q1)[0]
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        _, p[i + 1], dp[i + 1] = f(t + h, y, q1)
    s_never = np.exp(-y[0])
    s_always = np.exp(-e * LAG - l * (T_MAX - LAG))
    return float(s_always - s_never), float(s_never**ratio - s_never)


def _standard_model(step):
    lam01 = hz.GridFunction.constant(T_MAX, step, LAM01)
    kernel = hz.TwoPieceKernel(early=EARLY, late=LATE, lag=LAG)
    report = hz.build(lam01, kernel, BETA)
    return hz.IllnessDeathModel(lambda01=lam01, lambda02=report.lambda02, lambda12=kernel)


class TestDelayOdeReference:
    TRUE, RATE = 0.2167301249140, 0.1456158238191

    def test_reference_converges(self):
        coarse, fine = delay_ode_contrasts(0.0025), delay_ode_contrasts(0.00125)
        assert np.max(np.abs(np.subtract(coarse, fine))) < 1e-12
        assert fine == pytest.approx((self.TRUE, self.RATE), abs=1e-12)

    def test_engine_error_halves_with_the_step(self, model):
        # the trapezoid reads the one-sided value early at the kernel's
        # jump, so the grid contrasts are first order in the step
        errors = []
        for step in (0.01, 0.005, 0.0025):
            m = model if step == STEP else _standard_model(step)
            paths = (TreatmentPath.always(), TreatmentPath.never())
            s_alw, s_nev = (potential_survival(m, path)(T_MAX) for path in paths)
            rates = (rate_treated, rate_untreated)
            s_t, s_u = (rate_based_survival(rate(m))(T_MAX) for rate in rates)
            errors.append((s_alw - s_nev - self.TRUE, s_t - s_u - self.RATE))
        errors = np.array(errors)
        assert errors[1] == pytest.approx([1.78e-4, -1.49e-5], rel=0.01)
        ratios = errors[:-1] / errors[1:]
        assert np.all(np.abs(ratios - 2.0) < 0.02), ratios


class TestCausalHazardRatio:
    def test_flat_before_the_lag_then_below(self, model):
        ratio = causal_hazard_ratio(model)
        t = ratio.times
        np.testing.assert_allclose(ratio.values[t <= 1.0], 2.0 / 3.0, atol=1e-12)
        assert float(np.max(ratio.values[t >= 1.05])) == pytest.approx(
            0.56412428, abs=1e-7
        )
        assert np.all(ratio.values[t >= 1.05] < 2.0 / 3.0 - 1e-3)

    def test_rejects_vanishing_untreated_hazard(self, standard_build):
        lam01, kernel, _ = standard_build
        degenerate = hz.IllnessDeathModel(
            lam01, hz.GridFunction.constant(T_MAX, STEP, 0.0), kernel
        )
        with pytest.raises(ValueError, match="vanishes"):
            causal_hazard_ratio(degenerate)


class TestDurationModelRatio:
    def test_gamma_zero_is_exactly_the_rate_ratio(self):
        lam0 = hz.GridFunction.constant(T_MAX, STEP, 0.6)
        out = duration_model_ratio(lam0, beta=BETA, gamma=0.0, t=2.0)
        assert out == float(np.exp(BETA))

    def test_constant_baseline_closed_form(self):
        # e^beta * (e^{gamma t} - 1) / (gamma t) for flat lambda0
        lam0 = hz.GridFunction.constant(3.0, 0.001, 0.5)
        out = duration_model_ratio(lam0, beta=0.0, gamma=1.0, t=1.0)
        assert out == pytest.approx(np.e - 1.0, abs=1e-6)

    def test_monotone_in_t_with_the_sign_of_gamma(self):
        lam0 = hz.GridFunction.constant(3.0, 0.005, 0.5)
        up = [duration_model_ratio(lam0, BETA, 0.25, t) for t in (0.5, 1.5, 3.0)]
        assert up[0] < up[1] < up[2]
        assert up[0] > np.exp(BETA)
        down = [duration_model_ratio(lam0, BETA, -0.25, t) for t in (0.5, 1.5, 3.0)]
        assert down[0] > down[1] > down[2]
        assert down[0] < np.exp(BETA)

    def test_validation(self):
        lam0 = hz.GridFunction.constant(3.0, 0.005, 0.5)
        with pytest.raises(ValueError):
            duration_model_ratio(lam0, BETA, 0.0, t=0.0)
        zero = hz.GridFunction.constant(3.0, 0.005, 0.0)
        with pytest.raises(ValueError):
            duration_model_ratio(zero, BETA, 0.0, t=1.0)


class TestRegimeCurvesAgainstSimulation:
    def test_always_treated_deaths(self, model):
        # direct draws from the post-initiation kernel, treated from 0
        rng = np.random.Generator(np.random.Philox(33))
        n = 1_000_000
        t_death = model.lambda12.invert_cumulative(
            np.zeros(n), rng.exponential(size=n)
        )
        s = potential_survival(model, TreatmentPath.always())
        for t in (0.5, 1.5, 2.5):
            frac = float(np.mean(t_death > t))
            want = s(t)
            se = np.sqrt(want * (1 - want) / n)
            assert abs(frac - want) < 3 * se, (
                f"always-treat survival at t={t}: simulated {frac:.5f}, "
                f"analytic {want:.5f}"
            )

    def test_never_treated_cohort(self, model):
        # switch off initiation; the cohort then realizes the never regime
        frozen = hz.IllnessDeathModel(
            hz.GridFunction.constant(T_MAX, STEP, 0.0), model.lambda02, model.lambda12
        )
        cohort = hz.simulate_cohort(frozen, hz.SimConfig(n=1_000_000, seed=34))
        t_event = cohort.t_event
        event = cohort.event
        s = potential_survival(model, TreatmentPath.never())
        for t in (0.5, 1.5, 2.5):
            frac = float(np.mean((t_event > t) | (~event & (t_event >= t))))
            want = s(t)
            se = np.sqrt(want * (1 - want) / 1_000_000)
            assert abs(frac - want) < 3 * se, (
                f"never-treat survival at t={t}: simulated {frac:.5f}, "
                f"analytic {want:.5f}"
            )
