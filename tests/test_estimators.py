import numpy as np
import pytest

from conftest import BETA, LAM01, STEP, T_MAX, separated_rows, traced_peak

import hazrates as hz
from hazrates import estimators
from hazrates.estimators import (
    AalenAdditiveFit,
    CoxFit,
    StepFunction,
    aalen_additive,
    cox_fit,
    cox_loglik_parts,
    extended_km,
    log_surv_ratio,
    nelson_aalen_by_treatment,
)
from hazrates.model import CountingRow, CountingTable
from hazrates.numerics import ConvergenceError


class TestStepFunction:
    def test_right_continuous_lookup(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 0.8]), initial=0.0)
        assert f(0.5) == 0.0
        assert f(1.0) == 0.5  # jump time included on the right
        assert f(1.5) == 0.5
        np.testing.assert_allclose(f(np.array([0.0, 2.0, 9.0])), [0.0, 0.8, 0.8])

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([2.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            StepFunction(np.array([1.0]), np.array([0.1, 0.2]))


@pytest.fixture
def hand_rows():
    # one untreated death at 1, one untreated censoring, one subject
    # treated at 0.5 dying at 1.5, one treated at 1.2 and censored
    return [
        CountingRow(0, 0.0, 1.0, 0, True),
        CountingRow(1, 0.0, 2.0, 0, False),
        CountingRow(2, 0.0, 0.5, 0, False),
        CountingRow(2, 0.5, 1.5, 1, True),
        CountingRow(3, 0.0, 1.2, 0, False),
        CountingRow(3, 1.2, 3.0, 1, False),
    ]


class TestNelsonAalenAndKm:
    def test_hand_example(self, hand_rows):
        na = nelson_aalen_by_treatment(hand_rows)
        # untreated risk set at t=1: subjects 0, 1, 3 (2 left at 0.5)
        np.testing.assert_allclose(na[0].jump_times, [1.0])
        assert na[0](1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # treated risk set at t=1.5: subjects 2 and 3
        np.testing.assert_allclose(na[1].jump_times, [1.5])
        assert na[1](2.0) == pytest.approx(0.5, abs=1e-15)

        km = extended_km(hand_rows)
        assert km[0](1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert km[1](1.5) == pytest.approx(0.5, abs=1e-15)
        assert km[1](1.0) == 1.0

    def test_reduces_to_classical_without_treatment(self):
        # deaths at 1, 1, 2 and one censoring at 1.5, all untreated
        rows = [
            CountingRow(0, 0.0, 1.0, 0, True),
            CountingRow(1, 0.0, 1.0, 0, True),
            CountingRow(2, 0.0, 1.5, 0, False),
            CountingRow(3, 0.0, 2.0, 0, True),
        ]
        na = nelson_aalen_by_treatment(rows)
        np.testing.assert_allclose(na[0].values, [2.0 / 4.0, 2.0 / 4.0 + 1.0])
        km = extended_km(rows)
        np.testing.assert_allclose(km[0].values, [0.5, 0.0])
        # the treated stratum is empty: flat zero rate, flat one survival
        assert na[1].jump_times.size == 0
        assert na[1](3.0) == 0.0
        assert km[1](3.0) == 1.0

    def test_product_integral_consistency(self, rows_100k):
        # with many small jumps the product limit tracks exp(-NA)
        na = nelson_aalen_by_treatment(rows_100k)
        km = extended_km(rows_100k)
        grid = np.linspace(0.1, 2.5, 25)
        for level in (0, 1):
            gap = np.max(np.abs(km[level](grid) - np.exp(-na[level](grid))))
            assert gap < 0.005


class TestCoxCurrentLevel:
    def test_two_by_two_closed_form(self):
        # treated death at 1 (risk 2 vs 2), untreated death at 1.5
        # (risk 1 vs 2): score zero at theta^2 = 2
        rows = [
            CountingRow(0, 0.0, 1.0, 1, True),
            CountingRow(1, 0.0, 1.5, 0, True),
            CountingRow(2, 0.0, 3.0, 1, False),
            CountingRow(3, 0.0, 3.0, 0, False),
        ]
        fit = cox_fit(rows)
        assert fit.beta_hat == pytest.approx(0.5 * np.log(2.0), abs=1e-8)
        assert fit.iterations >= 1
        _, score, _ = cox_loglik_parts(rows, fit.beta_hat)
        assert abs(score) < 1e-8

    def test_input_validation(self, hand_rows):
        with pytest.raises(ValueError, match="event"):
            cox_fit([CountingRow(0, 0.0, 1.0, 0, False)])
        with pytest.raises(ValueError, match="covariate"):
            cox_fit(hand_rows, covariates="quadratic")

    def test_monotone_likelihood_is_reported(self):
        rows = [
            CountingRow(0, 0.0, 1.0, 1, True),
            CountingRow(1, 0.0, 2.0, 0, False),
            CountingRow(2, 0.0, 2.0, 1, True),
        ]
        with pytest.raises(ConvergenceError):
            cox_fit(rows)

    @pytest.mark.parametrize(
        "rows, covariates, message",
        [
            # the treated subject dies while the untreated one is at risk:
            # the score decays like e^-beta and passes its test near
            # beta = 21, while the Newton step stays near 1
            *[
                pytest.param(
                    [CountingRow(0, 0.0, 1.0, 1, True), CountingRow(1, 0.0, 3.0, 0, True)],
                    covariates, message, id=f"one-treated-{covariates}",
                )
                for covariates, message in [
                    ("current", "divergent coefficient: monotone partial likelihood"),
                    # one treated row: level and duration are collinear
                    ("duration", "singular information in partial-likelihood fit"),
                ]
            ],
            # both treated subjects die before either untreated one
            *[
                pytest.param(
                    [
                        CountingRow(0, 0.0, 0.67, 0, False),
                        CountingRow(0, 0.67, 1.22, 1, True),
                        CountingRow(1, 0.0, 0.14, 0, False),
                        CountingRow(1, 0.14, 0.36, 1, True),
                        CountingRow(2, 0.0, 4.0, 0, True),
                        CountingRow(3, 0.0, 4.5, 0, True),
                    ],
                    covariates, "divergent coefficient: monotone partial likelihood",
                    id=f"two-treated-{covariates}",
                )
                for covariates in ("current", "duration")
            ],
            # eight treated subjects initiating in (0.1, 1) all die before
            # four untreated ones: the duration fit's score decays only if
            # its treated risk-set sums are exactly 0 where none is at risk
            *[
                pytest.param(
                    separated_rows(name), covariates,
                    "divergent coefficient: monotone partial likelihood",
                    id=f"separated-{name}-{covariates}",
                )
                for name in ("a", "b")
                for covariates in ("current", "duration")
            ],
            # no event time has both levels at risk: zero information
            *[
                pytest.param(
                    [CountingRow(0, 0.0, 1.0, 1, True), CountingRow(1, 1.5, 3.0, 0, True)],
                    covariates, "singular information in partial-likelihood fit",
                    id=f"no-overlap-{covariates}",
                )
                for covariates in ("current", "duration")
            ],
        ],
    )
    def test_rows_without_a_finite_fit_do_not_converge(self, rows, covariates, message):
        with pytest.raises(ConvergenceError, match=f"^{message}$"):
            cox_fit(rows, covariates=covariates)

    def test_gradient_matches_finite_differences(self, hand_rows):
        h = 1e-6
        for beta in (-0.5, 0.0, 0.7):
            lp, _, _ = cox_loglik_parts(hand_rows, beta + h)
            lm, _, _ = cox_loglik_parts(hand_rows, beta - h)
            _, score, _ = cox_loglik_parts(hand_rows, beta)
            assert (lp - lm) / (2 * h) == pytest.approx(score, abs=1e-6)

    def test_loglik_is_maximized_at_the_fit(self, hand_rows):
        fit = cox_fit(hand_rows)
        l_hat, _, _ = cox_loglik_parts(hand_rows, fit.beta_hat)
        for off in (-0.3, 0.3):
            l_off, _, _ = cox_loglik_parts(hand_rows, fit.beta_hat + off)
            assert l_off < l_hat

    def test_markov_proportional_hazards_recovery(self, standard_build):
        # data from a genuine proportional-hazards law: beta_hat close to
        # the truth and the clustered sandwich close to the model variance
        lam01, _, report = standard_build
        mk = hz.MarkovKernel(rate=report.lambda02.with_values(report.lambda02.values * (2.0 / 3.0)))
        m = hz.IllnessDeathModel(lam01, report.lambda02, mk)
        rows = hz.to_counting_rows(hz.simulate_cohort(m, hz.SimConfig(n=100_000, seed=51)))
        fit = cox_fit(rows)
        assert fit.beta_hat == pytest.approx(-0.4035973, abs=1e-6)
        assert abs(fit.beta_hat - BETA) < 3 * fit.robust_se
        assert fit.robust_se / fit.model_se == pytest.approx(1.0, abs=0.05)

    def test_null_effect_recovery(self, standard_build):
        lam01, _, report = standard_build
        m = hz.IllnessDeathModel(lam01, report.lambda02, hz.MarkovKernel(rate=report.lambda02))
        rows = hz.to_counting_rows(hz.simulate_cohort(m, hz.SimConfig(n=100_000, seed=43)))
        fit = cox_fit(rows)
        assert abs(fit.beta_hat) < 3 * fit.model_se
        assert fit.robust_se / fit.model_se == pytest.approx(1.0, abs=0.05)


@pytest.fixture(scope="module")
def duration_rows(standard_build):
    # hazard after initiation: lambda02(t) * exp(beta + gamma (t - u))
    lam01, _, report = standard_build
    gamma_true = 0.25
    times = lam01.times
    tt, uu = times[:, None], times[None, :]
    vals = report.lambda02.values[:, None] * np.exp(
        BETA + gamma_true * np.maximum(tt - uu, 0.0)
    )
    kernel = hz.GridKernel(T_MAX, STEP, vals)
    m = hz.IllnessDeathModel(lam01, report.lambda02, kernel)
    return hz.to_counting_rows(hz.simulate_cohort(m, hz.SimConfig(n=50_000, seed=41)))


@pytest.fixture(scope="module")
def medium_rows(model):
    return hz.to_counting_rows(hz.simulate_cohort(model, hz.SimConfig(n=5_000, seed=14)))


class TestCoxDuration:
    def test_recovers_both_coefficients(self, duration_rows):
        fit = cox_fit(duration_rows, covariates="duration")
        beta_hat, gamma_hat = fit.beta_hat
        assert beta_hat == pytest.approx(-0.4200308, abs=1e-6)
        assert gamma_hat == pytest.approx(0.2625383, abs=1e-6)
        assert abs(beta_hat - BETA) < 3 * fit.robust_se[0]
        assert abs(gamma_hat - 0.25) < 3 * fit.robust_se[1]

    def test_duration_and_current_level_agree_when_gamma_free_fit_is_flat(self, hand_rows):
        # tiny dataset: just exercise the two-covariate path end to end
        rows = hand_rows + [
            CountingRow(4, 0.0, 0.4, 0, False),
            CountingRow(4, 0.4, 2.6, 1, True),
            CountingRow(5, 0.0, 2.2, 0, True),
        ]
        fit = cox_fit(rows, covariates="duration")
        assert isinstance(fit.beta_hat, tuple)
        assert np.all(np.isfinite(fit.model_se))
        assert np.all(np.isfinite(fit.robust_se))


def test_both_fits_match_their_recorded_values_exactly(model):
    # every field, bit for bit: a change in the order of any sum shows here
    rows = hz.to_counting_rows(hz.simulate_cohort(model, hz.SimConfig(n=20_000, seed=5)))
    assert cox_fit(rows, "current") == CoxFit(
        beta_hat=-0.437462723381645,
        model_se=0.022607182512497295,
        robust_se=0.023377936153850334,
        iterations=4,
        loglik=-136364.4057998226,
    )
    assert cox_fit(rows, "duration") == CoxFit(
        beta_hat=(-0.2333314376604748, -0.25926720316958707),
        model_se=(0.03190273456221326, 0.03046113462683311),
        robust_se=(0.032125738555334016, 0.030371053262584442),
        iterations=4,
        loglik=-136327.25948158227,
    )


@pytest.mark.parametrize("covariates, units", [("current", 14), ("duration", 20)])
def test_cox_fit_runs_in_bounded_memory(rows_100k, covariates, units):
    # a fresh table: the fixture's own already holds its risk table
    table = CountingTable(**rows_100k.columns)
    _, peak = traced_peak(lambda: cox_fit(table, covariates))
    # in float arrays of one entry per row, the risk table and row index included
    assert peak < units * 8 * len(table), f"peaked at {peak / (8 * len(table)):.1f} row arrays"


def _searched_index(col, times):
    """lo, hi and event_k by their definition: two binary searches over every row."""
    lo = np.searchsorted(times, col["start"], side="right")
    hi = np.searchsorted(times, col["stop"], side="right")
    return lo, hi, hi[col["event"]] - 1


class TestRowIndex:
    @staticmethod
    def _index_matches_search(table):
        risk = estimators._risk_table(table)
        lo, hi, event_k, subject = estimators._index_arrays(table.columns, risk)
        searched = _searched_index(table.columns, risk[0])
        assert all(np.array_equal(a, b) for a, b in zip((lo, hi, event_k), searched))
        assert np.array_equal(np.unique(table.id)[subject], table.id)
        return lo, hi

    def test_on_the_large_cohort(self, rows_100k):
        self._index_matches_search(rows_100k)

    def test_on_ties_zero_starts_and_rows_out_of_subject_order(self):
        table = CountingTable.coerce([
            CountingRow(4, 1.0, 2.0, 1, True),  # starts at an event time
            CountingRow(1, 0.0, 2.0, 0, True),  # tied with subject 4 at 2.0
            CountingRow(4, 0.0, 1.0, 0, False),  # a non-event stop at an event time
            CountingRow(2, -0.0, 1.0, 0, True),
            CountingRow(3, 0.0, 0.5, 0, False),
            CountingRow(3, 0.5, 2.5, 1, False),  # past the last event time
            CountingRow(0, 0.0, 1.0, 1, True),  # tied with subject 2 at 1.0
        ])
        # event times 1.0 and 2.0
        lo, hi = self._index_matches_search(table)
        assert lo.tolist() == [1, 0, 0, 0, 0, 0, 0]
        assert hi.tolist() == [2, 2, 1, 1, 0, 2, 1]


class TestRobustVariance:
    @staticmethod
    def _split_rows(rows):
        out = []
        for r in rows:
            mid = 0.5 * (r.start + r.stop)
            if r.stop - r.start > 0.2:
                out.append(CountingRow(r.id, r.start, mid, r.treat, False))
                out.append(CountingRow(r.id, mid, r.stop, r.treat, r.event))
            else:
                out.append(r)
        return out

    def test_fit_is_invariant_to_row_splitting(self, medium_rows):
        base = cox_fit(medium_rows)
        split = cox_fit(self._split_rows(medium_rows))
        assert split.beta_hat == pytest.approx(base.beta_hat, abs=1e-10)
        assert split.model_se == pytest.approx(base.model_se, rel=1e-10)
        assert split.robust_se == pytest.approx(base.robust_se, rel=1e-9)

    def test_duration_fit_is_invariant_to_row_splitting(self, medium_rows):
        base = cox_fit(medium_rows, covariates="duration")
        split = cox_fit(self._split_rows(medium_rows), covariates="duration")
        np.testing.assert_allclose(split.beta_hat, base.beta_hat, atol=1e-9)
        np.testing.assert_allclose(split.robust_se, base.robust_se, rtol=1e-8)

    def test_cloning_subjects_scales_both_variances_exactly(self, medium_rows):
        # an exact copy of every subject under a fresh id doubles the
        # information and doubles the meat: both standard errors shrink
        # by exactly sqrt(2) and the estimate stays put
        max_id = max(r.id for r in medium_rows)
        doubled = list(medium_rows) + [
            CountingRow(r.id + max_id + 1, r.start, r.stop, r.treat, r.event)
            for r in medium_rows
        ]
        base = cox_fit(medium_rows)
        twice = cox_fit(doubled)
        assert twice.beta_hat == pytest.approx(base.beta_hat, abs=1e-9)
        assert twice.model_se == pytest.approx(base.model_se / np.sqrt(2), rel=1e-9)
        assert twice.robust_se == pytest.approx(base.robust_se / np.sqrt(2), rel=1e-6)


class TestAalenAdditive:
    def test_hand_example_with_singular_time(self):
        rows = [
            CountingRow(0, 0.0, 1.0, 0, True),
            CountingRow(1, 0.0, 2.0, 1, True),
        ]
        fit = aalen_additive(rows)
        assert isinstance(fit, AalenAdditiveFit)
        np.testing.assert_allclose(fit.b0.jump_times, [1.0, 2.0])
        np.testing.assert_allclose(fit.b0.values, [1.0, 1.0])
        np.testing.assert_allclose(fit.b1.values, [-1.0, 0.0])
        # the untreated risk set is empty at t=2
        np.testing.assert_allclose(fit.singular_times, [2.0])

    @pytest.mark.parametrize("seed", [21, 22])
    def test_identity_with_cumulative_rate_estimator(self, model, seed):
        rows = hz.to_counting_rows(
            hz.simulate_cohort(model, hz.SimConfig(n=4_000, seed=seed))
        )
        fit = aalen_additive(rows)
        na = nelson_aalen_by_treatment(rows)
        times = fit.b0.jump_times
        np.testing.assert_array_equal(fit.b0(times), na[0](times))
        # B0 + B1 adds two cumulative sums, which rounds differently
        # from NA's single sum of the treated jumps
        np.testing.assert_allclose(
            fit.b0(times) + fit.b1(times), na[1](times), rtol=0, atol=1e-12
        )

    def test_identity_on_the_large_cohort(self, rows_100k):
        fit = aalen_additive(rows_100k)
        na = nelson_aalen_by_treatment(rows_100k)
        times = fit.b0.jump_times
        np.testing.assert_array_equal(fit.b0(times), na[0](times))
        assert float(np.max(np.abs(fit.b0(times) + fit.b1(times) - na[1](times)))) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_every_event_is_in_its_own_risk_set(seed):
    # start < stop puts an event row at risk at its own stop, so the
    # estimators' ratios dN_a / Y_a never meet an empty risk set with
    # an event; times on a 0.1 grid tie starts, stops and events
    rng = np.random.default_rng(seed)
    n = 500
    start = rng.integers(0, 20, n) / 10
    rows = CountingTable(
        id=np.arange(n),
        start=start,
        stop=start + rng.integers(1, 10, n) / 10,
        treat=rng.integers(0, 2, n),
        event=rng.random(n) < 0.5,
    )
    times, d0, d1, y0, y1, _ = estimators._risk_table(rows)
    assert times.size > 0 and np.all(d0 + d1 > 0)
    assert np.all(d0 <= y0) and np.all(d1 <= y1)
    for level, (jump_times, ratios) in estimators._level_jumps(rows).items():
        assert np.all((ratios > 0) & (ratios <= 1))
        assert np.array_equal(jump_times, times[(d0, d1)[level] > 0])


def _same_curve(a: StepFunction, b: StepFunction) -> bool:
    return (
        np.array_equal(a.jump_times, b.jump_times)
        and np.array_equal(a.values, b.values)
        and a.initial == b.initial
    )


class TestTableInput:
    """Each estimator gives the same result on a CountingTable as on the
    list of records it was built from."""

    def test_curves(self, hand_rows):
        table = CountingTable.coerce(hand_rows)
        for estimator in (nelson_aalen_by_treatment, extended_km):
            by_list, by_table = estimator(hand_rows), estimator(table)
            assert by_list.keys() == by_table.keys()
            assert all(_same_curve(by_list[k], by_table[k]) for k in by_list)

    def test_aalen(self):
        rows = [CountingRow(0, 0.0, 1.0, 0, True), CountingRow(1, 0.0, 2.0, 1, True)]
        by_list, by_table = aalen_additive(rows), aalen_additive(CountingTable.coerce(rows))
        assert _same_curve(by_list.b0, by_table.b0) and _same_curve(by_list.b1, by_table.b1)
        np.testing.assert_array_equal(by_list.singular_times, by_table.singular_times)

    def test_cox(self, hand_rows):
        rows = hand_rows + [
            CountingRow(4, 0.0, 0.4, 0, False),
            CountingRow(4, 0.4, 2.6, 1, True),
            CountingRow(5, 0.0, 2.2, 0, True),
        ]
        table = CountingTable.coerce(rows)
        for covariates in ("current", "duration"):
            assert cox_fit(table, covariates) == cox_fit(rows, covariates)
        for beta in (-0.5, 0.0, 0.7):
            assert cox_loglik_parts(table, beta) == cox_loglik_parts(rows, beta)

    def test_one_risk_table_per_table(self, hand_rows, monkeypatch):
        # every estimator run on one table reads the same risk table
        calls = []
        compute = estimators._risk_arrays
        monkeypatch.setattr(
            estimators, "_risk_arrays", lambda col: calls.append(len(col["id"])) or compute(col)
        )
        table = CountingTable.coerce(hand_rows + [
            CountingRow(4, 0.0, 0.4, 0, False),
            CountingRow(4, 0.4, 2.6, 1, True),
            CountingRow(5, 0.0, 2.2, 0, True),
        ])
        nelson_aalen_by_treatment(table)
        extended_km(table)
        aalen_additive(table)
        for covariates in ("current", "duration"):
            cox_fit(table, covariates)
        cox_loglik_parts(table, 0.3)
        assert calls == [9]
        cached = estimators._risk_table(table)
        assert all(np.array_equal(a, b) for a, b in zip(cached, compute(table.columns)))
        assert not any(a.flags.writeable for a in cached)
        # another table has its own
        nelson_aalen_by_treatment(CountingTable.coerce(list(table)[:3]))
        assert calls == [9, 3]
        cox_fit(CountingTable.coerce(list(table)[:4]))
        assert calls == [9, 3, 4]


class TestLogSurvRatio:
    def test_value(self):
        s1 = StepFunction(np.array([1.0]), np.array([0.25]), initial=1.0)
        s0 = StepFunction(np.array([1.0]), np.array([0.5]), initial=1.0)
        assert log_surv_ratio(s1, s0, 2.0) == pytest.approx(2.0)

    def test_rejects_degenerate_values(self):
        s1 = StepFunction(np.array([1.0]), np.array([0.25]), initial=1.0)
        s0 = StepFunction(np.array([1.0]), np.array([0.0]), initial=1.0)
        with pytest.raises(ValueError):
            log_surv_ratio(s1, s0, 0.5)  # both still at 1
        with pytest.raises(ValueError):
            log_surv_ratio(s1, s0, 2.0)  # s0 hit zero
