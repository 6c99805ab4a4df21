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

    def test_nan_time_reads_nan(self):
        # searchsorted sorts NaN last, which would read the final value
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 0.7]))
        assert np.isnan(f(np.nan))
        np.testing.assert_array_equal(f(np.array([np.nan, 1.5])), [np.nan, 0.5])
        with pytest.raises(ValueError):
            log_surv_ratio(f, f, np.nan)

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


def test_loglik_parts_need_an_event(hand_rows):
    censored = [CountingRow(r.id, r.start, r.stop, r.treat, False) for r in hand_rows]
    with pytest.raises(ValueError, match="^need at least one event$"):
        cox_loglik_parts(censored, 0.0)


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


def _split_in_three(table):
    """Each row of ``table`` as three rows of a third of its length, the event on the last."""
    col = table.columns
    start, stop = col["start"], col["stop"]
    width = stop - start
    bounds = np.stack([start, start + width / 3, start + 2 * width / 3, stop], axis=1)
    event = np.zeros((start.size, 3), dtype=bool)
    event[:, 2] = col["event"]
    return CountingTable(
        id=np.repeat(col["id"], 3),
        start=bounds[:, :3].ravel(),
        stop=bounds[:, 1:].ravel(),
        treat=np.repeat(col["treat"], 3),
        event=event.ravel(),
    )


def _rounded(table, decimals):
    """``table`` with its times rounded, rows left empty dropped: tied event times."""
    col = table.columns
    start, stop = np.round(col["start"], decimals), np.round(col["stop"], decimals)
    keep = start < stop
    return CountingTable(
        id=col["id"][keep], start=start[keep], stop=stop[keep],
        treat=col["treat"][keep], event=col["event"][keep],
    )


def _shuffled(table, seed):
    order = np.random.default_rng(seed).permutation(len(table))
    return CountingTable(**{name: values[order] for name, values in table.columns.items()})


@pytest.fixture(scope="module")
def three_row_table(rows_100k):
    """The first 25,000 subjects of the n=1e5 cohort, every row in three:
    99,177 rows in four blocks, each subject with 3 or 6 rows."""
    keep = rows_100k.id < 25_000
    return _split_in_three(CountingTable(**{k: v[keep] for k, v in rows_100k.columns.items()}))


def _later_block_holds_two(ids):
    """Whether some subject has rows before a block edge and two or more after it."""
    edges = np.arange(estimators._BLOCK, ids.size - 1, estimators._BLOCK)
    return bool(np.any((ids[edges - 1] == ids[edges]) & (ids[edges] == ids[edges + 1])))


# (table, covariates) -> CoxFit, recorded with each robust part summed
# within subject by one np.bincount over all rows
EXTERNAL_TABLE_FITS = {
    ("three-rows", "current"): CoxFit(
        beta_hat=-0.38360132107274675,
        model_se=0.020074298565579983,
        robust_se=0.020794467834109362,
        iterations=4,
        loglik=-175515.8616469293,
    ),
    ("three-rows", "duration"): CoxFit(
        beta_hat=(-0.17402142084978384, -0.2684379042904278),
        model_se=(0.028097729243055217, 0.026923573686470487),
        robust_se=(0.028112123586426712, 0.02668706226912284),
        iterations=4,
        loglik=-175464.76398048367,
    ),
    ("shuffled", "current"): CoxFit(
        beta_hat=-0.38360132107274675,
        model_se=0.020074298565579983,
        robust_se=0.020794467834109362,
        iterations=4,
        loglik=-175515.8616469293,
    ),
    ("shuffled", "duration"): CoxFit(
        beta_hat=(-0.17402142084978384, -0.2684379042904278),
        model_se=(0.028097729243055217, 0.026923573686470487),
        robust_se=(0.02811212358642671, 0.026687062269122836),
        iterations=4,
        loglik=-175464.76398048367,
    ),
    ("tied", "current"): CoxFit(
        beta_hat=-0.39042026314016154,
        model_se=0.02017464876107641,
        robust_se=0.020808326125482033,
        iterations=4,
        loglik=-172886.29671476537,
    ),
    ("tied", "duration"): CoxFit(
        beta_hat=(-0.19038057870663516, -0.25390349131907547),
        model_se=(0.028417226408321422, 0.027040834539014978),
        robust_se=(0.028227909206007193, 0.026628425103573515),
        iterations=4,
        loglik=-172841.06485361938,
    ),
}


@pytest.mark.parametrize(
    "name, covariates", list(EXTERNAL_TABLE_FITS), ids=[f"{n}-{c}" for n, c in EXTERNAL_TABLE_FITS]
)
def test_both_fits_on_external_tables_match_their_recorded_values_exactly(
    three_row_table, name, covariates
):
    # subjects of three rows cut by the block edges; the same rows out of
    # subject order, so that the ids are coded by a sort; and with times
    # to 2 decimals, 18,019 events at 300 event times
    table = {
        "three-rows": lambda: three_row_table,
        "shuffled": lambda: _shuffled(three_row_table, 8),
        "tied": lambda: _rounded(three_row_table, 2),
    }[name]()
    assert _later_block_holds_two(three_row_table.id)
    assert repr(cox_fit(table, covariates)) == repr(EXTERNAL_TABLE_FITS[name, covariates])


@pytest.mark.parametrize("shuffle", [False, True], ids=["in-subject-order", "shuffled"])
def test_subject_totals_sum_each_subject_in_row_order(three_row_table, shuffle):
    # values spread over 16 orders of magnitude, so that a subject summed
    # as a + (b + c) instead of (a + b) + c shows in the last bits
    table = _shuffled(three_row_table, 8) if shuffle else three_row_table
    rng = np.random.default_rng(3)
    values = rng.standard_normal(len(table)) * 10.0 ** rng.integers(-8, 8, len(table))
    totals = estimators._subject_totals(
        table.columns, estimators._risk_table(table), lambda rows, lo, hi: values[rows]
    )
    expected = np.bincount(np.unique(table.id, return_inverse=True)[1], weights=values)
    assert totals.tobytes() == expected.tobytes()


@pytest.mark.parametrize("covariates, units", [("current", 8.2), ("duration", 10.5)])
def test_cox_fit_runs_in_bounded_memory(rows_100k, covariates, units):
    # a fresh table: the fixture's own already holds its risk table
    table = CountingTable(**rows_100k.columns)
    _, peak = traced_peak(lambda: cox_fit(table, covariates))
    # in float arrays of one entry per row, the risk table and row index included
    assert peak < units * 8 * len(table), f"peaked at {peak / (8 * len(table)):.1f} row arrays"


def test_current_level_fit_on_a_built_risk_table_runs_in_bounded_memory(rows_100k):
    # as in reproduce, where NA has built the risk table before the fit:
    # what remains is the fit's own working memory, about 4.4 row arrays,
    # its residuals summed into subject totals a block of rows at a time;
    # row bounds searched for the whole table at once take it past 9
    table = CountingTable(**rows_100k.columns)
    estimators._risk_table(table)
    _, peak = traced_peak(lambda: cox_fit(table, "current"))
    assert peak < 4.9 * 8 * len(table), f"peaked at {peak / (8 * len(table)):.1f} row arrays"


def test_duration_fit_on_a_built_risk_table_runs_in_bounded_memory(rows_100k):
    # about 6.7 row arrays: the Newton steps build their moments in place,
    # and the robust part takes one covariate at a time, its residuals
    # summed into subject totals a block of rows at a time
    table = CountingTable(**rows_100k.columns)
    estimators._risk_table(table)
    _, peak = traced_peak(lambda: cox_fit(table, "duration"))
    assert peak < 7.2 * 8 * len(table), f"peaked at {peak / (8 * len(table)):.1f} row arrays"


def _searched_index(col, times):
    """lo, hi and event_k by their definition: two binary searches over every row."""
    lo = np.searchsorted(times, col["start"], side="right")
    hi = np.searchsorted(times, col["stop"], side="right")
    return lo, hi, hi[col["event"]] - 1


class TestRowIndex:
    @staticmethod
    def _bounds_match_search(table):
        risk = estimators._risk_table(table)
        blocks = list(estimators._row_blocks(table.columns, risk))
        rows = np.concatenate([np.arange(len(table))[r] for r, _, _ in blocks])
        assert np.array_equal(rows, np.arange(len(table)))
        lo, hi = (np.concatenate([block[i] for block in blocks]) for i in (1, 2))
        searched = _searched_index(table.columns, risk[0])
        assert all(np.array_equal(a, b) for a, b in zip((lo, hi, risk[5]), searched))
        codes = estimators._subject_codes(table.id)
        assert np.array_equal(codes, np.unique(table.id, return_inverse=True)[1])
        return blocks, lo, hi

    def test_on_the_large_cohort(self, rows_100k):
        blocks, _, _ = self._bounds_match_search(rows_100k)
        assert len(blocks) == -(-len(rows_100k) // estimators._BLOCK) > 1

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
        _, lo, hi = self._bounds_match_search(table)
        assert lo.tolist() == [1, 0, 0, 0, 0, 0, 0]
        assert hi.tolist() == [2, 2, 1, 1, 0, 2, 1]

    @pytest.mark.parametrize(
        "ids",
        [
            [0, 0, 1, 3, 3, 3, 7, 8],
            [4, 1, 4, 2, 3, 3, 0],  # the ties table's, out of subject order
            [-(2**62) - 1, -(2**62), -(2**62), 0, 2**62, 2**62, 2**62 + 1],
            [7],
        ],
        ids=["nondecreasing", "out-of-order", "near-2^62", "single-row"],
    )
    def test_subject_codes_are_the_inverse_of_unique(self, ids):
        ids = np.array(ids, dtype=np.int64)
        codes = estimators._subject_codes(ids)
        assert codes.dtype == np.intp
        assert np.array_equal(codes, np.unique(ids, return_inverse=True)[1])


def _risk_table_by_sorted_bounds(col):
    """The risk table by per-level sorted bounds: Y_a(t) = #{level-a
    starts < t} - #{level-a stops < t}, two binary searches of the
    event times into the level's sorted starts and sorted stops."""
    ev, treat = col["event"], col["treat"]
    times, kidx = np.unique(col["stop"][ev], return_inverse=True)
    d = np.bincount(kidx, minlength=times.size)
    d1 = np.bincount(kidx, weights=treat[ev].astype(float), minlength=times.size)
    y0, y1 = (
        (
            np.searchsorted(np.sort(col["start"][treat == level]), times, side="left")
            - np.searchsorted(np.sort(col["stop"][treat == level]), times, side="left")
        ).astype(float)
        for level in (0, 1)
    )
    return times, d - d1, d1, y0, y1, kidx


def _subset(table, keep):
    return CountingTable(**{name: values[keep] for name, values in table.columns.items()})


def _cut_at_event_times(table):
    """Each row with an event time inside its (start, stop) cut there, in
    two rows, the event on the second: the second starts at an event
    time, the first stops at one without an event."""
    col = table.columns
    times = estimators._risk_table(table)[0]
    lo = np.searchsorted(times, col["start"], side="right")  # times[lo] is the first past start
    inside = lo < times.size
    inside[inside] = times[lo[inside]] < col["stop"][inside]
    cut = np.flatnonzero(inside)
    at = times[lo[cut]]
    order = np.argsort(np.concatenate([np.arange(len(table)), cut]), kind="stable")
    first = col["stop"].copy()
    first[cut] = at
    event = col["event"].copy()
    event[cut] = False
    return CountingTable(
        id=np.concatenate([col["id"], col["id"][cut]])[order],
        start=np.concatenate([col["start"], at])[order],
        stop=np.concatenate([first, col["stop"][cut]])[order],
        treat=np.concatenate([col["treat"], col["treat"][cut]])[order],
        event=np.concatenate([event, col["event"][cut]])[order],
    )


@pytest.mark.parametrize(
    "name",
    [
        "n=1e5", "three-rows", "shuffled", "tied",
        "untreated-only", "treated-only", "cut-at-event-times",
    ],
)
def test_risk_table_matches_the_sorted_bounds_method_exactly(rows_100k, three_row_table, name):
    # the row windows of _row_blocks, summed as +1 where a row enters its
    # level's risk set and -1 where it leaves, count Y0 and Y1 bit for bit
    # as the event times searched into the per-level sorted bounds do
    table = {
        "n=1e5": lambda: rows_100k,
        "three-rows": lambda: three_row_table,
        "shuffled": lambda: _shuffled(three_row_table, 8),
        "tied": lambda: _rounded(three_row_table, 2),
        "untreated-only": lambda: _subset(rows_100k, rows_100k.treat == 0),
        "treated-only": lambda: _subset(rows_100k, rows_100k.treat == 1),
        "cut-at-event-times": lambda: _cut_at_event_times(rows_100k),
    }[name]()
    got = estimators._risk_arrays(table.columns)
    expected = _risk_table_by_sorted_bounds(table.columns)
    assert [(a.dtype, a.shape) for a in got] == [(b.dtype, b.shape) for b in expected]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    times, _, d1, _, y1, _ = got
    if name == "untreated-only":
        assert not d1.any() and not y1.any()
    if name == "cut-at-event-times":
        assert np.isin(table.start, times).sum() > 10_000


def test_risk_table_runs_in_bounded_memory(rows_100k):
    # about 5.5 row arrays: the row windows come _BLOCK rows at a time,
    # so the temporaries of their accumulation stay at block size however
    # many event times there are
    table = CountingTable(**rows_100k.columns)
    _, peak = traced_peak(lambda: estimators._risk_table(table))
    assert peak < 5.8 * 8 * len(table), f"peaked at {peak / (8 * len(table)):.2f} row arrays"


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
