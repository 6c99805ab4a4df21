import numpy as np
import pytest

from conftest import STEP, T_MAX

import hazrates as hz
from hazrates.model import rows_as_arrays
from hazrates.rates import occupation, rate_treated
from hazrates.simulate import (
    SimConfig,
    sample_frailty_cohort,
    simulate_cohort,
    to_counting_rows,
)


def _small_model(lam01=0.3, lam02=0.6, early=0.4, late=0.2):
    return hz.IllnessDeathModel(
        hz.GridFunction.constant(T_MAX, STEP, lam01),
        hz.GridFunction.constant(T_MAX, STEP, lam02),
        hz.TwoPieceKernel(early, late, 1.0),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n=10, seed=1, t_max=0.0)


def test_cohort_is_deterministic_in_seed():
    m = _small_model()
    a = simulate_cohort(m, SimConfig(n=500, seed=3))
    b = simulate_cohort(m, SimConfig(n=500, seed=3))
    c = simulate_cohort(m, SimConfig(n=500, seed=4))
    assert a == b
    assert a != c


def test_no_initiation_hazard_means_no_treated_subjects():
    m = _small_model(lam01=0.0)
    cohort = simulate_cohort(m, SimConfig(n=20_000, seed=11))
    assert all(tr.u_init is None for tr in cohort)
    # survival is then exp(-0.6 t); check the censored fraction at t = 3
    frac_censored = np.mean([not tr.event for tr in cohort])
    p = np.exp(-0.6 * 3.0)
    se = np.sqrt(p * (1 - p) / 20_000)
    assert abs(frac_censored - p) < 3 * se


def test_no_death_hazard_means_everyone_censors():
    m = hz.IllnessDeathModel(
        hz.GridFunction.constant(T_MAX, STEP, 0.3),
        hz.GridFunction.constant(T_MAX, STEP, 0.0),
        hz.TwoPieceKernel(0.0, 0.0, 1.0),
    )
    cohort = simulate_cohort(m, SimConfig(n=5_000, seed=2))
    assert all(not tr.event for tr in cohort)
    assert all(tr.t_event == T_MAX for tr in cohort)
    # initiations still happen at rate 0.3
    frac_treated = np.mean([tr.u_init is not None for tr in cohort])
    p = 1 - np.exp(-0.3 * 3.0)
    assert abs(frac_treated - p) < 3 * np.sqrt(p * (1 - p) / 5_000)


def test_censoring_horizon_caps_event_times():
    m = _small_model()
    cohort = simulate_cohort(m, SimConfig(n=2_000, seed=8, t_max=1.5))
    assert max(tr.t_event for tr in cohort) <= 1.5
    assert any(not tr.event and tr.t_event == 1.5 for tr in cohort)


def test_treated_deaths_follow_initiation():
    m = _small_model()
    cohort = simulate_cohort(m, SimConfig(n=5_000, seed=6))
    for tr in cohort:
        if tr.u_init is not None:
            assert tr.u_init < tr.t_event


def test_to_counting_rows_splits_at_initiation():
    trajectories = [
        hz.Trajectory(0, None, 2.0, True),
        hz.Trajectory(1, 0.75, 2.5, True),
        hz.Trajectory(2, 0.0, 1.0, False),
        hz.Trajectory(3, None, 3.0, False),
    ]
    rows = to_counting_rows(trajectories)
    assert rows == [
        hz.CountingRow(0, 0.0, 2.0, 0, True),
        hz.CountingRow(1, 0.0, 0.75, 0, False),
        hz.CountingRow(1, 0.75, 2.5, 1, True),
        hz.CountingRow(2, 0.0, 1.0, 1, False),
        hz.CountingRow(3, 0.0, 3.0, 0, False),
    ]


def test_frailty_draws_are_recorded():
    m = _small_model()
    cfg = SimConfig(n=200, seed=13, frailty=hz.GammaFrailty(variance=1.0))
    cohort = simulate_cohort(m, cfg)
    zs = np.array([tr.frailty for tr in cohort])
    assert np.all(zs > 0)
    assert np.unique(zs).size > 100


def _record_rows(trajectories):
    """Row expansion one record at a time: the reference for to_counting_rows."""
    rows = []
    for tr in trajectories:
        if tr.u_init is None:
            rows.append(hz.CountingRow(tr.id, 0.0, tr.t_event, 0, tr.event))
        elif tr.u_init <= 1e-12:
            rows.append(hz.CountingRow(tr.id, 0.0, tr.t_event, 1, tr.event))
        else:
            rows.append(hz.CountingRow(tr.id, 0.0, tr.u_init, 0, False))
            rows.append(hz.CountingRow(tr.id, tr.u_init, tr.t_event, 1, tr.event))
    return rows


@pytest.mark.parametrize("frailty", [None, hz.GammaFrailty(variance=1.0)])
def test_cohort_and_rows_read_as_validated_records(frailty):
    cohort = simulate_cohort(_small_model(), SimConfig(n=400, seed=5, frailty=frailty))
    assert isinstance(cohort, hz.Cohort)
    # the same records built field by field, each validated on its own
    records = [
        hz.Trajectory(i, None if np.isnan(u) else u, t, e, None if np.isnan(z) else z)
        for i, u, t, e, z in zip(*(col.tolist() for col in cohort.columns.values()))
    ]
    assert len(cohort) == 400
    assert cohort[0] == records[0] and cohort[-1] == records[-1]
    assert list(cohort) == records and cohort == records
    assert any(tr.u_init is None for tr in cohort) and any(tr.u_init is not None for tr in cohort)
    assert all((tr.frailty is None) == (frailty is None) for tr in cohort)

    rows = to_counting_rows(cohort)
    assert isinstance(rows, hz.CountingTable)
    want = _record_rows(records)
    assert len(rows) == len(want)
    assert rows[0] == want[0] and rows[-1] == want[-1]
    assert list(rows) == want and rows == want
    # a list of records goes through the same expansion
    assert to_counting_rows(records) == rows


class TestAgainstEngine:
    """Monte Carlo cross-checks of the analytic occupation and rate code."""

    def test_occupation_probability(self, model, cohort_1m):
        trajectories, _ = cohort_1m
        n = len(trajectories)
        u = np.array([np.nan if t.u_init is None else t.u_init for t in trajectories])
        t_event = np.array([t.t_event for t in trajectories])
        for t in (0.5, 1.5, 2.5):
            in_state1 = np.mean((~np.isnan(u)) & (u <= t) & (t_event > t))
            want = occupation(model, t).p01
            se = np.sqrt(want * (1 - want) / n)
            assert abs(in_state1 - want) < 3 * se, (
                f"occupation at t={t}: simulated {in_state1:.5f}, "
                f"analytic {want:.5f}, se {se:.2e}"
            )

    def test_treated_rate(self, model, cohort_1m):
        # empirical hazard among the currently treated over a centered
        # window, compared to the analytic survivor-averaged rate
        _, rows = cohort_1m
        cols = rows_as_arrays(rows)
        sel = cols["treat"] == 1
        starts = np.sort(cols["start"][sel])
        stops = np.sort(cols["stop"][sel])
        ev_times = np.sort(cols["stop"][sel & cols["event"]])
        r12 = rate_treated(model)
        bandwidth = 0.1
        for t in (0.5, 1.5, 2.5):
            lo, hi = t - bandwidth / 2, t + bandwidth / 2
            window = ev_times[(ev_times > lo) & (ev_times <= hi)]
            at_risk = np.searchsorted(starts, window, side="left") - np.searchsorted(
                stops, window, side="left"
            )
            na_inc = np.sum(1.0 / at_risk)
            var_inc = np.sum(1.0 / at_risk.astype(float) ** 2)
            est = na_inc / bandwidth
            se = np.sqrt(var_inc) / bandwidth
            want = r12(t)
            assert abs(est - want) < 3 * se, (
                f"treated rate at t={t}: simulated {est:.4f}, "
                f"analytic {want:.4f}, se {se:.2e}"
            )


def test_frailty_cohort_degenerate_matches_exponential():
    # constant hazard 0.3 at both levels, unit point-mass frailty:
    # survival is exp(-0.3 t) regardless of the exposure path
    spec = hz.ConditionalHazardSpec.from_callable(lambda t, a: 0.3, T_MAX, STEP)
    expo = hz.GridFunction.constant(T_MAX, STEP, 0.3)
    cohort = sample_frailty_cohort(
        spec, hz.DegenerateFrailty(1.0), expo, SimConfig(n=50_000, seed=17)
    )
    assert all(tr.frailty == 1.0 for tr in cohort)
    surv = np.mean([not tr.event for tr in cohort])
    p = np.exp(-0.3 * T_MAX)
    assert abs(surv - p) < 3 * np.sqrt(p * (1 - p) / 50_000)


def test_frailty_cohort_exposure_grid_mismatch():
    spec = hz.ConditionalHazardSpec.from_callable(lambda t, a: 0.3, T_MAX, STEP)
    expo = hz.GridFunction.constant(T_MAX, 0.01, 0.3)
    with pytest.raises(ValueError):
        sample_frailty_cohort(spec, hz.DegenerateFrailty(1.0), expo, SimConfig(n=10, seed=1))
