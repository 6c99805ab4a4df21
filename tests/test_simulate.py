import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import STEP, T_MAX, traced_peak

import hazrates as hz
from hazrates.grid import cumulative
from hazrates.model import _CHUNK, CountingTable
from hazrates.numerics import first_crossing
from hazrates.rates import _initiation_density, kernel_quadrature, rate_treated
from hazrates.simulate import (
    _TIME_EPS,
    SimConfig,
    _assemble,
    _exit_times,
    _treat_probability,
    sample_frailty_cohort,
    simulate_cohort,
    to_counting_rows,
)


def _small_model(lam01=0.3, lam02=0.6, early=0.4, late=0.2, t_max=T_MAX):
    return hz.IllnessDeathModel(
        hz.GridFunction.constant(t_max, STEP, lam01),
        hz.GridFunction.constant(t_max, STEP, lam02),
        hz.TwoPieceKernel(early, late, 1.0),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0, seed=1)


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
    m = _small_model(t_max=1.5)
    cohort = simulate_cohort(m, SimConfig(n=2_000, seed=8))
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
    assert list(rows) == [
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


def _field_records(cohort):
    """The cohort's records built field by field, each validated on its own."""
    return [
        hz.Trajectory(i, None if np.isnan(u) else u, t, e, None if np.isnan(z) else z)
        for i, u, t, e, z in zip(*(col.tolist() for col in cohort.columns.values()))
    ]


@pytest.mark.parametrize("frailty", [None, hz.GammaFrailty(variance=1.0)])
def test_cohort_and_rows_read_as_validated_records(frailty):
    cohort = simulate_cohort(_small_model(), SimConfig(n=400, seed=5, frailty=frailty))
    assert isinstance(cohort, hz.Cohort)
    records = _field_records(cohort)
    assert len(cohort) == 400
    assert list(cohort) == records
    assert any(tr.u_init is None for tr in cohort) and any(tr.u_init is not None for tr in cohort)
    assert all((tr.frailty is None) == (frailty is None) for tr in cohort)

    rows = to_counting_rows(cohort)
    assert isinstance(rows, hz.CountingTable)
    want = _record_rows(records)
    assert len(rows) == len(want)
    assert list(rows) == want
    # a list of records goes through the same expansion
    assert to_counting_rows(records) == rows


def test_records_match_across_chunk_boundaries():
    # records are made one chunk of columns at a time, NaN -> None included;
    # each pass makes them afresh and must agree on both sides of a boundary
    frailty = hz.GammaFrailty(variance=1.0)
    cohort = simulate_cohort(_small_model(), SimConfig(n=2 * _CHUNK + 1, seed=8, frailty=frailty))
    records = _field_records(cohort)
    rows = to_counting_rows(cohort)
    for table, want in [(cohort, records), (rows, _record_rows(records))]:
        assert len(table) == len(want) > 2 * _CHUNK
        for _ in range(2):
            assert list(table) == want


def test_iteration_keeps_no_records():
    cohort = simulate_cohort(_small_model(), SimConfig(n=100_000, seed=9))
    tracemalloc.start()
    try:
        events = sum(tr.event for tr in cohort)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events == int(cohort.event.sum())
    # a pass holds about one chunk of records; all 1e5 of them take about 18 MB
    assert peak < 4e6, f"one pass peaked at {peak / 1e6:.1f} MB"
    assert kept < 1e5, f"{kept / 1e6:.1f} MB still allocated after the pass"


class TestAgainstEngine:
    """Monte Carlo cross-checks of the analytic occupation and rate code."""

    def test_occupation_probability(self, model, cohort_1m):
        trajectories, _ = cohort_1m
        n = len(trajectories)
        u = trajectories.u_init  # NaN where never treated
        t_event = trajectories.t_event
        _, a = _initiation_density(model)
        p01 = kernel_quadrature(model.lambda12, model.lambda01).occupation(a)
        for t in (0.5, 1.5, 2.5):
            in_state1 = np.mean((~np.isnan(u)) & (u <= t) & (t_event > t))
            want = p01[model.lambda01.node_index(t)]
            se = np.sqrt(want * (1 - want) / n)
            assert abs(in_state1 - want) < 3 * se, (
                f"occupation at t={t}: simulated {in_state1:.5f}, "
                f"analytic {want:.5f}, se {se:.2e}"
            )

    def test_treated_rate(self, model, cohort_1m):
        # empirical hazard among the currently treated over a centered
        # window, compared to the analytic survivor-averaged rate
        _, rows = cohort_1m
        cols = CountingTable.coerce(rows).columns
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
    expo = hz.GridFunction.constant(T_MAX, STEP, 0.3)
    spec = hz.ConditionalHazardSpec(h0=expo, h1=expo)
    cohort = sample_frailty_cohort(
        spec, hz.DegenerateFrailty(1.0), expo, SimConfig(n=50_000, seed=17)
    )
    assert all(tr.frailty == 1.0 for tr in cohort)
    surv = np.mean([not tr.event for tr in cohort])
    p = np.exp(-0.3 * T_MAX)
    assert abs(surv - p) < 3 * np.sqrt(p * (1 - p) / 50_000)


def test_frailty_cohort_exposure_grid_mismatch():
    h = hz.GridFunction.constant(T_MAX, STEP, 0.3)
    spec = hz.ConditionalHazardSpec(h0=h, h1=h)
    expo = hz.GridFunction.constant(T_MAX, 0.01, 0.3)
    with pytest.raises(ValueError):
        sample_frailty_cohort(spec, hz.DegenerateFrailty(1.0), expo, SimConfig(n=10, seed=1))


def test_frailty_cohort_is_the_markov_kernel_model_with_frailty():
    fr = hz.GammaFrailty(variance=1.0)
    for t_max, seed in ((T_MAX, 3), (1.5, 4)):
        spec = hz.ConditionalHazardSpec(
            h0=hz.GridFunction.constant(t_max, STEP, 0.3),
            h1=hz.GridFunction.constant(t_max, STEP, 0.5),
        )
        expo = hz.GridFunction.constant(t_max, STEP, 0.3)
        model = hz.IllnessDeathModel(expo, spec.h0, hz.MarkovKernel(spec.h1))
        cfg = SimConfig(n=5_000, seed=seed)
        cohort = sample_frailty_cohort(spec, fr, expo, cfg)
        assert cohort == simulate_cohort(model, replace(cfg, frailty=fr))


def test_unit_point_mass_frailty_matches_no_frailty(model):
    # z = 1 gives the same exit cumulative as no frailty, so the exit
    # search must land on the same node and interpolate the same way
    plain = simulate_cohort(model, SimConfig(n=100_000, seed=9))
    unit = simulate_cohort(
        model, SimConfig(n=100_000, seed=9, frailty=hz.DegenerateFrailty(1.0))
    )
    for name in ("id", "u_init", "t_event", "event"):
        assert np.array_equal(getattr(unit, name), getattr(plain, name), equal_nan=True), name
    assert np.all(unit.frailty == 1.0) and np.all(np.isnan(plain.frailty))


def _exit_cells(model, e0, z=None):
    """Exit times and cells as ``simulate_cohort`` finds them."""
    return _exit_times(
        model.step, e0, z, cumulative(model.lambda01).values, cumulative(model.lambda02).values
    )


def _assert_cell_reads_equal_calls(model, t, cell):
    exits = ~np.isnan(t)  # no exit leaves t NaN, which reads NaN in any cell
    for f in (model.lambda01, model.lambda02):
        assert np.array_equal(f.in_cell(cell[exits], t[exits]), f(t[exits]))


@pytest.mark.parametrize("frailty", [None, hz.GammaFrailty(variance=1.0)])
def test_hazards_read_in_the_exit_cell_equal_the_grid_functions(model, frailty):
    rng = np.random.default_rng(4)
    n = 200_000
    z = None if frailty is None else frailty.sample(rng, n)
    t, cell = _exit_cells(model, rng.exponential(size=n), z)
    assert np.any(np.isnan(t)) and np.any(np.isfinite(t))
    _assert_cell_reads_equal_calls(model, t, cell)


def test_hazards_read_in_the_exit_cell_at_planted_edges(model):
    exit_cum = cumulative(model.lambda01).values + cumulative(model.lambda02).values
    # every node value: a crossing with weight 1 at the far edge of its
    # cell, which lands on the node, or one ulp either side of it; node
    # 0 (t = 0), the last node (t = t_max), and past it (no exit)
    e0 = np.concatenate([exit_cum, [0.0, exit_cum[-1], 2.0 * exit_cum[-1]]])
    t, cell = _exit_cells(model, e0)
    raw_cell = first_crossing(lambda node, rows: exit_cum[node], exit_cum.size, model.step, e0)[1]
    assert t[-3] == 0.0 and np.isnan(t[-1])
    assert np.any(t == model.times[-1]) and np.any(t[1:-3] == model.times[1:])
    assert np.any(cell > raw_cell)  # the far-edge case moves to the next cell
    _assert_cell_reads_equal_calls(model, t, cell)


@pytest.mark.parametrize("frailty", [None, hz.GammaFrailty(variance=1.0)])
@pytest.mark.parametrize("offset_step", [False, True])
def test_treat_probability_is_the_hazard_ratio(model, frailty, offset_step):
    # with lambda02's step 5e-10 short of lambda01's the grids match only
    # within NODE_TOL, so crossings at lambda01's nodes fall in other
    # cells of lambda02's grid, and lambda02 must be called there
    if offset_step:
        lam02 = model.lambda02
        model = replace(
            model, lambda02=hz.GridFunction(lam02.t_max, lam02.step - 5e-10, lam02.values)
        )
    exit_cum = cumulative(model.lambda01).values + cumulative(model.lambda02).values
    rng = np.random.default_rng(6)
    e0 = np.concatenate([rng.exponential(size=50_000), exit_cum])
    z = None if frailty is None else frailty.sample(rng, e0.size)
    t, cell = _exit_cells(model, e0, z)
    got = _treat_probability(model, z, cell, t)
    exits = ~np.isnan(t)  # no exit leaves t NaN, which reads NaN in any cell
    assert np.all(np.isnan(got[~exits]))
    t = t[exits]
    lam01, lam02 = model.lambda01(t), model.lambda02(t) * (1.0 if z is None else z[exits])
    total = lam01 + lam02
    want = np.where(total > 0, lam01 / np.where(total > 0, total, 1.0), 0.0)
    assert np.array_equal(got[exits], want)


@pytest.mark.parametrize("frailty", [None, hz.GammaFrailty(variance=1.0)])
def test_simulate_cohort_peak_memory(model, frailty):
    # the returned cohort holds 5 columns of n; the draws, the exit search
    # and the death inversion must not keep much more alive at once
    n = 200_000
    tracemalloc.start()
    try:
        simulate_cohort(model, SimConfig(n=n, seed=3, frailty=frailty))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * n, f"peaked at {peak / (8 * n):.1f} float arrays of length n"


def _assemble_by_scatter(t_exit, is_treat, t_death_treated, t_cens, z):
    """``_assemble``'s columns by boolean gathers and scatters: the reference."""
    n = t_exit.size
    exits = ~(np.isnan(t_exit) | (t_exit > t_cens))
    dies_untreated = exits & ~is_treat
    initiates = exits & is_treat & (t_exit < t_cens)
    dies_treated = initiates & (t_death_treated <= t_cens)
    t_event = np.full(n, float(t_cens))
    t_event[dies_untreated] = t_exit[dies_untreated]
    t_event[dies_treated] = np.maximum(
        t_death_treated[dies_treated], t_exit[dies_treated] + _TIME_EPS
    )
    u_init = t_exit.copy()
    u_init[~initiates] = np.nan
    return {
        "id": np.arange(n), "u_init": u_init, "t_event": t_event,
        "event": dies_untreated | dies_treated,
        "frailty": np.full(n, np.nan) if z is None else z,
    }


@pytest.mark.parametrize("frailty", [False, True])
def test_assemble_equals_the_boolean_scatter_form(frailty):
    # planted (t_exit, treated, t_death): no exit, an exit after the
    # horizon, treated and untreated exits at it, treated deaths at the
    # initiation instant (floored to u + _TIME_EPS, at u = 0 too), after
    # the horizon and never; then 1e4 random subjects
    planted = [
        (np.nan, False, np.inf), (np.nan, True, np.inf), (3.5, True, np.inf),
        (3.5, False, np.inf), (3.0, True, 3.2), (3.0, False, np.inf),
        (1.0, True, 1.0), (0.0, True, 0.0), (1.0, True, 2.5), (1.0, True, 3.4),
        (1.0, True, np.inf), (2.0, False, np.inf),
    ]
    rng = np.random.default_rng(10)
    n = 10_000
    t_exit = rng.exponential(2.0, size=n)
    t_exit[::7] = np.nan
    t_death = t_exit + rng.exponential(1.0, size=n)
    t_death[::5] = t_exit[::5]
    t_death[::11] = np.inf
    t_exit = np.concatenate([[p[0] for p in planted], t_exit])
    is_treat = np.concatenate([[p[1] for p in planted], rng.uniform(size=n) < 0.5])
    t_death = np.concatenate([[p[2] for p in planted], t_death])
    z = rng.gamma(1.0, size=t_exit.size) if frailty else None
    want = _assemble_by_scatter(t_exit, is_treat, t_death, 3.0, z)
    got = _assemble(t_exit.copy(), is_treat, t_death.copy(), 3.0, z)
    for name, col in want.items():
        assert got.columns[name].tobytes() == col.tobytes(), name
    assert got.t_event[6] == 1.0 + _TIME_EPS and got.t_event[7] == _TIME_EPS


def test_frailty_workload_cohort_golden():
    # sha256 of the columns of the frailty workload's Markov-kernel cohort
    # at its benchmark size: 5e5 subjects, h0 0.3, h1 0.5, exposure 0.3,
    # gamma variance 1, step 0.005
    h0 = hz.GridFunction.constant(T_MAX, STEP, 0.3)
    spec = hz.ConditionalHazardSpec(h0=h0, h1=hz.GridFunction.constant(T_MAX, STEP, 0.5))
    cohort = sample_frailty_cohort(
        spec, hz.GammaFrailty(variance=1.0), h0, SimConfig(n=500_000, seed=3)
    )
    assert _columns_sha256(cohort) == GOLDEN_FRAILTY_WORKLOAD_COHORT_SHA256


def test_gamma_workload_cohort_golden(model):
    # sha256 of the columns of the frailty workload's gamma cohort of the
    # default model at its benchmark size, 2e5 subjects
    cohort = simulate_cohort(
        model, SimConfig(n=200_000, seed=4, frailty=hz.GammaFrailty(variance=1.0))
    )
    assert _columns_sha256(cohort) == GOLDEN_GAMMA_WORKLOAD_COHORT_SHA256


def _tabulated_kernel_model():
    """The GridKernel model of test_grid_kernel_cohort_golden."""
    times = np.arange(hz.GridFunction.constant(T_MAX, STEP, 0.0).n_nodes) * STEP
    table = hz.TwoPieceKernel(0.4, 0.2, 1.0).value_grid(times) * (1 + 0.5 * np.sin(times)[:, None])
    return hz.IllnessDeathModel(
        hz.GridFunction.constant(T_MAX, STEP, 0.3),
        hz.GridFunction.constant(T_MAX, STEP, 0.6),
        hz.GridKernel(T_MAX, STEP, table),
    )


@pytest.mark.parametrize("case", ["no frailty", "gamma frailty", "grid kernel"])
def test_simulate_cohort_holds_few_arrays_at_once(model, case):
    # the cohort keeps about 4 floats per subject; with the exit search
    # run in blocks, each draw made as it is used and the columns adopted
    # without a copy, the peak stays within 10 (14 when all were held)
    n = 200_000
    frailty = hz.GammaFrailty(variance=1.0) if case == "gamma frailty" else None
    if case == "grid kernel":
        model = _tabulated_kernel_model()
    _, peak = traced_peak(lambda: simulate_cohort(model, SimConfig(n=n, seed=3, frailty=frailty)))
    assert peak < 10 * 8 * n, f"peaked at {peak / (8 * n):.1f} float arrays of length n"


def test_gamma_frailty_cohort_golden():
    # sha256 of the columns of a small gamma-frailty cohort: the golden
    # of the frailty exit-time path.  A change that moves these bits on
    # purpose regenerates it and explains the difference.
    cohort = simulate_cohort(
        _small_model(), SimConfig(n=2_000, seed=5, frailty=hz.GammaFrailty(variance=1.0))
    )
    digest = hashlib.sha256()
    for col in cohort.columns.values():
        digest.update(col.tobytes())
    assert digest.hexdigest() == GOLDEN_GAMMA_COHORT_SHA256


def test_frailty_cohort_with_time_varying_h1_golden():
    # the golden of the Markov-kernel inversion after initiation, with
    # the gamma bisection before it
    h0 = hz.GridFunction.constant(T_MAX, STEP, 0.4)
    spec = hz.ConditionalHazardSpec(h0=h0, h1=h0.with_values(0.2 + 0.3 * h0.times))
    expo = hz.GridFunction.constant(T_MAX, STEP, 0.5)
    cohort = sample_frailty_cohort(
        spec, hz.GammaFrailty(variance=0.8), expo, SimConfig(n=2_000, seed=12)
    )
    assert _columns_sha256(cohort) == GOLDEN_MARKOV_KERNEL_COHORT_SHA256


def test_grid_kernel_cohort_golden():
    # the golden of the GridKernel inversion at off-node initiation times
    times = np.arange(hz.GridFunction.constant(T_MAX, STEP, 0.0).n_nodes) * STEP
    table = hz.TwoPieceKernel(0.4, 0.2, 1.0).value_grid(times) * (1 + 0.5 * np.sin(times)[:, None])
    model = hz.IllnessDeathModel(
        hz.GridFunction.constant(T_MAX, STEP, 0.3),
        hz.GridFunction.constant(T_MAX, STEP, 0.6),
        hz.GridKernel(T_MAX, STEP, table),
    )
    cohort = simulate_cohort(model, SimConfig(n=2_000, seed=7))
    assert _columns_sha256(cohort) == GOLDEN_GRID_KERNEL_COHORT_SHA256


def _columns_sha256(cohort) -> str:
    digest = hashlib.sha256()
    for col in cohort.columns.values():
        digest.update(col.tobytes())
    return digest.hexdigest()


GOLDEN_GAMMA_COHORT_SHA256 = "ecea83d859e78f4fc04027aebb66f140f4fcd03c2f774701301fb7da1143d144"
GOLDEN_MARKOV_KERNEL_COHORT_SHA256 = "f14750e5af76d25ee8df2f85bad5f68539639634857de08e136c6dc7badd815f"
GOLDEN_GRID_KERNEL_COHORT_SHA256 = "10a1c244ec89d475f235536f64a4e899716cf00512c20544689ca27c7a9ad599"
GOLDEN_FRAILTY_WORKLOAD_COHORT_SHA256 = "7a4a7b599c3b215fd0530bbc60b2e00212efb3f2297a3261ed2a8eb8534c2aa1"
GOLDEN_GAMMA_WORKLOAD_COHORT_SHA256 = "94a42df7d232a5b6be804f3670968716a11a7bbc42dfcc8761b047a709d67296"
