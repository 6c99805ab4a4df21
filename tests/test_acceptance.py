"""Acceptance gate: ten end-to-end criteria, one test and one printed line each.

Every numeric target below was computed from an independent implementation
of the same quantity before the library code existed, is a fixed design
constant of the standard construction, or follows from a closed form.  Two
targets rest on closed forms stated where they are checked:

- criterion 3: with the rate ratio flat at 2/3 and the never-treat curve
  equal to the rate-based untreated curve, the rate-based contrast at t=3
  is x**(2/3) - x with x = S_never(3), about 0.146;
- criterion 5: for unit-variance gamma frailty the survivor-mean frailty is
  1/(1 + H), so the history-dependence gap is h1 * |1/(1 + H1) - 1/(1 + H2)|
  = 0.5 * |1/2 - 1/1.7| = 3/68.
"""

import time

import numpy as np

from conftest import BETA, EARLY, LAG, LAM01, LATE, STEP, T_MAX

import hazrates as hz
from hazrates.contrast import (
    Regime,
    causal_hazard_ratio,
    duration_model_ratio,
    potential_survival,
    rate_based_survival,
)
from hazrates.estimators import (
    aalen_additive,
    cox_fit,
    cox_loglik_parts,
    extended_km,
    nelson_aalen_by_treatment,
)
from hazrates.frailty import (
    ColliderScenario,
    ConditionalHazardSpec,
    DegenerateFrailty,
    GammaFrailty,
    TreatmentPath,
    collider_table,
    invert_rate_to_h,
    marginal_hazard,
    markov_violation_gap,
)
from hazrates.grid import cumulative
from hazrates.model import CountingRow
from hazrates.rates import ode_residual, rate_treated, rate_untreated


def _verdict(num: int, failures: list) -> None:
    if failures:
        print(f"criterion {num}: FAIL ({'; '.join(failures)})")
        raise AssertionError(f"criterion {num}: " + "; ".join(failures))
    print(f"criterion {num}: PASS")


def _grid(lo: float, hi: float, step: float = STEP) -> np.ndarray:
    return np.round(np.arange(lo, hi + step / 2, step), 10)


def test_criterion_01_fixed_point_construction():
    """Proportional-rates build: flat ratio, monotone convergence, < 10 s."""
    failures = []
    tic = time.perf_counter()
    lam01 = hz.GridFunction.constant(T_MAX, STEP, LAM01)
    kernel = hz.TwoPieceKernel(early=EARLY, late=LATE, lag=LAG)
    report = hz.build(lam01, kernel, BETA)
    model = hz.IllnessDeathModel(lambda01=lam01, lambda02=report.lambda02, lambda12=kernel)
    sup = float(np.max(np.abs(hz.rate_ratio(model).values - 2.0 / 3.0)))
    elapsed = time.perf_counter() - tic

    if not report.converged:
        failures.append("builder did not converge")
    sweeps = len(report.iterations) - 1
    if sweeps > 5:
        failures.append(f"needed {sweeps} update sweeps, required <= 5")
    if not np.all(np.diff(report.deviations) < 0):
        failures.append("sup deviations are not strictly decreasing")
    if sup >= 1e-3:
        failures.append(f"sup |rate ratio - 2/3| = {sup:.3e}, required < 1e-3")
    if elapsed >= 10.0:
        failures.append(f"build took {elapsed:.1f} s, required < 10 s")
    _verdict(1, failures)


def test_criterion_02_flat_segment_before_the_lag(standard_build):
    """lambda02 equals 0.6 on [0, 1] within 1e-4."""
    _, _, report = standard_build
    lam02 = report.lambda02
    unit = lam02.values[: lam02.node_index(1.0) + 1]
    err = float(np.max(np.abs(unit - 0.6)))
    failures = []
    if err > 1e-4:
        failures.append(f"max |lambda02 - 0.6| on [0, 1] is {err:.2e}, required <= 1e-4")
    _verdict(2, failures)


def test_criterion_03_contrast_curves(model):
    """Interventional vs rate-based contrasts and the causal hazard ratio."""
    failures = []
    s_alw = potential_survival(model, Regime.always())
    s_nev = potential_survival(model, Regime.never())
    true_c = float(s_alw(T_MAX) - s_nev(T_MAX))
    if abs(true_c - 0.22) > 0.005:
        failures.append(f"true contrast at t=3 is {true_c:.6f}, outside 0.22 +/- 0.005")

    s1_rate = rate_based_survival(rate_treated(model))
    s0_rate = rate_based_survival(rate_untreated(model))
    rate_c = float(s1_rate(T_MAX) - s0_rate(T_MAX))
    if abs(rate_c - 0.146) > 0.005:
        failures.append(
            f"rate-based contrast at t=3 is {rate_c:.6f}, outside 0.146 +/- 0.005, "
            "the value of x**(2/3) - x at x = S_never(3) = exp(-0.8) - 0.217"
        )
    # Rate ratio 2/3 and S_never = S0_rate give S1_rate = S_never**(2/3).
    x = float(s_nev(T_MAX))
    closed = x ** (2.0 / 3.0) - x
    if abs(rate_c - closed) > 1e-6:
        failures.append(
            f"rate-based contrast at t=3 is {rate_c:.8f}, but x**(2/3) - x with "
            f"x = S_never(3) = {x:.8f} gives {closed:.8f}; required within 1e-6"
        )

    chr_curve = causal_hazard_ratio(model)
    early_part = chr_curve.values[: chr_curve.node_index(1.0) + 1]
    if float(np.max(np.abs(early_part - 2.0 / 3.0))) > 1e-3:
        failures.append("causal hazard ratio is not 2/3 within 1e-3 on [0, 1]")
    late_part = chr_curve.values[chr_curve.node_index(1.05) :]
    if not np.all(late_part < 2.0 / 3.0 - 1e-3):
        failures.append("causal hazard ratio does not stay below 2/3 - 1e-3 on [1.05, 3]")

    gap = float(np.max(np.abs(s_nev.values - s0_rate.values)))
    if gap > 1e-9:
        failures.append(f"never-treat curve differs from rate-based untreated by {gap:.2e}")
    _verdict(3, failures)


def test_criterion_04_cohort_recovery(model):
    """n=1e5 fixed-seed cohort: NA curves, EKM log-ratio, Cox fit, < 60 s."""
    failures = []
    tic = time.perf_counter()
    trajectories = hz.simulate_cohort(model, hz.SimConfig(n=100_000, seed=9))
    rows = hz.to_counting_rows(trajectories)

    na = nelson_aalen_by_treatment(rows)
    truth = {0: cumulative(rate_untreated(model)), 1: cumulative(rate_treated(model))}
    ts = _grid(0.0, 2.5)
    for level in (0, 1):
        dev = float(np.max(np.abs(na[level](ts) - truth[level](ts))))
        if dev >= 0.02:
            failures.append(
                f"sup |NA - cumulative rate| for level {level} is {dev:.4f} on [0, 2.5], required < 0.02"
            )

    km = extended_km(rows)
    ts_mid = _grid(0.5, 2.5)
    ratio = np.log(km[1](ts_mid)) / np.log(km[0](ts_mid))
    worst = float(np.max(np.abs(ratio - 2.0 / 3.0)))
    if worst > 0.05:
        failures.append(f"EKM log-survival ratio strays {worst:.4f} from 2/3 on [0.5, 2.5]")

    fit = cox_fit(rows)
    if abs(fit.beta_hat - BETA) > 0.03:
        failures.append(f"beta_hat = {fit.beta_hat:.4f}, outside log(2/3) +/- 0.03")
    if not (np.isfinite(fit.robust_se) and fit.robust_se > 0):
        failures.append("robust SE is not a positive finite number")

    elapsed = time.perf_counter() - tic
    if elapsed >= 60.0:
        failures.append(f"cohort check took {elapsed:.1f} s, required < 60 s")
    _verdict(4, failures)


def _window_hazard_estimate(trajectories, t: float, b: float):
    """Nelson-Aalen increment over (t - b/2, t + b/2] divided by b, with its SE."""
    times = trajectories.t_event
    events = trajectories.event
    order = np.argsort(times, kind="stable")
    st, ev = times[order], events[order]
    at_risk = len(st) - np.arange(len(st))
    in_win = (st > t - b / 2) & (st <= t + b / 2) & ev
    est = float(np.sum(1.0 / at_risk[in_win])) / b
    se = float(np.sqrt(np.sum(1.0 / at_risk[in_win] ** 2))) / b
    return est, se


def test_criterion_05_frailty_marginalization():
    """Closed-form marginal hazards vs simulation; history-dependence gap."""
    failures = []
    fr = GammaFrailty(variance=1.0)
    h0 = hz.GridFunction.constant(T_MAX, STEP, 0.3)
    h1 = hz.GridFunction.constant(T_MAX, STEP, 0.5)
    spec = ConditionalHazardSpec(h0=h0, h1=h1)
    no_exposure = hz.GridFunction.constant(T_MAX, STEP, 0.0)
    b = 0.2

    arms = {
        "never": (spec, TreatmentPath.never(), 12),
        "always": (ConditionalHazardSpec(h0=h1, h1=h1), TreatmentPath.always(), 112),
    }
    for name, (sim_spec, path, seed) in arms.items():
        truth = marginal_hazard(spec, fr, path)
        trajectories = hz.sample_frailty_cohort(
            sim_spec, fr, no_exposure, hz.SimConfig(n=1_000_000, seed=seed)
        )
        for t in (0.5, 1.0, 2.0):
            est, se = _window_hazard_estimate(trajectories, t, b)
            if abs(est - float(truth(t))) > 3 * se:
                failures.append(
                    f"{name}-path marginal hazard at t={t}: simulated {est:.5f} "
                    f"vs closed form {float(truth(t)):.5f} differs by more than 3 SE ({3 * se:.5f})"
                )

    degenerate = DegenerateFrailty(1.0)
    for t in np.linspace(0.25, T_MAX, 12):
        for f1 in (0.0, 0.3, 0.7, 1.0):
            for f2 in (0.0, 0.5, 1.0):
                gap = markov_violation_gap(spec, degenerate, float(t), f1 * t, f2 * t)
                if gap > 1e-12:
                    failures.append(
                        f"degenerate-frailty gap {gap:.2e} at t={t:.2f} exceeds 1e-12"
                    )

    # Gap = h1 * |1/(1 + H(u1)) - 1/(1 + H(u2))| with integrated hazards
    # H(0) = 0.5 * 2 = 1.0 and H(1.5) = 0.3 * 1.5 + 0.5 * 0.5 = 0.7.
    gap = markov_violation_gap(spec, fr, t=2.0, u1=0.0, u2=1.5)
    target = 0.5 * abs(1.0 / (1.0 + 1.0) - 1.0 / (1.0 + 0.7))
    if abs(gap - target) > 1e-4:
        failures.append(
            f"gamma history-dependence gap at t=2 for initiation times 0 and 1.5 is "
            f"{gap:.6f}, not 0.5*|1/(1+1.0) - 1/(1+0.7)| = 3/68 = {target:.6f} +/- 1e-4, "
            "the closed form for unit-variance gamma frailty with hazard levels 0.3 and 0.5"
        )
    _verdict(5, failures)


def test_criterion_06_rate_inversion_round_trips(model):
    """invert_rate_to_h then marginalize recovers the target rate, 24 combos."""
    failures = []
    flat = hz.GridFunction.constant(T_MAX, STEP, 0.5)
    targets = {"flat-0.5": flat, "constructed-r12": rate_treated(model)}
    frailties = {
        "gamma-0.5": GammaFrailty(0.5),
        "gamma-1": GammaFrailty(1.0),
        "gamma-2": GammaFrailty(2.0),
        "degenerate": DegenerateFrailty(1.0),
    }
    paths = {
        "never": TreatmentPath.never(),
        "always": TreatmentPath.always(),
        "initiate-1": TreatmentPath.initiate_at(1.0),
    }
    for tname, target in targets.items():
        for fname, frailty in frailties.items():
            for pname, path in paths.items():
                h = invert_rate_to_h(target, frailty, path)
                back = marginal_hazard(ConditionalHazardSpec(h0=h, h1=h), frailty, path)
                sup = float(np.max(np.abs(back.values - target.values)))
                if sup >= 1e-4:
                    failures.append(
                        f"round trip {tname}/{fname}/{pname} misses by {sup:.2e}, required < 1e-4"
                    )
    _verdict(6, failures)


def test_criterion_07_collider_conditioning():
    """Conditioning on survival distorts iff the effect is real and Z varies."""
    failures = []

    def column_gaps(scenario):
        table = collider_table(scenario)
        return [abs(table[(1, a2)] - table[(0, a2)]) for a2 in (0, 1)]

    mixed = ColliderScenario(
        z_levels=(0.5, 1.5), z_probs=(0.5, 0.5), p1=0.2, effect=0.5
    )
    if not all(g > 1e-6 for g in column_gaps(mixed)):
        failures.append("protective effect with mixed Z should shift the conditional risk")

    null = ColliderScenario(z_levels=(0.5, 1.5), z_probs=(0.5, 0.5), p1=0.2, effect=1.0)
    if not all(g <= 1e-15 for g in column_gaps(null)):
        failures.append("null effect must leave the conditional risk exactly equal")

    single = ColliderScenario(z_levels=(1.0,), z_probs=(1.0,), p1=0.2, effect=0.5)
    if not all(g <= 1e-15 for g in column_gaps(single)):
        failures.append("degenerate Z must leave the conditional risk exactly equal")
    _verdict(7, failures)


def test_criterion_08_additive_identity(model, rows_100k):
    """Aalen additive fit reproduces both NA curves to 1e-12 on every dataset."""
    failures = []
    hand = [
        CountingRow(0, 0.0, 1.0, 0, True),
        CountingRow(1, 0.0, 2.0, 0, False),
        CountingRow(2, 0.0, 0.5, 0, False),
        CountingRow(2, 0.5, 1.5, 1, True),
        CountingRow(3, 0.0, 1.2, 0, False),
        CountingRow(3, 1.2, 3.0, 1, False),
    ]
    datasets = {"hand": hand, "n=100000 seed 9": rows_100k}
    for seed in (21, 22):
        trajectories = hz.simulate_cohort(model, hz.SimConfig(n=4000, seed=seed))
        datasets[f"n=4000 seed {seed}"] = hz.to_counting_rows(trajectories)

    for name, rows in datasets.items():
        fit = aalen_additive(rows)
        na = nelson_aalen_by_treatment(rows)
        ts = fit.b0.jump_times
        d0 = float(np.max(np.abs(fit.b0(ts) - na[0](ts)))) if ts.size else 0.0
        d1 = float(np.max(np.abs(fit.b0(ts) + fit.b1(ts) - na[1](ts)))) if ts.size else 0.0
        if max(d0, d1) > 1e-12:
            failures.append(
                f"dataset {name}: additive fit deviates from NA by {max(d0, d1):.2e}"
            )
    _verdict(8, failures)


def test_criterion_09_duration_ratio_limits():
    """Duration-response rate ratio: exact at gamma=0, closed form at gamma=1."""
    failures = []
    lam0 = hz.GridFunction.constant(T_MAX, STEP, 0.6)
    flat = duration_model_ratio(lam0, beta=BETA, gamma=0.0, t=2.0)
    if flat != float(np.exp(BETA)):
        failures.append(f"gamma=0 ratio is {flat!r}, expected exactly exp(beta)")

    fine = hz.GridFunction.constant(3.0, 0.001, 1.0)
    grown = duration_model_ratio(fine, beta=0.0, gamma=1.0, t=1.0)
    if abs(grown - (np.e - 1.0)) > 1e-6:
        failures.append(f"gamma=1 flat-baseline ratio is {grown:.8f}, expected e - 1 within 1e-6")
    _verdict(9, failures)


def test_criterion_10_score_and_residual(model):
    """Cox score matches central differences; constructed model solves its ODE."""
    failures = []
    trajectories = hz.simulate_cohort(model, hz.SimConfig(n=2000, seed=5))
    rows = hz.to_counting_rows(trajectories)
    fit = cox_fit(rows)
    h = 1e-5
    for off in (-0.1, -0.05, 0.025, 0.05, 0.1):
        beta = fit.beta_hat + off
        lp, _, _ = cox_loglik_parts(rows, beta + h)
        lm, _, _ = cox_loglik_parts(rows, beta - h)
        _, score, _ = cox_loglik_parts(rows, beta)
        rel = abs((lp - lm) / (2 * h) - score) / abs(score)
        if rel >= 1e-5:
            failures.append(f"score at offset {off:+.3f} differs from FD by {rel:.2e} relative")

    residual = ode_residual(model, BETA)
    sup = float(np.max(np.abs(residual.values)))
    if sup >= 1e-3:
        failures.append(f"ODE residual sup is {sup:.2e}, required < 1e-3")
    _verdict(10, failures)
