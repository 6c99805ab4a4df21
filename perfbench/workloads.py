"""The four benchmark workloads.

Each workload is a closed loop with one caller: it issues an op, waits
for it, checks its outputs and only then issues the next one.  A
workload object is built by its constructor (the set-up: the standard
build, the inputs made from the seed and the reference values), then
``op()`` makes the timed calls into hazrates and ``check(out)`` returns
the list of checks that one op's outputs failed.  Every op of a run
gets the same inputs, so per-op counts repeat exactly for a seed.

Reference values are the model's actual values: the contrasts at t=3
and log(2/3) for the Cox fit, the closed-form frailty gap, and survival
built from the frailty Laplace transform; never the target constants
that acceptance criteria 3 and 5 assert.  ``expected`` holds the ones
a test may overwrite to show that a wrong value fails the op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hazrates import cli, construct, contrast, frailty, kernels, model, rates, simulate
from hazrates.grid import GridFunction, cumulative, n_intervals

# The CLI's default configuration is the model every check refers to.
CFG = cli.ExperimentConfig()

# Simulated quantities must lie within this many standard errors of
# their model values.
N_SE = 4.0
# Always-treat minus never-treat and rate-based survival contrasts at
# t=3 for the default model; between steps 0.03 and 0.001 they stay
# within 6e-4 of these values.
TRUE_CONTRAST = 0.2168
RATE_CONTRAST = 0.1456
CONTRAST_TOL = 1e-3
ESTIMATE_METHODS = ("na", "ekm", "cox", "cox-duration", "aalen")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    step: float = CFG.step
    n_reproduce: int = 100_000
    n_rows: int = 100_000
    ladder: tuple[float, ...] = (0.004, 0.002, 0.001)
    n_grid_kernel: int = 10_000
    n_frailty: int = 500_000
    n_gamma: int = 200_000


FULL = Sizes()
TINY = Sizes(
    step=0.02,
    n_reproduce=2_000,
    n_rows=2_000,
    ladder=(0.03, 0.025, 0.02),
    n_grid_kernel=2_000,
    n_frailty=2_000,
    n_gamma=2_000,
)


def default_kernel() -> kernels.TwoPieceKernel:
    return kernels.TwoPieceKernel(early=CFG.early, late=CFG.late, lag=CFG.lag)


def standard_model(step: float) -> model.IllnessDeathModel:
    """The CLI's default proportional-rates model on a grid of ``step``."""
    lam01 = GridFunction.constant(CFG.t_max, step, CFG.lam01)
    kernel = default_kernel()
    report = construct.build(lam01, kernel, CFG.beta)
    if not report.converged:
        raise RuntimeError(f"standard build did not converge at step {step}")
    return model.IllnessDeathModel(lam01, report.lambda02, kernel)


def rate_contrast(m: model.IllnessDeathModel) -> float:
    """Treated minus untreated rate-based survival at the horizon."""
    s_treated = contrast.rate_based_survival(rates.rate_treated(m))
    s_untreated = contrast.rate_based_survival(rates.rate_untreated(m))
    return float(s_treated(m.t_max) - s_untreated(m.t_max))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``hazrates.cli.main`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _unrounded(text: str, label: str) -> float:
    """The ``(unrounded x)`` value printed on the line starting with label."""
    match = re.search(rf"^{re.escape(label)}.*\(unrounded ([^)]+)\)", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no {label!r} line in output")
    return float(match.group(1))


def _contrast_failures(where: str, true_c: float, rate_c: float, expected: dict) -> list[str]:
    fails = []
    if abs(true_c - expected["true_contrast"]) > CONTRAST_TOL:
        fails.append(f"{where}: true contrast {true_c} vs {expected['true_contrast']:.6f}")
    if abs(rate_c - expected["rate_contrast"]) > CONTRAST_TOL:
        fails.append(f"{where}: rate contrast {rate_c} vs {expected['rate_contrast']:.6f}")
    return fails


def _within_se(observed: float, expected: float, se: float) -> bool:
    return abs(observed - expected) < N_SE * se


def _binomial_failure(what: str, share: float, p: float, n: int) -> list[str]:
    se = float(np.sqrt(p * (1.0 - p) / n))
    if _within_se(share, p, se):
        return []
    return [f"{what}: simulated {share:.5f} vs model {p:.5f} (SE {se:.5f})"]


def _cohort_columns(cohort) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u_init with NaN for never treated, t_event, event) of a cohort."""
    n = len(cohort)
    u = np.fromiter((np.nan if tr.u_init is None else tr.u_init for tr in cohort), float, n)
    t_event = np.fromiter((tr.t_event for tr in cohort), float, n)
    event = np.fromiter((tr.event for tr in cohort), bool, n)
    return u, t_event, event


class Reproduce:
    """``hazrates reproduce`` at the default configuration.

    Why: this is the ROADMAP's end-to-end run.  Cohort simulation, row
    expansion and the rows CSV write take about three quarters of an op
    and the build plus rate engine under a tenth, so it isolates the
    per-subject and per-row layers (simulate, model) and shows how
    little the rate engine matters at the default step.
    """

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.out = workdir / "reproduce"
        self.argv = [
            "reproduce", "--n", str(sizes.n_reproduce), "--seed", str(seed),
            "--step", repr(sizes.step), "--out-dir", str(self.out),
        ]
        self.expected = {
            "tol": CFG.tol,
            "true_contrast": TRUE_CONTRAST,
            "rate_contrast": RATE_CONTRAST,
            "beta": CFG.beta,
        }
        self.items = sizes.n_reproduce
        self.digest: str | None = None

    def op(self):
        return run_cli(self.argv)

    def _digest(self) -> str:
        h = hashlib.sha256()
        for name in ("rows.csv", "summary.txt"):
            h.update((self.out / name).read_bytes())
        return h.hexdigest()

    def check(self, out) -> list[str]:
        rc, _ = out
        if rc != 0:
            return [f"reproduce exited {rc}"]
        text = (self.out / "summary.txt").read_text()
        values = dict(line.split(": ", 1) for line in text.splitlines())
        exp = self.expected
        fails = _contrast_failures(
            "summary", _unrounded(text, "true_contrast"),
            _unrounded(text, "rate_based_contrast"), exp,
        )
        dev = float(values["sup_rate_ratio_deviation"])
        if not dev < exp["tol"]:
            fails.append(f"rate-ratio deviation {dev} not below {exp['tol']}")
        beta, se = float(values["cox_beta_hat"]), float(values["cox_robust_se"])
        if not _within_se(beta, exp["beta"], se):
            fails.append(f"cox beta {beta} not within {N_SE} SE ({se}) of {exp['beta']:.6f}")
        digest = self._digest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            fails.append("rows.csv or summary.txt differ from the run's first op")
        return fails

    def after(self) -> list[str]:
        """Same-seed rerun outside the timed loop; output must not change."""
        rc, _ = self.op()
        if rc != 0:
            return [f"rerun exited {rc}"]
        if self.digest is not None and self._digest() != self.digest:
            return ["same-seed rerun wrote different rows.csv or summary.txt"]
        return []


class EstimateRows:
    """Five ``hazrates estimate`` calls on one rows CSV.

    Why: the read side of the CSV layer.  ``read_counting_rows`` takes
    about three quarters of an op, the estimators and the CLI's own CSV
    output the rest.  Nothing is
    simulated, so simulator changes are predicted not to move it; it is
    the write-versus-read counterpart of ``reproduce``.
    """

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.out = workdir / "estimate-rows"
        self.out.mkdir(parents=True, exist_ok=True)
        self.rows_path = self.out / "rows.csv"
        m = standard_model(sizes.step)
        cohort = simulate.simulate_cohort(m, simulate.SimConfig(n=sizes.n_rows, seed=seed))
        rows = simulate.to_counting_rows(cohort)
        model.write_counting_rows(rows, self.rows_path)
        self.expected = {"beta": CFG.beta}
        self.items = len(ESTIMATE_METHODS) * len(rows)

    def op(self):
        return {
            method: run_cli([
                "estimate", "--rows", str(self.rows_path), "--method", method,
                "--out-dir", str(self.out),
            ])
            for method in ESTIMATE_METHODS
        }

    def check(self, out) -> list[str]:
        # A Newton fit that does not converge exits 2, so exit code 0
        # from cox-duration is its convergence check.
        fails = [f"estimate {m} exited {rc}" for m, (rc, _) in out.items() if rc != 0]
        if fails:
            return fails
        lines = out["cox"][1].splitlines()
        fit = dict(zip(lines[0].split(","), lines[1].split(",")))
        beta, se = float(fit["beta_hat"]), float(fit["robust_se"])
        if not _within_se(beta, self.expected["beta"], se):
            fails.append(f"cox beta {beta} not within {N_SE} SE ({se})")
        if "aalen_na_identity: PASS" not in out["aalen"][1]:
            fails.append("aalen/Nelson-Aalen identity failed")
        for method in ("na", "ekm"):
            if not (self.out / f"estimate_{method}.csv").stat().st_size:
                fails.append(f"estimate {method} wrote an empty file")
        return fails


class FineGrid:
    """The step-halving contrast ladder and the tabulated-kernel path.

    Why: the rate engine is a dense n-by-n triangle, so halving the step
    quadruples its time and memory; this workload is where the build,
    the engine and the contrasts dominate.  Its second part tabulates
    the default kernel as a ``GridKernel``, builds on it and simulates
    1e4 subjects, which runs the per-element loops in ``kernels``.  No
    cohort-scale simulation runs, so row-layer changes should not move
    it.
    """

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.out = workdir / "fine-grid"
        self.sizes = sizes
        self.seed = seed
        self.lam01 = GridFunction.constant(CFG.t_max, sizes.step, CFG.lam01)
        self.table = default_kernel().value_grid(self.lam01.times)
        self.expected = {"true_contrast": TRUE_CONTRAST, "rate_contrast": RATE_CONTRAST}
        self.items = sum(n_intervals(CFG.t_max, x) + 1 for x in sizes.ladder)

    def op(self):
        ladder = [
            run_cli(["contrast", "--step", repr(x), "--out-dir", str(self.out)])
            for x in self.sizes.ladder
        ]
        kernel = kernels.GridKernel(CFG.t_max, self.sizes.step, self.table)
        report = construct.build(self.lam01, kernel, CFG.beta)
        tabulated = model.IllnessDeathModel(self.lam01, report.lambda02, kernel)
        cohort = simulate.simulate_cohort(
            tabulated, simulate.SimConfig(n=self.sizes.n_grid_kernel, seed=self.seed)
        )
        return ladder, report, tabulated, cohort

    def check(self, out) -> list[str]:
        ladder, report, tabulated, cohort = out
        fails = []
        for x, (rc, text) in zip(self.sizes.ladder, ladder):
            if rc != 0:
                fails.append(f"contrast --step {x} exited {rc}")
                continue
            fails += _contrast_failures(
                f"step {x}", _unrounded(text, "true contrast"),
                _unrounded(text, "rate-based contrast"), self.expected,
            )
        if not report.converged:
            fails.append("GridKernel build did not converge")
        else:
            got = rate_contrast(tabulated)
            if abs(got - self.expected["rate_contrast"]) > CONTRAST_TOL:
                fails.append(f"GridKernel rate contrast {got} vs {self.expected['rate_contrast']:.6f}")
        if len(cohort) != self.sizes.n_grid_kernel:
            fails.append(f"GridKernel cohort has {len(cohort)} subjects")
        return fails


class Frailty:
    """Frailty cohort, gamma-frailty simulation and the closed forms.

    Why: without it the ``frailty`` module and the simulator's frailty
    path go unmeasured.  ``sample_frailty_cohort`` runs with exposure
    on, so both death branches run; ``simulate_cohort`` with gamma
    frailty takes the chunked O(n*G) exit-time scan that no other
    workload reaches; the closed forms are the gap and the rate-to-
    hazard round trips of the acceptance criteria.
    """

    PATHS = (
        frailty.TreatmentPath.never(),
        frailty.TreatmentPath.always(),
        frailty.TreatmentPath.initiate_at(1.0),
    )
    ROUND_TRIP_FRAILTIES = (
        frailty.GammaFrailty(0.5),
        frailty.GammaFrailty(1.0),
        frailty.GammaFrailty(2.0),
        frailty.DegenerateFrailty(1.0),
    )
    SURVIVAL_TIMES = (1.0, 2.0, 3.0)
    STATE0_TIMES = (1.0, 2.0)

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        step = sizes.step
        self.sizes = sizes
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(2)]
        self.model = standard_model(step)
        self.gamma = frailty.GammaFrailty(1.0)
        self.spec = frailty.ConditionalHazardSpec(
            h0=GridFunction.constant(CFG.t_max, step, 0.3),
            h1=GridFunction.constant(CFG.t_max, step, 0.5),
        )
        self.exposure = GridFunction.constant(CFG.t_max, step, 0.3)
        self.targets = (
            GridFunction.constant(CFG.t_max, step, 0.5),
            rates.rate_treated(self.model),
        )
        lam01 = cumulative(self.model.lambda01)
        lam02 = cumulative(self.model.lambda02)
        self.expected = {
            # 0.5 * |1/(1 + 1.0) - 1/(1 + 0.7)|: loads 1.0 and 0.7 at t=2
            "gamma_gap": 3.0 / 68.0,
            "survival": [self._marginal_survival(t) for t in self.SURVIVAL_TIMES],
            "state0": [
                float(np.exp(-lam01(t)) * self.gamma.laplace(lam02(t)))
                for t in self.STATE0_TIMES
            ],
        }
        self.items = sizes.n_frailty + sizes.n_gamma

    def _marginal_survival(self, t: float) -> float:
        """E_u[phi(H(t; u))] over the exposure initiation time u."""
        times = self.exposure.times
        u = times[times <= t + 1e-9]
        exposed = cumulative(self.exposure)
        load = np.array([
            self.spec.load_along(frailty.TreatmentPath.initiate_at(float(v)), t) for v in u
        ])
        f = self.exposure(u) * np.exp(-exposed(u)) * self.gamma.laplace(load)
        initiated = self.sizes.step * (f.sum() - 0.5 * (f[0] + f[-1]))
        never = np.exp(-exposed(t)) * self.gamma.laplace(
            self.spec.load_along(frailty.TreatmentPath.never(), t)
        )
        return float(initiated + never)

    def op(self):
        cohort = simulate.sample_frailty_cohort(
            self.spec, self.gamma, self.exposure,
            simulate.SimConfig(n=self.sizes.n_frailty, seed=self.seeds[0]),
        )
        gamma_cohort = simulate.simulate_cohort(
            self.model,
            simulate.SimConfig(n=self.sizes.n_gamma, seed=self.seeds[1], frailty=self.gamma),
        )
        gap = frailty.markov_violation_gap(self.spec, self.gamma, t=2.0, u1=0.0, u2=1.5)
        degenerate = frailty.DegenerateFrailty(1.0)
        degenerate_gaps = [
            frailty.markov_violation_gap(self.spec, degenerate, float(t), f1 * t, f2 * t)
            for t in np.linspace(0.25, CFG.t_max, 12)
            for f1 in (0.0, 0.3, 0.7, 1.0)
            for f2 in (0.0, 0.5, 1.0)
        ]
        round_trips = []
        for target in self.targets:
            for fr in self.ROUND_TRIP_FRAILTIES:
                for path in self.PATHS:
                    h = frailty.invert_rate_to_h(target, fr, path)
                    back = frailty.marginal_hazard(
                        frailty.ConditionalHazardSpec(h0=h, h1=h), fr, path
                    )
                    round_trips.append((target, back))
        return cohort, gamma_cohort, gap, degenerate_gaps, round_trips

    def check(self, out) -> list[str]:
        cohort, gamma_cohort, gap, degenerate_gaps, round_trips = out
        exp = self.expected
        fails = []
        if abs(gap - exp["gamma_gap"]) > 1e-12:
            fails.append(f"gamma gap {gap!r} vs {exp['gamma_gap']!r}")
        if max(degenerate_gaps) >= 1e-12:
            fails.append(f"degenerate gap {max(degenerate_gaps)!r} not below 1e-12")
        worst = max(float(np.max(np.abs(b.values - t.values))) for t, b in round_trips)
        if len(round_trips) != 24 or worst >= 1e-4:
            fails.append(f"{len(round_trips)} round trips, worst misses by {worst:.2e}")

        _, t_event, event = _cohort_columns(cohort)
        for t, p in zip(self.SURVIVAL_TIMES, exp["survival"]):
            alive = float(np.mean(~(event & (t_event <= t))))
            fails += _binomial_failure(f"frailty cohort survival at t={t}", alive, p, t_event.size)

        u, t_event, _ = _cohort_columns(gamma_cohort)
        for t, p in zip(self.STATE0_TIMES, exp["state0"]):
            in_state0 = np.where(np.isnan(u), t_event > t, u > t)
            fails += _binomial_failure(
                f"gamma cohort state-0 share at t={t}", float(np.mean(in_state0)), p, u.size
            )
        return fails


# Runs reach these by name: python3 perfbench/run.py --workload <name>
WORKLOADS = {
    "reproduce": Reproduce,
    "estimate-rows": EstimateRows,
    "fine-grid": FineGrid,
    "frailty": Frailty,
}
