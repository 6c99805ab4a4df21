"""Command-line front end.

Subcommands wire the library into reproducible runs: build the
proportional-rates model, dump its rates and survival contrasts,
simulate counting-process data, run the estimators, and demo the
frailty and collider mechanisms.  Outputs are plain CSV with no
timestamps, so re-running a command with the same configuration
overwrites byte-identical files.

Exit codes: 0 success, 1 invalid input (one diagnostic line on stderr),
2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import construct, estimators
from .contrast import causal_hazard_ratio, potential_survival, rate_based_survival
from .frailty import (
    ColliderScenario,
    ConditionalHazardSpec,
    GammaFrailty,
    collider_table,
    marginal_hazard,
)
from .grid import GridFunction, cumulative
from .kernels import TwoPieceKernel
from .model import (
    IllnessDeathModel,
    TreatmentPath,
    _float_words,
    _int_words,
    read_counting_rows,
    write_counting_rows,
    write_csv,
)
from .numerics import ConvergenceError, SolverConfig
from .simulate import SimConfig, simulate_cohort, to_counting_rows

__all__ = ["ExperimentConfig", "main", "entry_point"]

OUT_DIR_ENV = "HAZRATES_OUT_DIR"


class CliError(Exception):
    """Invalid input; maps to exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat run configuration: grid, model, solver, and simulation settings.

    Mirrors the config-file keys one to one; command-line flags override
    file values, which override these defaults.
    """

    t_max: float = 3.0
    step: float = 0.005
    lam01: float = 0.3
    early: float = 0.4
    late: float = 0.2
    lag: float = 1.0
    beta: float = float(np.log(2.0 / 3.0))
    tol: float = SolverConfig.tol
    max_iter: int = SolverConfig.max_iter
    n: int = 100_000
    seed: int = 9
    out_dir: str = ""

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        return Path(os.environ.get(OUT_DIR_ENV, "."))


# config-file key -> parser of its value, from the field's annotation
_PARSE = {
    f.name: {"float": float, "int": int, "str": str}[f.type] for f in fields(ExperimentConfig)
}


def load_config_file(path: str) -> dict:
    """Parse a flat key=value file; blank lines and # comments ignored."""
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _PARSE:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSE[key](value)
        except ValueError as err:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {value!r}") from err
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(ExperimentConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            overrides[f.name] = flag_value
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _fmt(x: float) -> str:
    # "%.6g" is the one float format of files and stdout
    return "%.6g" % float(x)


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-d columns under a header with model.write_csv,
    then print "wrote <path>".

    Integers are written as %d and floats as %.6g, the bytes Python's %
    makes: model's word formatters (_int_words, _float_words) make each
    column's words a block of rows at a time, and model.write_csv joins
    them into the block's lines.
    """
    columns = [np.asarray(c) for c in columns]
    if any(c.dtype.kind not in "iuf" for c in columns):
        raise TypeError(f"cannot write columns of dtypes {[c.dtype.name for c in columns]}")
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError("columns must be 1-d arrays of equal length")

    def block(lo: int, hi: int) -> list[np.ndarray]:
        return [
            _int_words(c[lo:hi]) if c.dtype.kind in "iu" else _float_words(c[lo:hi].astype(np.float64))
            for c in columns
        ]

    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, header, columns[0].size, block)
    print(f"wrote {path}")


def _build(cfg: ExperimentConfig) -> construct.BuildReport:
    lam01 = GridFunction.constant(cfg.t_max, cfg.step, cfg.lam01)
    kernel = TwoPieceKernel(early=cfg.early, late=cfg.late, lag=cfg.lag)
    config = SolverConfig(tol=cfg.tol, max_iter=cfg.max_iter)
    return construct.build(lam01, kernel, cfg.beta, config=config)


def _survival_contrasts(report: construct.BuildReport):
    """(S always, S never, rate-based S treated, untreated) and the true
    and rate-based contrasts at t_max, each treated minus untreated."""
    model = report.model
    curves = (
        potential_survival(model, TreatmentPath.always()),
        potential_survival(model, TreatmentPath.never()),
        rate_based_survival(report.rate),
        # the untreated rate r02 is the hazard lambda02 itself
        rate_based_survival(report.lambda02),
    )
    s_always, s_never, s_rt, s_ru = (s(model.t_max) for s in curves)
    return curves, (float(s_always - s_never), float(s_rt - s_ru))


def _require_converged(report: construct.BuildReport) -> None:
    if not report.converged:
        raise ConvergenceError(
            f"builder stopped at sup deviation {report.iterations[-1]:.3e} "
            f"after {len(report.iterations) - 1} iterations"
        )


def _converged_build(cfg: ExperimentConfig) -> construct.BuildReport:
    """The builder's report; ConvergenceError if it did not converge."""
    report = _build(cfg)
    _require_converged(report)
    return report


# ---------------------------------------------------------------- commands


def _cmd_construct(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    report = _build(cfg)
    for index, dev in enumerate(report.iterations):
        print(f"iteration {index}: sup deviation {_fmt(dev)}")
    _write_csv(out / "lambda02.csv", ["t", "lambda02"], [report.model.times, report.lambda02.values])
    _write_csv(
        out / "iterations.csv",
        ["iteration", "sup_deviation"],
        [np.arange(len(report.iterations)), report.deviations],
    )
    _require_converged(report)
    print(f"converged: sup|rate ratio - {_fmt(np.exp(cfg.beta))}| < {_fmt(cfg.tol)}")
    return 0


def _cmd_rates(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    report = _converged_build(cfg)
    r12, r02 = report.rate, report.lambda02
    ratio = construct.ratio_of_rates(r12, r02)
    _write_csv(
        out / "rates.csv",
        ["t", "r12", "r02", "rate_ratio"],
        [report.model.times, r12.values, r02.values, ratio.values],
    )
    print(f"sup |rate ratio - {_fmt(np.exp(cfg.beta))}| = {_fmt(report.deviations[-1])}")
    return 0


def _cmd_contrast(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    report = _converged_build(cfg)
    model = report.model
    curves, (true_c, rate_c) = _survival_contrasts(report)
    chr_ = causal_hazard_ratio(model)
    rr = construct.ratio_of_rates(report.rate, report.lambda02)
    _write_csv(
        out / "contrast.csv",
        [
            "t",
            "S_always_true",
            "S_never_true",
            "S_treated_ratebased",
            "S_untreated_ratebased",
            "causal_hr",
            "rate_ratio",
        ],
        [model.times, *(s.values for s in curves), chr_.values, rr.values],
    )
    t_end = model.t_max
    print(f"true contrast at t={_fmt(t_end)}: {true_c:.2f} (unrounded {_fmt(true_c)})")
    print(f"rate-based contrast at t={_fmt(t_end)}: {rate_c:.2f} (unrounded {_fmt(rate_c)})")
    return 0


def _simulate_rows(model: IllnessDeathModel, cfg: ExperimentConfig, path: Path):
    """Simulate cfg's cohort from the model, write its counting rows to
    path, and return the cohort and the rows."""
    cohort = simulate_cohort(model, SimConfig(n=cfg.n, seed=cfg.seed))
    rows = to_counting_rows(cohort)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_counting_rows(rows, path)
    return cohort, rows


def _cmd_simulate(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    out_path = Path(args.out) if args.out else out / "rows.csv"
    cohort, rows = _simulate_rows(_converged_build(cfg).model, cfg, out_path)
    n_events = int(np.count_nonzero(rows.event))
    n_treated = int(np.count_nonzero(~np.isnan(cohort.u_init)))
    print(f"wrote {out_path}")
    print(f"subjects {cfg.n}, treated {n_treated}, deaths {n_events}")
    return 0


def _step_csv_columns(curves: dict[int, estimators.StepFunction]) -> list[np.ndarray]:
    """(level, t, value) columns of the curves' jumps, level by level."""
    levels = sorted(curves)
    return [
        np.concatenate([np.full(curves[a].jump_times.size, a) for a in levels]),
        np.concatenate([curves[a].jump_times for a in levels]),
        np.concatenate([curves[a].values for a in levels]),
    ]


def _fit_summary(fit: estimators.CoxFit) -> str:
    def join(x) -> str:
        if isinstance(x, tuple):
            return ";".join(_fmt(v) for v in x)
        return _fmt(x)

    parts = [join(fit.beta_hat), join(fit.model_se), join(fit.robust_se), _fmt(fit.loglik), str(fit.iterations)]
    return ",".join(parts)


def _cmd_estimate(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    try:
        rows = read_counting_rows(args.rows)
    except (OSError, ValueError) as err:
        raise CliError(f"cannot read rows from {args.rows}: {err}") from err
    method = args.method
    if method in ("na", "ekm"):
        curves = (
            estimators.nelson_aalen_by_treatment(rows)
            if method == "na"
            else estimators.extended_km(rows)
        )
        path = Path(args.out) if args.out else out / f"estimate_{method}.csv"
        _write_csv(path, ["level", "t", "value"], _step_csv_columns(curves))
        return 0
    if method in ("cox", "cox-duration"):
        covariates = "current" if method == "cox" else "duration"
        fit = estimators.cox_fit(rows, covariates=covariates)
        print("beta_hat,model_se,robust_se,loglik,iters")
        print(_fit_summary(fit))
        return 0
    # "aalen", the last of the --method choices
    fit = estimators.aalen_additive(rows)
    na = estimators.nelson_aalen_by_treatment(rows)
    path = Path(args.out) if args.out else out / "estimate_aalen.csv"
    _write_csv(path, ["t", "b0", "b1"], [fit.b0.jump_times, fit.b0.values, fit.b1.values])
    times = fit.b0.jump_times
    cum = fit.b0(times)  # B0, then B0 + B1, at the jump times
    ok = np.allclose(cum, na[0](times), rtol=0, atol=1e-12)
    cum += fit.b1(times)
    ok = ok and np.allclose(cum, na[1](times), rtol=0, atol=1e-12)
    print(f"aalen_na_identity: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_frailty_demo(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    u = args.u
    if not (0 <= u <= cfg.t_max):
        raise CliError(f"--u must lie in [0, {cfg.t_max}], got {u}")
    spec = ConditionalHazardSpec(
        h0=GridFunction.constant(cfg.t_max, cfg.step, args.h0),
        h1=GridFunction.constant(cfg.t_max, cfg.step, args.h1),
    )
    frailty = GammaFrailty(variance=args.variance)
    m_never = marginal_hazard(spec, frailty, TreatmentPath.never())
    m_always = marginal_hazard(spec, frailty, TreatmentPath.always())
    m_init = marginal_hazard(spec, frailty, TreatmentPath.initiate_at(u))
    times = spec.h0.times
    gap = np.where(times >= u, np.abs(m_always.values - m_init.values), 0.0)
    _write_csv(
        out / "frailty_demo.csv",
        ["t", "mhaz_never", "mhaz_always", f"mhaz_initiate_{u:g}", "gap"],
        [times, m_never.values, m_always.values, m_init.values, gap],
    )
    print(f"max violation gap on [{_fmt(u)}, {_fmt(cfg.t_max)}]: {_fmt(np.max(gap))}")
    return 0


def _float_list(text: str) -> tuple[float, ...]:
    """argparse type of a comma-separated list of numbers."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}") from err


def _cmd_collider(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    scenario = ColliderScenario(
        z_levels=args.z_levels, z_probs=args.z_probs, p1=args.p1, effect=args.effect
    )
    table = collider_table(scenario)
    keys = sorted(table)
    columns = [*np.array(keys).T, np.array([table[key] for key in keys])]
    _write_csv(out / "collider.csv", ["a1", "a2", "p_death_given_alive"], columns)
    for (a1, a2) in keys:
        print(f"P(second-period death | alive, a1={a1}, a2={a2}) = {_fmt(table[(a1, a2)])}")
    return 0


def _cmd_reproduce(args: argparse.Namespace, cfg: ExperimentConfig, out: Path) -> int:
    report = _converged_build(cfg)
    model, r12, lam02 = report.model, report.rate, report.lambda02
    deviations = report.deviations
    t_end = model.t_max
    _, (true_c, rate_c) = _survival_contrasts(report)

    rows = _simulate_rows(model, cfg, out / "rows.csv")[1]

    na = estimators.nelson_aalen_by_treatment(rows)
    check_times = model.times[model.times <= min(2.5, t_end)]
    r12_cum = cumulative(r12)(check_times)
    r02_cum = cumulative(lam02)(check_times)
    sup0 = float(np.max(np.abs(na[0](check_times) - r02_cum)))
    sup1 = float(np.max(np.abs(na[1](check_times) - r12_cum)))

    ekm = estimators.extended_km(rows)
    t2 = min(2.0, t_end)
    for arm, level in (("treated", 1), ("untreated", 0)):
        s = ekm[level](t2)
        if not 0.0 < s < 1.0:
            raise CliError(
                f"the {arm} arm's extended-KM survival at t={_fmt(t2)} is {_fmt(s)}: this "
                f"cohort (n={cfg.n}, beta={_fmt(cfg.beta)}) has {'no' if s >= 1.0 else 'only'} "
                f"deaths in the {arm} arm by t={_fmt(t2)}, so no log-survival ratio is defined"
            )
    log_ratio_t2 = estimators.log_surv_ratio(ekm[1], ekm[0], t2)
    del na, ekm  # read: their curves need not outlive them into the Cox fit
    fit = estimators.cox_fit(rows, covariates="current")

    unit = model.times <= min(1.0, t_end)
    lam02_err_01 = float(np.max(np.abs(lam02.values[unit] - 0.6)))

    lines = [
        f"sup_rate_ratio_deviation: {_fmt(deviations[-1])}",
        f"builder_iterations: {len(deviations) - 1}",
        f"lambda02_max_abs_err_on_unit_interval: {_fmt(lam02_err_01)}",
        f"true_contrast: {true_c:.2f} (unrounded {_fmt(true_c)})",
        f"rate_based_contrast: {rate_c:.2f} (unrounded {_fmt(rate_c)})",
        f"na_sup_deviation_untreated: {_fmt(sup0)}",
        f"na_sup_deviation_treated: {_fmt(sup1)}",
        f"ekm_log_surv_ratio_t2: {_fmt(log_ratio_t2)}",
        f"cox_beta_hat: {_fmt(fit.beta_hat)}",
        f"cox_robust_se: {_fmt(fit.robust_se)}",
        f"cox_model_se: {_fmt(fit.model_se)}",
        f"target_rate_ratio: {_fmt(np.exp(cfg.beta))}",
    ]
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise CliError(message)


def _build_parser() -> _Parser:
    # parent parsers: each flag is declared once and shared by the
    # subcommands that take it
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", help="flat key=value config file")
    io.add_argument("--out-dir", help="output directory")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--tmax", dest="t_max", type=float, help="grid horizon")
    grid.add_argument("--step", type=float, help="grid step")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--lam01", type=float, help="treatment initiation hazard level")
    model.add_argument("--early", type=float, help="post-initiation hazard before the lag")
    model.add_argument("--late", type=float, help="post-initiation hazard after the lag")
    model.add_argument("--lag", type=float, help="kernel lag duration")
    model.add_argument("--beta", type=float, help="log rate ratio target")
    model.add_argument("--tol", type=float, help="builder tolerance")
    model.add_argument("--max-iter", type=int, help="builder iteration cap")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--n", type=int, help="number of subjects")
    sim.add_argument("--seed", type=int, help="simulation seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output CSV path (default: a file in the out-dir)")

    parser = _Parser(prog="hazrates", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_, parents):
        sub = subs.add_parser(name, help=help_, parents=parents)
        sub.set_defaults(func=func)
        return sub

    built = [io, grid, model]
    command("construct", _cmd_construct, "build the proportional-rates model", built)
    command("rates", _cmd_rates, "emit treated/untreated rates and their ratio", built)
    command("contrast", _cmd_contrast, "emit true and rate-based survival curves", built)

    command("simulate", _cmd_simulate, "simulate counting-process rows", [*built, sim, out])

    p = command("estimate", _cmd_estimate, "run an estimator over a rows CSV", [io, out])
    p.add_argument("--rows", required=True, help="CountingRow CSV path")
    p.add_argument(
        "--method",
        required=True,
        choices=["ekm", "na", "cox", "cox-duration", "aalen"],
        help="estimator to run",
    )

    p = command(
        "frailty-demo", _cmd_frailty_demo, "marginal hazards under a shared frailty", [io, grid]
    )
    p.add_argument("--variance", type=float, default=1.0, help="gamma frailty variance")
    p.add_argument("--h0", type=float, default=0.3, help="untreated conditional hazard")
    p.add_argument("--h1", type=float, default=0.5, help="treated conditional hazard")
    p.add_argument("--u", type=float, default=1.5, help="late initiation time to compare")

    p = command("collider", _cmd_collider, "two-period selection effect, exact enumeration", [io])
    p.add_argument("--z-levels", type=_float_list, default="0.5,1.5", help="frailty support")
    p.add_argument("--z-probs", type=_float_list, default="0.5,0.5", help="frailty probabilities")
    p.add_argument("--p1", type=float, default=0.2, help="base first-period death probability")
    p.add_argument("--effect", type=float, default=0.5, help="multiplicative treatment effect")

    command(
        "reproduce", _cmd_reproduce, "construct, contrast, simulate, estimate, summarize",
        [*built, sim],
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = resolve_config(args)
        return args.func(args, cfg, cfg.resolved_out_dir())
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ConvergenceError as err:
        print(f"solver failed: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
