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
import csv
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
    read_counting_rows,
    write_counting_rows,
    write_rows,
)
from .numerics import ConvergenceError, SolverConfig
from .rates import rate_untreated
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
    tol: float = 1e-6
    max_iter: int = 50
    damping: float = 1.0
    n: int = 100_000
    seed: int = 9
    out_dir: str = ""

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        return Path(os.environ.get(OUT_DIR_ENV, "."))


_INT_KEYS = {"max_iter", "n", "seed"}
_STR_KEYS = {"out_dir"}


def load_config_file(path: str) -> dict:
    """Parse a flat key=value file; blank lines and # comments ignored."""
    values: dict = {}
    known = {f.name for f in fields(ExperimentConfig)}
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
        if key not in known:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            if key in _STR_KEYS:
                values[key] = value
            elif key in _INT_KEYS:
                values[key] = int(value)
            else:
                values[key] = float(value)
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


# %-format by dtype kind; "%.6g" is the one float format of files and stdout
_SPECS = {"i": "%d", "u": "%d", "f": "%.6g"}


def _fmt(x: float) -> str:
    return _SPECS["f"] % float(x)


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-d columns under a header: integers in decimal,
    floats as _fmt does, \\r\\n line ends, a block of rows at a time."""
    columns = [np.asarray(c) for c in columns]
    if any(c.dtype.kind not in _SPECS for c in columns):
        raise TypeError(f"cannot write columns of dtypes {[c.dtype.name for c in columns]}")
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError("columns must be 1-d arrays of equal length")
    line = ",".join(_SPECS[c.dtype.kind] for c in columns) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        write_rows(fh, line, columns)


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(tol=cfg.tol, max_iter=cfg.max_iter, damping=cfg.damping)


def _kernel(cfg: ExperimentConfig) -> TwoPieceKernel:
    return TwoPieceKernel(early=cfg.early, late=cfg.late, lag=cfg.lag)


def _build(cfg: ExperimentConfig) -> tuple[IllnessDeathModel, construct.BuildReport]:
    lam01 = GridFunction.constant(cfg.t_max, cfg.step, cfg.lam01)
    kernel = _kernel(cfg)
    report = construct.build(lam01, kernel, cfg.beta, config=_solver_config(cfg))
    model = IllnessDeathModel(lambda01=lam01, lambda02=report.lambda02, lambda12=kernel)
    return model, report


def _require_converged(report: construct.BuildReport) -> None:
    if not report.converged:
        raise ConvergenceError(
            f"builder stopped at sup deviation {report.iterations[-1].sup_dev:.3e} "
            f"after {len(report.iterations) - 1} iterations"
        )


def _load_lambda02(path: str, cfg: ExperimentConfig) -> GridFunction:
    """Read a t,lambda02 CSV (as written by `construct`) back into a grid."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "lambda02"]:
                raise CliError(f"{path}: expected header t,lambda02")
            data = [(float(r[0]), float(r[1])) for r in reader if r]
    except OSError as err:
        raise CliError(f"cannot read model file {path}: {err}") from err
    except (ValueError, IndexError) as err:
        raise CliError(f"{path}: malformed model CSV: {err}") from err
    if len(data) < 2:
        raise CliError(f"{path}: need at least two grid nodes")
    t = np.array([d[0] for d in data])
    v = np.array([d[1] for d in data])
    steps = np.diff(t)
    if np.any(np.abs(steps - steps[0]) > 1e-9):
        raise CliError(f"{path}: grid times must be evenly spaced")
    return GridFunction(float(t[-1]), float(steps[0]), v)


# ---------------------------------------------------------------- commands


def _cmd_construct(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    model, report = _build(cfg)
    lam02 = report.lambda02
    _write_csv(out / "lambda02.csv", ["t", "lambda02"], [model.times, lam02.values])
    _write_csv(
        out / "iterations.csv",
        ["iteration", "sup_deviation"],
        [np.array([rec.index for rec in report.iterations]), report.deviations],
    )
    for rec in report.iterations:
        print(f"iteration {rec.index}: sup deviation {_fmt(rec.sup_dev)}")
    print(f"wrote {out / 'lambda02.csv'}")
    print(f"wrote {out / 'iterations.csv'}")
    _require_converged(report)
    print(f"converged: sup|rate ratio - {_fmt(np.exp(cfg.beta))}| < {_fmt(cfg.tol)}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    model, report = _build(cfg)
    _require_converged(report)
    r12 = report.iterations[-1].rate
    r02 = rate_untreated(model)
    ratio = construct.ratio_of_rates(r12, r02)
    _write_csv(
        out / "rates.csv",
        ["t", "r12", "r02", "rate_ratio"],
        [model.times, r12.values, r02.values, ratio.values],
    )
    print(f"wrote {out / 'rates.csv'}")
    dev = np.max(np.abs(ratio.values[1:] - np.exp(cfg.beta)))
    print(f"sup |rate ratio - {_fmt(np.exp(cfg.beta))}| = {_fmt(dev)}")
    return 0


def _cmd_contrast(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    model, report = _build(cfg)
    _require_converged(report)
    r12 = report.iterations[-1].rate
    r02 = rate_untreated(model)
    s_always = potential_survival(model, TreatmentPath.always())
    s_never = potential_survival(model, TreatmentPath.never())
    s_rt = rate_based_survival(r12)
    s_ru = rate_based_survival(r02)
    chr_ = causal_hazard_ratio(model)
    rr = construct.ratio_of_rates(r12, r02)
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
        [model.times, s_always.values, s_never.values, s_rt.values, s_ru.values, chr_.values, rr.values],
    )
    print(f"wrote {out / 'contrast.csv'}")
    t_end = model.t_max
    true_c = float(s_always(t_end) - s_never(t_end))
    rate_c = float(s_rt(t_end) - s_ru(t_end))
    print(f"true contrast at t={_fmt(t_end)}: {true_c:.2f} (unrounded {_fmt(true_c)})")
    print(f"rate-based contrast at t={_fmt(t_end)}: {rate_c:.2f} (unrounded {_fmt(rate_c)})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    if args.model:
        lam02 = _load_lambda02(args.model, cfg)
        lam01 = GridFunction.constant(lam02.t_max, lam02.step, cfg.lam01)
        model = IllnessDeathModel(lambda01=lam01, lambda02=lam02, lambda12=_kernel(cfg))
    else:
        model, report = _build(cfg)
        _require_converged(report)
    trajectories = simulate_cohort(model, SimConfig(n=cfg.n, seed=cfg.seed))
    rows = to_counting_rows(trajectories)
    out_path = Path(args.out) if args.out else out / "rows.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_counting_rows(rows, out_path)
    n_events = int(np.count_nonzero(rows.event))
    n_treated = int(np.count_nonzero(~np.isnan(trajectories.u_init)))
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


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
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
        print(f"wrote {path}")
        return 0
    if method in ("cox", "cox-duration"):
        covariates = "current" if method == "cox" else "duration"
        fit = estimators.cox_fit(rows, covariates=covariates)
        print("beta_hat,model_se,robust_se,loglik,iters")
        print(_fit_summary(fit))
        return 0
    if method == "aalen":
        fit = estimators.aalen_additive(rows)
        na = estimators.nelson_aalen_by_treatment(rows)
        path = Path(args.out) if args.out else out / "estimate_aalen.csv"
        _write_csv(path, ["t", "b0", "b1"], [fit.b0.jump_times, fit.b0.values, fit.b1.values])
        print(f"wrote {path}")
        times = fit.b0.jump_times
        ok = np.allclose(fit.b0(times), na[0](times), rtol=0, atol=1e-12) and np.allclose(
            fit.b0(times) + fit.b1(times), na[1](times), rtol=0, atol=1e-12
        )
        print(f"aalen_na_identity: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    raise CliError(f"unknown method {method!r}")


def _cmd_frailty_demo(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    h0 = float(args.h0)
    h1 = float(args.h1)
    u = float(args.u)
    if not (0 <= u <= cfg.t_max):
        raise CliError(f"--u must lie in [0, {cfg.t_max}], got {u}")
    spec = ConditionalHazardSpec(
        h0=GridFunction.constant(cfg.t_max, cfg.step, h0),
        h1=GridFunction.constant(cfg.t_max, cfg.step, h1),
    )
    frailty = GammaFrailty(variance=float(args.variance))
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
    print(f"wrote {out / 'frailty_demo.csv'}")
    print(f"max violation gap on [{_fmt(u)}, {_fmt(cfg.t_max)}]: {_fmt(np.max(gap))}")
    return 0


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise CliError(f"{flag} expects comma-separated numbers, got {text!r}") from err


def _cmd_collider(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    scenario = ColliderScenario(
        z_levels=_parse_float_list(args.z_levels, "--z-levels"),
        z_probs=_parse_float_list(args.z_probs, "--z-probs"),
        p1=float(args.p1),
        effect=float(args.effect),
    )
    table = collider_table(scenario)
    keys = sorted(table)
    columns = [*np.array(keys).T, np.array([table[key] for key in keys])]
    _write_csv(out / "collider.csv", ["a1", "a2", "p_death_given_alive"], columns)
    print(f"wrote {out / 'collider.csv'}")
    for (a1, a2) in keys:
        print(f"P(second-period death | alive, a1={a1}, a2={a2}) = {_fmt(table[(a1, a2)])}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = cfg.resolved_out_dir()
    model, report = _build(cfg)
    _require_converged(report)
    deviations = report.deviations
    lam02 = report.lambda02

    # the builder's last sweep already holds the final model's r12
    r12 = report.iterations[-1].rate
    t_end = model.t_max
    true_c = float(
        potential_survival(model, TreatmentPath.always())(t_end)
        - potential_survival(model, TreatmentPath.never())(t_end)
    )
    rate_c = float(
        rate_based_survival(r12)(t_end) - rate_based_survival(rate_untreated(model))(t_end)
    )

    trajectories = simulate_cohort(model, SimConfig(n=cfg.n, seed=cfg.seed))
    rows = to_counting_rows(trajectories)
    rows_path = out / "rows.csv"
    rows_path.parent.mkdir(parents=True, exist_ok=True)
    write_counting_rows(rows, rows_path)

    na = estimators.nelson_aalen_by_treatment(rows)
    check_times = model.times[model.times <= min(2.5, t_end)]
    r12_cum = cumulative(r12)(check_times)
    r02_cum = cumulative(rate_untreated(model))(check_times)
    sup0 = float(np.max(np.abs(na[0](check_times) - r02_cum)))
    sup1 = float(np.max(np.abs(na[1](check_times) - r12_cum)))

    ekm = estimators.extended_km(rows)
    log_ratio_t2 = estimators.log_surv_ratio(ekm[1], ekm[0], min(2.0, t_end))
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
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise CliError(message)


def _add_common(sub: argparse.ArgumentParser, solver: bool = True, sim: bool = False) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    sub.add_argument("--tmax", dest="t_max", type=float, help="grid horizon")
    sub.add_argument("--step", type=float, help="grid step")
    sub.add_argument("--lam01", type=float, help="treatment initiation hazard level")
    sub.add_argument("--early", type=float, help="post-initiation hazard before the lag")
    sub.add_argument("--late", type=float, help="post-initiation hazard after the lag")
    sub.add_argument("--lag", type=float, help="kernel lag duration")
    sub.add_argument("--beta", type=float, help="log rate ratio target")
    if solver:
        sub.add_argument("--tol", type=float, help="builder tolerance")
        sub.add_argument("--max-iter", dest="max_iter", type=int, help="builder iteration cap")
        sub.add_argument("--damping", type=float, help="builder damping in (0, 1]")
    if sim:
        sub.add_argument("--n", type=int, help="number of subjects")
        sub.add_argument("--seed", type=int, help="simulation seed")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hazrates", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="build the proportional-rates model")
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("rates", help="emit treated/untreated rates and their ratio")
    _add_common(p)
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("contrast", help="emit true and rate-based survival curves")
    _add_common(p)
    p.set_defaults(func=_cmd_contrast)

    p = subs.add_parser("simulate", help="simulate counting-process rows")
    _add_common(p, sim=True)
    p.add_argument("--model", help="lambda02 CSV from a previous construct run")
    p.add_argument("--out", help="output CSV path (default <out-dir>/rows.csv)")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("estimate", help="run an estimator over a rows CSV")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--rows", required=True, help="CountingRow CSV path")
    p.add_argument(
        "--method",
        required=True,
        choices=["ekm", "na", "cox", "cox-duration", "aalen"],
        help="estimator to run",
    )
    p.add_argument("--out", help="output CSV path for curve methods")
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser("frailty-demo", help="marginal hazards under a shared frailty")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--tmax", dest="t_max", type=float, help="grid horizon")
    p.add_argument("--step", type=float, help="grid step")
    p.add_argument("--variance", type=float, default=1.0, help="gamma frailty variance")
    p.add_argument("--h0", type=float, default=0.3, help="untreated conditional hazard")
    p.add_argument("--h1", type=float, default=0.5, help="treated conditional hazard")
    p.add_argument("--u", type=float, default=1.5, help="late initiation time to compare")
    p.set_defaults(func=_cmd_frailty_demo)

    p = subs.add_parser("collider", help="two-period selection effect, exact enumeration")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--z-levels", dest="z_levels", default="0.5,1.5", help="frailty support")
    p.add_argument("--z-probs", dest="z_probs", default="0.5,0.5", help="frailty probabilities")
    p.add_argument("--p1", type=float, default=0.2, help="base first-period death probability")
    p.add_argument("--effect", type=float, default=0.5, help="multiplicative treatment effect")
    p.set_defaults(func=_cmd_collider)

    p = subs.add_parser("reproduce", help="construct, contrast, simulate, estimate, summarize")
    _add_common(p, sim=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ConvergenceError as err:
        print(f"solver failed: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
