"""Estimators over counting-process rows.

Every estimator here shares one risk-set convention: a row (start,
stop] with level a is at risk for a level-a event on the half-open
interval, so Y_a(t) counts rows with start < t <= stop.  Events sit at
row stops, and the level "at" an event time is the level recorded on
the row where the event occurs.  Risk sets are evaluated by binary
search over the sorted start and stop arrays, which keeps every
estimator O(n log n) in the number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .model import CountingRow, rows_as_arrays
from .numerics import ConvergenceError

__all__ = [
    "StepFunction",
    "CoxFit",
    "AalenAdditiveFit",
    "nelson_aalen_by_treatment",
    "extended_km",
    "cox_fit",
    "aalen_additive",
    "log_surv_ratio",
]

_MAX_NEWTON = 25
_SCORE_TOL = 1e-9
_DIVERGENCE_BOUND = 30.0


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function given by jump times and post-jump values."""

    jump_times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self) -> None:
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jt.ndim != 1 or vals.shape != jt.shape:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if jt.size and np.any(np.diff(jt) <= 0):
            raise ValueError("jump_times must be strictly increasing")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)
        jt.flags.writeable = False
        vals.flags.writeable = False

    def __call__(self, t):
        idx = np.searchsorted(self.jump_times, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate([[self.initial], self.values])
        out = padded[idx]
        return float(out) if np.asarray(t).ndim == 0 else out

    @property
    def increments(self) -> np.ndarray:
        """Jump sizes, aligned with jump_times."""
        return np.diff(np.concatenate([[self.initial], self.values]))


@dataclass(frozen=True)
class CoxFit:
    """Fitted partial-likelihood model.

    Scalars for the current-level model; pairs (level, duration) for
    the duration-augmented model.
    """

    beta_hat: Union[float, tuple[float, float]]
    model_se: Union[float, tuple[float, float]]
    robust_se: Union[float, tuple[float, float]]
    iterations: int
    loglik: float


@dataclass(frozen=True)
class AalenAdditiveFit:
    """Additive-rates increments: baseline B0 and treatment contrast B1.

    ``singular_times`` lists event times where one arm had an empty risk
    set, making the least-squares design singular there; the estimable
    component still receives its increment (the same indicator
    convention the Nelson-Aalen estimator uses for empty risk sets).
    """

    b0: StepFunction
    b1: StepFunction
    singular_times: np.ndarray

    def __iter__(self):
        return iter((self.b0, self.b1))


def _risk_counts(starts_sorted: np.ndarray, stops_sorted: np.ndarray, times: np.ndarray) -> np.ndarray:
    """#{rows with start < t <= stop} for each t, via two binary searches."""
    entered = np.searchsorted(starts_sorted, times, side="left")
    exited = np.searchsorted(stops_sorted, times, side="left")
    return entered - exited


def _risk_table(col: dict[str, np.ndarray]):
    """Risk-set statistics at every unique event time, for both levels.

    Returns (times, d0, d1, y0, y1): the sorted unique event stops, the
    untreated and treated event counts there, and the untreated and
    treated at-risk counts Y_a(t).  Every estimator except the
    duration-augmented Cox model is a function of these five arrays.
    """
    ev = col["event"]
    times, kidx = np.unique(col["stop"][ev], return_inverse=True)
    d = np.bincount(kidx, minlength=times.size)
    d1 = np.bincount(kidx, weights=col["treat"][ev].astype(float), minlength=times.size)
    y0, y1 = (
        _risk_counts(np.sort(col["start"][in_level]), np.sort(col["stop"][in_level]), times)
        .astype(float)
        for in_level in (col["treat"] == 0, col["treat"] == 1)
    )
    return times, d - d1, d1, y0, y1


def _level_jumps(rows: Sequence[CountingRow]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per level: the times with a level-a event and a nonempty risk set,
    and the ratios dN_a / Y_a there."""
    times, d0, d1, y0, y1 = _risk_table(rows_as_arrays(rows))
    out = {}
    for level, d, y in ((0, d0, y0), (1, d1, y1)):
        keep = (d > 0) & (y > 0)
        out[level] = (times[keep], d[keep] / y[keep])
    return out


def nelson_aalen_by_treatment(rows: Sequence[CountingRow]) -> dict[int, StepFunction]:
    """Cumulative rate estimator per current treatment level.

    Jumps dN_a(t)/Y_a(t) at each level-a event time; times with an
    empty risk set contribute nothing.  Empty strata give a flat zero.
    """
    return {
        level: StepFunction(times, np.cumsum(ratios), 0.0)
        for level, (times, ratios) in _level_jumps(rows).items()
    }


def extended_km(rows: Sequence[CountingRow]) -> dict[int, StepFunction]:
    """Product-limit survival per current treatment level.

    Multiplies (1 - dN_a/Y_a) over level-a event times, with tied
    events aggregated before the factor.  An empty stratum stays at 1.
    """
    return {
        level: StepFunction(times, np.cumprod(1.0 - ratios), 1.0)
        for level, (times, ratios) in _level_jumps(rows).items()
    }


def _initiation_by_subject(col: dict[str, np.ndarray]) -> np.ndarray:
    """Per-row initiation time: the subject's earliest treated-row start.

    Untreated rows of never-treated subjects get +inf (never used: the
    duration covariate is zero off treatment).
    """
    ids, codes = np.unique(col["id"], return_inverse=True)
    u_by_subject = np.full(ids.size, np.inf)
    treated = col["treat"] == 1
    np.minimum.at(u_by_subject, codes[treated], col["start"][treated])
    return u_by_subject[codes]


def _padded_cumsum(x: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(x)])


def _range_sums(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return prefix[hi] - prefix[lo]


def _group_by_id(ids: np.ndarray, contributions: np.ndarray) -> np.ndarray:
    """Sum per-row score contributions within subject id."""
    _, codes = np.unique(ids, return_inverse=True)
    if contributions.ndim == 1:
        return np.bincount(codes, weights=contributions)
    return np.stack(
        [np.bincount(codes, weights=contributions[:, j]) for j in range(contributions.shape[1])],
        axis=1,
    )


def _current_level_parts(table, beta: float):
    """(loglik, score, info, s0, xbar) of the current-level Breslow
    partial likelihood at beta, from the risk table."""
    _, d0, d1, y0, y1 = table
    d = d0 + d1
    theta = np.exp(beta)
    s0 = y0 + theta * y1
    xbar = theta * y1 / s0
    loglik = float(beta * d1.sum() - np.sum(d * np.log(s0)))
    score = float(d1.sum() - np.sum(d * xbar))
    info = float(np.sum(d * xbar * (1.0 - xbar)))
    return loglik, score, info, s0, xbar


def _require_both_strata(d0: np.ndarray, d1: np.ndarray) -> None:
    if not (d0.any() and d1.any()):
        raise ConvergenceError("all events in one stratum: monotone partial likelihood")


def _fit_current_level(col: dict[str, np.ndarray]) -> CoxFit:
    table = _risk_table(col)
    uniq, d0, d1, _, _ = table
    _require_both_strata(d0, d1)

    beta = 0.0
    iterations = 0
    for _ in range(_MAX_NEWTON):
        loglik, score, info, s0, xbar = _current_level_parts(table, beta)
        if abs(score) < _SCORE_TOL:
            break
        if info <= 0 or not np.isfinite(score):
            raise ConvergenceError("singular information in partial-likelihood fit")
        beta += score / info
        iterations += 1
        if abs(beta) > _DIVERGENCE_BOUND:
            raise ConvergenceError("divergent coefficient: monotone partial likelihood")
    else:
        raise ConvergenceError(f"no convergence in {_MAX_NEWTON} Newton steps")

    # Robust part: per-row score residuals, summed within subject.
    # Expected-part sums over event times in (start, stop] come from
    # prefix sums over the unique-time axis.
    d = d0 + d1
    p_ds0 = _padded_cumsum(d / s0)
    p_xbar = _padded_cumsum(d * xbar / s0)
    lo = np.searchsorted(uniq, col["start"], side="right")
    hi = np.searchsorted(uniq, col["stop"], side="right")
    a = col["treat"].astype(float)
    expected = np.exp(beta * a) * (
        a * _range_sums(p_ds0, lo, hi) - _range_sums(p_xbar, lo, hi)
    )
    observed = np.zeros(a.size)
    ev_rows = np.nonzero(col["event"])[0]
    k_of_row = np.searchsorted(uniq, col["stop"][ev_rows])
    observed[ev_rows] = a[ev_rows] - xbar[k_of_row]
    u_i = _group_by_id(col["id"], observed - expected)
    robust_var = float(np.sum(u_i**2)) / info**2
    return CoxFit(
        beta_hat=float(beta),
        model_se=float(np.sqrt(1.0 / info)),
        robust_se=float(np.sqrt(robust_var)),
        iterations=iterations,
        loglik=loglik,
    )


def _treated_risk_sums(col: dict[str, np.ndarray], u_row: np.ndarray, times: np.ndarray):
    """The function gamma -> (T0, T1, T2) at ``times``.

    T_k(t) sums e^{-gamma*u} * u^k over treated rows at risk at t, as
    entered-minus-exited differences of prefix sums kept in start order
    and in stop order.  The sort orders and the risk-set positions do
    not depend on gamma, so they are computed once here.
    """
    treated = col["treat"] == 1
    u = u_row[treated]
    uu = u * u
    sides = []
    for key in ("start", "stop"):
        bounds = col[key][treated]
        order = np.argsort(bounds, kind="stable")
        sides.append((order, np.searchsorted(bounds[order], times, side="left")))
    (in_order, entered), (out_order, exited) = sides

    def sums(gamma: float):
        w = np.exp(-gamma * u)
        return tuple(
            _padded_cumsum(m[in_order])[entered] - _padded_cumsum(m[out_order])[exited]
            for m in (w, u * w, uu * w)
        )

    return sums


def _fit_duration(col: dict[str, np.ndarray]) -> CoxFit:
    """Two-covariate model: current level and time since initiation.

    At an event time t a treated row contributes weight
    e^{beta + gamma*(t - u)} = e^{beta + gamma*t} e^{-gamma*u}, so the
    risk-set sums reduce to prefix sums of e^{-gamma*u} moments.
    """
    uniq, d0, d1, y0, _ = _risk_table(col)
    _require_both_strata(d0, d1)
    d = d0 + d1
    u_row = _initiation_by_subject(col)
    treated_sums = _treated_risk_sums(col, u_row, uniq)
    # per-event covariates, in event-time order
    ev = col["event"]
    order = np.argsort(col["stop"][ev], kind="stable")
    ev_time = col["stop"][ev][order]
    ev_treat = col["treat"][ev][order]
    ev_u = u_row[ev][order]
    ev_x = np.stack([ev_treat.astype(float), np.where(ev_treat == 1, ev_time - ev_u, 0.0)], axis=1)
    sum_ev_x = ev_x.sum(axis=0)

    theta = np.zeros(2)
    iterations = 0
    for _ in range(_MAX_NEWTON):
        beta, gamma = theta
        t0, t1, t2 = treated_sums(gamma)
        w = np.exp(beta + gamma * uniq)
        s0 = y0 + w * t0
        # risk-set moments of (1, t - u) under the exponential weight
        m1a = w * t0
        m1b = w * (uniq * t0 - t1)
        m2bb = w * (uniq**2 * t0 - 2 * uniq * t1 + t2)
        xbar = np.stack([m1a / s0, m1b / s0], axis=1)
        score = sum_ev_x - np.array([np.sum(d * xbar[:, 0]), np.sum(d * xbar[:, 1])])
        i00 = np.sum(d * (m1a / s0 - xbar[:, 0] ** 2))
        i01 = np.sum(d * (m1b / s0 - xbar[:, 0] * xbar[:, 1]))
        i11 = np.sum(d * (m2bb / s0 - xbar[:, 1] ** 2))
        info = np.array([[i00, i01], [i01, i11]])
        if np.max(np.abs(score)) < _SCORE_TOL:
            break
        try:
            delta = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("singular information in partial-likelihood fit") from err
        theta = theta + delta
        iterations += 1
        if np.max(np.abs(theta)) > _DIVERGENCE_BOUND:
            raise ConvergenceError("divergent coefficient: monotone partial likelihood")
    else:
        raise ConvergenceError(f"no convergence in {_MAX_NEWTON} Newton steps")

    beta, gamma = theta
    loglik = float(np.sum(ev_x @ theta) - np.sum(d * np.log(s0)))
    cov_model = np.linalg.inv(info)

    # Robust part.  Prefix sums over unique event times; treated rows
    # need the e^{gamma*t_k} weighted variants.
    egt = np.exp(gamma * uniq)
    p = {
        "q0": _padded_cumsum(d * egt / s0),
        "qt": _padded_cumsum(d * uniq * egt / s0),
        "qx1": _padded_cumsum(d * egt * xbar[:, 0] / s0),
        "qx2": _padded_cumsum(d * egt * xbar[:, 1] / s0),
        "px1": _padded_cumsum(d * xbar[:, 0] / s0),
        "px2": _padded_cumsum(d * xbar[:, 1] / s0),
    }
    lo = np.searchsorted(uniq, col["start"], side="right")
    hi = np.searchsorted(uniq, col["stop"], side="right")
    a = col["treat"].astype(float)
    expected = np.zeros((a.size, 2))
    tr = col["treat"] == 1
    w_tr = np.exp(beta - gamma * u_row[tr])
    expected[tr, 0] = w_tr * (
        _range_sums(p["q0"], lo[tr], hi[tr]) - _range_sums(p["qx1"], lo[tr], hi[tr])
    )
    expected[tr, 1] = w_tr * (
        _range_sums(p["qt"], lo[tr], hi[tr])
        - _range_sums(p["qx2"], lo[tr], hi[tr])
        - u_row[tr] * _range_sums(p["q0"], lo[tr], hi[tr])
    )
    un = ~tr
    expected[un, 0] = -_range_sums(p["px1"], lo[un], hi[un])
    expected[un, 1] = -_range_sums(p["px2"], lo[un], hi[un])
    observed = np.zeros((a.size, 2))
    ev_rows = np.nonzero(col["event"])[0]
    k_of_row = np.searchsorted(uniq, col["stop"][ev_rows])
    x_ev = np.stack(
        [a[ev_rows], np.where(tr[ev_rows], col["stop"][ev_rows] - u_row[ev_rows], 0.0)],
        axis=1,
    )
    observed[ev_rows] = x_ev - xbar[k_of_row]
    u_i = _group_by_id(col["id"], observed - expected)
    meat = u_i.T @ u_i
    cov_robust = cov_model @ meat @ cov_model
    return CoxFit(
        beta_hat=(float(beta), float(gamma)),
        model_se=(float(np.sqrt(cov_model[0, 0])), float(np.sqrt(cov_model[1, 1]))),
        robust_se=(float(np.sqrt(cov_robust[0, 0])), float(np.sqrt(cov_robust[1, 1]))),
        iterations=iterations,
        loglik=loglik,
    )


def cox_fit(rows: Sequence[CountingRow], covariates: str = "current") -> CoxFit:
    """Maximize the Breslow partial likelihood by Newton-Raphson.

    covariates="current" fits the single binary current-level
    coefficient; "duration" adds time since initiation, recomputed at
    each event time inside the risk set.  Both return model-based and
    subject-clustered sandwich standard errors.
    """
    if covariates not in ("current", "duration"):
        raise ValueError(f"unknown covariate set {covariates!r}")
    col = rows_as_arrays(rows)
    if not np.any(col["event"]):
        raise ValueError("need at least one event to fit")
    if covariates == "current":
        return _fit_current_level(col)
    return _fit_duration(col)


def cox_loglik_parts(rows: Sequence[CountingRow], beta: float) -> tuple[float, float, float]:
    """(loglik, score, information) of the current-level model at beta.

    Exposed so the analytic gradient can be checked against finite
    differences of the log partial likelihood.
    """
    col = rows_as_arrays(rows)
    if not np.any(col["event"]):
        raise ValueError("need at least one event")
    loglik, score, info, _, _ = _current_level_parts(_risk_table(col), beta)
    return loglik, score, info


def aalen_additive(rows: Sequence[CountingRow]) -> AalenAdditiveFit:
    """Least-squares additive increments for the two-level design.

    With a binary level the normal equations solve in closed form:
    dB0 = dN0/Y0 and dB1 = dN1/Y1 - dN0/Y0.  Both come from the same
    risk table as the treatment-specific cumulative rate estimator, on
    the union of the event times, so B0 is that estimator's untreated
    curve exactly, not merely to rounding.
    """
    times, d0, d1, y0, y1 = _risk_table(rows_as_arrays(rows))
    jump0 = np.where(d0 > 0, d0 / np.where(y0 > 0, y0, 1.0), 0.0)
    jump1 = np.where(d1 > 0, d1 / np.where(y1 > 0, y1, 1.0), 0.0)
    singular = times[(y0 == 0) | (y1 == 0)]
    b0 = StepFunction(times, np.cumsum(jump0), 0.0)
    b1 = StepFunction(times, np.cumsum(jump1 - jump0), 0.0)
    return AalenAdditiveFit(b0=b0, b1=b1, singular_times=singular)


def log_surv_ratio(s1: StepFunction, s0: StepFunction, t: float) -> float:
    """log s1(t) / log s0(t), defined only when both lie strictly in (0, 1)."""
    v1 = float(s1(t))
    v0 = float(s0(t))
    for name, v in (("s1", v1), ("s0", v0)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name}({t}) = {v}: log-survival ratio needs values in (0, 1)")
    return float(np.log(v1) / np.log(v0))
