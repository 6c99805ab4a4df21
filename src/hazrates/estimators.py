"""Estimators over counting-process rows.

Every estimator here shares one risk-set convention: a row (start,
stop] with level a is at risk for a level-a event on the half-open
interval, so Y_a(t) counts rows with start < t <= stop.  Events sit at
row stops, and the level "at" an event time is the level recorded on
the row where the event occurs.  Risk sets are evaluated by binary
search over the sorted start and stop arrays, which keeps every
estimator O(n log n) in the number of rows.  Both Cox models (current
level, and with time since initiation) also read each row's bounds on
the event-time axis, a block of rows at a time, from the risk table's
event times and each event row's index among them, and sum their
robust score residuals within subject by one bincount per covariate.
Both fits run one Newton-Raphson driver, ``_newton``, which holds the
stopping and failure rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import CountingTable
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
_STEP_TOL = 1e-6
_DIVERGENCE_BOUND = 30.0
_BLOCK = 32_768  # rows per block of the Cox fits' row bounds


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
    component still receives its increment, and an arm with no event
    there gets 0, as in the Nelson-Aalen estimator.
    """

    b0: StepFunction
    b1: StepFunction
    singular_times: np.ndarray


def _risk_counts(starts_sorted: np.ndarray, stops_sorted: np.ndarray, times: np.ndarray) -> np.ndarray:
    """#{rows with start < t <= stop} for each t, via two binary searches."""
    entered = np.searchsorted(starts_sorted, times, side="left")
    exited = np.searchsorted(stops_sorted, times, side="left")
    return entered - exited


def _risk_table(rows: CountingTable):
    """Risk-set statistics at every unique event time, for both levels.

    Returns (times, d0, d1, y0, y1, kidx): the sorted unique event
    stops, the untreated and treated event counts and at-risk counts
    Y_a(t) there, and each event row's index into times.  Every
    estimator except the duration-augmented Cox model is a function of
    the first five.  They are computed once per CountingTable and kept
    on it, read-only, so the estimators run on one table share them.
    """
    table = CountingTable.coerce(rows)
    return table._cached("_risk_table", lambda: _risk_arrays(table.columns))


def _risk_arrays(col: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    ev = col["event"]
    times, kidx = np.unique(col["stop"][ev], return_inverse=True)
    d = np.bincount(kidx, minlength=times.size)
    d1 = np.bincount(kidx, weights=col["treat"][ev].astype(float), minlength=times.size)
    y0, y1 = (
        _risk_counts(np.sort(col["start"][in_level]), np.sort(col["stop"][in_level]), times)
        .astype(float)
        for in_level in (col["treat"] == 0, col["treat"] == 1)
    )
    return times, d - d1, d1, y0, y1, kidx


def _row_blocks(col: dict[str, np.ndarray], risk):
    """The Cox fits' row bounds, _BLOCK rows at a time: yields (rows,
    lo, hi) for each block, where times[lo:hi] are the event times in
    each row's (start, stop].  Event times are positive, so a zero
    start has lo = 0, and an event row's hi is its event-time index
    + 1, read from the risk table: only the other bounds are searched.
    """
    times, *_, event_k = risk
    start, stop, ev = col["start"], col["stop"], col["event"]
    first = 0
    for a in range(0, start.size, _BLOCK):
        rows = slice(a, a + _BLOCK)
        s, t, e = start[rows], stop[rows], ev[rows]
        lo = np.zeros(s.size, dtype=np.intp)
        late = s > 0.0
        lo[late] = _sorted_search(times, s[late])
        hi = np.empty(t.size, dtype=np.intp)
        last = first + np.count_nonzero(e)
        hi[e] = event_k[first:last] + 1
        hi[~e] = _sorted_search(times, t[~e])
        first = last
        yield rows, lo, hi


def _sorted_search(times: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.searchsorted(times, q, side="right"), in sorted order of q so lookups stay in cache."""
    order = np.argsort(q)
    out = np.empty(q.size, dtype=np.intp)
    out[order] = np.searchsorted(times, q[order], side="right")
    return out


def _subject_codes(ids: np.ndarray) -> np.ndarray:
    """Codes 0, 1, ... of the ids in sorted order, as np.unique's
    inverse; nondecreasing ids, as the simulator writes them, are coded
    by a running count of id changes instead of a sort."""
    if np.all(ids[1:] >= ids[:-1]):
        codes = np.zeros(ids.size, dtype=np.intp)
        np.cumsum(ids[1:] != ids[:-1], out=codes[1:])
        return codes
    return np.unique(ids, return_inverse=True)[1]


def _jumps(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dN_a / Y_a at each event time, 0 where d_a = 0.  A row is at risk
    at its own stop (start < stop), so d_a > 0 implies Y_a >= d_a."""
    return d / np.where(d > 0, y, 1.0)


def _level_jumps(rows: CountingTable) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per level: the times with a level-a event and the ratios
    dN_a / Y_a there."""
    times, d0, d1, y0, y1, _ = _risk_table(rows)
    out = {}
    for level, d, y in ((0, d0, y0), (1, d1, y1)):
        keep = d > 0
        out[level] = (times[keep], _jumps(d, y)[keep])
    return out


def nelson_aalen_by_treatment(rows: CountingTable) -> dict[int, StepFunction]:
    """Cumulative rate estimator per current treatment level.

    Jumps dN_a(t)/Y_a(t) at each level-a event time, where Y_a(t) >=
    dN_a(t) > 0.  Empty strata give a flat zero.
    """
    return {
        level: StepFunction(times, np.cumsum(ratios), 0.0)
        for level, (times, ratios) in _level_jumps(rows).items()
    }


def extended_km(rows: CountingTable) -> dict[int, StepFunction]:
    """Product-limit survival per current treatment level.

    Multiplies (1 - dN_a/Y_a) over level-a event times, with tied
    events aggregated before the factor.  An empty stratum stays at 1.
    """
    return {
        level: StepFunction(times, np.cumprod(1.0 - ratios), 1.0)
        for level, (times, ratios) in _level_jumps(rows).items()
    }


def _initiation_times(col: dict[str, np.ndarray], subject: np.ndarray, treated) -> np.ndarray:
    """Each treated row's initiation time: its subject's earliest treated-row start."""
    u_by_subject = np.full(subject.max() + 1, np.inf)
    np.minimum.at(u_by_subject, subject[treated], col["start"][treated])
    return u_by_subject[subject[treated]]


def _padded_cumsum(x: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(x)])


def _range_sums(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows=slice(None)):
    """prefix[hi] - prefix[lo] over ``rows``, subtracted in place."""
    out = prefix[hi[rows]]
    out -= prefix[lo[rows]]
    return out


def _current_level_parts(table, beta: float):
    """(score, info, loglik, s0, xbar) of the current-level Breslow
    partial likelihood at beta, from the risk table."""
    _, d0, d1, y0, y1, _ = table
    d = d0 + d1
    theta = np.exp(beta)
    s0 = y0 + theta * y1
    xbar = theta * y1 / s0
    loglik = float(beta * d1.sum() - np.sum(d * np.log(s0)))
    score = float(d1.sum() - np.sum(d * xbar))
    info = float(np.sum(d * xbar * (1.0 - xbar)))
    return score, info, loglik, s0, xbar


def _require_both_strata(d0: np.ndarray, d1: np.ndarray) -> None:
    if not (d0.any() and d1.any()):
        raise ConvergenceError("all events in one stratum: monotone partial likelihood")


def _require_small_step(step, theta) -> None:
    """On a monotone partial likelihood the score and the information
    decay together as the coefficients grow, so the score test passes
    while the Newton step stays near 1; a converged fit's step is tiny."""
    if np.max(np.abs(step)) > _STEP_TOL * max(1.0, np.max(np.abs(theta))):
        raise ConvergenceError("divergent coefficient: monotone partial likelihood")


def _newton(parts, p: int):
    """Newton-Raphson in p coefficients from theta = 0, where
    parts(theta) = (score, info, *rest) with p and p*p entries.  Returns
    (theta, iterations, info, rest) once the score test passes and the
    step left is small; raises ConvergenceError on any other outcome."""
    theta = np.zeros(p)
    for iterations in range(_MAX_NEWTON):
        score, info, *rest = parts(theta)
        score = np.reshape(score, p)
        try:
            step = np.linalg.solve(np.reshape(info, (p, p)), score)
        except np.linalg.LinAlgError:
            step = np.full(p, np.nan)  # exactly singular: no step
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("singular information in partial-likelihood fit")
        if np.max(np.abs(score)) < _SCORE_TOL:
            _require_small_step(step, theta)
            return theta, iterations, info, rest
        del rest  # before the next iteration makes its own
        theta = theta + step
        if np.max(np.abs(theta)) > _DIVERGENCE_BOUND:
            raise ConvergenceError("divergent coefficient: monotone partial likelihood")
    raise ConvergenceError(f"no convergence in {_MAX_NEWTON} Newton steps")


def _fit_current_level(col: dict[str, np.ndarray], risk) -> CoxFit:
    _, d0, d1, _, _, event_k = risk
    (beta,), iterations, info, (loglik, s0, xbar) = _newton(
        lambda theta: _current_level_parts(risk, theta[0]), 1
    )

    # Robust part: per-row score residuals, summed within subject.
    # Expected-part sums over event times in (start, stop] come from
    # prefix sums over the unique-time axis, a block of rows at a time.
    treat, ev = col["treat"], col["event"]
    d = d0 + d1
    p_level, p_mean = _padded_cumsum(d / s0), _padded_cumsum(d * xbar / s0)
    residual = np.zeros(treat.size)
    residual[ev] = treat[ev] - xbar[event_k]
    for rows, lo, hi in _row_blocks(col, risk):
        x = treat[rows]
        expected = _range_sums(p_level, lo, hi)
        expected *= x
        expected -= _range_sums(p_mean, lo, hi)
        expected *= np.exp(beta * x)
        residual[rows] -= expected
    u_i = np.bincount(_subject_codes(col["id"]), weights=residual)
    robust_var = float(np.sum(u_i**2)) / info**2
    return CoxFit(
        beta_hat=float(beta),
        model_se=float(np.sqrt(1.0 / info)),
        robust_se=float(np.sqrt(robust_var)),
        iterations=iterations,
        loglik=loglik,
    )


def _duration_parts(col: dict[str, np.ndarray], treated, u: np.ndarray, risk, sum_ev_x):
    """The function theta -> (score, info, s0, xbar) of the
    duration-augmented partial likelihood at theta = (beta, gamma), s0
    and xbar being the risk-set sums and means of (level, time since
    initiation) at each event time; ``sum_ev_x`` sums those over events.

    A treated row with initiation time u (``u``, in treated-row order)
    weighs e^{beta + gamma*(t - u)} = e^{beta + gamma*t} e^{-gamma*u} at
    event time t, so the risk-set sums reduce to T_k(t), the sums of
    e^{-gamma*u} * u^k over treated rows at risk at t: differences of
    prefix sums in start and in stop order, whose sort orders and
    risk-set positions are computed once here.  Where no treated row is
    at risk that difference is roundoff, so it is set to exactly 0.
    """
    uniq, d0, d1, y0, y1, _ = risk
    d = d0 + d1
    sides = []
    for key in ("start", "stop"):
        bounds = col[key][treated]
        order = np.argsort(bounds, kind="stable")
        sides.append((order, np.searchsorted(bounds[order], uniq, side="left")))
    (in_order, entered), (out_order, exited) = sides
    no_treated = y1 == 0

    def at_risk(m: np.ndarray) -> np.ndarray:
        out = _padded_cumsum(m[in_order])[entered] - _padded_cumsum(m[out_order])[exited]
        out[no_treated] = 0.0
        return out

    def parts(theta: np.ndarray):
        beta, gamma = theta
        w = np.exp(-gamma * u)
        t0, t1, t2 = (at_risk(m) for m in (w, u * w, u * u * w))
        w = np.exp(beta + gamma * uniq)
        # risk-set moments of (1, t - u) under the exponential weight
        m1a = w * t0
        s0 = y0 + m1a
        m1b = w * (uniq * t0 - t1)
        m2bb = w * (uniq**2 * t0 - 2 * uniq * t1 + t2)
        xbar = np.stack([m1a / s0, m1b / s0], axis=1)
        score = sum_ev_x - np.array([np.sum(d * xbar[:, 0]), np.sum(d * xbar[:, 1])])
        i00 = np.sum(d * (m1a / s0 - xbar[:, 0] ** 2))
        i01 = np.sum(d * (m1b / s0 - xbar[:, 0] * xbar[:, 1]))
        i11 = np.sum(d * (m2bb / s0 - xbar[:, 1] ** 2))
        return score, np.array([[i00, i01], [i01, i11]]), s0, xbar

    return parts


def _fit_duration(col: dict[str, np.ndarray], risk) -> CoxFit:
    """Two-covariate model: current level and time since initiation."""
    uniq, d0, d1, _, _, event_k = risk
    subject = _subject_codes(col["id"])
    d = d0 + d1
    ev, treat = col["event"], col["treat"]
    tr = treat == 1
    u_tr = _initiation_times(col, subject, tr)
    # per-event covariates (level, time since initiation) in row order;
    # the score and log-likelihood sum them in event-time order
    x_ev = np.zeros((event_k.size, 2))
    x_ev[:, 0] = treat[ev]
    x_ev[tr[ev], 1] = col["stop"][ev & tr] - u_tr[ev[tr]]
    by_time = np.argsort(event_k, kind="stable")
    parts = _duration_parts(col, tr, u_tr, risk, x_ev[by_time].sum(axis=0))
    theta, iterations, info, (s0, xbar) = _newton(parts, 2)
    loglik = float(np.sum(x_ev[by_time] @ theta) - np.sum(d * np.log(s0)))
    del parts, by_time  # the treated rows' sort orders go with parts
    beta, gamma = theta
    cov_model = np.linalg.inv(info)

    # Robust part, one residual array per covariate: per-row score
    # residuals, summed within subject.  Expected-part sums over the
    # event times in (start, stop] come from prefix sums over the
    # unique times, a block of rows at a time; treated rows need the
    # e^{gamma*t_k} weighted variants.
    residuals = np.zeros((2, ev.size))
    residuals[:, ev] = (x_ev - xbar[event_k]).T
    egt = np.exp(gamma * uniq)
    p_q0 = _padded_cumsum(d * egt / s0)
    p_level = _padded_cumsum(d * egt * xbar[:, 0] / s0)
    p_time = _padded_cumsum(d * uniq * egt / s0)
    p_duration = _padded_cumsum(d * egt * xbar[:, 1] / s0)
    # an untreated row's expected part is minus these sums
    p_untreated = [_padded_cumsum(d * xbar[:, c] / s0) for c in (0, 1)]
    first = 0
    for rows, lo, hi in _row_blocks(col, risk):
        tr_b = tr[rows]
        last = first + np.count_nonzero(tr_b)
        u_b = u_tr[first:last]
        w_b = np.exp(beta - gamma * u_b)
        first = last
        q0 = _range_sums(p_q0, lo, hi, tr_b)
        expected = (
            w_b * (q0 - _range_sums(p_level, lo, hi, tr_b)),
            w_b * (_range_sums(p_time, lo, hi, tr_b) - _range_sums(p_duration, lo, hi, tr_b) - u_b * q0),
        )
        for residual, expected_tr, p in zip(residuals, expected, p_untreated):
            block = residual[rows]
            block[tr_b] -= expected_tr
            block[~tr_b] += _range_sums(p, lo, hi, ~tr_b)
    del p_q0, p_level, p_time, p_duration, p_untreated  # before the bincounts
    u_i = np.stack([np.bincount(subject, weights=r) for r in residuals], axis=1)
    meat = u_i.T @ u_i
    cov_robust = cov_model @ meat @ cov_model
    return CoxFit(
        beta_hat=(float(beta), float(gamma)),
        model_se=(float(np.sqrt(cov_model[0, 0])), float(np.sqrt(cov_model[1, 1]))),
        robust_se=(float(np.sqrt(cov_robust[0, 0])), float(np.sqrt(cov_robust[1, 1]))),
        iterations=iterations,
        loglik=loglik,
    )


def cox_fit(rows: CountingTable, covariates: str = "current") -> CoxFit:
    """Maximize the Breslow partial likelihood by Newton-Raphson.

    covariates="current" fits the single binary current-level
    coefficient; "duration" adds time since initiation, recomputed at
    each event time inside the risk set.  Both return model-based and
    subject-clustered sandwich standard errors.
    """
    if covariates not in ("current", "duration"):
        raise ValueError(f"unknown covariate set {covariates!r}")
    rows = CountingTable.coerce(rows)
    if not np.any(rows.event):
        raise ValueError("need at least one event to fit")
    fit = _fit_current_level if covariates == "current" else _fit_duration
    risk = _risk_table(rows)
    _require_both_strata(risk[1], risk[2])
    return fit(rows.columns, risk)


def cox_loglik_parts(rows: CountingTable, beta: float) -> tuple[float, float, float]:
    """(loglik, score, information) of the current-level model at beta.

    Exposed so the analytic gradient can be checked against finite
    differences of the log partial likelihood.
    """
    rows = CountingTable.coerce(rows)
    if not np.any(rows.event):
        raise ValueError("need at least one event")
    score, info, loglik, _, _ = _current_level_parts(_risk_table(rows), beta)
    return loglik, score, info


def aalen_additive(rows: CountingTable) -> AalenAdditiveFit:
    """Least-squares additive increments for the two-level design.

    With a binary level the normal equations solve in closed form:
    dB0 = dN0/Y0 and dB1 = dN1/Y1 - dN0/Y0.  Both come from the same
    risk table as the treatment-specific cumulative rate estimator, on
    the union of the event times, so B0 is that estimator's untreated
    curve exactly, not merely to rounding.
    """
    times, d0, d1, y0, y1, _ = _risk_table(rows)
    jump0, jump1 = _jumps(d0, y0), _jumps(d1, y1)
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
