"""Estimators over counting-process rows.

Every estimator here shares one risk-set convention: a row (start,
stop] with level a is at risk for a level-a event on the half-open
interval, so Y_a(t) counts rows with start < t <= stop.  Events sit at
row stops, and the level "at" an event time is the level recorded on
the row where the event occurs.  Every estimator's risk sets come from
each row's window on the event-time axis (the event times in its
(start, stop]), found _BLOCK rows at a time, which keeps every estimator
O(n log n) in the number of rows: the risk table counts Y0 and Y1 from
the windows, and both Cox models (current level, and with time since
initiation) read them again for their robust parts.  Their robust score
residuals are summed one covariate at a time, block by block: each
block's residuals go into the subject totals as soon as the block is
done, in row order, so no residual array for the whole table exists.
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
_BLOCK = 32_768  # rows per block of the row windows


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
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate([[self.initial], self.values])
        # searchsorted places NaN after every jump; a NaN time reads NaN
        out = np.where(np.isnan(t), np.nan, padded[idx])
        return float(out) if t.ndim == 0 else out


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


def _risk_table(rows: CountingTable):
    """Risk-set statistics at every unique event time, for both levels.

    Returns (times, d0, d1, y0, y1, kidx): the sorted unique event
    stops, the untreated and treated event counts and at-risk counts
    Y_a(t) there, and each event row's index into times.  Y_a is counted
    from _row_blocks' row windows, _BLOCK rows at a time.  Every
    estimator except the duration-augmented Cox model is a function of
    the first five.  They are computed once per CountingTable and kept
    on it, read-only, so the estimators run on one table share them.
    """
    table = CountingTable.coerce(rows)
    return table._cached("_risk_table", lambda: _risk_arrays(table.columns))


def _risk_arrays(col: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    ev, treat = col["event"], col["treat"]
    times, kidx = np.unique(col["stop"][ev], return_inverse=True)
    d = np.bincount(kidx, minlength=times.size)
    d1 = np.bincount(kidx, weights=treat[ev].astype(float), minlength=times.size)
    # a level-a row is at risk at times[lo:hi]: Y_a is the running sum of
    # +1 at a * (times.size + 1) + lo and -1 at that + hi, in y's flat view
    y = np.zeros((2, times.size + 1), dtype=np.intp)
    for rows, lo, hi in _row_blocks(col, (times, kidx)):
        at = treat[rows] * y.shape[1]
        np.add.at(y.reshape(-1), np.add(lo, at, out=lo), 1)
        np.subtract.at(y.reshape(-1), np.add(hi, at, out=hi), 1)
    y0, y1 = np.cumsum(y[:, :-1], axis=1, dtype=float)  # exact: integers below 2**53
    return times, d - d1, d1, y0, y1, kidx


def _row_blocks(col: dict[str, np.ndarray], risk):
    """Every estimator's row windows, _BLOCK rows at a time: yields (rows,
    lo, hi) for each block, where times[lo:hi] are the event times in
    each row's (start, stop], risk being (times, ..., event_k).  Event
    times are positive, so a zero start has lo = 0, and an event row's
    hi is its event-time index + 1: only the other bounds are searched.
    """
    times, *_, event_k = risk
    start, stop, ev = col["start"], col["stop"], col["event"]
    first = 0
    for a in range(0, start.size, _BLOCK):
        rows = slice(a, a + _BLOCK)
        s, t, e = start[rows], stop[rows], ev[rows]
        lo = np.zeros(s.size, dtype=np.intp)
        late = np.flatnonzero(s > 0.0)
        lo[late] = _sorted_search(times, s[late])
        hi = np.empty(t.size, dtype=np.intp)
        at_event = np.flatnonzero(e)
        last = first + at_event.size
        hi[at_event] = event_k[first:last] + 1
        others = np.flatnonzero(~e)
        hi[others] = _sorted_search(times, t[others])
        del late, at_event, others  # not held while the caller works on the block
        first = last
        yield rows, lo, hi


def _sorted_search(times: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.searchsorted(times, q, side="right"), in sorted order of q so lookups stay in cache."""
    order = np.argsort(q)
    out = np.empty(q.size, dtype=np.intp)
    out[order] = np.searchsorted(times, q[order], side="right")
    return out


def _code_blocks(ids: np.ndarray):
    """(number of subjects, their codes _BLOCK rows at a time): codes
    0, 1, ... of the ids in sorted order, as np.unique's inverse.
    Nondecreasing ids, as the simulator writes them, are coded a block
    at a time by a running count of id changes instead of a sort."""
    if not np.all(ids[1:] >= ids[:-1]):
        codes = np.unique(ids, return_inverse=True)[1]
        return codes.max() + 1, (codes[a : a + _BLOCK] for a in range(0, ids.size, _BLOCK))
    new = np.zeros(ids.size, dtype=bool)  # row starts a subject other than row 0's
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return np.count_nonzero(new) + 1, _running_counts(new)


def _running_counts(new: np.ndarray):
    last = 0
    for a in range(0, new.size, _BLOCK):
        codes = np.cumsum(new[a : a + _BLOCK], dtype=np.intp)
        codes += last
        last = codes[-1]
        yield codes


def _subject_codes(ids: np.ndarray) -> np.ndarray:
    """The subject codes of _code_blocks, for all rows at once."""
    return np.concatenate(list(_code_blocks(ids)[1]))


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


def _initiation_times(col: dict[str, np.ndarray], treated) -> np.ndarray:
    """Each treated row's initiation time: its subject's earliest treated-row start."""
    subject = _subject_codes(col["id"])[treated]
    u_by_subject = np.full(subject.max() + 1, np.inf)
    np.minimum.at(u_by_subject, subject, col["start"][treated])
    return u_by_subject[subject]


def _subject_totals(col: dict[str, np.ndarray], risk, residual, *args) -> np.ndarray:
    """Per-subject totals of the per-row values residual(rows, lo, hi,
    *args), made for one of _row_blocks' blocks at a time and added as
    soon as it is made.  np.add.at adds in row order, so every subject
    is summed in row order, as by np.bincount over all rows, however a
    block edge cuts its rows."""
    count, codes = _code_blocks(col["id"])
    totals = np.zeros(count)
    for rows, lo, hi in _row_blocks(col, risk):
        values = residual(rows, lo, hi, *args)
        np.add.at(totals, next(codes), values)
        del lo, hi, values  # before the next block's bounds are searched
    return totals


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
    _, d0, d1, *_ = risk
    (beta,), iterations, info, (loglik, s0, xbar) = _newton(
        lambda theta: _current_level_parts(risk, theta[0]), 1
    )

    # Robust part: per-row score residuals, summed within subject a
    # block of rows at a time.  Expected-part sums over event times in
    # (start, stop] come from prefix sums over the unique-time axis.
    treat, ev = col["treat"], col["event"]
    d = d0 + d1
    p_level, p_mean = _padded_cumsum(d / s0), _padded_cumsum(d * xbar / s0)
    del d, s0

    def residual(rows, lo, hi):
        x = treat[rows]
        events = np.flatnonzero(ev[rows])
        out = np.zeros(x.size)
        out[events] = x[events] - xbar[hi[events] - 1]  # an event row's hi is its time index + 1
        expected = _range_sums(p_level, lo, hi)
        expected *= x
        expected -= _range_sums(p_mean, lo, hi)
        expected *= np.exp(beta * x)
        out -= expected
        return out

    u_i = _subject_totals(col, risk, residual)
    robust_var = float(np.sum(u_i**2)) / info**2
    return CoxFit(
        beta_hat=float(beta),
        model_se=float(np.sqrt(1.0 / info)),
        robust_se=float(np.sqrt(robust_var)),
        iterations=iterations,
        loglik=loglik,
    )


def _duration_parts(col: dict[str, np.ndarray], treated, u: np.ndarray, risk, d, sum_ev_x):
    """The function theta -> (score, info, s0, xbar0, xbar1) of the
    duration-augmented partial likelihood at theta = (beta, gamma), s0
    being the risk-set sums and xbar0, xbar1 the risk-set means of level
    and time since initiation at each event time, where ``d`` counts the
    events; ``sum_ev_x`` sums the two covariates over events.

    A treated row with initiation time u (``u``, in treated-row order)
    weighs e^{beta + gamma*(t - u)} = e^{beta + gamma*t} e^{-gamma*u} at
    event time t, so the risk-set sums reduce to T_k(t), the sums of
    e^{-gamma*u} * u^k over treated rows at risk at t: differences of
    prefix sums in start and in stop order, for which u in each order
    and the risk-set positions are computed once here.  Where no
    treated row is at risk that difference is roundoff, so it is set to
    exactly 0.  Each call builds its moments in place.
    """
    uniq, _, _, y0, y1, _ = risk
    sides = []
    for key in ("start", "stop"):
        bounds = col[key][treated]
        order = np.argsort(bounds, kind="stable")
        sides.append((u[order], np.searchsorted(bounds[order], uniq, side="left")))
    (u_in, entered), (u_out, exited) = sides
    no_treated = y1 == 0
    prefix = np.zeros(u.size + 1)

    def at_risk(m_in: np.ndarray, m_out: np.ndarray) -> np.ndarray:
        """T(t) at each event time, from m in start and in stop order."""
        np.cumsum(m_in, out=prefix[1:])
        out = prefix[entered]
        np.cumsum(m_out, out=prefix[1:])
        out -= prefix[exited]
        out[no_treated] = 0.0
        return out

    def parts(theta: np.ndarray):
        beta, gamma = theta
        w_in, w_out = np.exp(-gamma * u_in), np.exp(-gamma * u_out)
        t0 = at_risk(w_in, w_out)
        t1 = at_risk(u_in * w_in, u_out * w_out)
        t2 = at_risk(u_in * u_in * w_in, u_out * u_out * w_out)
        del w_in, w_out
        # risk-set moments of (1, t - u) under the exponential weight w,
        # m1a = w*t0, m1b = w*(t*t0 - t1), m2bb = w*(t^2*t0 - 2*t*t1 + t2),
        # built in place so that a step holds at most six arrays like t0
        m1b = uniq * t0
        m1b -= t1
        t1 *= 2 * uniq
        m2bb = np.subtract(uniq**2 * t0, t1, out=t1)
        m2bb += t2
        del t2
        w = np.exp(beta + gamma * uniq)
        m1b *= w
        m2bb *= w
        m1a = t0
        m1a *= w
        del w
        s0 = y0 + m1a
        xbar0 = np.divide(m1a, s0, out=m1a)
        xbar1 = np.divide(m1b, s0, out=m1b)
        m2bb /= s0
        score = sum_ev_x - np.array([np.sum(d * xbar0), np.sum(d * xbar1)])
        i00 = np.sum(d * (xbar0 - xbar0**2))
        i01 = np.sum(d * (xbar1 - xbar0 * xbar1))
        i11 = np.sum(d * (m2bb - xbar1**2))
        return score, np.array([[i00, i01], [i01, i11]]), s0, xbar0, xbar1

    return parts


def _event_covariates(col: dict[str, np.ndarray], treated, u: np.ndarray, risk) -> np.ndarray:
    """Each event's (level, time since initiation), in event-time order
    and in row order among tied events.  Without ties each event row's
    time index is its rank, so no sort is needed."""
    times, *_, event_k = risk
    rank = event_k if times.size == event_k.size else np.argsort(np.argsort(event_k, kind="stable"))
    ev = col["event"]
    rows = np.flatnonzero(ev)
    x = np.zeros((event_k.size, 2))
    x[rank, 0] = col["treat"][rows]
    at_treated = np.flatnonzero(col["treat"][rows])
    x[rank[at_treated], 1] = col["stop"][rows[at_treated]] - u[ev[treated]]
    return x


def _fit_duration(col: dict[str, np.ndarray], risk) -> CoxFit:
    """Two-covariate model: current level and time since initiation."""
    uniq, d0, d1, *_ = risk
    d = d0 + d1
    ev, treat, stop = col["event"], col["treat"], col["stop"]
    tr = np.flatnonzero(treat == 1)  # the treated rows: gathers by an index beat a mask
    u_tr = _initiation_times(col, tr)
    # the score and the log-likelihood sum the event covariates in
    # event-time order; they are made again for the log-likelihood, so
    # as not to be held through the Newton steps
    sum_ev_x = _event_covariates(col, tr, u_tr, risk).sum(axis=0)
    parts = _duration_parts(col, tr, u_tr, risk, d, sum_ev_x)
    theta, iterations, info, (s0, xbar0, xbar1) = _newton(parts, 2)
    del parts  # u in start and in stop order and the risk-set positions go with it
    loglik = float(np.sum(_event_covariates(col, tr, u_tr, risk) @ theta) - np.sum(d * np.log(s0)))
    del d
    beta, gamma = theta
    cov_model = np.linalg.inv(info)

    # Robust part, one covariate at a time: per-row score residuals,
    # summed within subject a block of rows at a time.  Expected-part
    # sums over the event times in (start, stop] come from prefix sums
    # over the unique times; treated rows need the e^{gamma*t_k}
    # weighted variants, and an untreated row's expected part is minus
    # the plain one.  Each prefix sum makes its own d, so that no d is
    # held through a pass.
    def prefix(*factors):
        """The padded cumulative sums of d * factors[0] * ... / s0."""
        x = d0 + d1
        for f in factors:
            x *= f
        x /= s0
        return _padded_cumsum(x)

    def residual(rows, lo, hi, level, xbar, p_untreated):
        """A block's per-row score residuals for the level covariate, or
        else for the duration."""
        tr_b = treat[rows] == 1
        first = np.searchsorted(tr, rows.start)  # the block's u are u_tr[first:]
        u_b = u_tr[first : first + np.count_nonzero(tr_b)]
        events = np.flatnonzero(ev[rows])
        x = np.zeros(events.size)  # the covariate at the events
        at_treated = tr_b[events]
        x[at_treated] = 1.0 if level else stop[rows][events[at_treated]] - u_b[ev[rows][tr_b]]
        out = np.zeros(tr_b.size)
        out[events] = x - xbar[hi[events] - 1]  # an event row's hi is its time index + 1
        del events, x, at_treated
        untreated = np.flatnonzero(~tr_b)
        out[untreated] += _range_sums(p_untreated, lo, hi, untreated)
        del untreated
        treated = np.flatnonzero(tr_b)
        q0 = _range_sums(p_q0, lo, hi, treated)
        if level:
            expected = q0 - _range_sums(p_level, lo, hi, treated)
        else:
            expected = (
                _range_sums(p_time, lo, hi, treated) - _range_sums(p_duration, lo, hi, treated) - u_b * q0
            )
        out[treated] -= np.exp(beta - gamma * u_b) * expected
        return out

    egt = np.exp(gamma * uniq)
    p_q0, p_level = prefix(egt), prefix(egt, xbar0)
    del egt  # made again below: held through the level pass, it would set the peak
    level = _subject_totals(col, risk, residual, True, xbar0, prefix(xbar0))
    del p_level, xbar0
    egt = np.exp(gamma * uniq)
    p_time, p_duration, p_untreated = prefix(uniq, egt), prefix(egt, xbar1), prefix(xbar1)
    del egt, s0
    duration = _subject_totals(col, risk, residual, False, xbar1, p_untreated)
    del p_q0, p_time, p_duration, p_untreated
    u_i = np.stack([level, duration], axis=1)
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
