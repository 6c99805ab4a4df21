"""Trajectory simulation by inverse-transform sampling.

Event times are drawn by inverting cumulative hazards at unit
exponential draws, matching the piecewise-linear grid convention used
by the analytic code, so simulated cohorts and the rate engine describe
the same law up to O(step^2).

Randomness comes from a counter-based Philox generator keyed by the
seed.  Each subject consumes a fixed set of variates (one slot per
array draw below, at the subject's index), so results depend only on
(seed, n), never on evaluation order, and cohorts can be reproduced or
sharded deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .frailty import ConditionalHazardSpec, FrailtySpec, TreatmentPath
from .grid import GridFunction, cumulative
from .model import Cohort, CountingTable, IllnessDeathModel, Trajectory
from .numerics import invert_monotone

__all__ = [
    "SimConfig",
    "simulate_cohort",
    "sample_frailty_cohort",
    "to_counting_rows",
]

# Chunk size for the per-subject grid scan used only when frailty
# rescales the exit hazard (keeps the temporary matrix small).
_CHUNK = 4096

# Nudge applied when roundoff would put a death at exactly the
# initiation instant; keeps u_init < t_event strict.
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Cohort size, seed, censoring horizon, and optional frailty.

    ``t_max=None`` censors at the model grid horizon.  When ``frailty``
    is given, each subject's death hazards (but not the initiation
    hazard) are multiplied by an independent frailty draw.
    """

    n: int
    seed: int
    t_max: Optional[float] = None
    frailty: Optional[FrailtySpec] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        if self.t_max is not None and not (np.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _exit_times(
    lam0_cum: np.ndarray, step: float, e0: np.ndarray, z: Optional[np.ndarray],
    lam01_cum: np.ndarray, lam02_cum: np.ndarray,
) -> np.ndarray:
    """First time the state-0 exit cumulative reaches e0 (NaN if never).

    Without frailty the cumulative is shared, so one vectorized
    inversion suffices; with frailty the per-subject cumulative is
    lam01_cum + z * lam02_cum and subjects are scanned in chunks.
    """
    if z is None:
        return invert_monotone(lam0_cum, step, e0)
    out = np.full(e0.shape, np.nan)
    times = np.arange(lam01_cum.size) * step
    for lo in range(0, e0.size, _CHUNK):
        hi = min(lo + _CHUNK, e0.size)
        L = lam01_cum[None, :] + z[lo:hi, None] * lam02_cum[None, :]
        reached = L >= e0[lo:hi, None]
        any_hit = reached[:, -1]
        idx = np.argmax(reached, axis=1)
        t = np.full(hi - lo, np.nan)
        inner = any_hit & (idx > 0)
        rows = np.nonzero(inner)[0]
        if rows.size:
            j = idx[rows]
            v_lo = L[rows, j - 1]
            dv = L[rows, j] - v_lo
            t[rows] = times[j - 1] + (e0[lo:hi][rows] - v_lo) / dv * step
        t[any_hit & (idx == 0)] = 0.0
        out[lo:hi] = t
    return out


def _assemble(
    ids: np.ndarray,
    t_exit: np.ndarray,
    is_treat: np.ndarray,
    t_death_treated: np.ndarray,
    t_cens: float,
    z: Optional[np.ndarray],
) -> Cohort:
    """Combine exit, cause, and post-initiation death into a cohort.

    A subject whose state-0 exit falls after t_cens (or never comes) is
    censored there untreated; an untreated exit is a death; a treated
    exit before t_cens is an initiation, followed by death at
    max(t_death_treated, u + _TIME_EPS) or censoring at t_cens.
    """
    exits = ~(np.isnan(t_exit) | (t_exit > t_cens))
    dies_untreated = exits & ~is_treat
    initiates = exits & is_treat & (t_exit < t_cens)
    dies_treated = initiates & (t_death_treated <= t_cens)
    t_event = np.full(ids.size, float(t_cens))
    t_event[dies_untreated] = t_exit[dies_untreated]
    t_event[dies_treated] = np.maximum(
        t_death_treated[dies_treated], t_exit[dies_treated] + _TIME_EPS
    )
    return Cohort(
        id=ids,
        u_init=np.where(initiates, t_exit, np.nan),
        t_event=t_event,
        event=dies_untreated | dies_treated,
        frailty=np.full(ids.size, np.nan) if z is None else z,
    )


def simulate_cohort(model: IllnessDeathModel, config: SimConfig) -> Cohort:
    """Simulate config.n subjects from the illness-death model.

    Per subject the draws are: exit clock, cause coin, post-initiation
    death clock (and the frailty value first when applicable).  The exit
    time solves Lam01 + z*Lam02 >= e; the cause at the drawn time is
    treatment with probability lam01 / (lam01 + z*lam02), the exact
    ratio of the competing intensities there.
    """
    t_cens = model.t_max if config.t_max is None else min(config.t_max, model.t_max)
    rng = _rng(config.seed)
    n = config.n
    z = None if config.frailty is None else config.frailty.sample(rng, n)
    e0 = rng.exponential(size=n)
    cause_coin = rng.uniform(size=n)
    e1 = rng.exponential(size=n)

    lam01_cum = cumulative(model.lambda01).values
    lam02_cum = cumulative(model.lambda02).values
    lam0_cum = lam01_cum + lam02_cum
    t_exit = _exit_times(lam0_cum, model.step, e0, z, lam01_cum, lam02_cum)

    t_safe = np.where(np.isnan(t_exit), 0.0, t_exit)
    lam01_at = model.lambda01(t_safe)
    lam02_at = model.lambda02(t_safe) * (1.0 if z is None else z)
    total = lam01_at + lam02_at
    with np.errstate(invalid="ignore", divide="ignore"):
        p_treat = np.where(total > 0, lam01_at / np.where(total > 0, total, 1.0), 0.0)
    is_treat = cause_coin < p_treat

    t_death_treated = np.full(n, np.inf)
    treated = is_treat & ~np.isnan(t_exit)
    if np.any(treated):
        scale = 1.0 if z is None else z[treated]
        t_death_treated[treated] = model.lambda12.invert_cumulative(
            t_safe[treated], e1[treated] / scale
        )
    ids = np.arange(n)
    return _assemble(ids, t_exit, is_treat, t_death_treated, t_cens, z)


def sample_frailty_cohort(
    spec: ConditionalHazardSpec,
    frailty: FrailtySpec,
    exposure_hazard: GridFunction,
    config: SimConfig,
) -> Cohort:
    """Simulate the frailty cohort: Z, exposure initiation, death.

    Exposure initiation has hazard ``exposure_hazard`` independent of Z;
    death has hazard Z * h(t, a(t)) along the realized path.  Because
    initiation does not depend on the death clock, the two exponential
    races can be drawn independently and resolved afterwards.  Draw
    order per subject: frailty, exposure clock, death clock.
    """
    if not exposure_hazard.same_grid(spec.h0):
        raise ValueError("exposure hazard must live on the spec grid")
    t_cens = spec.t_max if config.t_max is None else min(config.t_max, spec.t_max)
    rng = _rng(config.seed)
    n = config.n
    z = frailty.sample(rng, n)
    e_expo = rng.exponential(size=n)
    e_death = rng.exponential(size=n)

    lam_a_cum = cumulative(exposure_hazard).values
    h0_cum = cumulative(spec.h0).values
    h1_cum = cumulative(spec.h1).values
    step = spec.step
    times = spec.h0.times

    u = invert_monotone(lam_a_cum, step, e_expo)  # NaN: never initiates
    target = e_death / z
    h0_at_u = np.where(np.isnan(u), np.inf, np.interp(np.where(np.isnan(u), 0, u), times, h0_cum))

    dies_untreated = target <= h0_at_u
    t_dead = np.full(n, np.inf)
    if np.any(dies_untreated):
        t0 = invert_monotone(h0_cum, step, target[dies_untreated])
        t_dead[dies_untreated] = np.where(np.isnan(t0), np.inf, t0)
    treated_phase = ~dies_untreated  # implies u is a real time
    if np.any(treated_phase):
        h1_at_u = np.interp(u[treated_phase], times, h1_cum)
        target2 = h1_at_u + (target[treated_phase] - h0_at_u[treated_phase])
        t1 = invert_monotone(h1_cum, step, target2)
        t1 = np.where(np.isnan(t1), np.inf, np.maximum(t1, u[treated_phase] + _TIME_EPS))
        t_dead[treated_phase] = t1

    t_event = np.minimum(t_dead, t_cens)
    treated = ~np.isnan(u) & (u < t_event)
    return Cohort(
        id=np.arange(n),
        u_init=np.where(treated, u, np.nan),
        t_event=t_event,
        event=t_dead <= t_cens,
        frailty=z,
    )


def to_counting_rows(trajectories: Sequence[Trajectory]) -> CountingTable:
    """Expand trajectories into at-risk intervals split at initiation.

    A never-treated subject yields one untreated interval; a treated
    subject yields the untreated interval (0, u] and the treated
    interval (u, t_event].  Initiation at time zero (or within roundoff
    of it) yields only the treated interval.  Rows keep subject order,
    each subject's untreated row before its treated one.
    """
    cohort = Cohort.coerce(trajectories)
    u = cohort.u_init
    treated = ~np.isnan(u)
    split = treated & (u > _TIME_EPS)
    subject = np.repeat(np.arange(len(cohort)), np.where(split, 2, 1))
    # the second row of a split subject is its treated interval
    second = np.zeros(subject.size, dtype=bool)
    second[1:] = subject[1:] == subject[:-1]
    first_of_split = split[subject] & ~second
    return CountingTable(
        id=cohort.id[subject],
        start=np.where(second, u[subject], 0.0),
        stop=np.where(first_of_split, u[subject], cohort.t_event[subject]),
        treat=(second | (treated[subject] & ~split[subject])).astype(np.int64),
        event=cohort.event[subject] & ~first_of_split,
    )
