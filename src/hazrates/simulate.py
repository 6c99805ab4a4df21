"""Trajectory simulation by inverse-transform sampling.

Event times are drawn by inverting cumulative hazards at unit
exponential draws, matching the piecewise-linear grid convention used
by the analytic code, so simulated cohorts and the rate engine describe
the same law up to O(step^2).

Randomness comes from a counter-based Philox generator keyed by the
seed.  Each subject consumes a fixed set of variates (one slot per
array draw below, at the subject's index), so results depend only on
(seed, n), never on evaluation order, and cohorts can be reproduced or
sharded deterministically.  The draws come in a fixed order (frailty,
exit clock, cause coin, death clock), each made just before the step
that uses it and freed once that step is done, so a simulation holds a
few arrays of n at a time.  The cohort and its rows adopt the columns
made here without copying them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .frailty import ConditionalHazardSpec, FrailtySpec
from .grid import GridFunction, cumulative
from .kernels import MarkovKernel
from .model import Cohort, CountingTable, IllnessDeathModel
from .numerics import first_crossing

__all__ = [
    "SimConfig",
    "simulate_cohort",
    "sample_frailty_cohort",
    "to_counting_rows",
]

# Nudge applied when roundoff would put a death at exactly the
# initiation instant; keeps u_init < t_event strict.
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Cohort size, seed, and optional frailty.

    Cohorts are censored at the model grid horizon.  When ``frailty``
    is given, each subject's death hazards (but not the initiation
    hazard) are multiplied by an independent frailty draw.
    """

    n: int
    seed: int
    frailty: Optional[FrailtySpec] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _exit_times(
    step: float, e0: np.ndarray, z: Optional[np.ndarray],
    lam01_cum: np.ndarray, lam02_cum: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First time the state-0 exit cumulative reaches e0 (NaN if never),
    and the grid cell holding it.

    Without frailty the cumulative lam01_cum + lam02_cum is shared by
    all subjects; with frailty it is lam01_cum + z * lam02_cum per
    subject.  Either is nondecreasing along the grid, and
    ``first_crossing`` finds each subject's crossing, a block of
    subjects at a time.  The cell is the one ``np.interp`` reads the
    exit time in: t lies in [cell * step, (cell + 1) * step), or on the
    last node.  Where no exit comes t is NaN, which reads NaN in any
    cell.
    """
    if z is None:
        exit_cum = lam01_cum + lam02_cum

        def value_at(node, rows):
            return exit_cum[node]
    else:
        def value_at(node, rows):
            return lam01_cum[node] + z[rows] * lam02_cum[node]

    t, cell = first_crossing(value_at, lam01_cum.size, step, e0)
    # a crossing at the far edge of its cell lies on the next node
    cell += t >= (cell + 1) * step
    return t, cell


def _treat_probability(
    model: IllnessDeathModel, z: Optional[np.ndarray], cell: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """lam01 / (lam01 + z*lam02) at each exit time t, in its grid cell.

    The hazards are nonnegative, so where the total vanishes lam01 is 0
    and so is the probability; it is NaN where t is (no exit), and no
    cause is drawn there.  Working in place frees every temporary
    before the caller goes on to the death times.
    """
    lam01 = model.lambda01.in_cell(cell, t)
    if model.lambda02.step == model.step:
        lam02 = model.lambda02.in_cell(cell, t)
    else:  # the same grid only within NODE_TOL: its nodes lie elsewhere
        lam02 = model.lambda02(t)
    if z is not None:
        lam02 *= z
    lam02 += lam01
    np.divide(lam01, lam02, out=lam01, where=lam02 > 0)
    return lam01


def _assemble(
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
    max(t_death_treated, u + _TIME_EPS) or censoring at t_cens.  The
    cohort adopts t_exit, overwritten in place, as its u_init column,
    and z as its frailty column.
    """
    n = t_exit.size
    exits = ~(np.isnan(t_exit) | (t_exit > t_cens))
    dies_untreated = exits & ~is_treat
    initiates = exits & is_treat & (t_exit < t_cens)
    del exits
    dies_treated = initiates & (t_death_treated <= t_cens)
    t_event = np.where(dies_untreated, t_exit, float(t_cens))
    np.add(t_exit, _TIME_EPS, out=t_event, where=dies_treated)
    np.maximum(t_death_treated, t_event, out=t_event, where=dies_treated)
    u_init = t_exit
    np.copyto(u_init, np.nan, where=~initiates)
    return Cohort._adopt(
        id=np.arange(n),
        u_init=u_init,
        t_event=t_event,
        event=dies_untreated | dies_treated,
        frailty=np.full(n, np.nan) if z is None else z,
    )


def simulate_cohort(model: IllnessDeathModel, config: SimConfig) -> Cohort:
    """Simulate config.n subjects from the illness-death model.

    Per subject the draws are: exit clock, cause coin, post-initiation
    death clock (and the frailty value first when applicable).  The exit
    time solves Lam01 + z*Lam02 >= e; the cause at the drawn time is
    treatment with probability lam01 / (lam01 + z*lam02), the exact
    ratio of the competing intensities there.  Both hazards are read in
    the grid cell the exit search found, by ``GridFunction.in_cell``,
    so the grid is searched once per subject.
    """
    rng = _rng(config.seed)
    n = config.n
    z = None if config.frailty is None else config.frailty.sample(rng, n)
    lam01_cum = cumulative(model.lambda01).values
    lam02_cum = cumulative(model.lambda02).values
    t_exit, cell = _exit_times(model.step, rng.exponential(size=n), z, lam01_cum, lam02_cum)
    p_treat = _treat_probability(model, z, cell, t_exit)
    del cell
    is_treat = rng.uniform(size=n) < p_treat
    del p_treat

    t_death_treated = np.full(n, np.inf)
    # p_treat is NaN where no exit comes, so treated subjects all exited
    treated = np.flatnonzero(is_treat)
    e1 = rng.exponential(size=n)[treated]
    if z is not None:
        e1 /= z[treated]
    t_death_treated[treated] = model.lambda12.invert_cumulative(t_exit[treated], e1)
    del e1, treated
    return _assemble(t_exit, is_treat, t_death_treated, model.t_max, z)


def sample_frailty_cohort(
    spec: ConditionalHazardSpec,
    frailty: FrailtySpec,
    exposure_hazard: GridFunction,
    config: SimConfig,
) -> Cohort:
    """Simulate the frailty cohort: Z, exposure initiation, death.

    Exposure initiation has hazard ``exposure_hazard`` independent of Z;
    death has hazard Z * h(t, a(t)) along the realized path.  That is
    the illness-death model with lambda01 = exposure, lambda02 = h0 and
    the Markov kernel h1, with Z on the death hazards only, so the
    cohort is ``simulate_cohort`` of that model with ``config.frailty``
    set to ``frailty`` (same draws, same seed rule).
    """
    if not exposure_hazard.same_grid(spec.h0):
        raise ValueError("exposure hazard must live on the spec grid")
    model = IllnessDeathModel(exposure_hazard, spec.h0, MarkovKernel(spec.h1))
    return simulate_cohort(model, replace(config, frailty=frailty))


def to_counting_rows(trajectories: Cohort) -> CountingTable:
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
    return CountingTable._adopt(
        id=cohort.id[subject],
        start=np.where(second, u[subject], 0.0),
        stop=np.where(first_of_split, u[subject], cohort.t_event[subject]),
        treat=(second | (treated[subject] & ~split[subject])).astype(np.int64),
        event=cohort.event[subject] & ~first_of_split,
    )
