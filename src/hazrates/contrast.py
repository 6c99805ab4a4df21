"""Potential-outcome survival under fixed treatment regimes, and the
rate-based transform it is contrasted with.

A regime is a ``TreatmentPath``.  Along the enforced path the death
hazard is known exactly, so potential survival is exp(-path.load) with
no estimation involved.  rate_based_survival applies the same transform
to a rate function; the difference between the two is the quantity of
interest, since the transform is only valid for hazards.
"""

from __future__ import annotations

import numpy as np

from .construct import ratio_of_rates
from .grid import NODE_TOL, GridFunction, cumulative
from .model import IllnessDeathModel, TreatmentPath

__all__ = [
    "potential_survival",
    "rate_based_survival",
    "causal_hazard_ratio",
    "duration_model_ratio",
]


# the acceptance criteria (tests/test_acceptance.py) import the path type by this name
Regime = TreatmentPath


def potential_survival(model: IllnessDeathModel, regime: TreatmentPath) -> GridFunction:
    """Survival of the death time when treatment follows the regime.

    exp(-Lam02(min(t, u)) - K12(u, max(t, u))) for initiation at u, so
    exp(-Lam02(t)) when never treated and exp(-K12(0, t)) when always
    treated.  No occupation probabilities enter: the regime fixes the
    path, so this is the correct interventional curve the rate-based
    transform is judged against.
    """
    if regime.u_init is not None and regime.u_init > model.t_max + NODE_TOL:
        raise ValueError(f"initiation time {regime.u_init} beyond grid horizon {model.t_max}")
    load = regime.load(cumulative(model.lambda02), model.lambda12, model.times)
    return GridFunction(model.t_max, model.step, np.exp(-load))


def rate_based_survival(rate: GridFunction) -> GridFunction:
    """exp of minus the cumulative rate.

    This is the survival-scale transform that is exact for a hazard but
    generally wrong for a rate, because a rate averages over survivors
    with mixed treatment histories.
    """
    cum = cumulative(rate)
    return cum.with_values(np.exp(-cum.values))


def causal_hazard_ratio(model: IllnessDeathModel) -> GridFunction:
    """Pointwise hazard ratio between treated-from-0 and never-treated.

    lambda12(t | 0) / lambda02(t) on the grid.  This is the causally
    meaningful ratio a proportional-rates fit is mistaken for.
    """
    lam02 = model.lambda02
    return ratio_of_rates(lam02.with_values(model.lambda12.value(model.times, 0.0)), lam02)


def duration_model_ratio(lambda0: GridFunction, beta: float, gamma: float, t: float) -> float:
    """Log-survival ratio at t implied by the duration-augmented model.

    Under a rate model with coefficients beta for current level and
    gamma for time on treatment, the always-vs-never log-survival ratio
    is e^beta * int_0^t lambda0(u) e^{gamma u} du / int_0^t lambda0(u) du,
    a time-dependent quantity unless gamma = 0.  Both integrals are
    read off the trapezoid cumulatives, interpolated between nodes.
    """
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t!r}")
    weighted = lambda0.with_values(lambda0.values * np.exp(gamma * lambda0.times))
    denom = cumulative(lambda0)(t)
    if denom <= 0:
        raise ValueError(f"cumulative baseline vanishes on [0, {t}]")
    # the parentheses keep the ratio exactly 1 at gamma = 0
    return float(np.exp(beta) * (cumulative(weighted)(t) / denom))
