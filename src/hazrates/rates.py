"""Occupation probabilities and treatment-specific rates.

The rate of death among the currently treated is the average of the
post-initiation hazard over the distribution of initiation times among
subjects who are alive and treated now.  Writing p00(u) for the
probability of still being in state 0 at u and p11(u, t) for surviving
in state 1 from u to t, the weight density over initiation times is

    w(u, t) = p00(u) * lambda01(u) * p11(u, t),

the state-1 occupation probability is p01(t) = integral of w(u, t) du,
and the treated rate is

    r12(t) = [ integral w(u, t) lambda12(t | u) du ] / p01(t).

Among the untreated there is only one possible history, so the
untreated rate coincides with lambda02.  All integrals are trapezoidal
on the model grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, cumulative
from .model import IllnessDeathModel

__all__ = [
    "OccupationSlice",
    "occupation",
    "rate_treated",
    "rate_untreated",
    "ode_residual",
]

# Occupation mass below this level makes the treated rate an average
# over an (essentially) empty set; such nodes fall back to the
# diagonal kernel value lambda12(t | t), the continuity limit.
VACUOUS_P01 = 1e-12


@dataclass(frozen=True)
class OccupationSlice:
    """State-1 occupation at a fixed time t.

    ``weights`` is the initiation-time density w(u, t) on [0, t] and
    ``p01`` its integral, the probability of being alive and treated
    at t.
    """

    t: float
    weights: GridFunction
    p01: float


def _engine(model: IllnessDeathModel) -> dict[str, np.ndarray]:
    """Shared grid computation behind occupation, rates, and the ODE check.

    Returns node arrays plus the full triangular weight matrix
    W[i, j] = w(u_j, t_i).
    """
    times = model.times
    lam01 = model.lambda01.values
    lam0_cum = cumulative(model.lambda01).values + cumulative(model.lambda02).values
    p00_vals = np.exp(-lam0_cum)

    K = model.lambda12.cumulative_grid(times)
    P11 = np.exp(-K)
    L12 = model.lambda12.value_grid(times)

    W = p00_vals[None, :] * lam01[None, :] * P11
    WL = W * L12

    # Row-wise trapezoids over u in [0, t_i]; cumsum up to the diagonal
    # only touches columns j <= i, so the triangle mask is implicit.
    d = np.arange(times.size)
    cw = np.cumsum(W, axis=1)
    cwl = np.cumsum(WL, axis=1)
    step = model.step
    p01_vals = step * (cw[d, d] - 0.5 * (W[:, 0] + W[d, d]))
    num_vals = step * (cwl[d, d] - 0.5 * (WL[:, 0] + WL[d, d]))
    p01_vals = np.maximum(p01_vals, 0.0)

    vacuous = p01_vals <= VACUOUS_P01
    r12 = np.empty(times.size)
    r12[~vacuous] = num_vals[~vacuous] / p01_vals[~vacuous]
    r12[vacuous] = np.diag(L12)[vacuous]

    return {
        "times": times,
        "p00": p00_vals,
        "lam01": lam01,
        "W": W,
        "p01": p01_vals,
        "r12": r12,
        "vacuous": vacuous,
    }


def occupation(model: IllnessDeathModel, t: float) -> OccupationSlice:
    """Initiation-time weights and occupation probability at grid node t."""
    idx = model.lambda01.node_index(t)
    eng = _engine(model)
    weights = GridFunction(t, model.step, eng["W"][idx, : idx + 1])
    return OccupationSlice(t=t, weights=weights, p01=float(eng["p01"][idx]))


def rate_treated(model: IllnessDeathModel) -> GridFunction:
    """Death rate among the currently treated, on the model grid.

    Nodes with vacuous occupation mass (p01 <= 1e-12, always the case
    at t = 0) use the continuity value lambda12(t | t).
    """
    eng = _engine(model)
    return model.lambda01.with_values(eng["r12"])


def rate_untreated(model: IllnessDeathModel) -> GridFunction:
    """Death rate among the currently untreated.

    Never-treated-so-far is the only history compatible with being
    untreated, so the rate equals the hazard lambda02 exactly.
    """
    return model.lambda02


def ode_residual(model: IllnessDeathModel, beta: float) -> GridFunction:
    """Residual of the occupation ODE under a proportional-rates law.

    If the treated rate satisfies r12 = exp(beta) * lambda02, the
    occupation probability solves

        d/dt p01(t) = -exp(beta) * lambda02(t) * p01(t)
                      + p00(t) * lambda01(t),

    because treated subjects die at the rate r12 and are replenished by
    initiations.  The residual (time derivative taken by central
    differences, one-sided at the ends) measures how far a model is
    from that law; it is small only when the proportional-rates
    property actually holds.
    """
    eng = _engine(model)
    p01_vals = eng["p01"]
    dp01 = np.gradient(p01_vals, model.step, edge_order=2)
    resid = (
        dp01
        + np.exp(beta) * model.lambda02.values * p01_vals
        - eng["p00"] * eng["lam01"]
    )
    return model.lambda01.with_values(resid)
