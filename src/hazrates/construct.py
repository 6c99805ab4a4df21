"""Fixed-point construction of a proportional-rates illness-death model.

Given the initiation hazard, the post-initiation kernel, and a target
log rate ratio beta, the builder looks for an untreated death hazard
lambda02 such that the model's treated rate satisfies

    r12(t) = exp(beta) * lambda02(t)   for all t.

Since r12 itself depends on lambda02 through the initiation-time
weights, this is a fixed-point problem.  Starting from the constant
1, each sweep computes r12 for the current lambda02 and replaces
lambda02 by exp(-beta) * r12.  There is no convergence proof for this
scheme, so the full deviation trace is part of the result and callers
are expected to inspect it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .kernels import HazardKernel
from .model import IllnessDeathModel
from .numerics import SolverConfig
from .rates import kernel_quadrature, rate_treated, rate_untreated

__all__ = [
    "IterationRecord",
    "BuildReport",
    "build",
    "rate_ratio",
    "ratio_of_rates",
]

# lambda02 nodes below this level make the rate ratio ill-defined.
ZERO_DENOM = 1e-12

# Largest |beta| whose exp(beta) and exp(-beta) are finite floats.
MAX_ABS_BETA = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one fixed-point sweep.

    ``sup_dev`` is the sup over grid nodes in (0, t_max] of
    |r12/lambda02 - exp(beta)| evaluated at this iterate.
    """

    index: int
    sup_dev: float
    lambda02: GridFunction
    rate: GridFunction


@dataclass(frozen=True)
class BuildReport:
    """Result of the fixed-point construction."""

    lambda02: GridFunction
    converged: bool
    iterations: tuple[IterationRecord, ...]

    @property
    def deviations(self) -> np.ndarray:
        return np.array([rec.sup_dev for rec in self.iterations])


def build(
    lambda01: GridFunction,
    lambda12: HazardKernel,
    beta: float,
    config: SolverConfig = SolverConfig(),
) -> BuildReport:
    """Solve the proportional-rates fixed point for lambda02.

    Parameters
    ----------
    lambda01:
        Treatment initiation hazard on the model grid.
    lambda12:
        Post-initiation death hazard kernel.
    beta:
        Target log rate ratio, with |beta| <= MAX_ABS_BETA; the
        constructed model has r12 = exp(beta) * lambda02.
    config:
        Sup-norm tolerance on the rate-ratio deviation and iteration
        budget for the update lambda02 <- exp(-beta) * r12.

    Non-convergence is reported through ``converged=False`` together
    with the full deviation trace rather than raised, so callers can
    distinguish a slow iteration from a diverging one.
    """
    if lambda01.n_nodes < 2:
        raise ValueError(
            f"the grid needs at least two nodes; t_max={lambda01.t_max!r} "
            f"with step={lambda01.step!r} gives one"
        )
    if not abs(beta) <= MAX_ABS_BETA:  # NaN too
        raise ValueError(f"beta must be finite with |beta| <= {MAX_ABS_BETA:.2f}, got {beta!r}")
    target = float(np.exp(beta))
    lam02 = GridFunction.constant(lambda01.t_max, lambda01.step, 1.0)
    records: list[IterationRecord] = []
    converged = False
    # the kernel's grid arrays do not depend on lambda02
    quadrature = kernel_quadrature(lambda12, lambda01)

    for index in range(config.max_iter + 1):
        model = IllnessDeathModel(lambda01, lam02, lambda12)
        r12 = quadrature.rate_treated(model)
        dev = _sup_deviation(r12, lam02, target)
        records.append(
            IterationRecord(index=index, sup_dev=dev, lambda02=lam02, rate=r12)
        )
        if dev < config.tol:
            converged = True
            break
        if index == config.max_iter:
            break
        lam02 = lam02.with_values(np.exp(-beta) * r12.values)

    # the loop always breaks right after recording the final iterate
    return BuildReport(
        lambda02=records[-1].lambda02,
        converged=converged,
        iterations=tuple(records),
    )


def _sup_deviation(r12: GridFunction, lam02: GridFunction, target: float) -> float:
    """Sup over nodes in (0, t_max] of |r12/lambda02 - target|."""
    _check_denominator(lam02.times[1:], lam02.values[1:])
    return float(np.max(np.abs(r12.values[1:] / lam02.values[1:] - target)))


def _check_denominator(times: np.ndarray, lam02: np.ndarray) -> None:
    """Raise where lambda02 falls below ZERO_DENOM, listing the times."""
    bad = times[lam02 < ZERO_DENOM]
    if bad.size:
        raise ValueError(
            f"lambda02 vanishes at t={bad[:5].tolist()}{'...' if bad.size > 5 else ''}; "
            "rate ratio undefined"
        )


def rate_ratio(model: IllnessDeathModel) -> GridFunction:
    """Pointwise treated/untreated rate ratio r12 / lambda02.

    Nodes where lambda02 falls below 1e-12 have no well-defined ratio;
    they are reported in the raised error rather than silently dropped.
    """
    return ratio_of_rates(rate_treated(model), rate_untreated(model))


def ratio_of_rates(r12: GridFunction, r02: GridFunction) -> GridFunction:
    """``rate_ratio`` from rates already computed, such as the r12 of
    the last sweep in a ``BuildReport``."""
    _check_denominator(r02.times, r02.values)
    return r12.with_values(r12.values / r02.values)
