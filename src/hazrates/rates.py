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

On the grid the weights are W[i, j] = a_j * p11(t_j, t_i) with
a = p00 * lambda01, and the engine uses the kernel's structure rather
than the n-by-n matrix (Linz, *Analytical and Numerical Methods for
Volterra Equations*, SIAM 1985):

- A kernel of t - u only (``offset_grid``) has p11(t_j, t_i) = g[i - j]
  with g = exp(-K(k * step)), so p01 and the numerator of r12 are
  discrete convolutions with trapezoid end corrections,

      p01 = step * (conv(a, g) - (a_0 * g + a * g_0) / 2),

  and the numerator is the same with g * lambda12 in place of g:
  O(n) memory.  ``offset_grid`` is the kernel's pointwise closed form at
  the durations k * step, so both engines read the kernel's one lag rule.
- Any other kernel (``MarkovKernel``, a tabulated ``GridKernel``)
  integrates against the dense lower triangles of exp(-K) and
  exp(-K) * lambda12: O(n^2) memory, so grids of more than
  MAX_DENSE_NODES nodes are refused before any of it is allocated.

Everything that depends on the kernel and the grid but not on lambda02
lives in a ``KernelQuadrature``, which the fixed-point builder makes
once (``kernel_quadrature``) and reuses across its sweeps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .grid import GridFunction, cumulative
from .kernels import HazardKernel
from .model import IllnessDeathModel

__all__ = [
    "rate_treated",
    "rate_untreated",
    "ode_residual",
]

# Most grid nodes the dense quadrature takes.  At its peak it holds about
# 3.1 n-by-n float arrays: rate_treated on a MarkovKernel model measured
# 0.013 s and 9.0 MB traced at 601 nodes, 0.11 s and 100 MB at 2,001,
# 0.56 s and 400 MB at 4,001 (2-CPU x86_64), so memory, not time, binds,
# and this limit keeps the peak near 0.6 GB.
MAX_DENSE_NODES = 5_000

# Occupation mass below this level makes the treated rate an average
# over an (essentially) empty set; such nodes fall back to the
# diagonal kernel value lambda12(t | t), the continuity limit.
VACUOUS_P01 = 1e-12


class KernelQuadrature(ABC):
    """Trapezoid rule over initiation times u <= t_i against one kernel.

    Made by ``kernel_quadrature`` for a kernel and a grid; each method
    takes the initiation density a = p00 * lambda01 on that grid.  It
    holds p11 = exp(-K) and p11 * lambda12 as ``survival`` and
    ``weighted``, in whatever shape ``_integrate`` reads.
    """

    survival: np.ndarray
    weighted: np.ndarray
    diagonal: np.ndarray

    def __init__(self, n: int, step: float) -> None:
        self.n = n
        self.step = step

    @abstractmethod
    def _integrate(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row-wise trapezoid of a_j * x[i, j] over j <= i."""

    def occupation(self, a: np.ndarray) -> np.ndarray:
        """p01 at every node (not yet clipped at zero)."""
        return self._integrate(a, self.survival)

    def treated_rate(self, a: np.ndarray) -> np.ndarray:
        """r12 at every node, lambda12(t | t) where p01 is vacuous."""
        p01 = np.maximum(self.occupation(a), 0.0)
        num = self._integrate(a, self.weighted)
        vacuous = p01 <= VACUOUS_P01
        return np.where(vacuous, self.diagonal, num / np.where(vacuous, 1.0, p01))

    def rate_treated(self, model: IllnessDeathModel) -> GridFunction:
        """``rate_treated(model)`` for a model on this kernel and grid."""
        _, a = _initiation_density(model)
        return model.lambda01.with_values(self.treated_rate(a))


class _Convolution(KernelQuadrature):
    """Kernel of t - u only: survival and weighted are 1-D in the offset."""

    def __init__(self, n, step, value, cum):
        super().__init__(n, step)
        self.survival = np.exp(-cum)
        self.weighted = self.survival * value
        self.diagonal = np.full(n, value[0])

    def _integrate(self, a, g):
        full = np.convolve(a, g)[: self.n]
        return self.step * (full - 0.5 * (a[0] * g + a * g[0]))


class _Dense(KernelQuadrature):
    """Any other kernel: lower triangles of exp(-K) and exp(-K) * lambda12."""

    def __init__(self, n, step, value, cum):
        super().__init__(n, step)
        self.survival = np.tril(np.exp(-cum))
        self.weighted = self.survival * value
        self.diagonal = np.diag(value).copy()

    def _integrate(self, a, x):
        return self.step * (x @ a - 0.5 * (a[0] * x[:, 0] + a * np.diag(x)))


def kernel_quadrature(kernel: HazardKernel, grid: GridFunction) -> KernelQuadrature:
    """The quadrature for ``kernel`` on the grid of ``grid``.

    Chosen by the kernel's own structure: a convolution for kernels of
    t - u only, the dense triangle otherwise.  ValueError if the dense
    triangle would have more than MAX_DENSE_NODES nodes.
    """
    n, step = grid.n_nodes, grid.step
    offsets = kernel.offset_grid(n, step)
    if offsets is not None:
        return _Convolution(n, step, *offsets)
    if n > MAX_DENSE_NODES:
        raise ValueError(
            f"{type(kernel).__name__} rates need {n}-by-{n} arrays: {n} grid nodes, "
            f"more than the dense limit of {MAX_DENSE_NODES}"
        )
    times = grid.times
    return _Dense(n, step, kernel.value_grid(times), kernel.cumulative_grid(times))


def _initiation_density(model: IllnessDeathModel) -> tuple[np.ndarray, np.ndarray]:
    """p00 and a = p00 * lambda01 at the nodes."""
    lam0_cum = cumulative(model.lambda01).values + cumulative(model.lambda02).values
    p00 = np.exp(-lam0_cum)
    return p00, p00 * model.lambda01.values


def rate_treated(model: IllnessDeathModel) -> GridFunction:
    """Death rate among the currently treated, on the model grid.

    Nodes with vacuous occupation mass (p01 <= 1e-12, always the case
    at t = 0) use the continuity value lambda12(t | t).
    """
    return kernel_quadrature(model.lambda12, model.lambda01).rate_treated(model)


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
    p00, a = _initiation_density(model)
    p01_vals = np.maximum(kernel_quadrature(model.lambda12, model.lambda01).occupation(a), 0.0)
    dp01 = np.gradient(p01_vals, model.step, edge_order=2)
    resid = dp01 + np.exp(beta) * model.lambda02.values * p01_vals - p00 * model.lambda01.values
    return model.lambda01.with_values(resid)
