"""Post-initiation hazard kernels.

A kernel gives the death hazard of a treated subject as a function of
current time t and treatment initiation time u <= t, written value(t, u).
Kernels that depend on t - u only through the elapsed duration encode a
treatment effect that wears off (or builds up); a kernel that ignores u
is Markov, because the hazard then depends on history only through the
current treatment level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .grid import NODE_TOL, GridFunction, cumulative, n_intervals
from .numerics import invert_monotone

__all__ = [
    "HazardKernel",
    "TwoPieceKernel",
    "MarkovKernel",
    "GridKernel",
]


class HazardKernel(ABC):
    """Hazard lam12(t | u) for current time t and initiation time u <= t."""

    @abstractmethod
    def value(self, t, u):
        """Hazard at time t given initiation at u.  Accepts scalars or
        broadcastable arrays with t >= u elementwise."""

    @abstractmethod
    def cumulative(self, u, t):
        """Integral of value(s, u) over s in [u, t].  ``u`` may be an
        array with a scalar t >= max(u)."""

    @abstractmethod
    def invert_cumulative(self, u, e):
        """Smallest t >= u with cumulative(u, t) >= e, or +inf when no
        such time exists.  Vectorized over matching u and e arrays."""

    def grid_spec(self) -> tuple[float, float] | None:
        """(t_max, step) for grid-backed kernels, else None."""
        return None

    @abstractmethod
    def value_grid(self, times: np.ndarray) -> np.ndarray:
        """Matrix V[i, j] = value(times[i], times[j]) on the lower triangle."""

    @abstractmethod
    def cumulative_grid(self, times: np.ndarray) -> np.ndarray:
        """Matrix K[i, j] = cumulative(times[j], times[i]) on the lower
        triangle (zero above it)."""


@dataclass(frozen=True)
class TwoPieceKernel(HazardKernel):
    """Piecewise-constant hazard in elapsed duration t - u.

    The hazard is ``early`` while t - u <= lag (the boundary counts as
    early) and ``late`` afterwards.  The cumulative and its inverse have
    closed forms, so no grid is involved.
    """

    early: float
    late: float
    lag: float

    def __post_init__(self) -> None:
        for name in ("early", "late", "lag"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")

    def value(self, t, u):
        dt = np.asarray(t, dtype=float) - np.asarray(u, dtype=float)
        if np.any(dt < -NODE_TOL):
            raise ValueError("kernel evaluated at t < u")
        out = np.where(dt <= self.lag, self.early, self.late)
        return float(out) if out.ndim == 0 else out

    def cumulative(self, u, t):
        dt = np.asarray(t, dtype=float) - np.asarray(u, dtype=float)
        if np.any(dt < -NODE_TOL):
            raise ValueError("kernel cumulative needs u <= t")
        dt = np.maximum(dt, 0.0)
        out = np.where(
            dt <= self.lag,
            self.early * dt,
            self.early * self.lag + self.late * (dt - self.lag),
        )
        return float(out) if out.ndim == 0 else out

    def invert_cumulative(self, u, e):
        u = np.asarray(u, dtype=float)
        e = np.asarray(e, dtype=float)
        if np.any(e < 0):
            raise ValueError("threshold must be nonnegative")
        cap = self.early * self.lag
        with np.errstate(divide="ignore", invalid="ignore"):
            within_early = (e <= cap) & (self.early > 0)
            t_early = u + np.where(self.early > 0, e / max(self.early, 1e-300), np.inf)
            t_late = u + self.lag + np.where(
                self.late > 0, (e - cap) / max(self.late, 1e-300), np.inf
            )
        out = np.where(within_early, t_early, t_late)
        out = np.where(e == 0, u, out)
        return float(out) if out.ndim == 0 else out

    def value_grid(self, times: np.ndarray) -> np.ndarray:
        dt = times[:, None] - times[None, :]
        return np.where(dt <= self.lag, self.early, self.late)

    def cumulative_grid(self, times: np.ndarray) -> np.ndarray:
        dt = np.maximum(times[:, None] - times[None, :], 0.0)
        return np.where(
            dt <= self.lag,
            self.early * dt,
            self.early * self.lag + self.late * (dt - self.lag),
        )


@dataclass(frozen=True)
class MarkovKernel(HazardKernel):
    """Kernel that ignores the initiation time: value(t, u) = rate(t).

    Models built from it satisfy the Markov property by construction,
    which makes this the reference case in which rates and hazards agree.
    """

    rate: GridFunction

    def __post_init__(self) -> None:
        if np.any(self.rate.values < 0):
            raise ValueError("hazard values must be nonnegative")
        object.__setattr__(self, "_cum", cumulative(self.rate))

    def grid_spec(self) -> tuple[float, float] | None:
        return (self.rate.t_max, self.rate.step)

    def value(self, t, u):
        return self.rate(t)

    def cumulative(self, u, t):
        cum = self._cum
        out = np.asarray(cum(t), dtype=float) - np.asarray(cum(u), dtype=float)
        if np.any(out < -NODE_TOL):
            raise ValueError("kernel cumulative needs u <= t")
        out = np.maximum(out, 0.0)
        return float(out) if out.ndim == 0 else out

    def invert_cumulative(self, u, e):
        scalar = np.asarray(u).ndim == 0 and np.asarray(e).ndim == 0
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        e_arr = np.atleast_1d(np.asarray(e, dtype=float))
        if np.any(e_arr < 0):
            raise ValueError("threshold must be nonnegative")
        cum = self._cum
        u_b, e_b = np.broadcast_arrays(u_arr, e_arr)
        target = np.asarray(cum(u_b), dtype=float) + e_b
        t = invert_monotone(cum.values, cum.step, target.ravel()).reshape(u_b.shape)
        out = np.where(np.isnan(t), np.inf, t)
        out = np.maximum(out, u_b)  # guard roundoff at e ~ 0
        return float(out[0]) if scalar else out

    def value_grid(self, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.rate(times)[:, None], (times.size, times.size)).copy()

    def cumulative_grid(self, times: np.ndarray) -> np.ndarray:
        c = self._cum(times)
        return np.maximum(c[:, None] - c[None, :], 0.0)


class GridKernel(HazardKernel):
    """Kernel tabulated on a square grid over (t, u).

    ``values[i, j]`` holds the hazard at t = i*step given initiation at
    u = j*step; only the lower triangle i >= j is meaningful.  Between
    nodes the kernel is interpolated bilinearly, and cumulatives are
    trapezoidal along the t axis, so a GridKernel built by sampling a
    closed-form kernel agrees with it up to the usual O(step^2) error.
    """

    def __init__(self, t_max: float, step: float, values: np.ndarray) -> None:
        n = n_intervals(t_max, step) + 1
        vals = np.array(values, dtype=float, copy=True)
        if vals.shape != (n, n):
            raise ValueError(f"values must have shape ({n}, {n}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        ii, jj = np.indices(vals.shape)
        if np.any(vals[ii >= jj] < 0):
            raise ValueError("hazard values must be nonnegative on t >= u")
        vals.flags.writeable = False
        self.t_max = float(t_max)
        self.step = float(step)
        self.values = vals
        self._times = np.arange(n) * self.step

    def grid_spec(self) -> tuple[float, float] | None:
        return (self.t_max, self.step)

    def _column(self, u: float) -> np.ndarray:
        """Kernel values along t for a fixed, possibly off-node, u."""
        pos = u / self.step
        j0 = int(np.floor(pos + NODE_TOL))
        j0 = min(max(j0, 0), self.values.shape[1] - 1)
        frac = pos - j0
        if frac <= NODE_TOL or j0 + 1 >= self.values.shape[1]:
            return self.values[:, j0]
        return (1 - frac) * self.values[:, j0] + frac * self.values[:, j0 + 1]

    def value(self, t, u):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        t_b, u_b = np.broadcast_arrays(t_arr, u_arr)
        out = np.empty(t_b.shape)
        for k in range(t_b.size):
            col = self._column(u_b.flat[k])
            out.flat[k] = np.interp(t_b.flat[k], self._times, col)
        if np.asarray(t).ndim == 0 and np.asarray(u).ndim == 0:
            return float(out[0])
        return out

    def _cum_column(self, u: float) -> np.ndarray:
        """Cumulative from u along the grid nodes, zero before u."""
        col = self._column(u)
        cum = np.zeros_like(col)
        cum[1:] = np.cumsum(0.5 * (col[1:] + col[:-1]) * self.step)
        # shift so integration starts at u, not at the node below it
        base = np.interp(u, self._times, cum)
        out = np.maximum(cum - base, 0.0)
        out[self._times < u - NODE_TOL] = 0.0
        return out

    def cumulative(self, u, t):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        u_b, t_b = np.broadcast_arrays(u_arr, t_arr)
        if np.any(t_b - u_b < -NODE_TOL):
            raise ValueError("kernel cumulative needs u <= t")
        out = np.empty(u_b.shape)
        for k in range(u_b.size):
            cum = self._cum_column(u_b.flat[k])
            out.flat[k] = np.interp(t_b.flat[k], self._times, cum)
        if np.asarray(u).ndim == 0 and np.asarray(t).ndim == 0:
            return float(out[0])
        return out

    def invert_cumulative(self, u, e):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        e_arr = np.atleast_1d(np.asarray(e, dtype=float))
        if np.any(e_arr < 0):
            raise ValueError("threshold must be nonnegative")
        u_b, e_b = np.broadcast_arrays(u_arr, e_arr)
        out = np.empty(u_b.shape)
        for k in range(u_b.size):
            cum = self._cum_column(u_b.flat[k])
            t = invert_monotone(cum, self.step, np.asarray([e_b.flat[k]]))[0]
            out.flat[k] = np.inf if np.isnan(t) else max(t, u_b.flat[k])
        if np.asarray(u).ndim == 0 and np.asarray(e).ndim == 0:
            return float(out[0])
        return out

    def value_grid(self, times: np.ndarray) -> np.ndarray:
        if times.size != self._times.size or abs(times[-1] - self._times[-1]) > NODE_TOL:
            raise ValueError("grid mismatch between kernel and request")
        return self.values

    def cumulative_grid(self, times: np.ndarray) -> np.ndarray:
        if times.size != self._times.size or abs(times[-1] - self._times[-1]) > NODE_TOL:
            raise ValueError("grid mismatch between kernel and request")
        cs = np.cumsum(self.values, axis=0)
        n = times.size
        jj = np.arange(n)
        diag_cs = cs[jj, jj]
        K = self.step * (
            cs - diag_cs[None, :] + 0.5 * self.values[jj, jj][None, :] - 0.5 * self.values
        )
        ii = np.arange(n)[:, None]
        return np.where(ii >= jj[None, :], K, 0.0)

