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
from .numerics import first_crossing

__all__ = [
    "HazardKernel",
    "TwoPieceKernel",
    "MarkovKernel",
    "GridKernel",
]


class HazardKernel(ABC):
    """Hazard lam12(t | u) for current time t and initiation time u <= t.

    ``value``, ``cumulative`` and ``invert_cumulative`` hold the argument
    rules of every kernel: they take scalars or broadcastable arrays,
    return a float when every argument is a scalar, and raise ValueError
    for t < u, for a negative or NaN threshold and, in a kernel with a
    ``grid_spec``, for a t or u outside [0, t_max], each within NODE_TOL.
    A kernel implements ``_value``, ``_cumulative`` and ``_invert`` on
    the checked, broadcast arrays.
    """

    def value(self, t, u):
        """Hazard at time t given initiation at u."""
        t, u, scalar = _broadcast_pair(t, u)
        self._require_times(u, t, "kernel evaluated at t < u")
        out = self._value(t, u)
        return float(out[0]) if scalar else out

    def cumulative(self, u, t):
        """Integral of value(s, u) over s in [u, t]."""
        u, t, scalar = _broadcast_pair(u, t)
        self._require_times(u, t, "kernel cumulative needs u <= t")
        out = self._cumulative(u, t)
        return float(out[0]) if scalar else out

    def invert_cumulative(self, u, e):
        """Smallest t >= u with cumulative(u, t) >= e, or +inf when no
        such time exists."""
        u, e, scalar = _broadcast_pair(u, e)
        if np.any(~(e >= 0)):  # NaN too
            raise ValueError("threshold must be nonnegative")
        self._require_times(u, u)
        out = self._invert(u, e)
        return float(out[0]) if scalar else out

    def _require_times(self, u, t, order_message=None) -> None:
        """ValueError(order_message), if given, where t < u, and ValueError
        where a grid-backed kernel gets times from u to t off its grid."""
        if order_message is not None and (t - u < -NODE_TOL).any():
            raise ValueError(order_message)
        spec = self.grid_spec()
        if spec is not None and ((u < -NODE_TOL).any() or (t > spec[0] + NODE_TOL).any()):
            raise ValueError(f"kernel evaluated outside its grid [0, {spec[0]}]")

    @abstractmethod
    def _value(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``value`` on checked arrays of one shape."""

    @abstractmethod
    def _cumulative(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``cumulative`` on checked arrays of one shape."""

    @abstractmethod
    def _invert(self, u: np.ndarray, e: np.ndarray) -> np.ndarray:
        """``invert_cumulative`` on checked arrays of one shape."""

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

    def offset_grid(self, n: int, step: float) -> tuple[np.ndarray, np.ndarray] | None:
        """(value, cumulative) at elapsed durations k*step, k = 0..n-1,
        for a kernel of t - u only; None for any other kernel.

        With these the rate engine integrates over initiation times by
        convolution instead of over the n-by-n grid matrices.
        """
        return None


@dataclass(frozen=True)
class TwoPieceKernel(HazardKernel):
    """Piecewise-constant hazard in elapsed duration t - u.

    The hazard is ``early`` while t - u <= lag + NODE_TOL (a lag on a
    grid node is early there) and ``late`` afterwards; the cumulative and
    its inverse have closed forms.  On a grid the kernel depends on the
    node offset i - j alone, and ``offset_grid`` is these closed forms at
    the durations k*step: the engines and the simulator read one rule.
    """

    early: float
    late: float
    lag: float

    def __post_init__(self) -> None:
        for name in ("early", "late", "lag"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")

    def _value(self, t, u):
        return np.where(t - u <= self.lag + NODE_TOL, self.early, self.late)

    def _cumulative(self, u, t):
        dt = np.maximum(t - u, 0.0)
        late = self.early * self.lag + self.late * (dt - self.lag)
        return np.where(dt <= self.lag + NODE_TOL, self.early * dt, late)

    def _invert(self, u, e):
        cap = self.early * self.lag
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            within_early = (e <= cap) & (self.early > 0)
            t_early = u + np.where(self.early > 0, e / self.early, np.inf)
            t_late = u + self.lag + np.where(self.late > 0, (e - cap) / self.late, np.inf)
        return np.where(e == 0, u, np.where(within_early, t_early, t_late))

    def offset_grid(self, n: int, step: float) -> tuple[np.ndarray, np.ndarray]:
        d = np.arange(n) * step
        return self._value(d, 0.0), self._cumulative(0.0, d)

    def value_grid(self, times: np.ndarray) -> np.ndarray:
        value, _ = self.offset_grid(times.size, _grid_step(times))
        return value[_node_offsets(times.size)]

    def cumulative_grid(self, times: np.ndarray) -> np.ndarray:
        _, cum = self.offset_grid(times.size, _grid_step(times))
        return cum[_node_offsets(times.size)]


def _grid_step(times: np.ndarray) -> float:
    """Spacing of uniform grid nodes (any positive value for one node)."""
    return float(times[1] - times[0]) if times.size > 1 else 1.0


def _node_offsets(n: int) -> np.ndarray:
    """Matrix of node offsets i - j, clipped at 0 above the diagonal."""
    k = np.arange(n)
    return np.maximum(k[:, None] - k[None, :], 0)


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

    def _value(self, t, u):
        return self.rate(t)

    def _cumulative(self, u, t):
        return np.maximum(self._cum(t) - self._cum(u), 0.0)

    def _invert(self, u, e):
        cum = self._cum
        return _crossing_after(u, lambda k, rows: cum.values[k], cum.n_nodes, cum.step, cum(u) + e)

    def value_grid(self, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.rate(times)[:, None], (times.size, times.size))

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
        if np.any(np.tril(vals) < 0):
            raise ValueError("hazard values must be nonnegative on t >= u")
        vals.flags.writeable = False
        self.t_max = float(t_max)
        self.step = float(step)
        self.values = vals
        self._times = np.arange(n) * self.step
        # trapezoid cumulative along t of every column, from t = 0
        cum = np.zeros_like(vals)
        cum[1:] = np.cumsum(0.5 * (vals[1:] + vals[:-1]) * self.step, axis=0)
        cum.flags.writeable = False
        self._cum = cum

    def grid_spec(self) -> tuple[float, float] | None:
        return (self.t_max, self.step)

    def _columns(self, u: np.ndarray):
        """Bracketing columns (j0, j1) and weight f of the kernel column
        at initiation time u; u within NODE_TOL of a node takes that
        node's column alone."""
        n = self.values.shape[1]
        pos = u / self.step
        j0 = np.clip(np.floor(pos + NODE_TOL).astype(np.intp), 0, n - 1)
        frac = pos - j0
        frac = np.where((frac <= NODE_TOL) | (j0 + 1 >= n), 0.0, frac)
        return j0, np.minimum(j0 + 1, n - 1), frac

    @staticmethod
    def _blend(table: np.ndarray, rows: np.ndarray, cols) -> np.ndarray:
        """table[rows, .] interpolated between the bracketing columns."""
        j0, j1, f = cols
        return (1 - f) * table[rows, j0] + f * table[rows, j1]

    def _along_t(self, at, t: np.ndarray) -> np.ndarray:
        """Node function ``at(k)`` interpolated linearly in t (clamped to
        the grid ends, as np.interp does)."""
        n = self._times.size
        pos = np.clip(t / self.step, 0.0, n - 1)
        k0 = np.clip(np.floor(pos).astype(np.intp), 0, max(n - 2, 0))
        v0 = at(k0)
        return v0 + (pos - k0) * (at(np.minimum(k0 + 1, n - 1)) - v0)

    def _value(self, t, u):
        cols = self._columns(u)
        return self._along_t(lambda k: self._blend(self.values, k, cols), t)

    def _from_u(self, u: np.ndarray):
        """Node function (k, rows) -> cumulative from u to node k of u's
        column (zero at nodes before u), for the entries u[rows], in the
        form ``first_crossing`` calls."""
        cols = self._columns(u)
        base = self._along_t(lambda k: self._blend(self._cum, k, cols), u)

        def at(k: np.ndarray, rows) -> np.ndarray:
            cols_in = tuple(c[rows] for c in cols)
            after = np.maximum(self._blend(self._cum, k, cols_in) - base[rows], 0.0)
            return np.where(self._times[k] < u[rows] - NODE_TOL, 0.0, after)

        return at

    def _cumulative(self, u, t):
        at = self._from_u(u)
        return self._along_t(lambda k: at(k, slice(None)), t)

    def _invert(self, u, e):
        return _crossing_after(u, self._from_u(u), self._times.size, self.step, e)

    def value_grid(self, times: np.ndarray) -> np.ndarray:
        if times.size != self._times.size or abs(times[-1] - self._times[-1]) > NODE_TOL:
            raise ValueError("grid mismatch between kernel and request")
        return self.values

    def cumulative_grid(self, times: np.ndarray) -> np.ndarray:
        if times.size != self._times.size or abs(times[-1] - self._times[-1]) > NODE_TOL:
            raise ValueError("grid mismatch between kernel and request")
        return np.tril(self._cum - np.diag(self._cum)[None, :])


def _crossing_after(u, value_at, n_nodes: int, step: float, e: np.ndarray) -> np.ndarray:
    """``first_crossing`` of e, +inf where no node reaches it, and no
    earlier than u (roundoff at e ~ 0)."""
    t, _ = first_crossing(value_at, n_nodes, step, e)
    return np.where(np.isnan(t), np.inf, np.maximum(t, u))


def _broadcast_pair(x, y):
    """x and y as broadcast float arrays of at least one dimension, and
    whether both were scalars."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x, y)
    return (x, y, scalar) if x.shape == y.shape else (*np.broadcast_arrays(x, y), scalar)
