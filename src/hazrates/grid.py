"""Uniform-grid representation of functions of time.

Every continuous-time curve in this package (hazards, rates, cumulative
hazards, survival curves) is stored as its values on the uniform grid
``{0, step, 2*step, ...}`` and read as piecewise linear between nodes,
by ``np.interp`` or, bit for bit, by cell arithmetic.  Quadrature is
trapezoidal throughout, which integrates that reading exactly, so the
grid convention and the quadrature rule never disagree with each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GridFunction", "cumulative"]

# Tolerance for deciding whether a time coincides with a grid node.
NODE_TOL = 1e-9
# Most nodes a grid may have.  A build's convolutions grow as the square
# of the node count: `construct` took 2.4 s at 30,001 nodes, 9.8 s at
# 60,001 and 38 s at 120,001 (2-CPU x86_64, under 50 MB peak RSS), so
# about 27 s at this limit; step 1e-6 on [0, 3] would run for hours.
MAX_NODES = 100_000


def n_intervals(t_max: float, step: float) -> int:
    """Number of whole grid steps that fit in [0, t_max]; ValueError
    unless step is positive, t_max / step finite and the grid no larger
    than MAX_NODES nodes."""
    ratio = t_max / step if step > 0 else math.nan
    if not math.isfinite(ratio):
        raise ValueError(
            f"t_max / step must be finite with step > 0; got t_max={t_max!r}, step={step!r}"
        )
    n = int(np.floor(ratio + NODE_TOL))
    if n >= MAX_NODES:
        raise ValueError(
            f"t_max={t_max!r} at step={step!r} needs {n + 1} grid nodes, "
            f"more than the limit of {MAX_NODES}"
        )
    return n


@dataclass(frozen=True)
class GridFunction:
    """A real function of time sampled on a uniform grid.

    Defined on [0, t_max] with nodes at multiples of ``step``, linear
    between them and the final value past the last (t_max off the step).
    A call searches the grid with np.interp; ``cell_of`` and ``in_cell``
    give its bits by O(1) arithmetic per entry, for large unsorted arrays.
    Instances are immutable: the value array is copied and read-only.
    """

    t_max: float
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        if not (np.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"t_max must be nonnegative and finite, got {self.t_max!r}")
        vals = np.array(self.values, dtype=float, copy=True)
        expected = n_intervals(self.t_max, self.step) + 1
        if vals.ndim != 1 or vals.size != expected:
            raise ValueError(
                f"values must be 1-d with {expected} entries for "
                f"t_max={self.t_max}, step={self.step}; got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, t_max: float, step: float, value: float) -> "GridFunction":
        """Constant function on [0, t_max]."""
        n = n_intervals(t_max, step)
        return cls(t_max, step, np.full(n + 1, float(value)))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """New GridFunction on the same grid with different values."""
        return GridFunction(self.t_max, self.step, values)

    # -- evaluation ------------------------------------------------------------

    @cached_property
    def times(self) -> np.ndarray:
        """The grid nodes, made once and read-only."""
        times = np.arange(self.values.size) * self.step
        times.flags.writeable = False
        return times

    @property
    def n_nodes(self) -> int:
        return self.values.size

    def __call__(self, t):
        """Evaluate at scalar or array t by linear interpolation."""
        if isinstance(t, float):
            if t < -NODE_TOL or t > self.t_max + NODE_TOL:
                raise ValueError(f"evaluation outside [0, {self.t_max}]: got range [{t}, {t}]")
            return float(np.interp(t, self.times, self.values))
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -NODE_TOL) or np.any(t_arr > self.t_max + NODE_TOL):
            raise ValueError(
                f"evaluation outside [0, {self.t_max}]: got range "
                f"[{t_arr.min()}, {t_arr.max()}]"
            )
        out = np.interp(t_arr, self.times, self.values)
        if t_arr.ndim == 0:
            return float(out)
        return out

    @cached_property
    def _slopes(self) -> np.ndarray:
        """np.interp's cell slopes; -0.0 past the last node, where d * -0.0 + v is v."""
        return np.append(np.diff(self.values) / np.diff(self.times), -0.0)

    def cell_of(self, t: np.ndarray) -> np.ndarray:
        """The cell np.interp's search reads each t of [0, t_max] in, by
        arithmetic: times[j] <= t < times[j + 1], or the last node at or
        past it (NaN reads cell 0)."""
        with np.errstate(invalid="ignore"):  # NaN casts to an integer clipped here
            j = np.clip((t / self.step).astype(np.intp), 0, self.n_nodes - 1)
        j -= t < self.times[j]  # roundoff puts the quotient at most one cell off
        j += t >= np.append(self.times, np.inf)[j + 1]
        return j

    def in_cell(self, cell: np.ndarray, t: np.ndarray) -> np.ndarray:
        """self(t) for each t in its grid cell (``cell_of``, or one a search
        found) by np.interp's own arithmetic: bit for bit, with no search."""
        out = t - self.times[cell]
        on_node = out == 0  # np.interp returns the node's value there, -0.0 too
        out *= self._slopes[cell]
        node = self.values[cell]
        out += node
        np.copyto(out, node, where=on_node)
        return out

    def node_index(self, t: float) -> int:
        """Index of the grid node at time t; t must lie on a node."""
        idx = int(round(t / self.step))
        if idx < 0 or idx >= self.values.size or abs(idx * self.step - t) > NODE_TOL:
            raise ValueError(f"t={t!r} is not a grid node (step={self.step})")
        return idx

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            abs(self.step - other.step) <= NODE_TOL
            and self.values.size == other.values.size
        )


def cumulative(f: GridFunction) -> GridFunction:
    """Trapezoidal cumulative integral of a nonnegative grid function.

    Exact for the piecewise-linear interpretation of ``f``.  The result
    starts at 0 and is nondecreasing.
    """
    if np.any(f.values < 0):
        raise ValueError("cumulative requires a nonnegative integrand")
    out = np.zeros_like(f.values)
    out[1:] = np.cumsum(0.5 * (f.values[1:] + f.values[:-1]) * f.step)
    return f.with_values(out)
