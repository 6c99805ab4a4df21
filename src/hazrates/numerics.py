"""Small numerical utilities: quadrature on grid functions and
first-crossing times of a nondecreasing grid array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NODE_TOL, GridFunction

__all__ = [
    "ConvergenceError",
    "SolverConfig",
    "trapz",
    "invert_monotone",
]


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and iteration limits shared by the iterative solvers.

    ``damping`` in (0, 1] blends each update with the previous iterate;
    1.0 is a full step.
    """

    tol: float
    max_iter: int = 50
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not (0 < self.damping <= 1):
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")


def trapz(f: GridFunction, a: float, b: float) -> float:
    """Integral of the piecewise-linear interpolant of f over [a, b].

    Endpoints need not be grid nodes; partial first and last cells are
    integrated exactly, so the result is additive over adjacent
    intervals up to roundoff.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if b < a:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    if a < -NODE_TOL or b > f.t_max + NODE_TOL:
        raise ValueError(f"bounds [{a}, {b}] outside [0, {f.t_max}]")
    last = (f.n_nodes - 1) * f.step
    a = min(max(a, 0.0), last)
    b = min(max(b, 0.0), last)
    if b <= a:
        return 0.0

    step = f.step
    i_lo = int(np.ceil(a / step - NODE_TOL))
    i_hi = int(np.floor(b / step + NODE_TOL))
    if i_lo > i_hi:
        # both endpoints inside one cell
        return 0.5 * (f(a) + f(b)) * (b - a)
    total = 0.0
    t_lo = i_lo * step
    if t_lo - a > NODE_TOL:
        total += 0.5 * (f(a) + f.values[i_lo]) * (t_lo - a)
    if i_hi > i_lo:
        seg = f.values[i_lo : i_hi + 1]
        total += step * (seg.sum() - 0.5 * (seg[0] + seg[-1]))
    t_hi = i_hi * step
    if b - t_hi > NODE_TOL:
        total += 0.5 * (f.values[i_hi] + f(b)) * (b - t_hi)
    return float(total)


def invert_monotone(values: np.ndarray, step: float, e: np.ndarray) -> np.ndarray:
    """Vectorized first-crossing times of a nondecreasing grid array.

    For each threshold, returns the smallest t with values(t) >= e under
    linear interpolation, or NaN when the final node stays below it.
    """
    idx = np.searchsorted(values, e, side="left")
    out = np.full(e.shape, np.nan)
    reached = idx < values.size
    at_zero = reached & (idx == 0)
    out[at_zero] = 0.0
    inner = reached & (idx > 0)
    if np.any(inner):
        hi = idx[inner]
        v_lo = values[hi - 1]
        dv = values[hi] - v_lo
        # v_lo < e <= v_hi here, so dv > 0
        out[inner] = (hi - 1) * step + (e[inner] - v_lo) / dv * step
    return out
