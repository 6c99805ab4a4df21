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
    "first_node_reaching",
    "crossing_time",
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
    return crossing_time(lambda k: values[k], idx, values.size, step, e)


def crossing_time(value_at, idx: np.ndarray, n_nodes: int, step: float, e: np.ndarray) -> np.ndarray:
    """First time each linearly interpolated node array reaches e.

    ``idx`` is each entry's first node reaching e (n_nodes where none
    does), as ``first_node_reaching`` returns it, and ``value_at`` is as
    there.  The crossing is interpolated within the cell ending at that
    node; it is 0 where node 0 already reaches e and NaN where no node
    does.
    """
    hi = np.clip(idx, 1, n_nodes - 1)
    v_lo = value_at(hi - 1)
    # v_lo < e <= value_at(hi) wherever 0 < idx < n_nodes, so only the
    # entries replaced below can divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (hi - 1) * step + (e - v_lo) / (value_at(hi) - v_lo) * step
    return np.where(idx == 0, 0.0, np.where(idx < n_nodes, t, np.nan))


def first_node_reaching(value_at, n_nodes: int, e: np.ndarray) -> np.ndarray:
    """First node index whose value reaches e, for many arrays at once.

    ``value_at(node)`` gives, for an index array aligned with ``e``,
    each entry's own nondecreasing node array at that index.  Indices
    run up to 2**n_nodes.bit_length() - 1; past the last node the
    caller returns either +inf (padding) or the last node's value.
    Returns n_nodes where no node reaches e.  A bisection over node
    indices run for all entries together: O(len(e) * log n_nodes).
    """
    # idx = number of nodes still below e; past the last node it only
    # keeps growing when no node reaches e
    idx = np.zeros(e.shape, dtype=np.intp)
    for k in reversed(range(n_nodes.bit_length())):
        half = 1 << k
        # binding the probe (rather than passing the expression) keeps its
        # buffer alive across rounds; at 7e5 entries that is ~15% faster
        node = idx + (half - 1)
        idx += half * (value_at(node) < e)
    return np.minimum(idx, n_nodes)
