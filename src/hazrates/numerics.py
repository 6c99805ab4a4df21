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
    (``construct.build``).  The Cox fits' Newton driver
    (``estimators._newton``) has fixed limits of its own."""

    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


# Entries one bisection runs over: first_crossing's temporaries are a
# few arrays of this length, however many entries it is given.
_BLOCK = 1 << 15


def first_crossing(
    value_at, n_nodes: int, step: float, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First time each linearly interpolated node function reaches e,
    and the grid cell searched for it.

    ``value_at(node, rows)`` gives, for the 1-d slice ``rows`` of the
    entries of ``e`` and an index array aligned with ``e[rows]``, each of
    those entries' own nondecreasing node function at that index, for
    0 <= node < n_nodes; per-entry data is read at ``[rows]``.  The first
    node reaching e is found by a bisection over node indices run for a
    block of _BLOCK entries at a time (O(len(e) * log n_nodes) work,
    O(_BLOCK) temporaries); the crossing is interpolated within the cell
    ending at that node.  It is 0 where node 0 already reaches e and NaN
    where no node does.

    Returns ``(t, cell)``: ``cell`` is the index of that cell's first
    node, clipped to 0 <= cell <= n_nodes - 2, so t lies in
    [cell * step, (cell + 1) * step] wherever it is finite.
    """
    t = np.empty(e.shape)
    cell = np.empty(e.shape, dtype=np.intp)
    for lo in range(0, e.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        t[rows], cell[rows] = _block_crossing(value_at, n_nodes, step, e[rows], rows)
    return t, cell


def _block_crossing(value_at, n_nodes, step, e, rows):
    """``first_crossing`` of the entries ``rows``, whose thresholds are e."""
    # idx = number of nodes still below e; a probe past the last node
    # reads the last node, so idx only runs past it when no node reaches e
    idx = np.zeros(e.shape, dtype=np.intp)
    for k in reversed(range(n_nodes.bit_length())):
        half = 1 << k
        node = np.minimum(idx + (half - 1), n_nodes - 1)
        idx += half * (value_at(node, rows) < e)
    cell = np.clip(idx, 1, n_nodes - 1)
    cell -= 1
    v_lo = value_at(cell, rows)
    # v_lo < e <= value_at(cell + 1) wherever 0 < idx < n_nodes, so only
    # the entries replaced below can divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cell * step + (e - v_lo) / (value_at(cell + 1, rows) - v_lo) * step
    t[idx == 0] = 0.0
    t[idx >= n_nodes] = np.nan
    return t, cell
