"""Irreversible illness-death model and subject-level data records.

States are 0 (alive, untreated), 1 (alive, treated) and 2 (dead).
Treatment initiation is the 0 -> 1 transition and is never reversed, so
a subject's treatment history is summarized by the initiation time u.
The 1 -> 2 hazard may depend on u, which is exactly what makes the
model non-Markov.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .grid import NODE_TOL, GridFunction
from .kernels import HazardKernel

__all__ = [
    "IllnessDeathModel",
    "Trajectory",
    "CountingRow",
    "write_counting_rows",
    "read_counting_rows",
]

COUNTING_HEADER = ["id", "start", "stop", "treat", "event"]


@dataclass(frozen=True)
class IllnessDeathModel:
    """Transition hazards of the illness-death model on a common grid.

    lambda01: treatment initiation hazard (state 0 -> 1)
    lambda02: death hazard while untreated (state 0 -> 2)
    lambda12: death hazard after initiation at u (state 1 -> 2), a kernel
    """

    lambda01: GridFunction
    lambda02: GridFunction
    lambda12: HazardKernel

    def __post_init__(self) -> None:
        if not self.lambda01.same_grid(self.lambda02):
            raise ValueError("lambda01 and lambda02 must share the same grid")
        spec = self.lambda12.grid_spec()
        if spec is not None:
            k_tmax, k_step = spec
            if abs(k_step - self.step) > NODE_TOL or abs(k_tmax - self.t_max) > NODE_TOL:
                raise ValueError(
                    f"kernel grid ({k_tmax}, {k_step}) does not match "
                    f"hazard grid ({self.t_max}, {self.step})"
                )
        if np.any(self.lambda01.values < 0) or np.any(self.lambda02.values < 0):
            raise ValueError("transition hazards must be nonnegative")

    @property
    def t_max(self) -> float:
        return self.lambda01.t_max

    @property
    def step(self) -> float:
        return self.lambda01.step

    @property
    def times(self) -> np.ndarray:
        return self.lambda01.times


@dataclass(frozen=True)
class Trajectory:
    """One simulated subject.

    ``u_init`` is None when the subject was never treated before leaving
    observation.  ``event`` is False for administrative censoring.
    ``frailty`` records the subject's multiplicative frailty draw when
    one was used.
    """

    id: int
    u_init: Optional[float]
    t_event: float
    event: bool
    frailty: Optional[float] = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_event) and self.t_event > 0):
            raise ValueError(f"t_event must be positive and finite, got {self.t_event!r}")
        if self.u_init is not None:
            if not (np.isfinite(self.u_init) and 0 <= self.u_init):
                raise ValueError(f"u_init must be nonnegative, got {self.u_init!r}")
            if not self.u_init < self.t_event:
                raise ValueError(
                    f"u_init={self.u_init!r} must precede t_event={self.t_event!r}"
                )


@dataclass(frozen=True)
class CountingRow:
    """One at-risk interval (start, stop] in counting-process form.

    ``treat`` is the treatment level carried on the interval; ``event``
    marks a death at ``stop``.
    """

    id: int
    start: float
    stop: float
    treat: int
    event: bool

    def __post_init__(self) -> None:
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if not self.start < self.stop:
            raise ValueError(f"need start < stop, got ({self.start!r}, {self.stop!r}]")
        if self.start < 0:
            raise ValueError(f"start must be nonnegative, got {self.start!r}")
        if self.treat not in (0, 1):
            raise ValueError(f"treat must be 0 or 1, got {self.treat!r}")


def write_counting_rows(rows: Iterable[CountingRow], path) -> None:
    """Write rows as CSV with header id,start,stop,treat,event.

    Times are written as the shortest decimal string that reads back to
    the same float, so read_counting_rows returns the rows exactly and
    no short interval collapses to zero length; event is 0/1.  Output
    is fully deterministic so rewriting the same rows is byte-identical.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTING_HEADER)
        for r in rows:
            # float() first: numpy scalars repr as "np.float64(...)"
            writer.writerow(
                [r.id, repr(float(r.start)), repr(float(r.stop)), r.treat, int(r.event)]
            )


def read_counting_rows(path) -> list[CountingRow]:
    """Read a counting-process CSV written by write_counting_rows."""
    rows: list[CountingRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != COUNTING_HEADER:
            raise ValueError(
                f"unexpected header {header!r}; want {COUNTING_HEADER!r}"
            )
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 5:
                raise ValueError(f"line {lineno}: expected 5 fields, got {len(rec)}")
            try:
                rows.append(
                    CountingRow(
                        id=int(rec[0]),
                        start=float(rec[1]),
                        stop=float(rec[2]),
                        treat=int(rec[3]),
                        event=bool(int(rec[4])),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return rows


def rows_as_arrays(rows: Sequence[CountingRow]) -> dict[str, np.ndarray]:
    """Column arrays for vectorized estimation code."""
    n = len(rows)
    ids = np.empty(n, dtype=np.int64)
    start = np.empty(n)
    stop = np.empty(n)
    treat = np.empty(n, dtype=np.int64)
    event = np.empty(n, dtype=bool)
    for k, r in enumerate(rows):
        ids[k] = r.id
        start[k] = r.start
        stop[k] = r.stop
        treat[k] = r.treat
        event[k] = r.event
    return {"id": ids, "start": start, "stop": stop, "treat": treat, "event": event}
