"""Machine speed probe: times are reported at a reference speed.

On a shared host the speed of this machine drifts by up to 1.5x over an
hour and by 2x over minutes while other tenants are busy, which no run
length averages out.  Each run therefore spends about a tenth of its
time in this fixed probe, between set-up steps and ops, and multiplies
its measured times by ``REFERENCE_S / median probe time``: reported
times are seconds at the reference machine's speed.

The probe mixes the two kinds of work hazrates does: a bytecode loop
(interpreter-bound) and passes over 8 MB arrays (memory-bound numpy).
It uses nothing from hazrates, so a change to the program does not
move it.  Its two buffers stay allocated for the life of the process
and add 16 MB to every run's peak RSS.  The raw wall times and the
probe readings are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of run() on the reference machine: a 2-vCPU x86_64 VM
# with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.1

_N = 1_000_000
_buffers: list[np.ndarray] = []


def run() -> float:
    """Run the probe once; returns its wall time in seconds."""
    if not _buffers:
        _buffers.extend([np.linspace(0.0, 1.0, _N), np.empty(_N)])
    source, work = _buffers
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    for _ in range(10):
        np.multiply(source, 1.5, out=work)
        np.cumsum(work, out=work)
    elapsed = time.perf_counter() - start
    if total != 1_199_997 or not work[-1] > 0:
        raise RuntimeError("speed probe computed a wrong result")
    return elapsed
