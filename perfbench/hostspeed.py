"""Host speed reference for the gated timings.

On a shared host the CPU's speed drifts as other tenants load it: on the
2-vCPU Xeon the baseline was measured on, by 10-25% over minutes, which
no run length averages away. A fixed kernel that uses numpy and Python
but no floodnet code is timed before every operation and after the last;
an operation's time is scaled by REF_S over the mean of the two samples
around it. A program change does not touch the kernel, so it moves the
scaled time in proportion to the raw one, while a host slowdown moves
the kernel too and cancels. On a quiet host at the reference speed the
scaled and raw times agree.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Median kernel time on the host the baseline was measured on (2 vCPU
# Intel Xeon, numpy 2.4.6 on OpenBLAS 0.3.31, one thread).
REF_S = 0.013

_rng = np.random.default_rng(0x5EED)
_A = _rng.random((32, 32))
_X = _rng.random((34, 34, 8))
_K = _rng.random((3, 3, 8, 16))
# preallocated, so the kernel's time does not depend on the allocator
# state the program leaves behind
_x, _y = np.empty((32, 32)), np.empty((32, 32))
_conv = np.empty((32, 32, 16))
_big = np.zeros(1 << 19)


def _kernel() -> None:
    table: dict[int, float] = {}  # interpreter-bound
    for i in range(24000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
    _x[:] = _A  # small-array dispatch
    for _ in range(300):
        np.matmul(_x, _A, out=_y)
        np.multiply(_y, 0.01, out=_y)
        np.tanh(_y, out=_y)
        np.add(_y, _A, out=_x)
    windows = sliding_window_view(_X, (3, 3), axis=(0, 1))  # memory-bound conv
    for _ in range(2):
        np.einsum("hwcij,ijcd->hwd", windows, _K, out=_conv)
        np.add(_big, 1.0, out=_big)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for an operation bracketed by two kernel samples."""
    return REF_S / (0.5 * (before + after))
