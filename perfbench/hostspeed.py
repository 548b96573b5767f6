"""Host-speed calibration for the end-to-end op times.

On a shared host the speed of a CPU drifts by 10-30% over tens of
seconds with the load of other tenants; it moves an op's wall time and
its CPU time alike. A fixed block of work that does not touch hsuq (a
pure-Python loop, then in-place numpy passes over an array that fits in
L2 and one that does not) is timed between ops. Each op's wall time is
scaled by ``NOMINAL_S / t``, where ``t`` is the mean block time just
before and just after the op: the result is the op's time on a host
running at the reference speed, where the block takes ``NOMINAL_S``.

Wall times are printed next to the scaled ones, so the correction can
always be read off.
"""

import time

import numpy as np

# Median block time on the reference host: a shared 2-CPU x86-64 container
# (Intel Xeon), Python 3.11.7, numpy 2.4.6, one BLAS thread.
NOMINAL_S = 0.0295

_PY_ITERS = 160_000
# (array, passes): 400 KB, and 2.7 MB like the eb_study weight matrix.
# numpy works in place: a temporary of this size would come from mmap or
# the heap depending on what the process allocated before (glibc's
# adaptive mmap threshold), which changes the block's time by 2x.
_ARRAYS = [(np.random.default_rng(0).standard_normal(n), reps)
           for n, reps in ((50_000, 40), (333_000, 6))]


def _pass(a):
    np.abs(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    a.sum()


def block():
    """Wall seconds of one calibration block (about 30 ms at reference speed)."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(_PY_ITERS):
        s += i * 0.5
    for a, reps in _ARRAYS:
        for _ in range(reps):
            _pass(a)
    return time.perf_counter() - t0


def warm():
    for _ in range(3):
        block()


def scales(blocks):
    """Per-interval factors for the len(blocks) - 1 intervals between blocks."""
    return [2.0 * NOMINAL_S / (a + b) for a, b in zip(blocks, blocks[1:])]
