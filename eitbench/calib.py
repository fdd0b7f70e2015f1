"""Host-speed calibration for the benchmark's time metrics.

The shared 2-vCPU hosts this benchmark runs on change speed by up to 1.7x
within minutes (a fixed numpy kernel timed between rounds read 33-55 ms in
one 14-minute stretch), and CPU time follows wall time, so the slowdown is
the host's and not scheduling.  Every time metric is therefore reported at a
fixed reference speed: a measured wall or CPU time t becomes
t * C_REF_S / c, where c is the time of the fixed kernel below, measured just
before and just after the timed work.  Over 23 interleaved rounds of each
of two workloads this cut the spread of 3-round medians from 27-34% to 8%
(measured with the elementwise part computed in one block instead of four).

The kernel mimics the program's hot path without calling it: complex
elementwise arithmetic on a (15, 32, 2001) block, then a Python loop of
small-array compensated additions.  It never changes with the program, so a
faster program reads faster at any host speed.
"""

import statistics
import time

import numpy as np

C_REF_S = 0.040     # kernel time that defines the reference host speed
_REPEATS = 5


def _kernel(a):
    r = np.empty(a.shape)
    for j in range(0, a.shape[1], 8):    # blocks keep temporaries small
        b = a[:, j:j + 8]
        r[:, j:j + 8] = np.imag((b + 1j) / ((b + 0.3j) * (b - 2j) - 0.25))
    total = np.zeros(r.shape[:-1])
    comp = np.zeros_like(total)
    for k in range(r.shape[-1]):
        term = 0.5 * r[..., k] - comp
        new = total + term
        comp = (new - total) - term
        total = new
    return total


def measure():
    """Median kernel time in seconds over a few repeats."""
    a = np.random.default_rng(0).standard_normal((15, 32, 2001))
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel(a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before, after):
    """Factor taking a time measured between two calibrations to the
    reference host speed."""
    return C_REF_S / (0.5 * (before + after))

