"""The reference kernel that times are scaled by.

The CPU speed this benchmark gets on a shared 2-core VM drifts by ±20%
over tens of seconds, and a curveint job slows by the same share as any
other Python code.  So the bench times this fixed kernel after every job
and reports times at the reference speed:

    reported seconds = measured seconds * REF_S / (mean kernel time)

where the mean is over the kernel runs of the same pass.
On a machine as fast as the one the figures were tuned on, the two agree.
The kernel does what curveint spends its time on: exact rational products
summed into dicts, and integer products reduced mod p.  It uses nothing
from curveint, so no change to the library can move it.
"""

import gc
import time
from fractions import Fraction

# The usual time of ``kernel`` on the tuning machine (2-core VM, Python
# 3.11), in seconds.
REF_S = 0.0107


def kernel():
    a = {i: Fraction(i + 1, i + 2) for i in range(40)}
    b = {i: Fraction(2 * i - 3, i + 5) for i in range(40)}
    c = {}
    for i, x in a.items():
        for j, y in b.items():
            c[i + j] = c.get(i + j, 0) + x * y
    s = 0
    for i in range(1, 300):
        for j in range(1, 61):
            s = (s + i * j) % 32003
    return c, s


def sample():
    """Seconds one run of the kernel takes now.  The collector is held
    off while it runs: the garbage a job leaves would otherwise be
    collected on the kernel's clock."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure():
    """Kernel times of the two runs made after each job."""
    return [sample(), sample()]


def scale(samples):
    """The factor from measured seconds to seconds at reference speed.
    The mean, not the median: the speed flips between two levels for
    seconds at a time, and a job's time follows the share of each."""
    return REF_S * len(samples) / sum(samples)
