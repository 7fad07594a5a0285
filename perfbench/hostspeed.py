"""Host-speed reference: a fixed kernel timed between units of work and ops.

On a shared host the CPU's speed changes by up to a third for seconds to
minutes at a time, as other tenants come and go, and every part of the
program slows with it, a pure Python loop included. No run length or
quantile absorbs that: the median `train` step of 25 s runs ranged from 88
to 116 ms on the two-core VM this benchmark was built on.

So the timing metrics are reported at reference speed: each unit's wall
time is scaled by REFERENCE_MS over the mean of the kernel's times sampled
just before the unit, between its ops and just after it; time spent
sampling inside a timed region is taken out of it. Scaled, those same runs
ranged from 65.0 to 67.0 ms. The kernel does the kinds of work the program
does, a float64 im2col GEMM, float32 elementwise passes and plain
interpreter work, on inputs fixed here, so a change to the program cannot
change it. Raw wall times go to the results file beside the scaled ones.
"""

import statistics
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import as_strided

REFERENCE_MS = 5.0  # the kernel's time on the host the scaled figures refer to, by definition


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 64, 18, 18))
        sb, sc, sh, sw = x.strides
        self.view = as_strided(x, shape=(4, 64, 3, 3, 16, 16),
                               strides=(sb, sc, sh, sw, sh, sw)).transpose(0, 4, 5, 1, 2, 3)
        self.wt = np.ascontiguousarray(rng.standard_normal((64, 64 * 9)).T)
        self.a, self.b, self.c = (rng.standard_normal((4, 32, 16, 16)).astype(np.float32) for _ in range(3))
        # every buffer is allocated here: an allocation inside the kernel would time the
        # program's allocator state (page faults after it returned memory) instead of the host
        self.cols = np.empty((4 * 16 * 16, 64 * 9))
        self.out = np.empty((4 * 16 * 16, 64))
        self.h = np.empty_like(self.a)
        self.samples = []  # kernel seconds since the last `take`
        self.spent = 0.0   # seconds spent sampling, ever
        self._kernel()  # warm-up

    def _kernel(self):
        self.cols.reshape(self.view.shape)[...] = self.view
        np.matmul(self.cols, self.wt, out=self.out)
        np.copyto(self.h, self.a)
        for _ in range(50):
            np.multiply(self.h, self.b, out=self.h)
            np.add(self.h, self.c, out=self.h)
        total = 0
        for i in range(50_000):  # interpreter work, which the program's many small ops are
            total += i & 7

    def sample(self) -> float:
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0
        return t1 - t0

    def take(self) -> list:
        taken, self.samples = self.samples, []
        return taken


def scale(samples) -> float:
    """Factor from wall time to time at reference speed, for work amid `samples`."""
    return REFERENCE_MS / 1e3 / statistics.fmean(samples)
