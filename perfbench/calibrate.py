"""Machine-speed sampling, so that timings from a shared host can be compared.

On a virtual machine that shares its physical cores with other tenants, the
same Python code runs 20-40 % slower or faster from one minute to the next,
and a longer run does not average that out.  Every timed region of the
benchmark therefore runs under a ``SpeedSampler``: a SIGALRM every PERIOD
seconds calls ``kernel`` twice and times the second call.  The kernel is a
fixed piece of pure Python (float arithmetic and Fraction-to-float
conversion, like regtang's inner loops) that does not touch regtang; the
first call warms the caches, so that the timed call does not depend on what
the measured code left in them.  A time is reported at the reference speed,

    seconds * REF_KERNEL_S / (geometric mean kernel time inside the region),

that is, as the time the region would have taken if the kernel had run in
REF_KERNEL_S.  The geometric mean, unlike the median, follows the share of
time the host spends in its fast and its slow state (the kernel times are
bimodal), and one preempted sample barely moves it.  The sampling costs
about 2 % of the measured time; it is that dense so that a case of one or
two seconds still gets 100-200 samples.

This module imports no numpy, so a fresh interpreter can start sampling
before it imports anything heavy.
"""

import math
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.01
REF_KERNEL_S = 1.0e-4
MIN_SAMPLES = 5

_COEFFS = (Fraction(3, 2), Fraction(-1, 2), Fraction(5, 16), Fraction(-7, 64))


def kernel() -> float:
    acc = 0.0
    for i in range(20):
        s = i * 0.05
        acc += math.sqrt(s * s + 1.0) + sum(float(c) * s ** j for j, c in enumerate(_COEFFS))
    return acc


class SpeedSampler:
    """Context manager: times ``kernel`` every PERIOD seconds while active."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, kernel seconds)
        self._previous = None

    def _sample(self, signum, frame):
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_kernel_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Geometric mean kernel time over the samples in [start, end]; over all
        samples when that window holds fewer than MIN_SAMPLES."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            inside = [dt for _, dt in self.samples]
        while len(inside) < MIN_SAMPLES:
            self._sample(None, None)
            inside.append(self.samples[-1][1])
        return statistics.geometric_mean(inside)

    def at_ref_speed(self, seconds: float, start: float) -> float:
        """``seconds`` spent from ``start`` on, converted to the reference speed."""
        return seconds * REF_KERNEL_S / self.mean_kernel_s(start, start + seconds)
