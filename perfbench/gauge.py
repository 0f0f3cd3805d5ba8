"""Machine-speed gauge: scales measured seconds to a fixed reference speed.

The benchmark shares its machine with other tenants, which stretch the same
work to up to twice its quiet time for tens of seconds at a stretch; process
CPU time stretches with it, so this is contention, not descheduling.  The
gauge times a fixed piece of pure-Python work (jet-like products and sums on
a small slotted class, plus dict stores) right before and right after each
measured interval, and scales the interval by REFERENCE_S over the mean of
the two kernel times.  The result is in seconds at the speed where the
kernel takes REFERENCE_S.

Never change the kernel or REFERENCE_S: every commit's figures are in units
of its speed, and a change would rescale them all.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.007  # about the kernel on a quiet core of a 2-core x86-64 VM


class _Dual:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(float(x) for x in c)

    def __mul__(self, o):
        a, b = self.c, o.c
        return _Dual((a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[0] * b[2] + a[2] * b[0],
                      a[0] * b[3] + a[3] * b[0] + a[1] * b[2] + a[2] * b[1]))

    def __add__(self, o):
        return _Dual(tuple(x + y for x, y in zip(self.c, o.c)))


def kernel() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    x = _Dual((1.0, 0.5, 0.25, 0.125))
    acc = _Dual((0.0, 0.0, 0.0, 0.0))
    store = {}
    for i in range(2000):
        acc = acc + x * x
        store[i & 255] = acc
    return time.perf_counter() - t0


class Gauge:
    """Scales each measured interval by the kernel times on either side."""

    def __init__(self):
        self.last = kernel()

    def restart(self) -> None:
        """Time the kernel afresh before an interval that follows other work."""
        self.last = kernel()

    def scale(self, seconds: float) -> float:
        """seconds just measured, at the reference speed."""
        now = kernel()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor
