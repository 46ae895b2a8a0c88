"""Machine-speed probe: reference-speed seconds on a host whose speed swings.

On a shared host the same op can take twice as long from one second to
the next, because other tenants load the physical cores.  The probe runs a
fixed kernel, which shares no code with deltalab, every PROBE_INTERVAL_S
seconds of wall time (from a SIGALRM handler, in the main thread, so the
closed loop keeps a single thread).  An op's reference time is

    sum over the op of  dt * REF_KERNEL_S / kernel time nearby,

that is the wall seconds the op would have taken on a core that runs the
kernel in REF_KERNEL_S.  Probe time is taken out of the op's own time.
Both sides of a comparison use the same constant, so a change to deltalab
moves reference times exactly as it moves raw times on a quiet core.
"""

from __future__ import annotations

import json
import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

import numpy as np

PROBE_INTERVAL_S = 0.2

#: Kernel seconds on the reference core.  It only sets the unit.  On the
#: 2-vCPU Xeon VM where the baseline was taken the warm kernel mostly took
#: longer, so reference seconds there run 15 to 25 % below raw seconds.
REF_KERNEL_S = 0.0016

_PERIOD = [0, 1, -1, 1, 0, -1, 1]
_PREFIX = np.cumsum(np.array(_PERIOD, dtype=np.int64))
_FLOATS = np.arange(20_000, dtype=np.float64)


def _prefix(t: int) -> int:
    t = int(t)
    if t <= 0:
        return 0
    return int(_PREFIX[t % 7])


def kernel() -> None:
    """Fixed work spread over much of the interpreter and of numpy, as
    deltalab's is: contention slows code with a large footprint more than
    a tight loop, so a tight loop alone would track the host badly."""
    total = 0
    for a in range(1, 600):
        w = _PERIOD[a % 7]
        if w:
            total += w * _prefix(60_000 // a)
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i * i + 1)
    d = {str(i): (i * i) % 97 for i in range(600)}
    items = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))
    json.dumps(items[:200])
    np.log1p(_FLOATS).sum()
    np.sort(_FLOATS[::-1])
    np.flatnonzero(_FLOATS % 7 == 3)


class SpeedProbe:
    """Context manager that samples the kernel time every PROBE_INTERVAL_S.

    Each sample runs the kernel twice and times the second, warm run: the
    first run after an op pays cache misses that do not scale with the
    host's speed, and timing it tracked the host less well."""

    def __init__(self):
        # (start, probe seconds in all, warm kernel seconds)
        self.samples: List[Tuple[float, float, float]] = []
        self._old = None

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        kernel()
        t2 = perf_counter()
        self.samples.append((t0, t2 - t0, t2 - t1))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def reference_seconds(self, t0: float, t1: float) -> Tuple[float, float]:
        """(raw, reference) seconds of the interval [t0, t1], probe time
        taken out.  An interval without a sample of its own uses the latest
        one before it."""
        lo = bisect_left(self.samples, t0, key=_start)
        hi = bisect_left(self.samples, t1, lo, key=_start)
        inside = self.samples[lo:hi]
        raw = (t1 - t0) - sum(probe for _, probe, _ in inside)
        return raw, raw * speed_factor(inside or self.samples[max(lo - 1, 0) : max(lo, 1)])


def _start(sample) -> float:
    return sample[0]


def speed_factor(samples) -> float:
    """Reference seconds per wall second while these samples were taken."""
    return REF_KERNEL_S * sum(1.0 / warm for _, _, warm in samples) / len(samples)
