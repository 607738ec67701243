"""The speed probe: how fast the shared machine runs, sampled while timing.

The machine's speed flips between a fast and a slow state, up to about
2x apart, every second or so, as other tenants load its cores.  Raw
seconds therefore spread far more from run to run than any change in
genlab would move them.  The benchmark times a fixed piece of work,
``probe_work``, next to everything it measures, and reports times in
reference seconds: measured seconds times PROBE_REF_S over the probe's
median time nearby.  A job that does more work still takes proportionally
longer; the machine's state cancels.

``SpeedProbe`` samples from a SIGALRM handler every PROBE_INTERVAL_S of
wall time, so jobs longer than that are sampled while they run; ``burst``
samples back to back, after a set-up timing.  The work mixes exact
rational elimination with mpmath: a smaller probe of rationals and mpmath
alone left nearly twice the noise in a pass's total on ``torsion``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import mpmath

# Reference seconds are seconds on a machine on which probe_work takes this.
PROBE_REF_S = 0.001
PROBE_INTERVAL_S = 0.04

_CTX = mpmath.MPContext()
_CTX.prec = 128


def probe_work() -> None:
    """A fixed piece of pure-Python work, about 1 ms, that uses no genlab
    code: elimination on a 6x6 matrix of exact rationals, mpmath floats at
    128 bits, a dict."""
    n = 6
    m = [
        [Fraction((i * 7 + j * 3 + i * j) % 11 - 5, (i + 2 * j) % 4 + 1) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    x = _CTX.mpf(1)
    for k in range(1, 10):
        x = x * _CTX.mpf(k) / (k + 1) + _CTX.mpf(1) / k
    d: dict[int, int] = {}
    for k in range(60):
        d[k * 7919 % 1009] = d.get(k * 7919 % 1009, 0) + k
    sorted(d.items())


def sample() -> list[float]:
    """[start, wall seconds, CPU seconds] of one run of ``probe_work``."""
    t0, c0 = time.perf_counter(), time.process_time()
    probe_work()
    return [t0, time.perf_counter() - t0, time.process_time() - c0]


def burst(n: int) -> list[list[float]]:
    """``n`` samples back to back."""
    return [sample() for _ in range(n)]


def wall_factor(samples) -> float:
    """Reference seconds per measured wall second over ``samples``."""
    return PROBE_REF_S / statistics.median(s[1] for s in samples)


def cpu_factor(samples) -> float:
    """Reference seconds per measured CPU second over ``samples``."""
    return PROBE_REF_S / statistics.median(s[2] for s in samples)


class SpeedProbe:
    """Samples every PROBE_INTERVAL_S of wall time while the block runs,
    once more on entry and on exit, so that there are always samples."""

    def __init__(self):
        self.samples: list[list[float]] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples.append(sample())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(sample())
