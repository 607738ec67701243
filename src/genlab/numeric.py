"""Interval-arithmetic plumbing: contexts, precision escalation, log helpers.

All certified numerics in the workbench run on mpmath interval contexts.
Policy: start at max(128, requested) bits, double whenever a verdict
interval straddles its threshold, give up at a hard cap.  Functions here
either return honest enclosures or raise NeedsBits to request escalation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

import mpmath
from mpmath import libmp

from .errors import InvalidConfig, PrecisionExhausted

HARD_CAP_BITS = 16384
NEG_INF = float("-inf")
NEG_PAIR = (NEG_INF, NEG_INF)  # the float pair of log 0
LOG_PAIR_WIDTH = 2.0**-32  # widest log enclosure a float pair may come from

T = TypeVar("T")


class NeedsBits(Exception):
    """Internal signal: the current working precision cannot decide."""


@functools.lru_cache(maxsize=None)
def make_ctx(bits: int) -> "mpmath.ctx_iv.MPIntervalContext":
    """The shared interval context at the given precision.

    One context per precision serves every caller, so no code may set
    ctx.prec on a context it gets from here (mpmath's own functions raise
    and restore it internally, which is safe)."""
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = bits
    return ctx


def run_escalating(fn: Callable[[int], T], requested_bits: int, *, cap: int = HARD_CAP_BITS) -> T:
    """Run fn(bits), doubling bits on NeedsBits until the hard cap."""
    bits = max(128, requested_bits)
    while True:
        try:
            return fn(bits)
        except NeedsBits:
            bits *= 2
            if bits > cap:
                raise PrecisionExhausted(
                    f"verdict undecidable below {cap} bits", required_bits=bits
                ) from None


def height_power(D: int, eta: float) -> float:
    """D^eta, the height scale of the thresholds -c*D^eta; InvalidConfig
    when it overflows the float range."""
    try:
        return float(D) ** eta
    except OverflowError:
        raise InvalidConfig(f"D^eta overflows the float range at D = {D}, eta = {eta}") from None


def height_threshold(c: float, eta: float, *heights: int) -> tuple[float, float]:
    """(scale, -c*scale) for scale the sum of D^eta over the heights: the
    threshold -c*D^eta of one height, or -c*(L^eta + R^eta) of a bituple
    pair.  InvalidConfig when the threshold is not a finite float, so no
    verdict is ever taken against -inf."""
    scale = height_power(heights[0], eta)
    for D in heights[1:]:
        scale += height_power(D, eta)
    thr = -c * scale
    if not math.isfinite(thr):
        at = " + ".join(f"{D}^{eta}" for D in heights)
        raise InvalidConfig(f"the threshold -{c}*({at}) is not a finite float")
    return scale, thr


def straddles_zero(x) -> bool:
    return x.a <= 0 <= x.b


def is_exact_zero(x) -> bool:
    return x.a == 0 and x.b == 0


def iv_from_fraction(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def to_float_pair(x) -> tuple[float, float]:
    """Outward-rounded float endpoints of an interval."""
    lo = float(mpmath.mpf(x.a.a))
    hi = float(mpmath.mpf(x.b.b))
    if lo > NEG_INF:
        lo = math.nextafter(lo, NEG_INF)
    if hi < -NEG_INF:
        hi = math.nextafter(hi, -NEG_INF)
    return lo, hi


def log_pair(interval) -> tuple[float, float]:
    """Float pair of a log enclosure: NEG_PAIR for the exact-zero sentinel
    None, NeedsBits while the enclosure is wider than LOG_PAIR_WIDTH.

    Every reported log|.| goes through here, so all of them are certified
    to the same width."""
    if interval is None:
        return NEG_PAIR
    if float(interval.delta) > LOG_PAIR_WIDTH:
        raise NeedsBits
    return to_float_pair(interval)


def log_abs_interval(ctx, x):
    """Enclosure of log|x|; None as a minus-infinity sentinel for exact zero.

    Raises NeedsBits when x straddles zero without being exactly zero.
    """
    if is_exact_zero(x):
        return None
    if straddles_zero(x):
        raise NeedsBits
    return ctx.log(abs(x))


def log_expm1_abs_interval(ctx, x, precision_bits: int):
    """Enclosure of log|e^x - 1| for an interval x; None for exact zero.

    Near zero the direct formula cancels catastrophically, so for
    |x| <= 2^(-precision_bits/4) it switches to
    log|x| + log(1 + x/2 + x^2/6 + x^3/24 + tail), with the tail bounded
    rigorously.
    """
    if is_exact_zero(x):
        return None
    if straddles_zero(x):
        # sign of x unknown: e^x - 1 straddles zero as well
        raise NeedsBits
    bound = abs(x).b
    threshold = mpmath.mpf(2) ** (-(precision_bits // 4))
    if bound <= threshold:
        one = ctx.mpf(1)
        series = one + x / 2 + (x * x) / 6 + (x * x * x) / 24
        # remainder of sum_{n>=4} x^n/(n+1)!; for |x| <= 1/2 dominated by
        # |x|^4/120 * 2
        r = abs(x).b
        tail_hi = mpmath.mpf(r) ** 4 / 120 * 2
        tail = ctx.mpf([-tail_hi, tail_hi])
        series = series + tail
        if straddles_zero(series):
            raise NeedsBits
        return ctx.log(abs(x)) + ctx.log(abs(series))
    y = ctx.exp(x) - 1
    if is_exact_zero(y):
        return None
    if straddles_zero(y):
        raise NeedsBits
    return ctx.log(abs(y))


@dataclass(frozen=True)
class ComplexIV:
    """A rectangular complex enclosure built from two real intervals: the
    argument and value of complex_exp on the Siegel grid."""

    re: object
    im: object


def cos_sin(ctx, x):
    """Enclosures of cos x and sin x for an interval x, from one
    libmp.mpi_cos_sin call; ctx.cos and ctx.sin each run that call and keep
    half of it, so the enclosures are the same bits at half the cost."""
    c, s = libmp.mpi_cos_sin(x._mpi_, ctx.prec)
    return ctx.make_mpf(c), ctx.make_mpf(s)


def complex_exp(ctx, z: ComplexIV) -> ComplexIV:
    mag = ctx.exp(z.re)
    cos, sin = cos_sin(ctx, z.im)
    return ComplexIV(mag * cos, mag * sin)
