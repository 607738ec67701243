"""Certified numerics: interval pairs, precision escalation, log helpers
and one complex ball type.

A real enclosure is a pair (a, b) of libmp endpoints, and every operation
on pairs is one libmp.mpi_* call at the precision of a context from
make_ctx.  Policy: start at max(128, requested) bits, double whenever a
verdict interval straddles its threshold, give up at a hard cap.  Functions
here either return honest enclosures or raise NeedsBits to request
escalation.

A ball is a midpoint-radius complex disc on Python ints (Johansson 2017,
"Arb: efficient arbitrary-precision midpoint-radius interval arithmetic",
IEEE Trans. Comput. 66(8)): the triple (mx, my, r) stands for the disc of
centre (mx + i my) 2^-p and radius r 2^-p, for p the precision of the
context it was made at.  ball turns a real interval into a centre and a
radius, ball_mul multiplies two balls, and complex_exp and expj evaluate
exp at the centre only, once, and widen the point value into a ball.  The
point values come from libmp's mpf_exp and mpf_cos_sin at p + 20 bits,
trusted to a relative error of 2^-(p + 10): the same trust that mpmath's
own interval cos and sin (libmp.mpi_cos_sin) place in mpf_cos_sin at that
precision.  Every other error of a ball is bounded in the code that makes
it, with every radius rounded up.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, TypeVar

from mpmath import libmp
from mpmath.libmp import fzero, round_ceiling, round_floor

from .errors import InvalidConfig, PrecisionExhausted

HARD_CAP_BITS = 16384
NEG_INF = float("-inf")
NEG_PAIR = (NEG_INF, NEG_INF)  # the float pair of log 0
LOG_PAIR_WIDTH = 2.0**-32  # widest log enclosure a float pair may come from
ZERO = (fzero, fzero)  # the pair of the exact 0

T = TypeVar("T")


class NeedsBits(Exception):
    """Internal signal: the current working precision cannot decide."""


class Ctx(NamedTuple):
    """A precision handle: the pair operations of every function given it
    run at prec bits."""

    prec: int


@functools.lru_cache(maxsize=None)
def make_ctx(bits: int) -> Ctx:
    """The one handle of the given precision."""
    return Ctx(bits)


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
    """a <= 0 <= b for the pair x = (a, b); False when an endpoint is NaN."""
    return libmp.mpf_le(x[0], fzero) and libmp.mpf_ge(x[1], fzero)


def is_exact_zero(x) -> bool:
    return x == ZERO


def exact_pair(q: int | Fraction, prec: int) -> tuple:
    """The pair of an int (its floor and ceiling at prec bits) or of a
    Fraction (the quotient of its numerator's and denominator's pairs)."""
    if isinstance(q, Fraction) and q.denominator != 1:
        num, den = exact_pair(q.numerator, prec), exact_pair(q.denominator, prec)
        return libmp.mpi_div(num, den, prec)
    q = int(q)
    return libmp.from_int(q, prec, round_floor), libmp.from_int(q, prec, round_ceiling)


def pi_pair(prec: int) -> tuple:
    """The pair of pi at prec bits."""
    return libmp.mpf_pi(prec, round_floor), libmp.mpf_pi(prec, round_ceiling)


def to_float_pair(x) -> tuple[float, float]:
    """Outward-rounded float endpoints of the pair x."""
    lo = libmp.to_float(x[0], rnd=libmp.round_nearest)
    hi = libmp.to_float(x[1], rnd=libmp.round_nearest)
    if lo > NEG_INF:
        lo = math.nextafter(lo, NEG_INF)
    if hi < -NEG_INF:
        hi = math.nextafter(hi, -NEG_INF)
    return lo, hi


def log_pair(ctx, interval) -> tuple[float, float]:
    """Float pair of a log enclosure: NEG_PAIR for the exact-zero sentinel
    None, NeedsBits while the enclosure (its width rounded up at ctx.prec,
    then down to a float) is wider than LOG_PAIR_WIDTH.

    Every reported log|.| goes through here, so all of them are certified
    to the same width."""
    if interval is None:
        return NEG_PAIR
    width = libmp.mpi_delta(interval, ctx.prec)
    if libmp.to_float(width, rnd=libmp.round_down) > LOG_PAIR_WIDTH:
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
    p = ctx.prec
    return libmp.mpi_log(libmp.mpi_abs(x, p), p)


def log_expm1_abs_interval(ctx, x, precision_bits: int):
    """Enclosure of log|e^x - 1| for an interval x; None for exact zero.

    Near zero the direct formula cancels catastrophically, so for
    |x| <= 2^(-precision_bits/4) it switches to
    log|x| + log(1 + x/2 + x^2/6 + x^3/24 + tail), with the tail bounded
    rigorously: sum_{n>=4} |x|^n/(n+1)! <= 2 |x|^4/120 for |x| <= 1/2, with
    room to spare for the 53-bit rounding of that bound.
    """
    if is_exact_zero(x):
        return None
    if straddles_zero(x):
        # sign of x unknown: e^x - 1 straddles zero as well
        raise NeedsBits
    p = ctx.prec
    add, mul, div, log = libmp.mpi_add, libmp.mpi_mul, libmp.mpi_div, libmp.mpi_log
    x_abs = libmp.mpi_abs(x, p)
    if libmp.mpf_le(x_abs[1], libmp.mpf_shift(libmp.fone, -(precision_bits // 4))):
        xx = mul(x, x, p)
        series = add(exact_pair(1, p), div(x, exact_pair(2, p), p), p)
        series = add(series, div(xx, exact_pair(6, p), p), p)
        series = add(series, div(mul(xx, x, p), exact_pair(24, p), p), p)
        near = libmp.round_nearest
        tail = libmp.mpf_pow_int(libmp.mpf_pos(x_abs[1], 53, near), 4, 53, near)
        tail = libmp.mpf_mul_int(libmp.mpf_div(tail, libmp.from_int(120), 53, near), 2, 53, near)
        series = add(series, (libmp.mpf_neg(tail), tail), p)
        if straddles_zero(series):
            raise NeedsBits
        return add(log(x_abs, p), log(libmp.mpi_abs(series, p), p), p)
    y = libmp.mpi_sub(libmp.mpi_exp(x, p), exact_pair(1, p), p)
    if is_exact_zero(y):
        return None
    if straddles_zero(y):
        raise NeedsBits
    return log(libmp.mpi_abs(y, p), p)


def log_expm1_abs(x, precision_bits: int = 128) -> tuple[float, float]:
    """Certified enclosure of log|e^x - 1| as a float pair.

    x may be an expression string, an int, or a Fraction.  Returns the
    (-inf, -inf) sentinel for x = 0.
    """
    from .expr import eval_interval, exact_rational, parse_expression  # expr imports numeric

    if isinstance(x, str):
        node = parse_expression(x)
        exact = exact_rational(node)
    elif isinstance(x, (int, Fraction)):
        node, exact = None, Fraction(x)
    else:
        raise InvalidConfig(f"unsupported input for log_expm1_abs: {x!r}")

    def attempt(bits: int) -> tuple[float, float]:
        ctx = make_ctx(bits)
        if exact is not None:
            xi = exact_pair(exact, bits)
        else:
            xi = eval_interval(ctx, node)
        return log_pair(ctx, log_expm1_abs_interval(ctx, xi, bits))

    return run_escalating(attempt, precision_bits)


def ball(x, prec: int) -> tuple[int, int]:
    """(mid, rad) with [mid - rad, mid + rad] * 2^-prec containing the finite
    interval x = (a, b): its endpoints floored to fixed point and widened by
    one unit on each side; rad is at least mid's distance to either end."""
    a, b = x
    lo = libmp.to_fixed(a, prec) - 1
    hi = libmp.to_fixed(b, prec) + 1
    mid = (lo + hi) >> 1
    return mid, hi - mid


def ball_mul(a, b, prec: int) -> tuple[int, int, int]:
    """The product of two balls (x, y, r) at scale 2^-prec: the truncated
    midpoint product, and the radius |ab - a~b~| <= |a~| r_b + |b~| r_a + r_a r_b
    with |a~| <= |ax| + |ay| + 1, shifted down and plus 3 units for that
    floor and the midpoint's truncation."""
    ax, ay, ra = a
    bx, by, rb = b
    return (
        (ax * bx - ay * by) >> prec,
        (ax * by + ay * bx) >> prec,
        (((abs(ax) + abs(ay) + 1) * rb + (abs(bx) + abs(by) + 1) * ra + ra * rb) >> prec)
        + 3,
    )


def _exp_ball(mx: int, my: int, r: int, p: int) -> tuple[int, int, int]:
    """The ball of e^z over the ball z = (mx, my, r) at scale 2^-p, r <= 2^p.

    One mpf_exp and one mpf_cos_sin at the centre c, at wp = p + 20 bits,
    give e^Re(c) and cos, sin of Im(c) within the relative d = 2^(10-wp)
    (the module's trust assumption), and floored to wp-bit fixed point E,
    C and S they are each within one unit 2^-wp more.  The real part
    E C 2^-2wp, floored to 2^-p, is then within
    |e^c|(4d + 2^-wp) + 2^-wp(1 + 2d) + 2^-p <= m 2^(13-wp) + 2 units of
    Re e^c, for m = floor(E 2^(p-wp)) + 1 >= |e^c| 2^p / (1 + 2d), and so is
    the imaginary part.  Over the disc, |e^z - e^c| = |e^c||e^(z-c) - 1|
    <= |e^c|(rho + rho^2) for rho = r 2^-p <= 1, with |e^c| at most
    m + m 2^(11-wp) + 1 units.  The radius is the sum of the three."""
    if r > 1 << p:
        raise ValueError("the exp ball needs an input radius of at most 1")
    wp = p + 20
    mag = libmp.to_fixed(libmp.mpf_exp(libmp.from_man_exp(mx, -p), wp), wp)
    cos, sin = libmp.mpf_cos_sin(libmp.from_man_exp(my, -p), wp)
    cos = libmp.to_fixed(cos, wp)
    sin = libmp.to_fixed(sin, wp)
    shift = 2 * wp - p
    m = (mag >> (wp - p)) + 1
    err = 2 * ((m >> (wp - 13)) + 3)
    if r:
        top = m + (m >> (wp - 11)) + 1
        err += ((top * r) >> p) + ((top * r * r) >> (2 * p)) + 2
    return (mag * cos) >> shift, (mag * sin) >> shift, err


def complex_exp(ctx, z: tuple[int, int, int]) -> tuple[int, int, int]:
    """The ball of e^z over the ball z at scale 2^-ctx.prec: one point
    evaluation at its centre, widened as _exp_ball says."""
    return _exp_ball(*z, ctx.prec)


def expj(ctx, x) -> tuple[int, int, int]:
    """The ball of e^(i x) over the real interval x at scale 2^-ctx.prec:
    ball(x) and one point mpf_cos_sin at its centre, widened in the same
    way as complex_exp."""
    mid, rad = ball(x, ctx.prec)
    return _exp_ball(0, mid, rad, ctx.prec)
