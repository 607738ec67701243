"""genlab's interval routines written on mpmath.iv objects: the test oracle
for the libmp endpoint pairs the package computes on.

Each routine applies the mpmath.iv operators in the order the package
applies the matching libmp.mpi_* calls, and every mpmath.iv operator runs
one of those calls at the context's precision, so a routine here and its
package form must agree endpoint for endpoint.  Conversions to the plain
mpmath context run at its default 53 bits, rounding to nearest, as in every
CLI run.
"""

import functools
import math
from fractions import Fraction

import mpmath

from genlab.errors import InvalidConfig
from genlab.expr import BinOp, Call, Const, Neg, Num, Pow, exact_rational
from genlab.numeric import LOG_PAIR_WIDTH, NEG_INF, NEG_PAIR, NeedsBits


@functools.lru_cache(maxsize=None)
def iv_ctx(bits: int):
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = bits
    return ctx


def to_iv(ctx, pair):
    return ctx.make_mpf(pair)


def straddles_zero(x) -> bool:
    return x.a <= 0 <= x.b


def is_exact_zero(x) -> bool:
    return x.a == 0 and x.b == 0


def iv_from_fraction(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def to_float_pair(x) -> tuple[float, float]:
    with mpmath.workprec(53):
        lo = float(mpmath.mpf(x.a.a))
        hi = float(mpmath.mpf(x.b.b))
    if lo > NEG_INF:
        lo = math.nextafter(lo, NEG_INF)
    if hi < -NEG_INF:
        hi = math.nextafter(hi, -NEG_INF)
    return lo, hi


def midpoint(x) -> float:
    with mpmath.workprec(53):
        return float(mpmath.mpf(x.mid))


def log_pair(interval) -> tuple[float, float]:
    if interval is None:
        return NEG_PAIR
    if float(interval.delta) > LOG_PAIR_WIDTH:
        raise NeedsBits
    return to_float_pair(interval)


def log_abs_interval(ctx, x):
    if is_exact_zero(x):
        return None
    if straddles_zero(x):
        raise NeedsBits
    return ctx.log(abs(x))


def log_expm1_abs_interval(ctx, x, precision_bits: int):
    if is_exact_zero(x):
        return None
    if straddles_zero(x):
        raise NeedsBits
    bound = abs(x).b
    with mpmath.workprec(53):
        threshold = mpmath.mpf(2) ** (-(precision_bits // 4))
        small = bound <= threshold
        if small:
            r = abs(x).b
            tail_hi = mpmath.mpf(r) ** 4 / 120 * 2
            tail = ctx.mpf([-tail_hi, tail_hi])
    if small:
        one = ctx.mpf(1)
        series = one + x / 2 + (x * x) / 6 + (x * x * x) / 24
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


def combination(encl, terms):
    """sum c * encl[i] over the (c, i) terms with c != 0, from the first such
    term on; a term with c = 1 is the enclosure itself (RealTuple.combination
    on entries that are not all rational)."""
    total = None
    for c, i in terms:
        if c:
            term = encl[i] if c == 1 else encl[i] * c
            total = term if total is None else total + term
    return total


def eval_interval(ctx, node):
    if isinstance(node, Num):
        q = node.value
        return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)
    if isinstance(node, Const):
        if node.name == "pi":
            return +ctx.pi
        if node.name == "e":
            return ctx.exp(1)
        return (1 + ctx.sqrt(5)) / 2
    if isinstance(node, Neg):
        return -eval_interval(ctx, node.arg)
    if isinstance(node, Pow):
        base = eval_interval(ctx, node.base)
        k = node.exponent
        if k >= 0:
            return base**k
        if straddles_zero(base):
            raise NeedsBits
        return 1 / base ** (-k)
    if isinstance(node, Call):
        arg = eval_interval(ctx, node.arg)
        if node.fn == "exp":
            return ctx.exp(arg)
        if node.fn == "sqrt":
            if arg.b < 0:
                raise InvalidConfig("sqrt of a negative quantity")
            if arg.a < 0:
                raise NeedsBits
            return ctx.sqrt(arg)
        if arg.b <= 0:
            raise InvalidConfig("log of a non-positive quantity")
        if arg.a <= 0:
            raise NeedsBits
        return ctx.log(arg)
    if isinstance(node, BinOp):
        a = eval_interval(ctx, node.left)
        b = eval_interval(ctx, node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if straddles_zero(b):
            exact = exact_rational(node.right)
            if exact is not None and exact == 0:
                raise InvalidConfig("division by zero in expression")
            raise NeedsBits
        return a / b
    raise TypeError(f"not an expression node: {node!r}")


def check_upper_end(n: int, scale: int, x, bits: int) -> None:
    """Assert that n 2^-scale, an upper end computed on fixed-point
    integers, is at least the lower end of the interval x of the given
    precision and within 2^-(bits - 16) of its upper end, relatively."""
    lo, hi = (Fraction(*mpmath.libmp.to_rational(e)) for e in x._mpi_)
    value = Fraction(n, 1 << scale)
    assert lo <= value <= hi + abs(hi) / (1 << (bits - 16))


def taylor_bounds(ctx, encl, exact, coeffs, radius, terms):
    """The series bounds of auxpoly._taylor_bounds with every factor
    recomputed per candidate; encl holds mpmath.iv enclosures.  The package
    sums on fixed-point integers instead, so its upper ends are compared
    with these intervals by check_upper_end, not endpoint for endpoint."""
    rad = iv_from_fraction(ctx, radius)
    all_exact = all(q is not None for q in exact)
    sup = ctx.mpf(0)
    dsup = ctx.mpf(0)
    for t in range(terms):
        if all_exact:
            c_t = sum(
                Fraction(c) * q**t / math.factorial(t) for c, q in zip(coeffs, exact)
            )
            c_abs = iv_from_fraction(ctx, abs(c_t))
        else:
            acc = ctx.mpf(0)
            for c, q, iv in zip(coeffs, exact, encl):
                base = iv_from_fraction(ctx, q) if q is not None else iv
                acc += c * base**t
            acc = acc / math.factorial(t)
            c_abs = abs(acc)
        sup += c_abs * rad**t
        if t >= 1:
            dsup += t * c_abs * rad ** (t - 1)
    fact_t = math.factorial(terms)
    for c, q, iv in zip(coeffs, exact, encl):
        base = iv_from_fraction(ctx, q) if q is not None else iv
        a_abs = abs(base)
        growth = ctx.exp(a_abs * rad)
        sup += abs(c) * (a_abs * rad) ** terms / fact_t * growth
        dsup += (
            abs(c) * a_abs * (a_abs * rad) ** (terms - 1)
            / math.factorial(terms - 1) * growth
        )
    return sup, dsup
