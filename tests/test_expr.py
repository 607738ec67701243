"""Expression grammar, interval evaluation, and the log|e^x - 1| helper."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.errors import InvalidConfig, PrecisionExhausted
from genlab.expr import eval_interval, exact_rational, parse_expression, to_string
from genlab.numeric import (
    ComplexIV,
    complex_exp,
    cos_sin,
    height_threshold,
    log_expm1_abs_interval,
    make_ctx,
    run_escalating,
    to_float_pair,
)
from genlab.tuples import RealTuple, load_expressions


def enclose(text, bits=128):
    ctx = make_ctx(bits)
    return ctx, eval_interval(ctx, parse_expression(text))


def test_decimal_literals_are_exact():
    assert exact_rational(parse_expression("0.1")) == Fraction(1, 10)
    assert exact_rational(parse_expression("2.50")) == Fraction(5, 2)
    assert exact_rational(parse_expression("1/3")) == Fraction(1, 3)
    assert exact_rational(parse_expression("10^-10")) == Fraction(1, 10**10)
    assert exact_rational(parse_expression("-(3-5)*2")) == 4


def test_irrational_leaves_have_no_exact_value():
    assert exact_rational(parse_expression("phi")) is None
    assert exact_rational(parse_expression("sqrt(2)")) is None
    assert exact_rational(parse_expression("1 + 0*pi")) is None


def test_constants_enclose_reference_values():
    for text, ref in [("pi", math.pi), ("phi", (1 + math.sqrt(5)) / 2), ("e", math.e)]:
        _, x = enclose(text)
        lo, hi = to_float_pair(x)
        assert lo - 1e-12 <= ref <= hi + 1e-12
        assert hi - lo < 1e-14  # float endpoints carry a few ulps of widening


def test_golden_ratio_identity_encloses_zero():
    _, x = enclose("phi^2 - phi - 1")
    assert x.a <= 0 <= x.b
    assert float(x.delta) < 1e-30


def test_operator_precedence_and_unary_minus():
    assert exact_rational(parse_expression("2+3*4")) == 14
    assert exact_rational(parse_expression("-2^2")) == -4  # -(2^2)
    assert exact_rational(parse_expression("(0-2)^2")) == 4
    _, x = enclose("sqrt(2)^2")
    assert x.a < 2 < x.b or (x.a <= 2 <= x.b)


@pytest.mark.parametrize(
    "bad",
    ["", "log(0-1)", "1/0", "sqrt(0-4)", "2$3", "1+", "(1", "foo(2)", "2^pi", "2^0.5"],
)
def test_invalid_expressions_rejected(bad):
    with pytest.raises(InvalidConfig):
        node = parse_expression(bad)
        ctx = make_ctx(128)
        eval_interval(ctx, node)


def test_to_string_roundtrips():
    for text in ["0.1+pi*2", "sqrt(2)/(1+phi)", "exp(1)-e", "2^-3 + log(7)"]:
        node = parse_expression(text)
        again = parse_expression(to_string(node))
        ctx = make_ctx(128)
        a = eval_interval(ctx, node)
        b = eval_interval(ctx, again)
        assert a.a <= b.b and b.a <= a.b  # same value, overlapping enclosures


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 9),
    st.sampled_from(["+", "-", "*"]),
)
def test_rational_arithmetic_matches_fractions(a, b, d, op):
    text = f"(({a})/{d}) {op} ({b})"
    expected = {
        "+": Fraction(a, d) + b,
        "-": Fraction(a, d) - b,
        "*": Fraction(a, d) * b,
    }[op]
    assert exact_rational(parse_expression(text)) == expected
    ctx = make_ctx(128)
    x = eval_interval(ctx, parse_expression(text))
    assert x.a <= ctx.mpf(expected.numerator) / expected.denominator <= x.b


def log_expm1(text, bits=192):
    node = parse_expression(text)

    def attempt(b):
        ctx = make_ctx(b)
        x = eval_interval(ctx, node)
        return log_expm1_abs_interval(ctx, x, b)

    return run_escalating(attempt, bits)


def test_log_expm1_tiny_argument():
    # x = 1e-10: log|e^x - 1| = log(x) + log(1 + x/2 + ...) ~ -23.0258509299
    val = log_expm1("10^-10")
    lo, hi = to_float_pair(val)
    assert abs(lo + 23.025850929890456) < 1e-6
    assert hi - lo < 1e-12


def test_log_expm1_exact_zero_sentinel():
    assert log_expm1("0") is None
    assert log_expm1("2-2") is None


def test_log_expm1_at_log_two():
    # e^(log 2) - 1 = 1, so the result encloses 0
    val = log_expm1("log(2)")
    assert val.a <= 0 <= val.b
    assert float(val.delta) < 1e-30


def test_log_expm1_negative_argument():
    # e^(-1) - 1 = -0.63212..., log|.| = -0.45867514538708193
    val = log_expm1("0-1")
    lo, hi = to_float_pair(val)
    assert abs(lo + 0.45867514538708193) < 1e-12


def test_log_expm1_deep_cancellation_uses_series():
    # x = 2^-100 is far below working resolution of exp(x)-1 at 128 bits
    val = log_expm1("2^-100")
    lo, hi = to_float_pair(val)
    assert abs(lo - (-100 * math.log(2))) < 1e-9


def test_unknowable_zero_exhausts_precision():
    # phi^2 - phi - 1 is exactly zero but never exactly representable,
    # so the verdict interval straddles zero at every precision.
    with pytest.raises(PrecisionExhausted):
        log_expm1("phi^2 - phi - 1")


def test_complex_exp_of_i_pi():
    ctx = make_ctx(128)
    z = ComplexIV(ctx.mpf(0), +ctx.pi)
    w = complex_exp(ctx, z)
    assert w.re.a < -1 < w.re.b or w.re.a <= -1 <= w.re.b
    assert w.im.a <= 0 <= w.im.b


@given(
    lo=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    width=st.sampled_from((0.0, 1e-30, 1e-6, 0.5, 2.0, 7.0, 40.0)),
    quarter_turns=st.one_of(st.none(), st.integers(-9, 9)),
    bits=st.sampled_from((128, 256, 512)),
)
@settings(max_examples=120, deadline=None)
def test_cos_sin_matches_ctx_cos_and_sin(lo, width, quarter_turns, bits):
    # zero-width, narrow and wide intervals, some around a multiple of pi/2
    ctx = make_ctx(bits)
    x = ctx.mpf([lo, lo + width])
    if quarter_turns is not None:
        x = x + quarter_turns * ctx.pi / 2
    cos, sin = cos_sin(ctx, x)
    assert cos._mpi_ == ctx.cos(x)._mpi_
    assert sin._mpi_ == ctx.sin(x)._mpi_


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-300, 1e308),
    st.floats(1, 1100),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=2),
)
def test_height_threshold_is_the_plain_float_formula_or_refused(c, eta, heights):
    # the same float operations in the same order as -c*D^eta and
    # -c*(L^eta + R^eta), refused exactly when that value is not finite
    try:
        terms = [float(D) ** eta for D in heights]
        scale = terms[0] if len(terms) == 1 else terms[0] + terms[1]
        expected = (scale, -c * scale)
    except OverflowError:
        expected = None
    if expected is None or not math.isfinite(expected[1]):
        with pytest.raises(InvalidConfig):
            height_threshold(c, eta, *heights)
    else:
        assert height_threshold(c, eta, *heights) == expected


def test_real_tuple_validation():
    t = RealTuple(("1", "phi", "sqrt(2)"), precision_bits=128, label="demo")
    t.validate_nonzero()
    assert len(t) == 3
    assert t.exact_values() is None
    assert RealTuple(("1", "2/3")).exact_values() == (Fraction(1), Fraction(2, 3))

    with pytest.raises(InvalidConfig):
        RealTuple(())
    with pytest.raises(InvalidConfig):
        RealTuple(("1",), precision_bits=32)
    with pytest.raises(InvalidConfig):
        RealTuple(("0",)).validate_nonzero()
    with pytest.raises(PrecisionExhausted):
        RealTuple(("phi^2 - phi - 1",)).validate_nonzero()


def test_one_context_per_precision():
    assert make_ctx(192) is make_ctx(192)
    assert make_ctx(192) is not make_ctx(256)
    assert make_ctx(192).prec == 192


def test_enclosures_evaluated_once_per_precision():
    t = RealTuple(("phi", "log(2)"))
    ctx, encl = t.complex_enclosures(128)
    assert ctx is make_ctx(128)
    assert isinstance(encl, tuple)
    assert t.complex_enclosures(128) is t.complex_enclosures(128)
    assert t.complex_enclosures(256)[1] is not encl
    _, re = t.real_enclosures(128)
    assert all(x is z.re for x, z in zip(re, encl))


def test_enclosure_memo_ignored_by_eq_and_hash():
    fresh = RealTuple(("phi", "sqrt(2)"))
    used = RealTuple(("phi", "sqrt(2)"))
    used.complex_enclosures(128)
    used.complex_enclosures(512)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert len({used, fresh}) == 1


def test_load_expressions(tmp_path):
    p = tmp_path / "theta.txt"
    p.write_text("# a comment\n1\n\nphi\n  sqrt(2)  \n")
    assert load_expressions(str(p)) == ["1", "phi", "sqrt(2)"]
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(InvalidConfig):
        load_expressions(str(empty))
