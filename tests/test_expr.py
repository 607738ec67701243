"""Expression grammar, interval evaluation, and the log|e^x - 1| helper."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

import iv_oracle as oracle
from genlab import tuples as tuples_mod
from genlab.errors import InvalidConfig, PrecisionExhausted
from genlab.expr import eval_interval, exact_rational, parse_expression, to_string
from genlab.numeric import (
    ZERO,
    ball,
    ball_inv,
    complex_exp,
    exact_pair,
    expj,
    height_threshold,
    log_expm1_abs_interval,
    make_ctx,
    pi_pair,
    run_escalating,
    straddles_zero,
    to_float_pair,
)
from genlab.tuples import RealTuple, load_expressions


def enclose(text, bits=128):
    ctx = make_ctx(bits)
    return ctx, eval_interval(ctx, parse_expression(text))


def rational_ends(x):
    # the exact values of the finite endpoints of an interval pair
    return [Fraction(*libmp.to_rational(e)) for e in x]


def width(x, bits=128):
    return libmp.to_float(libmp.mpi_delta(x, bits))


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
    assert straddles_zero(x)
    assert width(x) < 1e-30


def test_operator_precedence_and_unary_minus():
    assert exact_rational(parse_expression("2+3*4")) == 14
    assert exact_rational(parse_expression("-2^2")) == -4  # -(2^2)
    assert exact_rational(parse_expression("(0-2)^2")) == 4
    _, x = enclose("sqrt(2)^2")
    lo, hi = rational_ends(x)
    assert lo <= 2 <= hi


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
        # same value, overlapping enclosures
        assert libmp.mpf_le(a[0], b[1]) and libmp.mpf_le(b[0], a[1])


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
    lo, hi = rational_ends(x)
    assert lo <= expected <= hi


def log_expm1(text, bits=192):
    node = parse_expression(text)

    def attempt(b):
        ctx = make_ctx(b)
        x = eval_interval(ctx, node)
        return log_expm1_abs_interval(ctx, x)

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
    assert straddles_zero(val)
    assert width(val, 192) < 1e-30


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
    mid, rad = ball(pi_pair(128), 128)
    x, y, r = complex_exp(ctx, (0, mid, rad))
    # the ball holds -1
    assert (x + (1 << 128)) ** 2 + y**2 <= r**2


def assert_ball_holds(w, p, value):
    # the ball w at scale 2^-p holds the mpmath complex value
    x, y, r = w
    dx = value.real * 2**p - x
    dy = value.imag * 2**p - y
    assert dx * dx + dy * dy <= r * r


def disc_offsets(r, frac_x, frac_y):
    # exact integer offsets inside the disc of radius r: its four extreme
    # points and one drawn point
    dx = int(r * Fraction(frac_x))
    dy = int(math.isqrt(r * r - dx * dx) * Fraction(frac_y))
    return [(0, 0), (r, 0), (-r, 0), (0, r), (0, -r), (dx, dy)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_complex_exp_ball_holds_exp_at_double_bits(data):
    # |Re| <= 40, |Im| <= 20, radii from 0 to 2^(p-20) units
    p = data.draw(st.sampled_from((128, 256, 512)))
    mx = data.draw(st.integers(-40 << p, 40 << p))
    my = data.draw(st.integers(-20 << p, 20 << p))
    r = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, p - 20).map(lambda k: 1 << k),
            st.integers(0, 1 << (p - 20)),
        )
    )
    frac_x = data.draw(st.floats(-1, 1))
    frac_y = data.draw(st.floats(-1, 1))
    ctx = make_ctx(p)
    w = complex_exp(ctx, (mx, my, r))
    with mpmath.workprec(2 * p):
        for dx, dy in disc_offsets(r, frac_x, frac_y):
            z = mpmath.mpc(mpmath.ldexp(mx + dx, -p), mpmath.ldexp(my + dy, -p))
            assert_ball_holds(w, p, mpmath.exp(z))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_expj_ball_holds_the_unit_at_double_bits(data):
    # |x| <= 20, widths from 0 to 2^-20, and the grid's angles 2 pi g / n
    p = data.draw(st.sampled_from((128, 256, 512)))
    ctx = make_ctx(p)
    if data.draw(st.booleans()):
        n = data.draw(st.integers(8, 200))
        g = data.draw(st.integers(0, n // 2))
        two_pi = libmp.mpi_mul(exact_pair(2, p), pi_pair(p), p)
        x = libmp.mpi_div(libmp.mpi_mul(two_pi, exact_pair(g, p), p), exact_pair(n, p), p)
    else:
        lo = data.draw(st.integers(-20 << p, 20 << p))
        w = data.draw(st.one_of(st.just(0), st.integers(0, 1 << (p - 20))))
        x = (libmp.from_man_exp(lo, -p), libmp.from_man_exp(lo + w, -p))
    w = expj(ctx, x)
    mid, rad = ball(x, p)
    frac = data.draw(st.floats(-1, 1))
    with mpmath.workprec(2 * p):
        points = [mpmath.mp.make_mpf(end) for end in x]
        points += [mpmath.ldexp(mid + d, -p) for d in (0, rad, -rad, int(rad * Fraction(frac)))]
        for t in points:
            assert_ball_holds(w, p, mpmath.expj(t))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ball_inv_holds_the_inverse_of_every_disc_point(data):
    # centres up to 2^(p+8) units, radii up to the centre's size;
    # in exact rationals, every drawn point z' of the disc (inside it and on
    # its boundary) has 1/z' in the inverse ball, and the ball is refused
    # exactly when m = isqrt(x^2 + y^2) <= r + 1
    p = data.draw(st.sampled_from((128, 256)))
    k = data.draw(st.integers(0, p + 8))
    x = data.draw(st.integers(-(1 << k), 1 << k))
    y = data.draw(st.integers(-(1 << k), 1 << k))
    r = data.draw(st.one_of(st.integers(0, 16), st.integers(0, 1 << k)))
    inv = ball_inv((x, y, r), p)
    m = math.isqrt(x * x + y * y)
    if m <= r + 1:
        assert inv is None
        return
    mx, my, rad = inv
    unit = Fraction(1, 1 << p)
    # z' = c + s r (1 - t^2, 2 t) / (1 + t^2): s = 1 on the boundary
    t = data.draw(st.fractions(-8, 8, max_denominator=1 << 16))
    s = data.draw(st.one_of(st.just(Fraction(1)), st.fractions(0, 1, max_denominator=1 << 16)))
    ux, uy = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    points = [(x + s * r * ux, y + s * r * uy)]
    if r:
        # the two boundary points that step from the centre towards 0 along
        # an axis
        points += [(x - r if x > 0 else x + r, y), (x, y - r if y > 0 else y + r)]
    for zx, zy in points:
        n = (zx * zx + zy * zy) * unit * unit
        dx = zx * unit / n - mx * unit
        dy = -zy * unit / n - my * unit
        assert dx * dx + dy * dy <= (rad * unit) ** 2


def test_ball_inv_refuses_a_disc_within_a_unit_of_zero():
    for p in (128, 256):
        assert ball_inv((0, 0, 0), p) is None
        assert ball_inv((1, 0, 0), p) is None
        assert ball_inv((9, 0, 8), p) is None
        assert ball_inv((6, 8, 9), p) is None  # m = 10 = r + 1
        assert ball_inv((6, 8, 8), p) is not None  # m = r + 2, the least accepted
        # the inverse of 1 is 1 exactly, up to the 2 units of the midpoint
        assert ball_inv((1 << p, 0, 0), p) == (1 << p, 0, 2)


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
    t = RealTuple(("1", "phi", "sqrt(2)"), precision_bits=128)
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


def test_rational_entries_decided_exactly_beside_irrational_ones():
    with pytest.raises(InvalidConfig, match="tuple entry 0 is zero"):
        RealTuple(("1/3 - 1/3", "pi")).validate_nonzero()
    # an entry is read only when a combination uses it
    t = RealTuple(("0^-1", "pi", "1/2"))
    assert t.exact_combination([(1, 1)]) is None
    assert t.exact_combination([(0, 0), (4, 2)]) == 2
    with pytest.raises(InvalidConfig, match="zero raised to a negative power"):
        t.exact_combination([(1, 0)])


def test_exact_rational_runs_once_per_entry(monkeypatch):
    calls = []
    exact_rational = tuples_mod.exact_rational
    monkeypatch.setattr(
        tuples_mod, "exact_rational", lambda node: calls.append(node) or exact_rational(node)
    )
    t = RealTuple(("1/2", "pi", "3"))
    for _ in range(3):
        t.combination([(2, 0), (1, 1), (-1, 2)], 128)
        t.exact_combination([(1, 0), (1, 2)])
    assert len(calls) == 3


_COMBINATION_ENTRIES = [
    "0", "1/3 - 1/3", "2*(1/2) - 1", "1/2", "-3/4", "7",
    "log(2)", "log(3)", "sqrt(2)", "-sqrt(2)", "pi", "2*pi",
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_COMBINATION_ENTRIES), min_size=1, max_size=4),
    st.data(),
    st.sampled_from([128, 192, 320]),
)
def test_combination_matches_exact_and_interval_references(entries, data, bits):
    t = RealTuple(tuple(entries))
    terms = data.draw(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(0, len(entries) - 1)), min_size=1, max_size=5
    ))
    q = t.exact_combination(terms)
    x = t.combination(terms, bits)
    assert (x == ZERO) == (q == 0)
    if q is not None:
        assert x == exact_pair(q, bits)
        value = q
    else:
        ctx = oracle.iv_ctx(bits)
        encl = [oracle.to_iv(ctx, e) for e in t.real_enclosures(bits)[1]]
        assert oracle.combination(encl, terms)._mpi_ == x
        # the value at twice the precision: the midpoint of its own enclosure
        wide = oracle.iv_ctx(2 * bits)
        fine = [oracle.eval_interval(wide, parse_expression(e)) for e in entries]
        value = rational_ends(oracle.combination(fine, terms).mid._mpi_)[0]
    lo, hi = rational_ends(x)
    assert lo <= value <= hi


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
    assert t.real_enclosures(128)[1] is encl


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
