"""The libmp endpoint pairs against their mpmath.iv oracle (iv_oracle).

Random expression trees at random precisions from 64 to 1024 bits: every
converted routine must return the endpoints its mpmath.iv form returns, and
raise where it raises.  The zero tests are also checked on the edge
endpoints: infinities, exact zeros on either side, NaN, and the whole line
that a division by an interval holding zero gives.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.libmp import finf, fnan, fninf, fone, fzero

import iv_oracle as oracle
from genlab import auxpoly as auxpoly_mod
from genlab.errors import InvalidConfig
from genlab.expr import BinOp, Call, Const, Neg, Num, Pow, eval_interval, to_string
from genlab.numeric import (
    NeedsBits,
    exact_pair,
    is_exact_zero,
    log_abs_interval,
    log_expm1_abs_interval,
    log_pair,
    make_ctx,
    straddles_zero,
    to_float_pair,
)
from genlab.tuples import RealTuple

PRECISIONS = st.integers(64, 1024)
BIG = libmp.from_int(1 << 20)

LEAVES = st.one_of(
    st.builds(
        lambda n, d: Num(Fraction(n, d)), st.integers(-50, 50), st.integers(1, 9)
    ),
    st.builds(Const, st.sampled_from(("pi", "e", "phi"))),
    # tiny values, where log|e^x - 1| switches to its series
    st.builds(lambda k: Num(Fraction(1, 10**k)), st.integers(5, 90)),
)


def _grow(inner):
    return st.one_of(
        st.builds(Neg, inner),
        st.builds(Pow, inner, st.integers(-3, 4)),
        st.builds(Call, st.sampled_from(("sqrt", "log")), inner),
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    )


# exp takes only a shallow argument, so no tower of exps leaves the range a
# test can evaluate
SHALLOW = st.one_of(LEAVES, _grow(LEAVES))
TREES = st.recursive(
    st.one_of(LEAVES, st.builds(Call, st.just("exp"), SHALLOW)), _grow, max_leaves=6
)


def outcome(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (NeedsBits, InvalidConfig) as exc:
        return type(exc)


def as_pair(x):
    return x._mpi_ if hasattr(x, "_mpi_") else x


@given(TREES, PRECISIONS)
@settings(max_examples=400, deadline=None)
def test_eval_interval_matches_mpmath_iv(node, bits):
    got = outcome(eval_interval, make_ctx(bits), node)
    want = outcome(oracle.eval_interval, oracle.iv_ctx(bits), node)
    assert got == as_pair(want)


@given(TREES, PRECISIONS)
@settings(max_examples=300, deadline=None)
def test_log_routines_and_float_pairs_match_mpmath_iv(node, bits):
    ctx, ivc = make_ctx(bits), oracle.iv_ctx(bits)
    x = outcome(eval_interval, ctx, node)
    # the exp in log|e^x - 1| is out of reach beyond |x| = 2^20
    if not isinstance(x, tuple) or libmp.mpf_gt(libmp.mpi_abs(x)[1], BIG):
        return
    xi = oracle.to_iv(ivc, x)
    assert to_float_pair(x) == oracle.to_float_pair(xi)
    for mine, theirs in (
        (lambda: log_abs_interval(ctx, x), lambda: oracle.log_abs_interval(ivc, xi)),
        (
            lambda: log_expm1_abs_interval(ctx, x),
            lambda: oracle.log_expm1_abs_interval(ivc, xi, bits),
        ),
    ):
        got, want = outcome(mine), outcome(theirs)
        assert got == (as_pair(want) if want is not None else None)
        if isinstance(got, tuple) or got is None:
            assert outcome(log_pair, ctx, got) == outcome(oracle.log_pair, want)


@given(st.lists(TREES, min_size=1, max_size=3), PRECISIONS)
@settings(max_examples=150, deadline=None)
def test_midpoints_match_mpmath_iv(nodes, bits):
    theta = RealTuple(tuple(to_string(n) for n in nodes), precision_bits=max(64, bits))
    ivc = oracle.iv_ctx(bits)
    want = [outcome(oracle.eval_interval, ivc, n) for n in theta._nodes]
    if not all(hasattr(x, "_mpi_") for x in want):
        return
    assert theta.midpoints(bits) == tuple(oracle.midpoint(x) for x in want)


EXPONENTS = st.one_of(
    st.builds(lambda n, d: str(Fraction(n, d)), st.integers(-3, 3), st.integers(1, 4)),
    st.sampled_from(("log(2)", "log(3)", "log(5)", "sqrt(2)", "sqrt(6)", "pi", "phi")),
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_taylor_bounds_match_mpmath_iv(data):
    exps = data.draw(st.lists(EXPONENTS, min_size=1, max_size=5))
    terms = data.draw(st.integers(1, 10))
    radius = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 3), Fraction(1))))
    bits = data.draw(PRECISIONS)
    theta = RealTuple(tuple(exps))
    rows = [tuple(int(i == lam) for i in range(len(exps))) for lam in range(len(exps))]
    ctx, encl, _ = auxpoly_mod._exponent_data(theta, rows, bits)
    table = auxpoly_mod._taylor_table(ctx, encl, radius, terms)
    exact = [theta.exact_combination(((1, lam),)) for lam in range(len(exps))]
    ivc = oracle.iv_ctx(bits)
    iv_encl = [oracle.to_iv(ivc, x) for x in encl]
    h = data.draw(st.lists(st.integers(-40, 40), min_size=len(exps), max_size=len(exps)))
    want = oracle.taylor_bounds(ivc, iv_encl, exact, h, radius, terms)
    for n, x in zip(auxpoly_mod._taylor_bounds(table, h), want):
        oracle.check_upper_end(n, table.prec, x, bits)


@given(
    st.one_of(st.integers(-(10**40), 10**40), st.fractions()),
    st.sampled_from((64, 128, 1000)),
)
@settings(max_examples=200, deadline=None)
def test_exact_pair_is_the_mpmath_iv_conversion(q, bits):
    ivc = oracle.iv_ctx(bits)
    want = ivc.mpf(q) if isinstance(q, int) else oracle.iv_from_fraction(ivc, q)
    assert exact_pair(q, bits) == want._mpi_


# ---------------------------------------------------------------------------
# the zero tests on edge endpoints

ONE = fone
MINUS_ONE = libmp.mpf_neg(fone)
EDGE_PAIRS = [
    (fninf, finf),
    (fninf, fzero),
    (fzero, finf),
    (fzero, fzero),
    (fzero, ONE),
    (MINUS_ONE, fzero),
    (MINUS_ONE, ONE),
    (ONE, ONE),
    (MINUS_ONE, MINUS_ONE),
    (fninf, MINUS_ONE),
    (ONE, finf),
    (finf, finf),
    (fninf, fninf),
    (fnan, fnan),
    (fnan, ONE),
    (MINUS_ONE, fnan),
    (fzero, fnan),
    (fnan, fzero),
    # a divisor that straddles zero gives the whole line
    libmp.mpi_div((ONE, ONE), (MINUS_ONE, ONE), 128),
    libmp.mpi_div((MINUS_ONE, ONE), (fzero, ONE), 128),
    libmp.mpi_div((fzero, fzero), (MINUS_ONE, ONE), 128),
]


@pytest.mark.parametrize("pair", EDGE_PAIRS, ids=repr)
def test_zero_tests_match_mpmath_iv_on_edge_endpoints(pair):
    x = oracle.to_iv(oracle.iv_ctx(128), pair)
    assert straddles_zero(pair) is bool(oracle.straddles_zero(x))
    assert is_exact_zero(pair) is bool(oracle.is_exact_zero(x))


def test_division_by_a_straddling_divisor_is_the_whole_line():
    assert libmp.mpi_div((ONE, ONE), (MINUS_ONE, ONE), 128) == (fninf, finf)
    assert straddles_zero((fninf, finf)) and not is_exact_zero((fninf, finf))


def test_exact_pairs_of_small_values():
    assert exact_pair(0, 128) == (fzero, fzero)
    assert exact_pair(Fraction(0), 128) == (fzero, fzero)
    assert exact_pair(Fraction(6, 2), 64) == exact_pair(3, 64)
    lo, hi = exact_pair(Fraction(1, 3), 128)
    with mpmath.workprec(300):
        assert mpmath.mpf(lo) < mpmath.mpf(1) / 3 < mpmath.mpf(hi)
