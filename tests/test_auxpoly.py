"""Tests for the auxiliary-polynomial pipeline.

Frozen values are derived independently in comments or helper oracles:
binomial-coefficient counts by hand, exact roots by integer powers, and
evaluation logs from closed forms through math.log/math.expm1.
"""

import math
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genlab.auxpoly as auxpoly_mod
import iv_oracle as oracle
import expr_oracle
from expr_oracle import log_expm1_abs
from genlab.auxpoly import (
    AuxSchedule,
    GridSpec,
    alphas_from_monomials,
    distance_audit,
    make_schedule,
    monomial_set,
    nth_root_floor,
    omega,
    philippon_audit,
    siegel_construct,
)
from itertools import product

from genlab.chars import zero_estimate_search
from genlab.cyclo import (
    CycloNum,
    char_value,
    make_point,
    min_vanishing_degree,
    normalize_point_set,
)
from genlab.errors import (
    BudgetExceeded,
    HypothesisNotMet,
    InvalidConfig,
    PrecisionExhausted,
)
from genlab.expr import exact_rational, parse_expression
from genlab.intmat import matmul, smith_normal_form
from genlab.numeric import (
    NEG_PAIR,
    ZERO,
    ball,
    ball_inv,
    complex_exp,
    expj,
    log_abs_interval,
    to_float_pair,
)
from genlab.tuples import RealTuple

NEG_INF = float("-inf")


def enclosure_contains(pair, value, slack=1e-9):
    return pair[0] - slack <= value <= pair[1] + slack


# ---------------------------------------------------------------------------
# schedules


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=7))
def test_nth_root_floor_exact(x, n):
    r = nth_root_floor(x, n)
    assert r**n <= x
    assert (r + 1) ** n > x


def test_schedule_worked_example():
    # 32^(2/5) = 4 and 7 * 32^(3/5) = 56, both exact powers of two underneath
    s = make_schedule(32, 1, 3, 2)
    assert (s.L, s.R) == (4, 56)
    assert s.M == math.comb(4 + 3, 3) == 35
    assert s.M_low == math.comb(4 + 2, 3) == 20
    assert s.delta == 32
    # 8^2 * 32 = 2048 > 35: infeasible at this height
    assert not s.feasible


def test_schedule_height_one():
    for mu, nu in [(1, 1), (2, 3), (3, 2)]:
        s = make_schedule(1, 1, mu, nu)
        assert s.L == 1
        assert s.R == 2 * mu + 1


def test_schedule_feasibility_frontier_cell():
    # mu = nu = 3, k = 1: M = C(L+3, 3); the exact test is 64 * D <= M
    hi = make_schedule(2**18, 1, 3, 3)
    assert hi.L == 512 and hi.M == 22_632_705
    assert hi.feasible
    lo = make_schedule(2**17, 1, 3, 3)
    assert lo.L == 362 and not lo.feasible


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_schedule_invariants(D, k, mu, nu):
    s = make_schedule(D, k, mu, nu)
    assert s.L ** (mu + nu) <= D**nu < (s.L + 1) ** (mu + nu)
    assert s.R ** (mu + nu) <= (2 * mu + 1) ** (mu + nu) * D**mu
    assert (s.R + 1) ** (mu + nu) > (2 * mu + 1) ** (mu + nu) * D**mu
    if s.M <= 5000:
        assert s.M == len(monomial_set(mu, k, s.L))
    # U is a lower rounding of the exact root, so this holds in floats
    assert s.siegel_inequality_holds()
    assert s.feasible == (8 ** (k + 1) * D**k <= s.M)


def test_schedule_rejects_bad_input():
    with pytest.raises(InvalidConfig):
        make_schedule(0, 1, 1, 1)
    with pytest.raises(InvalidConfig):
        make_schedule(4, 1, 0, 1)


def test_monomial_set_lex_and_count():
    mons = monomial_set(2, 1, 2)
    assert mons == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
    assert len(monomial_set(3, 2, 3)) == math.comb(3 + 6, 6)


# ---------------------------------------------------------------------------
# Siegel construction


def test_siegel_duplicate_exponents_give_the_difference():
    res = siegel_construct(("log(2)", "log(2)"), 1.0, 2.0)
    assert res.identically_zero
    assert res.coefficients == (1, -1)
    assert res.achieved_log_sup == NEG_INF
    assert res.u_achieved == float("inf")
    assert not res.best_effort


def test_siegel_single_function_is_best_effort():
    res = siegel_construct(("0",), 1.0, 2.0)
    assert res.best_effort
    assert res.u_achieved <= 0
    with pytest.raises(HypothesisNotMet):
        siegel_construct(("0",), 1.0, 2.0, strict=True)


def test_siegel_log_pair_cell():
    # rehearsal of the smallest schedule cell: degree 2 in (log 2, log 3)
    theta = RealTuple(("log(2)", "log(3)"), precision_bits=256)
    gens, mons = alphas_from_monomials(theta, (0, 1), 2)
    assert len(mons) == 6
    u_target = math.sqrt(6 * 8) / 8  # (M*Delta)^(1/2) / 8 with M=6, Delta=8
    res = siegel_construct(
        gens, u_target, 8.0, monomials=mons, precision_bits=256
    )
    assert res.height_ok
    assert not res.identically_zero
    assert res.u_achieved >= 0.5 * u_target
    # both certificates agree on what was achieved
    total = min(res.grid_sup + res.lipschitz_slack, math.exp(res.taylor_log_sup))
    assert math.isclose(math.exp(res.achieved_log_sup), total, rel_tol=1e-9)
    # canonical sign: first nonzero coefficient positive
    first = next(c for c in res.coefficients if c)
    assert first > 0


def test_siegel_rational_exponents():
    res = siegel_construct(("0", "1/2", "1"), 1.0, 4.0, precision_bits=128)
    assert res.height_ok
    assert res.u_achieved > 0
    assert any(res.coefficients)


def test_siegel_rejects_bad_input():
    with pytest.raises(InvalidConfig):
        siegel_construct((), 1.0, 1.0)
    with pytest.raises(InvalidConfig):
        siegel_construct(("1",), 0.0, 1.0)
    # NaN compares false with everything, so it must not slip past "<= 0"
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig):
            siegel_construct(("1",), bad, 1.0)
        with pytest.raises(InvalidConfig):
            siegel_construct(("1",), 1.0, bad)
    with pytest.raises(InvalidConfig):
        siegel_construct(("1",), 1.0, 1.0, radius=Fraction(0))
    with pytest.raises(InvalidConfig):
        GridSpec(rings=0)


def plain_data(texts, bits):
    # (ctx, enclosures, exact values) of a family whose exponents are its
    # generators: siegel_construct's RealTuple route with identity rows
    theta = RealTuple(tuple(texts))
    rows = [tuple(int(i == lam) for i in range(len(theta))) for lam in range(len(theta))]
    ctx, encl, _ = auxpoly_mod._exponent_data(theta, rows, bits)
    return ctx, encl, [theta.exact_combination(((1, lam),)) for lam in range(len(theta))]


def grid_sup_reference(ctx, encl, coeffs, radius, grid):
    # one interval exp, cos and sin per term at every grid point: the
    # straightforward loop on the context's own functions
    points = grid.rings * grid.angles
    rho = oracle.iv_from_fraction(ctx, radius)
    worst = 0.0
    for g in range(points):
        ang = 2 * ctx.pi * g / points
        cos_a, sin_a = ctx.cos(ang), ctx.sin(ang)
        re, im = ctx.mpf(0), ctx.mpf(0)
        for c, alpha in zip(coeffs, encl):
            if not c:
                continue
            x = alpha * rho
            mag, arg = ctx.exp(x * cos_a), x * sin_a
            re, im = re + mag * ctx.cos(arg) * c, im + mag * ctx.sin(arg) * c
        abs2_hi = oracle.to_float_pair(re * re + im * im)[1]
        hi = math.nextafter(math.sqrt(max(0.0, abs2_hi)), math.inf)
        worst = max(worst, hi)
    return worst


def circle_points(radius, grid):
    # the rings * angles grid points on |w| = radius, in the current mpmath
    # precision
    points = grid.rings * grid.angles
    rad = mpmath.mpf(radius.numerator) / radius.denominator
    return [rad * mpmath.expj(2 * mpmath.pi * g / points) for g in range(points)]


# exponents with pairwise distinct values: rationals, log(p), sqrt(q) with q
# not a square
EXPONENTS = st.one_of(
    st.builds(
        lambda n, d: ("q", Fraction(n, d)), st.integers(-3, 3), st.integers(1, 4)
    ),
    st.builds(lambda p: ("log", p), st.sampled_from((2, 3, 5, 7))),
    st.builds(lambda q: ("sqrt", q), st.sampled_from((2, 3, 5, 6, 7))),
)


def exponent_text(e):
    kind, v = e
    return str(v) if kind == "q" else f"{kind}({v})"


def exponent_mp(e):
    kind, v = e
    if kind == "q":
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.log(v) if kind == "log" else mpmath.sqrt(v)


@st.composite
def grid_cases(draw):
    exps = draw(st.lists(EXPONENTS, min_size=1, max_size=4, unique=True))
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=len(exps), max_size=len(exps)).filter(any)
    )
    grid = GridSpec(draw(st.integers(1, 4)), draw(st.integers(8, 13)))
    radius = draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    bits = draw(st.sampled_from((128, 256)))
    return exps, coeffs, grid, radius, bits


def check_grid_sup_against_oracles(exps, coeffs, grid, radius, bits):
    # equal to the pointwise interval loop, at least |phi| from mpmath at
    # twice the bits at every grid point, and sharp to 1e-12
    ctx, encl, _ = plain_data([exponent_text(e) for e in exps], bits)
    got = auxpoly_mod._grid_sup(ctx, encl, coeffs, radius, grid)
    ivc = oracle.iv_ctx(bits)
    assert got == grid_sup_reference(ivc, [oracle.to_iv(ivc, x) for x in encl], coeffs, radius, grid)
    with mpmath.workprec(2 * bits):
        alphas = [exponent_mp(e) for e in exps]
        true_max = mpmath.mpf(0)
        for w in circle_points(radius, grid):
            val = abs(mpmath.fsum(c * mpmath.exp(a * w) for c, a in zip(coeffs, alphas)))
            assert got >= val
            true_max = max(true_max, val)
        assert got <= true_max * (1 + mpmath.mpf(1e-12))


# one grid of each kind _grid_sup walks: N odd (conjugation only),
# N = 2 mod 4 (and w -> -conj w) and N = 0 mod 8 (and the octant swap)
@given(grid_cases())
@example(((("log", 3), ("q", Fraction(-1, 2))), [2, -5], GridSpec(3, 9), Fraction(1, 2), 128))
@example(
    ((("sqrt", 7), ("log", 2), ("q", Fraction(3))), [1, 4, -1], GridSpec(1, 10), Fraction(1), 256)
)
@example(((("q", Fraction(-3)), ("sqrt", 2)), [7, 3], GridSpec(2, 12), Fraction(1), 128))
@settings(max_examples=40, deadline=None)
def test_grid_sup_matches_pointwise_loop_and_encloses_phi(case):
    check_grid_sup_against_oracles(*case)


@pytest.mark.parametrize(
    "theta,grid,refused",
    [
        # e^(-90) is below 2^-129: where a generator ball is that small at
        # w_g, ball_inv refuses it, and that generator is exponentiated at
        # N/2 - g directly
        (90, GridSpec(1, 100), True),
        # e^(-85) is 42 units at 2^-128: ball_inv accepts it, but its
        # inverse is 24% wide, so the direct evaluation at N/2 - g replaces it
        (85, GridSpec(1, 8), False),
    ],
)
def test_grid_sup_at_generators_near_zero_stays_sharp(monkeypatch, theta, grid, refused):
    answers = []

    def watching_inv(z, p):
        inv = ball_inv(z, p)
        answers.append(inv is None)
        return inv

    monkeypatch.setattr(auxpoly_mod, "ball_inv", watching_inv)
    # phi = e^(theta w) + 2 e^(-theta w) peaks at w = -1, point N/2, where
    # the generator of -theta is the one evaluated directly
    exps = (("q", Fraction(theta)), ("q", Fraction(-theta)))
    check_grid_sup_against_oracles(exps, [1, 2], grid, Fraction(1), 128)
    assert any(answers) is refused


def grid_exp_counts(monkeypatch, *args):
    # the complex_exp and expj calls of _grid_sup(*args)
    counts = {"complex_exp": 0, "expj": 0}
    for name, fn in (("complex_exp", complex_exp), ("expj", expj)):

        def counting(ctx, z, name=name, fn=fn):
            counts[name] += 1
            return fn(ctx, z)

        monkeypatch.setattr(auxpoly_mod, name, counting)
    auxpoly_mod._grid_sup(*args)
    return counts["complex_exp"], counts["expj"]


def quarter_points(n):
    # (the points of an n-point grid that _grid_sup exponentiates at, the
    # turns it takes expj at)
    points = n // 4 + 1 if n % 2 == 0 else n // 2 + 1
    return points, n // 8 + 1 if n % 4 == 0 else points


# _grid_sup exponentiates at the angles of a half-plane for odd N and of a
# quarter of the circle for even N.
@pytest.mark.parametrize("rings,angles", [(1, 8), (3, 9), (10, 100), (4, 13), (1, 10)])
def test_grid_sup_takes_one_exp_per_term_per_half_plane_angle(monkeypatch, rings, angles):
    coeffs = (3, 0, -2, 1)
    ctx, encl, _ = plain_data(("0", "log(2)", "log(3)", "1/2"), 128)
    grid = GridSpec(rings, angles)
    counts = grid_exp_counts(monkeypatch, ctx, encl, coeffs, Fraction(1, 4), grid)
    points, turns = quarter_points(rings * angles)
    assert counts == (points * 3, turns)


# wide exponents, |a| <= 8, pairwise distinct values
WIDE_EXPONENTS = st.one_of(
    st.builds(
        lambda n, d: ("q", Fraction(n, d)), st.integers(-8, 8), st.integers(1, 3)
    ),
    st.builds(
        lambda k, p: ("klog", (k, p)),
        st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
        st.sampled_from((2, 3, 5, 7)),
    ),
    st.builds(
        lambda k, q: ("ksqrt", (k, q)),
        st.sampled_from((-3, -2, -1, 1, 2, 3)),
        st.sampled_from((2, 3, 5, 6, 7)),
    ),
)


def wide_exponent_text(e):
    kind, v = e
    if kind == "q":
        return str(v)
    k, n = v
    return f"({k})*{kind[1:]}({n})"


def wide_exponent_mp(e):
    kind, v = e
    if kind == "q":
        return mpmath.mpf(v.numerator) / v.denominator
    k, n = v
    return k * (mpmath.log(n) if kind == "klog" else mpmath.sqrt(n))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_grid_sup_encloses_phi_over_forty_rings_at_radius_one(data):
    # up to 40 * 12 points of the unit circle and exponents up to |a| = 8:
    # every ball bounds |phi| at its point, and the max stays sharp
    exps = data.draw(st.lists(WIDE_EXPONENTS, min_size=1, max_size=4, unique=True))
    coeffs = data.draw(
        st.lists(st.integers(-9, 9), min_size=len(exps), max_size=len(exps)).filter(any)
    )
    rings = data.draw(st.one_of(st.just(40), st.integers(1, 40)))
    grid = GridSpec(rings, data.draw(st.integers(8, 12)))
    bits = 128
    ctx, encl, _ = plain_data([wide_exponent_text(e) for e in exps], bits)
    got = auxpoly_mod._grid_sup(ctx, encl, coeffs, Fraction(1), grid)
    with mpmath.workprec(2 * bits):
        alphas = [wide_exponent_mp(e) for e in exps]
        true_max = mpmath.mpf(0)
        for w in circle_points(Fraction(1), grid):
            val = abs(mpmath.fsum(c * mpmath.exp(a * w) for c, a in zip(coeffs, alphas)))
            assert got >= val
            true_max = max(true_max, val)
        assert got <= true_max * (1 + mpmath.mpf(1e-12))


# generators of a monomial family: distinct log primes and square roots of
# distinct squarefree q, plus at most one nonzero rational.  They are linearly
# independent over Q (Besicovitch for the roots against 1, Baker for the logs
# against the algebraic numbers), so distinct monomials give distinct
# exponents and phi is not identically zero.
IRRATIONAL_GENERATORS = [("log", p) for p in (2, 3, 5, 7)] + [
    ("sqrt", q) for q in (2, 3, 5, 6, 7)
]
NONZERO_RATIONALS = st.builds(
    Fraction, st.integers(1, 3).flatmap(lambda n: st.sampled_from((n, -n))),
    st.integers(1, 4),
)


def draw_monomial_family(data):
    mu = data.draw(st.integers(1, 3))
    gens = data.draw(
        st.lists(
            st.sampled_from(IRRATIONAL_GENERATORS), min_size=mu - 1, max_size=mu, unique=True
        )
    )
    if len(gens) < mu:
        gens.append(("q", data.draw(NONZERO_RATIONALS)))
    gens = data.draw(st.permutations(gens))
    L = data.draw(st.integers(1, 4))
    bits = data.draw(st.sampled_from((128, 256)))
    theta = RealTuple(tuple(exponent_text(e) for e in gens), precision_bits=bits)
    generators, mons = alphas_from_monomials(theta, range(mu), L)
    return gens, generators, mons, bits


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_factored_grid_sup_equals_identity_and_encloses_phi(data):
    gens, generators, mons, bits = draw_monomial_family(data)
    coeffs = data.draw(
        st.lists(
            st.one_of(st.just(0), st.integers(-9, 9)),
            min_size=len(mons),
            max_size=len(mons),
        ).filter(any)
    )
    grid = GridSpec(data.draw(st.integers(1, 4)), data.draw(st.integers(8, 13)))
    radius = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    assert generators.expressions == tuple(exponent_text(e) for e in gens)
    ctx, gen_encl = generators.real_enclosures(bits)
    got = auxpoly_mod._grid_sup(ctx, gen_encl, coeffs, radius, grid, mons)
    # the identity-matrix evaluation of the exponents d . theta
    _, encl, _ = auxpoly_mod._exponent_data(generators, mons, bits)
    assert got == auxpoly_mod._grid_sup(ctx, encl, coeffs, radius, grid)
    with mpmath.workprec(2 * bits):
        theta = [exponent_mp(e) for e in gens]
        exps = [mpmath.fsum(k * t for k, t in zip(d, theta)) for d in mons]
        for w in circle_points(radius, grid):
            val = abs(mpmath.fsum(c * mpmath.exp(a * w) for c, a in zip(coeffs, exps)))
            assert got >= val


@pytest.mark.parametrize("rings,angles", [(1, 8), (3, 9), (10, 100), (4, 13), (1, 10)])
@pytest.mark.parametrize("unused", [None, 0, 2])
def test_monomial_grid_sup_takes_one_exp_per_generator_per_half_plane_angle(
    monkeypatch, rings, angles, unused
):
    # (log 2, log 3, sqrt 5) at L = 2; a zero coefficient on every monomial
    # that holds the unused generator leaves two generators to exponentiate
    theta = RealTuple(("log(2)", "log(3)", "sqrt(5)"))
    generators, mons = alphas_from_monomials(theta, (0, 1, 2), 2)
    coeffs = [
        0 if unused is not None and d[unused] else 1 + i % 3 for i, d in enumerate(mons)
    ]
    ctx, gen_encl = generators.real_enclosures(128)
    grid = GridSpec(rings, angles)
    counts = grid_exp_counts(monkeypatch, ctx, gen_encl, coeffs, Fraction(1, 4), grid, mons)
    points, turns = quarter_points(rings * angles)
    assert counts == (points * (3 if unused is None else 2), turns)


# generators as typed: logs and roots, some written two ways with one
# canonical text, rationals and sums of rationals
RATIONAL_TEXTS = st.builds(
    lambda n, d: str(Fraction(n, d)), st.integers(-3, 3), st.integers(1, 4)
)
ROUTE_GENERATORS = st.one_of(
    st.sampled_from(("log(2)", "log( 2 )", "(log(2))", "log(3)", "sqrt(2)", "sqrt(6)")),
    RATIONAL_TEXTS,
    st.builds(lambda a, b: f"{a} + {b}", RATIONAL_TEXTS, RATIONAL_TEXTS),
)


def zero_groups(keys):
    # the partition of the exponents into groups of equal keys
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, set()).add(i)
    return sorted(sorted(g) for g in groups.values())


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_exponent_rows_agree_with_the_exponent_texts(data):
    # the exponents d . theta read as integer rows over a RealTuple against
    # each exponent written out as one text and evaluated whole
    gens = data.draw(st.lists(ROUTE_GENERATORS, min_size=1, max_size=3))
    rows = data.draw(
        st.lists(st.sampled_from(monomial_set(len(gens), 1, 4)), min_size=1, max_size=8)
    )
    bits = data.draw(st.sampled_from((128, 256)))
    theta = RealTuple(tuple(gens))
    _, encl, keys = auxpoly_mod._exponent_data(theta, rows, bits)
    exact = [theta.exact_combination(zip(d, range(len(gens)))) for d in rows]
    _, t_encl, t_exact, t_keys = expr_oracle.exponent_data(gens, rows, bits)
    assert exact == t_exact
    for x, y, q in zip(encl, t_encl, exact):
        mid, t_mid = (sum(to_float_pair(iv)) / 2 for iv in (x, y))
        if q is None:
            assert x == y
        elif q:
            # exact_pair(q) is at most as wide as the text's rounded sum,
            # and the float midpoint the lattice reads is the same
            assert mid == t_mid
        else:
            # an exact zero is the point 0, where a rounded sum that
            # cancels leaves a midpoint within its rounding error of 0
            assert x == ZERO and mid == 0.0
            assert abs(t_mid) <= 2.0 ** (10 - bits)
    assert zero_groups(keys) == zero_groups(t_keys)


def test_siegel_rejects_mismatched_monomials():
    theta = RealTuple(("log(2)", "log(3)"), precision_bits=256)
    gens, mons = alphas_from_monomials(theta, (0, 1), 2)
    mismatched = [
        (gens, mons + ((1, 0, 0),)),  # a row of the wrong length
        (gens, ((1, 0), (0, 1), (1, -1))),  # a negative exponent beside the unit rows
        (gens, ()),  # no rows at all
        (("0", "(1)*(log(2))"), ((0, 0), (-1, 0))),  # a negative exponent
        (("0", "(1)*(log(2))"), ((0, 0, 0), (1, 0, 0))),  # rows longer than the generators
        (("0", "log(2)", "log(3)"), ((0, 0, 0), (1, 0, 0))),  # generators without unit rows
    ]
    for g, m in mismatched:
        with pytest.raises(InvalidConfig):
            siegel_construct(g, 1.0, 8.0, monomials=m)
    # the matching pair certifies
    assert siegel_construct(gens, 1.0, 8.0, monomials=mons).monomials == mons


def fixed_point_interval(lo_man, lo_exp, width_man, width_exp):
    lo = mpmath.libmp.from_man_exp(lo_man, lo_exp)
    hi = mpmath.libmp.mpf_add(lo, mpmath.libmp.from_man_exp(width_man, width_exp))
    return lo, hi


@given(
    lo_man=st.integers(-(2**600), 2**600),
    lo_exp=st.integers(-700, 8),
    width_man=st.one_of(st.just(0), st.integers(0, 2**600)),
    width_exp=st.integers(-700, 8),
    bits=st.sampled_from((128, 256, 512)),
)
@settings(max_examples=300, deadline=None)
def test_ball_contains_both_endpoints(lo_man, lo_exp, width_man, width_exp, bits):
    # negative, zero-width and sign-straddling intervals, with endpoints finer
    # and coarser than the fixed-point unit 2^-bits
    x = fixed_point_interval(lo_man, lo_exp, width_man, width_exp)
    mid, rad = ball(x, bits)
    assert rad >= 1
    a, b = (Fraction(*mpmath.libmp.to_rational(e)) for e in x)
    unit = Fraction(1, 2**bits)
    assert (mid - rad) * unit <= a <= b <= (mid + rad) * unit


def series_bounds_mp(alphas, h, radius, terms):
    # the two series sums of _taylor_bounds in the current mpmath precision
    rad = mpmath.mpf(radius.numerator) / radius.denominator
    c = [
        mpmath.fsum(hd * a**t for hd, a in zip(h, alphas)) / mpmath.factorial(t)
        for t in range(terms)
    ]
    growth = [abs(hd) * mpmath.exp(abs(a) * rad) for hd, a in zip(h, alphas)]
    sup = mpmath.fsum(abs(c[t]) * rad**t for t in range(terms)) + mpmath.fsum(
        g * (abs(a) * rad) ** terms / mpmath.factorial(terms) for g, a in zip(growth, alphas)
    )
    dsup = mpmath.fsum(t * abs(c[t]) * rad ** (t - 1) for t in range(1, terms)) + mpmath.fsum(
        g * abs(a) * (abs(a) * rad) ** (terms - 1) / mpmath.factorial(terms - 1)
        for g, a in zip(growth, alphas)
    )
    return sup, dsup


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_taylor_bounds_from_shared_table_equal_fresh_bounds(data):
    exact_only = data.draw(st.booleans())
    pool = EXPONENTS.filter(lambda e: e[0] == "q") if exact_only else EXPONENTS
    exps = data.draw(st.lists(pool, min_size=1, max_size=5))
    terms = data.draw(st.integers(1, 10))
    radius = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 3), Fraction(1))))
    bits = data.draw(st.sampled_from((128, 256)))
    ctx, encl, exact = plain_data([exponent_text(e) for e in exps], bits)
    table = auxpoly_mod._taylor_table(ctx, encl, radius, terms)
    candidates = data.draw(
        st.lists(
            st.lists(st.integers(-40, 40), min_size=len(exps), max_size=len(exps)),
            min_size=1,
            max_size=4,
        )
    )
    # the shared table's fixed-point upper ends against the interval sums
    # with every factor recomputed per candidate, and against the series
    # sums themselves at twice the precision
    ivc = oracle.iv_ctx(bits)
    iv_encl = [oracle.to_iv(ivc, x) for x in encl]
    for h in candidates:
        got = auxpoly_mod._taylor_bounds(table, h)
        want = oracle.taylor_bounds(ivc, iv_encl, exact, h, radius, terms)
        for n, iv in zip(got, want):
            oracle.check_upper_end(n, table.prec, iv, bits)
        with mpmath.workprec(2 * bits):
            series = series_bounds_mp([exponent_mp(e) for e in exps], h, radius, terms)
            for n, value in zip(got, series):
                assert n >= value * 2**table.prec * (1 - mpmath.mpf(2) ** (16 - 2 * bits))


def test_taylor_bounds_sum_midpoints_and_radii_and_round_up():
    # a hand-made table at scale 2^0 with h = (1, 2):
    #   t = 0: A = |10 - 6| + 5 + 4 = 13, sup ceil(13 * 1 / 3) = 5
    #   t = 1: A = |1 + 2| + 0 = 3, sup ceil(3 * 2 / 5) = 2, dsup ceil(3 * 1 / 3) = 1
    #   tails: sup 1 * 7 + 2 * 0 = 7, dsup 1 * 11 + 2 * 1 = 13
    table = auxpoly_mod._TaylorTable(
        prec=0,
        powers=(((10, 5), (-3, 2)), ((1, 0), (1, 0))),
        scales=((1, 3), (2, 5)),
        tails=((7, 11), (0, 1)),
        abs_alphas=(),
    )
    assert auxpoly_mod._taylor_bounds(table, (1, 2)) == (5 + 2 + 7, 1 + 13)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_certified_sup_bounds_phi_on_the_whole_disc(data):
    # the grid lies on the circle |w| = radius only; by the maximum modulus
    # principle its bound covers the disc, interior points included, and
    # the slack is the arc term (pi radius / N) sup|phi'| alone
    gens = data.draw(st.lists(WIDE_EXPONENTS, min_size=1, max_size=3, unique=True))
    theta = RealTuple(tuple(wide_exponent_text(e) for e in gens), precision_bits=128)
    generators, mons = alphas_from_monomials(theta, range(len(gens)), 1)
    grid = GridSpec(data.draw(st.integers(1, 4)), data.draw(st.integers(8, 13)))
    radius = data.draw(st.sampled_from((Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(1))))
    bits = 128
    res = siegel_construct(generators, 1.0, 4.0, radius=radius, grid=grid, monomials=mons, precision_bits=bits)
    ctx, encl, _ = auxpoly_mod._exponent_data(generators, mons, bits)
    table = auxpoly_mod._taylor_table(ctx, encl, radius, min(len(mons), 10))
    _, dsup = auxpoly_mod._taylor_bounds(table, res.coefficients)
    points = data.draw(
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8)
    )
    with mpmath.workprec(2 * bits):
        if not res.identically_zero:
            arc = mpmath.pi * radius.numerator / (radius.denominator * grid.rings * grid.angles)
            slack = arc * dsup / mpmath.mpf(2) ** table.prec
            # a zero slack is reported as the least positive float
            assert slack <= res.lipschitz_slack <= max(slack * (1 + mpmath.mpf(1e-12)), math.ulp(0.0))
        theta_mp = [wide_exponent_mp(e) for e in gens]
        exps = [mpmath.fsum(k * t for k, t in zip(d, theta_mp)) for d in mons]
        bound = mpmath.exp(mpmath.mpf(res.achieved_log_sup))
        grid_bound = mpmath.mpf(res.grid_sup) + mpmath.mpf(res.lipschitz_slack)
        rad = mpmath.mpf(radius.numerator) / radius.denominator
        for s, t in points:
            w = rad * mpmath.mpf(s) * mpmath.expj(2 * mpmath.pi * mpmath.mpf(t))
            val = abs(mpmath.fsum(c * mpmath.exp(a * w) for c, a in zip(res.coefficients, exps)))
            assert val <= bound
            if not res.identically_zero:
                assert val <= grid_bound


# ---------------------------------------------------------------------------
# vanishing order wrapper


def test_omega_parabola():
    pts = [(1, 1), (2, 4), (3, 9)]
    assert omega(pts) == 2


def test_omega_guards():
    with pytest.raises(BudgetExceeded):
        omega([(i, i) for i in range(201)])
    with pytest.raises(BudgetExceeded):
        omega([(1, 1)], max_degree=5)
    with pytest.raises(InvalidConfig):
        omega([])


def test_omega_no_vanishing_raises():
    # 15 points in general position saturate the degree-4 monomial space
    pts = [(i, Fraction(2) ** i + Fraction(1, i + 2)) for i in range(15)]
    with pytest.raises(HypothesisNotMet):
        omega(pts, max_degree=4)


# ---------------------------------------------------------------------------
# distance audit


def torsion_point(order, power=1):
    return CycloNum.root_of_unity(order, power)


def test_distance_audit_count_check_and_contradiction():
    # D=16, mu=nu=2: L=4, R=20, S=5, 5^2 = 25 > 4^2 = 16
    theta = RealTuple(("1", "1"))
    kappa = RealTuple(("1", "2"))
    z = [torsion_point(5)] * 4
    rep = distance_audit(z, theta, kappa, (0, 1), (0, 1), 16)
    assert rep.mode == "exact"
    assert (rep.S, rep.sigma_count, rep.l_power) == (5, 25, 16)
    assert rep.count_ok
    assert rep.omega_degree == 1
    assert rep.zero_estimate is not None and rep.zero_estimate.found
    assert rep.collision is not None
    assert rep.relation_exact
    # the character kills theta = (1, 1) exactly, so the transferred
    # relation is exact and the contradiction closes for every c
    assert rep.contradiction_log == NEG_PAIR
    assert rep.verdict == "contradiction"
    assert rep.binding == "contradiction_bound"
    assert rep.threshold == -(16.0**2)


def test_distance_audit_genericity_margin():
    # same pipeline but theta = (1, 2): the relation transfers to
    # log|e^(-3) - 1| = log(1 - e^-3), far above -D^2
    theta = RealTuple(("1", "2"))
    kappa = RealTuple(("1", "3"))
    z = [torsion_point(5)] * 4
    rep = distance_audit(z, theta, kappa, (0, 1), (0, 1), 16)
    assert rep.verdict == "inconclusive"
    assert rep.binding == "genericity_margin"
    expected = math.log(1 - math.exp(-3))
    assert rep.contradiction_log[0] <= expected <= rep.contradiction_log[1]


def test_distance_audit_at_theta_marker():
    theta = RealTuple(("1", "1"))
    kappa = RealTuple(("1", "2"))
    rep = distance_audit("theta", theta, kappa, (0, 1), (0, 1), 16)
    assert rep.mode == "at_theta"
    assert rep.verdict == "at_theta_flagged"
    assert rep.binding == "distance_zero"


def test_distance_audit_numeric_far_point():
    theta = RealTuple(("1", "1"))
    kappa = RealTuple(("1", "1"))
    z = ["5", "7", "11", "13"]
    rep = distance_audit(z, theta, kappa, (0, 1), (0, 1), 16)
    assert rep.mode == "numeric"
    assert rep.verdict == "pass_trivial"
    assert rep.distance_log[0] >= -1.0
    # max coordinate distance is |13 - e|
    assert enclosure_contains(rep.distance_log, math.log(13 - math.e))


def test_distance_audit_numeric_near_point():
    theta = RealTuple(("1",))
    kappa = RealTuple(("1",))
    z = ["exp(1) + 10^-6"]
    rep = distance_audit(z, theta, kappa, (0,), (0,), 16)
    assert rep.verdict == "inconclusive"
    assert rep.binding == "numeric_point_near_image"
    assert enclosure_contains(rep.distance_log, math.log(1e-6))


def test_distance_audit_rational_relation_closes_exactly():
    # theta = (1/3, 1/3) is killed by the character (1, -1) in exact
    # arithmetic; on intervals 1/3 - 1/3 would straddle zero at every
    # precision and exhaust it
    theta = RealTuple(("1/3", "1/3"))
    kappa = RealTuple(("1", "2"))
    rep = distance_audit([torsion_point(5)] * 4, theta, kappa, (0, 1), (0, 1), 16)
    assert rep.zero_estimate.character == (1, -1)
    assert rep.contradiction_log == NEG_PAIR
    assert rep.verdict == "contradiction"


def _exact_audit_reference(z, I, J, D):
    # the exact pipeline up to the relation re-check, with one char_value
    # per box point and column, and one per box point for the collision
    mu, nu = len(I), len(J)
    sched = make_schedule(D, 1, mu, nu)
    S = sched.R // (2 * mu)
    if S**nu <= sched.L**mu:
        return "count_check"
    columns = [make_point(z[lam * nu : (lam + 1) * nu]) for lam in range(mu)]
    box = {
        r_vec: tuple(char_value(r_vec, col) for col in columns)
        for r_vec in product(range(S + 1), repeat=nu)
    }
    try:
        omega_deg = min_vanishing_degree(normalize_point_set(box.values()), max_degree=sched.L)
    except HypothesisNotMet:
        return "no_low_degree_vanishing"
    try:
        zres = zero_estimate_search(
            [make_point([1] * mu), *zip(*columns)], S * nu, sched.L
        )
    except HypothesisNotMet:
        return "zero_estimate_hypothesis", omega_deg
    if not zres.found:
        return "no_obstruction_character", omega_deg
    seen = {}
    for r_vec, pt in box.items():
        val = char_value(zres.character, pt)
        if val in seen:
            rbar = seen[val]
            diff = tuple(a / b for a, b in zip(pt, box[rbar]))
            relation = char_value(zres.character, diff) == 1
            return omega_deg, zres.character, (rbar, r_vec), relation
        seen[val] = r_vec
    return "no_coset_collision", omega_deg, zres.character


def _audit_outcome(rep):
    if not rep.count_ok:
        return "count_check"
    if rep.omega_degree is None:
        return rep.binding
    if rep.zero_estimate is None or not rep.zero_estimate.found:
        return rep.binding, rep.omega_degree
    if rep.collision is None:
        return rep.binding, rep.omega_degree, rep.zero_estimate.character
    return rep.omega_degree, rep.zero_estimate.character, rep.collision, rep.relation_exact


def _audit_coords(order):
    # mostly powers of one root of unity, which make collisions; a fourth
    # root of unity or a rational makes the box larger and the pipeline stop
    # earlier.  A second order is kept to 4: the elimination's cost grows
    # with phi(lcm of the orders), which reaches 48 for zeta3, zeta5, zeta7
    root = st.integers(0, order - 1).map(lambda k: CycloNum.root_of_unity(order, k))
    other = st.one_of(
        st.integers(1, 3).map(lambda k: CycloNum.root_of_unity(4, k)),
        st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)]),
    )
    return st.one_of(root, root, root, other)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2), st.integers(1, 2), st.integers(3, 12), st.integers(3, 8), st.data()
)
def test_distance_audit_exact_pipeline_matches_char_value_loops(mu, nu, D, order, data):
    # the box read from power tables and the collision from the pulled-back
    # character against one char_value per point and column
    z = data.draw(
        st.lists(_audit_coords(order), min_size=mu * nu, max_size=mu * nu)
    )
    theta, kappa = RealTuple(("1", "2")), RealTuple(("1", "3"))
    I, J = tuple(range(mu)), tuple(range(nu))
    rep = distance_audit(z, theta, kappa, I, J, D)
    assert _audit_outcome(rep) == _exact_audit_reference(z, I, J, D)


_BOUND_ENTRIES = ("log(2)", "log(3)", "1/3", "-5/2", "pi", "sqrt(2)", "exp(1/5)", "7")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_BOUND_ENTRIES), min_size=1, max_size=3),
    st.lists(st.sampled_from(_BOUND_ENTRIES), min_size=1, max_size=3),
    st.data(),
)
def test_contradiction_bound_matches_expression_text(theta_entries, kappa_entries, data):
    # reference: the bound as one expression text, parsed and evaluated whole
    # by log_expm1_abs; the audit sums the same terms on the tuples' own
    # enclosures, or takes a factor exactly when every entry it uses is
    # rational, so the float pairs agree bit for bit
    def terms(n):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        return [(c, i) for i, c in enumerate(coeffs) if c]

    def factor(entries, terms):
        values = [exact_rational(parse_expression(entries[i])) for _, i in terms]
        if None in values:
            return " + ".join(f"({c})*({entries[i]})" for c, i in terms)
        return str(sum(c * q for (c, _), q in zip(terms, values)))

    # an entry with coefficient 0 is left out, as the audit leaves it out
    u_terms, v_terms = terms(len(theta_entries)), terms(len(kappa_entries))
    theta, kappa = RealTuple(tuple(theta_entries)), RealTuple(tuple(kappa_entries))
    u, v = factor(theta_entries, u_terms), factor(kappa_entries, v_terms)
    try:
        expected = log_expm1_abs(f"({u})*({v})", 128)
    except PrecisionExhausted:
        expected = PrecisionExhausted
    try:
        got = auxpoly_mod._log_expm1_product(theta, kappa, u_terms, v_terms, 128)
    except PrecisionExhausted:
        got = PrecisionExhausted
    assert got == expected


def test_contradiction_bound_with_an_exactly_zero_rational_factor_is_certified():
    # u = 1/3 - 1/3 uses rational entries only, so it is exactly 0 and the
    # bound is log 0 although v = pi is irrational; an interval sum of u
    # would straddle 0 at every precision
    theta, kappa = RealTuple(("1/3", "1/3")), RealTuple(("pi",))
    got = auxpoly_mod._log_expm1_product(theta, kappa, [(1, 0), (-1, 1)], [(1, 0)], 128)
    assert got == NEG_PAIR


def test_distance_audit_validates_input():
    theta = RealTuple(("1", "1"))
    kappa = RealTuple(("1", "2"))
    with pytest.raises(InvalidConfig):
        distance_audit("elsewhere", theta, kappa, (0, 1), (0, 1), 16)
    with pytest.raises(InvalidConfig):
        distance_audit([1, 2, 3], theta, kappa, (0, 1), (0, 1), 16)
    with pytest.raises(InvalidConfig):
        distance_audit([1] * 4, theta, kappa, (0, 1), (0, 1), 16, k=2)


# ---------------------------------------------------------------------------
# hypothesis checklist


def test_philippon_single_binomial_near_one():
    # f = x - 1 at Theta = exp(1e-9): log|f(Theta)| = log(e^1e-9 - 1)
    theta = RealTuple(("exp(10^-9)",), precision_bits=128)
    rep = philippon_audit(
        [{(1,): 1, (0,): -1}], theta, 4, C=1.0, eta=2.0
    )
    assert rep.degree_check.status == "pass"
    assert rep.height_check.status == "pass"
    assert rep.smallness_check.status == "pass"
    (_, pair, ok) = rep.smallness_check.details[0]
    expected = math.log(math.expm1(1e-9))
    assert enclosure_contains(pair, expected, slack=1e-6)
    assert ok
    # the only zero is x = 1, at distance ~1e-9, far above the
    # -3*C*D^eta = -48 floor
    assert rep.distance_check.status == "pass"
    assert "not asserted" in rep.note


def test_philippon_near_cancelling_smallness_is_narrow():
    # x1^2 - x2 at (sqrt(2), 2 + 10^-30): f(Theta) = -10^-30 cancels about
    # 100 bits, and the log pair must still come from an enclosure at most
    # 2^-32 wide
    theta = RealTuple(("sqrt(2)", "2 + 10^-30"))
    rep = philippon_audit([{(2, 0): 1, (0, 1): -1}], theta, 2)
    (_, pair, ok) = rep.smallness_check.details[0]
    assert pair[1] - pair[0] <= 2.0**-32
    assert enclosure_contains(pair, -30 * math.log(10), slack=1e-12)
    assert ok


def test_philippon_product_binomial_distance_fails():
    # f = x1 x2 - 1 at Theta = (2, 1/2): Theta lies on the zero set
    theta = RealTuple(("2", "1/2"))
    rep = philippon_audit(
        [{(1, 1): 1, (0, 0): -1}], theta, 2, c1=1.0, C=1.0, eta=2.0
    )
    assert rep.degree_check.status == "pass"
    assert rep.smallness_check.status == "pass"
    (_, pair, _) = rep.smallness_check.details[0]
    assert pair == NEG_PAIR
    assert rep.distance_check.status == "fail"


def test_philippon_supplied_distance_bound():
    theta = RealTuple(("2", "1/2"))
    rep = philippon_audit(
        [{(1, 1): 1, (0, 0): -1}],
        theta,
        2,
        zero_distance_log=-5.0,
    )
    assert rep.distance_check.status == "pass"


def test_philippon_non_binomial_not_checked():
    theta = RealTuple(("2",))
    rep = philippon_audit([{(2,): 1, (1,): 1, (0,): -3}], theta, 2, c1=2.0)
    assert rep.distance_check.status == "not_checked"


@pytest.mark.parametrize(
    "family, point",
    [
        # a trinomial at a Theta beyond float range
        ([{(2, 0): 1, (1, 1): 1, (0, 0): -3}], ("10^400", "2")),
        # a trinomial at a Theta below float range
        ([{(1, 1): 1, (0, 1): 1, (0, 0): -1}], ("1", "2^-1100")),
    ],
)
def test_philippon_distance_beyond_float_range_not_checked(family, point):
    # a non-binomial family has no certified H4: the audit reports that
    # without reading Theta in floats, so nothing warns about inf or 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = philippon_audit(family, RealTuple(point), 2)
    assert rep.degree_check.status == "pass"
    assert rep.distance_check.status == "not_checked"
    assert dict(rep.distance_check.details) == {
        "reason": "needs a supplied bound or a binomial family"
    }


@pytest.mark.parametrize(
    "family, point, status",
    [
        # x1^(2^1100) x2 = 1 passes within 2^-1100 log 2 of (1, 2): the lower
        # bound finds it, and the witness certifies it below the bound -12
        ([{(2**1100, 1): 1, (0, 0): -1}], ("1", "2"), "fail"),
        # Theta itself is beyond float range; the zero set is x1 = 1, at
        # distance 10^400 - 1, read in log form through intervals
        ([{(1, 0): 1, (0, 0): -1}], ("10^400", "2"), "pass"),
    ],
)
def test_philippon_distance_beyond_float_range_is_decided(family, point, status):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = philippon_audit(family, RealTuple(point), 2)
    details = dict(rep.distance_check.details)
    assert rep.distance_check.status == status
    lower, upper = details["lower_log_distance"], details["witness_log_distance"]
    assert lower <= upper
    with mpmath.workprec(256):
        if status == "pass":
            truth = mpmath.log(mpmath.mpf(10) ** 400 - 1)
            assert upper - lower < 1e-12
        else:
            truth = mpmath.log(-mpmath.expm1(-mpmath.log(2) / mpmath.mpf(2) ** 1100))
            assert upper < -12
            assert truth - lower < 2.0**-19
        assert lower <= truth <= upper


def test_zero_distance_witness_takes_the_signs_of_theta():
    # (-sqrt 2, -1/sqrt 2) lies on x1 x2 = 1 but is not rational: no form
    # decides it, and only a witness with Theta's signs comes near it
    chars = [(1, 1)]
    theta = RealTuple(("-sqrt(2)", "-1/sqrt(2)"))
    lower, upper = auxpoly_mod._log_distance_bounds(chars, theta)
    assert lower == NEG_INF
    assert upper < -80


_THETA_ENTRY = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    st.builds("log({})".format, st.integers(2, 30)),
    st.builds("{}sqrt({})".format, st.sampled_from(["", "-"]), st.integers(2, 30)),
)


@st.composite
def _binomial_points(draw):
    """Characters of 1-3 binomials in n <= 4 variables, exponents up to 5,
    and a point Theta of rationals, logs and roots."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any)
    chars = [tuple(r) for r in draw(st.lists(row, min_size=1, max_size=3))]
    return chars, draw(st.lists(_THETA_ENTRY, min_size=n, max_size=n))


@given(_binomial_points(), st.randoms(use_true_random=False))
@example(([(1, 1)], ["2", "1/2"]), None)  # on the zero set: both bounds -inf
@example(([(1, 0)], ["log(7)", "-sqrt(2)"]), None)
@settings(max_examples=60, deadline=None)
def test_zero_distance_bounds_hold(audit, rnd):
    # lower <= the distance of points of Z+ = exp(V) near the witness, and
    # the witness's distance <= upper, both read at twice the bits
    chars, entries = audit
    n = len(entries)
    theta = RealTuple(tuple(entries))
    lower, upper = auxpoly_mod._log_distance_bounds(chars, theta)
    assert lower <= upper

    bits = 128
    ctx, coords = theta.real_enclosures(bits)
    lams = [log_abs_interval(ctx, x) for x in coords]
    u, s, v = smith_normal_form(chars)
    rank = sum(1 for i in range(min(len(s), n)) if s[i][i])
    kernel = [[v[i][j] for i in range(n)] for j in range(rank, n)]
    y = auxpoly_mod._least_squares_point(matmul(u[:rank], chars), lams, coords, bits)
    assert matmul(chars, [[q] for q in y]) == [[0]] * len(chars)

    iv = oracle.iv_ctx(2 * bits)
    target = [oracle.eval_interval(iv, parse_expression(e)) for e in entries]
    signs = [-1 if t.b < 0 else 1 for t in target]
    if any(sum(c for c, sg in zip(chi, signs) if sg < 0) % 2 for chi in chars):
        signs = [1] * n

    def log_distance(point):
        """The enclosure of log max |x_i - Theta_i|, -inf at its ends at 0."""
        dists = [abs(x - t) for x, t in zip(point, target)]
        ends = [max(d.a for d in dists), max(d.b for d in dists)]
        return [NEG_INF if e == 0 else iv.log(e) for e in ends]

    if upper == NEG_INF:  # Theta itself is the witness
        values = [exact_rational(parse_expression(e)) for e in entries]
        assert all(math.prod(values[i] ** c for i, c in enumerate(chi) if c) == 1 for chi in chars)
    else:
        witness = [sg * iv.exp(oracle.iv_from_fraction(iv, q)) for sg, q in zip(signs, y)]
        lo, _ = log_distance(witness)
        assert lo == NEG_INF or lo.a <= upper
    for _ in range(5):
        shift = [Fraction(rnd.uniform(-0.05, 0.05)) if rnd else Fraction(0) for _ in kernel]
        near = [q + sum(t * k[i] for t, k in zip(shift, kernel)) for i, q in enumerate(y)]
        point = [iv.exp(oracle.iv_from_fraction(iv, q)) for q in near]
        _, hi = log_distance(point)
        assert lower == NEG_INF or (hi != NEG_INF and lower <= hi.b)

    # the closed form and the root-then-check route on one-coordinate rows
    for chi in chars:
        L = auxpoly_mod._abs_form(ctx, chi, lams)
        terms = [(abs(c), lam) for c, lam in zip(chi, lams) if c]
        if L is not None and len(terms) == 1:
            closed = auxpoly_mod._closed_lower(ctx, *terms[0], L)
            root = auxpoly_mod._root_lower(ctx, terms, L)
            assert closed - 2.0**-19 <= root <= closed + 1e-12


def test_philippon_degree_and_height_failures():
    theta = RealTuple(("2",))
    rep = philippon_audit([{(3,): 1, (0,): -(10**9)}], theta, 2, c1=1.0, c2=1.0)
    assert rep.degree_check.status == "fail"
    assert rep.height_check.status == "fail"


def test_philippon_rejects_bad_input():
    theta = RealTuple(("2",))
    with pytest.raises(InvalidConfig):
        philippon_audit([], theta, 2)
    with pytest.raises(InvalidConfig):
        philippon_audit([{(1,): 1}], theta, 2, case="sometimes")
    with pytest.raises(InvalidConfig):
        philippon_audit([{(1, 2): 1}], theta, 2)


