"""Tests for the auxiliary-polynomial pipeline.

Frozen values are derived independently in comments or helper oracles:
binomial-coefficient counts by hand, exact roots by integer powers, and
evaluation logs from closed forms through math.log/math.expm1.
"""

import math
import warnings
import zlib
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlab.auxpoly as auxpoly_mod
import iv_oracle as oracle
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
from genlab.cyclo import CycloNum
from genlab.errors import (
    BudgetExceeded,
    HypothesisNotMet,
    InvalidConfig,
    PrecisionExhausted,
)
from genlab.numeric import NEG_PAIR, ball, complex_exp, log_expm1_abs
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


def test_schedule_override_flag():
    s = make_schedule(32, 1, 2, 2, L_override=4)
    assert s.L == 4 and s.L_overridden
    # natural value is floor(sqrt(32)) = 5
    assert make_schedule(32, 1, 2, 2).L == 5
    assert not make_schedule(32, 1, 2, 2, L_override=5).L_overridden


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
    with pytest.raises(InvalidConfig):
        make_schedule(4, 1, 1, 1, L_override=0)


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
    alphas, mons = alphas_from_monomials(theta, (0, 1), 2)
    assert len(alphas) == 6
    u_target = math.sqrt(6 * 8) / 8  # (M*Delta)^(1/2) / 8 with M=6, Delta=8
    res = siegel_construct(
        alphas, u_target, 8.0, monomials=mons, precision_bits=256
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


def grid_sup_reference(ctx, encl, coeffs, radius, grid):
    # one interval exp, cos and sin per term at every grid point: the
    # straightforward loop on the context's own functions
    worst = 0.0
    for g in range(grid.angles):
        ang = 2 * ctx.pi * g / grid.angles
        cos_a, sin_a = ctx.cos(ang), ctx.sin(ang)
        for j in range(grid.rings):
            rho = oracle.iv_from_fraction(ctx, radius * Fraction(j + 1, grid.rings))
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


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_grid_sup_matches_pointwise_loop_and_encloses_phi(data):
    exps = data.draw(st.lists(EXPONENTS, min_size=1, max_size=4, unique=True))
    coeffs = data.draw(
        st.lists(st.integers(-9, 9), min_size=len(exps), max_size=len(exps)).filter(any)
    )
    grid = GridSpec(data.draw(st.integers(1, 4)), data.draw(st.integers(8, 13)))
    radius = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    bits = data.draw(st.sampled_from((128, 256)))
    ctx, encl, _, _ = auxpoly_mod._alpha_data([exponent_text(e) for e in exps], bits)
    got = auxpoly_mod._grid_sup(ctx, encl, coeffs, radius, grid)
    ivc = oracle.iv_ctx(bits)
    assert got == grid_sup_reference(ivc, [oracle.to_iv(ivc, x) for x in encl], coeffs, radius, grid)
    with mpmath.workprec(2 * bits):
        alphas = [exponent_mp(e) for e in exps]
        rad = mpmath.mpf(radius.numerator) / radius.denominator
        true_max = mpmath.mpf(0)
        for g in range(grid.angles):
            turn = mpmath.expj(2 * mpmath.pi * g / grid.angles)
            for j in range(grid.rings):
                w = rad * (j + 1) / grid.rings * turn
                val = abs(mpmath.fsum(c * mpmath.exp(a * w) for c, a in zip(coeffs, alphas)))
                assert got >= val
                true_max = max(true_max, val)
        assert got <= true_max * (1 + mpmath.mpf(1e-12))


@pytest.mark.parametrize("rings,angles", [(1, 8), (3, 9), (10, 100), (4, 13)])
def test_grid_sup_takes_one_exp_per_term_per_half_plane_angle(monkeypatch, rings, angles):
    coeffs = (3, 0, -2, 1)
    ctx, encl, _, _ = auxpoly_mod._alpha_data(("0", "log(2)", "log(3)", "1/2"), 128)
    calls = []

    def counting_exp(ctx, z):
        calls.append(z)
        return complex_exp(ctx, z)

    monkeypatch.setattr(auxpoly_mod, "complex_exp", counting_exp)
    auxpoly_mod._grid_sup(ctx, encl, coeffs, Fraction(1, 4), GridSpec(rings, angles))
    assert len(calls) == (angles // 2 + 1) * 3


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
    # the ball radii grow with every ring power: 40 rings of exponents up to
    # |a| = 8 on the unit disc must still bound |phi| at every grid point
    exps = data.draw(st.lists(WIDE_EXPONENTS, min_size=1, max_size=4, unique=True))
    coeffs = data.draw(
        st.lists(st.integers(-9, 9), min_size=len(exps), max_size=len(exps)).filter(any)
    )
    rings = data.draw(st.one_of(st.just(40), st.integers(1, 40)))
    grid = GridSpec(rings, data.draw(st.integers(8, 12)))
    bits = 128
    ctx, encl, _, _ = auxpoly_mod._alpha_data([wide_exponent_text(e) for e in exps], bits)
    got = auxpoly_mod._grid_sup(ctx, encl, coeffs, Fraction(1), grid)
    with mpmath.workprec(2 * bits):
        alphas = [wide_exponent_mp(e) for e in exps]
        true_max = mpmath.mpf(0)
        for g in range(grid.angles):
            turn = mpmath.expj(2 * mpmath.pi * g / grid.angles)
            for j in range(grid.rings):
                w = mpmath.mpf(j + 1) / grid.rings * turn
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
    alphas, mons = alphas_from_monomials(theta, range(mu), L)
    return gens, alphas, mons, bits


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_factored_grid_sup_equals_identity_and_encloses_phi(data):
    gens, alphas, mons, bits = draw_monomial_family(data)
    coeffs = data.draw(
        st.lists(
            st.one_of(st.just(0), st.integers(-9, 9)),
            min_size=len(alphas),
            max_size=len(alphas),
        ).filter(any)
    )
    grid = GridSpec(data.draw(st.integers(1, 4)), data.draw(st.integers(8, 13)))
    radius = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    rows, units = auxpoly_mod._exponent_rows(alphas, mons)
    assert tuple(alphas[i] for i in units) == tuple(f"(1)*({exponent_text(e)})" for e in gens)
    assert rows == mons
    ctx, encl, _, _ = auxpoly_mod._alpha_data(alphas, bits)
    got = auxpoly_mod._grid_sup(ctx, [encl[i] for i in units], coeffs, radius, grid, rows)
    # the identity-matrix evaluation of the same alpha strings
    assert got == auxpoly_mod._grid_sup(ctx, encl, coeffs, radius, grid)
    with mpmath.workprec(2 * bits):
        theta = [exponent_mp(e) for e in gens]
        exps = [mpmath.fsum(k * t for k, t in zip(d, theta)) for d in mons]
        rad = mpmath.mpf(radius.numerator) / radius.denominator
        for g in range(grid.angles):
            turn = mpmath.expj(2 * mpmath.pi * g / grid.angles)
            for j in range(grid.rings):
                w = rad * (j + 1) / grid.rings * turn
                val = abs(mpmath.fsum(c * mpmath.exp(a * w) for c, a in zip(coeffs, exps)))
                assert got >= val


@pytest.mark.parametrize("rings,angles", [(1, 8), (3, 9), (10, 100), (4, 13)])
@pytest.mark.parametrize("unused", [None, 0, 2])
def test_monomial_grid_sup_takes_one_exp_per_generator_per_half_plane_angle(
    monkeypatch, rings, angles, unused
):
    # (log 2, log 3, sqrt 5) at L = 2; a zero coefficient on every monomial
    # that holds the unused generator leaves two generators to exponentiate
    theta = RealTuple(("log(2)", "log(3)", "sqrt(5)"))
    alphas, mons = alphas_from_monomials(theta, (0, 1, 2), 2)
    coeffs = [
        0 if unused is not None and d[unused] else 1 + i % 3 for i, d in enumerate(mons)
    ]
    rows, units = auxpoly_mod._exponent_rows(alphas, mons)
    ctx, encl, _, _ = auxpoly_mod._alpha_data(alphas, 128)
    gen_encl = [encl[i] for i in units]
    calls = []

    def counting_exp(ctx, z):
        calls.append(z)
        return complex_exp(ctx, z)

    monkeypatch.setattr(auxpoly_mod, "complex_exp", counting_exp)
    auxpoly_mod._grid_sup(ctx, gen_encl, coeffs, Fraction(1, 4), GridSpec(rings, angles), rows)
    assert len(calls) == (angles // 2 + 1) * (3 if unused is None else 2)


def test_siegel_rejects_mismatched_monomials():
    theta = RealTuple(("log(2)", "log(3)"), precision_bits=256)
    alphas, mons = alphas_from_monomials(theta, (0, 1), 2)
    other, _ = alphas_from_monomials(RealTuple(("log(2)", "log(5)")), (0, 1), 2)
    mismatched = [
        (alphas, tuple(reversed(mons))),  # rows out of order
        (alphas, mons[:-1]),  # one row short
        (alphas, tuple(d[::-1] for d in mons)),  # generators swapped
        (alphas[:-1] + ("(2)*(log(5))",), mons),  # one exponent replaced
        (alphas[:3] + other[3:], mons),  # two generator readings
        (("log(2)", "log(3)"), ((1, 0), (0, 1))),  # plain texts as monomials
        (("0", "(1)*(log(2))"), ((0, 0), (-1, 0))),  # a negative exponent
        (("0", "(1)*(log(2))"), ((0, 0, 0), (1, 0, 0))),  # generators without unit rows
    ]
    for a, m in mismatched:
        with pytest.raises(InvalidConfig):
            siegel_construct(a, 1.0, 8.0, monomials=m)
    # the matching pair certifies
    assert siegel_construct(alphas, 1.0, 8.0, monomials=mons).monomials == mons


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


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_taylor_bounds_from_shared_table_equal_fresh_bounds(data):
    exact_only = data.draw(st.booleans())
    pool = EXPONENTS.filter(lambda e: e[0] == "q") if exact_only else EXPONENTS
    exps = data.draw(st.lists(pool, min_size=1, max_size=5))
    terms = data.draw(st.integers(1, 10))
    radius = data.draw(st.sampled_from((Fraction(1, 4), Fraction(1, 3), Fraction(1))))
    bits = data.draw(st.sampled_from((128, 256)))
    ctx, encl, exact, _ = auxpoly_mod._alpha_data([exponent_text(e) for e in exps], bits)
    table = auxpoly_mod._taylor_table(ctx, encl, exact, radius, terms)
    candidates = data.draw(
        st.lists(
            st.lists(st.integers(-40, 40), min_size=len(exps), max_size=len(exps)),
            min_size=1,
            max_size=4,
        )
    )
    ivc = oracle.iv_ctx(bits)
    iv_encl = [oracle.to_iv(ivc, x) for x in encl]
    for h in candidates:
        got = auxpoly_mod._taylor_bounds(ctx, table, h)
        want = oracle.taylor_bounds(ivc, iv_encl, exact, h, radius, terms)
        assert list(got) == [iv._mpi_ for iv in want]


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
    # enclosures (or exactly), so the float pairs agree bit for bit
    def terms(n):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        return [(c, i) for i, c in enumerate(coeffs) if c]

    # an entry with coefficient 0 is left out, as the audit leaves it out
    u_terms, v_terms = terms(len(theta_entries)), terms(len(kappa_entries))
    theta, kappa = RealTuple(tuple(theta_entries)), RealTuple(tuple(kappa_entries))
    u = " + ".join(f"({l})*({theta_entries[i]})" for l, i in u_terms)
    v = " + ".join(f"({d})*({kappa_entries[j]})" for d, j in v_terms)
    try:
        expected = log_expm1_abs(f"({u})*({v})", 128)
    except PrecisionExhausted:
        expected = PrecisionExhausted
    try:
        got = auxpoly_mod._log_expm1_product(theta, kappa, u_terms, v_terms, 128)
    except PrecisionExhausted:
        got = PrecisionExhausted
    assert got == expected


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
    # the only zero on the positive-real component is x = 1, at distance
    # ~1e-9, far above the -3*C*D^eta = -48 floor
    assert rep.distance_check.status == "empirical_pass"
    assert "not asserted" in rep.note


def test_philippon_near_cancelling_smallness_is_narrow():
    # x1^2 - x2 at (sqrt(2), 2 + 10^-30): f(Theta) = -10^-30 cancels about
    # 100 bits, and the log pair must still come from an enclosure at most
    # 2^-32 wide
    theta = RealTuple(("sqrt(2)", "2 + 10^-30"))
    rep = philippon_audit([{(2, 0): 1, (0, 1): -1}], theta, 2, starts=4)
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


@pytest.mark.parametrize(
    "family, point, D, kwargs, status, found_log, best_s, witness",
    [
        # Theta = (2, 1/2) lies on x1 x2 = 1: the witness is certified
        (
            [{(1, 1): 1, (0, 0): -1}], ("2", "1/2"), 2,
            dict(c1=1.0, C=1.0, eta=2.0), "fail",
            -16.072523757116155, [-0.6931472328912562],
            (-16.072523758973503, -16.072523758973496),
        ),
        (
            [{(1, 1): 1, (0, 0): -1}], ("exp(1)", "2"), 3,
            dict(starts=4), "empirical_pass",
            0.25975439164048647, [-0.35183240543753735], None,
        ),
        (
            [{(1, 1, 0): 1, (0, 0, 0): -1}], ("log(2)", "log(3)", "log(5)"), 3,
            dict(starts=12), "empirical_pass",
            -2.0837421013629767, [0.20136889319307802, 0.40461411857209795],
            None,
        ),
    ],
)
def test_philippon_distance_search_pinned(
    monkeypatch, family, point, D, kwargs, status, found_log, best_s, witness
):
    # frozen from the scipy.optimize.minimize(method="Nelder-Mead") search
    # that _nelder_mead replaced; both give these bits
    found = []
    search = auxpoly_mod._zero_distance_search

    def recording(*args, **kw):
        found.append(search(*args, **kw))
        return found[-1]

    monkeypatch.setattr(auxpoly_mod, "_zero_distance_search", recording)
    rep = philippon_audit(family, RealTuple(point), D, **kwargs)
    details = dict(rep.distance_check.details)
    assert rep.distance_check.status == status
    assert details["min_log_distance_found"] == found_log
    assert [float(x) for x in found[0][1]] == best_s
    assert details.get("certified_witness_log") == witness


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
        # x1^(2^1100) x2 = 1: a kernel basis entry is beyond float range, so
        # no point of the zero subgroup is ever evaluated
        ([{(2**1100, 1): 1, (0, 0): -1}], ("1", "2")),
        # Theta itself is beyond float range: every distance is infinite
        ([{(1, 0): 1, (0, 0): -1}], ("10^400", "2")),
    ],
)
def test_philippon_distance_beyond_float_range_not_checked(monkeypatch, family, point):
    # nothing is searched, so no run can warn about inf - inf
    def no_search(f, x0):
        raise AssertionError("a Nelder-Mead run started")

    monkeypatch.setattr(auxpoly_mod, "_nelder_mead", no_search)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = philippon_audit(family, RealTuple(point), 2)
    assert rep.distance_check.status == "not_checked"
    assert dict(rep.distance_check.details) == {
        "reason": "no distance to the zero subgroup is within float range"
    }


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


# ---------------------------------------------------------------------------
# Nelder-Mead: bit-for-bit against scipy's default method


def _nm_objective(kind: str, A, c):
    def f(x):
        y = A @ (x - c)
        if kind == "quadratic":
            return float(y @ y)
        if kind == "sup_norm":
            return float(np.max(np.abs(y)))
        if kind == "plateau":
            return float(min(1.0, y @ y))
        if kind == "ties":
            return float(np.round(y @ y, 1))
        if kind == "sentinel":  # the search objective's overflow value
            return 1e300 if np.max(np.abs(x)) > 2.0 else float(y @ y)
        if kind == "unbounded":  # keeps expanding: never converges
            return float(-np.sum(y))
        if kind == "hashed":  # any change in any bit of x changes the path
            return zlib.crc32(x.tobytes()) / 2.0**32
        # "spike": 0 at the origin only, so from the origin every step
        # shrinks and the simplex never converges
        return 0.0 if not np.any(x) else 1.0

    return f


_NM_KINDS = (
    "quadratic", "sup_norm", "plateau", "ties", "sentinel", "unbounded", "hashed",
    "spike",
)


def _assert_nelder_mead_matches_scipy(f, x0):
    from scipy.optimize import minimize

    res = minimize(f, x0, method="Nelder-Mead")
    fun, x = auxpoly_mod._nelder_mead(f, x0)
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
    assert x.tobytes() == res.x.tobytes()
    return res


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_nelder_mead_matches_scipy(data):
    N = data.draw(st.integers(1, 4))
    coord = st.one_of(
        st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    )
    x0 = np.array(data.draw(st.lists(coord, min_size=N, max_size=N)))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    A = np.array(data.draw(st.lists(entry, min_size=N * N, max_size=N * N)))
    c = np.array(data.draw(st.lists(entry, min_size=N, max_size=N)))
    kind = data.draw(st.sampled_from(_NM_KINDS))
    _assert_nelder_mead_matches_scipy(_nm_objective(kind, A.reshape(N, N), c), x0)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["unbounded", "spike"])
def test_nelder_mead_budget_cutoff_matches_scipy(N, kind):
    # both spend the whole budget; for N >= 2 the last step is cut off:
    # "unbounded" in an expansion, "spike" in a contraction (N = 2, 3) or
    # part-way through a shrink (N = 4)
    f = _nm_objective(kind, np.eye(N), np.zeros(N))
    res = _assert_nelder_mead_matches_scipy(f, np.zeros(N))
    assert res.nfev == 200 * N
