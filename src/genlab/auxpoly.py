"""Auxiliary-polynomial pipeline at desk scale.

Three layers, bottom to top:

  * proof-rate schedules: given a height D and shape parameters (k, mu, nu),
    the derived degree L, exponent range R, monomial count M, height budget
    Delta and the Siegel quality target U, with the feasibility inequality
    checked in exact integers;
  * a Siegel-style coefficient search: integer coefficients making an
    exponential polynomial small on a disc, found by lattice reduction on
    scaled Taylor columns and certified a posteriori twice: by a Taylor
    series bound, summed exactly on fixed-point Python ints, and by a grid
    of rings * angles points on the circle |w| = radius (phi is entire, so
    by the maximum modulus principle its sup on the disc is its sup there)
    plus a Lipschitz slack for the arcs between them.  The grid runs in
    numeric's complex balls on generator exps: every exponent is an integer
    combination a_d = sum d_lambda theta_lambda of generators (a plain
    family is its own generators), and with real generators and integer
    coefficients the symmetries w -> conj w and w -> -conj w of the grid
    leave one point exp per generator for each point of a quarter circle
    (half of it for an odd point count), the other points' generator balls
    being conjugates and inverses;
  * two audits: the pigeonhole distance audit (count check, zero estimate,
    coset collision, contradiction bound) and the hypothesis checklist for
    the effective-distance proposition, which checks hypotheses only and
    never asserts the conclusion.

Everything reported here is backed by interval or ball arithmetic (under
numeric's one trust assumption on libmp's point values) or exact
integer/rational computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from mpmath import libmp

from .chars import ZeroEstimateResult, zero_estimate_search
from .cyclo import (
    CycloNum,
    char_value,
    make_point,
    min_vanishing_degree,
    monomials_up_to,
    normalize_point_set,
    power_tables,
    require_torus,
    table_product,
)
from .errors import DEFAULT_BUDGET, BudgetExceeded, HypothesisNotMet, InvalidConfig
from .intmat import det, matmul, smith_normal_form
from .numeric import (
    NEG_INF,
    NEG_PAIR,
    ZERO,
    NeedsBits,
    ball,
    ball_inv,
    ball_mul,
    complex_exp,
    exact_pair,
    expj,
    height_threshold,
    log_abs_interval,
    log_expm1_abs_interval,
    log_pair,
    make_ctx,
    pi_pair,
    run_escalating,
    straddles_zero,
    to_float_pair,
)
from .reduction import lll_reduce
from .tuples import RealTuple

DESK_OMEGA_POINTS = 200
DESK_OMEGA_DEGREE = 4


# ---------------------------------------------------------------------------
# schedules


def nth_root_floor(x: int, n: int) -> int:
    """Exact floor of x**(1/n) for nonnegative integer x."""
    if n < 1:
        raise InvalidConfig("root order must be >= 1")
    if x < 0:
        raise InvalidConfig("radicand must be nonnegative")
    if n == 1 or x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def _root_lower_float(value: int, n: int, bits: int = 128) -> float:
    # lower endpoint of an interval enclosure of value**(1/n)
    if value == 0:
        return 0.0
    log = libmp.mpi_log(exact_pair(value, bits), bits)
    return to_float_pair(libmp.mpi_exp(libmp.mpi_div(log, exact_pair(n, bits), bits), bits))[0]


def _log_upper(ctx, x: float) -> float:
    """A float at or above log x for a float x >= 0 (-inf at 0): the
    rounded-up top of an interval log, so a reported log bound never sits
    below the bound it certifies."""
    if x <= 0:
        return float("-inf")
    v = libmp.from_float(x)
    return to_float_pair(libmp.mpi_log((v, v), ctx.prec))[1]


@dataclass(frozen=True)
class AuxSchedule:
    """Derived parameters of one auxiliary construction at height D.

    U is stored as a certified lower rounding of (M*Delta)^(1/(k+1))/8, so
    (8*U)**(k+1) <= M*Delta holds in float arithmetic.  `feasible` is the
    exact integer test 8^(k+1) * Delta^k <= M, equivalent to Delta <= U.
    """

    D: int
    k: int
    mu: int
    nu: int
    L: int
    R: int
    M: int
    M_low: int
    delta: int
    U: float
    feasible: bool

    def siegel_inequality_holds(self) -> bool:
        return (8.0 * self.U) ** (self.k + 1) <= float(self.M * self.delta)


def make_schedule(D: int, k: int, mu: int, nu: int) -> AuxSchedule:
    """Schedule at height D: L = floor(D^(nu/(mu+nu))),
    R = floor((2*mu+1) * D^(mu/(mu+nu))), M = C(L + mu*k, mu*k), Delta = D,
    U = (M*Delta)^(1/(k+1)) / 8.

    M counts all monomials of total degree <= L in mu*k variables; the
    coarser count C(L + mu*k - 1, mu*k) is reported alongside as M_low.
    """
    if D < 1:
        raise InvalidConfig("height D must be >= 1")
    if k < 1 or mu < 1 or nu < 1:
        raise InvalidConfig("shape parameters k, mu, nu must be >= 1")
    L = nth_root_floor(D**nu, mu + nu)
    R = nth_root_floor((2 * mu + 1) ** (mu + nu) * D**mu, mu + nu)
    nvars = mu * k
    M = math.comb(L + nvars, nvars)
    M_low = math.comb(L + nvars - 1, nvars)
    delta = D
    U = _root_lower_float(M * delta, k + 1) / 8.0
    feasible = 8 ** (k + 1) * delta**k <= M
    return AuxSchedule(D, k, mu, nu, L, R, M, M_low, delta, U, feasible)


def monomial_set(mu: int, k: int, L: int) -> tuple[tuple[int, ...], ...]:
    """All multidegrees of total degree <= L in mu*k variables, lex sorted.

    Variable layout is lambda-major: index lambda*k + a.
    """
    if mu < 1 or k < 1 or L < 0:
        raise InvalidConfig("mu, k must be >= 1 and L >= 0")
    return tuple(sorted(monomials_up_to(mu * k, L)))


# ---------------------------------------------------------------------------
# Siegel-style construction


@dataclass(frozen=True)
class GridSpec:
    """Verification grid: rings * angles equally spaced points on the circle
    |w| = radius, which by the maximum modulus principle carries the sup of
    the entire phi over the closed disc; by default 100 points."""

    rings: int = 1
    angles: int = 100

    def __post_init__(self):
        if self.rings < 1 or self.angles < 8:
            raise InvalidConfig("grid needs rings >= 1 and angles >= 8")


@dataclass(frozen=True)
class AuxPolynomial:
    """Outcome of one coefficient search.

    achieved_log_sup = log(grid_sup + lipschitz_slack) certifies
    sup_{|w|<=radius} |phi(w)| <= exp(achieved_log_sup); taylor_log_sup is
    the independent series bound on the same sup.  Both logs are rounded up,
    so exp of each is at least the float bound it reports.  u_achieved is
    -achieved_log_sup.  norm_hypothesis_ok records whether
    sum_d sup_{|w|<=e*radius} |phi_d(w)| <= exp(u_target).
    """

    coefficients: tuple[int, ...]
    monomials: tuple[tuple[int, ...], ...] | None
    u_target: float
    delta: float
    radius: Fraction
    log_height: float
    grid_sup: float
    lipschitz_slack: float
    taylor_log_sup: float
    achieved_log_sup: float
    u_achieved: float
    height_ok: bool
    norm_hypothesis_ok: bool
    best_effort: bool
    identically_zero: bool
    precision_bits: int


def alphas_from_monomials(
    theta: RealTuple, subset: Sequence[int], L: int
) -> tuple[RealTuple, tuple[tuple[int, ...], ...]]:
    """The exponent family of the univariate construction (k = 1) on the
    entries theta[subset[lambda]]: those entries as a RealTuple, the
    generators, and every multidegree d of total degree <= L, the row of the
    exponent alpha_d = sum_lambda d_lambda * theta[subset[lambda]]; the pair
    is siegel_construct's generators and monomials."""
    mu = len(subset)
    if mu < 1:
        raise InvalidConfig("subset must be nonempty")
    if any(i < 0 or i >= len(theta) for i in subset):
        raise InvalidConfig("index subset out of range")
    mons = monomial_set(mu, 1, L)
    gens = RealTuple(tuple(theta.expressions[i] for i in subset), theta.precision_bits)
    return gens, mons


def _exponent_data(theta: RealTuple, rows, bits: int):
    """(ctx, enclosures, zero-test keys) of the exponents a_d = d . theta,
    one per row d, at the given precision.  Each enclosure is
    RealTuple.combination, the exact pair of a rational exponent; its key
    is its exact value (exact_combination) when it has one, and otherwise
    its nonzero terms (d_lambda, canonical text of theta_lambda), so equal
    keys are equal exponents."""
    ctx, _ = theta.real_enclosures(bits)
    terms = [tuple((k, i) for i, k in enumerate(d) if k) for d in rows]
    encl = [theta.combination(t, bits) for t in terms]
    keys = []
    for t in terms:
        q = theta.exact_combination(t)
        keys.append(
            ("q", q) if q is not None else ("s", tuple((k, theta.canonical_text(i)) for k, i in t))
        )
    return ctx, encl, keys


def _symbolically_zero(keys, coeffs) -> bool:
    # phi == 0 iff the coefficients sum to zero within every group of
    # provably-equal exponents; distinct keys may still hide equal values,
    # in which case we simply fail to notice the zero and stay conservative.
    groups: dict = {}
    for key, c in zip(keys, coeffs):
        groups[key] = groups.get(key, 0) + c
    return all(v == 0 for v in groups.values())


@dataclass(frozen=True)
class _TaylorTable:
    """The candidate-independent factors of the series bounds on |w| <= radius,
    as Python ints at scale 2^-prec, prec the context's precision plus 64
    guard bits (the fixed-point roundings stay 2^-64 below the intervals').

    powers[t][d] is (m, e) with |a_d^t - m 2^-prec| <= e 2^-prec: the
    interval a_d^t, its ends rounded outward to fixed point.  So
    A = |sum_d h_d m_d| + sum_d |h_d| e_d bounds |t! c_t| 2^prec, and with
    scales[t] = (rad^t numerator, its denominator times t!),
    |c_t| rad^t <= A scales[t] and t |c_t| rad^(t-1) <= A scales[t-1].
    tails[d] holds the upper ends of (|a_d| rad)^T / T! e^{|a_d| rad} and
    |a_d| (|a_d| rad)^(T-1) / (T-1)! e^{|a_d| rad}; abs_alphas[d] is the
    interval |a_d|.
    """

    prec: int
    powers: tuple
    scales: tuple
    tails: tuple
    abs_alphas: tuple


def _ceil_fixed(x, prec: int) -> int:
    """The least integer at or above the mpf x times 2^prec."""
    return -libmp.to_fixed(libmp.mpf_neg(x), prec)


def _fixed_ball(x, prec: int) -> tuple[int, int]:
    """(m, e) with [m - e, m + e] * 2^-prec containing the interval x, its
    ends rounded outward to fixed point; e is 0 for a point on that grid."""
    lo, hi = libmp.to_fixed(x[0], prec), _ceil_fixed(x[1], prec)
    m = (lo + hi) >> 1
    return m, hi - m


def _upper_float(n: int, prec: int) -> float:
    """A float at or above n * 2^-prec."""
    x = libmp.from_man_exp(n, -prec)
    return to_float_pair((x, x))[1]


def _taylor_table(ctx, encl, radius: Fraction, terms: int) -> _TaylorTable:
    """Build the factors of _taylor_bounds once per siegel_construct call
    from the exponents' enclosures at ctx.prec bits."""
    p = ctx.prec
    q = p + 64
    powers = [
        tuple(_fixed_ball(libmp.mpi_pow_int(a, t, p), q) for a in encl) for t in range(terms)
    ]
    scales = [
        (radius.numerator**t, radius.denominator**t * math.factorial(t)) for t in range(terms)
    ]
    mul, div, pow_int = libmp.mpi_mul, libmp.mpi_div, libmp.mpi_pow_int
    rad = exact_pair(radius, p)
    fact_t = exact_pair(math.factorial(terms), p)
    fact_t1 = exact_pair(math.factorial(terms - 1), p)
    abs_alphas = [libmp.mpi_abs(a, p) for a in encl]
    tails = []
    for a_abs in abs_alphas:
        ar = mul(a_abs, rad, p)
        tail = div(pow_int(ar, terms, p), fact_t, p)
        dtail = div(mul(a_abs, pow_int(ar, terms - 1, p), p), fact_t1, p)
        growth = libmp.mpi_exp(ar, p)
        tails.append(tuple(_ceil_fixed(mul(x, growth, p)[1], q) for x in (tail, dtail)))
    return _TaylorTable(q, tuple(powers), tuple(scales), tuple(tails), tuple(abs_alphas))


def _taylor_bounds(table: _TaylorTable, coeffs) -> tuple[int, int]:
    """Certified (sup, derivative-sup) upper bounds on |w| <= radius via the
    series, as integers at the table's scale 2^-prec.

    sup  <= sum_{t<T} |c_t| rad^t + sum_d |h_d| (|a_d| rad)^T / T! e^{|a_d| rad}
    sup' <= sum_{1<=t<T} t |c_t| rad^(t-1)
            + sum_d |h_d| |a_d| (|a_d| rad)^(T-1) / (T-1)! e^{|a_d| rad}

    with c_t = sum_d h_d a_d^t / t!.  The sums are exact on the table's
    integers, sum h m plus sum |h| e, and each quotient is rounded up.
    """
    sup = dsup = 0
    for t, row in enumerate(table.powers):
        acc = err = 0
        for c, (m, e) in zip(coeffs, row):
            acc += c * m
            err += abs(c) * e
        bound = abs(acc) + err
        num, den = table.scales[t]
        sup += -(-bound * num // den)
        if t:
            num, den = table.scales[t - 1]
            dsup += -(-bound * num // den)
    for c, (tail, dtail) in zip(coeffs, table.tails):
        sup += abs(c) * tail
        dsup += abs(c) * dtail
    return sup, dsup


def _product_plan(rows) -> list[tuple[tuple[int, ...], tuple[int, ...] | None, int]]:
    """(row, prev, lambda) steps, each after its prev, that build every
    nonzero row as prev + e_lambda, lambda its last nonzero index; prev is
    None when the row is e_lambda itself."""
    plan: list = []
    seen: set = set()

    def need(row):
        if row in seen or not any(row):
            return
        lam = max(i for i, k in enumerate(row) if k)
        prev = row[:lam] + (row[lam] - 1,) + row[lam + 1 :]
        need(prev)
        plan.append((row, prev if any(prev) else None, lam))
        seen.add(row)

    for row in rows:
        need(row)
    return plan


def _grid_sup(ctx, encl, coeffs, radius: Fraction, grid: GridSpec, rows=None) -> float:
    """Max over the grid's N = rings * angles points w_g = radius e^(2 pi i g/N)
    on the circle |w| = radius of a certified upper bound on |phi(w)|; by the
    maximum modulus principle the sup of the entire phi on the disc is its
    sup on that circle.

    phi(w) = sum_d h_d exp(a_d w) with a_d = sum_lambda rows[d][lambda] *
    theta_lambda, where encl holds the enclosures of the generators
    theta_lambda; rows None is the identity, so that encl holds the
    exponents themselves.

    Balls end to end: everything runs on numeric's complex balls at scale
    2^-p, p = ctx.prec.  Point g's unit e^(2 pi i g/N) is one point
    evaluation widened into a ball (expj), each generator argument
    theta_lambda w_g is the ball product of the real ball of
    theta_lambda * radius with it, and its exp is one more point evaluation
    (complex_exp).  exp(a_d w) = prod_lambda exp(theta_lambda w)^(d_lambda),
    so one generator ball per point for each generator that occurs in a term
    with a nonzero coefficient gives every term as a ball product of
    generator balls, one product per distinct sub-monomial of the rows
    (_product_plan); the zero row is the exact ball 1.

    Sums: exact on the midpoints with radius sum_d |h_d| r_d, and |phi|^2 is
    bounded by the integer (|sx| + sr)^2 + (|sy| + sr)^2 at scale 2^-2p.
    Ceiling to p bits, the float upper end, sqrt and nextafter are each
    monotone, so the integer maximum over the grid is rounded once and gives
    the same float as the maximum of the rounded bounds.

    Symmetry: every theta_lambda is real, so the grid's images under the
    group {1, conj w, -conj w, -w} are grid points or carry known balls.
    w -> conj w maps point g to N - g, and phi(conj w) = conj phi(w) for
    integer h_d, so the points g = 0 .. N // 2 cover the grid.  For even N,
    w -> -conj w maps point g to N/2 - g, where exp(theta w) becomes
    conj(1 / exp(theta w_g)): generator balls are exponentiated only at
    g = 0 .. N // 4 and those at N/2 - g are their conjugated inverses
    (ball_inv).  Where ball_inv refuses, or leaves a ball relatively wider
    than 2^-(p/2) (a generator ball near 0 at w_g), that generator is
    exponentiated at N/2 - g itself, from the exact turn (-tx, ty, r) of
    the ball (tx, ty, r) of point g's unit, so the bound there stays as
    sharp as a direct evaluation.  When 4 | N, point N/4 - g's unit is
    i conj e^(2 pi i g/N), the exact swap (ty, tx, r), so expj runs only on
    the first octant g = 0 .. N // 8, and the loop walks the orbits
    (g, N/4 - g, N/2 - g, N/4 + g).
    """
    p = ctx.prec
    if rows is None:
        rows = [tuple(int(i == d) for i in range(len(encl))) for d in range(len(encl))]
    points = grid.rings * grid.angles
    rad = exact_pair(radius, p)
    terms = [(c, abs(c), tuple(row)) for c, row in zip(coeffs, rows) if c]
    plan = _product_plan(row for _, _, row in terms)
    steps = {}
    for _, _, lam in plan:
        mid, r = ball(libmp.mpi_mul(encl[lam], rad, p), p)
        steps[lam] = (mid, 0, r)

    def bound(gens) -> int:
        balls = {}
        for row, prev, lam in plan:
            balls[row] = gens[lam] if prev is None else ball_mul(balls[prev], gens[lam], p)
        sx = sy = sr = 0
        for c, c_abs, row in terms:
            mx, my, r = balls.get(row, (1 << p, 0, 0))
            sx += c * mx
            sy += c * my
            sr += c_abs * r
        return (abs(sx) + sr) ** 2 + (abs(sy) + sr) ** 2

    def orbit_top(turn, mirror: bool) -> int:
        # the bound at the point of the unit ball turn and, with mirror,
        # at its image under w -> -conj w
        gens = {lam: complex_exp(ctx, ball_mul(x, turn, p)) for lam, x in steps.items()}
        top = bound(gens)
        if mirror:
            flip = (-turn[0], turn[1], turn[2])
            images = {}
            for lam, z in gens.items():
                inv = ball_inv(z, p)
                if inv is None or inv[2] << (p // 2) > abs(inv[0]) + abs(inv[1]):
                    images[lam] = complex_exp(ctx, ball_mul(steps[lam], flip, p))
                else:
                    images[lam] = (inv[0], -inv[1], inv[2])
            top = max(top, bound(images))
        return top

    two_pi = libmp.mpi_mul(exact_pair(2, p), pi_pair(p), p)
    count = exact_pair(points, p)
    even, quarter = points % 2 == 0, points % 4 == 0
    last = points // 8 if quarter else points // 4 if even else points // 2
    top = 0
    for g in range(last + 1):
        turn = expj(ctx, libmp.mpi_div(libmp.mpi_mul(two_pi, exact_pair(g, p), p), count, p))
        top = max(top, orbit_top(turn, even))
        if quarter and 8 * g != points:  # point N/4 - g is not g itself
            top = max(top, orbit_top((turn[1], turn[0], turn[2]), g > 0))
    abs2 = libmp.from_man_exp(top, -2 * p, p, libmp.round_ceiling)
    abs2_hi = to_float_pair((abs2, abs2))[1]
    return math.nextafter(math.sqrt(abs2_hi), math.inf)


def siegel_construct(
    generators: Sequence[str] | RealTuple,
    u_target: float,
    delta: float,
    *,
    radius: Fraction | str = Fraction(1, 4),
    grid: GridSpec = GridSpec(),
    taylor_terms: int | None = None,
    monomials: tuple[tuple[int, ...], ...] | None = None,
    strict: bool = False,
    precision_bits: int = 256,
) -> AuxPolynomial:
    """Search for integer coefficients h with log max|h| <= delta making
    phi(w) = sum_d h_d exp(alpha_d w) small on |w| <= radius.

    The exponents are alpha_d = d . theta over the generators theta (a
    RealTuple or expression texts), one per row d of monomials: rows of
    non-negative integers, one entry per generator, with the unit row
    e_lambda of every generator among them; other rows raise InvalidConfig.
    Without monomials the rows are the identity, so the exponents are the
    generators themselves (alphas_from_monomials builds both).

    Candidates come from lattice reduction on rows [W*e_d | S*taylorcols],
    S = 2^(ceil(u_target/log 2) + 16), with the identity block weighted by
    the Taylor-tail rate so the lattice norm models the sup bound.  The
    reported sup is certified twice: a series bound, and a grid maximum plus
    a Lipschitz slack covering the whole disc.  With strict=True a result
    that misses the height budget or certifies no decay raises instead of
    being returned with best_effort set.
    """
    theta = generators if isinstance(generators, RealTuple) else RealTuple(tuple(generators))
    mu = len(theta)
    units = tuple(tuple(int(i == lam) for i in range(mu)) for lam in range(mu))
    if monomials is None:
        exponent_rows = units
    else:
        exponent_rows = tuple(tuple(int(k) for k in d) for d in monomials)
        if any(len(d) != mu or any(k < 0 for k in d) for d in exponent_rows):
            raise InvalidConfig("monomials must be non-negative rows of one entry per generator")
        if not set(units) <= set(exponent_rows):
            raise InvalidConfig("every generator of the family needs its unit monomial")
    radius = Fraction(radius)
    if radius <= 0:
        raise InvalidConfig("radius must be positive")
    u_target = float(u_target)
    delta = float(delta)
    # written so that NaN fails too
    if not (0 < u_target < math.inf and 0 < delta < math.inf):
        raise InvalidConfig("u_target and delta must be positive and finite")
    bits = max(128, precision_bits)
    m = len(exponent_rows)
    terms = taylor_terms if taylor_terms is not None else min(m, 10)
    if terms < 1:
        raise InvalidConfig("taylor_terms must be >= 1")
    ctx, encl, keys = _exponent_data(theta, exponent_rows, bits)

    scale = 1 << (math.ceil(u_target / math.log(2)) + 16)
    alpha_mid = [sum(to_float_pair(iv)) / 2 for iv in encl]
    rad_f = float(radius)
    max_ar = max((abs(a) * rad_f for a in alpha_mid), default=0.0)
    tail_rate = max_ar**terms / math.factorial(terms) * math.exp(max_ar)
    weight = max(1, round(scale * tail_rate))

    rows = []
    for d in range(m):
        row = [weight if i == d else 0 for i in range(m)]
        a = alpha_mid[d]
        for t in range(terms):
            row.append(round(scale * a**t * rad_f**t / math.factorial(t)))
        rows.append(row)
    reduced = lll_reduce(rows)

    candidates = []
    for row in reduced:
        h = [v // weight for v in row[:m]]
        if all(v * weight == row[i] for i, v in enumerate(h)) and any(h):
            first = next(v for v in h if v)
            if first < 0:
                h = [-v for v in h]
            candidates.append(tuple(h))
    if not candidates:
        candidates = [tuple(1 if i == 0 else 0 for i in range(m))]

    table = _taylor_table(ctx, encl, radius, terms)
    q = table.prec
    scored = []
    for h in candidates:
        height = math.log(max(abs(v) for v in h))
        bounds = _taylor_bounds(table, h)
        scored.append((height > delta + 1e-12, _upper_float(bounds[0], q), height, h, bounds))
    scored.sort(key=lambda rec: (rec[0], rec[1], rec[3]))
    _, taylor_hi, log_height, best, (_, dsup) = scored[0]
    height_ok = log_height <= delta + 1e-12

    zero = _symbolically_zero(keys, best)
    if zero:
        grid_max, slack_hi, taylor_hi = 0.0, 0.0, 0.0
        achieved = float("-inf")
    else:
        _, gen_encl = theta.real_enclosures(bits)
        grid_max = _grid_sup(ctx, gen_encl, best, radius, grid, exponent_rows)
        # every point of the circle is within arc length pi radius / N of one
        # of the N grid points
        arc = _ceil_fixed(pi_pair(q)[1], q) * radius.numerator * dsup
        slack = -(-arc // (radius.denominator * grid.rings * grid.angles << q))
        slack_hi = _upper_float(slack, q)
        total = min(math.nextafter(grid_max + slack_hi, math.inf), taylor_hi)
        achieved = _log_upper(ctx, total)
    taylor_log = _log_upper(ctx, taylor_hi)
    u_achieved = -achieved

    p, add, mul = ctx.prec, libmp.mpi_add, libmp.mpi_mul
    e_rad = mul(exact_pair(radius, p), libmp.mpi_exp(exact_pair(1, p), p), p)
    norm_sum = ZERO
    for a_abs in table.abs_alphas:
        norm_sum = add(norm_sum, libmp.mpi_exp(mul(a_abs, e_rad, p), p), p)
    norm_ok = to_float_pair(norm_sum)[1] <= math.exp(u_target)

    best_effort = (not height_ok) or (u_achieved <= 0 and not zero)
    if strict and best_effort:
        raise HypothesisNotMet(
            "no coefficient vector met the height budget with certified decay "
            f"(log_height={log_height:.3f}, delta={delta:.3f}, "
            f"u_achieved={u_achieved:.3f})"
        )
    return AuxPolynomial(
        coefficients=best,
        monomials=monomials,
        u_target=u_target,
        delta=delta,
        radius=radius,
        log_height=log_height,
        grid_sup=grid_max,
        lipschitz_slack=slack_hi,
        taylor_log_sup=taylor_log,
        achieved_log_sup=achieved,
        u_achieved=u_achieved,
        height_ok=height_ok,
        norm_hypothesis_ok=norm_ok,
        best_effort=best_effort,
        identically_zero=zero,
        precision_bits=bits,
    )


# ---------------------------------------------------------------------------
# vanishing order at desk scale


def omega(points: Sequence[Sequence], max_degree: int = DESK_OMEGA_DEGREE) -> int:
    """Least degree of a nonzero polynomial vanishing on the set.

    Desk-scale guard rails: at most 200 distinct points and degree cap 4.
    Raises HypothesisNotMet when no degree within the cap works.
    """
    pts = normalize_point_set(points)
    if len(pts) > DESK_OMEGA_POINTS:
        raise BudgetExceeded(f"point count {len(pts)} exceeds desk scale")
    if max_degree < 1 or max_degree > DESK_OMEGA_DEGREE:
        raise BudgetExceeded(f"degree cap must lie in [1, {DESK_OMEGA_DEGREE}]")
    return min_vanishing_degree(pts, max_degree=max_degree)


# ---------------------------------------------------------------------------
# distance audit


@dataclass(frozen=True)
class DistanceAuditReport:
    """Stage-by-stage trace of the pigeonhole distance argument.

    `binding` names the first stage that stopped the pipeline (or
    "contradiction_bound" when the full argument closed); `verdict` is one of
    "contradiction", "pass_trivial", "at_theta_flagged", "inconclusive".
    Stages the pipeline did not reach stay None.
    """

    schedule: AuxSchedule
    S: int
    count_ok: bool
    sigma_count: int
    l_power: int
    threshold: float
    binding: str
    verdict: str = "inconclusive"
    mode: str = "exact"
    omega_degree: int | None = None
    zero_estimate: ZeroEstimateResult | None = None
    collision: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    relation_exact: bool | None = None
    contradiction_log: tuple[float, float] | None = None
    distance_log: tuple[float, float] | None = None


def _log_sup_distance(ctx, pairs) -> tuple[float, float]:
    """Float pair of log max |z - y| over the interval pairs (z, y).

    The max is taken on the endpoints of the |z - y| enclosures before the
    one log; log and outward rounding are monotone, so the bits are those of
    the max of the per-coordinate log pairs.  A difference that straddles
    zero contributes only its upper end, so one far coordinate settles the
    sup; NeedsBits only while no difference is bounded away from zero.
    NEG_PAIR when every difference is exactly zero."""
    lo, hi = _sup_distance(pairs, ctx.prec)
    if hi == libmp.fzero:
        return NEG_PAIR
    if lo == libmp.fzero:
        raise NeedsBits
    return log_pair(ctx, libmp.mpi_log((lo, hi), ctx.prec))


def _sup_distance(pairs, p: int) -> tuple:
    """(lo, hi): libmp bounds on max |z - y| over the interval pairs (z, y)."""
    lo = hi = libmp.fzero
    for z, y in pairs:
        a, b = libmp.mpi_abs(libmp.mpi_sub(z, y, p), p)
        lo = a if libmp.mpf_lt(lo, a) else lo
        hi = b if libmp.mpf_lt(hi, b) else hi
    return lo, hi


def _log_expm1_product(
    theta: RealTuple, kappa: RealTuple, u_terms, v_terms, precision_bits: int
) -> tuple[float, float]:
    """Float pair of log|exp(u v) - 1| for u = sum l theta_i and
    v = sum d kappa_j over (coefficient, index) terms, each factor exact
    when every entry it uses is rational (RealTuple.combination)."""

    def attempt(bits: int) -> tuple[float, float]:
        ctx = make_ctx(bits)
        u, v = theta.combination(u_terms, bits), kappa.combination(v_terms, bits)
        return log_pair(ctx, log_expm1_abs_interval(ctx, libmp.mpi_mul(u, v, bits)))

    return run_escalating(attempt, precision_bits)


def distance_audit(
    z,
    theta: RealTuple,
    kappa: RealTuple,
    I: Sequence[int],
    J: Sequence[int],
    D: int,
    *,
    k: int = 1,
    eta: float = 2.0,
    c: float = 1.0,
    budget: int = DEFAULT_BUDGET,
) -> DistanceAuditReport:
    """Audit the distance lemma at one candidate point z, at the precision
    of the finer of the two tuples.

    z is either the marker string "theta" (the audited point is the image
    point itself, distance exactly zero), a flat sequence of mu*nu exact
    coordinates (lambda-major) for the full pipeline, or a flat sequence of
    expression strings for a numeric distance check only.

    Exact pipeline: count check floor(R/(2 mu))^nu > L^mu; the box points
    P(r) with P(r)_lambda = prod_rho z[lambda, rho]^{r_rho}, 0 <= r_rho <= S,
    each a product of table entries (cyclo.power_tables: one table of
    powers per distinct coordinate value); their vanishing degree <= L; the
    zero-estimate character l of zero_estimate_search; a coset collision by
    pigeonhole, re-checked as an exact relation; and the contradiction bound
    log|exp((l . theta_I)((r - rbar) . kappa_J)) - 1| < -c D^eta, each
    factor exact when every entry it uses is rational and from the tuples'
    enclosures otherwise.  The collision search reads l pulled back to the box
    exponents: chi_l(P(r)) = prod_rho w_rho^{r_rho} with
    w_rho = prod_lambda z[lambda, rho]^{l_lambda}, so each value is a
    product of nu entries of the w_rho's power tables.
    """
    I = tuple(int(i) for i in I)
    J = tuple(int(j) for j in J)
    mu, nu = len(I), len(J)
    precision_bits = max(theta.precision_bits, kappa.precision_bits)
    if mu < 1 or nu < 1:
        raise InvalidConfig("index subsets must be nonempty")
    if any(i < 0 or i >= len(theta) for i in I) or any(
        j < 0 or j >= len(kappa) for j in J
    ):
        raise InvalidConfig("index subset out of range")
    if k != 1:
        raise InvalidConfig("the audit runs at k = 1 only")
    sched = make_schedule(D, k, mu, nu)
    S = sched.R // (2 * mu)
    sigma_count = S**nu
    l_power = sched.L**mu
    base = DistanceAuditReport(
        schedule=sched,
        S=S,
        count_ok=sigma_count > l_power,
        sigma_count=sigma_count,
        l_power=l_power,
        threshold=height_threshold(c, eta, D)[1],
        binding="count_check",
    )

    if isinstance(z, str):
        if z != "theta":
            raise InvalidConfig(f"unknown audit point marker {z!r}")
        return replace(
            base, mode="at_theta", binding="distance_zero", verdict="at_theta_flagged"
        )

    z = list(z)
    if len(z) != mu * nu:
        raise InvalidConfig(f"audit point must have {mu * nu} coordinates")

    if not all(isinstance(v, (int, Fraction, CycloNum)) for v in z):
        # numeric mode: certified coordinate distance to the image point only
        point = RealTuple(tuple(z))

        def attempt(bits: int) -> tuple[float, float]:
            ctx, theta_iv = theta.real_enclosures(bits)
            _, kappa_iv = kappa.real_enclosures(bits)
            _, zs = point.real_enclosures(bits)
            mul, exp = libmp.mpi_mul, libmp.mpi_exp
            images = [exp(mul(theta_iv[i], kappa_iv[j], bits), bits) for i in I for j in J]
            return _log_sup_distance(ctx, zip(zs, images))

        dist = run_escalating(attempt, precision_bits)
        numeric = replace(base, mode="numeric", distance_log=dist)
        if dist[0] >= -1.0:
            return replace(numeric, binding="distance_far", verdict="pass_trivial")
        return replace(numeric, binding="numeric_point_near_image")

    coords = make_point(z)
    require_torus([coords])
    if not base.count_ok:
        return base

    if (S + 1) ** nu > 4096:
        raise BudgetExceeded("pigeonhole box exceeds desk scale")
    columns = [coords[lam * nu : (lam + 1) * nu] for lam in range(mu)]
    column_tables = power_tables(columns)
    powers = {
        r_vec: tuple(table_product(r_vec, tables) for tables in column_tables)
        for r_vec in product(range(S + 1), repeat=nu)
    }

    try:
        omega_deg = min_vanishing_degree(powers.values(), max_degree=sched.L)
    except HypothesisNotMet:
        return replace(base, binding="no_low_degree_vanishing")

    # the search builds products of exactly `depth` factors, so the identity
    # is added as a generator to realize every partial product in the box
    identity = make_point([1] * mu)
    try:
        zres = zero_estimate_search(
            [identity, *zip(*columns)], S * nu, sched.L, budget=budget
        )
    except HypothesisNotMet:
        return replace(
            base, omega_degree=omega_deg, binding="zero_estimate_hypothesis"
        )
    reached = replace(base, omega_degree=omega_deg, zero_estimate=zres)
    if not zres.found:
        return replace(reached, binding="no_obstruction_character")

    # powers iterates the box in lexicographic order
    (pulled,) = power_tables([[char_value(zres.character, z_rho) for z_rho in zip(*columns)]])
    seen: dict = {}
    for r_vec, pt in powers.items():
        val = table_product(r_vec, pulled)
        if val in seen:
            break
        seen[val] = r_vec
    else:
        return replace(reached, binding="no_coset_collision")
    rbar = seen[val]
    diff_pt = tuple(a / b for a, b in zip(pt, powers[rbar]))
    relation_exact = char_value(zres.character, diff_pt) == 1

    contr = _log_expm1_product(
        theta,
        kappa,
        [(l, I[lam]) for lam, l in enumerate(zres.character) if l],
        [(r - rb, J[rho]) for rho, (r, rb) in enumerate(zip(r_vec, rbar)) if r != rb],
        precision_bits,
    )
    binds = contr[1] < base.threshold
    return replace(
        reached,
        collision=(rbar, r_vec),
        relation_exact=relation_exact,
        contradiction_log=contr,
        binding="contradiction_bound" if binds else "genericity_margin",
        verdict="contradiction" if binds else "inconclusive",
    )


# ---------------------------------------------------------------------------
# hypothesis checklist


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    status: str
    details: tuple


def _checked(name: str, details: list) -> HypothesisCheck:
    """A check that passes exactly when every detail's last entry does."""
    return HypothesisCheck(
        name, "pass" if all(d[-1] for d in details) else "fail", tuple(details)
    )


@dataclass(frozen=True)
class PhilipponReport:
    """Hypothesis checklist only; the downstream conclusion is never asserted."""

    degree_check: HypothesisCheck
    height_check: HypothesisCheck
    smallness_check: HypothesisCheck
    distance_check: HypothesisCheck
    case: str
    D: int
    note: str = "hypothesis audit only; the conclusion is not asserted"


Poly = Mapping[Sequence[int], int]


def _as_poly(poly: Poly, nvars: int) -> dict[tuple[int, ...], int]:
    if not poly:
        raise InvalidConfig("empty polynomial")
    out: dict[tuple[int, ...], int] = {}
    for mono, coeff in poly.items():
        mono = tuple(int(e) for e in mono)
        if len(mono) != nvars:
            raise InvalidConfig(f"monomial {mono} has wrong arity (expected {nvars})")
        if coeff:
            out[mono] = out.get(mono, 0) + int(coeff)
    return out


def _laurent_degree(mono: Sequence[int]) -> int:
    return sum(abs(e) for e in mono)


def _binomial_characters(family) -> list[tuple[int, ...]] | None:
    chars = []
    for poly in family:
        items = sorted(poly.items(), key=lambda kv: kv[1])
        if len(items) != 2:
            return None
        (e_neg, c_neg), (e_pos, c_pos) = items
        if (c_neg, c_pos) != (-1, 1):
            return None
        chars.append(tuple(p - q for p, q in zip(e_pos, e_neg)))
    return chars


def _poly_eval_exact(poly, point: RealTuple) -> Fraction | None:
    """poly at the point, exactly, when every coordinate it uses (exponent
    != 0) is rational; None otherwise."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = Fraction(1)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            q = point.exact_combination(((1, i),))
            if q is None:
                return None
            if e < 0 and q == 0:
                raise InvalidConfig("image point has a zero coordinate under a pole")
            term *= q**e
        total += coeff * term
    return total


def _poly_eval_iv(ctx, poly, coords):
    p = ctx.prec
    total = ZERO
    for mono, coeff in sorted(poly.items()):
        term = exact_pair(1, p)
        for e, x in zip(mono, coords):
            if e == 0:
                continue
            if e < 0 and straddles_zero(x):
                raise NeedsBits
            term = libmp.mpi_mul(term, libmp.mpi_pow_int(x, e, p), p)
        total = libmp.mpi_add(total, libmp.mpi_mul(exact_pair(coeff, p), term, p), p)
    return total


def philippon_audit(
    family: Sequence[Poly],
    theta_point: RealTuple,
    D: int,
    *,
    c1: float = 1.0,
    c2: float = 1.0,
    C: float = 1.0,
    eta: float = 2.0,
    case: str = "all_large_D",
    zero_distance_log: float | None = None,
) -> PhilipponReport:
    """Check the four hypotheses of the effective-distance criterion at one
    height D, at the precision of theta_point, and report each verdict
    separately.

    H1: every Laurent degree <= c1*D (exact).  H2: every coefficient height
    satisfies log|f| <= c2*D (exact).  H3: log|f(Theta)| <= -C*D^eta for
    every member (certified intervals, exact when every coordinate the
    member uses is rational).
    H4: distance from Theta to the common zero set stays above -3*C*D^eta in
    log scale; checked against a supplied bound when given, otherwise, for
    binomial families, between a certified lower bound on the distance to
    the whole zero set in the torus and the certified distance to one of its
    points (_log_distance_bounds): "pass" when the lower bound clears the
    bound, "fail" when the witness is below it, "undecided" in between.
    Conclusions are never asserted.
    """
    if not family:
        raise InvalidConfig("empty polynomial family")
    if case not in ("all_large_D", "infinitely_many_D"):
        raise InvalidConfig(f"unknown case {case!r}")
    if D < 1:
        raise InvalidConfig("height D must be >= 1")
    n = len(theta_point)
    polys = [_as_poly(f, n) for f in family]

    deg_bound = c1 * D
    deg_details = []
    for idx, poly in enumerate(polys):
        deg = max(_laurent_degree(m) for m in poly)
        deg_details.append((idx, deg, deg <= deg_bound))
    h1 = _checked("degree", deg_details)

    ht_bound = c2 * D
    ht_details = []
    for idx, poly in enumerate(polys):
        log_h = math.log(max(abs(c) for c in poly.values()))
        ht_details.append((idx, log_h, log_h <= ht_bound + 1e-12))
    h2 = _checked("height", ht_details)

    small_bound = height_threshold(C, eta, D)[1]
    dist_bound = height_threshold(3.0 * C, eta, D)[1]
    small_details = []
    for idx, poly in enumerate(polys):
        exact = _poly_eval_exact(poly, theta_point)

        def attempt(bits: int, p=poly, q=exact) -> tuple[float, float]:
            if q is None:
                ctx, coords = theta_point.real_enclosures(bits)
                value = _poly_eval_iv(ctx, p, coords)
            else:
                ctx = make_ctx(bits)
                value = exact_pair(q, bits)
            return log_pair(ctx, log_abs_interval(ctx, value))

        pair = run_escalating(attempt, theta_point.precision_bits)
        small_details.append((idx, pair, pair[1] <= small_bound))
    h3 = _checked("evaluation_smallness", small_details)

    h4 = _distance_hypothesis(polys, theta_point, dist_bound, zero_distance_log)
    return PhilipponReport(h1, h2, h3, h4, case, D)




def _distance_hypothesis(
    polys, theta_point: RealTuple, dist_bound: float, supplied: float | None
) -> HypothesisCheck:
    if supplied is not None:
        ok = supplied >= dist_bound
        return HypothesisCheck(
            "zero_distance",
            "pass" if ok else "fail",
            (("supplied_log_distance", supplied, dist_bound),),
        )
    chars = _binomial_characters(polys)
    if chars is None:
        return HypothesisCheck(
            "zero_distance",
            "not_checked",
            (("reason", "needs a supplied bound or a binomial family"),),
        )
    lower, upper = _log_distance_bounds(chars, theta_point)
    status = "pass" if lower >= dist_bound else "fail" if upper < dist_bound else "undecided"
    details = (("lower_log_distance", lower), ("witness_log_distance", upper), ("bound", dist_bound))
    return HypothesisCheck("zero_distance", status, details)


def _log_distance_bounds(chars, theta_point: RealTuple) -> tuple[float, float]:
    """Floats lower <= log dist(Theta, Z) <= upper, for Z the zero set in the
    torus of the binomials with characters chi = a - b, dist the sup norm.

    A zero x has |x| in exp(V), V = {y : chi . y = 0 for every chi}, and
    ||x_i| - |Theta_i|| <= |x_i - Theta_i|, so a zero within eps of Theta
    forces |chi . log|Theta|| <= sum |chi_i| g_i(eps), with
    g_i(eps) = -log(1 - eps/|Theta_i|): the least such eps, the largest over
    the rows, bounds the distance to all of Z (_row_lower).  The upper bound
    is the distance to the point exp(y) of Z, y from _least_squares_point,
    with Theta's signs where they keep it in Z.  One pass at Theta's
    precision: a form that straddles 0 gives the lower bound -inf, and when
    all do and Theta is rational where the characters use it, Theta^chi = 1
    is decided exactly (on Z both bounds are -inf)."""
    n = len(theta_point)
    used = [i for i in range(n) if any(chi[i] for chi in chars)]
    # U A = S V^-1: the first rank rows of U A are a row basis of A
    u, s, _ = smith_normal_form(chars)
    rank = sum(1 for i in range(min(len(s), n)) if s[i][i])
    basis = matmul(u[:rank], chars)

    def attempt(bits: int) -> tuple[float, float]:
        ctx, coords = theta_point.real_enclosures(bits)
        lams = [log_abs_interval(ctx, x) for x in coords]
        if None in lams:
            raise InvalidConfig("the image point has a zero coordinate: it is not in the torus")
        forms = [_abs_form(ctx, chi, lams) for chi in chars]
        if all(L is None for L in forms):
            # H3 has already raised these coordinates to powers as large
            q = {i: theta_point.exact_combination(((1, i),)) for i in used}
            if None not in q.values() and all(
                math.prod(q[i] ** c for i, c in enumerate(chi) if c) == 1 for chi in chars
            ):
                return NEG_INF, NEG_INF
        lower = max(
            (_row_lower(ctx, chi, lams, L) for chi, L in zip(chars, forms) if L is not None),
            default=NEG_INF,
        )
        negative = [libmp.mpf_lt(x[1], libmp.fzero) for x in coords]
        if any(sum(c for c, neg in zip(chi, negative) if neg) % 2 for chi in chars):
            negative = [False] * n
        zs = []
        for y, neg in zip(_least_squares_point(basis, lams, coords, bits), negative):
            z = libmp.mpi_exp(exact_pair(y, bits), bits)
            zs.append(libmp.mpi_neg(z) if neg else z)
        _, hi = _sup_distance(zip(zs, coords), bits)
        upper = NEG_INF if hi == libmp.fzero else to_float_pair(libmp.mpi_log((hi, hi), bits))[1]
        return lower, upper

    return run_escalating(attempt, theta_point.precision_bits)


def _abs_form(ctx, chi, lams):
    """The enclosure of |chi . log|Theta||, or None when it straddles 0."""
    p = ctx.prec
    total = ZERO
    for c, lam in zip(chi, lams):
        if c:
            total = libmp.mpi_add(total, libmp.mpi_mul(exact_pair(c, p), lam, p), p)
    return None if straddles_zero(total) else libmp.mpi_abs(total, p)


def _row_lower(ctx, chi, lams, L) -> float:
    """A float at or below log eps*, eps* the least eps with
    sum |chi_i| g_i(eps) >= L = |chi . log|Theta||: in closed form when chi
    has one nonzero coordinate, by a root checked in intervals otherwise."""
    terms = [(abs(c), lam) for c, lam in zip(chi, lams) if c]
    if len(terms) == 1:
        return _closed_lower(ctx, *terms[0], L)
    return _root_lower(ctx, terms, L)


def _closed_lower(ctx, w: int, lam, L) -> float:
    """w g(eps) = L at eps* = |Theta_i| (1 - e^(-L/w)), for lam the
    enclosure of log|Theta_i|: the bottom of the enclosure of its log."""
    p = ctx.prec
    x = libmp.mpi_neg(libmp.mpi_div(L, exact_pair(w, p), p))
    return to_float_pair(libmp.mpi_add(lam, log_expm1_abs_interval(ctx, x), p))[0]


def _root_lower(ctx, terms, L) -> float:
    """log eps for an eps just below the root of sum w_i g_i(eps) = L over
    the (w_i, enclosure of log|Theta_i|) terms, or -inf when the check
    fails.

    The root is bisected in floats on u = log eps over [u0 - log 2, u0],
    u0 = min(log L - log sum w_i/|Theta_i|, min log|Theta_i|):
    g_i(eps) >= eps/|Theta_i| puts it at or below u0, and g_i(eps) <=
    2 eps/|Theta_i| for eps <= |Theta_i|/2 at or above u0 - log 2.  One
    interval evaluation then checks sum w_i g_i(e^u) < L at u 2^-20 below
    the root; the sum increases with eps, so no zero lies within e^u."""
    p = ctx.prec
    a = [libmp.to_float(libmp.mpi_mid(lam, p)) for _, lam in terms]
    log_w = [math.log(w) for w, _ in terms]
    log_L = libmp.to_float(libmp.mpf_log(libmp.mpi_mid(L, p), 53))
    if not all(map(math.isfinite, a + [log_L])):
        return NEG_INF

    def log_sum_exp(xs) -> float:
        top = max(xs)
        return top + math.log(sum(math.exp(x - top) for x in xs))

    def excess(u: float) -> float:  # log sum w_i g_i(e^u) - log L
        logs = []
        for lw, ai in zip(log_w, a):
            r = math.exp(u - ai)
            if r >= 1.0:
                return math.inf
            # log g = log r + O(r) for small r
            logs.append(lw + (u - ai if r < 2.0**-60 else math.log(-math.log1p(-r))))
        return log_sum_exp(logs) - log_L

    hi = min(log_L - log_sum_exp([lw - ai for lw, ai in zip(log_w, a)]), min(a))
    lo = hi - math.log(2.0)
    for _ in range(64):
        mid = (lo + hi) / 2
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    u = lo - 2.0**-20
    point = (libmp.from_float(u),) * 2
    total = ZERO
    for w, lam in terms:
        v = libmp.mpi_sub(point, lam, p)
        if not libmp.mpf_lt(v[1], libmp.fzero):
            return NEG_INF
        g = _g_upper(ctx, v)
        total = libmp.mpi_add(total, libmp.mpi_mul(exact_pair(w, p), (g, g), p), p)
    return u if libmp.mpf_lt(total[1], L[0]) else NEG_INF


def _g_upper(ctx, v):
    """An upper bound on g = -log(1 - r), r = e^v, for an interval v < 0:
    the smaller of the tops of the enclosures of -log|e^v - 1| and of
    r/(1 - r) >= log(1 + r/(1 - r)) = g.  The second keeps its precision
    where e^v - 1 rounds to -1, and the sum of w_i g_i needs it when a w_i
    is large."""
    p = ctx.prec
    r = libmp.mpi_exp(v, p)
    ratio = libmp.mpi_div(r, libmp.mpi_sub(exact_pair(1, p), r, p), p)
    direct = libmp.mpf_neg(log_expm1_abs_interval(ctx, v)[0])
    return ratio[1] if libmp.mpf_lt(ratio[1], direct) else direct


def _least_squares_point(basis, lams, coords, p: int) -> list[Fraction]:
    """The point y = m - W^2 C^T (C W^2 C^T)^-1 C m of V = {y : C y = 0},
    exactly: C is an integer row basis of the characters, m_i the midpoint
    of lams[i], the enclosure of log|Theta_i|, and W^2 = diag(4^-e_i) with
    2^(e_i - 1) <= |Theta_i| < 2^e_i, so the step is short where |Theta_i|
    is large.  The system is solved by Cramer's rule on integers: m is
    scaled by 2^k (undone at the end) and W^2 by 4^top, which cancels."""
    mids = [libmp.mpi_mid(lam, p) for lam in lams]
    k = max([0] + [-e for _, man, e, _ in mids if man])
    m = [(-man if sign else man) << (e + k) for sign, man, e, _ in mids]
    exps = [mid[2] + mid[3] for mid in (libmp.mpi_mid(x, p) for x in coords)]
    top = max(exps)
    weights = [4 ** (top - e) for e in exps]
    gram = [
        [sum(wt * a * b for wt, a, b in zip(weights, row, col)) for col in basis]
        for row in basis
    ]
    rhs = [sum(c * x for c, x in zip(row, m)) for row in basis]
    d = det(gram)
    cramer = [
        det([r[:j] + [b] + r[j + 1 :] for r, b in zip(gram, rhs)]) for j in range(len(basis))
    ]
    return [
        Fraction(d * m_i - wt * sum(row[i] * c for row, c in zip(basis, cramer)), d << k)
        for i, (m_i, wt) in enumerate(zip(m, weights))
    ]
