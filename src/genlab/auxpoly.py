"""Auxiliary-polynomial pipeline at desk scale.

Three layers, bottom to top:

  * proof-rate schedules: given a height D and shape parameters (k, mu, nu),
    the derived degree L, exponent range R, monomial count M, height budget
    Delta and the Siegel quality target U, with the feasibility inequality
    checked in exact integers;
  * a Siegel-style coefficient search: integer coefficients making an
    exponential polynomial small on a disc, found by lattice reduction on
    scaled Taylor columns and certified a posteriori on a grid with a
    Lipschitz slack plus an independent Taylor-tail bound; the grid runs
    in numeric's complex balls (midpoint-radius discs of Python ints at
    scale 2^-prec) and takes one point exp per generator and angle, because
    every exponent is an integer combination
    a_d = sum_lambda d_lambda theta_lambda of generators
    (exp(a_d w) = prod_lambda exp(theta_lambda w)^(d_lambda); a plain family
    is its own generators) and ring points are integer multiples of the
    first ring (exp(a w_j) = exp(a w_1)^(j+1)); with real exponents and
    integer coefficients h_d, |phi(conj w)| = |phi(w)| lets the upper
    half-plane angles stand for their conjugates; the largest squared bound
    on the grid is rounded to a float once, which the monotone rounding
    makes the same float as the largest rounded bound; the Taylor bounds
    run on numeric's interval pairs;
  * two audits: the pigeonhole distance audit (count check, zero estimate,
    coset collision, contradiction bound) and the hypothesis checklist for
    the effective-distance proposition, which checks hypotheses only and
    never asserts the conclusion.

Everything reported as certified here is backed by interval or ball
arithmetic (under numeric's one trust assumption on libmp's point values)
or exact integer/rational computation; the single exception is the
optimizer leg of the hypothesis checklist, which is labelled empirical in
its output.
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
    require_torus,
)
from .errors import BudgetExceeded, HypothesisNotMet, InvalidConfig
from .expr import eval_interval, exact_rational, parse_expression, to_string
from .numeric import (
    NEG_PAIR,
    ZERO,
    NeedsBits,
    ball,
    ball_mul,
    complex_exp,
    exact_pair,
    expj,
    height_threshold,
    log_abs_interval,
    log_expm1_abs,
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
    L_overridden: bool

    def siegel_inequality_holds(self) -> bool:
        return (8.0 * self.U) ** (self.k + 1) <= float(self.M * self.delta)


def make_schedule(
    D: int, k: int, mu: int, nu: int, *, L_override: int | None = None
) -> AuxSchedule:
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
    overridden = False
    if L_override is not None:
        if L_override < 1:
            raise InvalidConfig("L_override must be >= 1")
        overridden = L_override != L
        L = L_override
    R = nth_root_floor((2 * mu + 1) ** (mu + nu) * D**mu, mu + nu)
    nvars = mu * k
    M = math.comb(L + nvars, nvars)
    M_low = math.comb(L + nvars - 1, nvars)
    delta = D
    U = _root_lower_float(M * delta, k + 1) / 8.0
    feasible = 8 ** (k + 1) * delta**k <= M
    return AuxSchedule(D, k, mu, nu, L, R, M, M_low, delta, U, feasible, overridden)


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
    """Verification grid: rings * angles points on the closed disc."""

    rings: int = 10
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

    alphas: tuple[str, ...]
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


def _monomial_alpha(d: Sequence[int], gens: Sequence[str]) -> str:
    """The exponent text of monomial d: sum_lambda d_lambda * gens[lambda]."""
    parts = [f"({k})*({g})" for k, g in zip(d, gens) if k]
    return " + ".join(parts) if parts else "0"


def alphas_from_monomials(
    theta: RealTuple, subset: Sequence[int], L: int
) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Exponent expressions alpha_d = sum_lambda d_lambda * theta[subset[lambda]]
    for every multidegree of total degree <= L (univariate construction, k = 1)."""
    mu = len(subset)
    if mu < 1:
        raise InvalidConfig("subset must be nonempty")
    if any(i < 0 or i >= len(theta) for i in subset):
        raise InvalidConfig("index subset out of range")
    mons = monomial_set(mu, 1, L)
    gens = [theta.expressions[i] for i in subset]
    return tuple(_monomial_alpha(d, gens) for d in mons), mons


def _exponent_rows(
    alphas: Sequence[str], monomials: Sequence[Sequence[int]] | None
) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[int, ...]]:
    """Exponent rows d with alpha_d = d . theta, and for each generator
    theta_lambda the index of the alpha that is theta_lambda itself.

    A plain family (no monomials) has rows None, the identity: each alpha
    is its own generator.  A monomial family's generator lambda is read off
    the exponent "(1)*(theta_lambda)" of its unit row e_lambda, whose
    enclosure is theta_lambda's, and every alpha must be exactly the
    _monomial_alpha text of its row over them, so the rows cannot disagree
    with the exponents they factor; a mismatch raises InvalidConfig."""
    if monomials is None:
        return None, tuple(range(len(alphas)))
    rows = tuple(tuple(int(k) for k in d) for d in monomials)
    mu = len(rows[0]) if rows else 0
    if len(rows) != len(alphas) or any(
        len(d) != mu or any(k < 0 for k in d) for d in rows
    ):
        raise InvalidConfig("monomials do not match the exponent family")
    gens = ["0"] * mu
    units: list = [None] * mu
    for i, (d, a) in enumerate(zip(rows, alphas)):
        if sum(d) == 1 and a.startswith("(1)*(") and a.endswith(")"):
            lam = d.index(1)
            gens[lam], units[lam] = a[5:-1], i
    for d, a in zip(rows, alphas):
        if a != _monomial_alpha(d, gens):
            raise InvalidConfig(
                f"exponent {a!r} is not the monomial {list(d)} of the family"
            )
    if None in units:
        raise InvalidConfig("every generator of the family needs its unit monomial")
    return rows, tuple(units)


def _alpha_data(alphas: Sequence[str], bits: int):
    nodes = [parse_expression(a) for a in alphas]
    ctx = make_ctx(bits)
    encl = [eval_interval(ctx, n) for n in nodes]
    exact = [exact_rational(n) for n in nodes]
    keys = [
        ("q", q) if q is not None else ("s", to_string(n))
        for q, n in zip(exact, nodes)
    ]
    return ctx, encl, exact, keys


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
    as interval pairs at the context's precision.

    coeff_pow[t][d] is a_d^t / t! as a Fraction when every exponent is exact
    (all_exact), else the interval a_d^t; rad_pow[t] is rad^t; tails[d] is
    (|a_d|, (|a_d| rad)^T, (|a_d| rad)^(T-1), e^{|a_d| rad}).
    """

    terms: int
    all_exact: bool
    rad: tuple
    coeff_pow: tuple
    rad_pow: tuple
    tails: tuple


def _taylor_table(ctx, encl, exact, radius: Fraction, terms: int) -> _TaylorTable:
    """Build the factors of _taylor_bounds once per siegel_construct call."""
    prec = ctx.prec
    rad = exact_pair(radius, prec)
    all_exact = all(q is not None for q in exact)
    bases = [exact_pair(q, prec) if q is not None else iv for q, iv in zip(exact, encl)]
    if all_exact:
        coeff_pow = tuple(
            tuple(Fraction(q) ** t / math.factorial(t) for q in exact)
            for t in range(terms)
        )
    else:
        coeff_pow = tuple(
            tuple(libmp.mpi_pow_int(b, t, prec) for b in bases) for t in range(terms)
        )
    tails = []
    for base in bases:
        a_abs = libmp.mpi_abs(base, prec)
        ar = libmp.mpi_mul(a_abs, rad, prec)
        tails.append((
            a_abs,
            libmp.mpi_pow_int(ar, terms, prec),
            libmp.mpi_pow_int(ar, terms - 1, prec),
            libmp.mpi_exp(ar, prec),
        ))
    rad_pow = tuple(libmp.mpi_pow_int(rad, t, prec) for t in range(terms))
    return _TaylorTable(terms, all_exact, rad, coeff_pow, rad_pow, tuple(tails))


def _taylor_bounds(ctx, table: _TaylorTable, coeffs):
    """Certified (sup, derivative-sup) bounds on |w| <= radius via the series.

    sup  <= sum_{t<T} |c_t| rad^t + sum_d |h_d| (|a_d| rad)^T / T! e^{|a_d| rad}
    sup' <= sum_{1<=t<T} t |c_t| rad^(t-1)
            + sum_d |h_d| |a_d| (|a_d| rad)^(T-1) / (T-1)! e^{|a_d| rad}

    The sums run on interval pairs at ctx.prec.
    """
    prec = ctx.prec
    add, mul, div = libmp.mpi_add, libmp.mpi_mul, libmp.mpi_div
    terms = table.terms
    sup = dsup = ZERO
    ivs = [exact_pair(c, prec) for c in coeffs]
    for t in range(terms):
        if table.all_exact:
            c_t = sum(Fraction(c) * w for c, w in zip(coeffs, table.coeff_pow[t]))
            c_abs = exact_pair(abs(c_t), prec)
        else:
            acc = ZERO
            for c, power in zip(ivs, table.coeff_pow[t]):
                acc = add(acc, mul(c, power, prec), prec)
            acc = div(acc, exact_pair(math.factorial(t), prec), prec)
            c_abs = libmp.mpi_abs(acc, prec)
        sup = add(sup, mul(c_abs, table.rad_pow[t], prec), prec)
        if t >= 1:
            t_c = mul(exact_pair(t, prec), c_abs, prec)
            dsup = add(dsup, mul(t_c, table.rad_pow[t - 1], prec), prec)
    fact_t = exact_pair(math.factorial(terms), prec)
    fact_t1 = exact_pair(math.factorial(terms - 1), prec)
    for c, (a_abs, ar_t, ar_t1, growth) in zip(coeffs, table.tails):
        c_abs = exact_pair(abs(c), prec)
        sup = add(sup, mul(div(mul(c_abs, ar_t, prec), fact_t, prec), growth, prec), prec)
        dsup = add(
            dsup,
            mul(div(mul(mul(c_abs, a_abs, prec), ar_t1, prec), fact_t1, prec), growth, prec),
            prec,
        )
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
    """Max over the rings x angles grid of a certified upper bound on |phi(w)|.

    phi(w) = sum_d h_d exp(a_d w) with a_d = sum_lambda rows[d][lambda] *
    theta_lambda, where encl holds the enclosures of the generators
    theta_lambda; rows None is the identity, so that encl holds the
    exponents themselves.

    Balls end to end: everything runs on numeric's complex balls at scale
    2^-p, p = ctx.prec.  Angle g's unit e^(2 pi i g/angles) is one point
    evaluation widened into a ball (expj), each generator argument
    theta_lambda (radius/rings) e^(2 pi i g/angles) is the ball product of
    the real ball of theta_lambda * radius/rings with it, and its exp is one
    more point evaluation (complex_exp).

    Generators: exp(a_d w) = prod_lambda exp(theta_lambda w)^(d_lambda), so
    one complex_exp per angle for each generator that occurs in a term with
    a nonzero coefficient gives every term's ring-1 base as a ball product
    of generator balls, one product per distinct sub-monomial of the rows
    (_product_plan); the zero row is the exact ball 1.

    Ring powers: angle g's ring points are w_j = (j+1) w_1 with
    w_1 = (radius/rings) e^(2 pi i g/angles), so exp(a w_j) = exp(a w_1)^(j+1):
    each further ring is the previous ring's value times the base.

    Sums: exact on the midpoints with radius sum_d |h_d| r_d, and |phi|^2 is
    bounded by the integer (|sx| + sr)^2 + (|sy| + sr)^2 at scale 2^-2p.

    Rounding once: ceiling to p bits, the float upper end, sqrt and
    nextafter are each monotone, so the integer maximum over the grid is
    rounded once and gives the same float as the maximum of the rounded
    bounds.

    Conjugate symmetry: every a_d is real and every h_d an integer, so
    phi(conj w) = conj phi(w), and angle angles - g carries the same |phi|
    as angle g.  The angles g = 0 .. angles // 2 therefore cover the grid,
    and each bound holds at its conjugate point as well.
    """
    p = ctx.prec
    if rows is None:
        rows = [tuple(int(i == d) for i in range(len(encl))) for d in range(len(encl))]
    step = exact_pair(radius / grid.rings, p)
    terms = [(c, abs(c), tuple(row)) for c, row in zip(coeffs, rows) if c]
    plan = _product_plan(row for _, _, row in terms)
    steps = {}
    for _, _, lam in plan:
        mid, rad = ball(libmp.mpi_mul(encl[lam], step, p), p)
        steps[lam] = (mid, 0, rad)
    two_pi = libmp.mpi_mul(exact_pair(2, p), pi_pair(p), p)
    angles = exact_pair(grid.angles, p)
    top = 0
    for g in range(grid.angles // 2 + 1):
        turn = expj(ctx, libmp.mpi_div(libmp.mpi_mul(two_pi, exact_pair(g, p), p), angles, p))
        gens = {lam: complex_exp(ctx, ball_mul(x, turn, p)) for lam, x in steps.items()}
        balls = {}
        for row, prev, lam in plan:
            balls[row] = gens[lam] if prev is None else ball_mul(balls[prev], gens[lam], p)
        bases = [balls.get(row, (1 << p, 0, 0)) for _, _, row in terms]
        powers = bases
        for j in range(grid.rings):
            if j:
                powers = [ball_mul(a, b, p) for a, b in zip(powers, bases)]
            sx = sy = sr = 0
            for (c, c_abs, _), (mx, my, r) in zip(terms, powers):
                sx += c * mx
                sy += c * my
                sr += c_abs * r
            top = max(top, (abs(sx) + sr) ** 2 + (abs(sy) + sr) ** 2)
    abs2 = libmp.from_man_exp(top, -2 * p, p, libmp.round_ceiling)
    abs2_hi = to_float_pair((abs2, abs2))[1]
    return math.nextafter(math.sqrt(abs2_hi), math.inf)


def siegel_construct(
    alphas: Sequence[str] | RealTuple,
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

    Candidates come from lattice reduction on rows [W*e_d | S*taylorcols],
    S = 2^(ceil(u_target/log 2) + 16), with the identity block weighted by
    the Taylor-tail rate so the lattice norm models the sup bound.  The
    reported sup is certified twice: a series bound, and a grid maximum plus
    a Lipschitz slack covering the whole disc.  With strict=True a result
    that misses the height budget or certifies no decay raises instead of
    being returned with best_effort set.  Given monomials, alphas must be
    the family alphas_from_monomials builds from them: the grid exponentiates
    the generators the exponents are read as, and a pair that does not
    match raises InvalidConfig.
    """
    if isinstance(alphas, RealTuple):
        alphas = alphas.expressions
    alphas = tuple(str(a) for a in alphas)
    if not alphas:
        raise InvalidConfig("empty exponent family")
    radius = Fraction(radius)
    if radius <= 0:
        raise InvalidConfig("radius must be positive")
    u_target = float(u_target)
    delta = float(delta)
    # written so that NaN fails too
    if not (0 < u_target < math.inf and 0 < delta < math.inf):
        raise InvalidConfig("u_target and delta must be positive and finite")
    bits = max(128, precision_bits)
    m = len(alphas)
    terms = taylor_terms if taylor_terms is not None else min(m, 10)
    if terms < 1:
        raise InvalidConfig("taylor_terms must be >= 1")
    exponent_rows, units = _exponent_rows(alphas, monomials)
    ctx, encl, exact, keys = _alpha_data(alphas, bits)

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

    table = _taylor_table(ctx, encl, exact, radius, terms)
    scored = []
    for h in candidates:
        height = math.log(max(abs(v) for v in h))
        bounds = _taylor_bounds(ctx, table, h)
        sup_hi = to_float_pair(bounds[0])[1]
        scored.append((height > delta + 1e-12, sup_hi, height, h, bounds))
    scored.sort(key=lambda rec: (rec[0], rec[1], rec[3]))
    _, _, log_height, best, (sup_iv, dsup_iv) = scored[0]
    height_ok = log_height <= delta + 1e-12

    zero = _symbolically_zero(keys, best)
    p, rad = ctx.prec, table.rad
    add, mul, div = libmp.mpi_add, libmp.mpi_mul, libmp.mpi_div
    if zero:
        grid_max, slack_hi, taylor_hi = 0.0, 0.0, 0.0
        achieved = float("-inf")
    else:
        taylor_hi = to_float_pair(sup_iv)[1]
        gen_encl = [encl[i] for i in units]
        grid_max = _grid_sup(ctx, gen_encl, best, radius, grid, exponent_rows)
        arc = div(mul(pi_pair(p), rad, p), exact_pair(grid.angles, p), p)
        mesh = add(div(rad, exact_pair(grid.rings, p), p), arc, p)
        slack_hi = to_float_pair(mul(mesh, dsup_iv, p))[1]
        total = min(math.nextafter(grid_max + slack_hi, math.inf), taylor_hi)
        achieved = _log_upper(ctx, total)
    taylor_log = _log_upper(ctx, taylor_hi)
    u_achieved = -achieved

    e_rad = mul(rad, libmp.mpi_exp(exact_pair(1, p), p), p)
    norm_sum = ZERO
    for a_abs, _, _, _ in table.tails:
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
        alphas=alphas,
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
    p = ctx.prec
    lo = hi = libmp.fzero
    for z, y in pairs:
        a, b = libmp.mpi_abs(libmp.mpi_sub(z, y, p), p)
        lo = a if libmp.mpf_lt(lo, a) else lo
        hi = b if libmp.mpf_lt(hi, b) else hi
    if hi == libmp.fzero:
        return NEG_PAIR
    if lo == libmp.fzero:
        raise NeedsBits
    return log_pair(ctx, libmp.mpi_log((lo, hi), p))


def _log_expm1_product(
    theta: RealTuple, kappa: RealTuple, u_terms, v_terms, precision_bits: int
) -> tuple[float, float]:
    """Float pair of log|exp(u v) - 1| for u = sum l theta_i and
    v = sum d kappa_j over (coefficient, index) terms: exact when every entry
    the terms use is rational, else on the tuples' enclosures, escalating."""

    def dot(terms, values):
        return sum(c * values[i] for c, i in terms)

    theta_q = {i: exact_rational(theta._nodes[i]) for _, i in u_terms}
    kappa_q = {j: exact_rational(kappa._nodes[j]) for _, j in v_terms}
    if None not in (*theta_q.values(), *kappa_q.values()):
        return log_expm1_abs(dot(u_terms, theta_q) * dot(v_terms, kappa_q), precision_bits)

    def dot_iv(terms, values, p):
        total = ZERO
        for c, i in terms:
            total = libmp.mpi_add(total, libmp.mpi_mul(exact_pair(c, p), values[i], p), p)
        return total

    def attempt(bits: int) -> tuple[float, float]:
        ctx, theta_iv = theta.real_enclosures(bits)
        _, kappa_iv = kappa.real_enclosures(bits)
        x = libmp.mpi_mul(dot_iv(u_terms, theta_iv, bits), dot_iv(v_terms, kappa_iv, bits), bits)
        return log_pair(ctx, log_expm1_abs_interval(ctx, x, bits))

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
    precision_bits: int = 128,
    budget: int = 10_000_000,
) -> DistanceAuditReport:
    """Audit the distance lemma at one candidate point z.

    z is either the marker string "theta" (the audited point is the image
    point itself, distance exactly zero), a flat sequence of mu*nu exact
    coordinates (lambda-major) for the full pipeline, or a flat sequence of
    expression strings for a numeric distance check only.

    Exact pipeline: count check floor(R/(2 mu))^nu > L^mu; the box points
    prod_rho z[., rho]^{r_rho}, one char_value per coordinate column; their
    vanishing degree <= L; the zero-estimate character of
    zero_estimate_search; a coset collision by pigeonhole, re-checked as an
    exact relation; and the contradiction bound
    log|exp((l . theta_I)((r - rbar) . kappa_J)) - 1| < -c D^eta, exact when
    every entry it uses is rational and from the tuples' enclosures
    otherwise.
    """
    I = tuple(int(i) for i in I)
    J = tuple(int(j) for j in J)
    mu, nu = len(I), len(J)
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
        z_nodes = [parse_expression(str(v)) for v in z]

        def attempt(bits: int) -> tuple[float, float]:
            ctx, theta_iv = theta.real_enclosures(bits)
            _, kappa_iv = kappa.real_enclosures(bits)
            zs = [eval_interval(ctx, node) for node in z_nodes]
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
    powers = {
        r_vec: tuple(char_value(r_vec, col) for col in columns)
        for r_vec in product(range(S + 1), repeat=nu)
    }

    try:
        omega_deg = min_vanishing_degree(
            normalize_point_set(powers.values()), max_degree=sched.L
        )
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
    seen: dict = {}
    for r_vec, pt in powers.items():
        val = char_value(zres.character, pt)
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


def _poly_eval_exact(poly, coords) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = Fraction(1)
        for e, q in zip(mono, coords):
            if e < 0 and q == 0:
                raise InvalidConfig("image point has a zero coordinate under a pole")
            term *= Fraction(q) ** e
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
    seed: int = 0,
    starts: int = 100,
    precision_bits: int = 128,
) -> PhilipponReport:
    """Check the four hypotheses of the effective-distance criterion at one
    height D and report each verdict separately.

    H1: every Laurent degree <= c1*D (exact).  H2: every coefficient height
    satisfies log|f| <= c2*D (exact).  H3: log|f(Theta)| <= -C*D^eta for
    every member (certified intervals, exact when the point is rational).
    H4: distance from Theta to the common zero set stays above -3*C*D^eta in
    log scale; checked against a supplied bound when given, otherwise
    explored for binomial families by seeded simplex descent over the
    positive-real component of the zero subgroup.  A violating witness is
    re-certified with intervals before "fail" is reported; a surviving
    search is only ever "empirical_pass".  Conclusions are never asserted.
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
    h1 = HypothesisCheck(
        "degree",
        "pass" if all(ok for _, _, ok in deg_details) else "fail",
        tuple(deg_details),
    )

    ht_bound = c2 * D
    ht_details = []
    for idx, poly in enumerate(polys):
        log_h = math.log(max(abs(c) for c in poly.values()))
        ht_details.append((idx, log_h, log_h <= ht_bound + 1e-12))
    h2 = HypothesisCheck(
        "height",
        "pass" if all(ok for _, _, ok in ht_details) else "fail",
        tuple(ht_details),
    )

    small_bound = height_threshold(C, eta, D)[1]
    dist_bound = height_threshold(3.0 * C, eta, D)[1]
    exact_coords = theta_point.exact_values()
    small_details = []
    for idx, poly in enumerate(polys):
        exact = None if exact_coords is None else _poly_eval_exact(poly, exact_coords)

        def attempt(bits: int, p=poly, q=exact) -> tuple[float, float]:
            if q is None:
                ctx, coords = theta_point.real_enclosures(bits)
                value = _poly_eval_iv(ctx, p, coords)
            else:
                ctx = make_ctx(bits)
                value = exact_pair(q, bits)
            return log_pair(ctx, log_abs_interval(ctx, value))

        pair = run_escalating(attempt, precision_bits)
        small_details.append((idx, pair, pair[1] <= small_bound))
    h3 = HypothesisCheck(
        "evaluation_smallness",
        "pass" if all(ok for _, _, ok in small_details) else "fail",
        tuple(small_details),
    )

    h4 = _distance_hypothesis(
        polys,
        theta_point,
        dist_bound,
        zero_distance_log,
        seed=seed,
        starts=starts,
        precision_bits=precision_bits,
    )
    return PhilipponReport(h1, h2, h3, h4, case, D)


class _OutOfEvaluations(Exception):
    """The evaluation budget of one `_nelder_mead` run is spent."""


def _nelder_mead(f, x0):
    """Minimise f from x0 by the Nelder-Mead simplex (Nelder & Mead 1965).

    The steps are those of SciPy 1.17's default Nelder-Mead method in
    ``optimize.minimize``, unbounded and non-adaptive, in the same
    floating-point operations, so the returned value and point are
    bit-identical to its ``fun`` and ``x`` (the differential tests compare
    the two; SciPy is a test dependency only):

      * the initial simplex is x0 plus x0 with coordinate k scaled by 1.05,
        or set to 0.00025 where it is zero;
      * reflection, expansion, contraction and shrink use rho=1, chi=2,
        psi=sigma=1/2, written as SciPy evaluates them, with the centroid
        ``np.add.reduce(sim[:-1], 0) / N``;
      * the vertices are re-sorted by default-kind ``np.argsort`` after
        every step (twice after the first evaluations);
      * it stops when the simplex spans at most 1e-4 in x and in f, after
        200*N iterations, or when 200*N evaluations are spent; the last cuts
        a step off part-way, a shrink after the vertices already moved.

    x0 is a float array of length N >= 1; f takes such an array, returns a
    float and must not modify its argument.  Returns (least value, vertex).
    """
    import numpy as np

    N = len(x0)
    budget = 200 * N
    calls = 0

    def fx(x):
        nonlocal calls
        if calls >= budget:
            raise _OutOfEvaluations
        calls += 1
        return f(x)

    sim = np.array([x0] * (N + 1), dtype=float)
    for k in range(N):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(N + 1, np.inf)
    for k in range(N + 1):
        fsim[k] = fx(sim[k])
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while calls < budget and iterations < budget:
        try:
            if (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-4
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-4
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2 * xbar - 1 * sim[-1]
            fxr = fx(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = fx(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = fx(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                fxcc = fx(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = fx(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return np.min(fsim), sim[0]


def _zero_distance_search(
    kernel: list[list[int]], theta_point: RealTuple, *, seed: int, starts: int,
    precision_bits: int,
) -> tuple[float, Sequence[float]] | None:
    """Least sup-distance found from Theta to exp(K^T s), s real, and its s.

    K's rows span the integer kernel of the characters, so exp(K^T s) runs
    over the positive-real component of the zero subgroup.  The search is
    seeded: the origin, then `starts` Nelder-Mead runs from normal points at
    spreads 0.1, 1 and 3 in turn.  Empirical: nothing certifies that the
    true minimum is not smaller.  None, before any run, when a coordinate of
    Theta is beyond float range, and None when no evaluated distance is
    finite and below the 1e300 that stands for a point beyond float range.
    """
    import numpy as np

    n = len(theta_point)
    dim = len(kernel)
    _, coords = theta_point.real_enclosures(max(128, precision_bits))
    target = np.array([sum(to_float_pair(x)) / 2 for x in coords])
    if not np.all(np.isfinite(target)):
        return None
    try:
        kmat = np.array(kernel, dtype=float).T if dim else np.zeros((n, 0))
    except OverflowError:  # a kernel entry beyond float range
        return None

    def objective(s: np.ndarray) -> float:
        try:
            pt = np.exp(kmat @ s)
        except (OverflowError, FloatingPointError):
            return 1e300
        if not np.all(np.isfinite(pt)):
            return 1e300
        return float(np.max(np.abs(pt - target)))

    rng = np.random.default_rng(seed)
    best_val = objective(np.zeros(dim))
    best_s = np.zeros(dim)
    if dim:
        for i in range(starts):
            spread = (0.1, 1.0, 3.0)[i % 3]
            s0 = rng.standard_normal(dim) * spread
            fun, x = _nelder_mead(objective, s0)
            if fun < best_val:
                best_val, best_s = float(fun), x
    return (best_val, best_s) if best_val < 1e300 else None


def _distance_hypothesis(
    polys,
    theta_point: RealTuple,
    dist_bound: float,
    supplied: float | None,
    *,
    seed: int,
    starts: int,
    precision_bits: int,
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

    from .intmat import smith_normal_form

    n = len(theta_point)
    e_rows = [list(ch) for ch in chars]
    _, s, v = smith_normal_form(e_rows)
    rank = sum(1 for i in range(min(len(s), n)) if s[i][i])
    kernel = [[v[i][j] for i in range(n)] for j in range(rank, n)]
    dim = len(kernel)
    found = _zero_distance_search(
        kernel, theta_point, seed=seed, starts=starts,
        precision_bits=precision_bits,
    )
    if found is None:
        return HypothesisCheck(
            "zero_distance",
            "not_checked",
            (("reason", "no distance to the zero subgroup is within float range"),),
        )
    best_val, best_s = found

    found_log = math.log(best_val) if best_val > 0 else float("-inf")
    details = [
        ("component", "positive_real_only"),
        ("min_log_distance_found", found_log),
        ("bound", dist_bound),
    ]
    if found_log < dist_bound:
        # certify the witness: any kernel point is a true common zero
        s_exact = [Fraction(float(x)).limit_denominator(10**12) for x in best_s]
        u = [
            sum((s_exact[i] * kernel[i][j] for i in range(dim)), Fraction(0))
            for j in range(n)
        ]

        def attempt(bits: int) -> tuple[float, float]:
            ctx, coords = theta_point.real_enclosures(bits)
            zs = [libmp.mpi_exp(exact_pair(u_j, bits), bits) for u_j in u]
            return _log_sup_distance(ctx, zip(zs, coords))

        pair = run_escalating(attempt, precision_bits)
        if pair[1] < dist_bound:
            return HypothesisCheck(
                "zero_distance",
                "fail",
                tuple(details + [("certified_witness_log", pair)]),
            )
        details.append(("witness_certification", pair))
        return HypothesisCheck("zero_distance", "empirical_fail", tuple(details))
    return HypothesisCheck("zero_distance", "empirical_pass", tuple(details))
