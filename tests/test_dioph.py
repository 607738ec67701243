"""Linear-form minima, genericity probes, and relation detection."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iv_oracle as oracle
from genlab import dioph
from genlab.dioph import (
    GenericityReport,
    apply_matrix,
    bituple_probe,
    canonical_form,
    genericity_probe,
    linear_form_min,
    regularity_probe,
)
from genlab.errors import InvalidConfig
from genlab.numeric import log_expm1_abs
from genlab.tuples import RealTuple

GOLDEN = RealTuple(("1", "phi"))
SQRT2 = RealTuple(("1", "sqrt(2)"))
LIOUVILLE = RealTuple(
    ("1", "10^-1 + 10^-2 + 10^-6 + 10^-24 + 10^-120"), precision_bits=512
)

PHI = (1 + math.sqrt(5)) / 2


def fib_oracle(D):
    """Largest-Fibonacci convergent: minimizer (F_{k+1}, -F_k), value phi^-k."""
    fibs = [1, 1]
    while fibs[-1] + fibs[-2] <= D:
        fibs.append(fibs[-1] + fibs[-2])
    k = len(fibs) - 1  # fibs[k] = F_{k+1} <= D
    return (fibs[k], -fibs[k - 1]), PHI ** -(k)


def test_canonical_form():
    assert canonical_form((-2, 3)) == (2, -3)
    assert canonical_form((0, -1, 5)) == (0, 1, -5)
    assert canonical_form((4, 0)) == (4, 0)


def test_golden_ratio_height_five():
    rec = linear_form_min(GOLDEN, (0, 1), 5)
    assert rec.l == (5, -3)
    lo, hi = rec.log_value
    assert abs(math.exp(lo) - 0.14589803375031546) < 1e-12
    assert not rec.approximate


def test_exact_rational_dependence():
    rec = linear_form_min(RealTuple(("1", "2")), (0, 1), 2)
    assert rec.l == (2, -1)
    assert rec.exact_value == 0
    assert rec.log_value == (float("-inf"), float("-inf"))
    assert rec.log_exp_value == (float("-inf"), float("-inf"))


def test_sqrt2_height_three():
    rec = linear_form_min(SQRT2, (0, 1), 3)
    assert rec.l == (3, -2)
    lo, _ = rec.log_value
    assert abs(math.exp(lo) - (3 - 2 * math.sqrt(2))) < 1e-12


def test_fibonacci_oracle_matches():
    for D in range(2, 31):
        rec = linear_form_min(GOLDEN, (0, 1), D)
        l_expected, value_expected = fib_oracle(D)
        assert rec.l == l_expected, (D, rec.l, l_expected)
        lo, hi = rec.log_value
        assert abs(math.exp(lo) - value_expected) < 1e-9


def test_single_index_subset():
    rec = linear_form_min(GOLDEN, (1,), 1)
    assert rec.l == (1,)
    assert abs(math.exp(rec.log_value[0]) - PHI) < 1e-12


def test_lattice_mode_is_flagged_upper_bound():
    rec = linear_form_min(GOLDEN, (0, 1), 50, budget=100)
    assert rec.approximate
    assert rec.l != (0, 0)
    assert max(abs(x) for x in rec.l) <= 50
    exact = linear_form_min(GOLDEN, (0, 1), 50)
    assert not exact.approximate
    # upper bound property
    assert rec.log_value[1] >= exact.log_value[0] - 1e-12


def test_verdict_of_an_approximate_record_fails_or_stays_undecided():
    # an approximate record's value bounds the minimum from above
    assert dioph._verdict((-3.0, -2.9), -5.0, 1.0, True) == (None, 3.0)
    assert dioph._verdict((-3.0, -2.9), -5.0, 1.0, False) == (True, 3.0)
    assert dioph._verdict((-6.0, -5.9), -5.0, 1.0, True) == (False, 6.0)
    with pytest.raises(dioph.NeedsBits):
        dioph._verdict((-5.1, -4.9), -5.0, 1.0, True)


def test_overall_outcome_of_the_three_verdicts():
    def verdicts(*passed):
        return [mock.Mock(passed=p) for p in passed]

    assert dioph._overall(verdicts(True, True)) == "generic-up-to-budget"
    assert dioph._overall(verdicts(True, None)) == "undecided"
    assert dioph._overall(verdicts(None, False, True)) == "special-witnesses"


_MONOTONE_ENTRIES = ("log(2)", "log(3)", "log(5)", "log(7)", "sqrt(2)", "sqrt(3)", "pi")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_failed_height_never_passes_above_it(data):
    # the height-D box holds the height-D' box for D' <= D, so the max-min
    # over subsets only falls with D: a lower height whose certified value
    # is below the threshold of D rules out a pass at D.  The budget holds
    # the lower heights only, so the upper ones run in lattice mode, whose
    # records bound the minimum from above and so never pass.
    mu = data.draw(st.integers(2, 4))
    entries = data.draw(
        st.lists(st.sampled_from(_MONOTONE_ENTRIES), min_size=mu, max_size=mu, unique=True)
    )
    top = data.draw(st.integers(3, 10))
    budget = (2 * data.draw(st.integers(1, top - 1)) + 1) ** mu
    c = data.draw(st.floats(0.001, 0.5))
    rep = genericity_probe(RealTuple(tuple(entries)), mu, 2.0, c, range(1, top + 1), budget=budget)
    assert any(v.record.approximate for v in rep.verdicts)
    for low in rep.verdicts:
        for high in rep.verdicts:
            if high.D >= low.D and low.record.log_exp_value[1] < high.threshold:
                assert high.passed is not True, (low.D, high.D)


def test_scaling_invariance_exact():
    base = RealTuple(("1", "3/7"))
    scaled = RealTuple(("2/3", "(2/3)*(3/7)"))
    for D in (2, 3, 5):
        r1 = linear_form_min(base, (0, 1), D)
        r2 = linear_form_min(scaled, (0, 1), D)
        assert r1.l == r2.l
        assert r2.exact_value == Fraction(2, 3) * r1.exact_value


def test_signed_permutation_invariance():
    A = [[0, 1], [-1, 0]]
    rep = genericity_probe(GOLDEN, 2, 1.0, 3.0, [3, 5, 8])
    rep_a = genericity_probe(GOLDEN, 2, 1.0, 3.0, [3, 5, 8], A=A)
    for v, va in zip(rep.verdicts, rep_a.verdicts):
        assert v.passed == va.passed
        assert abs(v.record.log_value[0] - va.record.log_value[0]) < 1e-9


def test_invalid_inputs():
    with pytest.raises(InvalidConfig):
        linear_form_min(GOLDEN, (), 3)
    with pytest.raises(InvalidConfig):
        linear_form_min(GOLDEN, (1, 0), 3)
    with pytest.raises(InvalidConfig):
        linear_form_min(GOLDEN, (0, 5), 3)
    with pytest.raises(InvalidConfig):
        linear_form_min(GOLDEN, (0,), 0)
    with pytest.raises(InvalidConfig):
        genericity_probe(GOLDEN, 3, 1.0, 1.0, [2])
    with pytest.raises(InvalidConfig):
        genericity_probe(GOLDEN, 2, 0.5, 1.0, [2])
    with pytest.raises(InvalidConfig):
        genericity_probe(GOLDEN, 2, 1.0, 1.0, [])
    with pytest.raises(InvalidConfig):
        genericity_probe(GOLDEN, 2, 1.0, 1.0, [2], A=[[1, 1], [1, 1]])


def test_apply_matrix_requires_square_nonsingular():
    theta = RealTuple(("1", "sqrt(2)", "sqrt(3)"))
    with pytest.raises(InvalidConfig, match="nonsingular"):
        apply_matrix(theta, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(InvalidConfig, match="nonsingular"):
        apply_matrix(theta, [[0, 1, 0], [0, 0, 1], [0, 0, 2]])
    with pytest.raises(InvalidConfig, match="3x3"):
        apply_matrix(theta, [[1, 0], [0, 1]])
    out = apply_matrix(
        RealTuple(("1", "2", "3")),
        [[0, 1, 0], [Fraction(1, 2), 0, 0], [0, 0, -1]],
    )
    assert out.exact_values() == (2, Fraction(1, 2), -3)


def test_golden_generic_at_small_heights():
    rep = genericity_probe(GOLDEN, 2, 1.0, 3.0, range(2, 13))
    assert rep.all_passed
    assert rep.overall == "generic-up-to-budget"
    assert len(rep.verdicts) == 11
    assert rep.c_required_max < 3.0


def test_liouville_fails_at_factorial_cutoff():
    # pass needs c >= c_required(D); the requirement spikes when the height
    # box first reaches the decimal convergent 1/9 of the series
    rep = genericity_probe(LIOUVILLE, 2, 2.0, 0.045, range(7, 13))
    failing = [v.D for v in rep.verdicts if not v.passed]
    assert failing == [9, 10]
    assert rep.overall == "special-witnesses"
    v9 = next(v for v in rep.verdicts if v.D == 9)
    assert v9.record.l == (1, -9)
    by_d = {v.D: v.c_required for v in rep.verdicts}
    assert by_d[9] > by_d[8]


def test_mu_one_trivial_record():
    rep = genericity_probe(GOLDEN, 1, 1.0, 3.0, [1])
    v = rep.verdicts[0]
    assert v.record.l == (1,)
    # best subset maximizes the min: phi > 1, so subset (1,) wins
    assert v.record.subset == (1,)
    assert v.passed


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12))
def test_min_value_nonincreasing_in_height(D):
    r1 = linear_form_min(SQRT2, (0, 1), D)
    r2 = linear_form_min(SQRT2, (0, 1), D + 1)
    assert r2.log_value[0] <= r1.log_value[1] + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 8))
def test_pass_monotone_in_mu(D):
    t = RealTuple(("1", "phi", "sqrt(2)"))
    rep2 = genericity_probe(t, 2, 1.0, 2.0, [D])
    rep1 = genericity_probe(t, 1, 1.0, 2.0, [D])
    if rep2.all_passed:
        assert rep1.all_passed


def test_bituple_product_of_minima():
    rep = bituple_probe(GOLDEN, SQRT2, 2, 2, 1.0, 3.0, [5], [3])
    v = rep.verdicts[0]
    assert v.l == (5, -3)
    assert v.r == (3, -2)
    expected = 0.14589803375031546 * (3 - 2 * math.sqrt(2))
    assert abs(math.exp(v.log_value[0]) - expected) < 1e-9
    assert abs(expected - 0.025036) < 1e-5


def test_bituple_trivial_heights():
    rep = bituple_probe(GOLDEN, SQRT2, 1, 1, 1.0, 3.0, [1], [1])
    v = rep.verdicts[0]
    # existential subset choice picks the larger entry on each side
    assert v.subset_theta == (1,)
    assert v.subset_kappa == (1,)
    assert abs(math.exp(v.log_value[0]) - PHI * math.sqrt(2)) < 1e-9


def test_bituple_pass_follows_componentwise_pass():
    c, eta = 3.0, 1.0
    heights = [2, 3, 5]
    rep_t = genericity_probe(GOLDEN, 2, eta, c, heights)
    rep_k = genericity_probe(SQRT2, 2, eta, c, heights)
    assert rep_t.all_passed and rep_k.all_passed
    rep = bituple_probe(GOLDEN, SQRT2, 2, 2, eta, c, heights, heights)
    assert rep.all_passed


def test_bituple_modes_agree_on_real_values():
    # the factorized result takes the least favourable sign of the product,
    # so flipping the sign of one side leaves the verdict unchanged
    rep_n = bituple_probe(RealTuple(("-2",)), RealTuple(("3",)), 1, 1, 1.0, 3.0, [1], [1])
    rep_p = bituple_probe(RealTuple(("2",)), RealTuple(("3",)), 1, 1, 1.0, 3.0, [1], [1])
    assert rep_n.verdicts[0].log_exp_value == rep_p.verdicts[0].log_exp_value
    assert abs(rep_p.verdicts[0].log_exp_value[0] - math.log(1 - math.exp(-6))) < 1e-9


def test_regularity_small_integers():
    res = regularity_probe(RealTuple(("1", "2", "3")))
    assert res.status == "relation_found"
    assert res.relation == (1, 1, -1)  # smallest max-norm, then lex
    assert res.verified_exact
    assert res.minimal


def test_regularity_logs_independent():
    res = regularity_probe(
        RealTuple(("log(2)", "log(3)"), precision_bits=256), height_bound=100
    )
    assert res.status == "no_relation_found"
    assert res.height_bound == 100
    assert res.precision_bits == 256


def test_regularity_golden_quadratic():
    res = regularity_probe(RealTuple(("1", "phi", "phi^2")))
    assert res.status == "relation_found"
    assert res.relation == (1, 1, -1)
    assert not res.verified_exact  # certified by straddle, not exact arithmetic
    assert res.minimal


def test_regularity_real_with_pi_appended():
    res = regularity_probe(RealTuple(("1", "pi"), precision_bits=256), include_pi_i=True)
    assert res.includes_pi
    assert res.status == "no_relation_found"


def test_log_expm1_abs_public():
    lo, hi = log_expm1_abs("10^-10")
    assert abs(lo + 23.025850929890456) < 1e-6
    assert log_expm1_abs(0) == (float("-inf"), float("-inf"))
    lo, hi = log_expm1_abs("log(2)")
    assert lo <= 0 <= hi
    lo, hi = log_expm1_abs(Fraction(1, 2))
    assert abs(lo - math.log(math.exp(0.5) - 1)) < 1e-12


# ---------------------------------------------------------------------------
# the meet-in-the-middle box screen and the screen-based minimality check


def _two_pass_screen(theta_float, D):
    """Reference: every value of the box, then the survivors of min + slack."""
    mu = len(theta_float)
    theta = np.array(theta_float, dtype=float)
    slack = mu * D * max(1.0, float(np.max(np.abs(theta)))) * 2.0**-46 + 1e-10
    box = np.array(list(itertools.product(range(-D, D + 1), repeat=mu)), dtype=np.int64)
    vals = np.zeros(len(box))
    for pos in range(mu - 1, -1, -1):
        vals += box[:, pos] * theta[pos]
    vals = np.abs(vals)
    vals[np.all(box == 0, axis=1)] = np.inf
    keep = vals <= vals.min() + slack
    return sorted({canonical_form(tuple(int(x) for x in l)) for l in box[keep]})


def _exact_minimizers(theta_float, D):
    """Canonical minimizers of |l.theta| with the floats taken as exact rationals."""
    parts = [Fraction(x) for x in theta_float]
    best, arg = None, set()
    for l in itertools.product(range(-D, D + 1), repeat=len(parts)):
        if not any(l):
            continue
        v = abs(sum(c * x for c, x in zip(l, parts)))
        if best is None or v < best:
            best, arg = v, set()
        if v == best:
            arg.add(canonical_form(l))
    return arg


_part = st.one_of(
    st.integers(-3, 3).map(float),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).map(float),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda mu: st.lists(_part, min_size=mu, max_size=mu)),
    st.integers(1, 4),
)
def test_screen_box_matches_two_pass(theta_float, D):
    # mu 1..4 covers an empty and a nonempty head, odd and even splits
    got = dioph._screen_box(theta_float, D)
    assert got == _two_pass_screen(theta_float, D)
    assert _exact_minimizers(theta_float, D) <= set(got)


@pytest.mark.parametrize(
    "theta_float, D",
    [
        # mu = 5: a head of 2 and a tail of 3 coordinates; 1, 0.5 and -0.25
        # are rationally dependent, so many zero-valued vectors tie
        ([1.0, 0.5, 0.6931471805599453, 1.3956124250860895, -0.25], 5),
    ],
)
def test_screen_box_matches_two_pass_fixed(theta_float, D):
    assert dioph._screen_box(theta_float, D) == _two_pass_screen(theta_float, D)


# the largest height per mu that keeps the whole-box references quick
_SWEEP_TOP = {1: 40, 2: 15, 3: 5, 4: 3, 5: 2}


@st.composite
def _sweeps(draw):
    mu = draw(st.integers(1, 5))
    part = st.one_of(
        _part,
        st.sampled_from([1e-13, -1e-13, 3e-13, -2.5e-13]),
        # near-equal large entries: their forms differ by about 1e-10, where
        # the slack grows with the height
        st.integers(-4, 4).map(lambda n: 1024.0 + n * 2.0**-33),
        st.integers(-4, 4).map(lambda n: -1536.0 + n * 2.0**-33),
    )
    theta = draw(st.lists(part, min_size=mu, max_size=mu))
    heights = draw(
        st.lists(st.integers(1, _SWEEP_TOP[mu]), min_size=1, max_size=6, unique=True)
    )
    return theta, tuple(sorted(heights))


@settings(max_examples=100, deadline=None)
@given(_sweeps())
# rational entries with many zero-valued ties, heights with gaps
@example(([1.0, 0.5, -0.25, 0.75, -1.5], (1, 2)))
@example(([2.0, -1.0, 0.5, 3.0], (1, 3)))
@example(([1.0, 1.0, -2.0], (2, 3, 5)))
# entries near 1e-13 beside entries near 1: the slack swamps the small ones
@example(([1e-13, 0.6931471805599453, -3e-13], (2, 4, 5)))
@example(([1e-13, -1e-13], (3, 7, 15)))
# near-equal large entries: a height's survivors reach past the first box's
# window, and the windows grow with the height
@example(([1024.0 + 2.0**-33, 1024.0 - 2.0**-33], (2, 3, 4, 6, 14)))
@example(([-1536.0 - 2.0**-33, -1536.0 + 2.0**-33], (3, 6, 7, 13)))
# singletons, and sweeps that start above 1
@example(([-2.718281828459045], (40,)))
@example(([1.0, 1.618033988749895], (4, 9, 10, 15)))
def test_screen_sweep_matches_two_pass_at_every_height(sweep):
    theta_float, heights = sweep
    got = dioph._screen_sweep(theta_float, heights)
    assert list(got) == list(heights)
    for D in heights:
        assert got[D] == _two_pass_screen(theta_float, D)
        assert _exact_minimizers(theta_float, D) <= set(got[D])


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_screen_sweep_memory_is_that_of_one_screen():
    # 121^3 boxes at D = 60: a table of heights times the 121^2 tail half box
    # would take about 7 MB, against under 1 MB for one screen
    theta = [math.log(2), math.log(3), math.log(5)]
    single = _peak_bytes(dioph._screen_box, theta, 60)
    swept = _peak_bytes(dioph._screen_sweep, theta, tuple(range(2, 61)))
    assert swept <= 2 * single


def test_wide_sweep_memory_is_that_of_one_top_screen():
    # mu = 4 over D = 2..300: the D = 2 window gathers about 11 pairs per tail
    # vector of the top box in one pass, so the sweep splits
    theta = [math.log(2), math.log(3), math.log(5), math.log(7)]
    single = _peak_bytes(dioph._screen_box, theta, 300)
    swept = _peak_bytes(dioph._screen_sweep, theta, tuple(range(2, 301)))
    assert swept <= 2 * single


_LOG_PRIMES = [math.log(p) for p in (2, 3, 5, 7, 11, 13)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_split_sweeps_keep_every_height_of_one_screen(data):
    # wide sweeps that split, at the bound and below it (a bound of 0 splits
    # every sweep down to single heights): each height keeps what a screen
    # of its box alone keeps
    mu = data.draw(st.integers(3, 4))
    theta = data.draw(st.permutations(_LOG_PRIMES))[:mu]
    top = data.draw(st.integers(20, 60 if mu == 4 else 120))
    heights = tuple(sorted(data.draw(
        st.sets(st.integers(1, top - 1), min_size=1, max_size=40)
    ) | {top}))
    bound = data.draw(st.sampled_from([0, 0.01, 0.1, dioph.SWEEP_PAIRS_PER_HALF_BOX]))
    with mock.patch.object(dioph, "SWEEP_PAIRS_PER_HALF_BOX", bound):
        got = dioph._screen_sweep(theta, heights)
    assert list(got) == list(heights)
    for D in data.draw(st.lists(st.sampled_from(heights), min_size=1, max_size=4)):
        assert got[D] == dioph._screen_box(theta, D)


# Lagrange's best-approximation theorem (Khinchin, Continued Fractions, sec. 6):
# for |theta_1| >= |theta_2| and irrational alpha = theta_2/theta_1, the least
# |l_1 theta_1 + l_2 theta_2| over the height-D box is
# |theta_1| min(1, |q_k alpha - p_k|), p_k/q_k the last convergent with q_k <= D.
_BEST_APPROXIMATION_PAIRS = {
    "sqrt2": (("sqrt(2)", "1"), lambda: (mpmath.sqrt(2), mpmath.mpf(1))),
    "golden": (("(1 + sqrt(5))/2", "1"), lambda: ((1 + mpmath.sqrt(5)) / 2, mpmath.mpf(1))),
    "logs": (("log(3)", "log(2)"), lambda: (mpmath.log(3), mpmath.log(2))),
    "pi-exp": (("pi", "exp(1/3)"), lambda: (mpmath.pi, mpmath.exp(mpmath.mpf(1) / 3))),
}


def _partial_quotients(entries, bits, q_max):
    """Partial quotients of alpha = theta_2/theta_1 at the given precision,
    up to the first convergent denominator above q_max."""
    with mpmath.workprec(bits):
        theta_1, theta_2 = entries()
        x = theta_2 / theta_1
        quotients, q_prev, q = [], 1, 0  # q_-2, q_-1
        while q <= q_max:
            a = int(mpmath.floor(x))
            quotients.append(a)
            x = 1 / (x - a)
            q_prev, q = q, a * q + q_prev
        return quotients


@pytest.mark.parametrize("name", list(_BEST_APPROXIMATION_PAIRS))
def test_mu2_sweep_minimum_is_the_best_approximation(name):
    expressions, entries = _BEST_APPROXIMATION_PAIRS[name]
    top = 1000
    quotients = _partial_quotients(entries, 512, top)
    assert quotients == _partial_quotients(entries, 1024, top)
    with mpmath.workprec(512):
        theta_1, theta_2 = entries()
        alpha = theta_2 / theta_1
        # every convergent (p_k, q_k) with q_k <= top: the last quotient's
        # denominator is above top
        convergents, (p_prev, q_prev), (p, q) = [], (1, 0), (quotients[0], 1)
        for a in quotients[1:]:
            convergents.append((p, q))
            p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        rep = genericity_probe(RealTuple(expressions), 2, 2.0, 0.045, range(1, top + 1))
        assert not rep.approximate
        for v in rep.verdicts:
            p_k, q_k = [pq for pq in convergents if pq[1] <= v.D][-1]
            value = abs(theta_1) * min(1, abs(q_k * alpha - p_k))
            lo, hi = v.record.log_value
            assert lo <= mpmath.log(value) <= hi, (v.D, p_k, q_k)


def test_relation_lattice_scales_the_full_precision_midpoint():
    _, (x,) = RealTuple(("sqrt(2)",)).real_enclosures(256)
    scaled = dioph._scaled_mid(x, 128, 256)
    n = 2 << 256  # (sqrt(2) * 2^128)^2
    root = math.isqrt(n)
    assert scaled == (root + 1 if n - root * root > root else root)
    assert scaled % 2**76 != 0  # a 53-bit midpoint would leave these bits zero


@pytest.mark.parametrize(
    "entries, pi_i, lattice_row, minimal_row",
    [
        # the reduced lattice's relation has max-norm 5; one of max-norm 4 exists
        (("-16", "-23", "-11"), False, (2, 1, -5), (3, -4, 4)),
        # equal max-norm: the lexicographically smallest relation wins
        (("-4", "-4", "-4"), False, (1, -1, 0), (0, 1, -1)),
        (("5", "-1", "1", "1"), True, (0, 1, 0, 1, 0), (0, 0, 1, -1, 0)),
    ],
)
def test_regularity_minimal_beats_the_lattice_row(entries, pi_i, lattice_row, minimal_row):
    theta = RealTuple(entries)
    res = regularity_probe(theta, pi_i)
    assert (res.relation, res.minimal) == (minimal_row, True)
    # over budget the minimality screen is skipped and the lattice row stands
    h = max(abs(x) for x in lattice_row)
    res = regularity_probe(theta, pi_i, budget=(2 * h + 1) ** len(lattice_row) - 1)
    assert (res.relation, res.minimal) == (lattice_row, None)


def _brute_relation(theta, include_pi_i, h):
    """Reference: the smallest (max-norm, l) plausible relation in the
    height-h box, by walking the whole box.  With include_pi_i the last
    coordinate l' multiplies pi*i: the real sum and the imaginary part
    l' pi must both straddle zero."""
    bits = max(128, theta.precision_bits)
    _, encl = theta.real_enclosures(bits)
    ctx = oracle.iv_ctx(bits)
    encl = [oracle.to_iv(ctx, x) for x in encl]
    n = len(encl)
    exact_entries = None if include_pi_i else theta.exact_values()
    best = None
    for l in itertools.product(range(-h, h + 1), repeat=n + include_pi_i):
        if not any(l):
            continue
        l = canonical_form(l)
        if exact_entries is not None:
            exact = sum(Fraction(c) * q for c, q in zip(l, exact_entries)) == 0
            plausible = exact
        else:
            re = sum((x * c for c, x in zip(l, encl)), ctx.mpf(0))
            im = ctx.pi * l[n] if include_pi_i else ctx.mpf(0)
            plausible, exact = re.a <= 0 <= re.b and im.a <= 0 <= im.b, False
        key = (max(abs(x) for x in l), l)
        if plausible and (best is None or key < best[0]):
            best = (key, l, exact)
    return best


_entry = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["1/2", "-2/3", "sqrt(2)", "2*sqrt(2)", "-sqrt(2)", "pi", "-2*pi", "phi"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_entry, min_size=1, max_size=3), st.booleans())
def test_regularity_minimal_matches_box_walk(entries, include_pi_i):
    theta = RealTuple(tuple(entries))
    res = regularity_probe(theta, include_pi_i, height_bound=6)
    if res.status == "no_relation_found":
        assert res.relation is None and res.minimal is None
        return
    assert res.minimal
    ref = _brute_relation(theta, include_pi_i, max(abs(x) for x in res.relation))
    assert ref is not None
    _, l, exact = ref
    assert res.relation == l
    assert res.verified_exact == exact


# ---------------------------------------------------------------------------
# certified forms memoised on the tuple


# Real entries whose values are linearly independent over Q (Baker,
# Besicovitch), plus rationals; a draw holds at most one rational unless
# every entry is rational, so no zero form arises on the interval branch.
# DEEP is about 5e-31, a difference of two numbers near pi: at 128 bits its
# forms are too wide to certify, so a sweep that meets it escalates.
DEEP = "pi - 3141592653589793238462643383279/10^30"
_IRRATIONAL = ["log(2)", "log(3)", "log(5)", "log(7)", "sqrt(2)", "sqrt(3)", "sqrt(5)"]
_RATIONAL = ["1/2", "-3/4", "5/3", "2", "-7/5"]


@st.composite
def _probe_tuples(draw):
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):  # every entry rational: the exact branch
        entries = st.lists(st.sampled_from(_RATIONAL), min_size=m, max_size=m)
    else:
        pool = [DEEP, *_IRRATIONAL, draw(st.sampled_from(_RATIONAL))]
        entries = st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True)
    return RealTuple(tuple(draw(entries)))


@settings(max_examples=50, deadline=None)
@given(_probe_tuples(), st.data())
def test_probe_sweep_records_equal_fresh_linear_form_min(theta, data):
    # the sweep reads forms its earlier heights and subsets certified; a
    # fresh tuple per record computes each one cold, at the same precision
    mu = data.draw(st.integers(1, min(3, len(theta))))
    hi = data.draw(st.integers(2, 8))
    computed = []
    min_record = dioph._min_record

    def recording(theta, subset, D, *, bits_floor, budget, heights):
        rec = min_record(theta, subset, D, bits_floor=bits_floor, budget=budget, heights=heights)
        computed.append((rec, bits_floor))
        return rec

    with mock.patch.object(dioph, "_min_record", recording):
        rep = genericity_probe(theta, mu, 2.0, 0.045, range(2, hi + 1))

    def fresh():
        return RealTuple(theta.expressions)

    assert {v.record for v in rep.verdicts} <= {rec for rec, _ in computed}
    for rec, bits in computed:
        assert rec == linear_form_min(fresh(), rec.subset, rec.D, precision_bits=bits)


def test_sweep_certifies_each_form_once(monkeypatch):
    calls = []
    log_parts = dioph._log_parts

    def counting(ctx, value, bits):
        calls.append((value, bits))
        return log_parts(ctx, value, bits)

    monkeypatch.setattr(dioph, "_log_parts", counting)
    logs = ("log(2)", "log(3)", "log(5)", "log(7)")
    genericity_probe(RealTuple(logs), 2, 2.0, 0.045, range(2, 11))
    swept = list(calls)
    # every (subset, height) minimum, each on a fresh tuple, at 128 bits
    forms = {
        (subset, linear_form_min(RealTuple(logs), subset, D).l)
        for subset in itertools.combinations(range(4), 2)
        for D in range(2, 11)
    }
    # one call per distinct (subset, l, bits), not one per subset and height
    assert len(swept) == len(set(swept)) == len(forms) < 6 * 9


def test_cli_runs_share_no_memo(tmp_path, monkeypatch, capsys):
    from genlab.cli import run

    calls = []
    log_parts = dioph._log_parts
    monkeypatch.setattr(
        dioph, "_log_parts", lambda *args: calls.append(1) or log_parts(*args)
    )
    path = tmp_path / "logs.tup"
    path.write_text("log(2)\nlog(3)\nlog(5)\nlog(7)\n")
    argv = ["gen", "--tuple", str(path), "--mu", "2", "--eta", "2.0", "--c", "0.045",
            "--D", "2..10"]
    counts = []
    for _ in range(2):
        calls.clear()
        assert run(argv) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] > 0


def test_midpoints_memoised_per_precision():
    theta = RealTuple(("log(2)", "sqrt(3)"))
    mids = theta.midpoints(128)
    assert mids is theta.midpoints(128)
    assert mids == (math.log(2), math.sqrt(3))
    assert all(type(x) is float for x in mids)

