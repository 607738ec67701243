"""Diophantine probes: minimal linear forms, genericity, and regularity.

The central primitive is linear_form_min: over nonzero integer vectors l
with max-norm at most D, minimize |l_1 θ_{i_1} + ... + l_mu θ_{i_mu}|.
Exhaustive mode screens the box in floats, then certifies the survivors
(the vectors within a slack of the least float value) with interval
arithmetic.  The screen meets in the middle: l splits into a head of
mu // 2 coordinates and a tail, each half box is enumerated once, and the
pairs near the least value |head + tail| are found by searching the sorted
tail values.  Those pairs are re-evaluated in the full-box summation order,
so the survivors are exactly those of a walk over the whole box: rounding
moves a value by far less than the slack.  A probe screens each subset once
per height sweep (_screen_sweep): the half boxes of the sweep's top height,
each half vector tagged with the first height whose box holds it, give
every height's survivors, each set the one a screen of that height's box
alone would keep.  The enumeration budget still counts the whole box,
(2D+1)^mu (_within_budget), and the sweep covers the heights within it.
Above it a lattice-reduction mode returns a certified upper-bound record
flagged approximate.  The probes aggregate these records over heights and
subsets with the existential subset quantifier (max over subsets of the min
over forms) and compare against thresholds -c*D^eta, all through one
pass / fail / undecided / escalate rule: an approximate record can fail a
height but never pass it.

A sweep meets the same forms again and again: the minimizer over a subset
usually stays put for several heights, and every height starts its
escalation at the tuple's precision, so it meets earlier heights' forms at
the same precisions.  So each screen is run once per tuple and each form
certified once per tuple and precision.  The tuple memoises its float
midpoints per precision (RealTuple.midpoints, the screen's input), each
sweep's screen keyed by the screened floats and the sweep's exhaustive
heights (an escalated precision whose midpoints round to the same floats
reuses it), and, keyed by (subset, l, bits), each form's signed enclosure,
its |.| bounds and its certified log pairs (_Form).  Every enclosure is
RealTuple.combination, exact when the entries the form uses are rational,
so an exact zero form certifies log 0; a subset of rational entries picks
its minimizer by exact values.  A record is the same deterministic function
of the same inputs either way, so outputs are byte-identical to screening
and certifying afresh.  The memo lives exactly as long as the tuple object,
which the CLI builds once per run: it is never module-level, so no run
reuses another's work.

Integer relations come from one relation lattice (_relation_rows: scaled
midpoints, knapsack basis, LLL).  A found relation is confirmed minimal by
the same box screen at its height: every plausible relation survives the
screen, so the first survivor in (max-norm, l) order that holds is the
minimal one.

Index subsets are 0-based throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

import numpy as np
from mpmath import libmp

from .errors import DEFAULT_BUDGET, InvalidConfig
from .numeric import (
    NEG_PAIR,
    NeedsBits,
    height_threshold,
    log_abs_interval,
    log_expm1_abs_interval,
    log_pair,
    make_ctx,
    run_escalating,
    straddles_zero,
)
from .reduction import knapsack_basis, lll_reduce
from .tuples import RealTuple

# a sweep whose window gathers more pairs than this many per tail vector
# (a half box of ceil(mu/2) coordinates at the top height) is split
SWEEP_PAIRS_PER_HALF_BOX = 4


@dataclass(frozen=True)
class LinearFormRecord:
    """The minimizing form over one index subset at one height."""

    subset: tuple[int, ...]
    l: tuple[int, ...]
    D: int
    log_value: tuple[float, float]  # enclosure of log|sum l_i theta_i|
    log_exp_value: tuple[float, float]  # enclosure of log|e^(sum) - 1|
    exact_value: Optional[Fraction] = None  # set when the value is proven rational
    approximate: bool = False  # lattice mode: upper bound, not certified min


def canonical_form(l: Sequence[int]) -> tuple[int, ...]:
    """Flip sign so the first nonzero coordinate is positive."""
    for x in l:
        if x != 0:
            return tuple(l) if x > 0 else tuple(-v for v in l)
    return tuple(l)


# ---------------------------------------------------------------------------
# candidate generation


def _decode(flat: int, mu: int, base: int, D: int) -> tuple[int, ...]:
    l = [0] * mu
    k = flat
    for pos in range(mu - 1, -1, -1):
        k, d = divmod(k, base)
        l[pos] = d - D
    return tuple(l)


def _half_box(terms, levels):
    """(values, levels) of every vector of a box, in flat-index order (first
    coordinate most significant), from each coordinate's terms l_i theta_i
    and levels over the digits l_i = -D..D.  A value is summed from the last
    coordinate to the first, and a vector's level is the largest of its
    coordinates'."""
    vals, level = np.zeros(1), np.zeros(1, dtype=np.int64)
    for term in reversed(terms):
        vals = np.add.outer(term, vals).ravel()
        level = np.maximum.outer(levels, level).ravel()
    return vals, level


def _least_value(head, ts, tail) -> float:
    """The least nonzero value |h + t| of a box from its head values, its
    sorted tail values ts and its tail values in flat order: each head's two
    neighbours of its negation in ts, and for the zero head (the centre of
    the head box) the least tail other than the zero tail (the centre of the
    tail box)."""
    at = np.searchsorted(ts, -head)
    lo, hi = np.maximum(at - 1, 0), np.minimum(at, len(ts) - 1)
    near = np.minimum(np.abs(head + ts[lo]), np.abs(head + ts[hi]))
    tail = np.abs(tail)
    tail[len(tail) // 2] = np.inf
    near[len(head) // 2] = tail.min()
    return float(near.min())


def _screen_sweep(
    theta_float: Sequence[float], heights: Sequence[int]
) -> dict[int, list[tuple[int, ...]]]:
    """Float screening of the height-D box for every D of a sweep (heights
    strictly increasing): the canonical vectors l whose value |l.theta| is
    within slack(D) of the least nonzero one, a set guaranteed to contain
    every true minimizer.

    Meet in the middle (Horowitz-Sahni): l splits into a head of mu // 2
    coordinates and a tail, the value of l is |head + tail|, and each half
    box is enumerated once, at the top height.  Each half vector carries its
    level, the first height whose box holds it, and a pair's level is the
    larger of its halves'.  The least value of the first box (a search for
    each head's nearest negation among its sorted tails) bounds every
    height's least value, so one window search over the sorted top tails
    gathers every pair any height needs, and a height's least value is a
    prefix minimum over the gathered pairs' levels.  Per height, the pairs of
    its box within its window and within 2*slack of its least value are
    re-evaluated in the full-box summation order (last coordinate first),
    and the survivors are those within slack of the least re-evaluated
    value.  Those are the float operations of a screen of that box alone,
    and rounding moves a value by far less than slack, so the survivors are
    those of a walk over the whole box.  The work is O(B^ceil(mu/2) log B)
    for B = 2 max(heights) + 1, and no array is sized by heights times a
    half box; callers still test the enumeration budget against the full
    box B^mu.  A sweep that starts far below its top height would gather
    most of the top box under the first box's window, so when the window
    holds more than SWEEP_PAIRS_PER_HALF_BOX pairs per top tail vector, the
    lower and the upper half of the heights are screened apart; each part
    is a sweep of its own, so every height keeps the same survivors.  A
    height at which an entry times mu*D is not a finite float is left out
    of the result: its box values may leave the float range."""
    mu = len(theta_float)
    theta = np.array(theta_float, dtype=float)
    # mu * D * max(1, max |theta_i|) bounds every |l.theta| of the height-D box
    bound = max(1.0, *map(abs, theta_float))
    heights = [D for D in heights if math.isfinite(mu * D * bound)]
    if not heights:
        return {}
    slack = mu * np.array(heights) * bound * 2.0**-46 + 1e-10
    top = heights[-1]
    base = 2 * top + 1

    h = mu // 2
    digits = np.arange(-top, top + 1)
    # a digit's level is the index of the first height whose box holds it
    digit_level = np.searchsorted(np.array(heights), np.abs(digits))
    terms = [digits * x for x in theta]
    (head, head_level), (tail, tail_level) = (
        _half_box(terms[lo:hi], digit_level) for lo, hi in ((0, h), (h, mu))
    )
    order = np.argsort(tail, kind="stable")
    ts = tail[order]

    # no height's window reaches beyond the first box's least value plus
    # twice the top height's slack
    if len(heights) == 1:  # the first box is the top box
        first_least = _least_value(head, ts, tail)
    else:
        first_least = _least_value(
            head[head_level == 0], ts[tail_level[order] == 0], tail[tail_level == 0]
        )
    reach = first_least + 2 * slack[-1]

    first = np.searchsorted(ts, -head - reach, side="left")
    counts = np.searchsorted(ts, -head + reach, side="right") - first
    if len(heights) > 1 and counts.sum() > SWEEP_PAIRS_PER_HALF_BOX * len(tail):
        # the first box's window gathers too much of the top box: screen the
        # lower and the upper heights apart, each under its own first box
        mid = len(heights) // 2
        return {
            **_screen_sweep(theta_float, heights[:mid]),
            **_screen_sweep(theta_float, heights[mid:]),
        }
    starts = np.cumsum(counts) - counts
    tails = order[np.repeat(first - starts, counts) + np.arange(int(counts.sum()))]
    heads = np.repeat(np.arange(len(head)), counts)
    # the zero vector of a half box is its centre: every digit equals top
    nonzero = (heads != (base**h - 1) // 2) | (tails != (base ** (mu - h) - 1) // 2)
    heads, tails = heads[nonzero], tails[nonzero]
    vals = np.abs(head[heads] + tail[tails])
    level = np.maximum(head_level[heads], tail_level[tails])

    # every height's least value (a running minimum over the pairs in level
    # order) and window, as a screen of its box computes them
    by_level = np.argsort(level, kind="stable")
    least = np.minimum.accumulate(vals[by_level])
    upto = np.searchsorted(level[by_level], np.arange(len(heights)), side="right") - 1
    window = least[upto] + 2 * slack
    # a pair can fall in the windows of the heights from its level up to the
    # last one whose window, or a later one's, reaches its value
    later = np.maximum.accumulate(window[::-1])[::-1]
    span = np.maximum(np.searchsorted(-later, -vals, side="right") - level, 0)
    pair = np.repeat(np.arange(len(vals)), span)
    k = level[pair] + np.arange(len(pair)) - np.repeat(np.cumsum(span) - span, span)
    w, hv, tv = window[k], head[heads[pair]], tail[tails[pair]]
    held = (vals[pair] <= w) & (tv >= -hv - w) & (tv <= -hv + w)
    heads, tails, k = heads[pair[held]], tails[pair[held]], k[held]

    # the full-box order sums the tail first, then the head coordinates
    full, rem = tail[tails], heads
    for pos in range(h - 1, -1, -1):
        rem, dig = np.divmod(rem, base)
        full += (dig - top) * theta[pos]
    full = np.abs(full)
    # each height's least re-evaluated value leads its run in (height, value) order
    by_height = np.lexsort((full, k))
    low = full[by_height][np.searchsorted(k[by_height], np.arange(len(heights)))]
    keep = full <= low[k] + slack[k]

    forms: dict[int, tuple[int, ...]] = {}
    survivors = [set() for _ in heights]
    flat = heads * len(tail) + tails
    for kk, f in zip(k[keep].tolist(), flat[keep].tolist()):
        l = forms.get(f)
        if l is None:
            l = forms[f] = canonical_form(_decode(f, mu, base, top))
        survivors[kk].add(l)
    return {D: sorted(s) for D, s in zip(heights, survivors)}


def _screen_box(theta_float: Sequence[float], D: int) -> Optional[list[tuple[int, ...]]]:
    """The screen of the single height-D box (_screen_sweep); None when an
    entry is too large for it."""
    return _screen_sweep(theta_float, (D,)).get(D)


def _scaled_mid(x, shift: int, prec: int) -> int:
    """The midpoint of the interval pair x at prec bits times 2^shift,
    rounded to the nearest integer."""
    return libmp.to_int(libmp.mpf_shift(libmp.mpi_mid(x, prec), shift), libmp.round_nearest)


def _relation_rows(entries, bits: int, bound: int) -> list[tuple[int, ...]]:
    """Canonical nonzero coefficient parts, max-norm <= bound, of the
    LLL-reduced relation lattice of the real enclosures (midpoints scaled by
    2^(bits/2))."""
    n = len(entries)
    scaled = [_scaled_mid(x, bits // 2, bits) for x in entries]
    rows = (canonical_form(row[:n]) for row in lll_reduce(knapsack_basis(scaled)))
    return [l for l in rows if any(l) and max(abs(x) for x in l) <= bound]


def _lattice_candidates(
    theta: RealTuple, subset: Sequence[int], D: int, bits: int
) -> list[tuple[int, ...]]:
    """Reduced relation-lattice rows that fit the height box, plus the unit
    vectors (which always fit and guarantee a nonempty candidate set)."""
    _, encl = theta.real_enclosures(bits)
    units = [tuple(int(i == j) for i in range(len(subset))) for j in range(len(subset))]
    return sorted({*_relation_rows([encl[i] for i in subset], bits, D), *units})


# ---------------------------------------------------------------------------
# certified selection


def _log_parts(ctx, value):
    """(log_value pair, log_exp pair) for a signed enclosure; NeedsBits on
    straddles or over-wide results."""
    lv = log_abs_interval(ctx, value)
    le = log_expm1_abs_interval(ctx, value)
    if lv is None or le is None:
        return NEG_PAIR, NEG_PAIR
    return log_pair(ctx, lv), log_pair(ctx, le)


class _Form:
    """One linear form over one subset at one precision: its signed
    enclosure, the endpoints of its |.| and, once certified, its
    (log_value, log_exp) pairs.  Memoised on the tuple."""

    __slots__ = ("signed", "low", "high", "logs")

    def __init__(self, signed, prec: int):
        self.signed = signed
        self.low, self.high = libmp.mpi_abs(signed, prec)
        self.logs = None

    def log_parts(self, ctx):
        if self.logs is None:
            self.logs = _log_parts(ctx, self.signed)
        return self.logs


def _form(theta: RealTuple, subset, l, bits: int) -> _Form:
    """The memoised form (subset, l) of theta at bits."""
    key = (subset, l, bits)
    form = theta._forms.get(key)
    if form is None:
        form = theta._forms[key] = _Form(theta.combination(tuple(zip(l, subset)), bits), bits)
    return form


def _screened(theta: RealTuple, theta_float: tuple[float, ...], heights: tuple[int, ...]):
    """The memoised _screen_sweep of theta_float over heights.  The screen
    reads nothing but its floats and heights, so an escalated precision
    whose midpoints round to the same floats reuses it."""
    key = (theta_float, heights)
    screened = theta._screens.get(key)
    if screened is None:
        screened = theta._screens[key] = _screen_sweep(theta_float, heights)
    return screened


def _min_record(
    theta: RealTuple,
    subset: tuple[int, ...],
    D: int,
    *,
    bits_floor: int,
    budget: int,
    heights: tuple[int, ...],
) -> LinearFormRecord:
    """The record of subset at height D.  heights are the exhaustive heights
    of the sweep D belongs to (D alone outside a sweep); an exhaustive D is
    one of them, and its candidates come from the sweep's screen."""
    exhaustive = _within_budget(D, len(subset), budget)
    screen_bits = max(128, bits_floor)
    if exhaustive:
        mids = theta.midpoints(screen_bits)
        screened = _screened(theta, tuple(mids[i] for i in subset), heights)
        if D not in screened:
            raise InvalidConfig(f"a tuple entry is too large for the float box screen at D = {D}")
        candidates = screened[D]
    else:
        candidates = _lattice_candidates(theta, subset, D, screen_bits)

    q = None  # the exact least |value|, when every entry of the subset is rational
    if theta.exact_combination([(1, i) for i in subset]) is not None:
        q, best_l = min((abs(theta.exact_combination(zip(l, subset))), l) for l in candidates)
        candidates = [best_l]
    tie_cap = 4 * screen_bits

    def compute(bits: int) -> LinearFormRecord:
        forms = [(_form(theta, subset, l, bits), l) for l in candidates]
        contenders = forms  # a lone survivor is the minimizer
        if len(forms) > 1:
            min_upper = forms[0][0].high
            for f, _ in forms[1:]:
                if libmp.mpf_lt(f.high, min_upper):
                    min_upper = f.high
            contenders = [(f, l) for f, l in forms if libmp.mpf_le(f.low, min_upper)]
            if len(contenders) > 1 and bits < tie_cap:
                raise NeedsBits
        form, best_l = min(contenders, key=lambda t: t[1])
        log_value, log_exp = form.log_parts(make_ctx(bits))
        return LinearFormRecord(subset, best_l, D, log_value, log_exp, q, not exhaustive)

    return run_escalating(compute, bits_floor)


def linear_form_min(
    theta: RealTuple,
    subset: Sequence[int],
    D: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> LinearFormRecord:
    """Minimize |sum_i l_i theta_{subset[i]}| over nonzero l, max-norm <= D,
    starting at the tuple's precision.

    Ties after sign canonicalization (first nonzero coordinate positive)
    resolve to the lexicographically smallest vector.  Above the
    enumeration budget the result is a lattice-reduction upper bound,
    flagged approximate.
    """
    subset = tuple(subset)
    if not subset or len(set(subset)) != len(subset) or list(subset) != sorted(subset):
        raise InvalidConfig("subset must be a nonempty strictly increasing index list")
    if any(i < 0 or i >= len(theta) for i in subset):
        raise InvalidConfig("subset index out of range")
    if D < 1:
        raise InvalidConfig("height bound D must be >= 1")
    return _min_record(
        theta, subset, D, bits_floor=theta.precision_bits, budget=budget, heights=(D,)
    )


# ---------------------------------------------------------------------------
# genericity over subsets and heights


@dataclass(frozen=True)
class HeightVerdict:
    D: int
    record: LinearFormRecord
    threshold: float
    passed: Optional[bool]  # None: undecided (_verdict)
    c_required: float


@dataclass(frozen=True)
class GenericityReport:
    eta: float
    mu: int
    c: float
    verdicts: tuple[HeightVerdict, ...]
    overall: str  # "generic-up-to-budget" | "special-witnesses" | "undecided"
    c_required_max: float
    approximate: bool


def _verdict(
    log_exp: tuple[float, float], thr: float, scale: float, approximate: bool
) -> tuple[Optional[bool], float]:
    """(passed, c_required) of log|e^s - 1| against thr = -c*scale;
    NeedsBits while the enclosure straddles the threshold.  An approximate
    (lattice-mode) record is a form in the box, so its value bounds the
    minimum from above: it certifies FAIL, never PASS, and where it would
    pass, passed is None (undecided)."""
    lo, hi = log_exp
    if lo >= thr:
        passed = None if approximate else True
    elif hi < thr:
        passed = False
    else:
        raise NeedsBits
    return passed, max(0.0, -lo) / scale


def _overall(verdicts) -> str:
    passed = [v.passed for v in verdicts]
    if False in passed:
        return "special-witnesses"
    return "undecided" if None in passed else "generic-up-to-budget"


def _better(a: LinearFormRecord, b: LinearFormRecord) -> bool:
    """Certainly a's minimal value exceeds b's (compares log enclosures)."""
    return a.log_value[0] > b.log_value[1]


def _within_budget(D: int, mu: int, budget: int) -> bool:
    """Whether the height-D box of mu coordinates is within the enumeration
    budget; every budget test reads it."""
    return (2 * D + 1) ** mu <= budget


def _exhaustive_heights(heights: Sequence[int], mu: int, budget: int) -> tuple[int, ...]:
    """The heights whose box of mu coordinates is within the budget; the
    sweep screen covers them, and the heights above take the lattice path."""
    return tuple(D for D in heights if _within_budget(D, mu, budget))


def _best_subset_record(
    theta: RealTuple, mu: int, D: int, *, bits_floor: int, budget: int, heights: tuple[int, ...]
) -> LinearFormRecord:
    best = None
    for subset in itertools.combinations(range(len(theta)), mu):
        rec = _min_record(
            theta, subset, D, bits_floor=bits_floor, budget=budget, heights=heights
        )
        if best is None or _better(rec, best):
            best = rec  # overlap keeps the earlier (lex smaller) subset
    return best


def _validate_probe_args(theta, mu, eta, c, D_set):
    if not 1 <= mu <= len(theta):
        raise InvalidConfig(f"mu must be in [1, {len(theta)}]")
    if eta < 1:
        raise InvalidConfig("eta must be >= 1")
    if c <= 0:
        raise InvalidConfig("c must be positive")
    ds = sorted(set(int(d) for d in D_set))
    if not ds:
        raise InvalidConfig("empty height set")
    if ds[0] < 1:
        raise InvalidConfig("heights must be >= 1")
    return ds


def genericity_probe(
    theta: RealTuple,
    mu: int,
    eta: float,
    c: float,
    D_set: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> GenericityReport:
    """For each height D, find the subset of size mu maximizing the minimal
    form value, and test log|e^(form) - 1| >= -c*D^eta."""
    ds = _validate_probe_args(theta, mu, eta, c, D_set)
    thresholds = [height_threshold(c, eta, D) for D in ds]
    sweep = _exhaustive_heights(ds, mu, budget)
    verdicts = []
    for D, (scale, thr) in zip(ds, thresholds):
        def per_height(bits: int, D=D, thr=thr, scale=scale) -> HeightVerdict:
            rec = _best_subset_record(
                theta, mu, D, bits_floor=bits, budget=budget, heights=sweep
            )
            return HeightVerdict(
                D, rec, thr, *_verdict(rec.log_exp_value, thr, scale, rec.approximate)
            )

        verdicts.append(run_escalating(per_height, theta.precision_bits))
    return GenericityReport(
        eta=eta,
        mu=mu,
        c=c,
        verdicts=tuple(verdicts),
        overall=_overall(verdicts),
        c_required_max=max(v.c_required for v in verdicts),
        approximate=any(v.record.approximate for v in verdicts),
    )


# ---------------------------------------------------------------------------
# bituples


@dataclass(frozen=True)
class BitupleVerdict:
    L: int
    R: int
    subset_theta: tuple[int, ...]
    subset_kappa: tuple[int, ...]
    l: tuple[int, ...]
    r: tuple[int, ...]
    log_value: tuple[float, float]
    log_exp_value: tuple[float, float]
    threshold: float
    approximate: bool  # either side's record is approximate
    passed: Optional[bool]
    c_required: float


@dataclass(frozen=True)
class BitupleReport:
    eta: float
    mu: int
    nu: int
    c: float
    verdicts: tuple[BitupleVerdict, ...]
    overall: str
    c_required_max: float
    approximate: bool


def _abs_product_interval(theta, rec_l, kappa, rec_r, bits):
    st = theta.combination(tuple(zip(rec_l.l, rec_l.subset)), bits)
    sk = kappa.combination(tuple(zip(rec_r.l, rec_r.subset)), bits)
    return libmp.mpi_mul(libmp.mpi_abs(st, bits), libmp.mpi_abs(sk, bits), bits)


def bituple_probe(
    theta: RealTuple,
    kappa: RealTuple,
    mu: int,
    nu: int,
    eta: float,
    c: float,
    L_set: Sequence[int],
    R_set: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> BitupleReport:
    """Product forms (sum l theta)(sum r kappa) against -c(L^eta + R^eta).

    The minimum of |product| over pairs factors exactly into
    (min over l)(min over r), so the sides are searched separately.
    The verdict evaluates log|e^s - 1| at the least favourable sign of
    the product (s = -|product|), so a pass covers every signed pair.
    """
    ls = _validate_probe_args(theta, mu, eta, c, L_set)
    rs = _validate_probe_args(kappa, nu, eta, c, R_set)
    thresholds = {(L, R): height_threshold(c, eta, L, R) for L in ls for R in rs}

    def best_records(t: RealTuple, k: int, heights) -> dict[int, LinearFormRecord]:
        sweep = _exhaustive_heights(heights, k, budget)
        return {
            H: run_escalating(
                lambda bits, H=H: _best_subset_record(
                    t, k, H, bits_floor=bits, budget=budget, heights=sweep
                ),
                t.precision_bits,
            )
            for H in heights
        }

    theta_best = best_records(theta, mu, ls)
    kappa_best = best_records(kappa, nu, rs)
    verdicts = []
    base_bits = max(theta.precision_bits, kappa.precision_bits)
    for (L, R), (scale, thr) in thresholds.items():
        pair = partial(_bituple_pair, theta, kappa, theta_best[L], kappa_best[R], scale, thr)
        verdicts.append(run_escalating(pair, base_bits))
    return BitupleReport(
        eta=eta, mu=mu, nu=nu, c=c, verdicts=tuple(verdicts), overall=_overall(verdicts),
        c_required_max=max(v.c_required for v in verdicts),
        approximate=any(r.approximate for r in [*theta_best.values(), *kappa_best.values()]),
    )


def _bituple_pair(theta, kappa, rec_l, rec_r, scale, thr, bits: int) -> BitupleVerdict:
    """One (L, R) pair from the minimal records of each side; approximate
    when either record is, under _verdict's rule."""
    if NEG_PAIR in (rec_l.log_value, rec_r.log_value):
        log_value = log_exp = NEG_PAIR
    else:
        log_value = (
            rec_l.log_value[0] + rec_r.log_value[0],
            rec_l.log_value[1] + rec_r.log_value[1],
        )
        ctx = make_ctx(bits)
        t = _abs_product_interval(theta, rec_l, kappa, rec_r, bits)
        log_exp = log_pair(ctx, log_expm1_abs_interval(ctx, libmp.mpi_neg(t, bits)))
    approximate = rec_l.approximate or rec_r.approximate
    return BitupleVerdict(
        rec_l.D, rec_r.D, rec_l.subset, rec_r.subset, rec_l.l, rec_r.l,
        log_value, log_exp, thr, approximate, *_verdict(log_exp, thr, scale, approximate),
    )


# ---------------------------------------------------------------------------
# integer-relation detection


@dataclass(frozen=True)
class RegularityResult:
    status: str  # "relation_found" | "no_relation_found"
    relation: Optional[tuple[int, ...]]
    height_bound: int
    precision_bits: int
    verified_exact: bool  # relation proven by exact rational arithmetic
    minimal: Optional[bool]  # smallest max-norm confirmed by enumeration


def regularity_probe(
    theta: RealTuple,
    height_bound: int = 10**6,
    *,
    budget: int = DEFAULT_BUDGET,
) -> RegularityResult:
    """Hunt for an integer relation among the entries.

    The search runs at the tuple's precision, at least 128 bits.  A found
    relation is verified: its enclosure (RealTuple.combination) straddles
    zero at that precision, and it is verified exactly when every entry it
    uses is rational.  The box screen confirms it minimal when the
    box is within the budget and every entry is within the screen's float
    range; otherwise minimal is None.  Absence of a relation is only a
    no-witness-up-to-budget verdict, never a regularity claim.
    """
    if height_bound < 1:
        raise InvalidConfig("height_bound must be >= 1")
    bits = max(128, theta.precision_bits)

    _, entries = theta.real_enclosures(bits)

    def first_holding(vectors):
        """(l, exact) for the first plausible relation in (max-norm, l) order."""
        for l in sorted(vectors, key=lambda l: (max(abs(x) for x in l), l)):
            terms = tuple(zip(l, range(len(l))))
            if straddles_zero(theta.combination(terms, bits)):
                return l, theta.exact_combination(terms) == 0
        return None

    found = first_holding(_relation_rows(entries, bits, height_bound))
    if found is None:
        return RegularityResult("no_relation_found", None, height_bound, bits, False, None)
    h0 = max(abs(x) for x in found[0])
    minimal = None
    if _within_budget(h0, len(entries), budget):
        mids = theta.midpoints(bits)
        # an entry beyond the screen's float range leaves the relation
        # unconfirmed, as a box over the budget does
        screened = _screen_box(mids, h0)
        if screened is not None:
            # a plausible relation's value lies within its enclosure's width
            # of zero, far inside the screen's slack, so every one survives
            found = first_holding(screened)
            minimal = True
    l0, exact0 = found
    return RegularityResult("relation_found", l0, height_bound, bits, exact0, minimal)
