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
moves a value by far less than the slack.  A probe screens once per height
sweep, every subset at once (_screen_sweep): the half boxes of the sweep's
top height, each half vector tagged with the first height whose box holds
it, give every height's survivors, each set the one a screen of that
height's box alone would keep, and the subsets' rows share every numpy
call but the sorted searches, which go row by row.  The enumeration budget
still counts the whole box, (2D+1)^mu (_within_budget), and the sweep
covers the heights within it.  Above it a lattice-reduction mode returns a
certified upper-bound record flagged approximate.  The probes aggregate
these records over heights and subsets with the existential subset
quantifier (max over subsets of the min over forms) and compare against
thresholds -c*D^eta, all through one pass / fail / undecided / escalate
rule: an approximate record can fail a height but never pass it.  Both
probes read log|e^s - 1| at the least favourable sign, s = -|l.theta| for
gen and s = -|product| for bigen: the box holds -l beside l, so that is the
minimum over the box, and a failed height is never passed above it.

Logs are certified only where they are read.  Each subset's minimizer is
picked on the certified |.| bounds of its candidate forms (_Choice), and
the subsets at a height are compared on those bounds where they stand a
relative 2^-30 apart, which orders their certified logs the same way
(_beats); only nearer subsets are compared on their certified log floats,
each record escalating its own precision as linear_form_min does, so every
choice and tie is that of comparing certified logs.  So gen certifies
log|l.theta| and log|e^(l.theta) - 1| for the record each height reports,
and bigen certifies log|l.theta| for each side's reported record and
log|e^s - 1| for each (L, R) product.  A subset that loses by its bounds is
never certified: one holding a form that is zero without being exactly
zero does not exhaust the precision when another subset wins.

A sweep meets the same forms again and again: the minimizer over a subset
usually stays put for several heights, and every height starts its
escalation at the tuple's precision, so it meets earlier heights' forms at
the same precisions.  So each sweep is screened once per tuple, each
subset's choice made once per candidate set and precision floor, and each
form certified once per tuple and precision.  The tuple memoises its float
midpoints per precision (RealTuple.midpoints, the screen's input), each
sweep's screen keyed by every subset's screened floats and the sweep's
exhaustive heights (an escalated precision whose midpoints round to the
same floats reuses it), each choice keyed by (subset, candidates, floor,
approximate), so a subset whose survivors match the previous height's
reuses its record with the new D, and, keyed by (subset, l, bits), each
form's signed enclosure, its |.| bounds and its certified log pairs
(_Form).  Every enclosure is RealTuple.combination, exact when the entries
the form uses are rational, so an exact zero form certifies log 0; a subset
of rational entries picks its minimizer by exact values.  A record is the
same deterministic function of the same inputs either way, so outputs are
byte-identical to screening and certifying afresh.  The memo lives exactly
as long as the tuple object, which the CLI builds once per run: it is never
module-level, so no run reuses another's work.

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
    # enclosure of log(1 - e^-|sum|), the least of log|e^(+-sum) - 1|; None
    # where it is not certified (the records of a bituple's sides)
    log_exp_value: Optional[tuple[float, float]]
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
    """(values, levels) of every vector of a box, for each row of the 3-D
    terms (row, coordinate, digit): the values of a row in flat-index order
    (first coordinate most significant), from each coordinate's terms
    l_i theta_i and the levels over the digits l_i = -D..D.  A value is
    summed from the last coordinate to the first, and a vector's level is
    the largest of its coordinates'."""
    vals, level = np.zeros((len(terms), 1)), np.zeros(1, dtype=np.int64)
    for pos in range(terms.shape[1] - 1, -1, -1):
        vals = (terms[:, pos, :, None] + vals[:, None, :]).reshape(len(terms), -1)
        level = np.maximum.outer(levels, level).ravel()
    return vals, level


def _search_rows(a, v, cut, side: str = "left"):
    """np.searchsorted(a[r], v[cut[r]:cut[r + 1]], side) for every row r of
    the 2-D a, each row ascending, concatenated: one search per row over
    its run of the flat queries v."""
    if len(a) == 1:  # the one row's run is all of v
        return np.searchsorted(a[0], v, side)
    return np.concatenate(
        [np.searchsorted(row, v[lo:hi], side) for row, lo, hi in zip(a, cut, cut[1:])]
    )


def _least_value(head, ts, tail):
    """Each row's least nonzero value |h + t| of a box from its head values,
    its sorted tail values ts and its tail values in flat order: each head's
    two neighbours of its negation in ts, and for the zero head (the centre
    of the head box) the least tail other than the zero tail (the centre of
    the tail box)."""
    k, n = ts.shape
    at = _search_rows(ts, -head.ravel(), range(0, head.size + 1, head.shape[1]))
    at = at.reshape(head.shape)
    start, flat = np.arange(0, ts.size, n)[:, None], ts.ravel()
    near = np.minimum(
        np.abs(head + flat[np.maximum(at - 1, 0) + start]),
        np.abs(head + flat[np.minimum(at, n - 1) + start]),
    )
    tail = np.abs(tail)
    tail[:, n // 2] = np.inf
    near[:, head.shape[1] // 2] = tail.min(axis=1)
    return near.min(axis=1)


def _screen_sweep(
    rows: Sequence[Sequence[float]], heights: Sequence[int]
) -> list[dict[int, list[tuple[int, ...]]]]:
    """Float screening of the height-D box for every D of a sweep (heights
    strictly increasing) and every row of floats (one per subset, all of
    one length mu): per row, the canonical vectors l whose value |l.theta|
    is within slack(D) of the least nonzero one, a set guaranteed to
    contain every true minimizer.  A height at which an entry of a row
    times mu*D is not a finite float is left out of that row's result: its
    box values may leave the float range.  The rows that keep the same
    heights are screened together (_screen_rows)."""
    mu = len(rows[0])
    # mu * D * max(1, max |theta_i|) bounds every |l.theta| of the height-D box
    bound = [max(1.0, *map(abs, row)) for row in rows]
    usable = [sum(math.isfinite(mu * D * b) for D in heights) for b in bound]
    result = [{} for _ in rows]
    for n in set(usable) - {0}:
        picked = [r for r, u in enumerate(usable) if u == n]
        screened = _screen_rows(
            np.array([rows[r] for r in picked], dtype=float),
            np.array([bound[r] for r in picked]),
            list(heights[:n]),
        )
        for r, s in zip(picked, screened):
            result[r] = s
    return result


def _screen_rows(theta, bound, heights: list[int]) -> list[dict[int, list[tuple[int, ...]]]]:
    """_screen_sweep of the rows of theta, bound their max(1, max |theta_i|),
    over heights at which every box value is a finite float.

    Meet in the middle (Horowitz-Sahni): l splits into a head of mu // 2
    coordinates and a tail, the value of l is |head + tail|, and each half
    box is enumerated once, at the top height.  Each half vector carries its
    level, the first height whose box holds it, and a pair's level is the
    larger of its halves'.  The least value of the first box (a search for
    each head's nearest negation among its sorted tails) bounds every
    height's least value, so one window search over the sorted top tails
    gathers every pair any height needs, and a height's least value is a
    running minimum over the gathered pairs' levels.  Per height, the pairs
    of its box within its window and within 2*slack of its least value are
    re-evaluated in the full-box summation order (last coordinate first),
    and the survivors are those within slack of the least re-evaluated
    value.  Those are the float operations of a screen of that box alone,
    and rounding moves a value by far less than slack, so the survivors are
    those of a walk over the whole box.

    Every step runs on all k rows at once: the half boxes are row-major
    arrays, the gathered pairs of all rows share flat arrays ordered by row,
    and only the sorted searches go row by row.  The work is
    O(k B^ceil(mu/2) log B) for B = 2 max(heights) + 1, and no array is
    sized by heights times a half box; callers still test the enumeration
    budget against the full box B^mu.  A sweep that starts far below its
    top height would gather most of the top box under the first box's
    window, so a row whose window holds more than SWEEP_PAIRS_PER_HALF_BOX
    pairs per top tail vector has the lower and the upper half of its
    heights screened apart; each part is a sweep of its own, so every
    height keeps the same survivors."""
    k, mu = theta.shape
    n = len(heights)
    slack = mu * np.array(heights) * bound[:, None] * 2.0**-46 + 1e-10
    top = heights[-1]
    base = 2 * top + 1

    h = mu // 2
    digits = np.arange(-top, top + 1)
    # a digit's level is the index of the first height whose box holds it
    digit_level = np.searchsorted(np.array(heights), np.abs(digits))
    terms = theta[:, :, None] * digits
    (head, head_level), (tail, tail_level) = (
        _half_box(terms[:, lo:hi], digit_level) for lo, hi in ((0, h), (h, mu))
    )
    H, T = head.shape[1], tail.shape[1]
    order = np.argsort(tail, axis=1, kind="stable")
    ts = tail.ravel()[order + np.arange(0, k * T, T)[:, None]]

    # no height's window reaches beyond the first box's least value plus
    # twice the top height's slack
    if n == 1:  # the first box is the top box
        first_least = _least_value(head, ts, tail)
    else:
        first_least = _least_value(
            head[:, head_level == 0],
            ts[tail_level[order] == 0].reshape(k, -1),
            tail[:, tail_level == 0],
        )
    reach = (first_least + 2 * slack[:, -1])[:, None]
    cut = range(0, k * H + 1, H)
    first = _search_rows(ts, (-head - reach).ravel(), cut, "left").reshape(k, H)
    counts = _search_rows(ts, (-head + reach).ravel(), cut, "right").reshape(k, H) - first

    result = [None] * k
    if n > 1:
        split = counts.sum(axis=1) > SWEEP_PAIRS_PER_HALF_BOX * T
        if split.any():
            # the first box's window gathers too much of the top box: screen
            # the lower and the upper heights of those rows apart, each under
            # its own first box
            mid = n // 2
            picked = (theta[split], bound[split])
            parts = zip(
                _screen_rows(*picked, heights[:mid]), _screen_rows(*picked, heights[mid:])
            )
            for r, (lower, upper) in zip(np.flatnonzero(split).tolist(), parts):
                result[r] = {**lower, **upper}
            rest = ~split
            if not rest.any():
                return result
            theta, head, tail, order, first, counts, slack = (
                x[rest] for x in (theta, head, tail, order, first, counts, slack)
            )
            k = len(theta)

    # the gathered pairs of every row in row order, as flat indices into the
    # row-major half boxes (hidx, tidx), with their row and their head and
    # tail within it
    offsets = np.arange(0, k * T, T)[:, None]
    per_head = counts.ravel()
    starts = np.cumsum(per_head) - per_head
    at = np.repeat((first + offsets).ravel() - starts, per_head)
    tidx = (order + offsets).ravel()[at + np.arange(len(at))]
    hidx = np.repeat(np.arange(k * H), per_head)
    row, heads = np.divmod(hidx, H)
    tails = tidx % T
    head, tail = head.ravel(), tail.ravel()
    vals = np.abs(head[hidx] + tail[tidx])
    # the zero vector of a half box is its centre, every digit equal to top:
    # the zero pair takes the value inf, so no height's least value or
    # window holds it
    vals[(heads == (base**h - 1) // 2) & (tails == (base ** (mu - h) - 1) // 2)] = np.inf
    level = np.maximum(head_level[heads], tail_level[tails])

    # every height's least value (a running minimum over the levels) and
    # window, as a screen of its box computes them; a (row, height) table is
    # read at the flat cell row * n + height
    cell = row * n + level
    least = np.full(k * n, np.inf)
    np.minimum.at(least, cell, vals)
    window = np.minimum.accumulate(least.reshape(k, n), axis=1) + 2 * slack
    # a pair can fall in the windows of the heights from its level up to the
    # last one whose window, or a later one's, reaches its value
    later = np.maximum.accumulate(window[:, ::-1], axis=1)[:, ::-1]
    by_row = np.searchsorted(row, np.arange(k + 1)).tolist()
    span = np.maximum(_search_rows(-later, -vals, by_row, "right") - level, 0)
    pair = np.repeat(np.arange(len(vals)), span)
    cell = cell[pair] + np.arange(len(pair)) - np.repeat(np.cumsum(span) - span, span)
    w, hv, tv = window.ravel()[cell], head[hidx[pair]], tail[tidx[pair]]
    held = (vals[pair] <= w) & (tv >= -hv - w) & (tv <= -hv + w)
    pair, cell, full = pair[held], cell[held], tv[held]
    row, heads, tails = row[pair], heads[pair], tails[pair]

    # the full-box order sums the tail first, then the head coordinates
    rem = heads
    for pos in range(h - 1, -1, -1):
        rem, dig = np.divmod(rem, base)
        full += (dig - top) * theta[:, pos][row]
    full = np.abs(full)
    low = np.full(k * n, np.inf)
    np.minimum.at(low, cell, full)
    keep = full <= low[cell] + slack.ravel()[cell]

    forms: dict[int, tuple[int, ...]] = {}
    survivors = [set() for _ in range(k * n)]
    flat = heads * T + tails
    for c, f in zip(cell[keep].tolist(), flat[keep].tolist()):
        l = forms.get(f)
        if l is None:
            l = forms[f] = canonical_form(_decode(f, mu, base, top))
        survivors[c].add(l)
    screened = iter(range(0, k * n, n))
    return [
        done if done is not None else
        {D: sorted(s) for D, s in zip(heights, survivors[next(screened):])}
        for done in result
    ]


def _screen_box(theta_float: Sequence[float], D: int) -> Optional[list[tuple[int, ...]]]:
    """The screen of the single height-D box of one row (_screen_sweep);
    None when an entry is too large for it."""
    return _screen_sweep([theta_float], (D,))[0].get(D)


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

# 1 + 2^-30: |.| bounds this far apart order the certified logs (_beats)
_APART = libmp.from_man_exp((1 << 30) + 1, -30)
# the binary exponents within which a float log|.| is exact to 2^-33
_LOG_RANGE = 1 << 19


class _Form:
    """One linear form over one subset at one precision: its signed
    enclosure, the endpoints of its |.| and, once certified, the float pairs
    of log|.| (log_value) and of log|e^. - 1| at the least favourable sign,
    log(1 - e^-|.|) (log_exp), each certified on first use; NeedsBits on
    straddles or over-wide results.  Memoised on the tuple.

    The box holds -l beside l, and 1 - e^-s < e^s - 1 for s > 0, so the
    least favourable sign gives the minimum of |e^(l.theta) - 1| over the
    pair, and the record's log_exp is that minimum over the box: it only
    falls with the height, and a pass covers every signed form (the rule
    of _bituple_pair)."""

    __slots__ = ("signed", "low", "high", "_log_value", "_log_exp")

    def __init__(self, signed, prec: int):
        self.signed = signed
        self.low, self.high = libmp.mpi_abs(signed, prec)
        self._log_value = self._log_exp = None

    def log_value(self, ctx):
        if self._log_value is None:
            self._log_value = log_pair(ctx, log_abs_interval(ctx, self.signed))
        return self._log_value

    def log_exp(self, ctx):
        if self._log_exp is None:
            least = libmp.mpi_neg((self.low, self.high))
            self._log_exp = log_pair(ctx, log_expm1_abs_interval(ctx, least))
        return self._log_exp


def _form(theta: RealTuple, subset, l, bits: int) -> _Form:
    """The memoised form (subset, l) of theta at bits."""
    key = (subset, l, bits)
    form = theta._forms.get(key)
    if form is None:
        form = theta._forms[key] = _Form(theta.combination(tuple(zip(l, subset)), bits), bits)
    return form


def _screened(theta: RealTuple, subsets, heights: tuple[int, ...], bits: int):
    """The memoised _screen_sweep of every subset's float row at bits over
    heights.  The screen reads nothing but its floats and heights, so an
    escalated precision whose midpoints round to the same floats reuses it."""
    mids = theta.midpoints(bits)
    key = (tuple(tuple(mids[i] for i in subset) for subset in subsets), heights)
    screened = theta._screens.get(key)
    if screened is None:
        screened = theta._screens[key] = _screen_sweep(key[0], heights)
    return screened


class _Choice:
    """The minimizing form of one subset among one candidate set, picked
    from one precision floor on the certified |.| bounds alone (select,
    escalating from the floor while candidates tie).  Its logs are
    certified on demand by the same escalation from the precision of the
    pick up, so its record is the one linear_form_min returns.  Memoised on
    the tuple by (subset, candidates, floor, approximate): a subset whose
    survivors stay put from one height to the next reuses its choice."""

    __slots__ = (
        "subset", "candidates", "floor", "approximate", "exact_value", "tie_cap",
        "bits", "form", "l", "bounds", "logs",
    )

    def __init__(self, theta: RealTuple, subset, candidates, floor: int, approximate: bool):
        self.subset, self.floor, self.approximate = subset, floor, approximate
        self.exact_value = None  # the exact least |value|, when every entry is rational
        if theta.exact_combination([(1, i) for i in subset]) is not None:
            self.exact_value, best_l = min(
                (abs(theta.exact_combination(zip(l, subset))), l) for l in candidates
            )
            candidates = [best_l]
        self.candidates, self.tie_cap = candidates, 4 * max(128, floor)
        self.bits, self.form, self.l = run_escalating(
            lambda bits: (bits, *self.select(theta, bits)), floor
        )
        # (low, high * (1 + 2^-30)) of the picked form's |.|, which _beats
        # compares; None outside binary exponents of +-_LOG_RANGE
        low, high = self.form.low, self.form.high
        self.bounds = None
        if all(abs(v[2] + v[3]) < _LOG_RANGE for v in (low, high)):
            self.bounds = low, libmp.mpf_mul(high, _APART)
        self.logs = {}

    def select(self, theta: RealTuple, bits: int):
        """(form, l) of the least l among the candidate forms whose |.| may
        be least at bits (the contenders); NeedsBits while more than one
        contends below tie_cap bits."""
        forms = [(_form(theta, self.subset, l, bits), l) for l in self.candidates]
        contenders = forms  # a lone survivor is the minimizer
        if len(forms) > 1:
            min_upper = forms[0][0].high
            for f, _ in forms[1:]:
                if libmp.mpf_lt(f.high, min_upper):
                    min_upper = f.high
            contenders = [(f, l) for f, l in forms if libmp.mpf_le(f.low, min_upper)]
            if len(contenders) > 1 and bits < self.tie_cap:
                raise NeedsBits
        return min(contenders, key=lambda t: t[1])

    def certified(self, theta: RealTuple, exp: bool = True):
        """(l, log_value, log_exp) of the minimizer, the logs certified from
        the precision of the pick up, each attempt picking afresh; with exp
        false only log_value is certified and log_exp is None."""
        logs = self.logs.get(exp)
        if logs is None:

            def certify(bits: int):
                form, l = (self.form, self.l) if bits == self.bits else self.select(theta, bits)
                ctx = make_ctx(bits)
                return l, form.log_value(ctx), form.log_exp(ctx) if exp else None

            logs = self.logs[exp] = run_escalating(certify, self.bits)
        return logs

    def record(self, theta: RealTuple, D: int, exp: bool = True) -> LinearFormRecord:
        """The record at height D (certified)."""
        l, log_value, log_exp = self.certified(theta, exp)
        return LinearFormRecord(
            self.subset, l, D, log_value, log_exp, self.exact_value, self.approximate
        )


def _choice(theta: RealTuple, subset, candidates, floor: int, approximate: bool) -> _Choice:
    """The memoised _Choice of subset among candidates from floor."""
    key = (subset, tuple(candidates), floor, approximate)
    choice = theta._choices.get(key)
    if choice is None:
        choice = theta._choices[key] = _Choice(theta, subset, candidates, floor, approximate)
    return choice


def _choices(
    theta: RealTuple, subsets, D: int, *, floor: int, budget: int, heights: tuple[int, ...]
) -> list[_Choice]:
    """The choice of each subset (all of one size) at height D from the
    precision floor.  heights are the exhaustive heights of the sweep D
    belongs to (D alone outside a sweep); an exhaustive D is one of them,
    and its candidates come from the sweep's one screen of every subset."""
    screen_bits = max(128, floor)
    if not _within_budget(D, len(subsets[0]), budget):
        return [
            _choice(theta, s, _lattice_candidates(theta, s, D, screen_bits), floor, True)
            for s in subsets
        ]
    choices = []
    for subset, screened in zip(subsets, _screened(theta, subsets, heights, screen_bits)):
        if D not in screened:
            raise InvalidConfig(f"a tuple entry is too large for the float box screen at D = {D}")
        choices.append(_choice(theta, subset, screened[D], floor, False))
    return choices


def _beats(theta: RealTuple, a: _Choice, b: _Choice, exp: bool) -> bool:
    """Certainly a's least |value| exceeds b's, by the rule on certified
    log floats: a's lower log above b's upper one.  Where the |.| bounds of
    the two picked forms stand a relative 2^-30 apart, within the log range,
    they decide it without a log: a log pair is at most 2^-32 wide
    (LOG_PAIR_WIDTH) and each of its float ends is within 2^-33 of it, so
    the log pairs of the larger value all lie above those of the smaller.
    Elsewhere both records are certified (with log_exp when exp), each at
    its own precision, and their log floats decide, so every choice and tie
    is that of the log rule."""
    if a.bounds and b.bounds:
        if libmp.mpf_gt(a.bounds[0], b.bounds[1]):
            return True
        if libmp.mpf_gt(b.bounds[0], a.bounds[1]):
            return False
    return a.certified(theta, exp)[1][0] > b.certified(theta, exp)[1][1]


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
    (choice,) = _choices(
        theta, [subset], D, floor=theta.precision_bits, budget=budget, heights=(D,)
    )
    return choice.record(theta, D)


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


def _within_budget(D: int, mu: int, budget: int) -> bool:
    """Whether the height-D box of mu coordinates is within the enumeration
    budget; every budget test reads it."""
    return (2 * D + 1) ** mu <= budget


def _exhaustive_heights(heights: Sequence[int], mu: int, budget: int) -> tuple[int, ...]:
    """The heights whose box of mu coordinates is within the budget; the
    sweep screen covers them, and the heights above take the lattice path."""
    return tuple(D for D in heights if _within_budget(D, mu, budget))


def _best_record(
    theta: RealTuple,
    mu: int,
    D: int,
    *,
    floor: int,
    budget: int,
    heights: tuple[int, ...],
    exp: bool = True,
) -> LinearFormRecord:
    """The record at D of the mu-subset whose least |value| is largest; with
    exp false no log|e^. - 1| is certified and log_exp_value is None."""
    subsets = list(itertools.combinations(range(len(theta)), mu))
    best = None
    for choice in _choices(theta, subsets, D, floor=floor, budget=budget, heights=heights):
        if best is None or _beats(theta, choice, best, exp):
            best = choice  # overlap keeps the earlier (lex smaller) subset
    return best.record(theta, D, exp)


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
    form value, and test log|e^(-|form|) - 1| >= -c*D^eta."""
    ds = _validate_probe_args(theta, mu, eta, c, D_set)
    thresholds = [height_threshold(c, eta, D) for D in ds]
    sweep = _exhaustive_heights(ds, mu, budget)
    verdicts = []
    for D, (scale, thr) in zip(ds, thresholds):
        def per_height(bits: int, D=D, thr=thr, scale=scale) -> HeightVerdict:
            rec = _best_record(theta, mu, D, floor=bits, budget=budget, heights=sweep)
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
        # a side's record certifies log|l.t| only: the pair certifies its own
        # log|e^s - 1|
        sweep = _exhaustive_heights(heights, k, budget)
        return {
            H: _best_record(
                t, k, H, floor=t.precision_bits, budget=budget, heights=sweep, exp=False
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
