"""Diophantine probes: minimal linear forms, genericity, and regularity.

The central primitive is linear_form_min: over nonzero integer vectors l
with max-norm at most D, minimize |l_1 θ_{i_1} + ... + l_mu θ_{i_mu}|.
Exhaustive mode screens the box in floats, then certifies the survivors
(the vectors within a slack of the least float value) with interval
arithmetic.  The screen meets in the middle: l splits into a head of
mu // 2 coordinates and a tail, each half-box is enumerated once, and a
search for each head value's nearest negation among the sorted tail values
finds the least value.  Every pair within twice the slack of it is
re-evaluated in the full-box summation order, so the survivors are exactly
those of a walk over the whole box: rounding moves a value by far less than
the slack.  The enumeration budget still counts the whole box, (2D+1)^mu.
Above it a lattice-reduction mode returns a certified upper-bound record
flagged approximate.  The probes aggregate these records over heights and
subsets with the existential subset quantifier (max over subsets of the
min over forms) and compare against thresholds -c*D^eta, all through one
pass / fail / escalate rule.

A sweep meets the same forms again and again: the minimizer over a subset
usually stays put for several heights, and every height starts its
escalation at the tuple's precision, so it meets earlier heights' forms at
the same precisions.  So each form is certified once per tuple and
precision.  The tuple memoises its float midpoints per precision
(RealTuple.midpoints, the screen's input) and, keyed by (subset, l, bits),
each form's signed enclosure, its |.| bounds and its certified log pairs
(_Form, read by both the interval and the exact-rational branch of
_min_record; a tuple always takes the same branch).  A record is the same
deterministic function of the same inputs either way, so outputs are
byte-identical to certifying afresh.  The memo lives exactly as long as the
tuple object, which the CLI builds once per run: it is never module-level,
so no run reuses another's work.

Integer relations come from one relation lattice (_relation_rows: scaled
midpoints, knapsack basis, LLL).  A found relation is confirmed minimal by
the same box screen at its height: every plausible relation survives the
screen, so the first survivor in (max-norm, l) order that holds is the
minimal one.  The pi*i that a relation search may append takes part in no
relation of a real tuple: the imaginary part of sum l_j theta_j + l' pi*i
is l' pi, zero only for l' = 0.  So the search runs on the real entries
alone and reports the coefficient of pi*i as 0.

Index subsets are 0-based throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

import numpy as np
from mpmath import libmp

from .errors import InvalidConfig
from .expr import BinOp, Num, exact_rational, eval_interval, to_string
from .intmat import rank_rational
from .numeric import (
    NEG_PAIR,
    NeedsBits,
    height_threshold,
    iv_from_fraction,
    log_abs_interval,
    log_expm1_abs_interval,
    log_pair,
    make_ctx,
    run_escalating,
    straddles_zero,
)
from .reduction import knapsack_basis, lll_reduce
from .tuples import RealTuple

ENUM_BUDGET = 10**7


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


def _box_values(flat, theta, D: int):
    """Values l.theta for flat indices of the box over the coordinates theta
    (first coordinate most significant), summed from the last coordinate to
    the first."""
    base = 2 * D + 1
    vals = np.zeros(len(flat))
    rem = flat
    for pos in range(len(theta) - 1, -1, -1):
        rem, dig = np.divmod(rem, base)
        vals += (dig - D) * theta[pos]
    return vals


def _near_pairs(head, tail, zero_head: int, zero_tail: int, slack: float):
    """(head, tail) index arrays of the nonzero pairs whose value
    |head + tail| lies within 2*slack of the least one.

    The tail values are sorted, and each head's two neighbours of its
    negation in that order give the least value of a nonzero pair (the zero
    head takes the least nonzero tail).  A window search over the sorted
    tails then gathers every pair within 2*slack of that least value."""
    order = np.argsort(tail, kind="stable")
    ts = tail[order]
    pos = np.searchsorted(ts, -head)
    lo, hi = np.clip(pos - 1, 0, len(ts) - 1), np.clip(pos, 0, len(ts) - 1)
    near = np.minimum(np.abs(head + ts[lo]), np.abs(head + ts[hi]))
    near[zero_head] = np.abs(np.delete(tail, zero_tail)).min()
    window = float(near.min()) + 2 * slack
    first = np.searchsorted(ts, -head - window, side="left")
    counts = np.searchsorted(ts, -head + window, side="right") - first
    starts = np.cumsum(counts) - counts
    tails = order[np.repeat(first - starts, counts) + np.arange(int(counts.sum()))]
    heads = np.repeat(np.arange(len(head)), counts)
    nonzero = (heads != zero_head) | (tails != zero_tail)
    heads, tails = heads[nonzero], tails[nonzero]
    vals = np.abs(head[heads] + tail[tails])
    keep = vals <= float(vals.min()) + 2 * slack
    return heads[keep], tails[keep]


def _screen_box(theta_float: list[float], D: int) -> list[tuple[int, ...]]:
    """Float screening of the full box: the canonical vectors l whose value
    |l.theta| is within slack of the least nonzero one, a set guaranteed to
    contain every true minimizer.

    Meet in the middle (Horowitz-Sahni): l splits into a head of mu // 2
    coordinates and a tail, the value of l is |head + tail|, and each
    half-box is enumerated once.  A nearest-negation search over the sorted
    tail values (_near_pairs) gathers every pair within 2*slack of the least
    value.  Those pairs are re-evaluated in the full-box summation order
    (last coordinate first), and the survivors are the pairs within slack of
    the least re-evaluated value.  Rounding moves a value by far less than
    slack, so the window holds every survivor and the least value of the
    full box: the survivors, and every record certified from them, are
    those of a walk over the whole box.  The work is O(B^ceil(mu/2) log B)
    for B = 2D + 1, but callers still test the enumeration budget against
    the full box B^mu.  Every entry times mu*D must be a finite float."""
    mu = len(theta_float)
    base = 2 * D + 1
    theta = np.array(theta_float, dtype=float)
    scale = mu * D * max(1.0, float(np.max(np.abs(theta))))  # bounds every |l.theta|
    if not np.isfinite(scale):
        raise InvalidConfig(f"a tuple entry is too large for the float box screen at D = {D}")
    slack = scale * 2.0**-46 + 1e-10

    h = mu // 2
    head, tail = (
        _box_values(np.arange(base ** (hi - lo), dtype=np.int64), theta[lo:hi], D)
        for lo, hi in ((0, h), (h, mu))
    )
    # the zero vector of a half box is its centre: every digit equals D
    zero_head, zero_tail = (base**h - 1) // 2, (base ** (mu - h) - 1) // 2
    heads, tails = _near_pairs(head, tail, zero_head, zero_tail, slack)

    flat = heads * len(tail) + tails
    vals = np.abs(_box_values(flat, theta, D))
    keep = flat[vals <= float(vals.min()) + slack]
    return sorted({canonical_form(_decode(int(f), mu, base, D)) for f in keep})


def _scaled_mid(x, shift: int) -> int:
    """The midpoint of interval x times 2^shift, rounded to the nearest
    integer, at the full precision of x."""
    return libmp.to_int(libmp.mpf_shift(x.mid._mpi_[0], shift), libmp.round_nearest)


def _relation_rows(entries, bits: int, bound: int) -> list[tuple[int, ...]]:
    """Canonical nonzero coefficient parts, max-norm <= bound, of the
    LLL-reduced relation lattice of the real enclosures (midpoints scaled by
    2^(bits/2))."""
    n = len(entries)
    scaled = [_scaled_mid(x, bits // 2) for x in entries]
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


def _signed_sum(entries, l: Sequence[int]):
    total = None
    for coeff, x in zip(l, entries):
        if coeff == 0:
            continue
        term = x * coeff
        total = term if total is None else total + term
    return total


def _log_parts(ctx, value, bits: int):
    """(log_value pair, log_exp pair) for a signed enclosure; NeedsBits on
    straddles or over-wide results."""
    lv = log_abs_interval(ctx, value)
    le = log_expm1_abs_interval(ctx, value, bits)
    if lv is None or le is None:
        return NEG_PAIR, NEG_PAIR
    return log_pair(lv), log_pair(le)


class _Form:
    """One linear form over one subset at one precision: its signed
    enclosure, the bounds on its |.| and, once certified, its
    (log_value, log_exp) pairs.  Memoised on the tuple."""

    __slots__ = ("signed", "low", "high", "logs")

    def __init__(self, signed):
        self.signed = signed
        a = abs(signed)
        self.low, self.high = a.a, a.b
        self.logs = None

    def log_parts(self, ctx, bits: int):
        if self.logs is None:
            self.logs = _log_parts(ctx, self.signed, bits)
        return self.logs


def _form(theta: RealTuple, subset, l, bits: int, signed_sum) -> _Form:
    """The memoised form (subset, l) of theta at bits; signed_sum() builds
    its enclosure on the first call."""
    key = (subset, l, bits)
    form = theta._forms.get(key)
    if form is None:
        form = theta._forms[key] = _Form(signed_sum())
    return form


def _min_record(
    theta: RealTuple,
    subset: tuple[int, ...],
    D: int,
    *,
    bits_floor: int,
    budget: int,
) -> LinearFormRecord:
    mu = len(subset)
    exact_entries = theta.exact_values()
    exhaustive = (2 * D + 1) ** mu <= budget
    screen_bits = max(128, bits_floor)
    if exhaustive:
        mids = theta.midpoints(screen_bits)
        candidates = _screen_box([mids[i] for i in subset], D)
    else:
        candidates = _lattice_candidates(theta, subset, D, screen_bits)

    if exact_entries is not None:
        vals = [
            (abs(sum(c * exact_entries[i] for c, i in zip(l, subset))), l)
            for l in candidates
        ]
        best_val = min(v for v, _ in vals)
        best_l = min(l for v, l in vals if v == best_val)
        q = best_val

        def assemble(bits: int) -> LinearFormRecord:
            if q == 0:
                return LinearFormRecord(subset, best_l, D, NEG_PAIR, NEG_PAIR, Fraction(0), not exhaustive)
            ctx = make_ctx(bits)
            form = _form(theta, subset, best_l, bits, lambda: sum(
                iv_from_fraction(ctx, Fraction(c) * exact_entries[i])
                for c, i in zip(best_l, subset)
                if c != 0
            ))
            log_value, log_exp = form.log_parts(ctx, bits)
            return LinearFormRecord(subset, best_l, D, log_value, log_exp, q, not exhaustive)

        return run_escalating(assemble, bits_floor)

    tie_cap = 4 * screen_bits

    def compute(bits: int) -> LinearFormRecord:
        ctx, encl = theta.real_enclosures(bits)
        entries = [encl[i] for i in subset]
        forms = [
            (_form(theta, subset, l, bits, partial(_signed_sum, entries, l)), l)
            for l in candidates
        ]
        contenders = forms  # a lone survivor is the minimizer
        if len(forms) > 1:
            min_upper = min(f.high for f, _ in forms)
            contenders = [(f, l) for f, l in forms if f.low <= min_upper]
            if len(contenders) > 1 and bits < tie_cap:
                raise NeedsBits
        form, best_l = min(contenders, key=lambda t: t[1])
        log_value, log_exp = form.log_parts(ctx, bits)
        return LinearFormRecord(subset, best_l, D, log_value, log_exp, None, not exhaustive)

    return run_escalating(compute, bits_floor)


def linear_form_min(
    theta: RealTuple,
    subset: Sequence[int],
    D: int,
    *,
    budget: int = ENUM_BUDGET,
    precision_bits: Optional[int] = None,
) -> LinearFormRecord:
    """Minimize |sum_i l_i theta_{subset[i]}| over nonzero l, max-norm <= D.

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
    bits = precision_bits if precision_bits is not None else theta.precision_bits
    return _min_record(theta, subset, D, bits_floor=bits, budget=budget)


def log_expm1_abs(x, precision_bits: int = 128) -> tuple[float, float]:
    """Certified enclosure of log|e^x - 1| as a float pair.

    x may be an expression string, an int, or a Fraction.  Returns the
    (-inf, -inf) sentinel for x = 0.
    """
    from .expr import parse_expression

    if isinstance(x, str):
        node = parse_expression(x)
        exact = exact_rational(node)
    elif isinstance(x, (int, Fraction)):
        node, exact = None, Fraction(x)
    else:
        raise InvalidConfig(f"unsupported input for log_expm1_abs: {x!r}")

    def attempt(bits: int) -> tuple[float, float]:
        ctx = make_ctx(bits)
        if exact is not None:
            xi = iv_from_fraction(ctx, exact)
        else:
            xi = eval_interval(ctx, node)
        return log_pair(log_expm1_abs_interval(ctx, xi, bits))

    return run_escalating(attempt, precision_bits)


# ---------------------------------------------------------------------------
# genericity over subsets and heights


@dataclass(frozen=True)
class HeightVerdict:
    D: int
    record: LinearFormRecord
    threshold: float
    passed: bool
    c_required: float


@dataclass(frozen=True)
class GenericityReport:
    eta: float
    mu: int
    c: float
    verdicts: tuple[HeightVerdict, ...]
    overall: str  # "generic-up-to-budget" | "special-witnesses"
    c_required_max: float
    approximate: bool

    @property
    def all_passed(self) -> bool:
        return self.overall == "generic-up-to-budget"


def _verdict(log_exp: tuple[float, float], thr: float, scale: float) -> tuple[bool, float]:
    """(passed, c_required) of log|e^s - 1| against thr = -c*scale;
    NeedsBits while the enclosure straddles the threshold."""
    lo, hi = log_exp
    if lo >= thr:
        passed = True
    elif hi < thr:
        passed = False
    else:
        raise NeedsBits
    return passed, max(0.0, -lo) / scale


def _overall(verdicts) -> str:
    return "generic-up-to-budget" if all(v.passed for v in verdicts) else "special-witnesses"


def _better(a: LinearFormRecord, b: LinearFormRecord) -> bool:
    """Certainly a's minimal value exceeds b's (compares log enclosures)."""
    return a.log_value[0] > b.log_value[1]


def _best_subset_record(
    theta: RealTuple, mu: int, D: int, *, bits_floor: int, budget: int
) -> LinearFormRecord:
    best = None
    for subset in itertools.combinations(range(len(theta)), mu):
        rec = _min_record(theta, subset, D, bits_floor=bits_floor, budget=budget)
        if best is None or _better(rec, best):
            best = rec  # overlap keeps the earlier (lex smaller) subset
    return best


def _check_rational_matrix(A, m: int) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in A]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise InvalidConfig(f"matrix must be {m}x{m}")
    if rank_rational(rows) != m:
        raise InvalidConfig("matrix must be nonsingular")
    return rows


def apply_matrix(theta: RealTuple, A) -> RealTuple:
    """The tuple A*theta, entries rebuilt as exact expression trees."""
    m = len(theta)
    rows = _check_rational_matrix(A, m)

    def combine(nodes):
        out = []
        for row in rows:
            node = None
            for a, base in zip(row, nodes):
                if a == 0:
                    continue
                term = BinOp("*", Num(a), base)
                node = term if node is None else BinOp("+", node, term)
            out.append(to_string(node if node is not None else Num(Fraction(0))))
        return tuple(out)

    return RealTuple(
        combine(theta._nodes),
        precision_bits=theta.precision_bits,
        label=f"{theta.label}*A" if theta.label else "A*theta",
    )


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
    A=None,
    *,
    budget: int = ENUM_BUDGET,
) -> GenericityReport:
    """For each height D, find the subset of size mu maximizing the minimal
    form value, and test log|e^(form) - 1| >= -c*D^eta."""
    ds = _validate_probe_args(theta, mu, eta, c, D_set)
    if A is not None:
        theta = apply_matrix(theta, A)
    thresholds = [height_threshold(c, eta, D) for D in ds]
    verdicts = []
    for D, (scale, thr) in zip(ds, thresholds):
        def per_height(bits: int, D=D, thr=thr, scale=scale) -> HeightVerdict:
            rec = _best_subset_record(theta, mu, D, bits_floor=bits, budget=budget)
            return HeightVerdict(D, rec, thr, *_verdict(rec.log_exp_value, thr, scale))

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
    passed: bool
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

    @property
    def all_passed(self) -> bool:
        return self.overall == "generic-up-to-budget"


def _abs_product_interval(theta, rec_l, kappa, rec_r, bits):
    _, encl_t = theta.real_enclosures(bits)
    _, encl_k = kappa.real_enclosures(bits)
    st = _signed_sum([encl_t[i] for i in rec_l.subset], rec_l.l)
    sk = _signed_sum([encl_k[i] for i in rec_r.subset], rec_r.l)
    return abs(st) * abs(sk)


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
    budget: int = ENUM_BUDGET,
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
        return {
            H: run_escalating(
                lambda bits, H=H: _best_subset_record(t, k, H, bits_floor=bits, budget=budget),
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
    """One (L, R) pair from the minimal records of each side."""
    if NEG_PAIR in (rec_l.log_value, rec_r.log_value):
        log_value = log_exp = NEG_PAIR
    else:
        log_value = (
            rec_l.log_value[0] + rec_r.log_value[0],
            rec_l.log_value[1] + rec_r.log_value[1],
        )
        ctx = make_ctx(bits)
        t = _abs_product_interval(theta, rec_l, kappa, rec_r, bits)
        log_exp = log_pair(log_expm1_abs_interval(ctx, -t, bits))
    return BitupleVerdict(
        rec_l.D, rec_r.D, rec_l.subset, rec_r.subset, rec_l.l, rec_r.l,
        log_value, log_exp, thr, *_verdict(log_exp, thr, scale),
    )


# ---------------------------------------------------------------------------
# integer-relation detection


@dataclass(frozen=True)
class RegularityResult:
    status: str  # "relation_found" | "no_relation_found"
    relation: Optional[tuple[int, ...]]
    includes_pi: bool  # last coordinate multiplies pi*i when set; it is always 0
    height_bound: int
    precision_bits: int
    verified_exact: bool  # relation proven by exact rational arithmetic
    minimal: Optional[bool]  # smallest max-norm confirmed by enumeration


def _relation_holds(entries, l, exact_entries) -> tuple[bool, bool]:
    """(plausible, exact): enclosure of the combination straddles zero /
    the combination is exactly zero in rational arithmetic."""
    if exact_entries is not None:
        total = sum(Fraction(c) * q for c, q in zip(l, exact_entries))
        return total == 0, total == 0
    return straddles_zero(_signed_sum(entries, l)), False


def regularity_probe(
    theta: RealTuple,
    include_pi_i: bool = False,
    height_bound: int = 10**6,
    precision_bits: Optional[int] = None,
    *,
    budget: int = ENUM_BUDGET,
) -> RegularityResult:
    """Hunt for an integer relation among the entries (pi*i appended when
    the flag is set).

    A real tuple's relation never involves pi*i, so the search runs on the
    entries alone and a found relation gets a 0 appended for pi*i.  The
    appended coordinate still counts toward the minimality budget, and a
    relation found with it is never reported as verified exactly.

    A found relation is verified: its enclosure straddles zero at full
    precision, and exactly when all entries are rational.  Absence of a
    relation is only a no-witness-up-to-budget verdict, never a
    regularity claim.
    """
    if height_bound < 1:
        raise InvalidConfig("height_bound must be >= 1")
    bits = max(128, precision_bits if precision_bits is not None else theta.precision_bits)

    _, entries = theta.real_enclosures(bits)
    exact_entries = None if include_pi_i else theta.exact_values()

    def first_holding(vectors):
        """(l, exact) for the first plausible relation in (max-norm, l) order."""
        for l in sorted(vectors, key=lambda l: (max(abs(x) for x in l), l)):
            plausible, exact = _relation_holds(entries, l, exact_entries)
            if plausible:
                return l, exact
        return None

    found = first_holding(_relation_rows(entries, bits, height_bound))
    if found is None:
        return RegularityResult(
            "no_relation_found", None, include_pi_i, height_bound, bits, False, None
        )
    h0 = max(abs(x) for x in found[0])
    minimal = None
    n = len(entries) + include_pi_i  # the budget counts the pi*i coordinate
    if (2 * h0 + 1) ** n <= budget:
        # a plausible relation's value lies within its enclosure's width of
        # zero, far inside the screen's slack, so every one survives the screen
        found = first_holding(_screen_box(theta.midpoints(bits), h0))
        minimal = True
    l0, exact0 = found
    if include_pi_i:
        l0 += (0,)
    return RegularityResult(
        "relation_found", l0, include_pi_i, height_bound, bits, exact0, minimal
    )
