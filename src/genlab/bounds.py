"""Exact bound combinatorics: witness search, closed forms, and gap tables.

Everything in this module is integer or rational arithmetic; no floating
point anywhere.  The three bound families:

  * the witness bound: the largest t admitting (mu, nu) with
    mu*nu/(mu+nu) > t, mu <= (m-t)/max(t-1,1), nu <= (n-t)/max(t-1,1);
  * the closed-form bound floor(sqrt((min(m,n)+1)/2)) with its proof
    substitution t, mu = nu = 2t^2-1 checked inequality by inequality;
  * the conjectured target m*n/(m+n) - 1 and its gap to the witness bound.

The kappa clause of the source statement reads max(t-1,t) where every other
clause reads max(t-1,1); the consistent reading is the default and the
literal one stays available behind the `variant` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InvalidConfig

CONSISTENT = "consistent"
LITERAL = "literal"


def _floor_sqrt_fraction(x: Fraction) -> int:
    # floor(sqrt(a/b)) = isqrt(a//b): no integer square lies strictly
    # between floor(x) and x
    if x < 0:
        raise InvalidConfig("negative radicand")
    return math.isqrt(x.numerator // x.denominator)


def theorem2_best_t(
    m: int, n: int, *, variant: str = CONSISTENT
) -> tuple[int, int, int] | None:
    """Largest t with a witness pair, or None.

    A witness (mu, nu) satisfies mu*nu/(mu+nu) > t, mu <= (m-t)/d_theta and
    nu <= (n-t)/d_kappa, where d_theta = max(t-1,1) always and d_kappa is
    the same under the default variant but max(t-1,t) = t under "literal".
    The search is exhaustive over t in [1, min(m,n)], mu in [1,m],
    nu in [1,n]; ties on t resolve to the lexicographically smallest
    (mu, nu).
    """
    if m < 1 or n < 1:
        raise InvalidConfig("tuple lengths must be >= 1")
    if variant not in (CONSISTENT, LITERAL):
        raise InvalidConfig(f"unknown variant {variant!r}")
    for t in range(min(m, n), 0, -1):
        d_theta = max(t - 1, 1)
        d_kappa = d_theta if variant == CONSISTENT else max(t - 1, t)
        mu_cap = min(m, (m - t) // d_theta)
        nu_cap = min(n, (n - t) // d_kappa)
        for mu in range(1, mu_cap + 1):
            for nu in range(1, nu_cap + 1):
                # mu*nu/(mu+nu) > t, cleared of its positive denominator
                if mu * nu > t * (mu + nu):
                    return (t, mu, nu)
    return None


def corollary_bound(m: int, n: int) -> int:
    """floor(sqrt((min(m,n)+1)/2)), evaluated exactly."""
    if m < 1 or n < 1:
        raise InvalidConfig("tuple lengths must be >= 1")
    return _floor_sqrt_fraction(Fraction(min(m, n) + 1, 2))


@dataclass(frozen=True)
class WitnessChecklist:
    """The closed-form bound's proof substitution, inequality by inequality."""

    n: int
    t: int
    mu: int
    nu: int
    ratio: Fraction
    ratio_ok: bool
    size_floor: int
    size_ok: bool
    passed: bool


def corollary_witness_check(n: int) -> WitnessChecklist:
    """Check the proof substitution t = floor(sqrt((n+1)/2)),
    mu = nu = 2t^2 - 1 against its two claimed inequalities:
    mu*nu/(mu+nu) > t and n >= (nu-1)(t-1) - 1.  Both are evaluated
    exactly and reported; small n make one or the other fail.
    """
    if n < 1:
        raise InvalidConfig("n must be >= 1")
    t = _floor_sqrt_fraction(Fraction(n + 1, 2))
    mu = nu = 2 * t * t - 1
    ratio = Fraction(mu * nu, mu + nu)
    ratio_ok = ratio > t
    size_floor = (nu - 1) * (t - 1) - 1
    size_ok = n >= size_floor
    return WitnessChecklist(
        n, t, mu, nu, ratio, ratio_ok, size_floor, size_ok, ratio_ok and size_ok
    )


def conjecture_bound(m: int, n: int) -> Fraction:
    """Exact rational m*n/(m+n) - 1."""
    if m < 1 or n < 1:
        raise InvalidConfig("tuple lengths must be >= 1")
    return Fraction(m * n, m + n) - 1


@dataclass(frozen=True)
class BoundReport:
    """All three bounds at one (m, n), with the witness behind the first."""

    m: int
    n: int
    theorem_t: int
    theorem_witness: tuple[int, int] | None
    corollary_t: int
    conjecture: Fraction
    gap: Fraction


def bound_report(m: int, n: int, *, variant: str = CONSISTENT) -> BoundReport:
    best = theorem2_best_t(m, n, variant=variant)
    if best is None:
        t, witness = 0, None
    else:
        t, mu, nu = best
        witness = (mu, nu)
        d_theta = max(t - 1, 1)
        d_kappa = d_theta if variant == CONSISTENT else max(t - 1, t)
        assert mu * nu > t * (mu + nu)
        assert mu * d_theta <= m - t and nu * d_kappa <= n - t
    conj = conjecture_bound(m, n)
    return BoundReport(m, n, t, witness, corollary_bound(m, n), conj, conj - t)


def bound_grid(
    ms: range | list[int], ns: range | list[int], *, variant: str = CONSISTENT
) -> list[BoundReport]:
    """Reports for every (m, n) pair, in ascending (m, n) order: a repeated
    value repeats its reports, and the repeats stay side by side."""
    return [bound_report(m, n, variant=variant) for m, n in sorted(product(ms, ns))]
