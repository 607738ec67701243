"""Tests for the exact bound combinatorics.

The witness-search oracle below re-derives the best t by brute force with a
different loop structure, so the frozen examples and the searcher check each
other.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.bounds import (
    BoundReport,
    bound_grid,
    bound_report,
    conjecture_bound,
    corollary_bound,
    corollary_witness_check,
    theorem2_best_t,
)
from genlab.errors import InvalidConfig


def oracle_best_t(m, n, literal=False):
    # independent brute force: collect every admissible (t, mu, nu), then max
    found = []
    for t in range(1, min(m, n) + 1):
        dt = max(t - 1, 1)
        dk = t if literal else dt
        for mu in range(1, m + 1):
            if mu * dt > m - t:
                continue
            for nu in range(1, n + 1):
                if nu * dk > n - t:
                    continue
                if mu * nu * 1 > t * (mu + nu) and Fraction(mu * nu, mu + nu) > t:
                    found.append((t, mu, nu))
    if not found:
        return None
    best_t = max(rec[0] for rec in found)
    return min(rec for rec in found if rec[0] == best_t)


def test_theorem2_worked_example():
    # 20/9 > 2 with mu <= 5, nu <= 4
    assert theorem2_best_t(7, 6) == (2, 5, 4)


def test_theorem2_tiny_case_has_no_witness():
    assert theorem2_best_t(2, 2) is None


def test_theorem2_stated_instances():
    # at (2t^2-1, 2t^2-t) the pair (2t+1, 2t) is admissible, so best >= t
    for t in range(2, 11):
        best = theorem2_best_t(2 * t * t - 1, 2 * t * t - t)
        assert best is not None and best[0] >= t


def test_theorem2_matches_oracle():
    for m in range(1, 13):
        for n in range(1, 13):
            assert theorem2_best_t(m, n) == oracle_best_t(m, n)


def test_theorem2_literal_variant():
    # the literal kappa denominator max(t-1,t) = t shrinks nu's budget
    assert theorem2_best_t(7, 6, variant="literal") == oracle_best_t(
        7, 6, literal=True
    )
    assert theorem2_best_t(7, 6, variant="literal")[0] < theorem2_best_t(7, 6)[0]
    with pytest.raises(InvalidConfig):
        theorem2_best_t(7, 6, variant="oops")


def fraction_best_t(m, n, variant):
    # the search as it read with Fractions: same loops, ratio compared whole
    for t in range(min(m, n), 0, -1):
        d_theta = max(t - 1, 1)
        d_kappa = d_theta if variant == "consistent" else max(t - 1, t)
        for mu in range(1, min(m, (m - t) // d_theta) + 1):
            for nu in range(1, min(n, (n - t) // d_kappa) + 1):
                if Fraction(mu * nu, mu + nu) > t:
                    return (t, mu, nu)
    return None


@pytest.mark.parametrize("variant", ["consistent", "literal"])
def test_theorem2_integer_test_matches_fraction_form(variant):
    for m in range(1, 61):
        for n in range(1, 61):
            expected = fraction_best_t(m, n, variant)
            assert theorem2_best_t(m, n, variant=variant) == expected
            report = bound_report(m, n, variant=variant)
            assert report.theorem_t == (expected[0] if expected else 0)


@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=25),
)
@settings(max_examples=80, deadline=None)
def test_theorem2_monotone(m, n):
    def level(a, b):
        best = theorem2_best_t(a, b)
        return 0 if best is None else best[0]

    assert level(m + 1, n) >= level(m, n)
    assert level(m, n + 1) >= level(m, n)


def test_corollary_bound_examples():
    assert corollary_bound(17, 20) == 3
    assert corollary_bound(9, 7) == 2
    assert corollary_bound(1, 1) == 1


def test_corollary_bound_closed_form_range():
    for v in range(1, 10_001):
        b = corollary_bound(v, 10_001)
        assert b * b * 2 <= v + 1 < 2 * (b + 1) * (b + 1)
        # the closed form as a float cross-check, exact on this range
        assert b == math.floor(math.sqrt((v + 1) / 2))


def test_corollary_witness_table():
    # n=17: t=3, mu=nu=17: ratio 17/2 > 3 but 17 < 31
    chk = corollary_witness_check(17)
    assert (chk.t, chk.mu) == (3, 17)
    assert chk.ratio == Fraction(17, 2)
    assert chk.ratio_ok and not chk.size_ok and not chk.passed
    assert chk.size_floor == 31
    # n=2: t=1, mu=nu=1: ratio 1/2 > 1 fails
    chk = corollary_witness_check(2)
    assert (chk.t, chk.mu) == (1, 1)
    assert not chk.ratio_ok and not chk.passed
    # n=8: t=2, mu=nu=7: 7/2 > 2 and 8 >= 5
    chk = corollary_witness_check(8)
    assert (chk.t, chk.mu) == (2, 7)
    assert chk.ratio == Fraction(7, 2)
    assert chk.ratio_ok and chk.size_ok and chk.passed
    assert chk.size_floor == 5


def test_conjecture_bound_values():
    assert conjecture_bound(3, 3) == Fraction(1, 2)
    assert conjecture_bound(4, 4) == 1
    assert conjecture_bound(10, 10) == 4


def test_bound_report_and_grid():
    rep = bound_report(7, 6)
    assert rep.theorem_t == 2 and rep.theorem_witness == (5, 4)
    assert rep.corollary_t == 1
    assert rep.conjecture == Fraction(42, 13) - 1
    assert rep.gap == rep.conjecture - 2
    grid = bound_grid(range(2, 13), range(2, 13))
    assert len(grid) == 121
    assert grid[0].m == 2 and grid[0].n == 2
    assert grid[-1].m == 12 and grid[-1].n == 12
    # row-major ordering
    assert [r.n for r in grid[:11]] == list(range(2, 13))


def test_module_avoids_floating_point():
    src = Path(__file__).resolve().parents[1] / "src" / "genlab" / "bounds.py"
    text = src.read_text()
    assert "float(" not in text
    assert "math.sqrt" not in text
    assert not re.search(r"\d\.\d", text)
