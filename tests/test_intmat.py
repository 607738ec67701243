import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import echelon, rank
from genlab.intmat import (
    det,
    identity,
    matmul,
    rank_rational,
    smith_normal_form,
)


def minor_gcds(a):
    """Oracle: k-th determinantal divisor = gcd of all k x k minors.

    Computed straight from the definition, independent of the reduction
    path, so it can vouch for the Smith diagonal: s_k = d_k / d_{k-1}.
    """
    m, n = len(a), len(a[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                g = gcd(g, det(sub))
        out.append(g)
    return out


def expected_diagonal_from_minors(a):
    gs = minor_gcds(a)
    diag = []
    prev = 1
    for g in gs:
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


def check_snf(a):
    m, n = len(a), len(a[0])
    u, s, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    d = [s[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in d)
    nz = [x for x in d if x != 0]
    # zeros trail the nonzero invariant factors
    assert d[: len(nz)] == nz
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    return nz


def test_snf_frozen_example():
    # [[2, 4], [6, 8]] has invariant factors 2, 4
    u, s, v = smith_normal_form([[2, 4], [6, 8]])
    assert [s[0][0], s[1][1]] == [2, 4]
    assert matmul(matmul(u, [[2, 4], [6, 8]]), v) == s


def test_snf_identity_and_zero():
    assert check_snf(identity(3)) == [1, 1, 1]
    assert check_snf([[0, 0], [0, 0]]) == []


def test_snf_single_row_gcd():
    assert check_snf([[6, 10, 15]]) == [1]
    assert check_snf([[6, 10]]) == [2]


def test_snf_rectangular():
    a = [[2, 0, 0], [0, 3, 0]]
    assert check_snf(a) == [1, 6]


def test_snf_matches_minor_oracle_small():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        assert check_snf(a) == expected_diagonal_from_minors(a)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
)
def test_snf_invariants_property(a):
    check_snf(a)


def test_rank_rational():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0], [0, 1]]) == 2
    assert rank_rational([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    assert rank_rational([[0, 0], [0, 0]]) == 0


def test_det_examples():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        det([[1, 2, 3]])


@st.composite
def _rational_matrices(draw):
    # widths from 0, some zero rows, and repeats and combinations of
    # earlier rows, so ranks fall short of the row count
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if how == "fresh" or not rows:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif how == "zero":
            rows.append([Fraction(0)] * n)
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_rank_rational_matches_gauss_jordan_oracle(a):
    assert rank_rational(a) == rank(a)


small_int_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(small_int_matrices)
def test_echelon_is_reduced_and_keeps_row_space(a):
    rank, pivots, w = echelon([[Fraction(x) for x in row] for row in a])
    assert rank == len(pivots) <= len(a)
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert w[r][pc] == 1
        assert all(w[i][pc] == 0 for i in range(len(w)) if i != r)
        # nothing nonzero left of a row's pivot
        assert not any(w[r][:pc])
    assert all(not any(row) for row in w[rank:])
    # the reduced rows span the same space as the original ones
    assert rank_rational(w) == rank
    assert rank_rational(a + w[:rank]) == rank


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_echelon_full_rank_iff_bareiss_det_nonzero(a):
    assert (rank_rational(a) == len(a)) == (det(a) != 0)
