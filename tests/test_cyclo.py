import cmath
import random
from fractions import Fraction
from itertools import count
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracle as oracle
from genlab import cyclo
from genlab.cyclo import (
    CycloNum,
    char_value,
    cyclotomic_polynomial,
    evaluation_matrix,
    make_point,
    min_vanishing_degree,
    monomials_up_to,
    normalize_point_set,
    point_mul,
    power_tables,
    product_point_set,
    rank_field,
    table_product,
)
from genlab.errors import HypothesisNotMet, InvalidConfig
from genlab.intmat import rank_rational


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_orders():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = CycloNum.root_of_unity(n)
        assert (z ** n) == CycloNum.from_rational(1)
        for k in range(1, n):
            assert (z ** k) != CycloNum.from_rational(1)


def test_mixed_order_arithmetic():
    i = CycloNum.root_of_unity(4)
    w = CycloNum.root_of_unity(3)
    assert (i * i) == CycloNum.from_rational(-1)
    v = i * w
    assert (v ** 12) == CycloNum.from_rational(1)
    assert (v ** 6) != CycloNum.from_rational(1)
    # 1 + w + w^2 = 0
    assert (CycloNum.from_rational(1) + w + w * w).is_zero()


def test_inverse_and_division():
    rng = random.Random(1)
    for n in (1, 3, 4, 5, 12):
        for _ in range(8):
            deg = len(cyclotomic_polynomial(n)) - 1
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
            x = CycloNum(n, coeffs)
            if x.is_zero():
                continue
            assert (x * x.inverse()) == CycloNum.from_rational(1)
            assert (1 / x) * x == CycloNum.from_rational(1)


def test_rational_projection():
    z6 = CycloNum.root_of_unity(6)
    assert (z6 ** 3).is_rational()
    assert (z6 ** 3).as_rational() == -1


def test_complex_value_agrees():
    # the residue sum(nums[i] zeta^i) / den at zeta = e^(2 pi i / 5); zeta^4
    # is stored reduced mod Phi_5, as -1 - zeta - zeta^2 - zeta^3
    for power in (2, 4):
        z = CycloNum.root_of_unity(5, power) * Fraction(1, 3) + 1
        zeta = cmath.exp(2j * cmath.pi / 5)
        value = sum(c * zeta**i for i, c in enumerate(z.nums)) / z.den
        assert abs(value - (zeta**power / 3 + 1)) < 1e-12


def test_monomials_count():
    # stars and bars: C(L + v, v)
    from math import comb

    for v in (1, 2, 3):
        for L in (0, 1, 2, 5):
            mons = monomials_up_to(v, L)
            assert len(mons) == comb(L + v, v)
            assert mons == sorted(mons)


def test_min_vanishing_degree_collinear_vs_not():
    # three collinear points admit a line: degree 1
    line = [(1, 1), (2, 2), (3, 3)]
    assert min_vanishing_degree(line) == 1
    # three non-collinear points still admit a conic but no line
    tri = [(1, 1), (1, 2), (2, 1)]
    assert min_vanishing_degree(tri) == 2


def test_min_vanishing_degree_single_point():
    assert min_vanishing_degree([(5,)]) == 1
    assert min_vanishing_degree([(Fraction(2, 3), 7)]) == 1


def test_min_vanishing_degree_errors():
    # the four 4th roots of unity on a line need x^4 - 1: nothing of degree <= 3
    i = CycloNum.root_of_unity(4)
    pts = [(i ** k,) for k in range(4)]
    with pytest.raises(HypothesisNotMet, match="degree <= 3 vanishes on the set"):
        min_vanishing_degree(pts, max_degree=3)
    assert min_vanishing_degree(pts, max_degree=4) == 4
    with pytest.raises(HypothesisNotMet):
        min_vanishing_degree([(5,)], max_degree=0)
    with pytest.raises(InvalidConfig, match="empty point set"):
        min_vanishing_degree([])


def test_min_vanishing_degree_roots_of_unity():
    i = CycloNum.root_of_unity(4)
    one = CycloNum.from_rational(1)
    # {(i, 1), (-1, 1), (-i, 1), (1, 1)}: x2 - 1 vanishes, degree 1
    pts = [(i, one), (i * i, one), (i ** 3, one), (one, one)]
    assert min_vanishing_degree(pts) == 1
    # 4th roots of unity on a line in C^1 need x^4 - 1: degree 4
    pts1 = [(i ** k,) for k in range(4)]
    assert min_vanishing_degree(pts1) == 4


def test_product_point_set_exponent_addition():
    w = CycloNum.root_of_unity(3)
    pts = [(w,), (w * w,)]
    prod = product_point_set(pts, 2)
    # products of two elements: w^2, w^3=1, w^4=w -> all three cube roots
    assert len(prod) == 3


def test_product_set_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        product_point_set([(0, 1)], 2)


def test_external_product_and_min_degree_law():
    # min_vanishing_degree(A x B) == min of the two sides
    a = [(1,), (2,), (3,)]
    b = [(1, 1), (2, 3)]
    wa = min_vanishing_degree(a)
    wb = min_vanishing_degree(b)
    prod = [p + q for p in a for q in b]
    assert min_vanishing_degree(prod) == min(wa, wb)


def test_char_value_with_negative_exponents():
    p = make_point([Fraction(2), Fraction(3)])
    v = char_value([-1, 1], p)
    assert v.as_rational() == Fraction(3, 2)


def test_bool_is_nonzero():
    assert not CycloNum.from_rational(0)
    assert not CycloNum(12, [0, 0, 0, 0])
    assert CycloNum.from_rational(Fraction(1, 7))
    assert CycloNum.root_of_unity(5, 3)
    w = CycloNum.root_of_unity(3)
    # zero and nonzero values promoted from another order keep their truth
    assert not (CycloNum.from_rational(1) + w + w * w).promote(12)
    assert not CycloNum.from_rational(0).promote(20)
    assert w.promote(12)
    assert (w - w * w).promote(15)
    i = CycloNum.root_of_unity(4)
    assert not (i * i + 1)


_cyclonum = st.sampled_from([1, 3, 4, 5, 6, 8, 12]).flatmap(
    lambda order: st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=order
    ).map(lambda cs: CycloNum(order, cs))
)
_operand = st.one_of(
    _cyclonum, st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)


@settings(max_examples=80, deadline=None)
@given(_cyclonum, _operand)
def test_subtraction_is_addition_of_the_negation(a, b):
    for diff, ref in ((a - b, a + (-b)), (b - a, b + (-a))):
        assert type(diff) is CycloNum
        assert (diff.order, diff.coeffs) == (ref.order, ref.coeffs)
        assert all(type(c) is Fraction for c in diff.coeffs)


def test_coefficients_stay_fractions():
    x = CycloNum(5, [1, Fraction(1, 2), 0, 3])
    assert all(type(c) is Fraction for c in x.coeffs)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    ),
    st.sampled_from([3, 4, 5, 12]),
    st.lists(st.integers(0, 11), min_size=4, max_size=4),
)
def test_rank_field_on_cyclonum_lift_matches_rank_rational(a, order, powers):
    # scaling row i by a root of unity leaves the rank unchanged, and makes
    # the elimination run on non-rational entries
    lifted = [
        [CycloNum.root_of_unity(order, k) * x for x in row]
        for row, k in zip(a, powers)
    ]
    expected = oracle.echelon(lifted)[0]
    assert rank_field(lifted) == expected
    assert rank_rational(a) == expected


@st.composite
def _mixed_order_rows(draw):
    # entries of orders 3 and 4 beside Fractions and ints, so rank_field
    # promotes to order 12; a row times zeta_12 or a sum of two rows with
    # coefficients of both orders is dependent only over Q(zeta_12)
    width = draw(st.integers(0, 4))
    small = st.fractions(-3, 3, max_denominator=3)
    entry = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        small,
        st.builds(lambda k, q: CycloNum.root_of_unity(3, k) * q, st.integers(0, 2), small),
        st.builds(CycloNum, st.just(4), st.lists(small, min_size=2, max_size=2)),
    )
    factor = st.one_of(
        st.integers(0, 11).map(lambda k: CycloNum.root_of_unity(12, k)),
        st.integers(0, 3).map(lambda k: CycloNum.root_of_unity(4, k)),
        small,
    )
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        how = draw(st.sampled_from(["fresh", "fresh", "zero", "scaled", "combination"]))
        if how == "fresh" or not rows:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
        elif how == "zero":
            rows.append([0] * width)
        elif how == "scaled":
            f = draw(factor)
            rows.append([f * x for x in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(factor), draw(factor)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=100, deadline=None)
@given(_mixed_order_rows())
def test_rank_field_on_mixed_orders_matches_gauss_jordan_oracle(rows):
    assert rank_field(rows) == oracle.rank(rows)


def _full_elimination_degree(points, max_degree):
    # reference: rebuild the whole evaluation matrix and eliminate it at every L
    pts = normalize_point_set(points)
    for L in count(1):
        if L > max_degree:
            raise HypothesisNotMet(f"nothing of degree <= {max_degree}")
        rows, mons = evaluation_matrix(pts, L)
        if oracle.echelon(rows)[0] < len(mons):
            return L


@st.composite
def _torsion_point_sets(draw):
    # roots of unity of one order mixed with small rationals
    dim = draw(st.integers(1, 3))
    order = draw(st.sampled_from([1, 3, 4, 5, 6, 8]))
    coord = st.one_of(
        st.integers(0, order - 1).map(lambda k: CycloNum.root_of_unity(order, k)),
        st.fractions(-3, 3, max_denominator=3).map(CycloNum.from_rational),
    )
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))


@settings(max_examples=40, deadline=None)
@given(_torsion_point_sets(), st.integers(1, 6))
def test_graded_insertion_matches_full_elimination(points, max_degree):
    try:
        expected = _full_elimination_degree(points, max_degree)
    except HypothesisNotMet:
        with pytest.raises(HypothesisNotMet):
            min_vanishing_degree(points, max_degree=max_degree)
    else:
        assert min_vanishing_degree(points, max_degree=max_degree) == expected


def test_min_vanishing_degree_inserts_each_column_once(monkeypatch):
    # no evaluation matrix is rebuilt or re-eliminated, and each kept
    # column has its pivot normalised once: every column below the answer's
    # degree is kept, and no more columns than points can be
    def refuse(*args, **kwargs):
        raise AssertionError("full evaluation matrix rebuilt")

    monkeypatch.setattr(cyclo, "evaluation_matrix", refuse)
    monkeypatch.setattr(cyclo, "rank_field", refuse)
    calls = []
    normalise = cyclo._normalise_pivot

    def counted(*args):
        calls.append(args)
        return normalise(*args)

    monkeypatch.setattr(cyclo, "_normalise_pivot", counted)
    i = CycloNum.root_of_unity(4)
    w = CycloNum.root_of_unity(3)
    cases = [
        ([(i ** k,) for k in range(4)], 4),
        ([(i ** a, w ** b) for a in range(4) for b in range(3)], 3),
        ([(1, 1), (2, 2), (3, 3)], 1),
        (product_point_set([(i, w, 2), (w, 1, i), (2, i, w)], 2), 2),
    ]
    for pts, degree in cases:
        calls.clear()
        assert min_vanishing_degree(pts) == degree
        nvars = len(pts[0])
        assert comb(degree - 1 + nvars, nvars) <= len(calls) <= len(normalize_point_set(pts))


# ---------------------------------------------------------------------------
# differential test: integer CycloNum against Fraction polynomials mod Phi_N


def _ref_reduce(poly, n):
    mod = cyclotomic_polynomial(n)
    deg = len(mod) - 1
    work = [Fraction(c) for c in poly] + [Fraction(0)] * deg
    for k in range(len(work) - 1, deg - 1, -1):
        if work[k]:
            c = work[k]
            for i, m in enumerate(mod):
                work[k - deg + i] -= c * m
    return tuple(work[:deg])


def _ref_promote(coeffs, n, m):
    step = m // n
    poly = [Fraction(0)] * (len(coeffs) * step)
    poly[::step] = coeffs
    return _ref_reduce(poly, m)


def _ref_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, n)


def _ref_inverse(b, n):
    # solve (b * c) = 1 for c: column j of the system is b * x^j
    deg = len(b)
    cols = [_ref_mul(b, _ref_reduce([0] * j + [1], n), n) for j in range(deg)]
    rows = [[col[i] for col in cols] + [Fraction(int(i == 0))] for i in range(deg)]
    rank, _, w = oracle.echelon(rows)
    assert rank == deg
    return tuple(w[i][deg] for i in range(deg))


def _assert_canonical(x, order, ref):
    assert type(x) is CycloNum and x.order == order
    assert len(x.nums) == len(cyclotomic_polynomial(order)) - 1
    assert x.den > 0 and gcd(*x.nums, x.den) == 1
    assert all(type(c) is int for c in x.nums)
    assert x.coeffs == ref


_small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_element = st.integers(1, 12).flatmap(
    lambda order: st.tuples(
        st.just(order), st.lists(_small_fraction, min_size=0, max_size=order + 3)
    )
)


@settings(max_examples=150, deadline=None)
@given(_element, _element, st.integers(-3, 3), st.integers(1, 3))
def test_integer_cyclonum_matches_fraction_reference(ea, eb, k, widen):
    (na, ca), (nb, cb) = ea, eb
    a, b = CycloNum(na, ca), CycloNum(nb, cb)
    ra, rb = _ref_reduce(ca, na), _ref_reduce(cb, nb)
    _assert_canonical(a, na, ra)
    _assert_canonical(b, nb, rb)
    m = lcm(na, nb)
    pa, pb = _ref_promote(ra, na, m), _ref_promote(rb, nb, m)
    _assert_canonical(a.promote(m * widen), m * widen, _ref_promote(ra, na, m * widen))
    _assert_canonical(a + b, m, tuple(x + y for x, y in zip(pa, pb)))
    _assert_canonical(a - b, m, tuple(x - y for x, y in zip(pa, pb)))
    _assert_canonical(-a, na, tuple(-x for x in ra))
    _assert_canonical(a * b, m, _ref_mul(pa, pb, m))
    assert (a == b) == (pa == pb)
    assert a == a.promote(m * widen)
    q = cb[0] if cb else Fraction(3, 2)
    _assert_canonical(q - a, na, tuple(int(i == 0) * q - x for i, x in enumerate(ra)))
    _assert_canonical(a * q, na, tuple(x * q for x in ra))
    assert bool(a) == any(ra)
    assert a.is_rational() == (not any(ra[1:]))
    if a.is_rational():
        assert a.as_rational() == (ra[0] if ra else 0)
        q = a.as_rational()
        assert a == q and hash(a) == hash(CycloNum.from_rational(q).promote(m * widen))
    if b:
        inv_b = _ref_inverse(pb, m)
        _assert_canonical(a / b, m, _ref_mul(pa, inv_b, m))
        _assert_canonical(b.inverse(), nb, _ref_inverse(rb, nb))
        assert b * b.inverse() == 1
    if a or k >= 0:
        ref = _ref_reduce([1], na)
        step = ra if k >= 0 else _ref_inverse(ra, na)
        for _ in range(abs(k)):
            ref = _ref_mul(ref, step, na)
        _assert_canonical(a ** k, na, ref)


@settings(max_examples=150, deadline=None)
@given(_element, st.integers(1, 6), st.integers(1, 6))
def test_promoted_values_hash_alike(e, widen, widen2):
    # one value in three orders, none dividing the next but the first: equal
    # under promote, so equal hashes, in a set as one element
    n, cs = e
    x = CycloNum(n, cs)
    y = x.promote(n * widen)
    z = x.promote(n * widen2)
    assert x == y == z
    assert hash(x) == hash(y) == hash(z)
    assert len({x, y, z}) == 1
    if x.is_rational():
        assert hash(x) == hash(x.as_rational())


def test_root_of_unity_hashes_alike_in_a_wider_order():
    w = CycloNum.root_of_unity(3)
    assert w == w.promote(6) and hash(w) == hash(w.promote(6))
    assert w.promote(6) in {w}


@settings(max_examples=80, deadline=None)
@given(_element, st.integers(1, 4), st.integers(-4, 4).filter(bool), _small_fraction)
def test_equal_values_hash_alike(e, widen, r, q):
    # the same value built two ways in one order, and a rational in any order
    n, cs = e
    x = CycloNum(n, cs)
    m = n * widen
    y = (x.promote(m) * r + q) / r - CycloNum.from_rational(q) / r
    assert y.order == m and y == x.promote(m)
    assert hash(y) == hash(x.promote(m))
    rational = CycloNum.from_rational(q)
    for order in (1, n, m):
        assert hash(rational.promote(order)) == hash(rational)
        assert rational.promote(order) == q


# ---------------------------------------------------------------------------
# powers: square-and-multiply, power tables, and saturating product sets


def _counting_mul_mod(monkeypatch):
    calls = []
    mul_mod = cyclo._mul_mod

    def counted(*args):
        calls.append(args)
        return mul_mod(*args)

    monkeypatch.setattr(cyclo, "_mul_mod", counted)
    return calls


def test_pow_spends_no_wasted_products(monkeypatch):
    # k = 1 needs no product, 2 one square, 5 = 101b two squares and one
    # product, -3 one inverse, then one square and one product
    x = CycloNum(5, [1, Fraction(1, 2), 0, 3])
    calls = _counting_mul_mod(monkeypatch)
    x.inverse()
    inverse_cost = len(calls)
    for k, products in ((1, 0), (2, 1), (5, 3), (-3, inverse_cost + 2)):
        calls.clear()
        value = x**k
        assert len(calls) == products, k
        ref = CycloNum.from_rational(1)
        for _ in range(abs(k)):
            ref = ref * (x if k > 0 else x.inverse())
        assert value == ref and value.order == x.order
    assert x**0 == 1 and (x**0).order == x.order


_coordinate = st.one_of(
    st.tuples(st.integers(3, 8), st.integers(0, 7)).map(
        lambda nk: CycloNum.root_of_unity(*nk)
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=3)
    .filter(bool)
    .map(CycloNum.from_rational),
    _cyclonum.filter(bool),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_coordinate, min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4),
)
def test_power_tables_match_pow_and_char_value(point, exponent_lists):
    # lookups in any order: each entry is c ** e, and the table holds only
    # the run of exponents between 0 and the farthest one read
    (tables,) = power_tables([point])
    for exponents in exponent_lists:
        exponents = exponents[: len(point)]
        value, ref = table_product(exponents, tables), char_value(exponents, point)
        assert value == ref and value.order == ref.order
    for c, table in zip(point, tables):
        # equal coordinates share one table
        key = (c.order, c.nums, c.den)
        same = [j for j, o in enumerate(point) if (o.order, o.nums, o.den) == key]
        read = [ex[j] for ex in exponent_lists for j in same if ex[j]]
        lo, hi = min(read + [0]), max(read + [1])
        assert sorted(table) == list(range(lo, hi + 1))
        for e, value in table.items():
            ref = c**e
            assert value == ref and value.order == ref.order


def test_power_table_costs_one_product_per_entry(monkeypatch):
    # c^5 from c^0 and c^1 takes 4 products; c^-3 one inverse and 2
    # products; entries already made cost nothing
    x = CycloNum(5, [1, Fraction(1, 2), 0, 3])
    calls = _counting_mul_mod(monkeypatch)
    x.inverse()
    inverse_cost = len(calls)
    ((table,),) = power_tables([[x]])
    for e, products in ((5, 4), (3, 0), (-3, inverse_cost + 2), (-1, 0), (6, 1)):
        calls.clear()
        value = table[e]
        assert len(calls) == products, e
        assert value == x**e


def test_power_tables_share_one_table_per_value(monkeypatch):
    w = CycloNum.root_of_unity(5, 2)
    inverses = []
    inverse = CycloNum.inverse

    def counted(self):
        inverses.append(self)
        return inverse(self)

    monkeypatch.setattr(CycloNum, "inverse", counted)
    tables, (other,) = power_tables(
        [(w, w * 1, CycloNum.root_of_unity(5, 2), w * w), (w.promote(10),)]
    )
    assert tables[0] is tables[1] is tables[2] and tables[3] is not tables[0]
    for table in tables:
        table[-4]
    assert inverses == [w, w * w]
    # the key holds the order: w promoted to Q(zeta10) has a table of its own
    assert other is not tables[0] and other[-4] == tables[0][-4]


def _all_rounds(points, depth):
    # reference: every one of the depth - 1 rounds, with no early stop
    base = normalize_point_set(points)
    current = {cyclo._point_key(p): p for p in base}
    for _ in range(depth - 1):
        nxt = {}
        for p in current.values():
            for q in base:
                r = point_mul(p, q)
                nxt.setdefault(cyclo._point_key(r), r)
        current = nxt
    return sorted(current.values(), key=lambda p: tuple(c.coeffs for c in p))


@st.composite
def _saturating_sets(draw):
    # roots of unity saturate, with or without the identity; a rational
    # coordinate keeps the set growing
    dim = draw(st.integers(1, 2))
    order = draw(st.integers(3, 8))
    coord = st.one_of(
        st.integers(0, order - 1).map(lambda k: CycloNum.root_of_unity(order, k)),
        st.sampled_from([CycloNum.from_rational(q) for q in (-1, 2, Fraction(1, 3))]),
    )
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=3))
    if draw(st.booleans()):
        points.append((1,) * dim)
    return points


@settings(max_examples=60, deadline=None)
@given(_saturating_sets(), st.integers(1, 9))
def test_product_point_set_stops_only_at_a_fixed_point(points, depth):
    assert product_point_set(points, depth) == _all_rounds(points, depth)


def test_product_point_set_stops_once_saturated(monkeypatch):
    # the identity and zeta5 on the diagonal: 2, 3, 4, 5 points after 0..3
    # rounds, and the fourth round finds nothing new, so depth 10 costs 4
    # rounds of (points) x (2 generators) x (2 coordinates) products, not 9
    z = CycloNum.root_of_unity(5)
    calls = _counting_mul_mod(monkeypatch)
    pts = product_point_set([(1, 1), (z, z)], 10)
    assert len(pts) == 5
    assert len(calls) == 2 * 2 * (2 + 3 + 4 + 5)


# ---------------------------------------------------------------------------
# exact insertion on integer rows, against field elimination


_INSERT_ORDERS = (1, 3, 4, 5, 8, 12, 20, 30, 40)
# small denominators, and primes near 2^30 and 2^61
_denominator = st.sampled_from([1, 1, 2, 3, 7, 2**30 - 35, 2**61 - 1])
_scalar = st.builds(Fraction, st.integers(-9, 9), _denominator)


@st.composite
def _insert_cases(draw):
    # a row sequence over Q(zeta_order): fresh rows (zero, single-term and
    # general entries), zero rows, repeats and combinations of earlier rows
    order = draw(st.sampled_from(_INSERT_ORDERS))
    phi = len(cyclotomic_polynomial(order)) - 1
    width = draw(st.integers(1, 5))

    def entry():
        kind = draw(st.sampled_from(["zero", "zero", "single", "general"]))
        coeffs = [Fraction(0)] * phi
        if kind == "single":
            coeffs[draw(st.integers(0, phi - 1))] = draw(_scalar.filter(bool))
        elif kind == "general":
            coeffs = draw(st.lists(_scalar, min_size=phi, max_size=phi))
        return CycloNum(order, coeffs)

    rows = []
    for _ in range(draw(st.integers(1, 7))):
        how = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if how == "fresh" or not rows:
            rows.append([entry() for _ in range(width)])
        elif how == "zero":
            rows.append([CycloNum(order, [0])] * width)
        elif how == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = entry(), entry()
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return order, rows


def _field_rows(order, rows):
    # Fraction rows over Q, CycloNum rows otherwise: echelon's input
    return [[x.as_rational() for x in row] for row in rows] if order == 1 else rows


def _field_decisions(order, rows):
    # reference: a row is kept when it raises the rank of the rows before it
    field = _field_rows(order, rows)
    ranks = [0] + [oracle.echelon(field[: k + 1])[0] for k in range(len(field))]
    return [b > a for a, b in zip(ranks, ranks[1:])]


@settings(max_examples=120, deadline=None)
@given(_insert_cases())
def test_insert_row_matches_field_elimination(case):
    order, rows = case
    basis = []
    decisions = []
    for row in rows:
        integer = cyclo.integer_row([(x.nums, x.den) for x in row])
        decisions.append(cyclo.insert_row(basis, integer, order))
    assert decisions == _field_decisions(order, rows)
    # every kept row lies in the span of the input rows
    kept = [[CycloNum(order, [x] if order == 1 else x) for x in row] for _, _, row in basis]
    field = _field_rows(order, rows)
    assert oracle.echelon(field + _field_rows(order, kept))[0] == oracle.echelon(field)[0]
    pivots = []
    for piv, d, row in basis:
        entries = row if order == 1 else [x for e in row for x in e]
        assert type(d) is int and d > 0
        assert row[piv] == (d if order == 1 else [d] + [0] * (len(row[piv]) - 1))
        assert all(not (row[p] if order == 1 else any(row[p])) for p in pivots)
        assert all(not (x if order == 1 else any(x)) for x in row[:piv])
        assert gcd(*entries) == 1
        pivots.append(piv)


def test_single_term_inverse_makes_no_product(monkeypatch):
    # c zeta^k / den inverts to den zeta^(n - k) / c, read off without a
    # product; a rational (k = 0) needs none either
    calls = _counting_mul_mod(monkeypatch)
    for order, k, q in ((5, 3, Fraction(-2, 3)), (8, 0, Fraction(7)), (12, 2, Fraction(1, 5)),
                        (40, 15, Fraction(9, 2**61 - 1)), (1, 0, Fraction(-4, 9))):
        coeffs = [Fraction(0)] * (len(cyclotomic_polynomial(order)) - 1)
        coeffs[k] = q
        x = CycloNum(order, coeffs)
        calls.clear()
        inv = x.inverse()
        assert calls == []
        _assert_canonical(inv, order, _ref_inverse(x.coeffs, order))


def test_single_term_pivot_takes_one_rotation(monkeypatch):
    # a pivot -3 zeta8^2 becomes 3 by one rotation, with no product; the
    # whole row is scaled by the same field element
    row = [[0, 0, 0, 0], [0, 0, -3, 0], [1, 2, 0, 1], [0, 5, 0, 0]]
    calls = _counting_mul_mod(monkeypatch)
    out = cyclo._normalise_pivot(row, 1, 8)
    assert calls == []
    assert out[1] == [3, 0, 0, 0]
    monkeypatch.undo()
    scale = CycloNum(8, out[1]) / CycloNum(8, row[1])
    assert [CycloNum(8, x) for x in out] == [CycloNum(8, x) * scale for x in row]
    # a general pivot becomes its norm, a positive integer
    out = cyclo._normalise_pivot(row, 2, 8)
    norm = CycloNum(8, out[2])
    assert norm.is_rational() and norm.as_rational() > 0
    assert norm == CycloNum(8, row[2]) * (CycloNum(8, out[3]) / CycloNum(8, row[3]))
