import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import echelon, rank
from genlab import chars
from genlab.chars import (
    Character,
    CharacterModule,
    SubgroupDescriptor,
    ZeroEstimateResult,
    hilbert_function,
    kernel_subgroup,
    product_character_codim,
    wI_family_rank,
    zero_estimate_search,
)
from genlab.cyclo import (
    CycloNum,
    char_value,
    min_vanishing_degree,
    normalize_point_set,
    product_point_set,
)
from genlab.errors import HypothesisNotMet, InvalidConfig


def test_character_basics():
    c = Character((1, -2, 0))
    assert c.exponents == (1, -2, 0) and c.ambient_dim == 3
    with pytest.raises(InvalidConfig):
        Character(())


def test_kernel_subgroup_one_character():
    sub = kernel_subgroup(CharacterModule([(1, 1, 1)]))
    assert sub.dim == 2
    assert sub.ambient_dim == 3
    assert sub.torsion == ()


def test_kernel_subgroup_full_rank():
    sub = kernel_subgroup(CharacterModule([(1, 0), (0, 1)]))
    assert sub.dim == 0


def test_kernel_subgroup_torsion():
    sub = kernel_subgroup(CharacterModule([(2, -2)]))
    assert sub.dim == 1
    assert sub.torsion == (2,)
    # saturated annihilator: the SNF diagonal of it must be all ones
    ann = CharacterModule(list(sub.annihilator))
    assert ann.invariant_factors() == [1]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4
        )
    )
)
def test_saturation_basis_is_leading_rows_of_inverse_transform(gens):
    # reference: V^{-1} by Gauss-Jordan on [V | I] over Q
    module = CharacterModule(gens)
    _, _, v = module.snf()
    n = len(v)
    _, pivots, w = echelon(
        [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(v)]
    )
    assert pivots[:n] == list(range(n))
    inverse = [row[n:] for row in w]
    assert all(x.denominator == 1 for row in inverse for x in row)
    assert module.saturation_basis() == inverse[: module.rank]


def test_kernel_dim_plus_rank_is_ambient():
    rng = random.Random(11)
    for _ in range(50):
        l = rng.randint(1, 5)
        g = rng.randint(1, 4)
        gens = [[rng.randint(-6, 6) for _ in range(l)] for _ in range(g)]
        mod = CharacterModule(gens)
        sub = kernel_subgroup(mod)
        assert sub.dim + mod.rank == l


def test_wI_family_rank_disjoint_supports():
    res = wI_family_rank(2, 1, {(0,): (3, 0), (1,): (0, 5)})
    assert res.rank == 2
    assert res.witnesses == ((0,), (1,))
    assert res.counterexample is None


def test_wI_family_rank_random_families():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 6)
        nu = rng.randint(1, n - 1)
        size = n - nu
        choices = {}
        for subset in combinations(range(n), size):
            vec = [Fraction(0)] * n
            while all(v == 0 for v in vec):
                for i in subset:
                    vec[i] = Fraction(rng.randint(-5, 5))
            choices[subset] = vec
        res = wI_family_rank(n, nu, choices)
        assert res.rank >= nu + 1
        assert res.counterexample is None
        assert len(res.witnesses) == nu + 1
        # witnesses independent: exact rank of their vectors
        mat = [choices[s] for s in res.witnesses]
        assert rank(mat) == nu + 1


def test_wI_family_rank_rejects_bad_input():
    with pytest.raises(InvalidConfig):
        wI_family_rank(2, 1, {(0,): (0, 0), (1,): (0, 1)})
    with pytest.raises(InvalidConfig):
        wI_family_rank(2, 1, {(0,): (0, 1), (1,): (0, 1)})
    with pytest.raises(InvalidConfig):
        wI_family_rank(3, 1, {(0, 1): (1, 1, 0)})


def test_wI_family_rank_rejects_bad_keys():
    full = {(0,): (1, 0), (1,): (0, 1)}
    # two keys that name one subset: the later would overwrite the earlier
    with pytest.raises(InvalidConfig, match="two keys"):
        wI_family_rank(3, 1, {(0, 1): (1, 1, 0), (1, 0): (2, 1, 0), (0, 2): (1, 0, 1), (1, 2): (0, 1, 1)})
    # a key of the wrong size, and one out of range
    with pytest.raises(InvalidConfig, match="not a 1-subset"):
        wI_family_rank(2, 1, {**full, (0, 1): (1, 1)})
    with pytest.raises(InvalidConfig, match="not a 1-subset"):
        wI_family_rank(2, 1, {**full, (5,): (1, 1)})
    with pytest.raises(InvalidConfig, match="not a 2-subset"):
        wI_family_rank(3, 1, {(0, 1): (1, 1, 0), (0, 5): (1, 0, 0), (0, 2): (1, 0, 1), (1, 2): (0, 1, 1)})
    with pytest.raises(InvalidConfig, match="not a 2-subset"):
        wI_family_rank(3, 1, {(0, 1): (1, 1, 0), (1, 1): (0, 1, 0), (0, 2): (1, 0, 1), (1, 2): (0, 1, 1)})


def test_product_character_codim_examples():
    zero22 = CharacterModule([], ambient_dim=4)
    assert product_character_codim((1, -1), zero22) == 2
    zero13 = CharacterModule([], ambient_dim=3)
    assert product_character_codim((1,), zero13) == 3
    # relation lattice containing the first product character chi_1 drops
    # the codimension by one; for l=(1,0), chi_1 = x_{00} -> [1,0,0,0]
    chi1 = [1, 0, 0, 0]
    rel = CharacterModule([chi1])
    assert product_character_codim((1, 0), rel) == 1


def test_product_character_codim_zero_vector_rejected():
    with pytest.raises(InvalidConfig):
        product_character_codim((0, 0), CharacterModule([], ambient_dim=4))


def test_product_character_codim_random_zero_lattice():
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        l_vec = [0] * m
        while all(x == 0 for x in l_vec):
            l_vec = [rng.randint(-4, 4) for _ in range(m)]
        zero = CharacterModule([], ambient_dim=m * n)
        assert product_character_codim(l_vec, zero) == n


def test_hilbert_function():
    sub = SubgroupDescriptor(3, ((1, 1, 1),), 2, ())
    assert hilbert_function(sub, 3) == 9
    assert hilbert_function(SubgroupDescriptor(2, (), 0, ()), 7) == 1
    assert hilbert_function(SubgroupDescriptor(2, (), 1, ()), 5) == 5
    with pytest.raises(InvalidConfig):
        hilbert_function(sub, 0)


def test_zero_estimate_fourth_roots():
    i = CycloNum.root_of_unity(4)
    one = CycloNum.from_rational(1)
    res = zero_estimate_search([(i, one), (i * i, one)], 2, 1)
    assert res.found
    assert res.character == (0, 1)
    assert res.cosets == 1
    assert res.cosets * res.hilbert_sub <= res.hilbert_ambient


def test_zero_estimate_single_one():
    res = zero_estimate_search([(CycloNum.from_rational(1),)], 3, 1)
    assert res.found
    assert res.character == (1,)
    assert res.cosets == 1


def test_zero_estimate_diagonal_cube_roots():
    w = CycloNum.root_of_unity(3)
    pts = [(w ** a, w ** a) for a in range(3)]
    res = zero_estimate_search(pts, 1, 1)
    assert res.found
    assert res.character == (1, -1)
    assert res.cosets == 1


def test_zero_estimate_precondition_failure():
    # two generic rational points on a 1-torus: no degree-1 polynomial in
    # one variable vanishes on both, so the hypothesis fails
    with pytest.raises(HypothesisNotMet):
        zero_estimate_search([(Fraction(2),), (Fraction(3),)], 1, 1)


def _zero_estimate_reference(points, depth, L):
    # the scan with one kernel subgroup (a Smith form and a unimodular
    # inverse) per candidate character, and the test on its dimension
    sigma = product_point_set(normalize_point_set(points), depth)
    w = min_vanishing_degree(sigma, max_degree=L)
    mu = len(sigma[0])
    checked = 0
    for cand in product(range(-L, L + 1), repeat=mu):
        if not any(cand) or next(c for c in cand if c) < 0:
            continue
        checked += 1
        cosets = len({char_value(cand, p) for p in sigma})
        sub = kernel_subgroup(CharacterModule([cand]))
        h_sub = hilbert_function(sub, L)
        if cosets * h_sub <= L**mu:
            return ZeroEstimateResult(
                True, cand, sub, cosets, h_sub, L**mu, len(sigma), w, checked
            )
    return ZeroEstimateResult(
        False, None, None, None, None, L**mu, len(sigma), w, checked
    )


_ROOTS = [CycloNum.root_of_unity(n, k) for n in (3, 4, 6) for k in range(n)]
_RATIONALS = [CycloNum.from_rational(q) for q in (2, Fraction(1, 2), -3, 5, Fraction(7, 3))]


@st.composite
def _zero_estimate_cases(draw):
    # roots of unity make hits, rationals make misses and failed hypotheses
    mu = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from(_ROOTS), st.sampled_from(_RATIONALS))
    points = draw(
        st.lists(st.tuples(*[coord] * mu), min_size=1, max_size=3)
    )
    return points, draw(st.integers(1, 2)), draw(st.integers(1, 3))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisNotMet:
        return HypothesisNotMet


@settings(max_examples=60, deadline=None)
@given(_zero_estimate_cases())
def test_zero_estimate_matches_subgroup_per_candidate_scan(case):
    points, depth, L = case
    assert _outcome(zero_estimate_search, points, depth, L) == _outcome(
        _zero_estimate_reference, points, depth, L
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any))
def test_kernel_of_one_nonzero_character_has_codimension_one(exponents):
    assert kernel_subgroup(CharacterModule([exponents])).dim == len(exponents) - 1


def test_zero_estimate_builds_the_subgroup_of_the_hit_only(monkeypatch):
    calls = []
    real = chars.kernel_subgroup

    def counting(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(chars, "kernel_subgroup", counting)
    w = CycloNum.root_of_unity(3)
    two, three, five, seven = (CycloNum.from_rational(q) for q in (2, 3, 5, 7))
    hit = zero_estimate_search([(w, two), (w, three)], 2, 2)
    assert hit.character == (1, 0) and hit.checked == 5
    assert [m.generators[0].exponents for m in calls] == [hit.character]

    calls.clear()
    miss = zero_estimate_search([(two, three), (five, seven)], 2, 2)
    assert not miss.found and miss.checked == 12
    assert calls == []


def test_zero_estimate_inverts_each_coordinate_value_at_most_once(monkeypatch):
    # the zero estimate of the benchmark's dist-audit (four zeta5^p
    # coordinates, D = 16: L = 4, depth S*nu = 10); the inverses the
    # vanishing-degree elimination takes for its pivots are not counted
    for p in (1, 3):
        z = CycloNum.root_of_unity(5, p)
        points = [(1, 1), (z, z), (z, z)]
        inverted, counting = [], [True]
        inverse, vanishing = CycloNum.inverse, chars.min_vanishing_degree

        def counted(self):
            if counting[0]:
                inverted.append(self)
            return inverse(self)

        def uncounted(*args, **kwargs):
            counting[0] = False
            try:
                return vanishing(*args, **kwargs)
            finally:
                counting[0] = True

        monkeypatch.setattr(CycloNum, "inverse", counted)
        monkeypatch.setattr(chars, "min_vanishing_degree", uncounted)
        res = zero_estimate_search(points, 10, 4)
        monkeypatch.undo()
        assert res.found and res.character == (1, -1) and res.sigma_size == 5
        distinct = {c for pt in product_point_set(points, 10) for c in pt}
        assert len(distinct) == 5
        assert len(inverted) <= len(distinct)
        assert len(set(inverted)) == len(inverted)


def _greedy_rank_reference(n, nu, choices):
    # reference: one full rank per trial subset, then one for the family
    expected = list(combinations(range(n), n - nu))
    witnesses, chosen = [], []
    for subset in expected:
        trial = chosen + [choices[subset]]
        if rank(trial) == len(trial):
            chosen.append(choices[subset])
            witnesses.append(subset)
    total = rank([choices[s] for s in expected])
    if total < nu + 1:
        return total, tuple(witnesses), tuple(expected)
    return total, tuple(witnesses[: nu + 1]), None


@st.composite
def _families(draw):
    n = draw(st.integers(2, 6))
    nu = draw(st.integers(1, n - 1))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(-3, 3, max_denominator=3),
        # large denominators: primes near 2^30 and 2^61
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2**30 - 35, 2**61 - 1])),
    )
    choices = {}
    for subset in combinations(range(n), n - nu):
        on = draw(
            st.lists(entry, min_size=n - nu, max_size=n - nu).filter(any)
        )
        vec = [Fraction(0)] * n
        for i, x in zip(subset, on):
            vec[i] = x
        choices[subset] = vec
    return n, nu, choices


@settings(max_examples=80, deadline=None)
@given(_families())
def test_wI_family_rank_matches_greedy_full_ranks(family):
    n, nu, choices = family
    res = wI_family_rank(n, nu, choices)
    assert (res.rank, res.witnesses, res.counterexample) == _greedy_rank_reference(n, nu, choices)


def test_wI_family_rank_matches_greedy_echelon_on_generated_families():
    # families drawn as the benchmark draws them, entries a/b with
    # |a| <= 5 and 1 <= b <= 3, against the greedy reference, whose ranks
    # are the Gauss-Jordan oracle's on Fractions
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 6)
        nu = rng.randint(1, n - 1)
        choices = {}
        for subset in combinations(range(n), n - nu):
            vec = [Fraction(0)] * n
            while not any(vec):
                for i in subset:
                    vec[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            choices[subset] = vec
        res = wI_family_rank(n, nu, choices)
        assert (res.rank, res.witnesses, res.counterexample) == _greedy_rank_reference(n, nu, choices)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any),
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n),
                    max_size=4,
                ),
                st.just(n),
            )
        )
    )
)
def test_product_character_codim_matches_rank_difference(case):
    l_vec, base, n = case
    m = len(l_vec)
    chis = []
    for j in range(n):
        row = [0] * (m * n)
        for i in range(m):
            row[i * n + j] = l_vec[i]
        chis.append(row)
    module = CharacterModule(base, ambient_dim=m * n)
    expected = rank(base + chis) - (rank(base) if base else 0)
    assert product_character_codim(l_vec, module) == expected


def test_each_job_normalises_its_point_set_once(monkeypatch):
    # normalize_point_set returns a PointSet, which the product and the
    # vanishing degree take as it is: one normalisation per point set
    from genlab import auxpoly, cyclo

    z = CycloNum.root_of_unity(5)
    points = [(z, z**2), (z**2, z**4), (1, Fraction(1, 2))]
    calls = []
    normalise = cyclo.normalize_point_set

    def counted(pts):
        calls.append(pts)
        return normalise(pts)

    for module in (cyclo, chars, auxpoly):
        monkeypatch.setattr(module, "normalize_point_set", counted)
    zero_estimate_search(points, 2, 3)
    assert len(calls) == 1
    calls.clear()
    auxpoly.omega(points)
    assert len(calls) == 1
    monkeypatch.undo()
    assert isinstance(product_point_set(points, 2), cyclo.PointSet)
