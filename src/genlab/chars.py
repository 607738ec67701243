"""Characters of split tori and the subgroups they cut out.

A character of the l-dimensional split torus is the monomial map
x -> prod x_i^{e_i}, identified with its integer exponent vector.  A
finitely generated group of characters cuts out the subgroup on which all
of them equal 1.  The zero estimate needs that subgroup for one nonzero
character only, where the Smith normal form of the single row is
(g, 0, ..., 0) for g = gcd of the exponents: the kernel has codimension 1,
the saturated annihilator is the row divided by g, and the torsion is Z/g.
The general Smith-form kernel lives in the tests as their reference.
Everything in this module is exact integer/rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from .cyclo import (
    insert_row,
    integer_row,
    min_vanishing_degree,
    normalize_point_set,
    power_tables,
    product_point_set,
    table_product,
)
from .errors import DEFAULT_BUDGET, BudgetExceeded, InvalidConfig


class CharacterModule:
    """A finitely generated group of characters on a common torus, given by
    the exponent vectors of its generators."""

    def __init__(self, generators: Sequence[Sequence[int]], ambient_dim: int | None = None):
        gens = tuple(tuple(int(e) for e in g) for g in generators)
        if not all(gens):
            raise InvalidConfig("character needs at least one exponent")
        if gens:
            dim = len(gens[0])
            if any(len(g) != dim for g in gens):
                raise InvalidConfig("generators have mixed ambient dimensions")
            if ambient_dim is not None and ambient_dim != dim:
                raise InvalidConfig("ambient_dim disagrees with generators")
            ambient_dim = dim
        elif ambient_dim is None:
            raise InvalidConfig("empty module needs an explicit ambient_dim")
        self.generators: tuple[tuple[int, ...], ...] = gens
        self.ambient_dim: int = ambient_dim

    def matrix(self) -> list[list[int]]:
        return [list(g) for g in self.generators]


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A subgroup of the torus cut out by a module of characters.

    `annihilator` is saturated; finite components are tracked in `torsion`
    (the invariant factors > 1 of the original module).
    """

    ambient_dim: int
    annihilator: tuple[tuple[int, ...], ...]
    dim: int
    torsion: tuple[int, ...] = ()


@dataclass(frozen=True)
class FamilyRankResult:
    rank: int
    witnesses: tuple[tuple[int, ...], ...]
    counterexample: tuple[tuple[int, ...], ...] | None = None


def wI_family_rank(n: int, nu: int, choices: Mapping[Sequence[int], Sequence]) -> FamilyRankResult:
    """Rank of a family of vectors indexed by the size-(n-nu) subsets.

    Input: for every subset I of {0..n-1} with |I| = n - nu, a nonzero
    rational vector supported on I, under one key that lists I's elements
    in any order; any other key, or a second key for the same I, raises
    InvalidConfig.  The span always has dimension at least nu + 1; the
    witnesses are found greedily in lexicographic subset order, each one
    verified to increase the exact rank.  Each vector is cleared to
    integers by the lcm of its denominators (cyclo.integer_row), which keeps
    the spans, and inserted by cyclo.insert_row.
    """
    if not (1 <= nu < n):
        raise InvalidConfig("need 1 <= nu < n")
    expected = list(combinations(range(n), n - nu))
    subsets = set(expected)
    rows: dict[tuple[int, ...], list[int]] = {}
    for key, vec in choices.items():
        k = tuple(sorted(int(i) for i in key))
        if k not in subsets:
            raise InvalidConfig(f"key {tuple(key)} is not a {n - nu}-subset of 0..{n - 1}")
        if k in rows:
            raise InvalidConfig(f"two keys name the subset {k}")
        rationals = (x if type(x) in (int, Fraction) else Fraction(x) for x in vec)
        rows[k] = integer_row([((q.numerator,), q.denominator) for q in rationals])
    for subset in expected:
        if subset not in rows:
            raise InvalidConfig(f"missing subset {subset}")
        vec = rows[subset]
        if len(vec) != n:
            raise InvalidConfig(f"vector for {subset} has wrong length")
        if not any(vec):
            raise InvalidConfig(f"vector for {subset} is zero")
        for i, x in enumerate(vec):
            if x and i not in subset:
                raise InvalidConfig(f"vector for {subset} has support outside it")
    # greedy independent set in lexicographic order; it spans the family
    basis: list = []
    witnesses = [s for s in expected if insert_row(basis, rows[s])]
    total_rank = len(basis)
    if total_rank < nu + 1:
        # unreachable when the preconditions really hold; returned as a
        # certificate instead of asserting, so callers can inspect the input
        return FamilyRankResult(total_rank, tuple(witnesses), tuple(expected))
    return FamilyRankResult(total_rank, tuple(witnesses[: nu + 1]), None)


def product_character_codim(l_vec: Sequence[int], relation_lattice: CharacterModule) -> int:
    """Codimension cut out by the product characters chi_j = prod_i x_{ij}^{l_i}.

    The ambient torus has dimension m*n with coordinates indexed (i, j) ->
    i*n + j; the relation lattice is the annihilator of the subgroup the
    computation happens inside.  The codimension is the number of chi rows that
    stay independent when inserted after the relation rows.
    """
    l_vec = [int(x) for x in l_vec]
    if all(x == 0 for x in l_vec):
        raise InvalidConfig("l_vec must be nonzero")
    m = len(l_vec)
    mn = relation_lattice.ambient_dim
    if mn % m != 0:
        raise InvalidConfig("relation lattice dimension is not a multiple of len(l_vec)")
    n = mn // m
    chis = []
    for j in range(n):
        row = [0] * mn
        for i in range(m):
            row[i * n + j] = l_vec[i]
        chis.append(row)
    basis: list = []
    for row in relation_lattice.matrix():
        insert_row(basis, row)
    return sum(insert_row(basis, row) for row in chis)


@dataclass(frozen=True)
class ZeroEstimateResult:
    found: bool
    character: tuple[int, ...] | None
    subgroup: SubgroupDescriptor | None
    cosets: int | None
    hilbert_sub: int | None
    hilbert_ambient: int
    sigma_size: int
    vanishing_degree: int
    checked: int


def _character_kernel(cand: tuple[int, ...]) -> SubgroupDescriptor:
    """The kernel of one nonzero character.  The Smith form of its row is
    (g, 0, ..., 0) for g = gcd(cand), so the kernel has dimension mu - 1,
    the saturated annihilator cand / g and the torsion Z/g."""
    g = math.gcd(*cand)
    return SubgroupDescriptor(
        len(cand), (tuple(c // g for c in cand),), len(cand) - 1, (g,) if g > 1 else ()
    )


# desk scale of the obstruction-subgroup scan
DESK_ZERO_ESTIMATE_DIM = 3
DESK_ZERO_ESTIMATE_POINTS = 8


def zero_estimate_search(
    points: Sequence[Sequence], depth: int, L: int, *, budget: int = DEFAULT_BUDGET
) -> ZeroEstimateResult:
    """Search for an obstruction subgroup behind a low-degree vanishing set.

    Given a finite set of exact torus points whose depth-fold products admit
    a nonzero vanishing polynomial of degree <= L, exhaustively scans
    characters with exponents bounded by L (first-nonzero-positive
    representatives in lexicographic order) and returns the first one whose
    kernel H satisfies card(Sigma*H/H) * L^{dim H} <= L^{mu}.  The coset
    count card(Sigma*H/H) is the number of distinct character values on the
    set.  The kernel of one nonzero character has dim H = mu - 1, so the
    scan compares counts only and builds the subgroup of the hit alone
    (_character_kernel).
    Character values come from power tables (cyclo.power_tables): each
    distinct coordinate value of the set is raised to each exponent in
    -L..L at most once, with at most one inverse, and a value at a point is
    the product of its mu table entries.
    """
    base = normalize_point_set(points)
    if not base:
        raise InvalidConfig("empty point set")
    mu = len(base[0])
    if mu > DESK_ZERO_ESTIMATE_DIM:
        raise BudgetExceeded(f"torus dimension {mu} exceeds desk scale {DESK_ZERO_ESTIMATE_DIM}")
    if len(base) > DESK_ZERO_ESTIMATE_POINTS:
        raise BudgetExceeded(f"point count {len(base)} exceeds desk scale {DESK_ZERO_ESTIMATE_POINTS}")
    if L < 1:
        raise InvalidConfig("L must be >= 1")
    if (2 * L + 1) ** mu * len(base) ** depth > budget:
        raise BudgetExceeded("character search space exceeds budget")
    sigma = product_point_set(base, depth)
    w = min_vanishing_degree(sigma, max_degree=L)
    hilbert_ambient = L ** mu
    miss = ZeroEstimateResult(
        found=False,
        character=None,
        subgroup=None,
        cosets=None,
        hilbert_sub=None,
        hilbert_ambient=hilbert_ambient,
        sigma_size=len(sigma),
        vanishing_degree=w,
        checked=0,
    )
    point_tables = power_tables(sigma)
    hilbert_sub = L ** (mu - 1)  # L^{dim H} for the kernel H of any candidate
    checked = 0
    for cand in product(range(-L, L + 1), repeat=mu):
        if not any(cand) or next(c for c in cand if c) < 0:
            continue
        checked += 1
        cosets = len({table_product(cand, tables) for tables in point_tables})
        if cosets * hilbert_sub <= hilbert_ambient:
            return replace(
                miss,
                found=True,
                character=cand,
                subgroup=_character_kernel(cand),
                cosets=cosets,
                hilbert_sub=hilbert_sub,
                checked=checked,
            )
    return replace(miss, checked=checked)
