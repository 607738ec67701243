"""Integer LLL: reducedness certificates and lattice preservation."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from genlab.reduction import gram_schmidt_data, knapsack_basis, lll_reduce


def is_lll_reduced(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> bool:
    # the textbook size and Lovasz conditions on the rational Gram-Schmidt data
    mu, norms2 = gram_schmidt_data(basis)
    n = len(basis)
    for i in range(n):
        for j in range(i):
            if 2 * abs(mu[i][j]) > 1:
                return False
    for k in range(1, n):
        if norms2[k] < (delta - mu[k][k - 1] ** 2) * norms2[k - 1]:
            return False
    return True


def same_lattice(a: list[list[int]], b: list[list[int]]) -> bool:
    """Each row of b must be an integer combination of rows of a, and vice versa."""

    def contained(rows, gens):
        for target in rows:
            # solve x * gens = target over Q by Gaussian elimination
            m = [[Fraction(v) for v in g] for g in gens]
            t = [Fraction(v) for v in target]
            ncols = len(t)
            aug = [m[i] + [Fraction(1 if j == i else 0) for j in range(len(gens))] for i in range(len(gens))]
            # row reduce the generator matrix, tracking combinations
            pivots = []
            r = 0
            for c in range(ncols):
                piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
                if piv is None:
                    continue
                aug[r], aug[piv] = aug[piv], aug[r]
                inv = 1 / aug[r][c]
                aug[r] = [v * inv for v in aug[r]]
                for i in range(len(aug)):
                    if i != r and aug[i][c] != 0:
                        f = aug[i][c]
                        aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
                pivots.append(c)
                r += 1
            coeffs = [Fraction(0)] * len(gens)
            residual = list(t)
            for row_idx, c in enumerate(pivots):
                f = residual[c]
                if f != 0:
                    residual = [v - f * w for v, w in zip(residual, aug[row_idx][:ncols])]
                    for j in range(len(gens)):
                        coeffs[j] += f * aug[row_idx][ncols + j]
            if any(v != 0 for v in residual):
                return False
            if any(x.denominator != 1 for x in coeffs):
                return False
        return True

    return contained(b, a) and contained(a, b)


def test_already_reduced_identity():
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(basis) == basis


def test_classic_example():
    basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
    out = lll_reduce(basis)
    assert is_lll_reduced(out)
    assert same_lattice(basis, out)


def test_reduction_shrinks_first_vector():
    basis = [[201, 37], [1648, 297]]
    out = lll_reduce(basis)
    assert is_lll_reduced(out)
    assert same_lattice(basis, out)
    norm_in = min(sum(v * v for v in row) for row in basis)
    norm_out = sum(v * v for v in out[0])
    assert norm_out <= norm_in


def test_golden_ratio_relation_hunt():
    # scaled approximations of (1, phi): a short vector encodes m + n*phi ~ 0
    scale = 2**40
    phi = (1 + math.sqrt(5)) / 2
    rows = knapsack_basis([(scale,), (round(phi * scale),)])
    out = lll_reduce(rows)
    m, n, resid = out[0]
    assert (m, n) != (0, 0)
    assert abs(m + n * phi) < 1e-5
    # the combination must actually be the residual column
    assert resid == m * scale + n * round(phi * scale)


def test_knapsack_basis_two_columns():
    # (re, im) pairs: rows are [e_i | re_i, im_i]
    assert knapsack_basis([(3, -1), (5, 7), (0, 2)]) == [
        [1, 0, 0, 3, -1],
        [0, 1, 0, 5, 7],
        [0, 0, 1, 0, 2],
    ]
    # i and 2i + 1 scaled by 2^30: the short vector is the relation 2*(i) - (2i + 1) + 1 = 0
    scale = 2**30
    rows = knapsack_basis([(0, scale), (scale, 2 * scale), (scale, 0)])
    out = lll_reduce(rows)
    assert [2, -1, 1, 0, 0] in out or [-2, 1, -1, 0, 0] in out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_bases_certified_reduced(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    width = n + rng.randint(0, 2)
    while True:
        basis = [[rng.randint(-50, 50) for _ in range(width)] for _ in range(n)]
        _, norms2 = gram_schmidt_data_or_none(basis)
        if norms2 is not None and all(v != 0 for v in norms2):
            break
    out = lll_reduce(basis)
    assert is_lll_reduced(out)
    assert same_lattice(basis, out)


def gram_schmidt_data_or_none(basis):
    try:
        return gram_schmidt_data(basis)
    except ValueError:
        return None, None


def test_dependent_rows_rejected():
    import pytest

    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        lll_reduce([[0, 0]])
