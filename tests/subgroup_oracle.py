"""The subgroup a group of torus characters cuts out, from the Smith normal
form: the test oracle for the one-character kernel that
chars.zero_estimate_search builds from a gcd.

For the generator matrix A with U*A*V = S, the kernel has dimension
ambient - rank, its torsion is the invariant factors > 1, and its
saturated annihilator is the first rank rows of U*A, each divided by its
invariant factor: with W = V^-1 the rows of U*A = S*W are d_i w_i, so no
matrix is inverted.
"""

from typing import Sequence

from genlab.chars import SubgroupDescriptor
from genlab.intmat import matmul, smith_normal_form


def invariant_factors(rows: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero diagonal entries of the Smith form of rows."""
    _, s, _ = smith_normal_form(rows)
    return [s[i][i] for i in range(min(len(s), len(s[0]))) if s[i][i]]


def saturation_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the saturation {x : k*x in the row lattice for some k != 0}:
    the first rank rows of U*A, each divided exactly by its invariant
    factor."""
    u, s, _ = smith_normal_form(rows)
    factors = invariant_factors(rows)
    ua = matmul(u[: len(factors)], [list(r) for r in rows])
    return [[x // d for x in row] for d, row in zip(factors, ua)]


def kernel_subgroup(rows: Sequence[Sequence[int]], ambient_dim: int) -> SubgroupDescriptor:
    """The subgroup on which every character of rows equals 1."""
    if not rows:
        return SubgroupDescriptor(ambient_dim, (), ambient_dim, ())
    factors = invariant_factors(rows)
    return SubgroupDescriptor(
        ambient_dim=ambient_dim,
        annihilator=tuple(tuple(row) for row in saturation_basis(rows)),
        dim=ambient_dim - len(factors),
        torsion=tuple(d for d in factors if d > 1),
    )
