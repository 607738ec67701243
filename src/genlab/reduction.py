"""Exact integer LLL reduction.

All-integer variant carrying the Gram-Schmidt data as integers
lambda[i][j] and subdeterminants d[i], so no floating point enters the
reduction and results are bit-for-bit deterministic.  Quality parameter
is fixed at delta = 3/4.  Input rows must be linearly independent.
"""

from __future__ import annotations

from fractions import Fraction


def _dot(u: list[int], v: list[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Return an LLL-reduced basis of the lattice spanned by the rows.

    Raises ValueError if the rows are linearly dependent.
    """
    n = len(basis)
    if n == 0:
        return []
    width = len(basis[0])
    if any(len(row) != width for row in basis):
        raise ValueError("ragged basis")
    b = [list(row) for row in basis]
    if n == 1:
        if all(x == 0 for x in b[0]):
            raise ValueError("dependent rows")
        return b

    # 1-based arrays; lam[k][j] valid for j < k, d[0..n]
    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])  # round to nearest
            for col in range(width):
                b[k - 1][col] -= q * b[l - 1][col]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_t = lam[k][k - 1]
        bb = (d[k - 2] * d[k] + lam_t * lam_t) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lam_t * t) // d[k - 1]
            lam[i][k - 1] = (bb * t + lam_t * lam[i][k]) // d[k]
        d[k - 1] = bb

    kmax = 1
    d[1] = _dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("dependent rows")
    k = 2
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = _dot(b[k - 1], b[j - 1])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
            if d[k] == 0:
                raise ValueError("dependent rows")
        while True:
            red(k, k - 1)
            if 4 * (d[k] * d[k - 2] + lam[k][k - 1] ** 2) < 3 * d[k - 1] ** 2:
                swap(k, kmax)
                k = max(2, k - 1)
            else:
                for l in range(k - 2, 0, -1):
                    red(k, l)
                k += 1
                break
    return b


def gram_schmidt_data(basis: list[list[int]]):
    """Rational Gram-Schmidt: returns (mu, norms2) with mu lower triangular
    and norms2[i] = |b_i*|^2 as Fractions.  Independent verification tool."""
    n = len(basis)
    ortho: list[list[Fraction]] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms2: list[Fraction] = []
    for i in range(n):
        vec = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms2[j] == 0:
                raise ValueError("dependent rows")
            mu[i][j] = sum(
                Fraction(basis[i][t]) * ortho[j][t] for t in range(len(vec))
            ) / norms2[j]
            vec = [v - mu[i][j] * o for v, o in zip(vec, ortho[j])]
        ortho.append(vec)
        norms2.append(sum(v * v for v in vec))
    return mu, norms2


def knapsack_basis(scaled: list[tuple[int, ...]]) -> list[list[int]]:
    """Rows [e_i | scaled_i...]: the standard basis for hunting an integer
    relation among reals or complex numbers whose scaled approximations are
    given, one integer tuple per entry (e.g. (re,) or (re, im)); all tuples
    must have the same length.  A short row's tail holds the combination."""
    n = len(scaled)
    return [[int(i == j) for j in range(n)] + list(entry) for i, entry in enumerate(scaled)]
