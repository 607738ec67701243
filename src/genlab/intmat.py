"""Exact integer matrix algebra: determinant and Smith normal form.

Both run on plain Python ints, so there is no overflow and no rounding.
rank_rational is cyclo.rank_field on rational entries: the package has one
elimination over a field, cyclo.insert_row.  Matrices are lists of lists in
row-major order; no input is mutated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cyclo import rank_field

Matrix = list[list[int]]


def copy_matrix(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in a]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return []
    if len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions disagree")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dims(a: Sequence[Sequence[int]]) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    return m, n


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    m, n = dims(a)
    if m != n:
        raise ValueError("det: matrix not square")
    if m == 0:
        return 1
    w = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(m - 1):
        if w[k][k] == 0:
            for i in range(k + 1, m):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[m - 1][m - 1]


def rank_rational(a: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over the rationals (cyclo.rank_field)."""
    return rank_field(a)


def _min_abs_pivot(w: Matrix, t: int, m: int, n: int) -> tuple[int, int] | None:
    """Nonzero entry of minimal absolute value in w[t:, t:].

    Ties are broken by smallest (row, column), which keeps the whole
    reduction deterministic.
    """
    best = None
    best_abs = None
    for i in range(t, m):
        for j in range(t, n):
            v = w[i][j]
            if v != 0:
                av = -v if v < 0 else v
                if best_abs is None or av < best_abs:
                    best, best_abs = (i, j), av
                    if av == 1:
                        return best
    return best


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S of an integer matrix with transforms.

    Returns (u, s, v) with u * a * v == s, |det u| == |det v| == 1, s
    diagonal with nonnegative entries and s[i][i] dividing s[i+1][i+1].
    Pivots are chosen by minimal absolute value, ties by position, so the
    output is deterministic.
    """
    m, n = dims(a)
    w = copy_matrix(a)
    u = identity(m)
    v = identity(n)
    t = 0
    while t < min(m, n):
        pos = _min_abs_pivot(w, t, m, n)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            w[t], w[pi] = w[pi], w[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in w:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        # Clear column t then row t; a failed divisibility re-enters the loop
        # with a strictly smaller pivot, so this terminates.
        dirty = False
        piv = w[t][t]
        for i in range(t + 1, m):
            if w[i][t] != 0:
                q = w[i][t] // piv
                if q:
                    for j in range(t, n):
                        w[i][j] -= q * w[t][j]
                    for j in range(m):
                        u[i][j] -= q * u[t][j]
                if w[i][t] != 0:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if w[t][j] != 0:
                q = w[t][j] // piv
                if q:
                    for i in range(t, m):
                        w[i][j] -= q * w[i][t]
                    for i in range(n):
                        v[i][j] -= q * v[i][t]
                if w[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Divisibility sweep: pivot must divide every remaining entry.
        fixed = False
        for i in range(t + 1, m):
            if fixed:
                break
            for j in range(t + 1, n):
                if w[i][j] % piv != 0:
                    for jj in range(t, n):
                        w[t][jj] += w[i][jj]
                    for jj in range(m):
                        u[t][jj] += u[i][jj]
                    fixed = True
                    break
        if fixed:
            continue
        t += 1
    # Normalize signs.  The chain needs no repair: t advances only once the
    # pivot divides every entry of w[t+1:, t+1:], and everything after that
    # combines entries of that block, so s[t][t] divides s[t+1][t+1]; the
    # loop stops at the first all-zero block, so the zeros trail.
    for i in range(min(m, n)):
        if w[i][i] < 0:
            for j in range(n):
                v[j][i] = -v[j][i]
            w[i][i] = -w[i][i]
    return u, w, v
