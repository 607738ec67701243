"""Exact integer and rational matrix algebra.

Integer routines (det, Smith normal form) run on plain Python ints, so there
is no overflow and no rounding.  `echelon` is the field-generic reference
elimination: it runs over any field whose elements are immutable, support
+ - * and 1 / x exactly, and whose truthiness means "nonzero"
(fractions.Fraction, or cyclo.CycloNum), and rank and inverse are read off
its result.  Ranks and first dependencies found row by row use
cyclo.insert_row, which runs on integer rows.
Matrices are lists of lists in row-major order; no other input is mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Matrix = list[list[int]]


def copy_matrix(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(row) for row in a]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


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


def echelon(rows: Sequence[Sequence]) -> tuple[int, list[int], list[list]]:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Entries must be exact field elements (Fraction, CycloNum; plain ints
    would divide to floats).  Returns (rank, pivot columns, reduced rows):
    each pivot is 1 and the only nonzero entry of its column.  Stops once
    every row holds a pivot.
    """
    w = [list(r) for r in rows]
    m = len(w)
    n = len(w[0]) if m else 0
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        if rank == m:
            break
        pivot = next((i for i in range(rank, m) if w[i][col]), None)
        if pivot is None:
            continue
        w[rank], w[pivot] = w[pivot], w[rank]
        inv = 1 / w[rank][col]
        w[rank] = [x * inv for x in w[rank]]
        for i in range(m):
            f = w[i][col]
            if i != rank and f:
                w[i] = [x - f * y for x, y in zip(w[i], w[rank])]
        pivots.append(col)
        rank += 1
    return rank, pivots, w


def rank_rational(a: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    return echelon([[Fraction(x) for x in row] for row in a])[0]


def invert_unimodular(a: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of an integer matrix with determinant +-1.

    Gauss-Jordan on [a | I] over Fraction; the result is integral by
    unimodularity and is returned as an int matrix.
    """
    m, n = dims(a)
    if m != n:
        raise ValueError("invert_unimodular: matrix not square")
    _, pivots, w = echelon(
        [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    )
    if pivots[:n] != list(range(n)):
        raise ValueError("invert_unimodular: matrix is singular")
    if any(v.denominator != 1 for row in w for v in row[n:]):
        raise ValueError("invert_unimodular: inverse is not integral")
    return [[int(v) for v in row[n:]] for row in w]


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
    # Normalize signs, then enforce the divisibility chain on the diagonal.
    r = min(m, n)
    for i in range(r):
        if w[i][i] < 0:
            for j in range(n):
                v[j][i] = -v[j][i]
            w[i][i] = -w[i][i]
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a1, a2 = w[i][i], w[i + 1][i + 1]
            if a2 == 0 and a1 != 0:
                continue
            if a1 == 0 and a2 != 0:
                # Move the nonzero entry forward.
                w[i][i], w[i + 1][i + 1] = a2, 0
                u[i], u[i + 1] = u[i + 1], u[i]
                for row in v:
                    row[i], row[i + 1] = row[i + 1], row[i]
                changed = True
                continue
            if a1 != 0 and a2 % a1 != 0:
                g = gcd(a1, a2)
                lc = a1 // g * a2
                # 2x2 block surgery: diag(a1, a2) -> diag(g, lcm).
                # With a1 = g*p, a2 = g*q, gcd(p, q) = 1, pick x, y with
                # x*p + y*q = 1; the transforms below are unimodular.
                p, q = a1 // g, a2 // g
                x, y = _bezout(p, q)
                # Row ops on (u, w), col ops on (w, v), realized directly on
                # the 2x2 diagonal block and the transform matrices.
                # New block: [[g, 0], [0, lc]]
                # U' rows: r_i' = x*r_i + y*r_{i+1}; r_{i+1}' = -q*r_i + p*r_{i+1}
                for jj in range(m):
                    ui, ui1 = u[i][jj], u[i + 1][jj]
                    u[i][jj] = x * ui + y * ui1
                    u[i + 1][jj] = -q * ui + p * ui1
                # V' cols: c_i' = c_i + y*q*c_{i+1} ... derived from
                # [[x, y],[-q, p]] * diag(a1,a2) * [[1, -y*a2/g],[1, x*a1/g]]
                for row in v:
                    vi, vi1 = row[i], row[i + 1]
                    row[i] = vi + vi1
                    row[i + 1] = -y * q * vi + x * p * vi1
                w[i][i], w[i + 1][i + 1] = g, lc
                changed = True
    return u, w, v


def _bezout(p: int, q: int) -> tuple[int, int]:
    """x, y with x*p + y*q == gcd(p, q)."""
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_s, old_t
