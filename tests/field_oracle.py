"""Gauss-Jordan elimination over an exact field: the test oracle for the
package's one field elimination, cyclo.insert_row, and the ranks built on
it (cyclo.rank_field, intmat.rank_rational).

It divides by pivots, so it shares no step with the fraction-free
insert_row, and it returns the reduced rows the tests read inverses and
spans from.
"""

from fractions import Fraction
from typing import Sequence


def echelon(rows: Sequence[Sequence]) -> tuple[int, list[int], list[list]]:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Entries must be exact field elements, immutable, with + - * and 1 / x
    exact and truthiness meaning "nonzero": Fraction or CycloNum (plain ints
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


def rank(rows: Sequence[Sequence]) -> int:
    """echelon's rank, with int entries read as Fractions."""
    return echelon([[Fraction(x) if type(x) is int else x for x in row] for row in rows])[0]
