"""Tiny exact linear algebra over Python ints.

One fraction-free (Bareiss) elimination answers rank at desk scale
(dimensions well under a hundred); it also gives the determinant's pivot
and row-swap sign.  Matrices are sequences of integer rows.
"""

from typing import Sequence


def _eliminate(a: Sequence[Sequence[int]]) -> tuple[list[int], int, int]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (pivot columns, sign of the row swaps, last pivot).  Every entry
    after step k is a (k+1)-minor of a, so each division by the previous
    pivot is exact (Sylvester's identity); on a square matrix of full rank
    the last pivot is the determinant up to the swap sign.
    """
    rows = [list(row) for row in a]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
    return pivots, sign, prev


def rank(a: Sequence[Sequence[int]]) -> int:
    return len(_eliminate(a)[0])
