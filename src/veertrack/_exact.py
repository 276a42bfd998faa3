"""Tiny exact linear algebra over Python ints.

One fraction-free (Bareiss) elimination answers rank at desk scale
(dimensions well under a hundred); it also gives the determinant's pivot
and row-swap sign.  Matrices are sequences of integer rows, or, for
spans_kernel, sparse rows of (index, coefficient) pairs.
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


def spans_kernel(sparse, r: Sequence[int]) -> bool:
    """Whether r spans the kernel of A_S, the columns of A (sparse rows) on
    the support S of r: A r = 0 and rank A_S = |S| - 1.  For r >= 0 that
    certifies r as an extreme ray of {x >= 0, A x = 0}.

    The rank is first taken mod 2, by XOR elimination on the rows' odd
    entries as bitmasks.  An odd minor is nonzero, so rank_2 <= rank_Q, and
    r is a nonzero rational kernel vector on S, so rank_Q <= |S| - 1:
    rank_2 = |S| - 1 forces rank_Q = |S| - 1.  Only when rank_2 falls short
    (every (|S| - 1)-minor is even) is the exact rank taken.
    """
    basis: list[int] = []
    for row in sparse:
        d = m = 0
        for i, a in row:
            if r[i]:
                d, m = d + a * r[i], m | (a & 1) << i
        if d:
            return False
        for b in basis:  # b clears its leading bit, which no later b sets
            m = min(m, m ^ b)
        if m:
            basis.append(m)
    size = len(r) - r.count(0)
    if len(basis) == size - 1:
        return True
    cols = [i for i, x in enumerate(r) if x]
    return size - rank([[dict(row).get(i, 0) for i in cols] for row in sparse]) == 1
