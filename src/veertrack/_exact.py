"""Tiny exact linear algebra over Fraction.

Just enough for determinants, ranks, kernels and span membership at desk
scale (dimensions well under a hundred).  Matrices are sequences of rows;
vectors are sequences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def mat_det(a: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Fraction."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def rref(a: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    if not a:
        return [], []
    rows = [[Fraction(x) for x in row] for row in a]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a: Sequence[Sequence]) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel of a (rows are constraints)."""
    if not a:
        n = ncols or 0
        return [[Fraction(i == j) for j in range(n)] for i in range(n)]
    n = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def in_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """Whether target lies in the linear span of the given vectors (exact)."""
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    rows = [list(v) for v in vectors]
    return rank(rows) == rank(rows + [list(target)])


def scale_to_integers(v: Sequence[Fraction]) -> list[int]:
    """Smallest positive integer multiple of a rational vector."""
    from math import gcd, lcm

    fracs = [Fraction(x) for x in v]
    den = lcm(*[f.denominator for f in fracs]) if fracs else 1
    ints = [int(f * den) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints
