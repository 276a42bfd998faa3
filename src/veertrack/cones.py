"""Transition matrices of splitting sequences, and the Hilbert projective
metric on the positive orthant of measures.

Transverse measures pull back along a split: if the branch e splits and the
branches l1, l2 lose, the old measure of e equals the new measure of e plus
the new measures of l1 and l2, every other branch keeping its value.  The
transition matrix of a word is the product of these elementary matrices in
temporal order, so (old widths) = M (new widths).  Tangential measures push
forward by the transpose.
"""

from __future__ import annotations

import itertools
import math
import statistics
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, VeertrackError
from .flow import PeriodicMatch, Trajectory
from .traintrack import dual_track, is_filling_subtrack

CONE_TOL = 1e-12


# ---------------------------------------------------------------------------
# transition matrices


class TransitionPair(NamedTuple):
    """Integer matrix pair acting on transverse (pull back) and tangential
    (push forward) measures, indexed by a fixed branch order."""

    branches: tuple[str, ...]
    transverse: tuple[tuple[int, ...], ...]

    @property
    def tangential(self) -> tuple[tuple[int, ...], ...]:
        """The transpose of the transverse matrix."""
        return tuple(zip(*self.transverse))


def compose_word(events, branches: tuple[str, ...]) -> TransitionPair:
    """Product of elementary matrices in temporal order: right-multiplying by
    a split's matrix adds the split edge's column to each loser's column."""
    idx = {b: i for i, b in enumerate(branches)}
    m = [[int(i == j) for j in range(len(branches))] for i in range(len(branches))]
    for ev in events:
        e = idx[ev.edge]
        losers = [idx[loser] for loser in ev.losers]
        for row in m:
            x = row[e]
            for j in losers:
                row[j] += x
    return TransitionPair(branches, tuple(tuple(row) for row in m))


# ---------------------------------------------------------------------------
# the Hilbert metric on the positive orthant


def hilbert_distance(x, y) -> float:
    """Hilbert projective distance on the positive orthant, whose facet
    functionals are the coordinates: d = log max x_i/y_i + log max y_j/x_j.

    Points on the orthant boundary are infinitely far from interior points;
    the distance is returned as math.inf in that case.  Points outside the
    orthant are an error.
    """
    fx, fy = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scale = max(1.0, float(np.abs(fx).max()), float(np.abs(fy).max()))
    if fx.min() < -CONE_TOL * scale or fy.min() < -CONE_TOL * scale:
        raise VeertrackError("point lies outside the positive orthant")
    if fx.min() <= CONE_TOL * scale or fy.min() <= CONE_TOL * scale:
        return math.inf
    return float(np.log(np.max(fx / fy)) + np.log(np.max(fy / fx)))


def image_diameter(matrix) -> float:
    """Hilbert diameter of the image of the positive orthant under matrix:
    the largest distance between two of its columns.

    Infinite when some column lies on the orthant boundary."""
    columns = np.asarray(matrix, dtype=float).T
    diam = 0.0
    for u, v in itertools.combinations(columns, 2):
        d = hilbert_distance(u, v)
        if math.isinf(d):
            return math.inf
        diam = max(diam, d)
    return diam


def birkhoff_coefficient(diameter: float) -> float:
    """Contraction ratio tanh(diameter / 4); 1.0 for an infinite diameter."""
    if math.isinf(diameter):
        return 1.0
    return math.tanh(diameter / 4.0)


# ---------------------------------------------------------------------------
# periodic words and pseudo-Anosov data


class PAReport(NamedTuple):
    support: frozenset
    filling: bool
    is_pseudo_anosov: bool
    lam_w: float | None
    lam_h: float | None
    entropy: float | None
    branches: tuple[str, ...]
    return_matrix: tuple[tuple[int, ...], ...] | None
    positive_power: int | None


def eigenpairs(matrix, *targets: float) -> list[tuple[float, np.ndarray]]:
    """For each target, the eigenvalue of matrix nearest it (the first of
    equally near ones) and a real eigenvector for it, from one eigensolve;
    VeertrackError unless each of those eigenvalues is real and simple.
    Only the eigensolve runs in numpy: the choice and the test read the
    eigenvalues as Python numbers."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    values = vals.tolist()
    pairs = []
    for target in targets:
        dist = [abs(v - target) for v in values]
        k = dist.index(min(dist))
        v = values[k]
        tol = 1e-6 * max(1.0, abs(v))
        if abs(v.imag) > tol or any(abs(u - v) <= tol for i, u in enumerate(values) if i != k):
            raise VeertrackError(f"eigenvalue {v:.6g} of the matrix is not real and simple")
        pairs.append((v.real, vecs[:, k].real))
    return pairs


def first_positive_power(matrix) -> int | None:
    """The least k with matrix**k entrywise positive, for a nonnegative
    matrix, or None when no k up to Wielandt's bound (n - 1)^2 + 1 gives
    one, which no larger k then does.  Only the 0/1 pattern of the powers
    is kept, one bitmask per row, so the test is exact."""
    rows = []
    for row in matrix:
        mask = 0
        for j, x in enumerate(row):
            if x > 0:
                mask |= 1 << j
        rows.append(mask)
    full = (1 << len(rows)) - 1
    power = rows
    for k in range(1, (len(rows) - 1) ** 2 + 2):
        if min(power, default=full) == full:  # no mask exceeds full
            return k
        # row i of power @ pattern joins the pattern rows that row i reaches
        product = []
        for mask in power:
            joined = 0
            for j, row in enumerate(rows):
                if mask >> j & 1:
                    joined |= row
            product.append(joined)
        power = product
    return None


def analyze_periodic_word(traj: Trajectory, match: PeriodicMatch) -> PAReport:
    """Decide whether the periodic word acts as a pseudo-Anosov map and
    extract its dilatation data.

    The return map on transverse measures is M_word composed with the inverse
    relabeling permutation; its eigenvalue nearest the match's dilatation is
    the width dilatation lam_w.
    The height dilatation lam_h is measured on the geometric tangential data
    of the matched states, so lam_w * lam_h = 1 is a genuine numeric check.
    """
    states = traj.states()
    s1, s2 = states[match.m], states[match.m2]
    branches = tuple(sorted(s1.edges))
    pair = compose_word(match.word, branches)

    # support: branches split in the word, closed under the relabeling orbit
    support = {ev.edge for ev in match.word}
    while True:
        grown = support | {match.relabel[e][0] for e in support}
        if grown == support:
            break
        support = grown
    track1, mp1 = dual_track(s1, "vertical")
    filling = is_filling_subtrack(track1, support)
    if not filling:
        return PAReport(
            frozenset(support), False, False, None, None, None, branches, None, None
        )

    # fold the word matrix with the relabeling: A = M_word P^{-1}, where
    # (P x)(e) = x(sigma(e)), so column j of A is column sigma(b_j) of M_word;
    # then the base-chart widths at the first state form an eigenvector of A
    # with eigenvalue lam_w
    idx = {b: i for i, b in enumerate(branches)}
    cols = [idx[match.relabel[b][0]] for b in branches]
    a_int = tuple(tuple(row[c] for c in cols) for row in pair.transverse)
    [(lam_w, _)] = eigenpairs(a_int, match.lam_w)

    # eigenvector check against the actual widths
    widths = [abs(float(s1.periods[b].w)) for b in branches]
    residual = [sum(a * x for a, x in zip(row, widths)) - lam_w * w for row, w in zip(a_int, widths)]
    if math.hypot(*residual) > 1e-6 * lam_w * math.hypot(*widths):
        raise VeertrackError("width vector is not an eigenvector of the folded return matrix")

    # height dilatation from the geometric tangential measures of the two
    # matched states, compared branch by branch through the relabeling
    _, mp2 = dual_track(s2, "vertical")
    ratios = []
    for e in branches:
        r1 = float(mp1.tangential[e])
        r2 = float(mp2.tangential[match.relabel[e][0]])
        if r1 > 1e-12 and r2 > 1e-12:
            ratios.append(r1 / r2)
    if not ratios:
        raise DegeneracyError("tangential measures vanish on every branch")
    # the middle ratio, or (a + b) / 2 of the two middle ones: np.median's value
    lam_h = statistics.median(ratios)
    if max(ratios) - min(ratios) > 1e-6 * max(ratios):
        raise VeertrackError("tangential ratios disagree across branches")

    return PAReport(
        frozenset(support),
        True,
        True,
        lam_w,
        lam_h,
        math.log(lam_w),
        branches,
        a_int,
        first_positive_power(a_int),
    )
