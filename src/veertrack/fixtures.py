"""Built-in test surfaces.

T2      marked torus with rational periods (exact or float mode).
GOLD    golden-ratio torus on the periodic flow orbit, float mode; stored
        flowed by t0 = -0.1 because the symmetric representative sits exactly
        at a split moment (certificate tie).
PILLOW  double of a generic parallelogram: sphere with four angle-pi points.
OCT     octagon with opposite sides identified: genus two, one 6*pi zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .surface import Surface

PHI = (1 + math.sqrt(5)) / 2


def t2(mode: str = "exact") -> Surface:
    periods = {
        "e1": (Fraction(1), Fraction(3, 10)),
        "e2": (Fraction(-2, 5), Fraction(1)),
        "e3": (Fraction(-3, 5), Fraction(-13, 10)),
    }
    tris = [
        (("e1", 1), ("e2", 1), ("e3", 1)),
        (("e1", -1), ("e2", -1), ("e3", -1)),
    ]
    return Surface(tris, periods, mode)


# The flow time at which slope_torus stores its torus: for quadratic
# irrationals x the torus sits on a periodic flow orbit, and its symmetric
# point t = 0 is a split moment (a certificate tie), so it is stored off it.
SLOPE_TORUS_OFFSET_T = -0.1


def slope_torus(x: float) -> Surface:
    """Torus spanned by (x, 1) and (1, -x), flowed by SLOPE_TORUS_OFFSET_T."""
    s = math.exp(SLOPE_TORUS_OFFSET_T)
    v1 = (x * s, 1.0 / s)
    v2 = (1.0 * s, -x / s)
    v3 = (-v1[0] - v2[0], -v1[1] - v2[1])
    periods = {"e1": v1, "e2": v2, "e3": v3}
    tris = [
        (("e2", 1), ("e1", 1), ("e3", 1)),
        (("e2", -1), ("e1", -1), ("e3", -1)),
    ]
    return Surface(tris, periods, "float")


def gold() -> Surface:
    return slope_torus(PHI)


GOLD_DILATATION = (3 + math.sqrt(5)) / 2  # Perron root of x^2 - 3x + 1
GOLD_PERIOD_T = math.log(GOLD_DILATATION)


def pillow(mode: str = "exact") -> Surface:
    """Double of the parallelogram spanned by s1=(2,9/20), s2=(-3/10,1)."""
    s1 = (Fraction(2), Fraction(9, 20))
    s2 = (Fraction(-3, 10), Fraction(1))
    dF = (s1[0] + s2[0], s1[1] + s2[1])
    dB = (s2[0] - s1[0], s2[1] - s1[1])
    periods = {"b": s1, "t": s1, "r": s2, "l": s2, "dF": dF, "dB": dB}
    tris = [
        (("b", 1), ("r", 1), ("dF", -1)),
        (("dF", 1), ("t", -1), ("l", -1)),
        (("t", 1), ("dB", 1), ("l", -1)),
        (("r", 1), ("b", -1), ("dB", -1)),
    ]
    return Surface(tris, periods, mode)


# Octagon side vectors found by a seeded search over small rationals:
# validation, suitedness, veering, unambiguous dual tracks all hold and the
# greedy reduction reaches the Delaunay triangulation without ties.
OCT_SIDES = (
    (Fraction(9, 10), Fraction(-23, 10)),
    (Fraction(2, 1), Fraction(2, 5)),
    (Fraction(2, 1), Fraction(9, 5)),
    (Fraction(-27, 10), Fraction(1, 1)),
)


def octagon(mode: str = "exact") -> Surface:
    """Octagon with opposite sides identified: genus 2, one zero of angle 6*pi."""
    d = OCT_SIDES
    partial = [(Fraction(0), Fraction(0))]
    for k in range(7):
        v = d[k] if k < 4 else (-d[k - 4][0], -d[k - 4][1])
        partial.append((partial[-1][0] + v[0], partial[-1][1] + v[1]))
    g = {k: partial[k] for k in range(2, 7)}  # diagonals p0 -> pk
    periods = {f"s{i}": d[i - 1] for i in range(1, 5)}
    periods.update({f"g{k}": g[k] for k in range(2, 7)})
    tris = [
        (("s1", 1), ("s2", 1), ("g2", -1)),
        (("g2", 1), ("s3", 1), ("g3", -1)),
        (("g3", 1), ("s4", 1), ("g4", -1)),
        (("g4", 1), ("s1", -1), ("g5", -1)),
        (("g5", 1), ("s2", -1), ("g6", -1)),
        (("g6", 1), ("s3", -1), ("s4", -1)),
    ]
    return Surface(tris, periods, mode)


BUILDERS = {
    "t2": t2,
    "gold": gold,
    "pillow": pillow,
    "octagon": octagon,
}
