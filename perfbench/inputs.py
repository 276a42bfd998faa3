"""Seeded inputs for the benchmark workloads, written as JSON surface documents.

Only the ``veertrack.fixtures`` builders and this file's own arithmetic are
used here, never a function the benchmark measures (no parser, serializer or
flow), so a change to a measured layer cannot change the inputs.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from veertrack import fixtures

# Slope tori x_n = (n + sqrt(n^2 + 4)) / 2 lie on periodic flow orbits with
# dilatation x_n^2 and a word L^n R^n of length 2n.  Windows stop at T = 16:
# past t ~ 19 float mode loses the orbit (a known defect, not a workload).
SLOPE_NS = tuple(range(1, 9))
WINDOWS_PER_N = 5
T_LO, T_HI = 8.0, 16.0

LAB_NS = (1, 2, 3)
LAB_SEEDS_PER_N = 5

# Census inputs are drawn from a fixed universe of sheared fixtures, so that
# every input has an entry in the exit-code and output-digest record.  The
# sample sizes differ so that the median invocation falls inside the dense
# cluster of pillow tracks, not on the gap above the t2 invocations; equal
# sizes put it exactly there, and the median then jumps with the seed.
CENSUS_UNIVERSE = 64
CENSUS_SAMPLE = {"t2": 12, "pillow": 16, "octagon": 20}


def slope(n: int) -> float:
    return (n + math.sqrt(n * n + 4)) / 2


def period_t(n: int) -> float:
    """Flow time of one period of the slope torus x_n: log of its dilatation."""
    return 2 * math.log(slope(n))


def _number(x, mode: str):
    if mode == "float":
        return float(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def surface_doc(triangles, periods: dict, mode: str) -> str:
    """The JSON document of a surface, in the format the CLI reads."""
    doc = {
        "mode": mode,
        "edges": {e: [_number(w, mode), _number(h, mode)] for e, (w, h) in sorted(periods.items())},
        "triangles": [[{"edge": e, "sign": sg} for e, sg in tri] for tri in triangles],
    }
    return json.dumps(doc, indent=2) + "\n"


def slope_torus_doc(n: int) -> str:
    s = fixtures.slope_torus(slope(n))
    return surface_doc(s.triangles, {e: (p.w, p.h) for e, p in s.periods.items()}, s.mode)


def windows(rng: random.Random) -> list[float]:
    """Stratified windows: one uniform draw in the top quarter of each of
    WINDOWS_PER_N equal slices of [T_LO, T_HI].  Every seed then has nearly
    the same spread of costs, so the median invocation moves little with
    the seed, and every seed has a window within 0.4 of T_HI, where the
    float drift is largest."""
    width = (T_HI - T_LO) / WINDOWS_PER_N
    return [round(T_LO + width * (j + 1 - rng.random() / 4), 6) for j in range(WINDOWS_PER_N)]


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


@functools.cache
def census_universe(name: str) -> tuple[dict, ...]:
    """CENSUS_UNIVERSE distinct shears of fixture `name`.  Each is a product
    of three elementary rational shears (det 1, so orientation is kept);
    draws that give some period a zero coordinate are dropped."""
    base = fixtures.BUILDERS[name]("exact")
    rng = random.Random(f"census:{name}")
    one, zero = Fraction(1), Fraction(0)
    universe, seen = [], set()
    while len(universe) < CENSUS_UNIVERSE:
        m = ((one, zero), (zero, one))
        for _ in range(3):
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m = _mat_mul(m, ((one, s), (zero, one)) if rng.random() < 0.5 else ((one, zero), (s, one)))
        periods = {
            e: (m[0][0] * p.w + m[0][1] * p.h, m[1][0] * p.w + m[1][1] * p.h)
            for e, p in base.periods.items()
        }
        if m not in seen and all(w != 0 and h != 0 for w, h in periods.values()):
            seen.add(m)
            universe.append(periods)
    return tuple(universe)


def census_doc(name: str, index: int) -> str:
    base = fixtures.BUILDERS[name]("exact")
    return surface_doc(base.triangles, census_universe(name)[index], "exact")


def exact_area(doc: str) -> Fraction:
    """Total area of an exact document by the shoelace formula: half the
    cross product of the first two signed sides of each triangle."""
    d = json.loads(doc)
    periods = {e: (Fraction(w), Fraction(h)) for e, (w, h) in d["edges"].items()}
    total = Fraction(0)
    for tri in d["triangles"]:
        (e1, s1), (e2, s2) = ((side["edge"], side["sign"]) for side in tri[:2])
        u = (s1 * periods[e1][0], s1 * periods[e1][1])
        v = (s2 * periods[e2][0], s2 * periods[e2][1])
        total += (u[0] * v[1] - u[1] * v[0]) / 2
    return total


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
