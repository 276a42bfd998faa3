"""Dual train tracks of a veering triangulation.

One branch per edge, one trivalent switch per triangle; the large half-edge
at a switch is dual to the widest (vertical track) or tallest (horizontal
track) side of the triangle.  The transverse measure is the widths, the
tangential one the rectangle heights: branches that are large at both their
switches carry 0, every other branch carries half the sum of the heights of
its small partners.
"""

import itertools
import math
from typing import NamedTuple

from . import _exact
from .errors import DegeneracyError, VeertrackError
from .surface import Surface, Triangulation, find_root


class TrainTrack(NamedTuple):
    direction: str  # "vertical" | "horizontal"
    comb: Triangulation  # the source surface's, whose occurrence index and vertex classes the regions read
    large_slots: tuple[int, ...]  # per triangle, the slot of the large branch
    branches: tuple[str, ...]  # the sorted edge labels, as track_branches gives them

    @property
    def triangles(self) -> tuple:
        return self.comb.triangles

    def switches(self) -> list[tuple[str, str, str]]:
        """(large, small1, small2) per triangle, smalls in cyclic order."""
        return [(tri[ls][0], tri[(ls + 1) % 3][0], tri[(ls + 2) % 3][0])
                for tri, ls in zip(self.triangles, self.large_slots)]

    def branch_roles(self) -> dict[str, str]:
        """'large' / 'mixed' / 'small' according to the two switch roles."""
        large_count = dict.fromkeys(self.branches, 0)
        for tri, ls in zip(self.triangles, self.large_slots):
            large_count[tri[ls][0]] += 1
        names = {2: "large", 1: "mixed", 0: "small"}
        return {b: names[c] for b, c in large_count.items()}

    def switch_matrix(self) -> list[list[int]]:
        """Rows: transverse(large) - transverse(small1) - transverse(small2)."""
        idx = {b: i for i, b in enumerate(self.branches)}
        rows = []
        for lg, s1, s2 in self.switches():
            row = [0] * len(idx)
            row[idx[lg]] += 1
            row[idx[s1]] -= 1
            row[idx[s2]] -= 1
            rows.append(row)
        return rows


def track_branches(triangles) -> tuple[str, ...]:
    """The sorted edge labels of triangles, the branches of a track on them."""
    return tuple(sorted({e for tri in triangles for e, _ in tri}))


class MeasurePair(NamedTuple):
    transverse: dict
    tangential: dict


def large_slots(num, triangles, periods, direction: str) -> tuple[int, ...]:
    """Per triangle, the slot of its strictly widest (vertical track) or
    tallest (horizontal track) side, read from periods, which map each edge
    to a (w, h) pair (a surface's own or the view of NumberMode.scaled);
    DegeneracyError when a triangle has no strictly largest side, as
    NumberMode.tie(second, top, 1e-9) decides, inline for 0 <= second <= top."""
    if direction not in ("vertical", "horizontal"):
        raise ValueError(f"bad direction {direction!r}")
    k = 0 if direction == "vertical" else 1
    tol = num.slack(1e-9)
    out = []
    for t, ((x, _), (y, _), (z, _)) in enumerate(triangles):
        a, b, c = abs(periods[x][k]), abs(periods[y][k]), abs(periods[z][k])
        # the slot of a largest value, that value and the runner-up; which
        # of two equal leaders is taken does not matter, as they tie below
        if a > b and a > c:
            largest, top, second = 0, a, (b if b > c else c)
        elif b > c:
            largest, top, second = 1, b, (a if a > c else c)
        else:
            largest, top, second = 2, c, (a if a > b else b)
        # the tie with the largest value loosens as a value grows, so a side
        # ties the largest only if the runner-up does
        if (top - second <= tol * (top if top > 1 else 1)) if tol else second == top:
            raise DegeneracyError(f"triangle {t}: no strictly largest side for the {direction} track")
        out.append(largest)
    return tuple(out)


def dual_track(s: Surface, direction: str = "vertical") -> tuple[TrainTrack, MeasurePair]:
    """Dual track plus its transverse/tangential measure pair.

    Measures are taken in the base chart (flow parameter factored out), so
    the inner product with the tangential heights equals the area for every
    flow time.  The track and the tangential sums read the view of
    NumberMode.scaled, and each branch's sum is unscaled once.
    """
    num = s.num
    scale, view = num.scaled(s.periods)
    slots = large_slots(num, s.triangles, view, direction)
    track = TrainTrack(direction, s.comb, slots, track_branches(s.triangles))
    k = 0 if direction == "vertical" else 1

    transverse = {e: abs(p[k]) for e, p in s.periods.items()}
    sums = dict.fromkeys(view, 0)
    for lg, s1, s2 in track.switches():
        # at this switch, each small carries half its partner's other coordinate
        sums[s1] += abs(view[s2][1 - k])
        sums[s2] += abs(view[s1][1 - k])
    for e, role in track.branch_roles().items():
        if role == "large":
            sums[e] = 0
    tangential = {e: num.unscaled(x, 2 * scale) for e, x in sums.items()}
    return track, MeasurePair(transverse, tangential)


# ---------------------------------------------------------------------------
# complementary regions


def _region_data(track: TrainTrack):
    """(region polygon sizes, corner->region), from the vertex classes."""
    classes = track.comb.vertex_classes()
    corner_region: dict[tuple[int, int], int] = {}
    sizes = []
    for ridx, cls in enumerate(classes):
        cusps = 0
        for (t, i) in cls:
            corner_region[(t, i)] = ridx
            if track.large_slots[t] == (i + 1) % 3:
                cusps += 1  # the corner opposite the large side is a cusp
        sizes.append(cusps)
    return sizes, corner_region


def complementary_regions(track: TrainTrack) -> dict[int, int]:
    """Census by ribbon traversal, {n: multiplicity}: one n-gon per cone
    point of angle n*pi."""
    counts: dict[int, int] = {}
    for n in _region_data(track)[0]:
        counts[n] = counts.get(n, 0) + 1
    return counts


def _branch_region_edges(occ, corner_region):
    """branch -> (region id, region id) of its two sides, from the index occ."""
    return {e: (corner_region[t, i], corner_region[t, (i + 1) % 3]) for e, ((t, i, _), _) in occ.items()}


def is_filling_subtrack(track: TrainTrack, branches) -> bool:
    """The subtrack on the given branch labels fills iff every complementary
    component of it is a disk or once-punctured disk.

    Deleting a branch merges the regions on its two sides across a rectangle,
    so a component with k regions and d deleted branches has Euler number
    k - d: every component is a disk iff no deletion joins a component to
    itself (the regions form a forest), and the punctures a component holds
    are the marked regions (at most two cusps) in it.
    """
    support = frozenset(branches)
    if not support:
        raise VeertrackError("empty support")
    unknown = support - set(track.branches)
    if unknown:
        raise VeertrackError(f"support contains unknown branches {sorted(unknown)}")
    sizes, corner_region = _region_data(track)
    sides = _branch_region_edges(track.comb.occurrences(), corner_region)
    parent = list(range(len(sizes)))
    marked = [n <= 2 for n in sizes]  # per root: its component holds a puncture
    for e in track.branches:
        if e in support:
            continue
        r1, r2 = (find_root(parent, r) for r in sides[e])
        if r1 == r2 or (marked[r1] and marked[r2]):
            return False
        parent[r1] = r2
        marked[r2] |= marked[r1]
    return True


# ---------------------------------------------------------------------------
# vertex curves


def extreme_rays_nonneg(rows, n: int) -> list[tuple[int, ...]]:
    """Minimal integral extreme rays of {x >= 0, rows . x = 0}, rows integral.

    Double description on sparse rows and primitive rays with bitmask
    supports: a row keeps the rays it vanishes on and combines a ray it makes
    positive with one it makes negative unless another ray's support lies in
    the union of theirs (the rays kept are the extreme ones, so this is the
    adjacency test).  _exact.spans_kernel certifies each ray returned."""
    sparse = [[(i, a) for i, a in enumerate(row) if a] for row in rows]
    rays = {(0,) * i + (1,) + (0,) * (n - 1 - i): 1 << i for i in range(n)}
    for row in sparse:
        kept, signed = {}, ([], [])
        for r, sup in rays.items():
            d = 0
            for i, a in row:
                d += a * r[i]
            if d:
                signed[d < 0].append((r, d, sup))
            else:
                kept[r] = sup
        for (u, du, su), (v, dv, sv) in itertools.product(*signed):
            sup = su | sv
            for k in rays.values():
                if k & sup == k and k != su and k != sv:
                    break
            else:
                comb = [du * vi - dv * ui for ui, vi in zip(u, v)]
                g = math.gcd(*comb)
                kept[tuple([x // g for x in comb] if g > 1 else comb)] = sup
        rays = kept
    return sorted(r for r in rays if _exact.spans_kernel(sparse, r))


def vertex_curves(track: TrainTrack) -> list[tuple[int, ...]]:
    """Integral extreme rays of the transverse-measure polytope of the track,
    indexed like track.branches."""
    return extreme_rays_nonneg(track.switch_matrix(), len(track.branches))


# ---------------------------------------------------------------------------
# splits (the flow module drives them through delaunay.flip, which exchanges
# the diagonal of the quadrilateral whose sides split_roles reads)


def split_roles(sides, direction: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """(losers, winners) of a split of the diagonal of the quadrilateral with
    sides a, b, c, d (as quad_sides gives them): a left split keeps the sides
    that follow the diagonal in each triangle, a and c, as the losers."""
    a, b, c, d = (side[0] for side in sides)
    return ((a, c), (b, d)) if direction == "L" else ((b, d), (a, c))
