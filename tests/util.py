"""Shared helpers for the test suite: random suited surfaces, scrambles,
exact trajectory prefixes, and oracles: brute-force ones, exact algebra on
veertrack._exact's elimination, a combinatorial split path beside the
flow's, and the split event and checkpoint reads in their earlier,
several-pass forms, the eigenvalue choice and the primitivity test on
numpy arrays, the periodicity search in its earlier whole-trajectory
order, the double description in its earlier dense form, and the
contraction fit whose trials each flow from scratch."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from veertrack._exact import _eliminate, rank
from veertrack.cones import TransitionPair, compose_word
from veertrack.delaunay import (
    MAX_FLIPS,
    FlipRecord,
    build_quad,
    delaunay_violations,
    flip,
    greedy_delaunay,
    linf_scaled,
    quad,
    slope_sign,
)
from veertrack.errors import DegeneracyError, NotFlippableError, VeertrackError
from veertrack.fixtures import octagon, t2
from veertrack.flow import (
    FLOAT_EVENT_TIE,
    PeriodicMatch,
    PeriodicMatcher,
    SplitEvent,
    Trajectory,
    _may_match,
    _signature,
    _triangle_isomorphisms,
    lam_after,
    next_split,
    run_flow,
)
from veertrack.lab import (
    ROUNDOFF_FLOOR,
    ContractionFit,
    _roundoff_unit,
    _stable_distance,
    perturb_heights,
)
from veertrack.surface import (
    EPS_ANGLE,
    Surface,
    ValidationReport,
    edge_occurrences,
    exchange_diagonal,
    find_root,
    parse_surface,
    quad_sides,
    rebase,
    validate,
)
from veertrack.traintrack import (
    MeasurePair,
    TrainTrack,
    _branch_region_edges,
    _region_data,
    dual_track,
    large_slots,
    split_roles,
    track_branches,
    vertex_curves,
)


def linf_length(p) -> object:
    """max(|w|, |h|) of a period or plain (w, h) pair."""
    return max(abs(p[0]), abs(p[1]))


def total_linf(s: Surface) -> float:
    """Sum of flowed L-infinity edge lengths (the greedy's potential)."""
    return sum(linf_scaled(s, s.periods[e]) for e in s.edges)


def is_delaunay(s: Surface) -> bool:
    return not delaunay_violations(s)


def full_pass_greedy(s: Surface):
    """The reference for greedy_delaunay: one full certificate pass on the
    surface's own periods before every flip, and a new Surface per flip."""
    records = []
    cur = s
    for _ in range(MAX_FLIPS):
        bad = delaunay_violations(cur)
        if not bad:
            return cur, records
        bad.sort(key=lambda e: (-linf_scaled(cur, cur.periods[e]), e))
        old = cur.periods[bad[0]]
        records.append(FlipRecord(bad[0], (old.w, old.h), quad(cur, bad[0]).diagonal))
        cur = flip(cur, bad[0], cur.lam)
    raise VeertrackError(f"greedy did not terminate within {MAX_FLIPS} flips")


def _signed(s: Surface, t: int, slot: int) -> tuple:
    e, sg = s.triangles[t][slot % 3]
    p = s.periods[e]
    return (p.w, p.h) if sg > 0 else (-p.w, -p.h)


def trapezoid_area(sides) -> object:
    """Largest width times largest height, minus half the sum of the per-edge
    width-height products.  Valid for triangles carrying both slope signs."""
    ws = [abs(p[0]) for p in sides]
    hs = [abs(p[1]) for p in sides]
    return max(ws) * max(hs) - sum(w * h for w, h in zip(ws, hs)) / 2


def one_triangle(sides, mode: str) -> Surface:
    """A surface of the one triangle with the given sides, each its own edge;
    area reads nothing else."""
    return Surface([(("a", 1), ("b", 1), ("c", 1))], dict(zip("abc", sides)), mode)


def _reference_corner_angle(s: Surface, t: int, i: int) -> float:
    uw, uh = _signed(s, t, i)
    vw, vh = _signed(s, t, (i - 1) % 3)
    uw, uh, vw, vh = float(uw), float(uh), float(-vw), float(-vh)
    return math.atan2(uw * vh - uh * vw, uw * vw + uh * vh) % (2 * math.pi)


def reference_validate(s: Surface) -> ValidationReport:
    """The reference for validate: every test on the surface's own numbers
    (Fractions in exact mode), corner by corner."""
    violations = []
    slack = s.num.slack(1e-9)
    if not s.triangles:
        return ValidationReport(False, (("empty", "surface", "no triangles"),))
    occ = edge_occurrences(s.triangles)
    for e, occs in occ.items():
        if e not in s.periods:
            violations.append(("gluing", e, "edge has no period"))
        elif len(occs) != 2:
            violations.append(("gluing", e, f"edge used {len(occs)} times"))
    for e in s.periods:
        if e not in occ:
            violations.append(("gluing", e, "edge used 0 times"))
    if violations:
        return ValidationReport(False, tuple(violations))
    components = len(glued_components(s))
    if components > 1:
        violations.append(("connected", "surface", f"the triangles form {components} components"))

    disagreements = []
    shoelace = s.num.coerce(0)
    for t in range(len(s.triangles)):
        sides = [_signed(s, t, i) for i in range(3)]
        sw = sum(p[0] for p in sides)
        sh = sum(p[1] for p in sides)
        if abs(sw) > slack or abs(sh) > slack:
            violations.append(("zero-sum", f"triangle {t}", f"signed periods sum to ({sw}, {sh})"))
        cr = sides[0][0] * sides[1][1] - sides[0][1] * sides[1][0]
        if not cr > slack:
            violations.append(("orientation", f"triangle {t}", f"cross product {cr} not positive"))
        a1 = cr / 2
        shoelace += a1
        if len({(p[0] > 0) == (p[1] > 0) for p in sides}) == 2:
            a2 = trapezoid_area(sides)
            if not s.num.tie(a1, a2, 1e-12):
                disagreements.append(("area", f"triangle {t}", f"area formulas disagree ({a1} vs {a2})"))

    for e, p in s.periods.items():
        if s.num.axis_parallel(p):
            violations.append(("axis", e, f"axis-parallel period ({p.w}, {p.h})"))

    if not any(v[0] in ("zero-sum", "orientation") for v in violations):
        for idx, cls in enumerate(s.vertex_classes()):
            total = sum(_reference_corner_angle(s, t, i) for t, i in cls)
            k = total / math.pi
            if not math.isfinite(k) or abs(k - round(k)) > EPS_ANGLE * max(1.0, abs(k)) or round(k) < 1:
                violations.append(("cone-angle", f"vertex {idx}", f"total angle {total} is not a multiple of pi"))

    if not violations:
        violations = disagreements
    return ValidationReport(not violations, tuple(violations), None if violations else shoelace)


def glued_components(s: Surface) -> list[set[int]]:
    """The triangle indices of each connected component of s, found by a
    flood fill across edges from the lowest unreached triangle."""
    occ = edge_occurrences(s.triangles)
    unreached = set(range(len(s.triangles)))
    components = []
    while unreached:
        stack = [min(unreached)]
        component = set(stack)
        while stack:
            for e, _ in s.triangles[stack.pop()]:
                for u, _, _ in occ[e]:
                    if u not in component:
                        component.add(u)
                        stack.append(u)
        unreached -= component
        components.append(component)
    return components


def disjoint_copies(s: Surface, count: int = 2) -> Surface:
    """One surface of count disjoint copies of s: s itself, then s with
    every label suffixed by b, c, ..."""
    suffixes = ["", *"bcdefgh"[: count - 1]]
    triangles = [tuple((e + x, sg) for e, sg in tri) for x in suffixes for tri in s.triangles]
    periods = {e + x: p for x in suffixes for e, p in s.periods.items()}
    return Surface(triangles, periods, s.mode)


def reference_triangle_isomorphisms(s1: Surface, s2: Surface):
    """The reference for flow._triangle_isomorphisms: the walk that also
    checks each neighbour's image against the one it was given first, scans
    both occurrence lists for the neighbours, and keeps a candidate only if
    it reached every triangle and every edge."""
    tris1, tris2 = s1.triangles, s2.triangles
    if len(tris1) != len(tris2):
        return
    occ1, occ2 = s1.occurrences(), s2.occurrences()
    for t0 in range(len(tris2)):
        for rot in range(3):
            sigma: dict[str, tuple[str, int]] = {}
            used: set[str] = set()
            tri_map = {0: (t0, rot)}
            stack = [0]
            ok = True
            while stack and ok:
                t = stack.pop()
                tt, rr = tri_map[t]
                for i in range(3):
                    e, sg = tris1[t][i]
                    e2, sg2 = tris2[tt][(i + rr) % 3]
                    f = sg * sg2
                    if e in sigma:
                        if sigma[e] != (e2, f):
                            ok = False
                            break
                    else:
                        if e2 in used:
                            ok = False
                            break
                        sigma[e] = (e2, f)
                        used.add(e2)
                    for tn, jn, _ in occ1[e]:
                        if tn == t and jn == i:
                            continue
                        for tn2, jn2, _ in occ2[e2]:
                            if tn2 == tt and jn2 == (i + rr) % 3:
                                continue
                            if tn in tri_map:
                                if tri_map[tn] != (tn2, (jn2 - jn) % 3):
                                    ok = False
                            else:
                                tri_map[tn] = (tn2, (jn2 - jn) % 3)
                                stack.append(tn)
            if ok and len(tri_map) == len(tris1) and len(sigma) == len(s1.periods):
                yield sigma


def sampled_thick_fraction(traj, eps: float, step: float) -> float:
    """The reference for flow.thick_fraction: the share of the midpoints of
    a grid of about the given step on the trajectory's time span at which
    the proxy systole is at least eps.  At each midpoint the chart current
    there is rebased to that time, and the systole is the least, over the
    vertex curves of both its dual tracks, of the larger of a curve's
    transverse and tangential lengths."""
    t0 = 0.5 * math.log(float(traj.start.lam))
    n = max(1, round(traj.t_end / step))
    states = traj.states()
    curves: dict = {}  # (state index, direction) -> vertex curves
    thick = 0
    for k in range(n):
        t = t0 + (k + 0.5) * traj.t_end / n
        idx = sum(1 for ev in traj.events if ev.t <= t)
        s = rebase(states[idx].replace(lam=math.exp(2 * t)))
        systole = math.inf
        for direction in ("vertical", "horizontal"):
            track, mp = dual_track(s, direction)
            if (idx, direction) not in curves:
                curves[idx, direction] = vertex_curves(track)
            for curve in curves[idx, direction]:
                lengths = [
                    sum(c * float(m[b]) for c, b in zip(curve, track.branches))
                    for m in (mp.transverse, mp.tangential)
                ]
                systole = min(systole, max(lengths))
        thick += systole >= eps
    return thick / n


def reference_measures(s: Surface, direction: str) -> MeasurePair:
    """The reference for dual_track's measures: the tangential sums added
    up switch by switch on the surface's own numbers, halving each term."""
    k = 0 if direction == "vertical" else 1
    track = TrainTrack(direction, s.triangles, sorted_large_slots(s, direction), track_branches(s.triangles))
    transverse = {e: abs(p[k]) for e, p in s.periods.items()}
    zero = s.num.coerce(0)
    tangential = {e: zero for e in s.periods}
    for _, s1, s2 in track.switches():
        tangential[s1] += abs(s.periods[s2][1 - k]) / 2
        tangential[s2] += abs(s.periods[s1][1 - k]) / 2
    for e, role in track.branch_roles().items():
        if role == "large":
            tangential[e] = zero
    return MeasurePair(transverse, tangential)


def reference_is_filling(track: TrainTrack, branches) -> bool:
    """The reference for traintrack.is_filling_subtrack: union the regions
    across every deleted branch, then count per component its regions k,
    deleted branches d and marked regions; it fills iff every component has
    Euler number k - d = 1 and at most one marked region."""
    support = frozenset(branches)
    occ = edge_occurrences(track.triangles)
    sizes, corner_region = _region_data(track, occ)
    sides = _branch_region_edges(occ, corner_region)
    parent = list(range(len(sizes)))
    deleted = [e for e in track.branches if e not in support]
    for e in deleted:
        r1, r2 = sides[e]
        parent[find_root(parent, r1)] = find_root(parent, r2)
    comp_regions: Counter = Counter()
    comp_marked: Counter = Counter()
    comp_deleted: Counter = Counter()
    for r, n in enumerate(sizes):
        c = find_root(parent, r)
        comp_regions[c] += 1
        comp_marked[c] += n <= 2
    for e in deleted:
        comp_deleted[find_root(parent, sides[e][0])] += 1
    return all(comp_regions[c] - comp_deleted[c] == 1 and comp_marked[c] <= 1 for c in comp_regions)


# the methods of Fraction that build one (arithmetic builds its result
# through __new__) or compare two numbers
FRACTION_WORK = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__pow__",
    "__neg__", "__pos__", "__abs__", "__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__bool__",
)


def count_fraction_work(monkeypatch) -> Counter:
    """Wrap each FRACTION_WORK method of the Fraction class to count its
    calls, by name, in the returned Counter until monkeypatch undoes it."""
    calls: Counter = Counter()
    for name in FRACTION_WORK:
        original = vars(Fraction)[name]

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, staticmethod(counted) if name == "__new__" else counted)
    return calls


def count_sigma_reads(monkeypatch) -> Counter:
    """Count the reads of Surface.sigma, by the id of the surface read, in
    the returned Counter until monkeypatch undoes it."""
    reads: Counter = Counter()
    sigma = vars(Surface)["sigma"]

    def counted(s):
        reads[id(s)] += 1
        return sigma.fget(s)

    monkeypatch.setattr(Surface, "sigma", property(counted))
    return reads


def random_veering_triangle(rng: random.Random, exact: bool):
    """Two random sides of opposite slope signs plus the closing side."""
    def q(lo, hi):
        if exact:
            return Fraction(rng.randint(lo * 100, hi * 100), 100)
        return rng.uniform(lo, hi)

    while True:
        v1 = (q(1, 3), q(1, 3))  # positive slope
        v2 = (q(1, 3), -q(1, 3))  # negative slope
        v3 = (-(v1[0] + v2[0]), -(v1[1] + v2[1]))
        if any(x == 0 for v in (v1, v2, v3) for x in v):
            continue
        if v1[0] * v2[1] - v1[1] * v2[0] > 0:
            return (v1, v2, v3)
        v1, v2 = v2, v1
        if v1[0] * v2[1] - v1[1] * v2[0] > 0:
            return (v1, v2, v3)


def sheared_surface(base: Surface, rng: random.Random) -> Surface:
    """Apply a random small rational shear to every period."""
    a = Fraction(rng.randint(-12, 12), 100)
    b = Fraction(rng.randint(-12, 12), 100)
    periods = {}
    for e, p in base.periods.items():
        periods[e] = (p.w + a * p.h, b * p.w + p.h)
    return base.replace(periods=periods)


def random_suited_surface(seed: int) -> Surface | None:
    """A sheared torus or genus-2 surface passing validation, or None."""
    rng = random.Random(seed)
    base = t2() if rng.random() < 0.5 else octagon()
    s = sheared_surface(base, rng)
    if not validate(s).passed:
        return None
    try:
        s, _ = greedy_delaunay(s)
    except (DegeneracyError, VeertrackError):
        return None
    return s


def exact_trajectory_prefix(s: Surface, max_events: int = 20):
    """Iterate splits on an exact-mode Delaunay surface until a degeneracy,
    exhaustion, or the event cap.  Returns (events, states)."""
    events, states = [], [s]
    cur = s
    while len(events) < max_events:
        try:
            ev = next_split(cur)
        except DegeneracyError:
            break
        if ev is None:
            break
        try:
            cur = flip(cur, ev.edge, ev.threshold)
        except (DegeneracyError, NotFlippableError):
            break
        events.append(ev)
        states.append(cur)
    return events, states


def scramble(s: Surface, rng: random.Random, flips: int = 8) -> Surface:
    """Apply up to the given number of random legal flips."""
    cur = s
    for _ in range(flips):
        candidates = []
        for e in cur.edges:
            try:
                ok = quad(cur, e).flippable
            except DegeneracyError:
                ok = False
            if ok:
                candidates.append(e)
        if not candidates:
            break
        e = rng.choice(sorted(candidates))
        try:
            cur = flip(cur, e, cur.lam)
        except (DegeneracyError, NotFlippableError):
            continue
    return cur


def sorted_large_slots(s: Surface, direction: str) -> tuple[int, ...]:
    """The reference for traintrack.large_slots: per triangle, the last slot
    of a stable sort of the side sizes, raising when the runner-up ties it."""
    k = 0 if direction == "vertical" else 1
    out = []
    for t, tri in enumerate(s.triangles):
        vals = [abs(s.periods[e][k]) for e, _ in tri]
        _, second, largest = sorted(range(3), key=vals.__getitem__)
        if s.num.tie(vals[second], vals[largest], 1e-9):
            raise DegeneracyError(f"triangle {t}: no strictly largest side for the {direction} track")
        out.append(largest)
    return tuple(out)


def rref(a):
    """Reduced row echelon form over Fraction; returns (matrix, pivot
    column indices).  The oracles' own elimination, sharing no code with
    the integer elimination in veertrack._exact."""
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


def kernel_basis(a, ncols: int | None = None) -> list[list[Fraction]]:
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


def scale_to_integers(v) -> list[int]:
    """Smallest positive integer multiple of a rational vector."""
    fracs = [Fraction(x) for x in v]
    den = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
    ints = [int(f * den) for f in fracs]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def brute_force_rays(rows, n):
    """Support-enumeration oracle for the extreme rays of {x >= 0, Ax = 0}:
    a support is extreme when the kernel restricted to it is one strictly
    positive line and no smaller support works."""
    found = []
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            sub = [[row[j] for j in support] for row in rows]
            kern = kernel_basis(sub, len(support))
            if len(kern) != 1:
                continue
            vec = kern[0]
            if all(x < 0 for x in vec):
                vec = [-x for x in vec]
            if not all(x > 0 for x in vec):
                continue
            found.append((set(support), vec))
    rays = []
    for support, vec in found:
        if any(other < support for other, _ in found):
            continue
        full = [Fraction(0)] * n
        for j, x in zip(sorted(support), vec):
            full[j] = x
        rays.append(tuple(scale_to_integers(full)))
    return sorted(set(rays))


@functools.cache
def census_tracks() -> dict[tuple[str, int, str], TrainTrack]:
    """(fixture, shear index, direction) -> the dual track that the
    benchmark's census workload takes of each shear perfbench/inputs.py
    draws of t2, pillow and octagon: on the Delaunay surface, or on the
    shear itself when the reduction stops on a degeneracy."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("census_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = {}
    for name in ("t2", "pillow", "octagon"):
        for index in range(inputs.CENSUS_UNIVERSE):
            s = parse_surface(inputs.census_doc(name, index))
            try:
                s, _ = greedy_delaunay(s)
            except DegeneracyError:
                pass
            for direction in ("vertical", "horizontal"):
                out[name, index, direction] = dual_track(s, direction)[0]
    return out


def reference_extreme_rays_nonneg(rows, n: int) -> list[tuple[int, ...]]:
    """traintrack.extreme_rays_nonneg in its earlier form: dense rows,
    frozenset supports, every positive ray combined with every negative one
    and then the rays with a strictly smaller support kept, and each final
    ray certified by the exact rank of the rows on its support."""
    rays = {tuple(int(i == j) for j in range(n)): frozenset((i,)) for i in range(n)}
    for a in rows:
        dots = [(r, sum(ai * ri for ai, ri in zip(a, r))) for r in rays]
        new = [r for r, d in dots if d == 0]
        pos = [(u, du) for u, du in dots if du > 0]
        neg = [(v, dv) for v, dv in dots if dv < 0]
        for (u, du), (v, dv) in itertools.product(pos, neg):
            comb = [du * vi - dv * ui for ui, vi in zip(u, v)]
            g = math.gcd(*comb)
            new.append(tuple(x // g for x in comb))
        supports = {r: frozenset(i for i, x in enumerate(r) if x) for r in new}
        kinds = set(supports.values())
        rays = {r: sup for r, sup in supports.items() if not any(k < sup for k in kinds)}
    return sorted(
        r for r, sup in rays.items() if len(sup) - rank([[row[i] for i in sup] for row in rows]) == 1
    )


def rank_mod2(a) -> int:
    """Rank over GF(2) of an integer matrix, by elimination on lists of bits."""
    rows = [[x % 2 for x in row] for row in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def mat_det(a) -> int:
    """Determinant of a square integer matrix."""
    pivots, sign, last = _eliminate(a)
    return sign * last if len(pivots) == len(a) else 0


def in_span(vectors, target) -> bool:
    """Whether a rational target lies in the linear span of the given
    integer vectors (exact)."""
    if not any(target):
        return True
    if not vectors:
        return False
    den = math.lcm(*(x.denominator for x in target))
    scaled = [x.numerator * (den // x.denominator) for x in target]
    return rank(vectors) == rank([*vectors, scaled])


def reference_eigenpairs(matrix, *targets: float) -> list[tuple[float, np.ndarray]]:
    """cones.eigenpairs with its choice and test on numpy arrays: np.argmin
    of the distances to each target, and the other eigenvalues, by
    np.delete, compared with the chosen one."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    pairs = []
    for target in targets:
        k = int(np.argmin(np.abs(vals - target)))
        tol = 1e-6 * max(1.0, abs(vals[k]))
        if abs(vals[k].imag) > tol or np.any(np.abs(np.delete(vals, k) - vals[k]) <= tol):
            raise VeertrackError(f"eigenvalue {vals[k]:.6g} of the matrix is not real and simple")
        pairs.append((float(vals[k].real), vecs[:, k].real))
    return pairs


def reference_first_positive_power(matrix) -> int | None:
    """cones.first_positive_power on boolean numpy matrices."""
    pattern = np.asarray(matrix) > 0
    power = pattern
    for k in range(1, (len(pattern) - 1) ** 2 + 2):
        if power.all():
            return k
        power = power @ pattern
    return None


def nonneg_shift(m) -> bool:
    """Whether M - I is entrywise nonnegative."""
    return all(x - (i == j) >= 0 for i, row in enumerate(m) for j, x in enumerate(row))


def tangential_equivalent(track: TrainTrack, r1, r2) -> bool:
    """Whether two tangential vectors (branch order = track.branches) differ
    by an element of V(tau), the span of the switch rows
    1_large - 1_small - 1_small."""
    diff = [Fraction(a) - Fraction(b) for a, b in zip(r1, r2)]
    return in_span(track.switch_matrix(), diff)


def split_with_direction(track: TrainTrack, e: str, direction: str):
    """Split the large branch e leftward or rightward, combinatorially.

    Returns (track', losers, winners).
    """
    roles = track.branch_roles()
    if roles.get(e) != "large":
        raise VeertrackError(f"branch {e} is not large at both switches")
    if direction not in ("L", "R"):
        raise ValueError(f"bad direction {direction!r}")
    t1, t2, sides = quad_sides(track.triangles, edge_occurrences(track.triangles), e)
    losers, winners = split_roles(sides, direction)
    triangles = exchange_diagonal(track.triangles, e, t1, t2, sides)
    large = list(track.large_slots)
    if direction == "L":
        large[t1], large[t2] = 0, 0  # winners b and d head their triangles
    else:
        large[t1], large[t2] = 1, 1  # winners c and a sit second
    return TrainTrack(track.direction, triangles, tuple(large), track.branches), losers, winners


def reconstruct_from_words(
    track0: TrainTrack,
    track_end: TrainTrack,
    words: dict[str, str],
) -> tuple[list[tuple[str, str, tuple[str, str], tuple[str, str]]], TransitionPair]:
    """Rebuild a splitting sequence from its per-branch direction words.

    words maps each branch label to the string of directions ("L"/"R") of its
    splits, in temporal order.  The search interleaves the words in every
    admissible way (a branch may only split while it is large) by
    backtracking, and accepts a linearization when the final track equals
    track_end.  Returns the event list as (edge, direction, losers, winners)
    tuples together with the composed transition pair.
    """
    branches = tuple(sorted(track0.branches))
    remaining0 = {e: list(w) for e, w in words.items() if w}

    def canon(track: TrainTrack):
        out = []
        for tri, slot in zip(track.triangles, track.large_slots):
            best = min(
                (tuple(tri[(r + k) % 3] for k in range(3)), (slot - r) % 3)
                for r in range(3)
            )
            out.append(best)
        return frozenset(out)

    target = canon(track_end)
    seen: set = set()

    def search(track: TrainTrack, remaining: dict, trail: list):
        key = (canon(track), tuple(sorted((e, len(w)) for e, w in remaining.items())))
        if key in seen:
            return None
        seen.add(key)
        if not remaining:
            return list(trail) if canon(track) == target else None
        roles = track.branch_roles()
        for e in sorted(remaining):
            if roles.get(e) != "large":
                continue
            direction = remaining[e][0]
            try:
                nxt, losers, winners = split_with_direction(track, e, direction)
            except VeertrackError:
                continue
            new_remaining = {k: v[1:] if k == e else v for k, v in remaining.items()}
            new_remaining = {k: v for k, v in new_remaining.items() if v}
            trail.append((e, direction, tuple(sorted(losers)), tuple(sorted(winners))))
            hit = search(nxt, new_remaining, trail)
            if hit is not None:
                return hit
            trail.pop()
        return None

    events = search(track0, remaining0, [])
    if events is None:
        raise VeertrackError("no interleaving of the direction words joins the two tracks")
    pseudo = [
        SplitEvent(1, e, d, losers, winners) for (e, d, losers, winners) in events
    ]
    return events, compose_word(pseudo, branches)


# ---------------------------------------------------------------------------
# the split event and the checkpoint reads in several passes: the large
# edges sorted first, then each one's candidate test, then the threshold
# filter; and one walk over the events per checkpoint


def reference_large_edges(s: Surface) -> list[str]:
    """The sorted edges of s that are the large side of both their
    triangles in the vertical track."""
    slots = large_slots(s.num, s.triangles, s.periods, "vertical")
    sides = sorted(tri[ls][0] for tri, ls in zip(s.triangles, slots))
    return [e for e, f in zip(sides, sides[1:]) if e == f]


def _reference_split_candidates(s: Surface):
    out = []
    for e in reference_large_edges(s):
        q = quad(s, e)
        if not q.flippable:
            continue
        w_e, h_e = abs(s.periods[e].w), abs(s.periods[e].h)
        w_d, h_d = abs(q.diagonal[0]), abs(q.diagonal[1])
        if w_d < w_e and h_d > h_e:
            out.append((h_d / w_e, e, q))
    return out


def reference_next_split(s: Surface) -> SplitEvent | None:
    """flow.next_split from the sorted large edges, with slope_sign's axis
    test on the winning diagonal."""
    cands = [c for c in _reference_split_candidates(s) if c[0] > s.lam]
    if not cands:
        return None
    if len(cands) > 1:
        cands.sort()
        if s.num.tie(cands[1][0], cands[0][0], FLOAT_EVENT_TIE):
            raise DegeneracyError(f"simultaneous split events on {cands[0][1]} and {cands[1][1]}")
    thr, e, q = cands[0]
    direction = "L" if slope_sign(s, q.diagonal) > 0 else "R"
    losers, winners = split_roles(q.sides, direction)
    wb = abs(q.vectors[1][0]) + abs(q.vectors[3][0])
    wa = abs(q.vectors[0][0]) + abs(q.vectors[2][0])
    if ("L" if wb > wa else "R") != direction:
        raise VeertrackError(f"edge {e}: slope direction {direction} disagrees with width comparison")
    return SplitEvent(thr, e, direction, tuple(sorted(losers)), tuple(sorted(winners)))


def reference_state_at(traj: Trajectory, t: float) -> Surface:
    """The surface of traj at time t past its start, in the chart current
    there."""
    lam = lam_after(float(traj.start.lam), t)
    state = traj.start
    for ev, srf in zip(traj.events, traj.surfaces):
        if float(ev.threshold) <= lam:
            state = srf
        else:
            break
    return state.replace(lam=lam)


def reference_stable_distance(s1: Surface, s2: Surface) -> float:
    """lab._stable_distance in its earlier form, which read both surfaces'
    flowed periods itself."""
    dh, wn = 0.0, 0.0
    f1, f2 = s1.flowed_periods(), s2.flowed_periods()
    for e in s1.edges:
        w1, h1 = f1[e]
        dh += (h1 - f2[e][1]) ** 2
        wn += w1**2
    return math.sqrt(dh) / math.sqrt(wn)


def reference_roundoff_unit(s: Surface) -> float:
    """lab._roundoff_unit in its earlier form, on a surface."""
    f = s.flowed_periods()
    flowed = [f[e] for e in s.edges]
    top = max(abs(h) for _, h in flowed)
    return sys.float_info.epsilon * top / math.sqrt(sum(w * w for w, _ in flowed))


def scan_periodicity(traj: Trajectory, rel_tol: float = 1e-9) -> PeriodicMatch | None:
    """The first periodic return of a finished trajectory: its states fed
    to a PeriodicMatcher in order, as detect_periodicity's flow feeds them."""
    matcher = PeriodicMatcher(traj.start, rel_tol)
    any(map(matcher, traj.events, traj.surfaces))
    return matcher.match


def reference_detect_periodicity(traj: Trajectory, rel_tol: float = 1e-9) -> PeriodicMatch | None:
    """detect_periodicity in its earlier form: every state's signature built
    first, then pairs tried by increasing span, then increasing m."""
    states = traj.states()
    sigs = [_signature(s.flowed_periods(), float(s.lam), rel_tol) for s in states]
    for span in range(1, len(sigs)):
        for m in range(0, len(sigs) - span):
            m2 = m + span
            a, b = sigs[m], sigs[m2]
            if not _may_match(a, b):
                continue
            lam_w = math.sqrt(b.lam / a.lam)
            if not lam_w > 1 + 1e-9:
                continue
            for sigma in _triangle_isomorphisms(states[m], states[m2]):
                glob = None
                for e, (e2, f) in sigma.items():
                    w1, h1 = a.eff[e]
                    w2, h2 = f * b.eff[e2][0], f * b.eff[e2][1]
                    scale = max(abs(w1), abs(h1), 1e-15)
                    if glob is None:
                        glob = 1 if w1 * w2 > 0 else -1
                    w2, h2 = glob * w2, glob * h2
                    if abs(w2 - w1) > rel_tol * scale or abs(h2 - h1) > rel_tol * scale:
                        break
                else:
                    relabel = {e: (e2, glob * f) for e, (e2, f) in sigma.items()}
                    return PeriodicMatch(m, m2, relabel, lam_w, tuple(traj.events[m:m2]))
    return None


# ---------------------------------------------------------------------------
# the contraction fit whose trials each flow from scratch: run_flow on every
# perturbed start, the word comparison, and one walk over the events for the
# checkpoint states


def reference_states_at(traj: Trajectory, times) -> list[Surface]:
    """The surfaces of traj at the nondecreasing times past its start, each
    in the chart current there, from one walk over the events."""
    lam0 = float(traj.start.lam)
    out, state, k = [], traj.start, 0
    events, surfaces = traj.events, traj.surfaces
    for t in times:
        lam = lam_after(lam0, t)
        while k < len(events) and float(events[k].threshold) <= lam:
            state = surfaces[k]
            k += 1
        out.append(state.replace(lam=lam))
    return out


def _drop_reason(sp: Surface, sig_a, sig_b) -> str:
    """Why a trial whose flow raised (sig_b None) or made the word sig_b
    was dropped: its start certificate, a word that stops early or runs on
    past the base's (the window end), another word, or another exception."""
    if sig_b is None:
        try:
            return "start" if delaunay_violations(sp) else "raise"
        except (DegeneracyError, VeertrackError):
            return "start"
    n = min(len(sig_a), len(sig_b))
    return "window-end" if sig_a[:n] == sig_b[:n] else "word"


def reference_contraction_experiment(
    s: Surface, total_t, checkpoints=8, trials=6, delta=1e-4, seed=0, reasons=None
):
    """lab.contraction_experiment in its earlier form, which flowed each
    trial with run_flow and compared its word with the base's.  The
    ContractionFit, or the message of the VeertrackError it raises; reasons,
    when given, receives per trial None when kept, else why it was dropped
    ("start", "raise", "window-end", "word" or "chart")."""
    try:
        fit = _reference_contraction(s, total_t, checkpoints, trials, delta, seed, reasons)
    except VeertrackError as exc:
        return str(exc)
    return fit


def _reference_contraction(s, total_t, checkpoints, trials, delta, seed, reasons):
    reasons = [] if reasons is None else reasons
    for name, value in (("time", total_t), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise VeertrackError(f"{name} must be finite and positive, not {value}")
    for name, value in (("checkpoints", checkpoints), ("trials", trials)):
        if not value >= 1:
            raise VeertrackError(f"{name} must be at least 1, not {value}")
    s, _ = greedy_delaunay(rebase(s))
    times = tuple(total_t * (k + 1) / checkpoints for k in range(checkpoints))
    base_traj = run_flow(s, total_t, verify="off")
    sig_a = [(ev.edge, ev.direction) for ev in base_traj.events]
    base_states = reference_states_at(base_traj, times)
    start_flowed = s.flowed_periods()
    base_flowed = [b.flowed_periods() for b in base_states]
    units = [_roundoff_unit(f) for f in base_flowed]

    def one_trial(i: int):
        sp = perturb_heights(s, random.Random(f"{seed}:{i}"), delta)
        try:
            pert_traj = run_flow(sp, total_t, verify="off")
        except (DegeneracyError, VeertrackError):
            reasons.append(_drop_reason(sp, sig_a, None))
            return None
        sig_b = [(ev.edge, ev.direction) for ev in pert_traj.events]
        pert_states = reference_states_at(pert_traj, times)
        if sig_a != sig_b:
            reasons.append(_drop_reason(sp, sig_a, sig_b))
            return None
        if any(b.triangles != p.triangles for b, p in zip(base_states, pert_states)):
            reasons.append("chart")
            return None
        reasons.append(None)
        d0 = _stable_distance(start_flowed, sp.flowed_periods())
        if d0 == 0:
            raise VeertrackError(f"delta {delta} does not move the heights at float precision")
        dists = [_stable_distance(f, p.flowed_periods()) for f, p in zip(base_flowed, pert_states)]
        k = min(range(checkpoints), key=lambda k: dists[k] / units[k])
        if dists[k] == 0:
            raise VeertrackError(f"delta {delta} is too small: the distance at time {times[k]} rounds to 0")
        if dists[k] < ROUNDOFF_FLOOR * units[k]:
            raise VeertrackError(
                f"delta {delta} is too small: the distance at time {times[k]} is "
                f"{dists[k] / units[k]:.3g} roundoff units of the heights, below {ROUNDOFF_FLOOR:g}"
            )
        return tuple(math.log(d / d0) for d in dists)

    results = [one_trial(i) for i in range(trials)]
    kept = [row for row in results if row is not None]
    dropped = sum(1 for row in results if row is None)
    if not kept:
        raise VeertrackError("every trial was dropped: no combinatorially shadowing pair")
    xs = np.array([t for row in kept for t in times])
    ys = np.array([v for row in kept for v in row])
    if not np.sum(xs * xs) > 0:
        raise VeertrackError(f"time {total_t} is too short to fit a decay rate")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ContractionFit(times, tuple(kept), -float(slope), math.exp(float(intercept)), r2, dropped)
