"""Event-driven simulation of the diagonal flow on a Delaunay triangulation.

An edge e that is large in the vertical track splits when its rectangle
becomes a square: e^{2t*} = h_d / w_e where d is the other diagonal of its
quadrilateral.  Thresholds are stored as absolute values of lam = e^{2t}
relative to the base chart, so in exact mode the whole splitting sequence is
a sequence of exact rational comparisons.
"""

import math
from typing import NamedTuple

from .delaunay import delaunay_violations, flip, quad
from .errors import DegeneracyError, VeertrackError
from .surface import Surface
from .traintrack import dual_track, large_slots, split_roles, vertex_curves

FLOAT_EVENT_TIE = 1e-12
MAX_EVENTS = 10000


class SplitEvent(NamedTuple):
    threshold: object  # lam = e^{2t*}, absolute (Fraction in exact mode)
    edge: str
    direction: str  # "L" | "R"
    losers: tuple[str, str]
    winners: tuple[str, str]

    @property
    def t(self) -> float:
        return 0.5 * math.log(float(self.threshold))


class Trajectory(NamedTuple):
    start: Surface
    events: list[SplitEvent]
    surfaces: list[Surface]  # surface after each event, lam = its threshold
    t_end: float  # duration measured from the start surface

    def states(self) -> list[Surface]:
        return [self.start] + list(self.surfaces)

    def times(self) -> list[float]:
        """Event times measured from the start surface."""
        t0 = 0.5 * math.log(float(self.start.lam))
        return [ev.t - t0 for ev in self.events]


class ThickStats(NamedTuple):
    eps: float
    thick_time: float
    theta: float


def split_candidates(s: Surface) -> list[str]:
    """The edges of s that are the large side of both their triangles in the
    vertical track, in the order of their second slot; it reads the
    triangles and the widths alone, and is computed once for s and its
    lam-only copies."""
    return s.cached("split_candidates", _large_in_both)


def _large_in_both(s: Surface) -> list[str]:
    """split_candidates from one pass over the large slots: an edge met
    twice is large in both its triangles."""
    out, seen = [], set()
    for tri, ls in zip(s.triangles, large_slots(s.num, s.triangles, s.periods, "vertical")):
        e = tri[ls][0]
        if e in seen:
            out.append(e)
        else:
            seen.add(e)
    return out


def earliest_split(num, lam, quads, periods):
    """(threshold, Quad, direction) of the earliest split past lam among
    quads, the Quads of split_candidates developed on periods, or None."""
    cands = []
    for q in quads:
        d, p = q.diagonal, periods[q.edge]
        w_e, h_d = abs(p[0]), abs(d[1])
        # the other diagonal d is narrower and taller, and squares past lam
        if q.flippable and abs(d[0]) < w_e and h_d > abs(p[1]) and (thr := h_d / w_e) > lam:
            cands.append((thr, q.edge, q))
    if not cands:
        return None
    if len(cands) > 1:
        cands.sort()  # by threshold, then edge; edges are distinct
        if num.tie(cands[1][0], cands[0][0], FLOAT_EVENT_TIE):
            raise DegeneracyError(f"simultaneous split events on {cands[0][1]} and {cands[1][1]}")
    thr, e, q = cands[0]
    # slope_sign's axis test cannot fire here: q is flippable, develop raises
    # when a flippable q's diagonal is axis-parallel, and quad keeps no such q
    d = q.diagonal
    direction = "L" if (d[0] > 0) == (d[1] > 0) else "R"
    # cross-check with the width comparison that defines the track split.
    # On closed triangles the two agree: e = a + b is widest in both, so
    # wb - wa = 2 sign(e.w) (b + c).w, and the positive triangles, with b + c
    # narrower and taller than e, give sign((b + c).h) = sign(e.w).  In float
    # mode wb - wa also takes the closure defects of both triangles, which a
    # flip adds up in its new triangle (d, a, b + c).  On a one-vertex torus
    # they cancel (c = -a, d = -b); elsewhere they can pass 2 |(b + c).w|,
    # which the axis test keeps only above 2e-9, and the check fires
    wb = abs(q.vectors[1][0]) + abs(q.vectors[3][0])
    wa = abs(q.vectors[0][0]) + abs(q.vectors[2][0])
    width_dir = "L" if wb > wa else "R"
    if width_dir != direction:
        raise VeertrackError(
            f"edge {e}: slope direction {direction} disagrees with width comparison"
        )
    return thr, q, direction


def next_split(s: Surface) -> SplitEvent | None:
    """Earliest future split of a certified Delaunay surface, or None: the
    earliest_split of its split_candidates."""
    got = earliest_split(s.num, s.lam, [quad(s, e) for e in split_candidates(s)], s.periods)
    if got is None:
        return None
    thr, q, direction = got
    losers, winners = s.comb.cached((q.edge, direction), _split_roles, q.edge, direction)
    return SplitEvent(thr, q.edge, direction, losers, winners)


def _split_roles(comb, e: str, direction: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """split_roles of e on the triangulation comb, each pair in label order."""
    losers, winners = split_roles(comb.sides(e)[2], direction)
    return _ordered(*losers), _ordered(*winners)


def _ordered(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


def lam_after(lam: float, t: float) -> float:
    """lam * e^{2t} as a float; a product past the float range is infinite."""
    try:
        return lam * math.exp(2.0 * t)
    except OverflowError:
        return math.inf


def run_flow(
    s: Surface, T: float, max_events: int = MAX_EVENTS, verify: str = "debug", stop=None
) -> Trajectory:
    """Iterate next_split and flip until time T (from s) or max_events; an
    infinite T, or one whose end lam is past the float range, flows until
    max_events.  stop, when given, is called with each event and the surface
    after it, and a true result ends the flow there, with t_end that event's
    time from s."""
    if verify not in ("debug", "off"):
        raise ValueError(f"bad verify mode {verify!r}")
    if not T >= 0:
        raise VeertrackError(f"time must be nonnegative, not {T}")
    if not max_events >= 1:
        raise VeertrackError(f"max-events must be at least 1, not {max_events}")
    if delaunay_violations(s):
        raise VeertrackError("run_flow needs a certified Delaunay start surface")
    lam_end_f = lam_after(float(s.lam), T)
    events: list[SplitEvent] = []
    surfaces: list[Surface] = []
    cur = s
    ev = next_split(cur)
    while ev is not None and float(ev.threshold) <= lam_end_f:
        flipped = flip(cur, ev.edge, ev.threshold)
        nxt = None
        if verify == "debug":
            # the probe's split is the next iteration's split: it is reused
            nxt = next_split(flipped)
            upper = float(nxt.threshold) if nxt is not None else lam_end_f
            mid = (float(ev.threshold) + upper) / 2
            lam_mid = flipped.num.from_float(mid)
            probe = flipped.replace(lam=lam_mid)
            if lam_mid > ev.threshold and delaunay_violations(probe):
                raise VeertrackError(f"lost the Delaunay certificate after splitting {ev.edge}")
        events.append(ev)
        surfaces.append(flipped)
        cur = flipped
        if stop is not None and stop(ev, flipped):
            return Trajectory(s, events, surfaces, ev.t - 0.5 * math.log(float(s.lam)))
        if len(events) >= max_events:
            break
        ev = nxt if verify == "debug" else next_split(cur)
    return Trajectory(s, events, surfaces, T)


# ---------------------------------------------------------------------------
# recurrence statistics


def _proxy_coefficients(s: Surface):
    """(A, B) per vertex curve of both dual tracks: the proxy systole at
    absolute time t is min over curves of max(A e^t, B e^{-t})."""
    coeffs = []
    for direction in ("vertical", "horizontal"):
        track, mp = dual_track(s, direction)
        branches = track.branches
        for curve in vertex_curves(track):
            if direction == "vertical":
                A = sum(c * abs(float(s.periods[b].w)) for c, b in zip(curve, branches))
                B = sum(c * float(mp.tangential[b]) for c, b in zip(curve, branches))
            else:
                B = sum(c * abs(float(s.periods[b].h)) for c, b in zip(curve, branches))
                A = sum(c * float(mp.tangential[b]) for c, b in zip(curve, branches))
            coeffs.append((A, B))
    return coeffs


def thick_fraction(traj: Trajectory, eps: float) -> ThickStats:
    """Lebesgue measure of the times where the proxy systole stays >= eps."""
    if not (math.isfinite(eps) and eps > 0):
        raise VeertrackError(f"eps must be finite and positive, not {eps}")
    t0 = 0.5 * math.log(float(traj.start.lam))
    t_stop = t0 + traj.t_end
    cuts = [t0] + [ev.t for ev in traj.events if ev.t < t_stop] + [t_stop]
    states = traj.states()
    thin_total = 0.0
    for k in range(len(cuts) - 1):
        lo, hi = cuts[k], cuts[k + 1]
        if hi <= lo:
            continue
        intervals = []
        for A, B in _proxy_coefficients(states[min(k, len(states) - 1)]):
            # max(A e^t, B e^-t) < eps on (ln(B/eps), ln(eps/A))
            l = math.log(B / eps) if B > 0 else -math.inf
            r = math.log(eps / A) if A > 0 else math.inf
            l, r = max(l, lo), min(r, hi)
            if r > l:
                intervals.append((l, r))
        intervals.sort()
        last = lo
        for l, r in intervals:
            l = max(l, last)
            if r > l:
                thin_total += r - l
                last = r
    total = traj.t_end
    thick = max(0.0, total - thin_total)
    return ThickStats(eps, thick, thick / total if total > 0 else 1.0)


# ---------------------------------------------------------------------------
# periodicity


class PeriodicMatch(NamedTuple):
    m: int  # state index (0 = start surface)
    m2: int
    relabel: dict  # edge -> (edge', sign)
    lam_w: float  # width expansion across the period, e^{T'}
    word: tuple  # the SplitEvents between the matched states

    @property
    def period_t(self) -> float:
        return math.log(self.lam_w)


def _triangle_isomorphisms(s1: Surface, s2: Surface):
    """Signed label bijections carrying the triangulation of s1 to s2, both
    valid (surface.validate), each read by a walk across edges from triangle
    0.  Only its tests on sigma can fail: s1 is connected, so the walk reaches
    every triangle and edge, and two triangles with one image would share all
    three edges, glued with equal signs: a two-triangle sphere whose three
    cone angles, each at least pi, sum to 2 pi, which validate rejects."""
    tris1, tris2 = s1.triangles, s2.triangles
    if len(tris1) != len(tris2):
        return
    occ1, occ2 = s1.occurrences(), s2.occurrences()
    for t0 in range(len(tris2)):
        for rot in range(3):
            sigma: dict[str, tuple[str, int]] | None = {}
            used: set[str] = set()
            tri_map = {0: (t0, rot)}
            stack = [0]
            while stack and sigma is not None:
                t = stack.pop()
                tt, rr = tri_map[t]
                for i, (e, sg) in enumerate(tris1[t]):
                    j = (i + rr) % 3
                    e2, sg2 = tris2[tt][j]
                    if e in sigma or e2 in used:  # e met before, or e2 taken
                        if sigma.get(e) != (e2, sg * sg2):
                            sigma = None
                            break
                        continue
                    sigma[e] = (e2, sg * sg2)
                    used.add(e2)
                    # the neighbours across e and e2: their other occurrences
                    o1, o2 = occ1[e], occ2[e2]
                    tn, jn, _ = o1[o1[0][:2] == (t, i)]
                    tn2, jn2, _ = o2[o2[0][:2] == (tt, j)]
                    if tn not in tri_map:
                        tri_map[tn] = (tn2, (jn2 - jn) % 3)
                        stack.append(tn)
            if sigma is not None:
                yield sigma


def _sorted_close(a: list, b: list, bound: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= bound for x, y in zip(a, b))


class _Signature(NamedTuple):
    """What detect_periodicity compares of one state, built once per state."""

    eff: dict  # edge -> effective (w, h)
    lam: float
    ws: list  # sorted |w|
    hs: list  # sorted |h|
    whs: list  # sorted signed w * h
    bound: float  # rel_tol times the largest coordinate
    wh_bound: float  # the same tolerance carried to the products w * h


def _signature(eff: dict, lam: float, rel_tol: float) -> _Signature:
    ws, hs, whs = [], [], []
    for w, h in eff.values():
        ws.append(abs(w))
        hs.append(abs(h))
        whs.append(w * h)
    ws.sort()
    hs.sort()
    whs.sort()
    top = max(1e-15, *ws[-1:], *hs[-1:])
    bound = rel_tol * top
    # see _may_match; the last term allows for the rounding of the products
    wh_bound = bound * (2 * top + bound) + 1e-12 * (top + bound) ** 2
    return _Signature(eff, lam, ws, hs, whs, bound, wh_bound)


def _may_match(a: _Signature, b: _Signature) -> bool:
    """False when no signed relabelling carries the periods of b onto those
    of a within a's tolerance; True does not promise a match."""
    # A match pairs each edge e of a with an edge of b whose (w, h), after
    # one sign for the edge and one global sign, differ from those of e by
    # at most delta_e = rel_tol * scale_e <= a.bound in each coordinate.  So
    # |w| and |h| differ by at most a.bound, and the product w * h, which
    # the signs leave alone, by |w a' + h a + a a'| <= delta_e * (|w| + |h|
    # + delta_e) <= a.bound * (2 * top + a.bound) for the moves a, a' of w
    # and h, with top the largest coordinate of a.  Pairing two sorted
    # lists in order never increases the largest difference of any
    # one-to-one pairing, and float rounding is monotone (wh_bound also
    # allows for the rounding of the products), so a pair whose sorted
    # lists differ by more than these bounds has no match.  The
    # signed products separate a state from its mirror image, which has the
    # same |w| and |h|.  The extreme entries are compared first: they reject
    # most pairs.
    if abs(a.ws[-1] - b.ws[-1]) > a.bound or abs(a.whs[0] - b.whs[0]) > a.wh_bound:
        return False
    return (
        _sorted_close(a.ws, b.ws, a.bound)
        and _sorted_close(a.hs, b.hs, a.bound)
        and _sorted_close(a.whs, b.whs, a.wh_bound)
    )


class PeriodicMatcher:
    """detect_periodicity's return test, fed one state at a time: called
    with each event and the surface after it (run_flow's stop), it returns
    True once the new state recurs, and match then holds the return."""

    def __init__(self, start: Surface, rel_tol: float = 1e-9):
        self.rel_tol = rel_tol
        self.states: list[Surface] = []
        self.sigs: list[_Signature] = []
        self.events: list[SplitEvent] = []
        self.match: PeriodicMatch | None = None
        self._add(start)

    def _add(self, s: Surface) -> _Signature:
        self.states.append(s)
        self.sigs.append(_signature(s.flowed_periods(), float(s.lam), self.rel_tol))
        return self.sigs[-1]

    def __call__(self, ev: SplitEvent, s: Surface) -> bool:
        self.events.append(ev)
        b, m2, rel_tol = self._add(s), len(self.states) - 1, self.rel_tol
        for m in range(m2 - 1, -1, -1):
            a = self.sigs[m]
            if not _may_match(a, b):
                continue
            lam_w = math.sqrt(b.lam / a.lam)
            if not lam_w > 1 + 1e-9:
                continue
            for sigma in _triangle_isomorphisms(self.states[m], s):
                glob = None  # the global sign, read off the first edge
                for e, (e2, f) in sigma.items():
                    w1, h1 = a.eff[e]
                    w2, h2 = f * b.eff[e2][0], f * b.eff[e2][1]
                    scale = max(abs(w1), abs(h1), 1e-15)
                    if glob is None:
                        glob = 1 if w1 * w2 > 0 else -1
                    w2, h2 = glob * w2, glob * h2
                    if abs(w2 - w1) > rel_tol * scale or abs(h2 - h1) > rel_tol * scale:
                        break
                else:  # every edge matched
                    relabel = {e: (e2, glob * f) for e, (e2, f) in sigma.items()}
                    self.match = PeriodicMatch(m, m2, relabel, lam_w, tuple(self.events[m:]))
                    return True
        return False


def detect_periodicity(s: Surface, T: float, rel_tol: float = 1e-9, max_events: int = MAX_EVENTS):
    """(trajectory, match): run_flow of s for time T, with its debug
    certificate check, stopped at the first periodic return, and the
    PeriodicMatch of that return, or None when the window holds none.

    A periodic orbit returns to the same point of moduli space, so the
    geometric (flow-applied) period vectors of the two states agree up to a
    relabeling and a global sign.  The width expansion across the period is
    then read off the flow parameters: lam_w = sqrt(lam_{m'} / lam_m).

    A PeriodicMatcher, the flow's stop, tries each new state m' against the
    earlier states nearest first, m = m' - 1 down to 0: the match is the
    first state that recurs, paired with its nearest earlier match, which
    later events cannot change.  Two periods match when they differ by at
    most rel_tol times the larger of |w| and |h| of the edge of state m.
    Each state's signature (its sorted |w|, sorted |h| and sorted signed
    w * h) is built once; the backtracking isomorphism search runs only on
    pairs whose signatures agree entrywise within the tolerance that a match
    implies (see _may_match), a test that never rejects a pair that matches.
    On the slope torus x_n, whose word is LⁿRⁿ, the state n events on is
    the mirror image of the current one, with the same sorted |w| and |h|;
    its signed products differ, and the search runs on the matching pair
    alone.
    """
    matcher = PeriodicMatcher(s, rel_tol)
    return run_flow(s, T, max_events=max_events, stop=matcher), matcher.match
