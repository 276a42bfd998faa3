"""L-infinity geometry of a triangulation: slopes, flips, the Delaunay
certificate and the greedy reduction.

All length comparisons are made at the surface's current flow parameter lam:
comparing max(e^t|w|, e^{-t}|h|) values is, after multiplying through by e^t,
the comparison of max(lam |w|, |h|), which stays rational in exact mode.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegeneracyError, NotFlippableError, VeertrackError
from .surface import Surface, cross, quad_sides

FLOAT_TIE = 1e-9
MAX_FLIPS = 10000


def linf_length(p) -> object:
    """max(|w|, |h|) of a period or plain (w, h) pair."""
    return max(abs(p[0]), abs(p[1]))


def linf_scaled(s: Surface, vec) -> float:
    """Flowed L-infinity length of a period vector of s, as a float."""
    sig = s.sigma
    return max(abs(float(vec[0])) * sig, abs(float(vec[1])) / sig)


def _linf_key(s: Surface, vec):
    """Comparison key: the flowed length multiplied through by e^t."""
    return max(s.lam * abs(vec[0]), abs(vec[1]))


def cmp_linf(s: Surface, u, v) -> int:
    """-1/0/+1 comparison of flowed L-infinity lengths; 0 means a tie."""
    a, b = _linf_key(s, u), _linf_key(s, v)
    if s.num.tie(a, b, FLOAT_TIE):
        return 0
    return 1 if a > b else -1


def slope_sign(s: Surface, p) -> int:
    """Sign of w*h for a period p of s; raises on axis-parallel periods."""
    if s.num.axis_parallel(p):
        raise DegeneracyError(f"axis-parallel period ({p[0]}, {p[1]})")
    return 1 if (p[0] > 0) == (p[1] > 0) else -1


def is_veering(s: Surface) -> bool:
    """No triangle carries three edges of one slope sign."""
    for t in range(len(s.triangles)):
        signs = {slope_sign(s, s.periods[e]) for e, _ in s.triangles[t]}
        if len(signs) < 2:
            return False
    return True


class Quad(NamedTuple):
    """The quadrilateral around an interior edge, developed into one chart.

    Sides run a, b, c, d counterclockwise; the present diagonal joins the
    start of a to the end of b, the other diagonal is b + c.  Each side is an
    (edge, sign) occurrence whose sign is already adjusted for the developing
    map (a half-translation gluing negates the far triangle's chart).
    """

    edge: str
    t1: int
    t2: int
    sides: tuple[tuple[str, int], ...]  # a, b, c, d
    vectors: tuple  # signed period vectors of a, b, c, d


class FlipRecord(NamedTuple):
    old_edge: str
    old_period: tuple
    new_period: tuple


def build_quad(s: Surface, e: str) -> Quad:
    t1, t2, sides = quad_sides(s.triangles, s.occurrences(), e)
    periods = s.periods
    vecs = []
    for eid, sg in sides:
        p = periods[eid]
        vecs.append((p.w, p.h) if sg > 0 else (-p.w, -p.h))
    return Quad(e, t1, t2, sides, tuple(vecs))


def _quad_entry(s: Surface, e: str) -> tuple:
    """(quad, other diagonal, flippable flag, axis-parallel error message or
    None) for the edge e of s: built from build_quad the first time e is
    asked for, and kept for s and its lam-only copies."""
    entries = s.cached("quads", lambda _: {})
    entry = entries.get(e)
    if entry is None:
        q = build_quad(s, e)
        va, vb, vc, vd = q.vectors
        diag = (vb[0] + vc[0], vb[1] + vc[1])
        slack = s.num.slack(1e-12)
        # zero cross product: one of the would-be triangles is flat, which
        # happens structurally when the two triangles share a second edge
        # (a flat cylinder); the diagonal exchange is illegal there
        flippable = cross(vb, vc) > slack and cross(vd, va) > slack
        error = None
        if flippable and s.num.axis_parallel(diag):
            error = f"edge {e}: new diagonal is axis-parallel"
        entry = entries[e] = (q, diag, flippable, error)
    return entry


def quad(s: Surface, e: str) -> Quad:
    """build_quad(s, e), built once for s and its lam-only copies."""
    return _quad_entry(s, e)[0]


def other_diagonal(s: Surface, e: str):
    """(diagonal period vector, flippable flag) for the quadrilateral of e,
    computed once for s and its lam-only copies; DegeneracyError, on every
    call, when e is flippable and the diagonal is axis-parallel."""
    _, diag, flippable, error = _quad_entry(s, e)
    if error is not None:
        raise DegeneracyError(error)
    return diag, flippable


def delaunay_violations(s: Surface) -> list[str]:
    """Edges whose flippable quadrilateral has a strictly shorter other
    diagonal.  An exact tie is a hard error: the Delaunay triangulation is
    not unique there."""
    out = []
    periods = s.periods
    for e in s.edges:
        diag, flippable = other_diagonal(s, e)
        if not flippable:
            continue
        c = cmp_linf(s, diag, periods[e])
        if c == 0:
            raise DegeneracyError(f"edge {e}: certificate tie (equal L-infinity lengths)")
        if c < 0:
            out.append(e)
    return out


def is_delaunay(s: Surface) -> bool:
    return not delaunay_violations(s)


def flip(s: Surface, e: str) -> tuple[Surface, FlipRecord]:
    """Replace e by the other diagonal of its quadrilateral; e keeps its label."""
    new_p, flippable = other_diagonal(s, e)
    if not flippable:
        raise NotFlippableError(f"edge {e}: quadrilateral is not convex")
    q = quad(s, e)
    old = s.periods[e]
    rec = FlipRecord(e, (old.w, old.h), new_p)
    return s.exchanged(e, q.t1, q.t2, q.sides, new_p), rec


def greedy_delaunay(s: Surface) -> tuple[Surface, list[FlipRecord]]:
    """Flip violating edges, longest first (label order breaks ties), until
    the certificate passes; s itself, with no flips, when it already does."""
    records: list[FlipRecord] = []
    cur = s
    for _ in range(MAX_FLIPS):
        bad = delaunay_violations(cur)
        if not bad:
            return cur, records
        bad.sort(key=lambda e: (-linf_scaled(cur, cur.periods[e]), e))
        cur, rec = flip(cur, bad[0])
        records.append(rec)
    raise VeertrackError(f"greedy did not terminate within {MAX_FLIPS} flips")


def total_linf(s: Surface) -> float:
    """Sum of flowed L-infinity edge lengths (the greedy's potential)."""
    return sum(linf_scaled(s, s.periods[e]) for e in s.edges)
