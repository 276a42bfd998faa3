"""L-infinity geometry of a triangulation: slopes, flips, the Delaunay
certificate and the greedy reduction.

All length comparisons are made at the surface's current flow parameter lam:
comparing max(e^t|w|, e^{-t}|h|) values is, after multiplying through by
q e^t for lam = p/q, the comparison of max(p|w|, q|h|), which stays rational
in exact mode.  Every decision here is homogeneous in the periods and in
(p, q), so the greedy reduction makes it on integers: the periods times the
lcm of their denominators (NumberMode.scaled).
"""

from typing import NamedTuple

from .errors import DegeneracyError, NotFlippableError, VeertrackError
from .surface import Period, Surface, cross, edge_occurrences, exchange_diagonal, quad_sides

FLOAT_TIE = 1e-9
MAX_FLIPS = 10000


def linf_scaled(s: Surface, vec) -> float:
    """Flowed L-infinity length of a period vector of s, as a float."""
    sig = s.sigma
    return max(abs(float(vec[0])) * sig, abs(float(vec[1])) / sig)


def certificate_fails(num, lam, e: str, diag, period) -> bool:
    """Whether the other diagonal diag of the quadrilateral of e is strictly
    shorter than e's period in flowed L-infinity length at lam = p/q, given
    as the pair (p, q).  An exact tie is a hard error: the Delaunay
    triangulation is not unique there."""
    a = max(lam[0] * abs(diag[0]), lam[1] * abs(diag[1]))
    b = max(lam[0] * abs(period[0]), lam[1] * abs(period[1]))
    if num.tie(a, b, FLOAT_TIE):
        raise DegeneracyError(f"edge {e}: certificate tie (equal L-infinity lengths)")
    return not a > b  # two float lengths that overflow to inf fail


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


def _signed_vectors(periods, sides) -> tuple:
    """The (w, h) period of each (edge, sign) side, negated for sign -1."""
    vecs = []
    for x, sg in sides:
        w, h = periods[x]
        vecs.append((w, h) if sg > 0 else (-w, -h))
    return tuple(vecs)


def build_quad(s: Surface, e: str) -> Quad:
    t1, t2, sides = quad_sides(s.triangles, s.occurrences(), e)
    return Quad(e, t1, t2, sides, _signed_vectors(s.periods, sides))


def _diagonal_rule(num, e: str, vectors) -> tuple:
    """(other diagonal b + c, flippable flag, axis-parallel error message or
    None) of the quadrilateral of e whose sides a, b, c, d have the given
    signed vectors."""
    va, vb, vc, vd = vectors
    diag = (vb[0] + vc[0], vb[1] + vc[1])
    slack = num.slack(1e-12)
    # zero cross product: one of the would-be triangles is flat, which
    # happens structurally when the two triangles share a second edge
    # (a flat cylinder); the diagonal exchange is illegal there
    flippable = cross(vb, vc) > slack and cross(vd, va) > slack
    error = None
    if flippable and num.axis_parallel(diag):
        error = f"edge {e}: new diagonal is axis-parallel"
    return diag, flippable, error


def _quad_entry(s: Surface, e: str) -> tuple:
    """(quad, other diagonal, flippable flag, axis-parallel error message or
    None) for the edge e of s: built from build_quad the first time e is
    asked for, and kept for s and its lam-only copies."""
    entries = s.cached("quads", lambda _: {})
    entry = entries.get(e)
    if entry is None:
        q = build_quad(s, e)
        entry = entries[e] = (q, *_diagonal_rule(s.num, e, q.vectors))
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
    diagonal (certificate_fails)."""
    lam = s.num.ratio(s.lam)
    out = []
    periods = s.periods
    for e in s.edges:
        diag, flippable = other_diagonal(s, e)
        if flippable and certificate_fails(s.num, lam, e, diag, periods[e]):
            out.append(e)
    return out


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
    the certificate passes; s itself, with no flips, when it already does.

    The flips run on the triangles, their occurrence index and the scaled
    periods of NumberMode.scaled, and build one Surface at the end.  A flip
    changes the two triangles around its edge and nothing else, so only
    that edge and the sides of its quadrilateral are tested again, in label
    order, as a full pass would meet them."""
    num = s.num
    lam = num.ratio(s.lam)
    scale, view = num.scaled(s.periods)
    triangles, occ, periods = s.triangles, s.occurrences(), dict(s.periods)
    records: list[FlipRecord] = []
    bad = {}  # violating edge -> (minus its flowed length, t1, t2, sides, diagonal)
    touched = s.edges
    for _ in range(MAX_FLIPS):
        for f in sorted(touched):
            t1, t2, sides = quad_sides(triangles, occ, f)
            diag, flippable, error = _diagonal_rule(num, f, _signed_vectors(view, sides))
            if error is not None:
                raise DegeneracyError(error)
            if flippable and certificate_fails(num, lam, f, diag, view[f]):
                w, h = view[f]
                bad[f] = (-linf_scaled(s, (w / scale, h / scale)), t1, t2, sides, diag)
            else:
                bad.pop(f, None)
        if not bad:
            if not records:
                return s, records
            return Surface._normalised(triangles, periods, num, s.lam, {}), records
        e = min(bad, key=lambda f: (bad[f][0], f))
        _, t1, t2, sides, diag = bad.pop(e)
        old = periods[e]
        periods[e] = Period(num.coerce(diag[0]) / scale, num.coerce(diag[1]) / scale)
        records.append(FlipRecord(e, (old.w, old.h), tuple(periods[e])))
        view[e] = diag
        triangles = exchange_diagonal(triangles, e, t1, t2, sides)
        occ = edge_occurrences(triangles)
        touched = {x for t in (t1, t2) for x, _ in triangles[t]}
    raise VeertrackError(f"greedy did not terminate within {MAX_FLIPS} flips")
