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
from .surface import Period, Surface, Triangulation, edge_occurrences, exchange_diagonal, quad_sides

FLOAT_TIE = 1e-9
MAX_FLIPS = 10000


def linf_scaled(s: Surface, vec) -> float:
    """Flowed L-infinity length of a period vector of s, as a float."""
    sig = s.sigma
    return max(abs(float(vec[0])) * sig, abs(float(vec[1])) / sig)


def certificate_fails(num, lam, q: "Quad", period) -> bool:
    """Whether the other diagonal of the quadrilateral q is strictly shorter
    than period, the present diagonal's, in flowed L-infinity length at
    lam = p/q, given as the pair (p, q).  An exact tie is a hard error: the
    Delaunay triangulation is not unique there."""
    diag = q.diagonal
    a = max(lam[0] * abs(diag[0]), lam[1] * abs(diag[1]))
    b = max(lam[0] * abs(period[0]), lam[1] * abs(period[1]))
    if num.tie(a, b, FLOAT_TIE):
        raise DegeneracyError(f"edge {q.edge}: certificate tie (equal L-infinity lengths)")
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
    diagonal: tuple  # the other diagonal b + c
    flippable: bool  # both triangles of the exchange are positively oriented


class FlipRecord(NamedTuple):
    old_edge: str
    old_period: tuple
    new_period: tuple


def develop(num, periods, e: str, t1: int, t2: int, sides) -> Quad:
    """The quadrilateral of e with the triangles and sides quad_sides gives,
    its vectors read from periods, which map each edge to a (w, h) pair;
    DegeneracyError when e is flippable and the other diagonal is
    axis-parallel."""
    # unrolled over the four sides: this runs once per tested edge
    (a, sa), (b, sb), (c, sc), (d, sd) = sides
    aw, ah = periods[a]
    bw, bh = periods[b]
    cw, ch = periods[c]
    dw, dh = periods[d]
    if sa < 0:
        aw, ah = -aw, -ah
    if sb < 0:
        bw, bh = -bw, -bh
    if sc < 0:
        cw, ch = -cw, -ch
    if sd < 0:
        dw, dh = -dw, -dh
    diag = (bw + cw, bh + ch)
    slack = num.slack(1e-12)
    # zero cross product: one of the would-be triangles is flat, which
    # happens structurally when the two triangles share a second edge
    # (a flat cylinder); the diagonal exchange is illegal there
    flippable = bw * ch - bh * cw > slack and dw * ah - dh * aw > slack
    if flippable and num.axis_parallel(diag):
        raise DegeneracyError(f"edge {e}: new diagonal is axis-parallel")
    # _make skips the keyword binding of Quad(...), once per tested edge
    return Quad._make((e, t1, t2, sides, ((aw, ah), (bw, bh), (cw, ch), (dw, dh)), diag, flippable))


def build_quad(s: Surface, e: str) -> Quad:
    return develop(s.num, s.periods, e, *s.comb.sides(e))


def quad(s: Surface, e: str) -> Quad:
    """build_quad(s, e), built once for s and its lam-only copies; an edge
    whose build raises is not kept, so it raises on every call."""
    quads = s._derived.get("quads")
    if quads is None:
        quads = s._derived["quads"] = {}
    q = quads.get(e)
    if q is None:
        q = quads[e] = build_quad(s, e)
    return q


def delaunay_violations(s: Surface) -> list[str]:
    """Edges whose flippable quadrilateral has a strictly shorter other
    diagonal (certificate_fails)."""
    lam = s.num.ratio(s.lam)
    out = []
    periods = s.periods
    for e in s.edges:
        q = quad(s, e)
        if q.flippable and certificate_fails(s.num, lam, q, periods[e]):
            out.append(e)
    return out


def flip(s: Surface, e: str, lam) -> Surface:
    """Replace e by the other diagonal of its quadrilateral, on the copy of s
    at lam; e keeps its label."""
    q = quad(s, e)
    if not q.flippable:
        raise NotFlippableError(f"edge {e}: quadrilateral is not convex")
    periods = dict(s.periods)
    periods[e] = Period._make(q.diagonal)
    return Surface._normalised(s.comb.flipped(e), periods, s.num, lam, {})


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
    bad = {}  # violating edge -> (minus its flowed length, its Quad on the view)
    touched = s.edges
    for _ in range(MAX_FLIPS):
        for f in sorted(touched):
            q = develop(num, view, f, *quad_sides(triangles, occ, f))
            if q.flippable and certificate_fails(num, lam, q, view[f]):
                w, h = view[f]
                bad[f] = (-linf_scaled(s, (w / scale, h / scale)), q)
            else:
                bad.pop(f, None)
        if not bad:
            if not records:
                return s, records
            # a new Triangulation: keeping each flip's, as flip does, made the
            # greedy a fifth slower on the census shears, with nothing reused
            return Surface._normalised(Triangulation(triangles), periods, num, s.lam, {}), records
        e = min(bad, key=lambda f: (bad[f][0], f))
        q = bad.pop(e)[1]
        diag = q.diagonal
        old = periods[e]
        periods[e] = Period(num.unscaled(diag[0], scale), num.unscaled(diag[1], scale))
        records.append(FlipRecord(e, (old.w, old.h), tuple(periods[e])))
        view[e] = diag
        triangles = exchange_diagonal(triangles, e, q.t1, q.t2, q.sides)
        occ = edge_occurrences(triangles)
        touched = {x for t in (q.t1, q.t2) for x, _ in triangles[t]}
    raise VeertrackError(f"greedy did not terminate within {MAX_FLIPS} flips")
