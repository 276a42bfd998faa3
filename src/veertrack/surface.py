"""Triangulated half-translation surfaces in period coordinates.

A surface is a list of counterclockwise triangles, each an ordered triple of
(edge label, sign), together with one period (w, h) per edge.  The two
occurrences of an edge determine the gluing; opposite occurrence signs mean a
translation gluing, equal signs the half-translation one.

The diagonal flow g_t scales (w, h) to (e^t w, e^{-t} h).  In both modes a
surface keeps its base periods plus the flow parameter lam = e^{2t}
(Surface.replace(lam=...)), and every geometric comparison downstream is
phrased as a comparison rational in lam; rebase folds lam into the periods
of a float copy.

Every decision that depends on the number mode is made by NumberMode, whose
instance a surface holds as s.num: exact mode decides exactly (slack 0, tie
a == b), float mode with the tolerance that each caller names.
"""

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DocumentError, VeertrackError

EPS_AXIS = 1e-9
EPS_ANGLE = 1e-9

Corner = tuple[int, int]  # (triangle index, slot index)


class Period(NamedTuple):
    """One complex edge period, split into width and height."""

    w: object  # Fraction in exact mode, float otherwise
    h: object


class ValidationReport(NamedTuple):
    passed: bool
    violations: tuple[tuple[str, str, str], ...] = ()
    area: object = None  # the shoelace total (as area gives it) when passed


# Fraction expands a decimal exponent into an integer with that many digits,
# so a short string like "1e10000000" would stall the parser; an exponent
# beyond 400 in magnitude is outside the float range in both directions.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


class NumberMode(NamedTuple):
    """How a surface stores, reads, writes and compares its numbers; the two
    instances are NUMBER_MODES["exact"] (Fractions) and ["float"]."""

    name: str
    exact: bool
    coerce: type  # Fraction or float

    def slack(self, tol: float):
        """An absolute slack: tol in float mode, 0 in exact mode."""
        return 0 if self.exact else tol

    def tie(self, a, b, rel: float) -> bool:
        """a == b in exact mode; |a - b| <= rel * max(1, |a|, |b|) in float mode."""
        return a == b if self.exact else abs(a - b) <= rel * max(1.0, abs(a), abs(b))

    def axis_parallel(self, p) -> bool:
        """Whether w or h of p is 0 (exact mode) or within EPS_AXIS of 0."""
        if self.exact:
            return p[0] == 0 or p[1] == 0
        return abs(p[0]) <= EPS_AXIS or abs(p[1]) <= EPS_AXIS

    def ratio(self, x) -> tuple:
        """(p, q) with x = p / q: lowest terms in exact mode, (x, 1) in
        float mode."""
        return (x.numerator, x.denominator) if self.exact else (x, 1)

    def scaled(self, periods) -> tuple:
        """(D, view): every period times D, as a (w, h) pair per edge.  In
        exact mode D is the lcm of all denominators and the view holds
        integers; in float mode D = 1 and the view holds the floats
        themselves.  A decision homogeneous in the periods, made exactly,
        reads the same on the view."""
        if not self.exact:
            return 1, dict(periods)
        d = math.lcm(*(x.denominator for p in periods.values() for x in p))
        return d, {
            e: (w.numerator * (d // w.denominator), h.numerator * (d // h.denominator))
            for e, (w, h) in periods.items()
        }

    def unscaled(self, x, k):
        """x / k, undoing scaled (k a power of D, times an integer):
        Fraction(x, k) in exact mode, x / k in float mode."""
        return Fraction(x, k) if self.exact else x / k

    def from_float(self, x: float):
        """x in this mode; exact mode limits the denominator to 10^12."""
        return Fraction(x).limit_denominator(10**12) if self.exact else x

    def parse(self, x):
        """A number of a surface document; DocumentError on bad input."""
        if self.exact:
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise DocumentError(f"exact mode needs integers or 'p/q' strings, got {x!r}")
        elif isinstance(x, bool) or not isinstance(x, (int, float, str)):
            raise DocumentError(f"float mode needs numbers or numeric strings, got {x!r}")
        exponent = _EXPONENT.search(x) if isinstance(x, str) else None
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > 3 or int(digits or "0") > 400:
                raise DocumentError(f"not a number within the float range: {x!r}")
        try:
            f = Fraction(x) if self.exact or isinstance(x, str) else x
            as_float = float(f)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DocumentError(f"not a number within the float range: {x!r}") from exc
        if not math.isfinite(as_float):
            raise DocumentError(f"not a number within the float range: {x!r}")
        return f if self.exact else as_float

    def emit(self, x):
        """x as the surface document writes it: 'p/q' (or 'p') or a float."""
        return str(Fraction(x)) if self.exact else float(x)


NUMBER_MODES = {"exact": NumberMode("exact", True, Fraction), "float": NumberMode("float", False, float)}


def number_mode(name) -> NumberMode:
    """The number mode called name; DocumentError for any other value."""
    if not (isinstance(name, str) and name in NUMBER_MODES):
        raise DocumentError(f"mode must be 'exact' or 'float', got {name!r}")
    return NUMBER_MODES[name]


class Triangulation:
    """The combinatorics of one labelled triangulation, each piece built on
    first use by the pure builders below.  Flip successors are interned by
    their triangles in one table shared by every triangulation reached from
    the same start, so a triangulation that flips revisit is one object."""

    __slots__ = ("triangles", "_occ", "_sides", "_flips", "_derived", "_table", "__weakref__")

    def __init__(self, triangles: tuple, table: dict | None = None):
        self.triangles = triangles
        self._occ, self._sides, self._flips, self._derived = None, {}, {}, {}
        self._table = table  # the intern table; a start makes it at its first flip

    def occurrences(self) -> dict[str, list[tuple[int, int, int]]]:
        """edge_occurrences(self.triangles)."""
        if self._occ is None:
            self._occ = edge_occurrences(self.triangles)
        return self._occ

    def sides(self, e: str):
        """quad_sides of e; an edge whose sides raise is not kept."""
        got = self._sides.get(e)
        if got is None:
            got = self._sides[e] = quad_sides(self.triangles, self.occurrences(), e)
        return got

    def flipped(self, e: str) -> "Triangulation":
        """The triangulation after exchange_diagonal replaces e."""
        nxt = self._flips.get(e)
        if nxt is None:
            if self._table is None:
                self._table = {self.triangles: self}
            triangles = exchange_diagonal(self.triangles, e, *self.sides(e))
            # setdefault hashes the triangles once and keeps an interned one
            nxt = self._flips[e] = self._table.setdefault(triangles, Triangulation(triangles, self._table))
        return nxt

    def cached(self, key, compute, *args):
        """compute(self, *args), computed once; compute reads the triangles alone."""
        if key not in self._derived:
            self._derived[key] = compute(self, *args)
        return self._derived[key]


def _periods(num: NumberMode, periods) -> dict[str, Period]:
    """periods keyed by str labels, each a Period of num's numbers."""
    conv = num.coerce
    return {str(e): Period(conv(p[0]), conv(p[1])) for e, p in periods.items()}


class Surface:
    """Immutable triangulated surface; mode names its number mode, num is it.
    Use module functions to transform it.

    comb, the Triangulation of the triangles, is shared by every copy with
    the same triangles (replace, rebase).  The geometric cache (cached) is
    shared by copies that differ in lam alone.
    """

    __slots__ = ("triangles", "periods", "num", "lam", "comb", "_derived")

    def __init__(self, triangles, periods, mode, lam=None):
        self.triangles = tuple(tuple((str(e), int(s)) for e, s in tri) for tri in triangles)
        self.num = num = number_mode(mode)
        self.periods = _periods(num, periods)
        self.lam = num.coerce(1) if lam is None else lam
        self.comb = Triangulation(self.triangles)
        self._derived = {}

    @classmethod
    def _normalised(cls, comb, periods, num, lam, derived) -> "Surface":
        """A surface on comb from data already in the form __init__ gives it."""
        s = object.__new__(cls)
        s.triangles, s.periods, s.num, s.lam, s.comb, s._derived = comb.triangles, periods, num, lam, comb, derived
        return s

    @property
    def mode(self) -> str:
        return self.num.name

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.periods))

    @property
    def sigma(self) -> float:
        """e^t as a float (exact value is sqrt(lam), kept symbolic elsewhere)."""
        return math.sqrt(float(self.lam))

    def flowed_periods(self) -> dict[str, tuple[float, float]]:
        """edge -> flowed period (e^t w, e^-t h) as floats, in periods order."""
        sig = self.sigma
        return {e: (float(p.w) * sig, float(p.h) / sig) for e, p in self.periods.items()}

    def replace(self, triangles=None, periods=None, lam=None) -> "Surface":
        """A copy with the given fields replaced; a copy with new periods or
        lam alone shares comb, one with a new lam alone the cache too."""
        lam = self.lam if lam is None else lam
        if triangles is not None:
            return Surface(triangles, self.periods if periods is None else periods, self.mode, lam)
        if periods is None:
            return Surface._normalised(self.comb, self.periods, self.num, lam, self._derived)
        return Surface._normalised(self.comb, _periods(self.num, periods), self.num, lam, {})

    def cached(self, key, compute, *args):
        """compute(self, *args), computed once for this surface and every copy
        that differs from it in lam alone; compute must not read lam."""
        derived = self._derived
        if key not in derived:
            derived[key] = compute(self, *args)
        return derived[key]

    def occurrences(self) -> dict[str, list[tuple[int, int, int]]]:
        """edge -> list of (triangle index, slot, sign); see edge_occurrences."""
        return self.comb.occurrences()

    # -- vertices ----------------------------------------------------------

    def vertex_classes(self) -> list[frozenset[Corner]]:
        """Corners grouped by the vertex of the glued cell complex."""
        return self.comb.cached("vertex_classes", lambda c: corner_classes(c.triangles, c.occurrences()))

    def vertex_angle_multiples(self) -> list[int]:
        """For each vertex, the integer k with cone angle k*pi (unrounded check
        is the caller's business; see validate)."""
        out = []
        for idx, total in enumerate(_cone_totals(self, *self.num.scaled(self.periods))):
            if not math.isfinite(total):
                raise DocumentError(f"vertex {idx}: cone angle overflows the float range")
            out.append(round(total / math.pi))
        return out

    def marked_vertex_flags(self) -> list[bool]:
        """Vertices of cone angle pi or 2*pi are the marked points."""
        return [k <= 2 for k in self.vertex_angle_multiples()]


def edge_occurrences(triangles) -> dict[str, list[tuple[int, int, int]]]:
    """edge -> list of (triangle index, slot, sign), in triangle order."""
    occ: dict[str, list[tuple[int, int, int]]] = {}
    for t, tri in enumerate(triangles):
        for i, (e, s) in enumerate(tri):
            occ.setdefault(e, []).append((t, i, s))
    return occ


def quad_sides(triangles, occ, e: str):
    """(t1, t2, (a, b, c, d)): the two triangles on either side of e and the
    sides of their union, counterclockwise from the end of e in t1.

    occ is the edge_occurrences index of triangles.  The sides of t2 are
    developed into the chart of t1: a half-translation gluing negates them.
    """
    occs = occ[e]
    if len(occs) != 2:
        raise VeertrackError(f"edge {e} is not interior to two triangles")
    (t1, i1, s1), (t2, i2, s2) = occs
    eps = -(s1 * s2)
    a = triangles[t1][(i1 + 1) % 3]
    b = triangles[t1][(i1 + 2) % 3]
    c0 = triangles[t2][(i2 + 1) % 3]
    d0 = triangles[t2][(i2 + 2) % 3]
    c = (c0[0], eps * c0[1])
    d = (d0[0], eps * d0[1])
    return t1, t2, (a, b, c, d)


def exchange_diagonal(triangles, e: str, t1: int, t2: int, sides) -> tuple:
    """The triangles after e is replaced by the other diagonal b + c of the
    quadrilateral quad_sides gave; e keeps its label."""
    a, b, c, d = sides
    out = list(triangles)
    out[t1] = (b, c, (e, -1))
    out[t2] = (d, a, (e, 1))
    return tuple(out)


def find_root(parent, x):
    """Root of x in a union-find forest stored as parent[x] (a dict or a
    list), halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def corner_classes(triangles, occ) -> list[frozenset[Corner]]:
    """Corners grouped by the vertex of the glued cell complex; occ is the
    edge_occurrences index of triangles.

    Corner (t, i) sits at vertex i of triangle t, between sides i-1 and i.
    Gluing the two occurrences (t1,i1) and (t2,i2) of an edge identifies
    corner (t1,i1) with (t2,i2+1) and (t1,i1+1) with (t2,i2).
    """
    parent: dict[Corner, Corner] = {}
    for t in range(len(triangles)):
        for i in range(3):
            parent[(t, i)] = (t, i)
    for e, occs in occ.items():
        if len(occs) != 2:
            raise DocumentError(f"edge {e} used {len(occs)} times")
        (t1, i1, _), (t2, i2, _) = occs
        for a, b in (((t1, i1), (t2, (i2 + 1) % 3)), ((t1, (i1 + 1) % 3), (t2, i2))):
            ra, rb = find_root(parent, a), find_root(parent, b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[Corner, set[Corner]] = {}
    for c in parent:
        groups.setdefault(find_root(parent, c), set()).add(c)
    out = [frozenset(g) for g in groups.values()]
    out.sort(key=lambda g: min(g))
    return out


def _cone_totals(s: Surface, d, view) -> list[float]:
    """The total angle in radians at each vertex of s.vertex_classes(), in
    the base chart (the census k = total / pi does not depend on the flow);
    (d, view) is s.num.scaled(s.periods).  Each edge's period and its
    negation become floats once: view / d is float(x) and float(-x) for a
    Fraction x, x and -x for a float."""
    floats = {e: {1: (w / d, h / d), -1: (-w / d, -h / d)} for e, (w, h) in view.items()}
    totals = []
    for cls in s.vertex_classes():
        total = 0
        for t, i in cls:
            # corner (t, i) lies between side i and side i - 1 reversed
            (e, sg), (f, sf) = s.triangles[t][i], s.triangles[t][i - 1]
            uw, uh = floats[e][sg]
            vw, vh = floats[f][-sf]
            total += math.atan2(uw * vh - uh * vw, uw * vw + uh * vh) % (2 * math.pi)
        totals.append(total)
    return totals


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_surface(document: str) -> Surface:
    """Parse the JSON surface document; raises DocumentError on bad input."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"syntax error at offset {exc.pos}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, too deep nesting
        raise DocumentError(f"unreadable document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    for key in ("mode", "edges", "triangles"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    num = number_mode(doc["mode"])
    if not isinstance(doc["edges"], dict):
        raise DocumentError("edges must be an object mapping labels to [w, h]")
    if not isinstance(doc["triangles"], list):
        raise DocumentError("triangles must be a list")
    periods = {}
    for label, pair in doc["edges"].items():
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise DocumentError(f"edge {label}: period must be [w, h]")
        periods[label] = Period(num.parse(pair[0]), num.parse(pair[1]))
    triangles = []
    for t, tri in enumerate(doc["triangles"]):
        if not (isinstance(tri, list) and len(tri) == 3):
            raise DocumentError(f"triangle {t} must be a list of 3 sides")
        sides = []
        for slot in tri:
            if not (isinstance(slot, dict) and "edge" in slot and "sign" in slot):
                raise DocumentError(f"triangle {t}: a side must be an object with edge and sign")
            e, s = slot["edge"], slot["sign"]
            if type(s) is not int or s not in (1, -1):  # bool and float are not signs
                raise DocumentError(f"triangle {t}: sign must be +-1")
            if not isinstance(e, str) or e not in periods:
                raise DocumentError(f"triangle {t}: unknown edge {e!r}")
            sides.append((e, s))
        triangles.append(tuple(sides))
    lam = num.coerce(1)
    if "flow" in doc:
        lam = num.parse(doc["flow"])
        if not lam > 0:
            raise DocumentError(f"flow parameter must be positive, got {doc['flow']!r}")
        if float(lam) == 0:  # an exact lam below the float range: sigma would be 0
            raise DocumentError(f"flow parameter is not a number within the float range: {doc['flow']!r}")
    comb = Triangulation(tuple(triangles))
    occ = comb.occurrences()
    for e in periods:
        if len(occ.get(e, ())) != 2:
            raise DocumentError(f"edge {e} appears {len(occ.get(e, ()))} times, expected 2")
    surf = Surface._normalised(comb, periods, num, lam, {})
    if "marked_vertices" in doc:
        if not isinstance(doc["marked_vertices"], list):
            raise DocumentError("marked_vertices must be a list")
        declared = len(doc["marked_vertices"])
        derived = sum(surf.marked_vertex_flags())
        if declared != derived:
            raise DocumentError(
                f"marked_vertices lists {declared} points but the cone angles imply {derived}"
            )
    return surf


def surface_doc(s: Surface) -> dict:
    """The surface document of s as a dict, which serialize_surface writes."""
    doc = {
        "mode": s.mode,
        "edges": {e: [s.num.emit(p.w), s.num.emit(p.h)] for e, p in sorted(s.periods.items())},
        "triangles": [[{"edge": e, "sign": sg} for e, sg in tri] for tri in s.triangles],
    }
    if s.lam != 1:
        doc["flow"] = s.num.emit(s.lam)
    return doc


def serialize_surface(s: Surface) -> str:
    return json.dumps(surface_doc(s), indent=2)


# ---------------------------------------------------------------------------
# validation


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _area_scale(num: NumberMode, d) -> tuple:
    """(half, unit): half times a cross product of the view (D = d) counts a
    triangle's area, and num.unscaled(count, unit) is that area.  Exact
    mode counts in units of 1/(2D^2), so counts stay integers; float mode
    counts the areas themselves, as tie's max(1, |a|, |b|) does not scale."""
    return (1, 2 * d * d) if num.exact else (0.5, 1)


def _view_sides(view, tri) -> list:
    """The signed period vectors of a triangle's sides, read from a view."""
    return [view[e] if sg > 0 else (-view[e][0], -view[e][1]) for e, sg in tri]


def _disagreeing_trapezoid(sides, a1, half, num: NumberMode):
    """The trapezoid area of a triangle (largest width times largest height,
    minus half the sum of the per-side width-height products), counted as
    a1 is, when the triangle carries both slope signs and the two areas
    disagree; else None."""
    (uw, uh), (vw, vh), (ww, wh) = sides
    if ((uw > 0) == (uh > 0)) == ((vw > 0) == (vh > 0)) == ((ww > 0) == (wh > 0)):
        return None  # one slope sign throughout
    uw, uh, vw, vh, ww, wh = abs(uw), abs(uh), abs(vw), abs(vh), abs(ww), abs(wh)
    a2 = max(uw, vw, ww) * max(uh, vh, wh) * (2 * half) - (uw * uh + vw * vh + ww * wh) * half
    return None if num.tie(a1, a2, 1e-12) else a2


def validate(s: Surface) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions.
    The report of a surface that passes carries its area, the total that
    area(s) gives.  The gluing rules state what the combinatorial code
    assumes: each period glues two triangle sides into one connected surface.

    The checks read the view of NumberMode.scaled, integers in exact mode
    and the periods themselves in float mode; a number is unscaled only for
    a message or the area."""
    violations: list[tuple[str, str, str]] = []
    if not s.triangles:
        return ValidationReport(False, (("empty", "surface", "no triangles"),))

    occ = s.occurrences()
    parent = list(range(len(s.triangles)))  # union-find of the glued triangles
    for e, occs in occ.items():
        if e not in s.periods:
            violations.append(("gluing", e, "edge has no period"))
        elif len(occs) != 2:
            violations.append(("gluing", e, f"edge used {len(occs)} times"))
        else:
            parent[find_root(parent, occs[0][0])] = find_root(parent, occs[1][0])
    violations += [("gluing", e, "edge used 0 times") for e in s.periods if e not in occ]
    if violations:
        return ValidationReport(False, tuple(violations))
    components = sum(1 for t, r in enumerate(parent) if r == t)
    if components > 1:
        violations.append(("connected", "surface", f"the triangles form {components} components"))

    num = s.num
    d, view = num.scaled(s.periods)
    half, unit = _area_scale(num, d)
    slack = num.slack(1e-9)
    disagreements = []
    shoelace = 0
    for t, tri in enumerate(s.triangles):
        sides = _view_sides(view, tri)
        (uw, uh), (vw, vh), (ww, wh) = sides
        # summed from 0 as sum() does, so a float zero sum reads 0.0, not -0.0
        sw = 0 + uw + vw + ww
        sh = 0 + uh + vh + wh
        if abs(sw) > slack or abs(sh) > slack:
            violations.append(
                ("zero-sum", f"triangle {t}",
                 f"signed periods sum to ({num.unscaled(sw, d)}, {num.unscaled(sh, d)})")
            )
        cr = uw * vh - uh * vw
        if not cr > slack:
            violations.append(
                ("orientation", f"triangle {t}", f"cross product {num.unscaled(cr, d * d)} not positive")
            )
        a1 = cr * half
        shoelace += a1
        a2 = _disagreeing_trapezoid(sides, a1, half, num)
        if a2 is not None:
            disagreements.append(
                ("area", f"triangle {t}",
                 f"area formulas disagree ({num.unscaled(a1, unit)} vs {num.unscaled(a2, unit)})")
            )

    for e, p in view.items():
        if num.axis_parallel(p):
            q = s.periods[e]
            violations.append(("axis", e, f"axis-parallel period ({q.w}, {q.h})"))

    if not any(v[0] in ("zero-sum", "orientation") for v in violations):
        for idx, total in enumerate(_cone_totals(s, d, view)):
            k = total / math.pi
            if (
                not math.isfinite(k)
                or abs(k - round(k)) > EPS_ANGLE * max(1.0, abs(k))
                or round(k) < 1
            ):
                violations.append(("cone-angle", f"vertex {idx}", f"total angle {total} is not a multiple of pi"))

    # the trapezoid formula assumes closed triangles without axis-parallel
    # sides, so its disagreements count only on an otherwise valid surface
    if not violations:
        violations = disagreements

    area = None if violations else num.unscaled(shoelace, unit)
    return ValidationReport(not violations, tuple(violations), area)


# ---------------------------------------------------------------------------
# area and flow


def area(s: Surface) -> object:
    """Total flat area; cross-checks the two per-triangle formulas on the
    view of NumberMode.scaled, as validate does."""
    num = s.num
    d, view = num.scaled(s.periods)
    half, unit = _area_scale(num, d)
    total = 0
    for t, tri in enumerate(s.triangles):
        sides = _view_sides(view, tri)
        a1 = cross(sides[0], sides[1]) * half
        a2 = _disagreeing_trapezoid(sides, a1, half, num)
        if a2 is not None:
            a1, a2 = num.unscaled(a1, unit), num.unscaled(a2, unit)
            raise ArithmeticError(f"triangle {t}: area formulas disagree ({a1} vs {a2})")
        if not a1 > 0:
            raise ArithmeticError(f"triangle {t} has non-positive area {num.unscaled(a1, unit)}")
        total += a1
    return num.unscaled(total, unit)


def rebase(s: Surface) -> Surface:
    """Fold the flow parameter into the stored periods of a float-mode copy;
    the one place a surface leaves exact mode on purpose; it shares s.comb."""
    num = NUMBER_MODES["float"]
    return Surface._normalised(s.comb, _periods(num, s.flowed_periods()), num, num.coerce(1), {})
