"""Surface data model: parsing, validation, vertices, area, flow."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    count_fraction_work,
    disjoint_copies,
    one_triangle,
    random_veering_triangle,
    reference_validate,
    sheared_surface,
    trapezoid_area,
)

from veertrack.errors import DocumentError, VeertrackError
from veertrack.fixtures import gold, octagon, pillow, t2
from veertrack.surface import (
    Surface,
    area,
    parse_surface,
    rebase,
    serialize_surface,
    validate,
)


class TestParsing:
    def test_round_trip_exact(self):
        s = t2()
        again = parse_surface(serialize_surface(s))
        assert again.triangles == s.triangles
        assert again.periods == s.periods
        assert again.mode == "exact"

    def test_round_trip_float_with_flow(self):
        s = gold().replace(lam=math.exp(2 * 0.37))
        again = parse_surface(serialize_surface(s))
        assert again.lam == pytest.approx(math.exp(2 * 0.37))
        for e in s.edges:
            assert float(again.periods[e].w) == pytest.approx(float(s.periods[e].w))

    def test_bad_json_rejected(self):
        with pytest.raises(DocumentError):
            parse_surface("{not json")

    def test_missing_field_rejected(self):
        with pytest.raises(DocumentError):
            parse_surface(json.dumps({"mode": "exact", "edges": {}}))

    def test_edge_multiplicity_rejected(self):
        doc = json.loads(serialize_surface(t2()))
        doc["triangles"][1][0]["edge"] = "e2"
        with pytest.raises(DocumentError):
            parse_surface(json.dumps(doc))

    def test_marked_vertex_count_cross_checked(self):
        doc = json.loads(serialize_surface(t2()))
        doc["marked_vertices"] = ["v0"]
        parse_surface(json.dumps(doc))
        doc["marked_vertices"] = ["v0", "v1"]
        with pytest.raises(DocumentError):
            parse_surface(json.dumps(doc))


def _mutated(change):
    doc = json.loads(serialize_surface(t2()))
    change(doc)
    return json.dumps(doc)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d.update(edges=[["1", "3/10"]]),
            lambda d: d.update(mode="rational"),
            lambda d: d.update(mode=["exact"]),
            lambda d: d["edges"]["e1"].__setitem__(0, "one"),
            lambda d: d["edges"]["e1"].__setitem__(0, 0.5),
            lambda d: d["edges"]["e1"].__setitem__(0, True),
            lambda d: d.update(mode="float") or d["edges"]["e1"].__setitem__(0, "one"),
            lambda d: d["edges"]["e1"].__setitem__(0, "1/0"),
            lambda d: d["edges"]["e1"].__setitem__(0, 10**400),
            lambda d: d.update(mode="float") or d["edges"]["e1"].__setitem__(0, [1]),
            lambda d: d.update(mode="float") or d["edges"]["e1"].__setitem__(0, float("inf")),
            lambda d: d["triangles"].__setitem__(0, 7),
            lambda d: d["triangles"][0].__setitem__(0, "e1"),
            lambda d: d["triangles"][0][0].pop("sign"),
            lambda d: d["triangles"][0][0].__setitem__("edge", ["e1"]),
            lambda d: d.update(triangles={"abc": []}),
            lambda d: d.update(flow="-1"),
            lambda d: d.update(marked_vertices=3),
            lambda d: d["triangles"][0][0].__setitem__("sign", True),
            lambda d: d["triangles"][0][0].__setitem__("sign", 1.0),
        ],
        ids=[
            "edges-list", "unknown-mode", "mode-list", "exact-word-period", "exact-float-period", "exact-bool-period", "float-word-period", "zero-denominator",
            "exact-overflow", "float-list-period", "float-infinity", "triangle-int", "slot-string",
            "slot-without-sign", "edge-list", "triangles-object", "negative-flow",
            "marked-int", "sign-bool", "sign-float",
        ],
    )
    def test_rejected_as_document_error(self, change):
        with pytest.raises(DocumentError):
            parse_surface(_mutated(change))

    def test_triangles_must_be_a_list(self):
        # an empty object would otherwise read as no triangles
        with pytest.raises(DocumentError, match="triangles must be a list"):
            parse_surface(_mutated(lambda d: d.update(triangles={})))

    # Fraction would expand these exponents into ten-million-digit integers
    @pytest.mark.parametrize("number", ["1e10000000", "1e-10000000"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("field", ["period", "flow"])
    def test_huge_exponent_rejected(self, number, mode, field):
        def change(d):
            d["mode"] = mode
            if field == "flow":
                d["flow"] = number
            else:
                d["edges"]["e1"][0] = number

        with pytest.raises(DocumentError, match="float range"):
            parse_surface(_mutated(change))

    # positive, but its float is 0.0, so sigma would be 0 downstream
    @pytest.mark.parametrize("flow", ["1e-400", "1/1" + "0" * 400], ids=["exponent", "written-out"])
    def test_flow_below_float_range_rejected(self, flow):
        def change(d):
            d["mode"] = "exact"
            d["flow"] = flow

        with pytest.raises(DocumentError, match="not a number within the float range"):
            parse_surface(_mutated(change))

    def test_moderate_exponent_accepted(self):
        s = parse_surface(_mutated(lambda d: d["edges"]["e1"].__setitem__(0, "10e-1")))
        assert s.periods["e1"].w == 1

    def test_overflowing_cone_angle_is_a_violation(self):
        # exact sums keep every triangle closed, but the corner angles overflow
        big = 2.0**1000
        periods = {
            "e1": (10 * big, 3 * big),
            "e2": (-4 * big, 10 * big),
            "e3": (-6 * big, -13 * big),
        }
        s = parse_surface(_mutated(lambda d: d.update(mode="float")))
        report = validate(s.replace(periods=periods))
        assert ("cone-angle", "vertex 0") in [v[:2] for v in report.violations]
        with pytest.raises(DocumentError):
            s.replace(periods=periods).vertex_angle_multiples()


class TestValidation:
    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_fixtures_pass(self, build):
        assert validate(build()).passed

    def test_broken_zero_sum_reported(self):
        s = t2()
        bad = s.replace(periods={**s.periods, "e1": (Fraction(1), Fraction(1))})
        report = validate(bad)
        assert not report.passed
        assert any(v[0] == "zero-sum" for v in report.violations)

    def test_axis_parallel_reported(self):
        s = t2()
        periods = {
            "e1": (Fraction(1), Fraction(0)),
            "e2": (Fraction(-2, 5), Fraction(1)),
            "e3": (Fraction(-3, 5), Fraction(-1)),
        }
        report = validate(s.replace(periods=periods))
        assert any(v[0] == "axis" for v in report.violations)

    def test_orientation_reported(self):
        s = t2()
        tris = [tuple(reversed(tri)) for tri in s.triangles]
        report = validate(s.replace(triangles=tris))
        assert any(v[0] == "orientation" for v in report.violations)


def _sheared_t2(mode):
    """t2 under the shear (w, h) -> (w + k h, h) that takes e1 to (1/10^10, 3/10)."""
    s = t2()
    k = (Fraction(1, 10**10) - 1) / Fraction(3, 10)
    periods = {e: (p.w + k * p.h, p.h) for e, p in s.periods.items()}
    return Surface(s.triangles, periods, mode)


class TestExactDecisions:
    """Exact mode decides closure and the axis test without rounding."""

    def test_closure_defect_below_float_range_is_zero_sum(self):
        s = t2()
        e3 = s.periods["e3"]
        report = validate(s.replace(periods={**s.periods, "e3": (e3.w + Fraction(1, 10**400), e3.h)}))
        assert [v[0] for v in report.violations] == ["zero-sum", "zero-sum"]

    def test_small_exact_width_is_not_axis_parallel(self):
        s = _sheared_t2("exact")
        assert validate(s).passed
        wide = s.replace(periods={e: (p.w * 10**10, p.h) for e, p in s.periods.items()})
        assert validate(wide).passed

    def test_small_float_width_is_axis_parallel(self):
        report = validate(_sheared_t2("float"))
        assert [v[:2] for v in report.violations] == [("axis", "e1")]


def _mutated_surface(s: Surface, kind: str, e: str, t: int) -> Surface:
    """s broken in one way, at edge e or triangle t where the way needs one."""
    one = s.num.coerce(1)
    w, h = s.periods[e]
    if kind == "gluing":  # e's side of t names another edge instead
        tri = s.triangles[t]
        other = next(f for f in s.edges if f != tri[0][0])
        return s.replace(triangles=[*s.triangles[:t], ((other, tri[0][1]), *tri[1:]), *s.triangles[t + 1:]])
    if kind == "empty":
        return s.replace(triangles=())
    if kind == "unused":  # a period that no triangle names
        return s.replace(periods={**s.periods, "zz": (w, h)})
    if kind == "no-period":  # e's sides name a label without a period
        return s.replace(periods={f: p for f, p in s.periods.items() if f != e})
    if kind == "connected":
        return disjoint_copies(s)
    if kind == "zero-sum":
        return s.replace(periods={**s.periods, e: (w + one / 7, h)})
    if kind == "orientation":
        return s.replace(triangles=[tuple(reversed(tri)) if u == t else tri for u, tri in enumerate(s.triangles)])
    if kind == "axis":  # the shear that lays e flat keeps every triangle closed
        k = h / w
        return s.replace(periods={f: (p.w, p.h - k * p.w) for f, p in s.periods.items()})
    if kind == "cone-angle":  # the corner products overflow the float range
        return s.replace(periods={f: (p.w * 2**1000, p.h * 2**1000) for f, p in s.periods.items()})
    if kind in SMALL_DEFECTS:
        return s.replace(periods={**s.periods, e: (w + SMALL_DEFECTS[kind] * one, h)})
    return s


# closure defects that float mode's slack of 1e-9 lets through: on t2 the
# first puts the two area formulas 3e-10 apart, the second 8e-13 apart,
# inside the 1e-12 tie of the areas but outside that of their doubles
SMALL_DEFECTS = {"area": Fraction(5, 10**10), "area-tie": Fraction(12, 10**13), "sub-float": Fraction(1, 10**400)}
MUTATIONS = (
    "none", "gluing", "unused", "no-period", "empty", "connected", "zero-sum", "orientation", "axis",
    "cone-angle", *SMALL_DEFECTS,
)

# the first violation each mutation of t2 gives, in exact and in float
# mode; exact mode sees every small closure defect as zero-sum
FIRST_VIOLATION = {
    **{kind: (kind, kind) for kind in MUTATIONS},
    "none": (None, None),
    "unused": ("gluing", "gluing"),
    "no-period": ("gluing", "gluing"),
    "area": ("zero-sum", "area"),
    "area-tie": ("zero-sum", None),
    "sub-float": ("zero-sum", None),
}


class TestGluingRules:
    """validate states the gluing that the combinatorial code assumes: each
    period glues two triangle sides, into one connected surface."""

    @pytest.mark.parametrize("build", [t2, lambda: t2("float"), gold, pillow, octagon])
    @pytest.mark.parametrize("count", [2, 3])
    def test_disjoint_copies_are_not_connected(self, build, count):
        s = build()
        assert validate(s).passed
        expected = ("connected", "surface", f"the triangles form {count} components")
        assert validate(disjoint_copies(s, count)) == (False, (expected,), None)

    def test_an_unused_period_is_a_gluing_violation(self):
        s = t2()
        report = validate(s.replace(periods={**s.periods, "zz": (1, 1)}))
        assert report == (False, (("gluing", "zz", "edge used 0 times"),), None)

    def test_a_side_without_a_period_is_a_gluing_violation(self):
        s = t2()
        report = validate(s.replace(periods={e: p for e, p in s.periods.items() if e != "e3"}))
        assert report == (False, (("gluing", "e3", "edge has no period"),), None)

    @pytest.mark.parametrize(
        "edges, message",
        [({"zz": ["1", "1"]}, "edge zz appears 0 times, expected 2"), ({}, "unknown edge 'e3'")],
        ids=["unused", "no-period"],
    )
    def test_documents_refuse_both_when_parsed(self, edges, message):
        doc = json.loads(serialize_surface(t2()))
        if not edges:
            del doc["edges"]["e3"]
        doc["edges"].update(edges)
        with pytest.raises(DocumentError, match=message):
            parse_surface(json.dumps(doc))


class TestScaledView:
    """validate reads the integer view of NumberMode.scaled and reports what
    the corner-by-corner reference on the surface's own numbers reports."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_each_violation_matches_the_reference(self, kind, mode):
        s = _mutated_surface(t2(mode), kind, "e3", 0)
        report, expected = validate(s), reference_validate(s)
        assert report == expected
        assert type(report.area) is type(expected.area)
        first = FIRST_VIOLATION[kind][mode == "float"]
        assert [v[0] for v in report.violations[:1]] == ([first] if first else [])

    @settings(max_examples=150, deadline=None)
    @given(
        build=st.sampled_from([t2, pillow, octagon]),
        mode=st.sampled_from(["exact", "float"]),
        seed=st.integers(0, 2**32),
        kind=st.sampled_from(MUTATIONS),
        data=st.data(),
    )
    def test_sheared_surfaces_match_the_reference(self, build, mode, seed, kind, data):
        s = sheared_surface(build(mode), random.Random(seed))
        e = data.draw(st.sampled_from(s.edges))
        t = data.draw(st.integers(0, len(s.triangles) - 1))
        s = _mutated_surface(s, kind, e, t)
        report, expected = validate(s), reference_validate(s)
        assert report == expected
        assert type(report.area) is type(expected.area)

    def test_exact_validate_does_no_fraction_work_per_triangle(self, monkeypatch):
        s = octagon()
        calls = count_fraction_work(monkeypatch)
        report = validate(s)
        monkeypatch.undo()
        assert report.passed
        assert calls == {"__new__": 1}  # the area, built once from the integer total


class TestVertices:
    def test_torus_single_vertex_angle_2pi(self):
        s = t2()
        assert s.vertex_angle_multiples() == [2]
        assert s.marked_vertex_flags() == [True]

    def test_sphere_four_half_angles(self):
        s = pillow()
        assert sorted(s.vertex_angle_multiples()) == [1, 1, 1, 1]
        assert all(s.marked_vertex_flags())

    def test_genus_two_single_zero(self):
        s = octagon()
        assert s.vertex_angle_multiples() == [6]
        assert s.marked_vertex_flags() == [False]

    def test_an_edge_used_once_has_no_vertex_or_quadrilateral(self):
        # parse_surface refuses such a document; a Surface built in code is
        # refused where its gluing is read
        s = one_triangle(((1.0, 0.5), (-0.3, 1.0), (-0.7, -1.5)), "float")
        with pytest.raises(DocumentError, match="edge a used 1 times"):
            s.vertex_classes()
        with pytest.raises(VeertrackError, match="edge a is not interior to two triangles"):
            s.comb.sides("a")


class TestArea:
    def test_torus_area_exact(self):
        assert area(t2()) == Fraction(28, 25)

    def test_area_positive_on_fixtures(self):
        for build in (t2, gold, pillow, octagon):
            assert float(area(build())) > 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_clockwise_triangle_is_refused(self, mode):
        # one slope sign throughout, so the trapezoid formula is not tried
        s = one_triangle(((1, 2), (1, 1), (-2, -3)), mode)
        with pytest.raises(ArithmeticError, match="triangle 0 has non-positive area"):
            area(s)

    def test_trapezoid_matches_shoelace_exact(self):
        rng = random.Random(2026)
        for _ in range(200):
            sides = random_veering_triangle(rng, exact=True)
            assert area(one_triangle(sides, "exact")) == trapezoid_area(sides)

    def test_trapezoid_matches_shoelace_float(self):
        rng = random.Random(4052)
        for _ in range(200):
            sides = random_veering_triangle(rng, exact=False)
            a1 = trapezoid_area(sides)
            a2 = area(one_triangle(sides, "float"))
            assert abs(a1 - a2) <= 1e-12 * max(1.0, abs(a2))


class TestFlow:
    """The flow lives in lam = e^{2t}; rebase folds it into the periods."""

    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_group_law(self, t1, t2_):
        s = gold()
        a = rebase(rebase(s.replace(lam=math.exp(2 * t1))).replace(lam=math.exp(2 * t2_)))
        b = rebase(s.replace(lam=math.exp(2 * (t1 + t2_))))
        for e in s.edges:
            assert float(a.periods[e].w) == pytest.approx(float(b.periods[e].w), rel=1e-12)
            assert float(a.periods[e].h) == pytest.approx(float(b.periods[e].h), rel=1e-12)

    def test_flow_preserves_area(self):
        s = gold()
        assert float(area(rebase(s.replace(lam=math.exp(1.6))))) == pytest.approx(
            float(area(s)), rel=1e-12
        )

    def test_lazy_scale_matches_effective_periods(self):
        s = t2()
        flowed = s.replace(lam=Fraction(9, 4))
        assert list(flowed.flowed_periods()) == list(s.periods)
        for e, (w_eff, h_eff) in flowed.flowed_periods().items():
            assert w_eff == pytest.approx(float(s.periods[e].w) * 1.5)
            assert h_eff == pytest.approx(float(s.periods[e].h) / 1.5)

    def test_rebase_bakes_flow_in(self):
        s = gold().replace(lam=math.exp(0.82))
        r = rebase(s)
        assert float(r.lam) == 1.0
        assert list(r.periods) == list(s.periods)
        for e, (w_eff, h_eff) in s.flowed_periods().items():
            assert float(r.periods[e].w) == pytest.approx(w_eff)
            assert float(r.periods[e].h) == pytest.approx(h_eff)
