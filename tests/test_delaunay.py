"""Flip geometry, the length certificate, and the greedy reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from util import full_pass_greedy, is_delaunay, linf_length, scramble, total_linf

from veertrack import delaunay
from veertrack.delaunay import (
    build_quad,
    certificate_fails,
    delaunay_violations,
    flip,
    greedy_delaunay,
    is_veering,
    quad,
    slope_sign,
)
from veertrack.errors import DegeneracyError, NotFlippableError
from veertrack.fixtures import BUILDERS, SLOPE_TORUS_OFFSET_T, gold, octagon, pillow, t2
from veertrack.flow import lam_after
from veertrack.surface import Surface, area, serialize_surface, validate


class TestQuad:
    def test_quad_closes_up(self):
        for build in (t2, gold, pillow, octagon):
            s = build()
            for e in s.edges:
                q = build_quad(s, e)
                sw = sum(v[0] for v in q.vectors)
                sh = sum(v[1] for v in q.vectors)
                assert abs(float(sw)) < 1e-9 and abs(float(sh)) < 1e-9

    def test_present_diagonal_spans_quad(self):
        s = t2()
        for e in s.edges:
            q = build_quad(s, e)
            va, vb = q.vectors[0], q.vectors[1]
            diag = (va[0] + vb[0], va[1] + vb[1])
            p = s.periods[e]
            assert (abs(diag[0]), abs(diag[1])) == (abs(p.w), abs(p.h))


class TestSlopes:
    def test_slope_signs_torus(self):
        s = t2()
        assert slope_sign(s, s.periods["e1"]) == 1
        assert slope_sign(s, s.periods["e2"]) == -1
        assert slope_sign(s, s.periods["e3"]) == 1

    def test_axis_parallel_rejected(self):
        with pytest.raises(DegeneracyError):
            slope_sign(t2(), (Fraction(1), Fraction(0)))

    def test_axis_test_follows_the_mode(self):
        assert slope_sign(t2(), (Fraction(1, 10**10), Fraction(1))) == 1
        with pytest.raises(DegeneracyError):
            slope_sign(t2("float"), (1e-10, 1.0))

    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_fixtures_veering(self, build):
        assert is_veering(build())

    def test_a_triangle_of_one_slope_sign_is_not_veering(self):
        s = t2().replace(periods={
            "e1": (1, Fraction(1, 2)), "e2": (1, 2), "e3": (-2, Fraction(-5, 2)),
        })
        assert validate(s) == (True, (), Fraction(3, 2))
        assert {slope_sign(s, p) for p in s.periods.values()} == {1}
        assert not is_veering(s)


class TestFlip:
    def test_flip_preserves_surface_invariants(self):
        s = t2()
        flipped = flip(s, "e1", s.lam)
        assert validate(flipped).passed
        assert area(flipped) == area(s)
        assert s.periods["e1"] == (Fraction(1), Fraction(3, 10))
        assert flipped.periods["e1"] == quad(s, "e1").diagonal
        assert all(flipped.periods[e] == s.periods[e] for e in ("e2", "e3"))

    def test_flip_puts_the_surface_at_the_given_lam(self):
        s = t2()
        lam = Fraction(7, 5)
        at, here = flip(s, "e1", lam), flip(s, "e1", s.lam)
        assert (at.lam, here.lam) == (lam, s.lam)
        assert (at.triangles, at.periods) == (here.triangles, here.periods)
        assert at.comb is here.comb

    def test_flip_twice_restores_geometry(self):
        s = t2()
        back = flip(flip(s, "e1", s.lam), "e1", s.lam)
        for e in s.edges:
            p, q = s.periods[e], back.periods[e]
            assert (abs(p.w), abs(p.h)) == (abs(q.w), abs(q.h))

    def test_flat_cylinder_edge_not_flippable(self):
        s = pillow()
        assert not quad(s, "b").flippable
        with pytest.raises(NotFlippableError):
            flip(s, "b", s.lam)

    def test_random_flip_chains_stay_valid(self):
        rng = random.Random(5)
        for build in (t2, pillow, octagon):
            s = build()
            scrambled = scramble(s, rng, flips=8)
            assert validate(scrambled).passed
            assert area(scrambled) == area(s)


class TestCertificate:
    def test_torus_certificate_inequalities(self):
        s = t2()
        expected = {
            "e1": (Fraction(1), Fraction(23, 10)),
            "e2": (Fraction(1), Fraction(8, 5)),
            "e3": (Fraction(13, 10), Fraction(7, 5)),
        }
        for e, (edge_len, diag_len) in expected.items():
            q = quad(s, e)
            assert q.flippable
            assert linf_length(s.periods[e]) == edge_len
            assert linf_length(q.diagonal) == diag_len
            assert edge_len < diag_len
        assert is_delaunay(s)

    def test_certificate_tie_is_an_error(self):
        # gold flowed back to its symmetric point, a split moment
        s = gold().replace(lam=lam_after(1.0, -SLOPE_TORUS_OFFSET_T))
        with pytest.raises(DegeneracyError):
            delaunay_violations(s)

    def test_comparison_is_flow_aware(self):
        s = t2()
        q = build_quad(s, "e1")._replace(diagonal=(Fraction(2), Fraction(1)))
        v = (Fraction(1), Fraction(3))
        assert certificate_fails(s.num, (1, 1), q, v)
        assert not certificate_fails(s.num, (4, 1), q, v)


class TestGreedy:
    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_scrambles_reduce_back(self, build):
        rng = random.Random(17)
        base, _ = greedy_delaunay(build())
        done = 0
        while done < 10:
            scrambled = scramble(base, rng, flips=rng.randint(1, 8))
            try:
                reduced, records = greedy_delaunay(scrambled)
            except DegeneracyError:
                # some scrambles produce an axis-parallel candidate diagonal;
                # reduction refuses rather than guessing
                continue
            done += 1
            assert is_delaunay(reduced)
            again, more = greedy_delaunay(reduced)
            assert not more
            assert again.triangles == reduced.triangles

    def test_greedy_never_increases_total_length(self):
        rng = random.Random(23)
        s = scramble(t2(), rng, flips=6)
        lengths = [total_linf(s)]
        cur = s
        while not is_delaunay(cur):
            bad = delaunay_violations(cur)
            cur = flip(cur, bad[0], cur.lam)
            lengths.append(total_linf(cur))
        assert all(b <= a + 1e-9 for a, b in zip(lengths, lengths[1:]))


def sheared(name: str, shears, exact: bool) -> Surface | None:
    """Fixture name under the product of elementary shears, each an
    (upper, p, q) triple for [[1, p/q], [0, 1]] or [[1, 0], [p/q, 1]], so
    of determinant 1; a float copy when not exact, None when some period
    gets a zero coordinate."""
    base = BUILDERS[name]("exact")
    m = ((1, 0), (0, 1))
    for upper, p, q in shears:
        r = Fraction(p, q)
        (a, b), (c, d) = ((1, r), (0, 1)) if upper else ((1, 0), (r, 1))
        m = ((m[0][0] * a + m[0][1] * c, m[0][0] * b + m[0][1] * d),
             (m[1][0] * a + m[1][1] * c, m[1][0] * b + m[1][1] * d))
    periods = {
        e: (m[0][0] * p.w + m[0][1] * p.h, m[1][0] * p.w + m[1][1] * p.h)
        for e, p in base.periods.items()
    }
    if any(w == 0 or h == 0 for w, h in periods.values()):
        return None
    if exact:
        return Surface(base.triangles, periods, "exact")
    return Surface(base.triangles, {e: (float(w), float(h)) for e, (w, h) in periods.items()}, "float")


def outcome(reduce, s: Surface):
    """The result document and flip records of reduce(s), or the message of
    the DegeneracyError it raised."""
    try:
        result, records = reduce(s)
    except DegeneracyError as exc:
        return str(exc)
    return serialize_surface(result), [tuple(r) for r in records]


def developed(build):
    """build(), or the message of the DegeneracyError it raised."""
    try:
        return build()
    except DegeneracyError as exc:
        return str(exc)


TIE = ("octagon", [(False, 2, 1), (True, -3, 1), (False, -2, 2)])  # after 15 flips
AXIS = ("octagon", [(True, 1, 2), (True, -3, 1), (False, -2, 1)])  # after 27 flips
MANY_FLIPS = ("octagon", [(False, 2, 2), (False, 2, 1), (False, -2, 2)])  # 6 flips
AXIS_AT_START = ("t2", [(True, -3, 1), (True, -3, 1), (False, -3, 3)])  # e2's diagonal


class TestGreedyAgainstFullPass:
    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(["t2", "pillow", "octagon"]),
        shears=st.lists(
            st.tuples(st.booleans(), st.integers(-3, 3), st.integers(1, 3)), min_size=3, max_size=3
        ),
        exact=st.booleans(),
    )
    @example(name=TIE[0], shears=TIE[1], exact=True)
    @example(name=TIE[0], shears=TIE[1], exact=False)
    @example(name=AXIS[0], shears=AXIS[1], exact=True)
    @example(name=AXIS[0], shears=AXIS[1], exact=False)
    def test_same_records_result_and_error(self, name, shears, exact):
        s = sheared(name, shears, exact)
        assume(s is not None)
        assert outcome(greedy_delaunay, s) == outcome(full_pass_greedy, sheared(name, shears, exact))

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(["t2", "pillow", "octagon"]),
        shears=st.lists(
            st.tuples(st.booleans(), st.integers(-3, 3), st.integers(1, 3)), min_size=3, max_size=3
        ),
    )
    @example(name=AXIS_AT_START[0], shears=AXIS_AT_START[1])
    def test_the_integer_view_develops_the_same_quad(self, name, shears):
        s = sheared(name, shears, True)
        assume(s is not None)
        scale, view = s.num.scaled(s.periods)
        for e in s.edges:
            on_view = developed(lambda: delaunay.develop(s.num, view, e, *s.comb.sides(e)))
            true = developed(lambda: build_quad(s, e))
            if isinstance(true, str):
                assert on_view == true
                continue
            assert (on_view.flippable, on_view.sides) == (true.flippable, true.sides)
            assert on_view.diagonal == (scale * true.diagonal[0], scale * true.diagonal[1])

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize(
        "case, message",
        [
            (TIE, "edge g4: certificate tie (equal L-infinity lengths)"),
            (AXIS, "edge s4: new diagonal is axis-parallel"),
        ],
    )
    def test_degenerate_ends_after_flips(self, case, message, exact):
        name, shears = case
        assert outcome(greedy_delaunay, sheared(name, shears, exact)) == message

    def test_records_hold_true_periods(self):
        s = sheared(*MANY_FLIPS, True)
        result, records = greedy_delaunay(s)
        assert records == full_pass_greedy(sheared(*MANY_FLIPS, True))[1]
        for r in records:
            assert all(type(x) is Fraction for x in (*r.old_period, *r.new_period))
        for e, p in result.periods.items():
            if e not in {r.old_edge for r in records}:
                assert p is s.periods[e]


class TestGreedyCost:
    def test_tests_only_what_a_flip_touches(self, monkeypatch):
        s = sheared(*MANY_FLIPS, True)
        calls = []
        real = delaunay.quad_sides

        def counting(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(delaunay, "quad_sides", counting)
        _, records = greedy_delaunay(s)
        assert len(records) >= 5
        assert len(calls) <= len(s.edges) + 5 * len(records)

    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_no_flip_returns_the_input(self, build):
        s, _ = greedy_delaunay(build())
        again, records = greedy_delaunay(s)
        assert again is s
        assert records == []
