"""Flip geometry, the length certificate, and the greedy reduction."""

import random
from fractions import Fraction

import pytest

from util import scramble

from veertrack.delaunay import (
    build_quad,
    cmp_linf,
    delaunay_violations,
    flip,
    greedy_delaunay,
    is_delaunay,
    is_veering,
    linf_length,
    other_diagonal,
    slope_sign,
    total_linf,
)
from veertrack.errors import DegeneracyError, NotFlippableError
from veertrack.fixtures import gold, octagon, pillow, slope_torus, t2
from veertrack.surface import area, validate


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


class TestFlip:
    def test_flip_preserves_surface_invariants(self):
        s = t2()
        flipped, rec = flip(s, "e1")
        assert validate(flipped).passed
        assert area(flipped) == area(s)
        assert rec.old_edge == "e1"
        assert rec.old_period == (Fraction(1), Fraction(3, 10))

    def test_flip_twice_restores_geometry(self):
        s = t2()
        back, _ = flip(flip(s, "e1")[0], "e1")
        for e in s.edges:
            p, q = s.periods[e], back.periods[e]
            assert (abs(p.w), abs(p.h)) == (abs(q.w), abs(q.h))

    def test_flat_cylinder_edge_not_flippable(self):
        s = pillow()
        _, flippable = other_diagonal(s, "b")
        assert not flippable
        with pytest.raises(NotFlippableError):
            flip(s, "b")

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
            diag, flippable = other_diagonal(s, e)
            assert flippable
            assert linf_length(s.periods[e]) == edge_len
            assert linf_length(diag) == diag_len
            assert edge_len < diag_len
        assert is_delaunay(s)

    def test_certificate_tie_is_an_error(self):
        s = slope_torus(1.6180339887498949, offset_t=0.0)
        with pytest.raises(DegeneracyError):
            delaunay_violations(s)

    def test_comparison_is_flow_aware(self):
        s = t2()
        u, v = (Fraction(2), Fraction(1)), (Fraction(1), Fraction(3))
        assert cmp_linf(s, u, v) < 0
        late = s.replace(lam=Fraction(4))
        assert cmp_linf(late, u, v) > 0


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
            cur, _ = flip(cur, bad[0])
            lengths.append(total_linf(cur))
        assert all(b <= a + 1e-9 for a, b in zip(lengths, lengths[1:]))
