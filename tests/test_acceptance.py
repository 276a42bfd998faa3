"""End-to-end acceptance checks for the whole toolchain.

Each test class is one acceptance criterion, with its tolerance and time
budget spelled out inline.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from util import (
    brute_force_rays,
    exact_trajectory_prefix,
    is_delaunay,
    linf_length,
    mat_det,
    nonneg_shift,
    one_triangle,
    random_suited_surface,
    random_veering_triangle,
    reconstruct_from_words,
    scan_periodicity,
    scramble,
    tangential_equivalent,
    trapezoid_area,
)

from veertrack.cones import (
    analyze_periodic_word,
    birkhoff_coefficient,
    compose_word,
    hilbert_distance,
    image_diameter,
)
from veertrack.delaunay import delaunay_violations, greedy_delaunay, quad
from veertrack.errors import DegeneracyError
from veertrack.fixtures import (
    GOLD_DILATATION,
    GOLD_PERIOD_T,
    gold,
    octagon,
    pillow,
    slope_torus,
    t2,
)
from veertrack.flow import (
    _triangle_isomorphisms,
    next_split,
    run_flow,
    thick_fraction,
)
from veertrack.lab import (
    closing_search,
    contraction_experiment,
    hilbert_contraction_experiment,
)
from veertrack.surface import (
    area,
    validate,
)
from veertrack.traintrack import dual_track, is_filling_subtrack, vertex_curves


def ten_exact_trajectories(min_events=3, max_events=20):
    """The reference torus plus randomly sheared suited surfaces, flowed
    exactly until degeneracy or the event cap."""
    out = [exact_trajectory_prefix(t2(), max_events)]
    seed = 0
    while len(out) < 10 and seed < 4000:
        s = random_suited_surface(seed)
        seed += 1
        if s is None:
            continue
        events, states = exact_trajectory_prefix(s, max_events)
        if len(events) >= min_events:
            out.append((events, states))
    assert len(out) == 10
    return out


class TestCriterion01Validation:
    def test_reference_torus(self):
        t0 = time.perf_counter()
        s = t2()
        assert validate(s).passed
        assert area(s) == Fraction(28, 25)
        pairs = {
            "e1": (Fraction(1), Fraction(23, 10)),
            "e2": (Fraction(1), Fraction(8, 5)),
            "e3": (Fraction(13, 10), Fraction(7, 5)),
        }
        for e, (edge_len, diag_len) in pairs.items():
            diag = quad(s, e).diagonal
            assert linf_length(s.periods[e]) == edge_len
            assert linf_length(diag) == diag_len
            assert edge_len < diag_len
        assert time.perf_counter() - t0 < 1.0


class TestCriterion02AreaFormulas:
    def test_exact_equality(self):
        rng = random.Random(100)
        for _ in range(1000):
            sides = random_veering_triangle(rng, exact=True)
            assert area(one_triangle(sides, "exact")) == trapezoid_area(sides)

    def test_float_agreement(self):
        rng = random.Random(200)
        for _ in range(1000):
            sides = random_veering_triangle(rng, exact=False)
            a1 = trapezoid_area(sides)
            a2 = area(one_triangle(sides, "float"))
            assert abs(a1 - a2) <= 1e-12 * max(1.0, abs(a2))


class TestCriterion03FirstEvent:
    def test_reference_torus_split(self):
        ev = next_split(t2())
        assert ev.edge == "e1"
        assert ev.threshold == Fraction(23, 10)
        assert ev.direction == "L"


class TestCriterion04GreedyReduction:
    def test_hundred_scrambles(self):
        t0 = time.perf_counter()
        rng = random.Random(42)
        bases = []
        for build in (t2, gold, pillow):
            reduced, _ = greedy_delaunay(build())
            bases.append(reduced)
        done = 0
        while done < 100:
            base = bases[done % 3]
            scrambled = scramble(base, rng, flips=rng.randint(1, 8))
            try:
                reduced, _ = greedy_delaunay(scrambled)
            except DegeneracyError:
                continue
            assert is_delaunay(reduced)
            assert not delaunay_violations(reduced)
            again, more = greedy_delaunay(reduced)
            assert not more
            assert again.triangles == reduced.triangles
            done += 1
        assert time.perf_counter() - t0 < 10.0


class TestCriterion05GoldenAnalysis:
    def test_dilatation_and_duality(self):
        traj = run_flow(gold(), 5 * GOLD_PERIOD_T)
        match = scan_periodicity(traj)
        report = analyze_periodic_word(traj, match)
        oracle = (3 + math.sqrt(5)) / 2  # larger root of x^2 - 3x + 1
        assert report.lam_w == pytest.approx(oracle, abs=1e-9)
        lam = max(np.linalg.eigvals(np.array(report.return_matrix, dtype=float)).real)
        assert lam == pytest.approx(oracle, abs=1e-9)
        assert report.lam_w * report.lam_h == pytest.approx(1.0, abs=1e-9)
        assert report.filling
        assert report.is_pseudo_anosov


class TestCriterion06HilbertFormula:
    def test_facets_match_cross_ratios(self):
        rng = random.Random(6)
        for _ in range(1000):
            n = rng.randint(2, 6)
            x = tuple(rng.uniform(0.05, 5.0) for _ in range(n))
            y = tuple(rng.uniform(0.05, 5.0) for _ in range(n))
            d = hilbert_distance(x, y)
            best = 0.0
            for i in range(n):
                for j in range(n):
                    best = max(best, math.log((x[i] * y[j]) / (y[i] * x[j])))
            assert abs(d - best) <= 1e-10

    def test_log_two_anchor(self):
        d = hilbert_distance((1.0, 1.0), (2.0, 1.0))
        assert abs(d - math.log(2)) <= 1e-12


class TestCriterion07BirkhoffBound:
    def test_random_positive_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.uniform(0.05, 3.0, size=(5, 5))
            kappa = birkhoff_coefficient(image_diameter(m))
            for _ in range(500):
                x = rng.uniform(0.05, 5.0, size=5)
                y = rng.uniform(0.05, 5.0, size=5)
                before = hilbert_distance(tuple(x), tuple(y))
                after = hilbert_distance(tuple(m @ x), tuple(m @ y))
                assert after <= kappa * before + 1e-12


class TestCriterion08TransitionAlgebra:
    def test_exact_trajectories(self):
        for events, states in ten_exact_trajectories():
            branches = tuple(sorted(states[0].edges))
            for ev in events:
                pair = compose_word((ev,), branches)
                assert pair.tangential == tuple(zip(*pair.transverse))
                assert mat_det(pair.transverse) in (1, -1)
                assert nonneg_shift(pair.transverse)
            word = compose_word(events, branches)
            assert mat_det(word.transverse) in (1, -1)
            track0, _ = dual_track(states[0])
            track_end, _ = dual_track(states[-1])
            words = {}
            for ev in events:
                words[ev.edge] = words.get(ev.edge, "") + ev.direction
            _, rebuilt = reconstruct_from_words(track0, track_end, words)
            assert rebuilt.transverse == word.transverse
            assert rebuilt.tangential == word.tangential


class TestCriterion09TangentialPushforward:
    def test_heights_agree_modulo_switch_space(self):
        for events, states in ten_exact_trajectories():
            branches = tuple(sorted(states[0].edges))
            for ev, before, after in zip(events, states, states[1:]):
                at = before.replace(lam=ev.threshold)
                track_b, mu_b = dual_track(at)
                track_a, mu_a = dual_track(after)
                mt = compose_word((ev,), branches).tangential
                r_before = [mu_b.tangential[b] for b in branches]
                pushed = [
                    sum(Fraction(mt[i][j]) * r_before[j] for j in range(len(branches)))
                    for i in range(len(branches))
                ]
                actual = [mu_a.tangential[b] for b in branches]
                assert tangential_equivalent(track_a, pushed, actual)
                paired = sum(
                    mu_a.transverse[b] * mu_a.tangential[b] for b in branches
                )
                assert paired == area(after)


class TestCriterion10StableContraction:
    def test_golden_rate(self):
        fit = contraction_experiment(gold(), 5 * GOLD_PERIOD_T, trials=4, seed=1)
        row = fit.log_ratios[0]
        n_periods = (fit.times[-1] - fit.times[0]) / GOLD_PERIOD_T
        per_period = math.exp((row[-1] - row[0]) / n_periods)
        assert abs(per_period - 0.145898) < 1e-3

    def test_thick_fixtures_decay(self):
        rng = random.Random(0)
        for k in range(3):
            s = slope_torus(rng.uniform(1.35, 1.85))
            fit = contraction_experiment(s, 4.0, trials=4, seed=k + 1)
            assert fit.alpha > 0
            assert fit.r_squared > 0.95


class TestCriterion11HilbertDecay:
    def test_monotone_and_bounded_by_birkhoff(self):
        traj = run_flow(gold(), 9 * GOLD_PERIOD_T)
        trace = hilbert_contraction_experiment(traj)
        finite = [d for d in trace.diameters if math.isfinite(d)]
        assert len(finite) >= 6
        assert all(b <= a + 1e-9 for a, b in zip(finite, finite[1:]))

        match = scan_periodicity(traj)
        branches = tuple(sorted(traj.start.edges))
        span = len(match.word)
        for k in range(1, 9):
            word = tuple(traj.events[match.m : match.m + k * span])
            block = np.array(compose_word(word, branches).tangential, dtype=float)
            delta = image_diameter(block)
            if math.isfinite(delta):
                break
        kappa = birkhoff_coefficient(delta)
        observed = finite[-1] / finite[-1 - k * span]
        assert observed <= kappa + 1e-9


class TestCriterion12Closing:
    @staticmethod
    def _same_point(x, y) -> bool:
        """Whether x and y share their triangles and every period
        coordinate within 1e-8 of the largest coordinate of y."""
        scale = max(max(abs(p.w), abs(p.h)) for p in y.periods.values())
        gap = max(
            max(abs(x.periods[e].w - p.w), abs(x.periods[e].h - p.h)) for e, p in y.periods.items()
        )
        return x.triangles == y.triangles and gap < 1e-8 * scale

    def test_perturbed_starts_land_on_the_axis(self):
        t0 = time.perf_counter()
        reference = closing_search(gold())
        results = []
        for seed in (11, 77):
            rng = random.Random(seed)
            s = gold()
            periods = {
                e: (p.w, p.h * (1 + rng.uniform(-1e-3, 1e-3)))
                for e, p in s.periods.items()
            }
            res = closing_search(s.replace(periods=periods))
            assert res.converged
            assert abs(res.period_t - 0.9624236501192069) < 1e-6
            # closing_search pins its point at the word's last split moment
            # and scales it to unit area, so closings of one orbit coincide
            assert self._same_point(res.surface, reference.surface)
            results.append(res)
        assert self._same_point(results[0].surface, results[1].surface)
        assert time.perf_counter() - t0 < 30.0


class TestCriterion13VertexCurves:
    def test_reference_torus_curves(self):
        track, _ = dual_track(t2())
        assert set(vertex_curves(track)) == {(1, 1, 0), (1, 0, 1)}

    def test_brute_force_agreement(self):
        for build in (t2, gold, pillow, octagon):
            for direction in ("vertical", "horizontal"):
                track, _ = dual_track(build(), direction)
                if len(track.branches) > 12:
                    continue
                got = sorted(vertex_curves(track))
                want = brute_force_rays(track.switch_matrix(), len(track.branches))
                assert got == [tuple(int(x) for x in ray) for ray in want]
                for curve in got:
                    assert all(0 <= c <= 2 for c in curve)


class TestCriterion14ThickImpliesFilling:
    def test_split_support_fills_between_matching_tracks(self):
        rng = random.Random(0)
        slopes = [1.6180339887498949] + [rng.uniform(1.35, 1.85) for _ in range(2)]
        for x in slopes:
            traj = run_flow(slope_torus(x), 4.0)
            stats = thick_fraction(traj, eps=0.01)
            assert stats.theta > 0
            states = traj.states()
            matched = None
            for j in range(len(states) - 1, 0, -1):
                if next(_triangle_isomorphisms(states[0], states[j]), None) is not None:
                    matched = j
                    break
            assert matched is not None
            support = {ev.edge for ev in traj.events[:matched]}
            track, _ = dual_track(states[0])
            assert is_filling_subtrack(track, support)

    def test_periodic_golden_word_fills(self):
        traj = run_flow(gold(), 5 * GOLD_PERIOD_T)
        match = scan_periodicity(traj)
        report = analyze_periodic_word(traj, match)
        track, _ = dual_track(traj.states()[match.m])
        assert is_filling_subtrack(track, report.support)
        assert report.filling
