"""Transition matrices, the Hilbert metric on the positive orthant, periodic
analysis."""

import math
import random
import statistics
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from util import (
    exact_trajectory_prefix,
    mat_det,
    nonneg_shift,
    reconstruct_from_words,
    reference_eigenpairs,
    reference_first_positive_power,
    scan_periodicity,
    tangential_equivalent,
)

from veertrack import cones, surface
from veertrack.cones import (
    analyze_periodic_word,
    birkhoff_coefficient,
    compose_word,
    eigenpairs,
    first_positive_power,
    hilbert_distance,
    image_diameter,
)
from veertrack.delaunay import greedy_delaunay
from veertrack.errors import DegeneracyError, VeertrackError
from veertrack.fixtures import GOLD_DILATATION, GOLD_PERIOD_T, gold, slope_torus, t2
from veertrack.flow import detect_periodicity, run_flow
from veertrack.surface import parse_surface, serialize_surface, validate
from veertrack.traintrack import complementary_regions, dual_track


def cross_ratio_distance(x, y):
    """Oracle: sup over coordinate pairs of the log cross-ratio
    (x_i y_j)/(y_i x_j)."""
    best = 0.0
    for i in range(len(x)):
        for j in range(len(x)):
            if y[i] <= 0 or x[j] <= 0:
                return math.inf
            best = max(best, math.log((x[i] * y[j]) / (y[i] * x[j])))
    return best


class TestTransitions:
    def test_first_torus_event_matrix(self):
        events, _ = exact_trajectory_prefix(t2(), max_events=1)
        branches = ("e1", "e2", "e3")
        pair = compose_word((events[0],), branches)
        # the losing branch sits on both sides of the splitting one
        assert pair.transverse == ((1, 2, 0), (0, 1, 0), (0, 0, 1))
        assert pair.tangential == ((1, 0, 0), (2, 1, 0), (0, 0, 1))
        assert mat_det(pair.transverse) == 1
        assert nonneg_shift(pair.transverse)

    def test_compose_equals_manual_product(self):
        events, _ = exact_trajectory_prefix(t2(), max_events=3)
        branches = ("e1", "e2", "e3")
        word = compose_word(events, branches)
        acc = np.eye(3, dtype=int)
        for ev in events:
            acc = acc @ np.array(compose_word((ev,), branches).transverse)
        assert word.transverse == tuple(tuple(int(x) for x in row) for row in acc)

    def test_transition_propagates_widths(self):
        events, states = exact_trajectory_prefix(t2(), max_events=2)
        branches = ("e1", "e2", "e3")
        for ev, before, after in zip(events, states, states[1:]):
            m = np.array(compose_word((ev,), branches).transverse)
            w_after = np.array([abs(float(after.periods[b].w)) for b in branches])
            w_before = np.array([abs(float(before.periods[b].w)) for b in branches])
            assert np.allclose(m @ w_after, w_before)

    def test_reconstruction_from_unordered_words(self):
        events, states = exact_trajectory_prefix(t2(), max_events=4)
        track0, _ = dual_track(states[0])
        track_end, _ = dual_track(states[-1])
        words = {}
        for ev in events:
            words[ev.edge] = words.get(ev.edge, "") + ev.direction
        recovered, pair = reconstruct_from_words(track0, track_end, words)
        branches = ("e1", "e2", "e3")
        assert pair.transverse == compose_word(events, branches).transverse


class TestEquivalence:
    def test_one_row_per_switch(self):
        track, _ = dual_track(t2())
        rows = track.switch_matrix()
        assert len(rows) == 2
        assert rows[0] == [Fraction(1), Fraction(-1), Fraction(-1)]

    def test_shifting_by_switch_row_is_equivalent(self):
        track, _ = dual_track(t2())
        r1 = [Fraction(1), Fraction(2), Fraction(3)]
        row = track.switch_matrix()[0]
        r2 = [a + 5 * b for a, b in zip(r1, row)]
        assert tangential_equivalent(track, r1, r2)
        assert not tangential_equivalent(track, r1, [x + 1 for x in r1])


class TestHilbert:
    def test_orthant_distance_closed_form(self):
        assert hilbert_distance((1.0, 1.0), (2.0, 1.0)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_boundary_is_infinitely_far(self):
        assert hilbert_distance((1.0, 1.0, 1.0), (1.0, 0.0, 1.0)) == math.inf

    def test_outside_cone_rejected(self):
        with pytest.raises(VeertrackError):
            hilbert_distance((1.0, 1.0), (-1.0, 1.0))

    def test_scale_invariance(self):
        x, y = (1.0, 2.0, 3.0, 4.0), (4.0, 1.0, 2.0, 2.0)
        d = hilbert_distance(x, y)
        assert hilbert_distance(tuple(7 * v for v in x), y) == pytest.approx(d)

    def test_facet_formula_matches_cross_ratio_oracle(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(2, 5)
            x = tuple(rng.uniform(0.1, 3.0) for _ in range(n))
            y = tuple(rng.uniform(0.1, 3.0) for _ in range(n))
            d = hilbert_distance(x, y)
            oracle = cross_ratio_distance(x, y)
            assert d == pytest.approx(oracle, abs=1e-10)

    def test_birkhoff_bound_on_random_positive_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.uniform(0.2, 2.0, size=(4, 4))
            delta = image_diameter(m)
            kappa = birkhoff_coefficient(delta)
            for _ in range(200):
                x = rng.uniform(0.1, 4.0, size=4)
                y = rng.uniform(0.1, 4.0, size=4)
                before = hilbert_distance(tuple(x), tuple(y))
                after = hilbert_distance(tuple(m @ x), tuple(m @ y))
                assert after <= kappa * before + 1e-12

    def test_infinite_diameter_coefficient_is_one(self):
        assert birkhoff_coefficient(math.inf) == 1.0


class TestPerron:
    def test_fibonacci_oracle(self):
        [(lam, vec)] = eigenpairs(((2, 1), (1, 1)), 3.0)
        assert lam == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        # the Perron eigenvector, up to the sign eig gives it
        assert min(vec) > 0 or max(vec) < 0

    def test_golden_analysis(self):
        traj = run_flow(gold(), 5 * GOLD_PERIOD_T)
        match = scan_periodicity(traj)
        report = analyze_periodic_word(traj, match)
        assert report.is_pseudo_anosov
        assert report.filling
        assert report.lam_w == pytest.approx(GOLD_DILATATION, abs=1e-9)
        assert report.lam_w * report.lam_h == pytest.approx(1.0, abs=1e-9)
        assert report.entropy == pytest.approx(GOLD_PERIOD_T, abs=1e-9)
        assert report.positive_power >= 1
        a = np.array(report.return_matrix)
        power = np.linalg.matrix_power(a, report.positive_power)
        assert (power > 0).all()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_slope_torus_dilatation_to_eight_ulp(self, n):
        # the word of x_n = (n + sqrt(n^2 + 4)) / 2 dilates by x_n^2, that
        # is (n^2 + 2 + n sqrt(n^2 + 4)) / 2; flowed as `analyze` flows it
        s, _ = greedy_delaunay(slope_torus((n + math.sqrt(n * n + 4)) / 2))
        traj = run_flow(s, 12 if n <= 3 else 16)
        report = analyze_periodic_word(traj, scan_periodicity(traj))
        with localcontext() as ctx:
            ctx.prec = 40
            exact = (n * n + 2 + n * Decimal(n * n + 4).sqrt()) / 2
            ulps = abs(Decimal(report.lam_w) - exact) / Decimal(math.ulp(float(exact)))
        assert ulps <= 8


class TestRegionCache:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_corner_classes_build_per_triangulation(self, monkeypatch, n):
        # analyze's steps (parse, validate, reduce, the stopped flow, the
        # word's analysis), then the analysis again and the regions of the
        # return's track: each triangulation's vertex classes are built once
        builds, seen = Counter(), []
        original = surface.corner_classes

        def counting(triangles, occ):
            builds[id(triangles)] += 1
            seen.append(triangles)  # keeps each id taken
            return original(triangles, occ)

        monkeypatch.setattr(surface, "corner_classes", counting)
        start = parse_surface(serialize_surface(slope_torus((n + math.sqrt(n * n + 4)) / 2)))
        assert validate(start).passed
        s, _ = greedy_delaunay(start)
        traj, match = detect_periodicity(s, 16.0)
        reports = [analyze_periodic_word(traj, match) for _ in range(2)]
        assert reports[0].filling and reports[0] == reports[1]
        assert complementary_regions(dual_track(traj.states()[match.m])[0]) == {2: 1}
        assert len(builds) >= 2 and set(builds.values()) == {1}


def wielandt(n: int) -> list[list[int]]:
    """The cycle 0 -> 1 -> ... -> n-1 -> 0 with the chord n-1 -> 1: the
    primitive n x n pattern whose first positive power, (n - 1)^2 + 1, is
    the largest of any."""
    m = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    m[n - 1][0] = m[n - 1][1] = 1
    return m


class TestFirstPositivePower:
    @pytest.mark.parametrize("n, k", [(2, 2), (3, 5), (4, 10), (5, 17), (6, 26)])
    def test_wielandt_matrix_needs_the_bound(self, n, k):
        m = wielandt(n)
        assert first_positive_power(m) == reference_first_positive_power(m) == k
        assert not (np.linalg.matrix_power(np.array(m), k - 1) > 0).all()
        assert (np.linalg.matrix_power(np.array(m), k) > 0).all()

    @pytest.mark.parametrize(
        "matrix, k",
        [([[2, 1], [1, 1]], 1), ([[1, 1], [0, 1]], None), ([[0, 1], [1, 0]], None), ([[3]], 1)],
        ids=["positive", "reducible", "periodic", "scalar"],
    )
    def test_small_patterns(self, matrix, k):
        assert first_positive_power(matrix) == k


def _outcome(solve, matrix, *targets):
    """What solve gives: each eigenvalue, its type and its eigenvector as
    lists, or the message it raises."""
    try:
        return [(lam, type(lam), vec.tolist()) for lam, vec in solve(matrix, *targets)]
    except VeertrackError as exc:
        return str(exc)


def _ratios(traj, match) -> list[float]:
    """The tangential ratios analyze_periodic_word takes its median of, on
    the measures of cones.dual_track."""
    states = traj.states()
    _, mp1 = cones.dual_track(states[match.m], "vertical")
    _, mp2 = cones.dual_track(states[match.m2], "vertical")
    pairs = [(float(mp1.tangential[e]), float(mp2.tangential[match.relabel[e][0]])) for e in sorted(mp1.tangential)]
    return [r1 / r2 for r1, r2 in pairs if r1 > 1e-12 and r2 > 1e-12]


class TestAgainstNumpy:
    """eigenpairs, first_positive_power and the median of lam_h run on
    Python numbers; each gives what its numpy form gives, bit for bit."""

    @pytest.mark.parametrize(
        "matrix, target",
        [
            ([[0, -1], [1, 0]], 0.0),  # a complex pair, equally near: the first is named
            ([[0, -1], [1, 0]], 1.0),
            ([[1, 0], [0, 1]], 1.0),  # a repeated eigenvalue
            ([[2, 1], [0, 2]], 2.0),  # a defective one
            ([[1, 0], [0, 3]], 2.0),  # two real ones equally near: the first is taken
            ([[3, 0], [0, 1]], 2.0),
            ([[2, 1], [1, 1]], 3.0),
            ([[2, 1, 0], [0, 2, 1], [1, 0, 0]], 2.5),
        ],
    )
    def test_named_eigenvalues(self, matrix, target):
        assert _outcome(eigenpairs, matrix, target) == _outcome(reference_eigenpairs, matrix, target)

    def test_named_messages(self):
        assert _outcome(eigenpairs, [[0, -1], [1, 0]], 0.0) == "eigenvalue 0+1j of the matrix is not real and simple"
        assert _outcome(eigenpairs, [[1, 0], [0, 1]], 1.0) == "eigenvalue 1 of the matrix is not real and simple"
        assert _outcome(eigenpairs, [[1, 0], [0, 3]], 2.0)[0][0] == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_integer_matrices(self, seed):
        rng = random.Random(seed)
        kinds = Counter()
        for _ in range(300):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            targets = [rng.uniform(-6.0, 6.0) for _ in range(rng.randint(1, 2))]
            got = _outcome(eigenpairs, matrix, *targets)
            assert got == _outcome(reference_eigenpairs, matrix, *targets)
            kinds["refused" if isinstance(got, str) else "chosen"] += 1
        assert kinds["refused"] and kinds["chosen"]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_patterns(self, seed):
        rng = random.Random(seed)
        powers = Counter()
        for _ in range(300):
            n = rng.randint(1, 6)
            density = rng.uniform(0.2, 0.9)
            matrix = [[rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            got = first_positive_power(matrix)
            assert got == reference_first_positive_power(matrix)
            powers[got] += 1
        assert powers[None] and powers[1] and len(powers) >= 4

    @pytest.mark.parametrize("count", range(1, 10))
    def test_median_of_random_ratios(self, count):
        rng = random.Random(count)
        for _ in range(200):
            ratios = [rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-3, 3) for _ in range(count)]
            assert statistics.median(ratios) == float(np.median(ratios))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lam_h_on_an_even_count(self, n):
        traj, match = detect_periodicity(slope_torus((n + math.sqrt(n * n + 4)) / 2), 16.0)
        ratios = _ratios(traj, match)
        assert len(ratios) == 2
        assert analyze_periodic_word(traj, match).lam_h == float(np.median(ratios))

    def test_lam_h_on_an_odd_count(self, monkeypatch):
        # the first state's measure drops its first positive branch, so one
        # ratio is left
        traj, match = detect_periodicity(gold(), 12.0)
        first = traj.states()[match.m]
        real = cones.dual_track

        def dropped(s, direction):
            track, mp = real(s, direction)
            if s is first:
                e = next(e for e in track.branches if mp.tangential[e] > 0)
                mp = mp._replace(tangential={**mp.tangential, e: 0})
            return track, mp

        monkeypatch.setattr(cones, "dual_track", dropped)
        report = analyze_periodic_word(traj, match)
        ratios = _ratios(traj, match)
        assert len(ratios) == 1
        assert report.lam_h == float(np.median(ratios))


def _moved_gold(k: int):
    """gold with coordinate k of every period (0 the width, 1 the height)
    moved by up to 1e-3 of itself, off the periodic orbit."""
    rng = random.Random(3)
    g = gold()
    return g.replace(
        periods={e: tuple(x * (1 + rng.uniform(-1e-3, 1e-3)) if i == k else x for i, x in enumerate(p))
                 for e, p in g.periods.items()}
    )


class TestReturnChecks:
    """analyze_periodic_word refuses a return that its two states do not
    bear out: an approximate return (rel_tol 0.1) of a surface moved off
    the orbit, or states whose tangential measures are below its floor."""

    def test_widths_off_the_orbit(self):
        traj, match = detect_periodicity(greedy_delaunay(_moved_gold(0))[0], 12.0, rel_tol=0.1)
        with pytest.raises(VeertrackError, match="width vector is not an eigenvector"):
            analyze_periodic_word(traj, match)

    def test_heights_off_the_orbit(self):
        # the widths are gold's, so the eigenvector check passes
        traj, match = detect_periodicity(greedy_delaunay(_moved_gold(1))[0], 12.0, rel_tol=0.1)
        with pytest.raises(VeertrackError, match="tangential ratios disagree across branches"):
            analyze_periodic_word(traj, match)

    def test_tangential_measures_below_the_floor(self):
        traj, match = detect_periodicity(gold(), 12.0)
        analyze_periodic_word(traj, match)

        def low(x):  # every height times 1e-13: each tangential measure under 1e-12
            return x.replace(periods={e: (p.w, p.h * 1e-13) for e, p in x.periods.items()})

        low_traj = traj._replace(start=low(traj.start), surfaces=[low(x) for x in traj.surfaces])
        with pytest.raises(DegeneracyError, match="tangential measures vanish on every branch"):
            analyze_periodic_word(low_traj, match)
