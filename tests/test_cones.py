"""Transition matrices, the Hilbert metric on the positive orthant, periodic
analysis."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from util import exact_trajectory_prefix

from veertrack.cones import (
    analyze_periodic_word,
    birkhoff_coefficient,
    compose_word,
    hilbert_distance,
    image_diameter,
    perron_root,
    reconstruct_from_words,
    split_transition,
    tangential_equivalent,
)
from veertrack.errors import VeertrackError
from veertrack.fixtures import GOLD_DILATATION, GOLD_PERIOD_T, gold, t2
from veertrack.flow import detect_periodicity, run_flow
from veertrack.traintrack import dual_track


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
        pair = split_transition(events[0], branches)
        # the losing branch sits on both sides of the splitting one
        assert pair.transverse == ((1, 2, 0), (0, 1, 0), (0, 0, 1))
        assert pair.tangential == ((1, 0, 0), (2, 1, 0), (0, 0, 1))
        assert pair.det() == 1
        assert pair.nonneg_shift()

    def test_compose_equals_manual_product(self):
        events, _ = exact_trajectory_prefix(t2(), max_events=3)
        branches = ("e1", "e2", "e3")
        word = compose_word(events, branches)
        acc = np.eye(3, dtype=int)
        for ev in events:
            acc = acc @ np.array(split_transition(ev, branches).transverse)
        assert word.transverse == tuple(tuple(int(x) for x in row) for row in acc)

    def test_transition_propagates_widths(self):
        events, states = exact_trajectory_prefix(t2(), max_events=2)
        branches = ("e1", "e2", "e3")
        for ev, before, after in zip(events, states, states[1:]):
            m = np.array(split_transition(ev, branches).transverse)
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
        lam, vec = perron_root(((2, 1), (1, 1)))
        assert lam == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        assert min(vec) > 0

    def test_golden_analysis(self):
        traj = run_flow(gold(), 5 * GOLD_PERIOD_T)
        match = detect_periodicity(traj)
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
