"""Desk experiments: stable contraction, Hilbert decay, orbit closing."""

import math

import numpy as np
import pytest

import veertrack.lab as lab
from veertrack.cones import image_diameter, orthant, split_transition
from veertrack.fixtures import GOLD_DILATATION, GOLD_PERIOD_T, gold
from veertrack.flow import run_flow
from veertrack.lab import (
    axis_distance,
    closing_search,
    contraction_experiment,
    hilbert_contraction_experiment,
)
from veertrack.surface import apply_flow, area


class TestStableContraction:
    def test_golden_exponent_is_two(self):
        fit = contraction_experiment(gold(), 5 * GOLD_PERIOD_T, trials=4, seed=3)
        assert fit.alpha == pytest.approx(2.0, abs=1e-3)
        assert fit.r_squared > 0.999

    def test_per_period_ratio_matches_square_dilatation(self):
        fit = contraction_experiment(
            gold(), 5 * GOLD_PERIOD_T, checkpoints=5, trials=4, seed=3
        )
        row = fit.log_ratios[0]
        n_periods = (fit.times[-1] - fit.times[0]) / GOLD_PERIOD_T
        per_period = math.exp((row[-1] - row[0]) / n_periods)
        assert per_period == pytest.approx(GOLD_DILATATION ** -2, abs=1e-3)

    def test_halving_delta_keeps_the_fit(self):
        a = contraction_experiment(gold(), 3 * GOLD_PERIOD_T, trials=3, delta=1e-4)
        b = contraction_experiment(gold(), 3 * GOLD_PERIOD_T, trials=3, delta=5e-5)
        assert a.alpha == pytest.approx(b.alpha, rel=1e-2)


class TestHilbertDecay:
    def test_diameters_monotone_once_finite(self):
        traj = run_flow(gold(), 6 * GOLD_PERIOD_T)
        trace = hilbert_contraction_experiment(traj)
        finite = [d for d in trace.diameters if math.isfinite(d)]
        assert len(finite) >= 5
        assert all(b <= a + 1e-9 for a, b in zip(finite, finite[1:]))

    def test_asymptotic_per_period_ratio(self):
        traj = run_flow(gold(), 10 * GOLD_PERIOD_T)
        trace = hilbert_contraction_experiment(traj)
        finite = [d for d in trace.diameters if math.isfinite(d)]
        # two events per period; the tail ratio tends to the inverse square
        # of the golden ratio
        ratio = finite[-1] / finite[-3]
        assert ratio == pytest.approx(1 / 1.618033988749895 ** 2, abs=5e-3)

    def test_normalised_product_keeps_the_diameters(self, monkeypatch):
        traj = run_flow(gold(), 5 * GOLD_PERIOD_T)
        seen = []

        def recording(matrix, cone):
            seen.append(np.array(matrix))
            return image_diameter(matrix, cone)

        monkeypatch.setattr(lab, "image_diameter", recording)
        trace = hilbert_contraction_experiment(traj)
        branches = tuple(sorted(traj.start.edges))
        composed = np.eye(len(branches))
        for ev, d in zip(traj.events, trace.diameters):
            composed = np.array(split_transition(ev, branches).tangential, dtype=float) @ composed
            want = image_diameter(composed, orthant(len(branches)))
            assert d == want or abs(d - want) <= 1e-9
        assert len(seen) == len(traj.events) == 10
        assert all(m.max() <= 1.0 for m in seen)
        assert composed.max() > 10


class TestClosing:
    def test_recovers_the_periodic_orbit(self):
        rng_delta = 1e-3
        import random

        rng = random.Random(11)
        s = gold()
        periods = {
            e: (p.w, p.h * (1 + rng.uniform(-rng_delta, rng_delta)))
            for e, p in s.periods.items()
        }
        result = closing_search(s.replace(periods=periods))
        assert result.converged
        assert result.residual < 1e-10
        assert result.period_t == pytest.approx(GOLD_PERIOD_T, abs=1e-6)
        assert float(area(result.surface)) == pytest.approx(1.0, abs=1e-12)

    def test_exact_start_converges_immediately_in_spirit(self):
        result = closing_search(gold())
        assert result.converged
        assert result.lam_w == pytest.approx(GOLD_DILATATION, abs=1e-9)

    def test_axis_distance_vanishes_along_the_orbit(self):
        result = closing_search(gold())
        shifted = apply_flow(result.surface, 0.13)
        assert axis_distance(result.surface, shifted) < 1e-8
