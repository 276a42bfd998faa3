"""Desk experiments: stable contraction, Hilbert decay, orbit closing."""

import math
import random

import numpy as np
import pytest

from util import (
    count_sigma_reads,
    reference_contraction_experiment,
    reference_roundoff_unit,
    reference_stable_distance,
    reference_state_at,
    scan_periodicity,
)

import veertrack.cli as cli
import veertrack.delaunay as delaunay
import veertrack.flow as flow
import veertrack.lab as lab
from veertrack.cones import compose_word, eigenpairs, image_diameter
from veertrack.delaunay import greedy_delaunay
from veertrack.errors import DegeneracyError, VeertrackError
from veertrack.fixtures import GOLD_DILATATION, GOLD_PERIOD_T, gold, octagon, pillow, slope_torus, t2
from veertrack.flow import run_flow
from veertrack.lab import (
    closing_search,
    contraction_experiment,
    hilbert_contraction_experiment,
)
from veertrack.surface import Surface, area, rebase, serialize_surface


def _slope(n: int) -> float:
    return (n + math.sqrt(n * n + 4)) / 2


def _perturbed(s, seed, delta=1e-3):
    """s with its heights moved as `veertrack close --delta` moves them."""
    return lab.perturb_heights(s, random.Random(seed), delta)


CLOSING_STARTS = [
    (name, n, seed)
    for name, n in [("gold", 1)] + [(f"x_{n}", n) for n in range(1, 9)]
    for seed in (None, 5, 11, 77)
]


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

    @pytest.mark.parametrize("checkpoints", [0, -2])
    def test_checkpoints_below_one_are_refused(self, checkpoints):
        # trials below one are refused the same way (see test_cli.py)
        with pytest.raises(VeertrackError, match=f"checkpoints must be at least 1, not {checkpoints}"):
            contraction_experiment(gold(), 2.0, checkpoints=checkpoints)


REPLAY_STARTS = {"gold": gold, **{f"x_{n}": (lambda n=n: slope_torus(_slope(n))) for n in (1, 2, 3)}}


def _replay_windows(build) -> list[float]:
    """Flow times 2, 4 and 8, and four windows that end 1e-9 and 1e-4 on
    either side of the fourth event of the fit's base flow."""
    s, _ = greedy_delaunay(rebase(build()))
    t = run_flow(s, 8.0, verify="off").times()[3]
    return [2.0, 4.0, 8.0] + [t + d for d in (-1e-4, -1e-9, 1e-9, 1e-4)]


class TestTrialReplay:
    """contraction_experiment, whose trials replay the base trajectory,
    against reference_contraction_experiment, whose trials each flow with
    run_flow and compare their word with the base's."""

    @pytest.mark.parametrize("name", list(REPLAY_STARTS))
    def test_replay_equals_flowing_each_trial(self, name):
        build = REPLAY_STARTS[name]
        seen = set()
        for total_t in _replay_windows(build):
            for delta in (1e-4, 1e-2, 0.3, 5.0):
                for seed in range(3):
                    reasons = []
                    want = reference_contraction_experiment(build(), total_t, delta=delta, seed=seed, reasons=reasons)
                    try:
                        got = contraction_experiment(build(), total_t, delta=delta, seed=seed)
                    except VeertrackError as exc:
                        got = str(exc)
                    assert got == want, (total_t, delta, seed)
                    seen.update(reasons)
        # the grid drops trials on the start certificate, on a checkpoint
        # chart and at the window end, and keeps some
        assert {None, "start", "chart", "window-end"} <= seen

    @staticmethod
    def _base(total_t, max_events=flow.MAX_EVENTS):
        s, _ = greedy_delaunay(rebase(slope_torus(_slope(2))))
        base = run_flow(s, total_t, max_events=max_events, verify="off")
        cands = [[(e, *x.comb.sides(e)) for e in flow.split_candidates(x)] for x in base.states()]
        return s, base, cands, flow.lam_after(1.0, total_t)

    def test_replay_is_the_trials_own_flow(self):
        s, base, cands, lam_end = self._base(4.0)
        sp = _perturbed(s, 3, 1e-6)
        periods, thresholds = lab._replay(sp, base.events, cands, lam_end)
        traj = run_flow(sp, 4.0, verify="off")
        assert thresholds == [ev.threshold for ev in traj.events]
        assert periods == [x.periods for x in traj.states()]

    def test_replay_leaves_at_another_word_or_window(self):
        # on a one-vertex torus a trial cannot make another word without
        # raising (one candidate, and the width cross-check fixes its
        # direction), so the base's word is changed instead
        s, base, cands, lam_end = self._base(4.0)
        sp = _perturbed(s, 3, 1e-6)
        thresholds = lab._replay(sp, base.events, cands, lam_end)[1]
        ev = base.events[2]
        events = [*base.events[:2], ev._replace(direction="R" if ev.direction == "L" else "L"), *base.events[3:]]
        assert lab._replay(sp, events, cands, lam_end) is None
        # a window that ends before the trial's last event, and one that
        # takes in its next
        assert lab._replay(sp, base.events, cands, (thresholds[-2] + thresholds[-1]) / 2) is None
        assert lab._replay(sp, base.events, cands, flow.lam_after(1.0, 8.0)) is None

    def test_replay_stops_at_max_events(self, monkeypatch):
        monkeypatch.setattr(lab, "MAX_EVENTS", 3)
        s, base, cands, lam_end = self._base(4.0, max_events=3)
        sp = _perturbed(s, 3, 1e-6)
        thresholds = lab._replay(sp, base.events, cands, lam_end)[1]
        assert thresholds == [ev.threshold for ev in run_flow(sp, 4.0, max_events=3, verify="off").events]


CHECKPOINT_FLOWS = {
    "gold": lambda: run_flow(gold(), 4 * GOLD_PERIOD_T, verify="off"),
    **{
        f"x_{n}-perturbed": (
            lambda n=n: run_flow(_perturbed(slope_torus(_slope(n)), n), 8.0, verify="off")
        )
        for n in (1, 2, 3)
    },
}


def _same_chart(a: Surface, b: Surface) -> bool:
    """a and b are one surface at one lam: the same triangles, periods and
    derived-data cache."""
    return (a.triangles, a.periods, a.lam) == (b.triangles, b.periods, b.lam) and a._derived is b._derived


def _threshold_times(traj) -> list[float]:
    """Times past the start of traj whose lam is exactly an event's
    threshold, found by stepping a float time by ulps around the event time."""
    lam0 = float(traj.start.lam)
    found = []
    for ev in traj.events:
        t = 0.5 * math.log(float(ev.threshold) / lam0)
        for _ in range(4):
            lam = flow.lam_after(lam0, t)
            if lam == float(ev.threshold):
                found.append(t)
                break
            t = math.nextafter(t, math.inf if lam < float(ev.threshold) else -math.inf)
    return found


class TestCheckpointReads:
    @pytest.mark.parametrize("name", list(CHECKPOINT_FLOWS))
    def test_one_walk_matches_a_walk_per_checkpoint(self, name):
        traj = CHECKPOINT_FLOWS[name]()
        on_events = _threshold_times(traj)
        assert on_events  # a checkpoint sits exactly on an event threshold
        times = sorted([0.0, *(traj.t_end * (k + 1) / 8 for k in range(8)), *on_events, 2 * traj.t_end])
        lams = [flow.lam_after(float(traj.start.lam), t) for t in times]
        at = lab._state_indices([float(ev.threshold) for ev in traj.events], lams)
        assert len(at) == len(times)
        states = traj.states()
        for k, lam, t in zip(at, lams, times):
            assert _same_chart(states[k].replace(lam=lam), reference_state_at(traj, t))

    @pytest.mark.parametrize(
        "build", [gold, lambda: octagon("float").replace(lam=2.5)], ids=["gold", "octagon"]
    )
    def test_flowed_maps_give_the_surface_reads_bitwise(self, build):
        s1 = build()
        s2 = s1.replace(periods={e: (p.w, 1.001 * p.h) for e, p in s1.periods.items()})
        f1, f2 = s1.flowed_periods(), s2.flowed_periods()
        assert lab._roundoff_unit(f1) == reference_roundoff_unit(s1)
        assert lab._stable_distance(f1, f2) == reference_stable_distance(s1, s2)

    def test_contract_reads_sigma_once_per_checkpoint_surface(self, monkeypatch):
        reads = count_sigma_reads(monkeypatch)
        fit = contraction_experiment(gold(), 2 * GOLD_PERIOD_T, checkpoints=4, trials=3, seed=3)
        # rebase, each base checkpoint (its roundoff unit and every trial's
        # distance), the start surface, and per kept trial its perturbed
        # start and every checkpoint
        assert len(fit.log_ratios) == 3
        assert sum(reads.values()) == 1 + 4 + 1 + 3 * (1 + 4)


AREA_SURFACES = {
    "gold": gold,
    "x_3.3": lambda: slope_torus(3.3),
    "t2": lambda: t2("float"),
    "pillow": lambda: pillow("float"),
    "octagon": lambda: octagon("float"),
}


class TestAreaGradient:
    """The area gradient along the closure basis, which perturb_heights
    projects out, is the exact one."""

    @staticmethod
    def _heights(s, edges):
        return np.array([float(s.periods[e].h) for e in edges])

    @pytest.mark.parametrize("name", list(AREA_SURFACES))
    def test_eulers_identity(self, name):
        # area is linear in the heights, and the heights of a surface are a
        # closed direction, so the gradient applied to them gives the area
        s = AREA_SURFACES[name]()
        edges, basis, _, grad = lab._height_directions(s)[:4]
        a = float(area(s))
        assert abs(grad @ (basis @ self._heights(s, edges)) - a) <= 1e-12 * a

    @pytest.mark.parametrize("name", list(AREA_SURFACES))
    def test_central_difference_along_each_basis_row(self, name):
        s = AREA_SURFACES[name]()
        edges, basis, _, grad = lab._height_directions(s)[:4]
        h0 = self._heights(s, edges)
        step = 1e-6

        def area_at(h):
            return float(area(s.replace(periods={e: (s.periods[e].w, x) for e, x in zip(edges, h)})))

        assert len(grad) == len(basis) > 0
        for d, g in zip(basis, grad):
            assert abs((area_at(h0 + step * d) - area_at(h0 - step * d)) / (2 * step) - g) <= 1e-7

    @pytest.mark.parametrize("name", list(AREA_SURFACES))
    def test_draws_along_the_gradient_leave_no_direction(self, name):
        class Along:
            """An rng whose gauss draws are the area gradient's coefficients."""

            def __init__(self, coeffs):
                self.coeffs = iter(coeffs)

            def gauss(self, mu, sigma):
                return next(self.coeffs)

        s = AREA_SURFACES[name]()
        grad = lab._height_directions(s)[3]
        with pytest.raises(DegeneracyError, match="area constraint is everything"):
            lab.perturb_heights(s, Along(grad), 1e-3)


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

        def recording(matrix):
            seen.append(np.array(matrix))
            return image_diameter(matrix)

        monkeypatch.setattr(lab, "image_diameter", recording)
        trace = hilbert_contraction_experiment(traj)
        branches = tuple(sorted(traj.start.edges))
        composed = np.eye(len(branches))
        for ev, d in zip(traj.events, trace.diameters):
            composed = np.array(compose_word((ev,), branches).tangential, dtype=float) @ composed
            want = image_diameter(composed)
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

    @pytest.mark.parametrize("search_t", [0.0, -1.0, math.nan, math.inf])
    def test_search_window_must_be_finite_and_positive(self, search_t):
        with pytest.raises(VeertrackError, match="time must be finite and positive"):
            closing_search(gold(), search_t=search_t)


class TestSearchFlow:
    """close's search flow is certified and stops at its first return."""

    @staticmethod
    def _close_flows(monkeypatch, tmp_path, n: int) -> list:
        """(trajectory, certificate checks) of each flow that `close --delta
        1e-3 --seed n` runs on x_n, the search flow first."""
        flows, checks = [], []
        real_flow, real_check = flow.run_flow, flow.delaunay_violations

        def counting_check(s):
            checks.append(s)
            return real_check(s)

        def recording(*args, **kwargs):
            checks.clear()
            traj = real_flow(*args, **kwargs)
            flows.append((traj, len(checks)))
            return traj

        monkeypatch.setattr(flow, "delaunay_violations", counting_check)
        for module in (flow, lab):
            monkeypatch.setattr(module, "run_flow", recording)
        path = tmp_path / "x.json"
        path.write_text(serialize_surface(slope_torus(_slope(n))))
        argv = ["close", "--input", str(path), "--delta", "1e-3", "--seed", str(n), "--output", str(tmp_path / "o.json")]
        assert cli.main(argv) == 0
        return flows

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_search_flow_ends_at_the_first_return(self, monkeypatch, tmp_path, n):
        # flowing the whole default window takes 11, 12 and 13 events
        (search, _), *_ = self._close_flows(monkeypatch, tmp_path, n)
        match = scan_periodicity(search, 0.1)
        assert len(search.events) == match.m2 == 1 + 2 * n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_search_flow_checks_the_certificate_at_every_event(self, monkeypatch, tmp_path, n):
        # one check of the start surface, then one probe past each event
        (search, checks), *_ = self._close_flows(monkeypatch, tmp_path, n)
        assert checks == 1 + len(search.events)


class TestPeriodMatrix:
    def test_gold_matrix_and_characteristic_polynomial(self):
        r = closing_search(gold()).matrix
        assert r == ((0, 0, 1), (0, 1, -1), (0, -1, 2))
        # x (x^2 - 3x + 1)
        assert np.round(np.poly(np.array(r, dtype=float))).tolist() == [1, -3, 1, 0]

    @pytest.mark.parametrize(
        "name, n, seed", CLOSING_STARTS, ids=[f"{name}-{seed}" for name, _, seed in CLOSING_STARTS]
    )
    def test_closed_orbit_is_the_eigenvector_pair(self, name, n, seed):
        s = gold() if name == "gold" else slope_torus(_slope(n))
        result = closing_search(s if seed is None else _perturbed(s, seed))
        assert len(result.word) == 2 * n
        assert abs(result.lam_w - _slope(n) ** 2) <= 1e-9
        assert result.residual < 1e-10 and result.converged
        r = np.array(result.matrix, dtype=float)
        edges = sorted(result.surface.edges)
        w = np.array([result.surface.periods[e].w for e in edges])
        h = np.array([result.surface.periods[e].h for e in edges])
        lam = result.lam_w
        assert np.abs(r @ w - w / lam).max() <= 1e-9 * np.abs(w).max()
        assert np.abs(r @ h - lam * h).max() <= 1e-9 * np.abs(h).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_word_quads_carry_the_periods_across_the_return(self, monkeypatch, n):
        traj, match = flow.detect_periodicity(slope_torus(_slope(n)), 16.0, rel_tol=0.1)
        states = traj.states()
        built = []
        monkeypatch.setattr(delaunay, "build_quad", lambda s, e: built.append(e))
        # next_split built each Quad on the state before its event
        quads = [delaunay.quad(x, ev.edge) for x, ev in zip(states[match.m:match.m2], match.word)]
        monkeypatch.undo()
        assert built == []
        r = np.array(lab.period_matrix(quads, match.relabel), dtype=float)
        edges = sorted(match.relabel)
        for k in (0, 1):  # widths, then heights, in the base chart
            before = np.array([states[match.m].periods[e][k] for e in edges])
            after = np.array([sg * states[match.m2].periods[e2][k] for e2, sg in map(match.relabel.get, edges)])
            assert np.abs(r @ before - after).max() <= 1e-9 * np.abs(after).max()


class TestReplayCheck:
    """The replay certifies the point: a wrong point does not come back."""

    @staticmethod
    def _comes_back(s) -> bool:
        try:
            return closing_search(s).converged
        except VeertrackError:
            return False

    @pytest.mark.parametrize("n", [1, 3])
    def test_point_without_the_pin_fails(self, monkeypatch, n):
        s = _perturbed(slope_torus(_slope(n)), 5)
        assert self._comes_back(s)
        monkeypatch.setattr(lab, "_pin_moment", lambda x, edge: x)
        assert not self._comes_back(s)

    @pytest.mark.parametrize("n", [1, 3])
    def test_swapped_eigenvectors_fail(self, monkeypatch, n):
        s = _perturbed(slope_torus(_slope(n)), 5)
        real = lab.eigenpairs
        monkeypatch.setattr(lab, "eigenpairs", lambda r, *targets: real(r, *(1 / t for t in targets)))
        assert not self._comes_back(s)

    def test_certificate_is_checked_between_events(self, monkeypatch):
        probes = []
        real = flow.delaunay_violations
        replay = lab._flow_word

        def recording(s):
            probes.append(float(s.lam))
            found = real(s)
            assert found == []
            return found

        def recording_replay(s, word_sig):
            # the certificate is recorded during the replay alone, not the search
            with monkeypatch.context() as m:
                m.setattr(flow, "delaunay_violations", recording)
                return replay(s, word_sig)

        monkeypatch.setattr(lab, "_flow_word", recording_replay)
        result = closing_search(_perturbed(slope_torus(_slope(3)), 5))
        # one probe before each event of the word, from the point (lam 1) on,
        # and one past the word's last event, before the split that follows it
        assert len(probes) == len(result.word) + 1 == 7
        assert 1 < probes[0] and all(a < b for a, b in zip(probes, probes[1:]))
        assert probes[-2] < result.lam_w**2 < probes[-1]

    def test_a_point_past_every_split_is_refused(self):
        # lam far past every threshold of the chart: no split starts the word
        with pytest.raises(VeertrackError, match="trajectory left the combinatorial neighborhood of the word"):
            lab._flow_word(rebase(gold()).replace(lam=1e300), [("e1", "L")])

    def test_a_word_the_point_does_not_follow_is_refused(self):
        result = closing_search(gold())
        word = list(result.word)
        assert lab._flow_word(result.surface, word).lam > result.surface.lam  # the point follows its own word
        (edge, letter), rest = word[0], word[1:]
        other = [(edge, "R" if letter == "L" else "L"), *rest]
        with pytest.raises(VeertrackError, match="trajectory left the combinatorial neighborhood of the word"):
            lab._flow_word(result.surface, other)

    @pytest.mark.parametrize(
        "matrix", [[[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]], ids=["complex", "double"]
    )
    def test_eigenvalue_must_be_real_and_simple(self, matrix):
        with pytest.raises(VeertrackError, match="not real and simple"):
            eigenpairs(np.array(matrix), 1.0)
