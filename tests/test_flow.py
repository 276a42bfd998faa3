"""Event-driven flow: split scheduling, trajectories, periodicity."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    count_sigma_reads,
    exact_trajectory_prefix,
    reference_detect_periodicity,
    reference_large_edges,
    reference_next_split,
    reference_triangle_isomorphisms,
    sampled_thick_fraction,
    scan_periodicity,
    scramble,
    sheared_surface,
)

import veertrack.cli as cli
import veertrack.delaunay as delaunay
import veertrack.flow as flow
import veertrack.lab as lab
from veertrack.errors import DegeneracyError, VeertrackError
from veertrack.fixtures import (
    GOLD_DILATATION,
    GOLD_PERIOD_T,
    gold,
    octagon,
    pillow,
    slope_torus,
    t2,
)
from veertrack.delaunay import develop, greedy_delaunay, quad
from veertrack.flow import (
    PeriodicMatch,
    _may_match,
    _signature,
    _triangle_isomorphisms,
    detect_periodicity,
    next_split,
    run_flow,
    thick_fraction,
)
from veertrack.surface import NUMBER_MODES, Surface, edge_occurrences, rebase, serialize_surface, validate
from veertrack.traintrack import TrainTrack, large_slots, track_branches

ROOT = Path(__file__).resolve().parents[1]


class TestNextSplit:
    def test_torus_first_event_exact(self):
        ev = next_split(t2())
        assert ev.edge == "e1"
        assert ev.threshold == Fraction(23, 10)
        assert ev.direction == "L"
        assert ev.t == pytest.approx(0.5 * math.log(2.3))

    def test_threshold_is_where_the_partner_height_ties(self):
        # the split fires when the flowed height of the partner diagonal
        # equals the flowed width of the splitting edge
        s = t2()
        ev = next_split(s)
        q = quad(s, ev.edge)
        assert q.flippable
        assert ev.threshold == abs(q.diagonal[1]) / abs(s.periods[ev.edge].w)

    def test_event_is_deterministic(self):
        a, b = next_split(t2()), next_split(t2())
        assert (a.edge, a.threshold, a.direction) == (b.edge, b.threshold, b.direction)

    def test_structural_tie_raises(self):
        # the parallelogram sphere has a direction-preserving isometry pairing
        # distinct edges with equal periods, so its flow always ties
        reduced, _ = greedy_delaunay(pillow())
        with pytest.raises(DegeneracyError):
            run_flow(reduced, 2.0)


def _track_large_edges(s):
    slots = large_slots(s.num, s.triangles, s.periods, "vertical")
    track = TrainTrack("vertical", s.comb, slots, track_branches(s.triangles))
    return sorted(e for e, role in track.branch_roles().items() if role == "large")


FLOW_STARTS = {"gold": gold, **{f"x_{n}": (lambda n=n: slope_torus(_slope(n))) for n in range(1, 9)}}
LARGE_EDGE_STATES = {
    **{name: (lambda start=start: run_flow(start(), 12.0).states()) for name, start in FLOW_STARTS.items()},
    **{
        f"{build.__name__}-shears": (
            lambda build=build: [sheared_surface(build(), random.Random(seed)) for seed in range(16)]
        )
        for build in (t2, pillow, octagon)
    },
}


class TestLargeEdges:
    """reference_large_edges, the large-edge pass of reference_next_split,
    against the track's branch roles."""

    @pytest.mark.parametrize("name", list(LARGE_EDGE_STATES))
    def test_count_matches_the_track_roles(self, name):
        states = LARGE_EDGE_STATES[name]()
        for s in states:
            assert reference_large_edges(s) == _track_large_edges(s)
        assert any(reference_large_edges(s) for s in states)


def _other_mode(s: Surface) -> Surface:
    """s in the other number mode: a float surface's periods and lam as the
    Fractions they are, an exact one's rounded to floats."""
    if s.num.exact:
        return Surface(s.triangles, s.periods, "float", float(s.lam))
    return Surface(s.triangles, s.periods, "exact", Fraction(s.lam))


def _perturbed_flow(n: int) -> list[Surface]:
    """The states of a verify="off" flow over 4 periods from x_n with its
    heights perturbed, as contract's trials flow."""
    s, _ = greedy_delaunay(slope_torus(_slope(n)))
    sp = lab.perturb_heights(s, random.Random(n), 1e-3)
    return run_flow(sp, 4 * math.log(_slope(n) ** 2), verify="off").states()


def _exact_gold():
    g = gold()
    return Surface(g.triangles, g.periods, "exact")


def _scrambled_shears() -> list[Surface]:
    """Sheared octagons and pillows after up to 10 random flips: two or
    three large edges, some of them tied."""
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        sheared = sheared_surface((octagon, pillow)[seed % 2](), rng)
        out.append(scramble(sheared, rng, flips=rng.randint(0, 10)))
    return out


SPLIT_STATES = {
    **{name: (lambda start=start: run_flow(start(), 16.0).states()) for name, start in FLOW_STARTS.items()},
    # exact t2 stops on an axis-parallel diagonal, and the pillow ties
    "t2-exact": lambda: exact_trajectory_prefix(t2())[1],
    "gold-exact": lambda: run_flow(_exact_gold(), 8.0).states(),
    **{f"x_{n}-perturbed": (lambda n=n: _perturbed_flow(n)) for n in range(1, 4)},
    "pillow": lambda: [greedy_delaunay(pillow())[0]],
    "scrambles": _scrambled_shears,
}


def _split_outcome(split, s: Surface):
    """split(s), or the type and message of what it raises."""
    try:
        return split(s)
    except Exception as exc:
        return type(exc), str(exc)


def _split_probes(s: Surface) -> list[Surface]:
    """s at its own lam and, when a split follows, at that split's threshold
    and halfway to it."""
    probes = [s]
    ev = _split_outcome(reference_next_split, s)
    if isinstance(ev, flow.SplitEvent):
        probes += [s.replace(lam=ev.threshold), s.replace(lam=(s.lam + ev.threshold) / 2)]
    return probes


class TestNextSplitAgainstReference:
    """next_split's one pass against reference_next_split, which sorts the
    large edges first and tests the winner's slope with slope_sign."""

    @pytest.mark.parametrize("name", list(SPLIT_STATES))
    def test_same_event_or_same_error(self, name):
        outcomes = []
        for state in SPLIT_STATES[name]():
            for s in (state, _other_mode(state)):
                for probe in _split_probes(s):
                    expected = _split_outcome(reference_next_split, probe)
                    assert _split_outcome(next_split, probe) == expected
                    outcomes.append(expected)
        assert any(x is not None for x in outcomes)

    @pytest.mark.parametrize(
        "name, message",
        [("t2-exact", "edge e2: new diagonal is axis-parallel"),
         ("pillow", "simultaneous split events on b and t")],
    )
    def test_the_raising_cases_raise_alike(self, name, message):
        s = SPLIT_STATES[name]()[-1]
        assert _split_outcome(reference_next_split, s) == (DegeneracyError, message)
        assert _split_outcome(next_split, s) == (DegeneracyError, message)


def _composed_split(s: Surface):
    """(threshold, edge, direction) of earliest_split over split_candidates,
    on quadrilaterals built afresh, or None."""
    quads = [delaunay.build_quad(s, e) for e in flow.split_candidates(s)]
    got = flow.earliest_split(s.num, s.lam, quads, s.periods)
    return None if got is None else (got[0], got[1].edge, got[2])


def _event_key(s: Surface):
    """next_split(s) as (threshold, edge, direction), or what it raises."""
    ev = _split_outcome(next_split, s)
    return (ev.threshold, ev.edge, ev.direction) if isinstance(ev, flow.SplitEvent) else ev


class TestSplitHalves:
    """next_split against its two halves called apart: split_candidates,
    which reads the triangles and widths, and earliest_split, which the
    contraction trials run on quadrilaterals of their own."""

    @pytest.mark.parametrize("name", list(SPLIT_STATES))
    def test_halves_compose_to_next_split(self, name):
        outcomes = []
        for state in SPLIT_STATES[name]():
            for s in (state, _other_mode(state)):
                cands = _split_outcome(flow.split_candidates, s)
                if isinstance(cands, list):
                    assert sorted(cands) == reference_large_edges(s)
                for probe in _split_probes(s):
                    expected = _event_key(probe)
                    assert _split_outcome(_composed_split, probe) == expected
                    outcomes.append(expected)
        assert any(x is not None for x in outcomes)

    def test_the_pillow_tie_raises_in_earliest_split(self):
        s = SPLIT_STATES["pillow"]()[-1]
        # in the order of their second slots; the tie is reported by threshold, then edge
        assert flow.split_candidates(s) == ["t", "b"]
        message = "simultaneous split events on b and t"
        assert _split_outcome(_composed_split, s) == (DegeneracyError, message)
        assert _split_outcome(next_split, s) == (DegeneracyError, message)

    def test_candidates_read_the_widths_alone(self):
        # the heights moved as a contraction trial moves them: the same list
        for n in (1, 2, 3):
            for s in _perturbed_flow(n):
                moved = s.replace(periods={e: (p.w, 1.5 * p.h) for e, p in s.periods.items()})
                assert flow.split_candidates(moved) == flow.split_candidates(s)

    @pytest.mark.parametrize("defects, direction", [((0.0, 0.0), "L"), ((1.5e-9, 1e-9), None)])
    def test_width_cross_check_fires_on_closure_defects(self, defects, direction):
        # e = (1, 0.5) splits in the convex quadrilateral a, b, c, d, whose
        # other diagonal d' = b + c = (1.2e-9, 2) has positive slope: L.  The
        # widths of t1 = (a, b, -e) miss closure by defects[0], and those of
        # t2 = (c, d, e) by defects[1]: a flip's new triangle (d, a, d')
        # carries the defects of both old ones, so 1.5e-9 follows from two
        # triangles within validate's 1e-9.  Then wb - wa = 2 d'.w - 2.5e-9
        # reads R.
        d1, d2 = defects
        periods = {
            "e": (1.0, 0.5),
            "a": (0.4, -0.8),
            "b": (0.6 + d1, 1.3),
            "c": (-0.6 + 1.2e-9 - d1, 0.7),
            "d": (-0.4 + d1 + d2 - 1.2e-9, -1.2),
        }
        num = NUMBER_MODES["float"]
        q = develop(num, periods, "e", 0, 1, (("a", 1), ("b", 1), ("c", 1), ("d", 1)))
        assert q.flippable and q.diagonal == pytest.approx((1.2e-9, 2.0), rel=1e-6)
        if direction is None:
            with pytest.raises(VeertrackError, match="edge e: slope direction L disagrees with width comparison"):
                flow.earliest_split(num, 1.0, [q], periods)
        else:
            assert flow.earliest_split(num, 1.0, [q], periods) == (2.0, q, direction)


class TestRunFlow:
    def test_event_times_are_increasing(self):
        traj = run_flow(gold(), 3.0)
        times = traj.times()
        assert times == sorted(times)
        assert all(0 <= t <= 3.0 + 1e-9 for t in times)

    def test_states_stay_valid_and_delaunay(self):
        traj = run_flow(gold(), 2.0, verify="debug")
        for s in traj.states():
            assert validate(s).passed

    def test_exact_prefix_matches_float_run(self):
        events, _ = exact_trajectory_prefix(t2(), max_events=5)
        traj = run_flow(t2(), 0.5)
        assert events and traj.events
        for exact_ev, float_ev in zip(events, traj.events):
            assert exact_ev.edge == float_ev.edge
            assert exact_ev.direction == float_ev.direction
            assert float(exact_ev.threshold) == pytest.approx(
                float(float_ev.threshold), rel=1e-12
            )

    def test_exact_gold_flows_past_the_float_axis_cut(self):
        # near t = 19 a new diagonal's base-chart width drops below 1e-9;
        # exact mode tests it against 0, so the flow goes on
        g = gold()
        traj = run_flow(Surface(g.triangles, g.periods, "exact"), 20.0)
        assert len(traj.events) == 43
        assert traj.events[-1].t > 19.5

    def test_start_surface_must_be_delaunay(self):
        # t2 sheared by (w, h) -> (w + 11h/100, 9w/100 + h): valid, but e3
        # violates the certificate at lam = 1
        s = t2().replace(periods={
            "e1": (Fraction(1033, 1000), Fraction(39, 100)),
            "e2": (Fraction(-29, 100), Fraction(241, 250)),
            "e3": (Fraction(-743, 1000), Fraction(-677, 500)),
        })
        assert validate(s).passed
        assert delaunay.delaunay_violations(s) == ["e3"]
        with pytest.raises(VeertrackError, match="needs a certified Delaunay start surface"):
            run_flow(s, 1.0)

    def test_max_events_cap(self):
        traj = run_flow(gold(), 50.0, max_events=7)
        assert len(traj.events) == 7

    @pytest.mark.parametrize("verify", ["on", "Debug", "", None])
    def test_unknown_verify_mode_is_refused(self, verify):
        with pytest.raises(ValueError, match=f"bad verify mode {verify!r}"):
            run_flow(gold(), 6.0, verify=verify)

    @pytest.mark.parametrize("max_events", [0, -5])
    def test_max_events_below_one_is_refused(self, max_events):
        with pytest.raises(VeertrackError, match="max-events must be at least 1"):
            run_flow(gold(), 3.0, max_events=max_events)

    def test_end_past_the_float_range_flows_as_infinite_time(self):
        # e^{2T} overflows from T of about 355 up
        assert flow.lam_after(1.0, 400.0) == math.inf
        assert run_flow(gold(), 400.0, max_events=5).events == run_flow(
            gold(), math.inf, max_events=5
        ).events

    @pytest.mark.parametrize(
        "verify, max_events, extra",
        [
            # the debug probe's split is reused as the next event
            ("debug", 10000, 1),
            ("debug", 7, 1),
            # without the probe: one call per event, plus the one that ends
            # the window, but none past a max_events cutoff
            ("off", 10000, 1),
            ("off", 7, 0),
        ],
    )
    def test_next_split_calls_per_event(self, monkeypatch, verify, max_events, extra):
        count = 0

        def counting(s):
            nonlocal count
            count += 1
            return next_split(s)

        monkeypatch.setattr(flow, "next_split", counting)
        traj = run_flow(gold(), 4 * GOLD_PERIOD_T, max_events=max_events, verify=verify)
        assert len(traj.events) == min(8, max_events)
        assert count == len(traj.events) + extra

    @pytest.mark.parametrize("verify", ["debug", "off"])
    @pytest.mark.parametrize("name", list(FLOW_STARTS))
    def test_build_quad_calls_per_event(self, monkeypatch, name, verify):
        count = 0
        build = delaunay.build_quad

        def counting(s, e):
            nonlocal count
            count += 1
            return build(s, e)

        monkeypatch.setattr(delaunay, "build_quad", counting)
        start = FLOW_STARTS[name]()
        traj = run_flow(start, 8.0, verify=verify)
        assert traj.events
        edges = start.edges
        if verify == "off":
            # the start certificate builds every edge, then each event's
            # surface builds the one its next split reads
            assert count == len(edges) + len(traj.events)
        else:
            # the debug certificate of every surface builds every edge once
            assert count == len(edges) * len(traj.states())
            for s in traj.states():
                assert sorted(s._derived["quads"]) == list(edges)

    @pytest.mark.parametrize("verify", ["debug", "off"])
    def test_debug_check_catches_a_skipped_event(self, monkeypatch, verify):
        # a scheduler that misses the fourth call's event and reports what
        # follows it on the same surface (nothing, on gold) instead: only the
        # whole-surface certificate after the third split can see it
        calls = 0

        def skipping(s):
            nonlocal calls
            calls += 1
            ev = next_split(s)
            if calls != 4 or ev is None:
                return ev
            return next_split(s.replace(lam=ev.threshold))

        monkeypatch.setattr(flow, "next_split", skipping)
        if verify == "off":
            assert len(run_flow(gold(), 6.0, verify=verify).events) == 3
            return
        with pytest.raises(VeertrackError, match="lost the Delaunay certificate"):
            run_flow(gold(), 6.0, verify=verify)


class TestThickness:
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(VeertrackError, match="eps must be finite and positive"):
            thick_fraction(run_flow(gold(), 1.0), eps)

    def test_fraction_in_unit_interval(self):
        traj = run_flow(gold(), 3.0)
        stats = thick_fraction(traj, eps=0.05)
        assert 0.0 <= stats.theta <= 1.0
        assert stats.thick_time <= 3.0 + 1e-9

    def test_tiny_eps_makes_everything_thick(self):
        traj = run_flow(gold(), 2.0)
        stats = thick_fraction(traj, eps=1e-9)
        assert stats.theta == pytest.approx(1.0)

    # eps where the proxy systole dips below eps on part of [0, 4], so thin
    # intervals are cut out and united; at gold's 2.7 the thin intervals of
    # two curves overlap for 0.55 of the 4 time units; theta as measured
    @pytest.mark.parametrize(
        "name, eps, theta",
        [("gold", 2.5, 0.516), ("gold", 2.7, 0.208), ("x2", 3.0, 0.891), ("x2", 3.5, 0.485)],
    )
    def test_thin_part_matches_a_sampled_oracle(self, name, eps, theta):
        s = gold() if name == "gold" else slope_torus(_slope(2))
        traj = run_flow(s, 4.0)
        stats = thick_fraction(traj, eps)
        assert stats.theta == pytest.approx(theta, abs=1e-3)
        assert stats.thick_time == pytest.approx(4.0 * stats.theta)
        # the midpoint share lands within one grid step of the measure on
        # these flows (measured); two steps leave room for rounding
        step = 2e-3
        assert abs(sampled_thick_fraction(traj, eps, step) - stats.theta) * 4.0 <= 2 * step


class TestPeriodicity:
    def test_golden_torus_period(self):
        traj = run_flow(gold(), 4 * GOLD_PERIOD_T)
        match = scan_periodicity(traj)
        assert match is not None
        assert match.lam_w == pytest.approx(GOLD_DILATATION, abs=1e-9)
        assert match.period_t == pytest.approx(GOLD_PERIOD_T, abs=1e-9)
        assert len(match.word) == 2
        assert {ev.direction for ev in match.word} == {"L", "R"}

    def test_relabel_is_a_signed_bijection(self):
        traj = run_flow(gold(), 4 * GOLD_PERIOD_T)
        match = scan_periodicity(traj)
        images = [e2 for e2, _ in match.relabel.values()]
        assert sorted(images) == sorted(match.relabel.keys())
        assert all(sg in (1, -1) for _, sg in match.relabel.values())

    def test_aperiodic_prefix_reports_nothing(self):
        traj = run_flow(gold(), 0.8 * GOLD_PERIOD_T)
        assert scan_periodicity(traj) is None


def _reference_detect_periodicity(traj, rel_tol):
    """detect_periodicity without the sorted-period rejection test: the
    isomorphism search runs on every pair of states."""
    states = traj.states()
    eff = [s.flowed_periods() for s in states]
    for span in range(1, len(states)):
        for m in range(0, len(states) - span):
            m2 = m + span
            lam_w = math.sqrt(float(states[m2].lam) / float(states[m].lam))
            if not lam_w > 1 + 1e-9:
                continue
            for sigma in _triangle_isomorphisms(states[m], states[m2]):
                glob = None
                good = True
                for e, (e2, f) in sigma.items():
                    w1, h1 = eff[m][e]
                    w2, h2 = f * eff[m2][e2][0], f * eff[m2][e2][1]
                    scale = max(abs(w1), abs(h1), 1e-15)
                    if glob is None:
                        if abs(abs(w1) - abs(w2)) > rel_tol * scale:
                            good = False
                            break
                        glob = 1 if w1 * w2 > 0 else -1
                    w2, h2 = glob * w2, glob * h2
                    if abs(w2 - w1) > rel_tol * scale or abs(h2 - h1) > rel_tol * scale:
                        good = False
                        break
                if good and glob is not None:
                    relabel = {e: (e2, glob * f) for e, (e2, f) in sigma.items()}
                    return PeriodicMatch(m, m2, relabel, lam_w, tuple(traj.events[m:m2]))
    return None


def _perturbed_gold():
    rng = random.Random(11)
    s = gold()
    return s.replace(
        periods={e: (p.w, p.h * (1 + rng.uniform(-1e-3, 1e-3))) for e, p in s.periods.items()}
    )


def _slope(n):
    return (n + math.sqrt(n * n + 4)) / 2


REFERENCE_TRAJECTORIES = {
    **{f"x{n}": (lambda n=n: run_flow(slope_torus(_slope(n)), 3 * math.log(_slope(n) ** 2)))
       for n in range(1, 5)},
    # longer words, so more mirror-image pairs precede the match
    **{f"x{n}": (lambda n=n: run_flow(slope_torus(_slope(n)), 16.0)) for n in range(5, 9)},
    "gold": lambda: run_flow(gold(), 4 * GOLD_PERIOD_T),
    "gold-perturbed": lambda: run_flow(_perturbed_gold(), 5.0),
    "gold-no-return": lambda: run_flow(gold(), 0.8 * GOLD_PERIOD_T),
}


def _relabelled(s: Surface, rng: random.Random):
    """A copy of s under a random signed relabelling: new edge names in a
    shuffled order, some edges reversed (period negated, triangle signs
    flipped), each triangle rotated and the triangles reordered; with the
    relabelling (e -> (name, sign)) that carries s to it."""
    names = [f"x{i}" for i in range(len(s.edges))]
    rng.shuffle(names)
    relabel = {e: (name, rng.choice((1, -1))) for e, name in zip(s.edges, names)}
    tris = []
    for tri in s.triangles:
        r = rng.randrange(3)
        tris.append(tuple((relabel[e][0], sg * relabel[e][1]) for e, sg in tri[r:] + tri[:r]))
    rng.shuffle(tris)
    periods = {}
    for e, (name, sg) in relabel.items():
        periods[name] = (sg * s.periods[e].w, sg * s.periods[e].h)
    return Surface(tris, periods, s.mode), relabel


def _rotations(tri) -> frozenset:
    return frozenset(tri[r:] + tri[:r] for r in range(3))


def _carries(sigma: dict, s1: Surface, s2: Surface) -> bool:
    """sigma maps every triangle of s1 onto one of s2, up to rotation."""
    image = {_rotations(tuple((sigma[e][0], sg * sigma[e][1]) for e, sg in tri)) for tri in s1.triangles}
    return image == {_rotations(tri) for tri in s2.triangles}


class TestTriangleIsomorphisms:
    """Every state of a one-vertex torus matches every other, so the search
    is checked here on the four-vertex pillow and the nine-edge octagon."""

    @pytest.mark.parametrize("build, count", [(pillow, 2), (octagon, 1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_relabelled_copy_yields_its_relabelling(self, build, count, seed):
        s = build()
        copy, relabel = _relabelled(s, random.Random(seed))
        found = list(_triangle_isomorphisms(s, copy))
        assert relabel in found
        # one match per automorphism of the triangulation, each a true one
        assert len(found) == count == len(list(_triangle_isomorphisms(s, s)))
        assert all(_carries(sigma, s, copy) for sigma in found)

    @pytest.mark.parametrize("build, edge", [(pillow, "dF"), (pillow, "dB"), (octagon, "g3")])
    def test_a_flipped_copy_yields_none(self, build, edge):
        s = build()
        flipped = delaunay.flip(s, edge, s.lam)
        copy, _ = _relabelled(flipped, random.Random(1))
        assert next(_triangle_isomorphisms(s, flipped), None) is None
        assert next(_triangle_isomorphisms(s, copy), None) is None
        assert next(_triangle_isomorphisms(flipped, copy), None) is not None


class _CountingIndex(dict):
    """An occurrence index that counts its item reads."""

    def __init__(self, occ, reads: list):
        super().__init__(occ)
        self.reads = reads

    def __getitem__(self, key):
        self.reads[0] += 1
        return super().__getitem__(key)


class TestIsomorphismWalkCost:
    def test_a_taken_image_ends_the_walk_early(self):
        # every ordered pair of the pillow or the octagon and its one-flip
        # copies; without the e2-in-used exit the walk reads the index
        # 11736 times for the same 33 isomorphisms
        reads, found = [0], 0
        for build in (pillow, octagon):
            s = build()
            states = [s] + [delaunay.flip(s, e, s.lam) for e in s.edges if quad(s, e).flippable]
            for x in states:
                x.comb._occ = _CountingIndex(edge_occurrences(x.triangles), reads)
            found += sum(1 for a in states for b in states for _ in _triangle_isomorphisms(a, b))
        assert (reads[0], found) == (9432, 33)


def _isomorphism_pairs():
    """(name, s1, s2): every pair of states of short flows on gold, x_2 and
    t2, and relabelled and flipped copies of the pillow and the octagon."""
    flows = {
        "gold": run_flow(gold(), 8.0).states(),
        "x2": run_flow(slope_torus(_slope(2)), 8.0).states(),
        # exact t2 stops on an axis-parallel diagonal within its first events
        "t2": exact_trajectory_prefix(t2())[1],
    }
    for name, states in flows.items():
        for m, a in enumerate(states):
            for m2, b in enumerate(states):
                yield f"{name}[{m}, {m2}]", a, b
    for build, edge in ((pillow, "dF"), (pillow, "dB"), (octagon, "g3")):
        s = build()
        flipped = delaunay.flip(s, edge, s.lam)
        copies = [s, flipped, *(_relabelled(x, random.Random(seed))[0] for x in (s, flipped) for seed in range(3))]
        for i, a in enumerate(copies):
            for j, b in enumerate(copies):
                yield f"{build.__name__}-{edge}[{i}, {j}]", a, b


class TestIsomorphismsAgainstReference:
    def test_same_sigmas_in_the_same_order(self):
        pairs = matched = 0
        for name, s1, s2 in _isomorphism_pairs():
            got = [list(sigma.items()) for sigma in _triangle_isomorphisms(s1, s2)]
            expected = [list(sigma.items()) for sigma in reference_triangle_isomorphisms(s1, s2)]
            assert got == expected, name
            pairs += 1
            matched += bool(got)
        # the flipped copies of pillow and octagon match nothing
        assert 0 < matched < pairs


class TestPeriodicityAgainstReference:
    # 1e-5 and 1e-4 sit just past the tolerances at which the perturbed
    # orbit first recurs, where a rejection test that is too strict shows
    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-5, 1e-4, 0.1])
    @pytest.mark.parametrize("name", sorted(REFERENCE_TRAJECTORIES))
    def test_same_match_as_unfiltered_search(self, name, rel_tol):
        traj = REFERENCE_TRAJECTORIES[name]()
        got = scan_periodicity(traj, rel_tol=rel_tol)
        assert got == _reference_detect_periodicity(traj, rel_tol)
        if rel_tol in (1e-9, 0.1):
            # the perturbed orbit recurs only approximately
            no_return = name == "gold-no-return" or (name == "gold-perturbed" and rel_tol < 0.1)
            assert (got is None) == no_return

    def test_same_match_at_the_tightest_tolerance(self):
        # at the smallest rel_tol that still admits the match, the rejection
        # test must let the matching pair through
        traj = REFERENCE_TRAJECTORIES["gold-perturbed"]()
        match = _reference_detect_periodicity(traj, 1e-4)
        states = traj.states()
        f1, f2 = states[match.m].flowed_periods(), states[match.m2].flowed_periods()
        tightest = 0.0
        for e, (e2, sg) in match.relabel.items():
            w1, h1 = f1[e]
            w2, h2 = f2[e2]
            dev = max(abs(sg * w2 - w1), abs(sg * h2 - h1)) / max(abs(w1), abs(h1), 1e-15)
            tightest = max(tightest, dev)
        rel_tol = tightest * (1 + 1e-9)
        assert _reference_detect_periodicity(traj, rel_tol) == match
        assert scan_periodicity(traj, rel_tol=rel_tol) == match


class TestSignatureReads:
    @pytest.mark.parametrize("name", ["gold", "x4", "gold-perturbed"])
    def test_sigma_is_read_once_per_state(self, monkeypatch, name):
        traj = REFERENCE_TRAJECTORIES[name]()
        expected = scan_periodicity(traj)
        reads = count_sigma_reads(monkeypatch)
        assert scan_periodicity(traj) == expected
        # the search stops at the match: no state past it is read
        read = traj.states() if expected is None else traj.states()[: expected.m2 + 1]
        assert sorted(reads) == sorted(id(s) for s in read)
        assert set(reads.values()) == {1}


class TestPeriodicitySearchCount:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_isomorphism_search_runs_once_per_call(self, monkeypatch, n):
        # x_n at n events on is the mirror image of x_n, with the same sorted
        # |w| and |h|: only the signed products keep those pairs from the
        # search
        calls = 0

        def counting(s1, s2):
            nonlocal calls
            calls += 1
            yield from _triangle_isomorphisms(s1, s2)

        monkeypatch.setattr(flow, "_triangle_isomorphisms", counting)
        for window in (8.0, 10.0, 12.0, 14.0, 15.9):
            traj = run_flow(slope_torus(_slope(n)), window)
            calls = 0
            match = scan_periodicity(traj)
            assert (match.m, match.m2) == (1, 1 + 2 * n)
            assert calls == 1


def _identity_trajectories():
    """(name, trajectory): the analyze inputs of scripts/identity.py, each
    reduced and flowed over its window, or up to its degeneracy when the
    flow meets one first."""
    spec = importlib.util.spec_from_file_location("identity", ROOT / "scripts" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    for names, window in ((identity.FLOWING, 12.0), (identity.MIRRORED, 16.0)):
        for name in names:
            s, _ = greedy_delaunay(identity.DOCUMENTS[name]())
            try:
                yield name, run_flow(s, window)
            except DegeneracyError:
                events, states = exact_trajectory_prefix(s, max_events=200)
                yield name, flow.Trajectory(s, events, states[1:], window)


def _perturbed_slope_trajectory(n: int, seed: int):
    """closing_search's whole search window on x_n perturbed as `close
    --delta 1e-3` perturbs it."""
    s = lab.perturb_heights(rebase(slope_torus(_slope(n))), random.Random(seed), 1e-3)
    return run_flow(greedy_delaunay(rebase(s))[0], 5.0)


class TestMatcherAgainstSpanOrder:
    """The matcher (each new state against the earlier ones, nearest first)
    finds the match that the earlier search by span, then m, found."""

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-5, 1e-4, 0.1])
    @pytest.mark.parametrize("name", sorted(REFERENCE_TRAJECTORIES))
    def test_reference_trajectories(self, name, rel_tol):
        traj = REFERENCE_TRAJECTORIES[name]()
        assert scan_periodicity(traj, rel_tol) == reference_detect_periodicity(traj, rel_tol)

    def test_identity_analyze_inputs(self):
        found = 0
        for name, traj in _identity_trajectories():
            match = scan_periodicity(traj)
            assert match == reference_detect_periodicity(traj), name
            found += match is not None
        assert found == 8  # gold, goldx, x2, x3 and x5..x8

    @pytest.mark.parametrize("seed", [5, 11, 77])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perturbed_slope_tori(self, n, seed):
        traj = _perturbed_slope_trajectory(n, seed)
        match = scan_periodicity(traj, 0.1)
        assert match is not None and len(match.word) == 2 * n
        assert match == reference_detect_periodicity(traj, 0.1)


class TestStoppedFlow:
    @pytest.mark.parametrize("name", sorted(REFERENCE_TRAJECTORIES))
    def test_the_stopped_flow_is_a_prefix_ending_at_the_match(self, name):
        whole = REFERENCE_TRAJECTORIES[name]()
        stopped, got = detect_periodicity(whole.start, whole.t_end)
        match = scan_periodicity(whole)
        assert got == match
        end = len(whole.events) if match is None else match.m2
        assert stopped.events == whole.events[:end]
        assert [(x.triangles, x.periods) for x in stopped.surfaces] == [
            (x.triangles, x.periods) for x in whole.surfaces[:end]
        ]
        if match is None:
            assert stopped.t_end == whole.t_end
        else:
            assert stopped.t_end == stopped.times()[-1] < whole.t_end

    @pytest.mark.parametrize("n", range(1, 9))
    def test_analyze_flows_one_period_past_the_first_state(self, monkeypatch, tmp_path, n):
        # x_n first returns at (1, 1 + 2n): analyze flows those events alone,
        # where flowing the whole window takes 17 to 61
        flowed = []

        def counting(*args, **kwargs):
            traj = run_flow(*args, **kwargs)
            flowed.append(len(traj.events))
            return traj

        monkeypatch.setattr(flow, "run_flow", counting)
        path = tmp_path / "x.json"
        path.write_text(serialize_surface(slope_torus(_slope(n))))
        out = tmp_path / "report.json"
        for window in (8.0, 10.0, 12.0, 14.0, 15.9):
            assert cli.main(["analyze", "--input", str(path), "--time", str(window), "--report", str(out)]) == 0
        assert flowed == [1 + 2 * n] * 5


def _noisy_copy(periods, noise, signs, order, rel_tol):
    """State m's effective periods, and a copy relabelled by order with one
    sign per edge whose coordinates differ by the fractions noise of
    rel_tol * scale_e, clamped so that the match test of detect_periodicity
    accepts them."""
    eff1 = {f"e{i}": p for i, p in enumerate(periods)}
    eff2 = {}
    for (w, h), (a, b), sg, j in zip(periods, noise, signs, order):
        tol = rel_tol * max(abs(w), abs(h), 1e-15)
        moved = []
        for x, frac in ((w, a), (h, b)):
            y = x + frac * tol
            while abs(y - x) > tol:
                y = math.nextafter(y, x)
            moved.append(y)
        eff2[f"e{j}"] = (sg * moved[0], sg * moved[1])
    return eff1, eff2


_COORD = st.one_of(st.just(0.0), st.floats(1e-3, 1e3)).flatmap(
    lambda x: st.sampled_from([x, -x])
)
_NOISE = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))


class TestSignatureFilter:
    @pytest.mark.parametrize(
        "periods, noise",
        [
            # the extreme: |w| = |h| = the largest coordinate, both moved the
            # full tolerance outwards, so w * h moves by exactly
            # bound * (2 * top + bound) (every number here is exact)
            ([(1.0, 1.0), (0.5, -0.25), (-0.5, -0.75)], [(1, 1), (0, 0), (0, 0)]),
            ([(-1.0, 1.0), (0.5, -0.25), (-0.5, -0.75)], [(-1, 1), (0, 0), (0, 0)]),
            ([(2.0, 2.0), (1.0, -2.0), (-1.0, -1.0)], [(1, 1), (-1, 1), (1, -1)]),
        ],
    )
    @pytest.mark.parametrize("rel_tol", [0.125, 0.5])
    def test_extreme_noise_is_let_through(self, periods, noise, rel_tol):
        n = len(periods)
        eff1, eff2 = _noisy_copy(periods, noise, [1] * n, list(range(n)), rel_tol)
        assert all(
            abs(eff2[e][k] - eff1[e][k]) == rel_tol * max(map(abs, eff1[e])) * abs(nz[k])
            for e, nz in zip(eff1, noise)
            for k in (0, 1)
        )
        assert _may_match(_signature(eff1, 1.0, rel_tol), _signature(eff2, 1.0, rel_tol))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 9),
        rel_tol=st.sampled_from([1e-9, 1e-5, 1e-4, 1e-2, 0.1, 0.125, 0.5]),
    )
    def test_a_signed_relabelled_copy_is_never_rejected(self, data, n, rel_tol):
        periods = data.draw(st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n))
        noise = data.draw(st.lists(st.tuples(_NOISE, _NOISE), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        eff1, eff2 = _noisy_copy(periods, noise, signs, order, rel_tol)
        assert _may_match(_signature(eff1, 1.0, rel_tol), _signature(eff2, 1.0, rel_tol))

    def test_the_mirror_image_is_rejected(self):
        # (w, h) -> (-w, h) keeps every |w| and |h| but flips each product
        eff1 = {"a": (1.0, 2.0), "b": (-0.5, 0.25), "c": (0.5, 2.25)}
        eff2 = {e: (-w, h) for e, (w, h) in eff1.items()}
        a, b = _signature(eff1, 1.0, 1e-9), _signature(eff2, 1.0, 1e-9)
        assert (a.ws, a.hs) == (b.ws, b.hs)
        assert not _may_match(a, b)
