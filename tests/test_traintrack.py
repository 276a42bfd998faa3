"""Dual train tracks: measures, regions, vertex curves, splitting moves."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import (
    brute_force_rays,
    census_tracks,
    count_fraction_work,
    rank_mod2,
    reference_extreme_rays_nonneg,
    reference_is_filling,
    reference_measures,
    rref,
    scramble,
    sheared_surface,
    sorted_large_slots,
    split_with_direction,
)

from veertrack import _exact, traintrack
from veertrack.errors import DegeneracyError, VeertrackError
from veertrack.fixtures import gold, octagon, pillow, slope_torus, t2
from veertrack.flow import run_flow
from veertrack.surface import NUMBER_MODES, Surface, area, validate
from veertrack.traintrack import (
    TrainTrack,
    complementary_regions,
    dual_track,
    extreme_rays_nonneg,
    is_filling_subtrack,
    large_slots,
    track_branches,
    vertex_curves,
)


SLOPE_TORI = {
    "gold": gold,
    **{f"x{n}": (lambda n=n: slope_torus((n + math.sqrt(n * n + 4)) / 2)) for n in range(1, 9)},
}


class TestDualTrack:
    def test_torus_vertical_roles_and_measures(self):
        track, mu = dual_track(t2(), "vertical")
        assert track.branches == ("e1", "e2", "e3")
        assert track.branch_roles() == {"e1": "large", "e2": "small", "e3": "small"}
        assert mu.transverse == {
            "e1": Fraction(1),
            "e2": Fraction(2, 5),
            "e3": Fraction(3, 5),
        }
        assert mu.tangential == {
            "e1": Fraction(0),
            "e2": Fraction(13, 10),
            "e3": Fraction(1),
        }

    def test_torus_horizontal_roles_and_measures(self):
        track, mu = dual_track(t2(), "horizontal")
        assert track.branch_roles()["e3"] == "large"
        assert mu.transverse == {
            "e1": Fraction(3, 10),
            "e2": Fraction(1),
            "e3": Fraction(13, 10),
        }
        assert mu.tangential == {
            "e1": Fraction(2, 5),
            "e2": Fraction(1),
            "e3": Fraction(0),
        }

    def test_switch_condition_holds(self):
        for build in (t2, gold, pillow, octagon):
            for direction in ("vertical", "horizontal"):
                track, mu = dual_track(build(), direction)
                for lg, s1, s2 in track.switches():
                    assert mu.transverse[lg] == mu.transverse[s1] + mu.transverse[s2]

    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_measure_pairing_equals_area(self, build):
        s = build()
        track, mu = dual_track(s)
        paired = sum(mu.transverse[b] * mu.tangential[b] for b in track.branches)
        assert paired == area(s)

    @settings(max_examples=100, deadline=None)
    @given(
        build=st.sampled_from([t2, pillow, octagon]),
        mode=st.sampled_from(["exact", "float"]),
        seed=st.integers(0, 2**32),
        direction=st.sampled_from(["vertical", "horizontal"]),
    )
    def test_measures_match_the_reference(self, build, mode, seed, direction):
        s = sheared_surface(build(mode), random.Random(seed))

        def outcome(measures):
            try:
                mp = measures(s, direction)
            except DegeneracyError as exc:
                return str(exc)
            return [{e: (x, type(x)) for e, x in part.items()} for part in mp]

        assert outcome(lambda s, d: dual_track(s, d)[1]) == outcome(reference_measures)

    @pytest.mark.parametrize("direction", ["vertical", "horizontal"])
    def test_exact_measures_do_no_fraction_work_per_triangle(self, monkeypatch, direction):
        s = octagon()
        calls = count_fraction_work(monkeypatch)
        dual_track(s, direction)
        monkeypatch.undo()
        # per branch: abs of its period for the transverse measure, and one
        # Fraction from its integer tangential sum
        assert set(calls) <= {"__abs__", "__new__"}
        assert sum(calls.values()) <= 3 * len(s.periods)


def _sized_triangles(rows, mode: str, direction: str) -> Surface:
    """One triangle per row of three side sizes, each side its own edge: the
    widths (vertical) or heights (horizontal) are the sizes, the other
    coordinate is 1.  large_slots reads nothing else."""
    triangles, periods = [], {}
    for t, row in enumerate(rows):
        tri = []
        for i, v in enumerate(row):
            e = f"t{t}s{i}"
            periods[e] = (v, 1) if direction == "vertical" else (1, v)
            tri.append((e, 1))
        triangles.append(tri)
    return Surface(triangles, periods, mode)


def _slots(s: Surface, direction: str) -> tuple[int, ...]:
    return large_slots(s.num, s.triangles, s.periods, direction)


def _view_slots(s: Surface, direction: str) -> tuple[int, ...]:
    """large_slots on the view of NumberMode.scaled, as dual_track reads it."""
    return large_slots(s.num, s.triangles, s.num.scaled(s.periods)[1], direction)


def _large_slots_or_error(s: Surface, direction: str, slots) -> object:
    try:
        return slots(s, direction)
    except DegeneracyError as exc:
        return str(exc)


# a float side size: a small multiple of the triangle's scale, moved by up
# to 2e-9 relative, which crosses the 1e-9 tie on both sides
_FLOAT_SIZE = st.builds(
    lambda base, k, sign: sign * base * (1 + k * 1e-10),
    st.sampled_from([0, 1, 2, 3]),
    st.integers(-20, 20),
    st.sampled_from([1, -1]),
)
_EXACT_SIZE = st.builds(
    lambda base, den, sign: sign * Fraction(base, den),
    st.integers(0, 4),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, -1]),
)


class TestLargeSlots:
    ORDERS = list(itertools.permutations(range(3)))

    def test_a_direction_other_than_the_two_tracks_is_refused(self):
        s = gold()
        with pytest.raises(ValueError, match="bad direction 'diagonal'"):
            large_slots(s.num, s.triangles, s.periods, "diagonal")

    @pytest.mark.parametrize("direction", ["vertical", "horizontal"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("order", ORDERS)
    def test_an_exact_two_way_tie_raises(self, mode, direction, order):
        sizes = (Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2))
        row = [sizes[i] for i in order]
        s = _sized_triangles([(Fraction(1), Fraction(2), Fraction(-3)), row], mode, direction)
        message = f"triangle 1: no strictly largest side for the {direction} track"
        with pytest.raises(DegeneracyError) as exc:
            _slots(s, direction)
        assert str(exc.value) == message

    @pytest.mark.parametrize("direction", ["vertical", "horizontal"])
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("gap, ties", [(5e-10, True), (2e-9, False)], ids=["inside", "outside"])
    def test_a_float_near_tie_raises_inside_the_tolerance(self, direction, order, gap, ties):
        # the tolerance is relative to the larger value: 1e-9 * 1e6 here
        sizes = (1e6, -1e6 * (1 - gap), 1e5)
        row = [sizes[i] for i in order]
        s = _sized_triangles([row], "float", direction)
        if ties:
            with pytest.raises(DegeneracyError, match="no strictly largest side"):
                _slots(s, direction)
        else:
            assert _slots(s, direction) == (order.index(0),)

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        mode=st.sampled_from(["exact", "float"]),
        direction=st.sampled_from(["vertical", "horizontal"]),
        triangles=st.integers(1, 4),
    )
    def test_matches_the_sorted_reference(self, data, mode, direction, triangles):
        rows = []
        for _ in range(triangles):
            if mode == "exact":
                rows.append(data.draw(st.tuples(_EXACT_SIZE, _EXACT_SIZE, _EXACT_SIZE)))
            else:
                scale = data.draw(st.sampled_from([1e-3, 1.0, 1e6]))
                sizes = data.draw(st.tuples(_FLOAT_SIZE, _FLOAT_SIZE, _FLOAT_SIZE))
                rows.append(tuple(scale * v for v in sizes))
        s = _sized_triangles(rows, mode, direction)
        expected = _large_slots_or_error(s, direction, sorted_large_slots)
        assert _large_slots_or_error(s, direction, _slots) == expected
        assert _large_slots_or_error(s, direction, _view_slots) == expected


def _tie_cases():
    """(mode, top, second): float runner-ups 1e-9 * max(1, top) * (1 +- 1e-6)
    below tops under and over 1, and exact equal and unequal pairs."""
    for top in (1e-6, 0.25, 1.0, 3.0, 7e8):
        for f in (1 - 1e-6, 1.0, 1 + 1e-6):
            yield "float", top, top - 1e-9 * max(1.0, top) * f
        yield "float", top, top
    for top, second in (
        (Fraction(7, 3), Fraction(7, 3)),
        (Fraction(7, 3), Fraction(7, 3) - Fraction(1, 10**12)),
        (Fraction(5), Fraction(5)),
        (5, 5),
        (5, 4),
    ):
        yield "exact", top, second


class TestLargeSlotsTie:
    @pytest.mark.parametrize("mode, top, second", list(_tie_cases()))
    def test_raises_exactly_when_the_mode_ties(self, mode, top, second):
        widths = (second, -top, 0 * top)
        s = _sized_triangles([widths], mode, "vertical")
        tie = s.num.tie(second, top, 1e-9)
        # the surface's own periods, and the widths as given (ints stand
        # for the integer view of NumberMode.scaled)
        for periods in (s.periods, {e: (w, 1) for e, w in zip(s.periods, widths)}):
            got = _large_slots_or_error(s, "vertical", lambda x, d: large_slots(x.num, x.triangles, periods, d))
            assert got == ("triangle 0: no strictly largest side for the vertical track" if tie else (1,))

    def test_both_outcomes_occur(self):
        ties = {
            NUMBER_MODES[mode].tie(second, top, 1e-9) for mode, top, second in _tie_cases() if mode == "float"
        }
        assert ties == {True, False}

    def test_exact_mode_compares_alone(self, monkeypatch):
        s = _sized_triangles([(Fraction(7, 3), Fraction(-5, 3), Fraction(1, 3))] * 3, "exact", "vertical")
        calls = count_fraction_work(monkeypatch)
        assert _slots(s, "vertical") == (0, 0, 0)
        # abs makes a Fraction (__new__); no difference or product is taken
        assert not {"__sub__", "__rsub__", "__mul__", "__rmul__"} & set(calls)


class TestRegions:
    def test_census_matches_cone_angles(self):
        expected = {t2: {2: 1}, pillow: {1: 4}, octagon: {6: 1}}
        for build, counts in expected.items():
            track, _ = dual_track(build())
            assert complementary_regions(track) == counts

    def test_census_stable_under_scramble(self):
        rng = random.Random(9)
        s = scramble(octagon(), rng, flips=6)
        track, _ = dual_track(s)
        assert complementary_regions(track) == {6: 1}


SHEARED = [
    pytest.param(
        lambda build=build, seed=seed: sheared_surface(build(), random.Random(seed)),
        id=f"{build.__name__}-shear{seed}",
    )
    for build in (t2, pillow, octagon)
    for seed in (7, 8, 9)
]


class TestVertexCurves:
    def test_torus_vertical_curves(self):
        track, _ = dual_track(t2())
        assert sorted(vertex_curves(track)) == [(1, 0, 1), (1, 1, 0)]

    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon, *SHEARED])
    def test_curves_match_brute_force(self, build):
        for direction in ("vertical", "horizontal"):
            track, _ = dual_track(build(), direction)
            rows = track.switch_matrix()
            got = sorted(vertex_curves(track))
            want = brute_force_rays(rows, len(track.branches))
            assert got == [tuple(int(x) for x in ray) for ray in want]
            assert all(type(x) is int for curve in got for x in curve)

    @pytest.mark.parametrize("build", [t2, gold, pillow, octagon])
    def test_curves_visit_each_branch_at_most_twice(self, build):
        track, _ = dual_track(build())
        for curve in vertex_curves(track):
            assert all(0 <= c <= 2 for c in curve)

    def test_extreme_rays_agree_with_oracle_on_random_systems(self):
        rng = random.Random(31)
        for k in range(40):
            n = rng.randint(3, 8)
            rows = [
                [rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(1, 5))
            ]
            if k % 2:
                rows.append(list(rng.choice(rows)))
            if k % 3 == 0:
                rows.insert(rng.randrange(len(rows) + 1), [0] * n)
            got = extreme_rays_nonneg(rows, n)
            assert got == brute_force_rays(rows, n)
            assert got == reference_extreme_rays_nonneg(rows, n)
            assert all(type(x) is int for ray in got for x in ray)

    def test_census_tracks_agree_with_the_dense_reference(self):
        # both tracks of the 64 census shears of t2, pillow and octagon
        tracks = census_tracks()
        assert len(tracks) == 384
        curves = 0
        for key, track in tracks.items():
            got = vertex_curves(track)
            assert got == reference_extreme_rays_nonneg(track.switch_matrix(), len(track.branches)), key
            curves += len(got)
        assert curves == 1084


def _sparse(rows):
    return [[(i, a) for i, a in enumerate(row) if a] for row in rows]


def _on_support(rows, r):
    """The columns of rows on the support of r."""
    return [[row[i] for i, x in enumerate(r) if x] for row in rows]


def _count_exact_ranks(monkeypatch) -> list:
    calls = []
    original = _exact.rank
    monkeypatch.setattr(_exact, "rank", lambda a: calls.append(a) or original(a))
    return calls


class TestExtremalityCertificate:
    """_exact.spans_kernel: A r = 0, then the rank of A on the support S of r
    mod 2, and the exact rank only when that falls short of |S| - 1."""

    def test_sums_of_two_vertex_curves_are_rejected_by_the_exact_rank(self, monkeypatch):
        # a sum of two vertex curves is a kernel vector that is not extreme:
        # its rank mod 2 falls short, so the mod-2 path cannot accept it,
        # and the exact rank, taken once, rejects it
        calls = _count_exact_ranks(monkeypatch)
        sums = 0
        for build in (t2, gold, pillow, octagon):
            for direction in ("vertical", "horizontal"):
                track, _ = dual_track(build(), direction)
                rows = track.switch_matrix()
                for u, v in itertools.combinations(vertex_curves(track), 2):
                    w = tuple(a + b for a, b in zip(u, v))
                    size = len(w) - w.count(0)
                    on_support = _on_support(rows, w)
                    assert rank_mod2(on_support) < size - 1
                    assert len(rref(on_support)[1]) < size - 1
                    before = len(calls)
                    assert not _exact.spans_kernel(_sparse(rows), w)
                    assert len(calls) == before + 1
                    sums += 1
        assert sums >= 18

    def test_vectors_off_the_kernel_are_rejected_before_any_rank(self, monkeypatch):
        # a vertex curve plus one branch whose column is not zero (a branch
        # large and small at the same switch has a zero column)
        systems = []
        for build in (t2, gold, pillow, octagon):
            track, _ = dual_track(build())
            systems.append((track.switch_matrix(), vertex_curves(track)))
        calls = _count_exact_ranks(monkeypatch)
        bumps = 0
        for rows, curves in systems:
            for r in curves:
                for i in range(len(r)):
                    if any(row[i] for row in rows):
                        bumped = tuple(x + (j == i) for j, x in enumerate(r))
                        assert not _exact.spans_kernel(_sparse(rows), bumped)
                        bumps += 1
        assert calls == [] and bumps

    def test_exact_rank_runs_only_where_the_mod2_rank_falls_short(self, monkeypatch):
        calls = _count_exact_ranks(monkeypatch)
        short = 0
        for track in census_tracks().values():
            rows = track.switch_matrix()
            for r in vertex_curves(track):
                short += rank_mod2(_on_support(rows, r)) < len(r) - r.count(0) - 1
        # the census has vertex curves on both paths
        assert len(calls) == short > 0


class TestFilling:
    def test_full_support_fills(self):
        track, _ = dual_track(gold())
        assert is_filling_subtrack(track, track.branches)

    def test_builds_one_occurrence_index(self, monkeypatch):
        calls = []
        original = traintrack.edge_occurrences
        monkeypatch.setattr(traintrack, "edge_occurrences", lambda tris: calls.append(tris) or original(tris))
        track, _ = dual_track(gold())
        assert is_filling_subtrack(track, track.branches)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "support, message", [((), "empty support"), (("e1", "zz"), r"unknown branches \['zz'\]")]
    )
    def test_a_support_off_the_track_is_refused(self, support, message):
        track, _ = dual_track(gold())
        with pytest.raises(VeertrackError, match=message):
            is_filling_subtrack(track, support)

    def test_single_branch_does_not_fill(self):
        track, _ = dual_track(octagon())
        assert not is_filling_subtrack(track, (track.branches[0],))

    @staticmethod
    def _check_every_support(track, outcomes: Counter):
        """is_filling_subtrack agrees with the Euler-count reference on every
        nonempty support of track; outcomes counts (fills, support is full)."""
        for k in range(1, len(track.branches) + 1):
            for support in itertools.combinations(track.branches, k):
                fills = is_filling_subtrack(track, support)
                assert fills == reference_is_filling(track, support), (track, support)
                outcomes[fills, k == len(track.branches)] += 1

    def test_every_support_agrees_with_the_euler_count(self):
        # both tracks of each fixture and of a valid sheared and a scrambled
        # copy
        rng = random.Random(23)
        outcomes = Counter()
        for build in (t2, gold, pillow, octagon):
            base = build()
            sheared = sheared_surface(base, rng)
            while not validate(sheared).passed:
                sheared = sheared_surface(base, rng)
            for s in (base, sheared, scramble(base, rng)):
                for direction in ("vertical", "horizontal"):
                    self._check_every_support(dual_track(s, direction)[0], outcomes)
        assert outcomes[True, True] == 24 and outcomes[False, False]

    def test_every_slot_choice_on_the_pillow_agrees_with_the_euler_count(self):
        # a geometric track above fills only on its full support; the
        # pillow's four regions under every choice of large slots also hold
        # unmarked ones, so proper supports fill as well
        triangles = pillow().triangles
        outcomes = Counter()
        for slots in itertools.product(range(3), repeat=len(triangles)):
            self._check_every_support(TrainTrack("vertical", triangles, slots, track_branches(triangles)), outcomes)
        assert outcomes[True, False] and outcomes[False, False]


class TestSplit:
    def test_split_follows_measure(self):
        track, mu = dual_track(t2())
        # e2 is the thinner of e1's two partners, so the left split makes it lose
        assert mu.transverse["e2"] < mu.transverse["e3"]
        after, losers, winners = split_with_direction(track, "e1", "L")
        assert set(losers) == {"e2"}
        assert set(after.branches) == set(track.branches)
        assert after.triangles == (
            (("e3", 1), ("e2", -1), ("e1", -1)),
            (("e3", -1), ("e2", 1), ("e1", 1)),
        )
        assert after.large_slots == (0, 0)

    @pytest.mark.parametrize("name", sorted(SLOPE_TORI))
    def test_split_matches_the_flip_along_the_flow(self, name):
        # the combinatorial split of each event's branch must give the track
        # of the flipped surface, with the losers and winners of the event
        traj = run_flow(SLOPE_TORI[name](), 12.0)
        assert traj.events
        states = traj.states()
        for ev, before, after in zip(traj.events, states, states[1:]):
            split, losers, winners = split_with_direction(dual_track(before)[0], ev.edge, ev.direction)
            flipped, _ = dual_track(after)
            assert split.triangles == flipped.triangles
            assert split.large_slots == flipped.large_slots
            assert tuple(sorted(losers)) == ev.losers
            assert tuple(sorted(winners)) == ev.winners

    def test_split_directions_differ(self):
        track, _ = dual_track(t2())
        left, ll, _ = split_with_direction(track, "e1", "L")
        right, rl, _ = split_with_direction(track, "e1", "R")
        assert set(ll) != set(rl)
        assert left.switches() != right.switches()
