"""The two derived-data caches of Surface: copies that differ in lam alone
share the geometric one, copies with the same triangles share the
combinatorial one (Surface.comb), every triangulation that flips reach from
one start is one object per triangles tuple, and no cached value differs
from one computed on a fresh surface or by the pure builders."""

import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import veertrack.flow as flow
import veertrack.lab as lab
import veertrack.surface as surface
from veertrack.delaunay import build_quad, delaunay_violations, flip, quad
from veertrack.errors import DegeneracyError
from veertrack.fixtures import gold, octagon, pillow, slope_torus, t2
from veertrack.flow import run_flow
from veertrack.surface import Surface, corner_classes, edge_occurrences, exchange_diagonal, quad_sides
from veertrack.traintrack import split_roles


def _slope(n):
    return slope_torus((n + math.sqrt(n * n + 4)) / 2)


STARTS = {"gold": gold, **{f"x_{n}": (lambda n=n: _slope(n)) for n in range(1, 9)}}


def _outcome(get, s, e):
    """get(s, e), or the message of the DegeneracyError it raises."""
    try:
        return get(s, e)
    except DegeneracyError as exc:
        return str(exc)


def assert_comb_coherent(s: Surface):
    """Every value that the combinatorial cache of s keeps equals the pure
    builder's, and the cache is the one its table holds for its triangles."""
    comb = s.comb
    assert comb.triangles is s.triangles
    # a triangulation that has not flipped yet may have no table
    assert comb._table is None or comb._table[s.triangles] is comb
    occ = edge_occurrences(s.triangles)
    assert s.occurrences() == occ
    for e, sides in comb._sides.items():
        assert sides == quad_sides(s.triangles, occ, e)
    for e, nxt in comb._flips.items():
        t1, t2, sides = quad_sides(s.triangles, occ, e)
        assert nxt.triangles == exchange_diagonal(s.triangles, e, t1, t2, sides)
        assert nxt._table is comb._table
    for key, value in comb._derived.items():
        if key == "vertex_classes":
            assert value == corner_classes(s.triangles, occ)
            continue
        e, direction = key
        losers, winners = split_roles(quad_sides(s.triangles, occ, e)[2], direction)
        assert value == (tuple(sorted(losers)), tuple(sorted(winners)))


def assert_coherent(s: Surface):
    """Every cached value of s equals one computed on a fresh surface."""
    assert_comb_coherent(s)
    fresh = Surface(s.triangles, s.periods, s.mode, s.lam)
    # the quadrilaterals kept so far, before the loop below builds the rest
    for e, q in s._derived.get("quads", {}).items():
        assert q == build_quad(fresh, e)
    assert s.vertex_classes() == fresh.vertex_classes()
    for e in s.edges:
        assert _outcome(quad, s, e) == _outcome(build_quad, fresh, e)
    if "split_candidates" in s._derived:
        assert s._derived["split_candidates"] == flow._large_in_both(fresh)
    if "height_directions" in s._derived:
        edges, basis, tol, grad, norm, idx = s._derived["height_directions"]
        edges2, basis2, tol2, grad2, norm2, idx2 = lab._height_directions(fresh)
        assert (edges, tol, norm, idx) == (edges2, tol2, norm2, idx2)
        assert np.array_equal(basis, basis2) and np.array_equal(grad, grad2)


@pytest.mark.parametrize("verify", ["debug", "off"])
@pytest.mark.parametrize("name", list(STARTS))
def test_flow_states_are_coherent(name, verify):
    traj = run_flow(STARTS[name](), 12.0, verify=verify)
    assert traj.events
    for s in traj.states():
        assert_coherent(s)


def test_flow_word_states_are_coherent(monkeypatch):
    seen = []

    def recording(s, e, lam):
        flipped = flip(s, e, lam)
        seen.extend((s, flipped))
        return flipped

    replay = lab._flow_word

    def recording_replay(s, word_sig):
        # flow's flip is recorded during the replay alone, not the search
        with monkeypatch.context() as m:
            m.setattr(flow, "flip", recording)
            return replay(s, word_sig)

    monkeypatch.setattr(lab, "_flow_word", recording_replay)
    for start in STARTS.values():
        seen.clear()
        result = lab.closing_search(start())
        assert result.converged
        # the replay flips once per event of the word
        assert len(seen) == 2 * len(result.word)
        for s in seen:
            assert_coherent(s)


def _warm(s: Surface) -> Surface:
    s.vertex_classes()
    for e in s.edges:
        quad(s, e)
    return s


def test_lam_only_copies_share_the_cache():
    s = _warm(gold())
    copy = s.replace(lam=s.lam * 3)
    assert copy.occurrences() is s.occurrences()
    assert copy.vertex_classes() is s.vertex_classes()
    assert all(quad(copy, e) is quad(s, e) for e in s.edges)


def test_flip_leaves_its_parent_as_it_was():
    s = _warm(gold())
    flipped = flip(s, "e1", s.lam)
    assert_coherent(s)
    assert_coherent(flipped)


@pytest.mark.parametrize(
    "change",
    [
        lambda s: {"periods": {e: (p.w, 2 * p.h) for e, p in s.periods.items()}},
        lambda s: {"triangles": s.triangles[::-1]},
        lambda s: {"triangles": tuple(tri[1:] + tri[:1] for tri in s.triangles)},
    ],
    ids=["periods", "triangle-order", "rotated-slots"],
)
def test_new_triangles_or_periods_inherit_no_cache(change):
    s = _warm(gold())
    moved = s.replace(**change(s))
    if moved.triangles == s.triangles:
        # new periods on the same triangles: the combinatorial cache alone
        assert moved.occurrences() is s.occurrences()
        assert "quads" not in moved._derived
    else:
        assert moved.occurrences() is not s.occurrences()
    assert_coherent(moved)


def test_contraction_trials_share_one_closure_basis(monkeypatch):
    calls = []
    basis = lab._closure_basis

    def counting(s):
        calls.append(s)
        return basis(s)

    monkeypatch.setattr(lab, "_closure_basis", counting)
    fit = lab.contraction_experiment(_slope(1), 4.0, trials=6, seed=2)
    assert len(fit.log_ratios) + fit.dropped == 6
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["gold", "x_1", "x_3"])
def test_perturbation_is_the_same_on_a_warm_and_a_fresh_surface(name):
    s = STARTS[name]()
    warm = lab.perturb_heights(s, random.Random(4), 1e-3)
    again = lab.perturb_heights(s, random.Random(4), 1e-3)
    fresh = lab.perturb_heights(Surface(s.triangles, s.periods, s.mode), random.Random(4), 1e-3)
    assert "height_directions" in s._derived
    assert warm.periods == again.periods == fresh.periods
    assert_coherent(s)


def _axis_parallel_diagonal():
    """t2 with e1's other diagonal e3 - e2 vertical: e1 is flippable, and
    flipping it would make an axis-parallel edge."""
    periods = {
        "e1": (1, Fraction(3, 10)),
        "e2": (Fraction(-1, 2), 1),
        "e3": (Fraction(-1, 2), Fraction(-13, 10)),
    }
    return t2().replace(periods=periods)


@pytest.mark.parametrize("first", ["e1", "e2", "e3"])
def test_axis_parallel_diagonal_raises_on_its_own_edge_alone(first):
    s = _axis_parallel_diagonal()
    message = "edge e1: new diagonal is axis-parallel"
    # whichever edge is asked first, the error stays with e1
    assert _outcome(quad, s, first) == _outcome(build_quad, Surface(s.triangles, s.periods, s.mode), first)
    for _ in range(2):
        with pytest.raises(DegeneracyError) as exc:
            quad(s, "e1")
        assert str(exc.value) == message
    # an edge whose build raised is not kept, so quad raises again
    assert "e1" not in s._derived["quads"]
    for e in ("e2", "e3"):
        fresh = Surface(s.triangles, s.periods, s.mode)
        assert quad(s, e) == build_quad(fresh, e)
        assert quad(s, e).flippable
    with pytest.raises(DegeneracyError, match=message):
        delaunay_violations(s)
    assert_coherent(s)


def _counting(monkeypatch, module, name, counts: Counter):
    real = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def _count_builders(monkeypatch) -> Counter:
    """Count the calls of the pure combinatorial builders behind the
    combinatorial cache until monkeypatch undoes it."""
    counts = Counter()
    for name in ("edge_occurrences", "quad_sides", "exchange_diagonal"):
        _counting(monkeypatch, surface, name, counts)
    _counting(monkeypatch, flow, "split_roles", counts)
    return counts


@pytest.mark.parametrize("verify", ["debug", "off"])
@pytest.mark.parametrize("n", range(1, 9))
def test_flow_indexes_each_distinct_triangulation_once(monkeypatch, n, verify):
    start = _slope(n)
    counts = _count_builders(monkeypatch)
    traj = run_flow(start, 16.0, verify=verify)
    distinct = {x.triangles for x in traj.states()}
    assert len(distinct) < len(traj.states())
    assert counts["edge_occurrences"] == len(distinct)
    # a recurring triangulation is one object
    combs = {x.triangles: x.comb for x in traj.states()}
    assert all(x.comb is combs[x.triangles] for x in traj.states())


@pytest.mark.parametrize("build", [t2, pillow, octagon])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_validate_indexes_the_triangles_once(monkeypatch, build, mode):
    # the vertex classes read the index the combinatorial cache holds
    s = build(mode)
    counts = _count_builders(monkeypatch)
    assert surface.validate(s).passed
    assert counts["edge_occurrences"] == 1


def test_contraction_trials_build_no_combinatorics(monkeypatch):
    flows, counts, replays = [], [], []
    real_flow, real_replay = lab.run_flow, lab._replay

    def recording(s, T, **kwargs):
        with monkeypatch.context() as m:
            counted = _count_builders(m)
            flows.append(real_flow(s, T, **kwargs))
        counts.append(counted)
        return flows[-1]

    def recording_replay(sp, events, cands, lam_end):
        with monkeypatch.context() as m:
            counted = _count_builders(m)
            replays.append(real_replay(sp, events, cands, lam_end))
        counts.append(counted)
        return replays[-1]

    monkeypatch.setattr(lab, "run_flow", recording)
    monkeypatch.setattr(lab, "_replay", recording_replay)
    x = (2 + math.sqrt(8)) / 2
    # four periods of x_2, whose period is 2 log x
    fit = lab.contraction_experiment(_slope(2), 8 * math.log(x), checkpoints=4, trials=6, seed=1)
    assert len(fit.log_ratios) == 6
    # the base flow alone: the trials replay it
    assert len(flows) == 1 and len(replays) == 6
    # the base flow builds what its triangulations need, and the replays,
    # which follow its word, find all of it kept
    assert counts[0]["edge_occurrences"] > 0
    assert counts[1:] == [Counter()] * 6
    for s in flows[0].states():
        assert_coherent(s)
    for periods, thresholds in replays:
        assert len(periods) == len(thresholds) + 1 == len(flows[0].states())


def test_tables_are_freed_with_their_surfaces():
    traj = run_flow(_slope(3), 16.0)
    table = traj.start.comb._table
    assert len(table) > 1
    refs = [weakref.ref(comb) for comb in table.values()]
    del traj, table
    gc.collect()
    assert all(ref() is None for ref in refs)
