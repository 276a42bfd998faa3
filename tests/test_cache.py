"""The derived-data cache of Surface: copies that differ in lam alone share
it, and no cached value differs from one computed on a fresh surface."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import veertrack.flow as flow
import veertrack.lab as lab
from veertrack.delaunay import build_quad, delaunay_violations, flip, quad
from veertrack.errors import DegeneracyError
from veertrack.fixtures import gold, slope_torus, t2
from veertrack.flow import run_flow
from veertrack.surface import Surface, edge_occurrences


def _slope(n):
    return slope_torus((n + math.sqrt(n * n + 4)) / 2)


STARTS = {"gold": gold, **{f"x_{n}": (lambda n=n: _slope(n)) for n in range(1, 9)}}


def _outcome(get, s, e):
    """get(s, e), or the message of the DegeneracyError it raises."""
    try:
        return get(s, e)
    except DegeneracyError as exc:
        return str(exc)


def assert_coherent(s: Surface):
    """Every cached value of s equals one computed on a fresh surface."""
    assert s.occurrences() == edge_occurrences(s.triangles)
    fresh = Surface(s.triangles, s.periods, s.mode, s.lam)
    # the quadrilaterals kept so far, before the loop below builds the rest
    for e, q in s._derived.get("quads", {}).items():
        assert q == build_quad(fresh, e)
    assert s.vertex_classes() == fresh.vertex_classes()
    for e in s.edges:
        assert _outcome(quad, s, e) == _outcome(build_quad, fresh, e)
    if "height_directions" in s._derived:
        edges, basis, tol, grad = s._derived["height_directions"]
        edges2, basis2, tol2, grad2 = lab._height_directions(fresh)
        assert (edges, tol) == (edges2, tol2)
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

    def recording(s, e):
        flipped, rec = flip(s, e)
        seen.extend((s, flipped))
        return flipped, rec

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
    flipped, _ = flip(s, "e1")
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
