"""The derived-data cache of Surface: copies that differ in lam alone share
it, and no cached value differs from one computed on a fresh surface."""

import math

import pytest

import veertrack.lab as lab
from veertrack.delaunay import build_quad, flip, other_diagonal, quad
from veertrack.errors import DegeneracyError
from veertrack.fixtures import gold, slope_torus
from veertrack.flow import run_flow
from veertrack.surface import Surface, edge_occurrences


def _slope(n):
    return slope_torus((n + math.sqrt(n * n + 4)) / 2)


STARTS = {"gold": gold, **{f"x_{n}": (lambda n=n: _slope(n)) for n in range(1, 9)}}


def _diagonal(s, e):
    try:
        return other_diagonal(s, e)
    except DegeneracyError as exc:
        return str(exc)


def assert_coherent(s: Surface):
    """Every cached value of s equals one computed on a fresh surface."""
    assert s.occurrences() == edge_occurrences(s.triangles)
    fresh = Surface(s.triangles, s.periods, s.mode, s.lam)
    assert s.vertex_classes() == fresh.vertex_classes()
    for e in s.edges:
        assert quad(s, e) == build_quad(fresh, e)
        assert _diagonal(s, e) == _diagonal(fresh, e)


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

    monkeypatch.setattr(lab, "flip", recording)
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
        other_diagonal(s, e)
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
