"""Desk-scale experiments: strong-stable contraction, Hilbert diameter decay
along a splitting sequence, and the closing lemma.

The experiments run in float mode (surface.rebase converts an exact input)
and are driven by the event simulation in flow.py; randomness is seeded
explicitly so runs are reproducible.  The closing lemma takes a periodic
orbit from the eigenvectors of its word's integer period matrix and
certifies it by one replay of the word.
"""

from __future__ import annotations

import math
import random
import sys
from typing import NamedTuple

import numpy as np

from .cones import compose_word, eigenpairs, image_diameter
from .delaunay import delaunay_violations, develop, greedy_delaunay, quad
from .errors import DegeneracyError, VeertrackError
from .flow import MAX_EVENTS, Trajectory, detect_periodicity, earliest_split, lam_after, next_split, run_flow
from .flow import split_candidates
from .surface import Period, Surface, area, rebase


# ---------------------------------------------------------------------------
# strong-stable contraction


class ContractionFit(NamedTuple):
    times: tuple[float, ...]
    log_ratios: tuple[tuple[float, ...], ...]  # one tuple per kept trial
    alpha: float  # fitted decay exponent: d(T) ~ c_hat * d(0) * exp(-alpha T)
    c_hat: float
    r_squared: float
    dropped: int


def _closure_basis(s: Surface) -> tuple[tuple[str, ...], np.ndarray, float]:
    """Orthonormal basis of the per-edge perturbations that keep every
    triangle closed (one copy acts on widths, one on heights), with the
    singular-value tolerance that cut it."""
    edges = tuple(sorted(s.edges))
    idx = {e: i for i, e in enumerate(edges)}
    rows = []
    for tri in s.triangles:
        row = [0.0] * len(edges)
        for e, sg in tri:
            row[idx[e]] += float(sg)
        rows.append(row)
    a = np.array(rows)
    _, sv, vt = np.linalg.svd(a)
    tol = 1e-9 * max(1.0, sv.max() if len(sv) else 1.0)
    return edges, vt[sum(sv > tol):], tol


def _height_directions(s: Surface) -> tuple[tuple[str, ...], np.ndarray, float, np.ndarray, float, dict]:
    """(edges, closure basis, its tolerance, gradient of the area along each
    basis direction, the gradient's norm, edge -> index in edges) for
    perturb_heights; pure in the triangles and periods of s.

    Area is bilinear in (w, h): a triangle with first sides (e, s_e) and
    (f, s_f) has twice its area s_e*s_f*(w_e*h_f - h_e*w_f), so the height
    gradient is an exact linear map of the widths.  Along closed directions
    any two sides of a triangle give the same area."""
    edges, closure_null, tol = _closure_basis(s)
    idx = {e: i for i, e in enumerate(edges)}
    dh = np.zeros(len(edges))
    for tri in s.triangles:
        (e, s_e), (f, s_f) = tri[0], tri[1]
        sg = s_e * s_f / 2
        dh[idx[e]] -= sg * float(s.periods[f].w)
        dh[idx[f]] += sg * float(s.periods[e].w)
    grad = closure_null @ dh
    return edges, closure_null, tol, grad, np.linalg.norm(grad), idx


def perturb_heights(s: Surface, rng: random.Random, delta: float) -> Surface:
    """s with its imaginary parts moved by delta along a random unit
    direction that keeps every triangle closed and preserves the total area
    to first order.

    The closure space is never 0: every edge has two sides, so 2E = 3F, and
    the F closure rows leave at least E - F = F/2 >= 1 kernel rows."""
    edges, closure_null, tol, grad, gn, idx = s.cached("height_directions", _height_directions)
    coeffs = np.array([rng.gauss(0, 1) for _ in range(closure_null.shape[0])])
    if gn > tol:
        coeffs = coeffs - (coeffs @ grad) / gn**2 * grad
    if np.linalg.norm(coeffs) < 1e-12:
        raise DegeneracyError("no admissible height perturbation: area constraint is everything")
    u = coeffs @ closure_null
    u = u / np.linalg.norm(u)
    return s.replace(
        periods={e: (s.periods[e].w, s.periods[e].h + delta * float(u[idx[e]])) for e in edges}
    )


# A checkpoint distance below this many roundoff units (the distance that
# one unit in the last place of the largest flowed height makes) is about
# the size of the rounding the flips leave in the heights, and the fit reads
# that noise as a decay rate: gold at time 2 keeps 5.2 units or more at
# delta 1e-13 and fits alpha 2.002, but falls to 1.6 units at delta 3e-14
# and fits 1.87 (the rate is 2).
ROUNDOFF_FLOOR = 4.0


def _stable_distance(f1: dict, f2: dict) -> float:
    """Relative height separation ||delta h_eff|| / ||w_eff|| of two
    surfaces sharing widths and combinatorics, given as their
    Surface.flowed_periods."""
    dh, wn = 0.0, 0.0
    for e in sorted(f1):  # summed in label order
        w1, h1 = f1[e]
        dh += (h1 - f2[e][1]) ** 2
        wn += w1**2
    return math.sqrt(dh) / math.sqrt(wn)


def _roundoff_unit(f: dict) -> float:
    """The separation _stable_distance reads from the flowed periods f when
    one height moves by one unit in the last place of the largest flowed
    height: eps * max |h_eff| / ||w_eff||."""
    flowed = [f[e] for e in sorted(f)]
    top = max(abs(h) for _, h in flowed)
    return sys.float_info.epsilon * top / math.sqrt(sum(w * w for w, _ in flowed))


def contraction_experiment(
    s: Surface,
    total_t: float,
    checkpoints: int = 8,
    trials: int = 6,
    delta: float = 1e-4,
    seed: int = 0,
) -> ContractionFit:
    """Flow perturbed copies of s and fit the decay rate of their distance.

    Each trial perturbs the heights of s in a random admissible direction of
    norm delta, flows both surfaces for total_t, and measures the relative
    height separation at evenly spaced checkpoint times.  Trials whose two
    trajectories disagree combinatorially are dropped; a checkpoint distance
    under ROUNDOFF_FLOOR roundoff units is an error.

    A trial moves the heights alone, so it starts on the strong stable leaf
    of s: the same vertical foliation, the same widths.  The flow scales
    the widths of both by one factor, and a split's new width is a sum of
    widths, so as long as the trial splits where s does its widths stay
    those of s, bit for bit, and the two flows converge along the leaf.
    Each trial therefore replays the base trajectory (_replay) instead of
    flowing from scratch: the candidates of each split, which read the
    triangles and widths alone, are the base's, and only their heights are
    tested again.
    """
    for name, value in (("time", total_t), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise VeertrackError(f"{name} must be finite and positive, not {value}")
    for name, value in (("checkpoints", checkpoints), ("trials", trials)):
        if not value >= 1:
            raise VeertrackError(f"{name} must be at least 1, not {value}")
    s, _ = greedy_delaunay(rebase(s))
    times = tuple(total_t * (k + 1) / checkpoints for k in range(checkpoints))
    base = run_flow(s, total_t, verify="off")
    states = base.states()
    # each state's split candidates, which the base flow found, with their
    # quad_sides, read once for all trials
    cands = [[(e, *x.comb.sides(e)) for e in split_candidates(x)] for x in states]
    lam0 = float(s.lam)
    lam_end = lam_after(lam0, total_t)
    lams = [lam_after(lam0, t) for t in times]
    at = _state_indices([float(ev.threshold) for ev in base.events], lams)
    # each flowed once: every kept trial compares its own flow with these
    start_flowed = s.flowed_periods()
    base_flowed = [states[k].replace(lam=lam).flowed_periods() for k, lam in zip(at, lams)]
    units = [_roundoff_unit(f) for f in base_flowed]

    def one_trial(i: int):
        sp = perturb_heights(s, random.Random(f"{seed}:{i}"), delta)
        got = _replay(sp, base.events, cands, lam_end)
        if got is None:
            return None
        periods, thresholds = got
        # the same word can still put an event on the other side of a
        # checkpoint, which then sits in another chart
        at_p = _state_indices(thresholds, lams)
        if any(states[k].triangles != states[j].triangles for k, j in zip(at, at_p)):
            return None
        d0 = _stable_distance(start_flowed, sp.flowed_periods())
        if d0 == 0:
            raise VeertrackError(f"delta {delta} does not move the heights at float precision")
        pert_flowed = (
            Surface._normalised(states[j].comb, periods[j], sp.num, lam, {}).flowed_periods()
            for j, lam in zip(at_p, lams)
        )
        dists = [_stable_distance(f, p) for f, p in zip(base_flowed, pert_flowed)]
        k = min(range(checkpoints), key=lambda k: dists[k] / units[k])
        if dists[k] == 0:
            raise VeertrackError(f"delta {delta} is too small: the distance at time {times[k]} rounds to 0")
        if dists[k] < ROUNDOFF_FLOOR * units[k]:
            raise VeertrackError(
                f"delta {delta} is too small: the distance at time {times[k]} is "
                f"{dists[k] / units[k]:.3g} roundoff units of the heights, below {ROUNDOFF_FLOOR:g}"
            )
        return tuple(math.log(d / d0) for d in dists)

    results = [one_trial(i) for i in range(trials)]
    kept = [row for row in results if row is not None]
    dropped = sum(1 for row in results if row is None)
    if not kept:
        raise VeertrackError("every trial was dropped: no combinatorially shadowing pair")
    xs = np.array([t for row in kept for t in times])
    ys = np.array([v for row in kept for v in row])
    # polyfit divides the times by their norm, whose square underflows to 0
    # for a time below about 1e-161
    if not np.sum(xs * xs) > 0:
        raise VeertrackError(f"time {total_t} is too short to fit a decay rate")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ContractionFit(times, tuple(kept), -float(slope), math.exp(float(intercept)), r2, dropped)


def _replay(sp: Surface, events: list, cands: list, lam_end: float):
    """(periods, thresholds): the periods of sp at each state of
    run_flow(sp, T) without its probes between events, and its event
    thresholds, when that flow, whose end lam is lam_end, makes the given
    events; None when it makes others or raises.  The events are those of
    the base flow from the triangles and widths of sp over the same T, and
    cands holds, per state of the base flow, its split_candidates as
    (edge, t1, t2, sides).

    While sp makes the base's events its widths are the base's bit for bit
    (a flip's new width is a sum of widths), so its split candidates at each
    state are the base's.  The rest of what its flow runs is run here: the
    start certificate, develop's axis-parallel test on each candidate,
    earliest_split, the split past lam_end that ends the flow, and the
    MAX_EVENTS stop."""
    try:
        if delaunay_violations(sp):
            return None
        num, lam, periods = sp.num, sp.lam, sp.periods
        out, thresholds = [periods], []
        # the last state has no event of the base: a split there must end the flow
        for here, ev in zip(cands, events + [None]):
            got = earliest_split(num, lam, [develop(num, periods, *c) for c in here], periods)
            if got is None or not got[0] <= lam_end:
                return (out, thresholds) if ev is None else None
            lam, q, direction = got
            if ev is None or (q.edge, direction) != (ev.edge, ev.direction):
                return None
            periods = dict(periods)
            periods[q.edge] = Period._make(q.diagonal)
            out.append(periods)
            thresholds.append(lam)
            if len(thresholds) >= MAX_EVENTS:
                return out, thresholds
    except (DegeneracyError, VeertrackError):
        return None


def _state_indices(thresholds, lams) -> list[int]:
    """The index of the state current at each of the nondecreasing lams,
    the count of the nondecreasing event thresholds at or below it, from
    one walk."""
    out, k = [], 0
    for lam in lams:
        while k < len(thresholds) and thresholds[k] <= lam:
            k += 1
        out.append(k)
    return out


# ---------------------------------------------------------------------------
# Hilbert diameter decay


class DiameterTrace(NamedTuple):
    event_times: tuple[float, ...]
    diameters: tuple[float, ...]


def hilbert_contraction_experiment(traj: Trajectory) -> DiameterTrace:
    """Hilbert diameter of the image of the positive tangential cone under
    the growing word, evaluated after each event.

    The product is divided by its largest entry after each step: the Hilbert
    diameter ignores scaling, and unscaled entries overflow on long words."""
    branches = tuple(sorted(traj.start.edges))
    n = len(branches)
    composed = np.eye(n)
    times, diams = [], []
    for ev in traj.events:
        m = np.array(compose_word((ev,), branches).tangential, dtype=float)
        composed = m @ composed
        composed = composed / np.abs(composed).max()
        times.append(ev.t)
        diams.append(image_diameter(composed))
    return DiameterTrace(tuple(times), tuple(diams))


# ---------------------------------------------------------------------------
# closing-lemma search


class ClosingResult(NamedTuple):
    surface: Surface  # fixed point, unit area, anchored at its event moment
    period_t: float
    lam_w: float
    word: tuple  # (edge, direction) pairs
    matrix: tuple  # the word's period matrix R, as period_matrix gives it
    residual: float  # recurrence defect of the fixed point
    converged: bool


def period_matrix(quads, relabel: dict) -> tuple[tuple[int, ...], ...]:
    """The signed period matrix R of a periodic word, rows and columns over
    the sorted edges, read from the word's Quads, each on the surface before
    its flip: flipping e gives it the period b + c of its sides, so every
    period is a fixed integer combination of the first surface's.  relabel
    (e -> (e', sign), as detect_periodicity gives it) reads the last chart
    in the first.  R applied to the widths, or to the heights, of the first
    surface gives those of its return along the word, before the flow
    scales them."""
    edges = sorted(relabel)
    rows = {e: tuple(int(e == f) for f in edges) for e in edges}
    for q in quads:
        (b, sg_b), (c, sg_c) = q.sides[1], q.sides[2]
        rows[q.edge] = tuple(sg_b * x + sg_c * y for x, y in zip(rows[b], rows[c]))
    return tuple(tuple(relabel[e][1] * x for x in rows[relabel[e][0]]) for e in edges)


def _pin_moment(x: Surface, edge: str) -> Surface:
    """x with its heights scaled so that the rectangle of edge is a square,
    |h(edge)| = |w| of its other diagonal, which is the moment edge split;
    then scaled to unit area."""
    hs = abs(quad(x, edge).diagonal[0] / x.periods[edge].h)
    try:
        f = 1.0 / math.sqrt(hs * float(area(x)))
    except ArithmeticError as exc:
        raise VeertrackError(f"the eigenvectors do not make a surface: {exc}") from exc
    return x.replace(periods={e: (f * p.w, f * hs * p.h) for e, p in x.periods.items()})


def _flow_word(s: Surface, word_sig: list[tuple[str, str]]) -> Surface:
    """Flow s, which sits at a split moment, through exactly the given
    (edge, direction) event sequence, with run_flow's debug certificate
    check.  Returns the surface at its last event moment."""
    # probe a hair past the split moment so the just-performed flip does not
    # resurface through rounding, then start the flow halfway to the next split
    first = next_split(s.replace(lam=float(s.lam) * (1 + 1e-9)))
    if first is None:
        raise VeertrackError("trajectory left the combinatorial neighborhood of the word")
    start = s.replace(lam=(float(s.lam) + float(first.threshold)) / 2)
    traj = run_flow(start, math.inf, max_events=len(word_sig))
    if [(ev.edge, ev.direction) for ev in traj.events] != list(word_sig):
        raise VeertrackError("trajectory left the combinatorial neighborhood of the word")
    return traj.surfaces[-1]


def closing_search(s: Surface, search_t: float = 5.0) -> ClosingResult:
    """Find the periodic orbit shadowed by the flow trajectory of s.

    The certified flow of s stops at its first approximate combinatorial
    recurrence (detect_periodicity).  Along its word every flip is linear in
    the periods, so the return acts on widths and on heights by one integer
    matrix R (period_matrix) and then the flow scales them: the periodic orbit's
    widths are the eigenvector of R for 1/lambda and its heights the one for
    lambda.  The heights are scaled so that the word's last split happens at
    the point, which anchors it at that event moment, and the point is
    scaled to unit area.  One certified replay of the word from the point
    checks that it follows the word and measures its recurrence defect.
    """
    if not (math.isfinite(search_t) and search_t > 0):
        raise VeertrackError(f"time must be finite and positive, not {search_t}")
    s, _ = greedy_delaunay(rebase(s))
    traj, match = detect_periodicity(s, search_t, rel_tol=0.1)
    if match is None:
        raise VeertrackError("no approximate recurrence within the search window")
    word_sig = [(ev.edge, ev.direction) for ev in match.word]
    near = rebase(traj.states()[match.m])
    edges = near.edges
    quads = [quad(x, ev.edge) for x, ev in zip(traj.states()[match.m:match.m2], match.word)]
    r = period_matrix(quads, match.relabel)
    (_, w), (_, h) = eigenpairs(r, 1 / match.lam_w, match.lam_w)
    # each scaled onto the near point's widths or heights by least squares
    w0 = np.array([near.periods[e].w for e in edges])
    h0 = np.array([near.periods[e].h for e in edges])
    w, h = w * (w @ w0) / (w @ w), h * (h @ h0) / (h @ h)
    # the edge that relabel carries to the word's last edge
    last = next(e for e, (e2, _) in match.relabel.items() if e2 == word_sig[-1][0])
    x = _pin_moment(near.replace(periods={e: (w[i], h[i]) for i, e in enumerate(edges)}), last)
    raw = _flow_word(x, word_sig)
    back = rebase(raw).periods
    residual = max(
        max(abs(sg * back[e2].w - x.periods[e].w), abs(sg * back[e2].h - x.periods[e].h))
        for e, (e2, sg) in match.relabel.items()
    ) / max(abs(p.w) for p in x.periods.values())
    lam_ratio = float(raw.lam) / float(x.lam)
    return ClosingResult(
        x,
        0.5 * math.log(lam_ratio),
        math.sqrt(lam_ratio),
        tuple(word_sig),
        r,
        residual,
        residual < 1e-10,
    )
