"""Desk-scale experiments: strong-stable contraction, Hilbert diameter decay
along a splitting sequence, and a closing-lemma fixed-point search.

All experiments run in float mode and are driven by the event simulation in
flow.py; randomness is seeded explicitly so runs are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .cones import image_diameter, orthant, split_transition
from .delaunay import flip, greedy_delaunay
from .errors import DegeneracyError, VeertrackError
from .flow import Trajectory, detect_periodicity, next_split, run_flow
from .surface import Surface, area, rebase

CLOSING_MAX_ITER = 60
CLOSING_TOL = 1e-13


# ---------------------------------------------------------------------------
# strong-stable contraction


@dataclass(frozen=True)
class ContractionFit:
    times: tuple[float, ...]
    log_ratios: tuple[tuple[float, ...], ...]  # one tuple per kept trial
    alpha: float  # fitted decay exponent: d(T) ~ c_hat * d(0) * exp(-alpha T)
    c_hat: float
    r_squared: float
    dropped: int

    def samples(self) -> list[tuple[float, float]]:
        return [(t, math.exp(v)) for row in self.log_ratios for t, v in zip(self.times, row)]


def _height_perturbations(s: Surface, rng: random.Random) -> dict:
    """A random perturbation of the imaginary parts that keeps every triangle
    closed and preserves the total area to first order."""
    edges, closure_null, tol = _closure_basis(s)
    idx = {e: i for i, e in enumerate(edges)}
    if closure_null.shape[0] == 0:
        raise DegeneracyError("no admissible height perturbation: closure fills the space")

    # numeric gradient of the area along the closure-preserving directions
    h0 = np.array([float(s.periods[e].h) for e in edges])
    step = 1e-7 * max(1.0, float(np.abs(h0).max()))

    def area_at(h):
        periods = {e: (s.periods[e].w, h[idx[e]]) for e in edges}
        return float(area(s.replace(periods=periods)))

    grad = np.array(
        [
            (area_at(h0 + step * d) - area_at(h0 - step * d)) / (2 * step)
            for d in closure_null
        ]
    )
    coeffs = np.array([rng.gauss(0, 1) for _ in range(closure_null.shape[0])])
    gn = np.linalg.norm(grad)
    if gn > tol:
        coeffs = coeffs - (coeffs @ grad) / gn**2 * grad
    if np.linalg.norm(coeffs) < 1e-12:
        raise DegeneracyError("no admissible height perturbation: area constraint is everything")
    u = coeffs @ closure_null
    u = u / np.linalg.norm(u)
    return {e: float(u[idx[e]]) for e in edges}


def _stable_distance(s1: Surface, s2: Surface) -> float:
    """Relative height separation of two surfaces sharing widths and
    combinatorics: ||delta h_eff|| / ||w_eff||."""
    if s1.triangles != s2.triangles:
        raise VeertrackError("surfaces are in different charts")
    dh, wn = 0.0, 0.0
    for e in s1.edges:
        w1, h1 = s1.effective_period(e)
        _, h2 = s2.effective_period(e)
        dh += (h1 - h2) ** 2
        wn += w1**2
    return math.sqrt(dh) / math.sqrt(wn)


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
    trajectories disagree combinatorially are dropped.
    """
    s, _ = greedy_delaunay(s)
    times = tuple(total_t * (k + 1) / checkpoints for k in range(checkpoints))
    base_traj = run_flow(s, total_t, verify="off")
    sig_a = [(ev.edge, ev.direction) for ev in base_traj.events]

    def one_trial(i: int):
        rng = random.Random(f"{seed}:{i}")
        u = _height_perturbations(s, rng)
        periods = {e: (s.periods[e].w, s.periods[e].h + delta * u[e]) for e in s.edges}
        sp = s.replace(periods=periods)
        try:
            pert_traj = run_flow(sp, total_t, verify="off")
        except (DegeneracyError, VeertrackError):
            return None
        sig_b = [(ev.edge, ev.direction) for ev in pert_traj.events]
        if sig_a != sig_b:
            return None
        d0 = _stable_distance(s, sp)
        row = []
        for t in times:
            a = _state_at(base_traj, t)
            b = _state_at(pert_traj, t)
            row.append(math.log(_stable_distance(a, b) / d0))
        return tuple(row)

    results = [one_trial(i) for i in range(trials)]
    kept = [row for row in results if row is not None]
    dropped = sum(1 for row in results if row is None)
    if not kept:
        raise VeertrackError("every trial was dropped: no combinatorially shadowing pair")
    xs = np.array([t for row in kept for t in times])
    ys = np.array([v for row in kept for v in row])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ContractionFit(times, tuple(kept), -float(slope), math.exp(float(intercept)), r2, dropped)


def _state_at(traj: Trajectory, t: float) -> Surface:
    """The surface of traj at time t past its start, in the chart current
    there."""
    lam = float(traj.start.lam) * math.exp(2.0 * t)
    state = traj.start
    for ev, srf in zip(traj.events, traj.surfaces):
        if float(ev.threshold) <= lam:
            state = srf
        else:
            break
    return state.replace(lam=lam)


# ---------------------------------------------------------------------------
# Hilbert diameter decay


@dataclass(frozen=True)
class DiameterTrace:
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
    cone = orthant(n)
    times, diams = [], []
    for ev in traj.events:
        m = np.array(split_transition(ev, branches).tangential, dtype=float)
        composed = m @ composed
        composed = composed / np.abs(composed).max()
        times.append(ev.t)
        diams.append(image_diameter(composed, cone))
    return DiameterTrace(tuple(times), tuple(diams))


# ---------------------------------------------------------------------------
# closing-lemma search


@dataclass(frozen=True)
class ClosingResult:
    surface: Surface  # fixed point, unit area, anchored at its event moment
    period_t: float
    lam_w: float
    word: tuple  # (edge, direction) pairs
    iterations: int
    residual: float  # recurrence defect of the fixed point
    converged: bool


def _rename(s: Surface, relabel: dict) -> Surface:
    """Pull a surface back through the relabeling e -> (e', sign): the result
    carries label e with sign * period(e')."""
    periods = {e: (sg * s.periods[e2].w, sg * s.periods[e2].h) for e, (e2, sg) in relabel.items()}
    inv = {e2: (e, sg) for e, (e2, sg) in relabel.items()}
    tris = tuple(
        tuple((inv[e][0], sg * inv[e][1]) for e, sg in tri) for tri in s.triangles
    )
    return Surface(tris, periods, s.mode, lam=s.lam)


def _flow_word(s: Surface, word_sig: list[tuple[str, str]]):
    """Flow s through exactly the given (edge, direction) event sequence.
    Returns (final surface at its last event moment, lam ratio covered)."""
    cur = s
    lam0 = float(cur.lam)
    for edge, direction in word_sig:
        # the current state sits exactly at a split moment; probe a hair past
        # it so the just-performed flip does not resurface through rounding
        ev = next_split(cur.replace(lam=float(cur.lam) * (1 + 1e-9)))
        if ev is None or ev.edge != edge or ev.direction != direction:
            raise VeertrackError("trajectory left the combinatorial neighborhood of the word")
        cur, _ = flip(cur.replace(lam=ev.threshold), ev.edge)
    return cur, float(cur.lam) / lam0


def _return_map(x: Surface, word_sig: list[tuple[str, str]], relabel: dict):
    """(periods, lam ratio) of the first return of x along the word: the
    periods are pulled back through relabel into the chart of x."""
    raw, lam_ratio = _flow_word(x, word_sig)
    return _aligned_periods(_rename(rebase(raw), relabel), x), lam_ratio


def _unflip_word(s: Surface, word_sig: list[tuple[str, str]]) -> Surface:
    cur = s
    for edge, _ in reversed(word_sig):
        cur, _ = flip(cur, edge)
    return cur


def _aligned_periods(s: Surface, ref: Surface) -> dict:
    """Periods of s with each edge's sign flipped, if need be, to match the
    chart conventions of the nearby reference surface (a period and its
    negative describe the same edge)."""
    out = {}
    for e in ref.edges:
        w, h = float(s.periods[e].w), float(s.periods[e].h)
        rw, rh = float(ref.periods[e].w), float(ref.periods[e].h)
        if abs(rw) >= abs(rh):
            sign = 1 if abs(w - rw) <= abs(w + rw) else -1
        else:
            sign = 1 if abs(h - rh) <= abs(h + rh) else -1
        out[e] = (sign * s.periods[e].w, sign * s.periods[e].h)
    return out


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


def closing_search(s: Surface, search_t: float = 5.0) -> ClosingResult:
    """Find the periodic orbit shadowed by the flow trajectory of s.

    The trajectory of s is scanned for an approximate combinatorial
    recurrence; the recurrence word is closed up in two stages.  First the
    contracting iteration that takes heights from the forward return map and
    widths from the backward one pulls the guess into the basin; then a
    Gauss-Newton solve of the section fixed-point equation drives the
    recurrence defect to rounding level.  The fixed point is a surface
    exactly on the periodic axis, anchored at the event moment that starts
    the word.
    """
    s, _ = greedy_delaunay(s)
    traj = run_flow(s, search_t, verify="off")
    match = detect_periodicity(traj, rel_tol=0.1)
    if match is None:
        raise VeertrackError("no approximate recurrence within the search window")
    word_sig = [(ev.edge, ev.direction) for ev in match.word]
    x = rebase(traj.states()[match.m])
    lam_ratio = match.lam_w**2
    iterations = 0
    inverse = {e2: (e, sg) for e, (e2, sg) in match.relabel.items()}
    for iterations in range(1, CLOSING_MAX_ITER + 1):
        forward, lam_ratio = _return_map(x, word_sig, match.relabel)
        scale = math.sqrt(lam_ratio)
        back_raw = _unflip_word(_rename(x, inverse), word_sig)
        backward = _aligned_periods(back_raw, x)
        periods = {
            e: (backward[e][0] / scale, forward[e][1]) for e in x.edges
        }
        nxt = x.replace(periods=periods)
        diff = max(
            max(abs(nxt.periods[e].w - x.periods[e].w), abs(nxt.periods[e].h - x.periods[e].h))
            for e in x.edges
        )
        x = nxt
        if diff < CLOSING_TOL:
            break

    # Gauss-Newton polish on the Poincare section: solve phi(x) = x over the
    # closure-preserving perturbations of the periods
    edges, null, _ = _closure_basis(x)
    k = null.shape[0]
    base_w = np.array([float(x.periods[e].w) for e in edges])
    base_h = np.array([float(x.periods[e].h) for e in edges])

    def surface_at(c):
        dw = c[:k] @ null
        dh = c[k:] @ null
        periods = {e: (base_w[i] + dw[i], base_h[i] + dh[i]) for i, e in enumerate(edges)}
        return x.replace(periods=periods)

    def residual_vec(c):
        cur = surface_at(c)
        ret, _ = _return_map(cur, word_sig, match.relabel)
        out = []
        for i, e in enumerate(edges):
            out.append(float(ret[e][0]) - float(cur.periods[e].w))
            out.append(float(ret[e][1]) - float(cur.periods[e].h))
        return np.array(out)

    from scipy.optimize import least_squares

    sol = least_squares(residual_vec, np.zeros(2 * k), xtol=3e-16, ftol=3e-16, gtol=3e-16)
    x = surface_at(sol.x)

    # the return map commutes with homotheties, so the scale of the fixed
    # point is a neutral direction; pin it to unit area
    f = 1.0 / math.sqrt(float(area(x)))
    x = x.replace(periods={e: (f * p.w, f * p.h) for e, p in x.periods.items()})
    returned, lam_ratio = _return_map(x, word_sig, match.relabel)
    residual = max(
        max(
            abs(returned[e][0] - x.periods[e].w),
            abs(returned[e][1] - x.periods[e].h),
        )
        for e in x.edges
    ) / max(abs(float(x.periods[e].w)) for e in x.edges)
    return ClosingResult(
        x,
        0.5 * math.log(lam_ratio),
        math.sqrt(lam_ratio),
        tuple(word_sig),
        iterations,
        residual,
        residual < 1e-10,
    )


def axis_distance(x: Surface, y: Surface, window: float = 0.5) -> float:
    """Least relative period distance between flow translates of x and y.

    Both surfaces must live in the same labelled chart; the optimization is
    over the flow time applied to x within (-window, window)."""
    if x.triangles != y.triangles:
        raise VeertrackError("surfaces are in different charts")
    edges = sorted(x.edges)
    yw = np.array([float(y.periods[e].w) for e in edges])
    yh = np.array([float(y.periods[e].h) for e in edges])
    xw = np.array([float(x.periods[e].w) for e in edges])
    xh = np.array([float(x.periods[e].h) for e in edges])
    scale = max(np.abs(yw).max(), np.abs(yh).max())

    def dist(t):
        f = math.exp(t)
        return max(np.abs(xw * f - yw).max(), np.abs(xh / f - yh).max()) / scale

    res = minimize_scalar(dist, bounds=(-window, window), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)
