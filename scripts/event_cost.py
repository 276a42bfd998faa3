#!/usr/bin/env python3
"""Per-event cost of the split-event loop, and the costs of analyze's
pipeline and of a contraction fit.

For the golden torus and the slope tori x_1..x_8, flowed to T = 16, prints
the best of --repeat timings of --flows flows, in microseconds per event,
for both verify modes and for a cold and a warm combinatorial cache:

- cold: each flow starts from a new surface, whose Triangulation starts a
  new table of triangulations;
- warm: each flow starts from a period copy of one start surface, which
  shares that surface's Triangulation and so every triangulation the
  earlier flows reached, as the trial flows of a contraction fit do.

Then prints, for x_1..x_8 and T = 16, the best of --repeat timings of
--flows calls of the two stages of `veertrack analyze`'s pipeline on a new
surface: detect_periodicity, the certified flow stopped at the first
return, in milliseconds per call, and analyze_periodic_word on its return,
in microseconds per call, with the events that flow takes.

Then prints the best of --repeat timings, in milliseconds per call, of
contraction_experiment on x_1..x_3 over four periods with 6 trials (the
`veertrack contract --trials 6` of the benchmark's lab workload), and
beside it the microseconds per trial: the best fit with 6 trials less the
best with 1 trial, over 5.

Last, prints the best of --repeat timings, in microseconds per call, of
vertex_curves on the tracks of the census shears of t2, pillow and octagon
(n = 3, 6 and 9 edges; the 64 shears perfbench/inputs.py draws of each),
in both directions: each track taken, as the census workload takes it, on
the Delaunay surface, or on the shear itself when the reduction stops on a
degeneracy.

    python3 scripts/event_cost.py
    python3 scripts/event_cost.py --repeat 2 --flows 1   # a quick smoke run
"""

import argparse
import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from inputs import CENSUS_UNIVERSE, census_doc
from veertrack.cones import analyze_periodic_word
from veertrack.delaunay import greedy_delaunay
from veertrack.errors import DegeneracyError
from veertrack.fixtures import gold, slope_torus
from veertrack.flow import detect_periodicity, run_flow
from veertrack.lab import contraction_experiment
from veertrack.surface import Surface, parse_surface
from veertrack.traintrack import dual_track, vertex_curves

FLOW_T = 16.0


def slope(n: int) -> float:
    return (n + math.sqrt(n * n + 4)) / 2


STARTS = {"gold": gold, **{f"x_{n}": (lambda n=n: slope_torus(slope(n))) for n in range(1, 9)}}


def fresh(s: Surface) -> Surface:
    """A new surface equal to s, with caches of its own."""
    return Surface(s.triangles, s.periods, s.mode, s.lam)


def us_per_event(build, verify: str, warm: bool, flows: int, repeat: int) -> float:
    base = build()
    if warm:
        run_flow(base, FLOW_T, verify=verify)
    best = math.inf
    for _ in range(repeat):
        starts = [base.replace(periods=base.periods) if warm else fresh(base) for _ in range(flows)]
        events = 0
        t0 = time.perf_counter()
        for s in starts:
            events += len(run_flow(s, FLOW_T, verify=verify).events)
        best = min(best, (time.perf_counter() - t0) / events)
    return best * 1e6


def analyze_cost(n: int, flows: int, repeat: int) -> tuple[float, float, int]:
    """(ms per stopped flow, us per analyze_periodic_word, events flowed)
    of the analyze pipeline on x_n."""
    base = slope_torus(slope(n))
    best_flow = best_word = math.inf
    for _ in range(repeat):
        starts = [fresh(base) for _ in range(flows)]
        t0 = time.perf_counter()
        found = [detect_periodicity(s, FLOW_T) for s in starts]
        t1 = time.perf_counter()
        for traj, match in found:
            analyze_periodic_word(traj, match)
        t2 = time.perf_counter()
        best_flow = min(best_flow, (t1 - t0) / flows)
        best_word = min(best_word, (t2 - t1) / flows)
    return best_flow * 1e3, best_word * 1e6, len(found[0][0].events)


def ms_per_fit(n: int, repeat: int, trials: int = 6) -> float:
    best = math.inf
    for k in range(repeat):
        s = slope_torus(slope(n))
        t0 = time.perf_counter()
        contraction_experiment(s, 4 * 2 * math.log(slope(n)), trials=trials, seed=k)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def census_surfaces(name: str) -> list[Surface]:
    out = []
    for index in range(CENSUS_UNIVERSE):
        s = parse_surface(census_doc(name, index))
        try:
            s, _ = greedy_delaunay(s)
        except DegeneracyError:
            pass
        out.append(s)
    return out


def us_per_vertex_curves(surfaces, direction: str, repeat: int) -> float:
    tracks = [dual_track(s, direction)[0] for s in surfaces]
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        for track in tracks:
            vertex_curves(track)
        best = min(best, (time.perf_counter() - t0) / len(tracks))
    return best * 1e6


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=7, help="timings per figure; the best is printed")
    ap.add_argument("--flows", type=int, default=20, help="flows per timing")
    args = ap.parse_args()
    print(f"run_flow to T = {FLOW_T:g}, us per event, best of {args.repeat} x {args.flows} flows")
    print(f"{'start':8}{'off cold':>10}{'off warm':>10}{'debug cold':>12}{'debug warm':>12}")
    for name, build in STARTS.items():
        cells = [
            us_per_event(build, verify, warm, args.flows, args.repeat)
            for verify in ("off", "debug")
            for warm in (False, True)
        ]
        print(f"{name:8}{cells[0]:10.2f}{cells[1]:10.2f}{cells[2]:12.2f}{cells[3]:12.2f}")
    print(f"analyze to T = {FLOW_T:g}: ms per stopped flow, us per analyze_periodic_word, "
          f"best of {args.repeat} x {args.flows} calls")
    print(f"{'start':8}{'flow ms':>10}{'word us':>10}{'events':>8}")
    for n in range(1, 9):
        ms, us, events = analyze_cost(n, args.flows, args.repeat)
        print(f"x_{n:<6}{ms:10.3f}{us:10.1f}{events:8d}")
    print(f"contraction_experiment, 4 periods, best of {args.repeat}: ms per call with 6 trials, "
          f"us per trial (6 trials less 1, over 5)")
    print(f"{'start':8}{'ms/call':>10}{'us/trial':>10}")
    for n in (1, 2, 3):
        fit6, fit1 = ms_per_fit(n, args.repeat), ms_per_fit(n, args.repeat, trials=1)
        print(f"x_{n:<6}{fit6:10.3f}{(fit6 - fit1) / 5 * 1e3:10.1f}")
    print(f"vertex_curves on the {CENSUS_UNIVERSE} census shears, us per call, best of {args.repeat}")
    print(f"{'fixture':10}{'n':>3}{'vertical':>10}{'horizontal':>12}")
    for name in ("t2", "pillow", "octagon"):
        surfaces = census_surfaces(name)
        cells = [us_per_vertex_curves(surfaces, d, args.repeat) for d in ("vertical", "horizontal")]
        print(f"{name:10}{len(surfaces[0].periods):3d}{cells[0]:10.1f}{cells[1]:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
