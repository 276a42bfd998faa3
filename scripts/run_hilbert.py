#!/usr/bin/env python3
"""Hilbert diameter of the composed tangential cone image along the golden
torus splitting sequence, with the Birkhoff bound for the periodic block."""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from veertrack.cones import birkhoff_coefficient, compose_word, image_diameter
from veertrack.fixtures import GOLD_PERIOD_T, gold
from veertrack.flow import detect_periodicity, run_flow
from veertrack.lab import hilbert_contraction_experiment


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--periods", type=int, default=8)
    args = ap.parse_args()

    traj = run_flow(gold(), args.periods * GOLD_PERIOD_T)
    trace = hilbert_contraction_experiment(traj)
    for t, d in zip(trace.event_times, trace.diameters):
        print(f"t {t:8.4f}  diameter {d if math.isinf(d) else round(d, 6)}")

    _, match = detect_periodicity(traj.start, traj.t_end)
    branches = tuple(sorted(traj.start.edges))
    span = len(match.word)
    for k in range(1, args.periods):
        word = tuple(traj.events[match.m : match.m + k * span])
        block = np.array(compose_word(word, branches).tangential, dtype=float)
        delta = image_diameter(block)
        if math.isfinite(delta):
            print(f"{k}-period block diameter {delta:.6f}, "
                  f"Birkhoff coefficient {birkhoff_coefficient(delta):.6f}")
            break
        print(f"{k}-period block diameter inf (image touches the cone boundary)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
