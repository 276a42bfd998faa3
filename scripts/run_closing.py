#!/usr/bin/env python3
"""Closing-lemma search on the golden torus and the slope tori x_1..x_8:
close each one as given and after a seeded height perturbation, and check
the closed orbit.

Each line gives the start, the word, T', lambda and the residual.  The run
exits 1 when any check fails: the word has 2n events, lambda is within 1e-9
of x_n^2, the residual is below 1e-10, and the widths w and heights h of
the point satisfy R w = w / lambda and R h = lambda h within 1e-9 relative,
where R is the word's period matrix.

    python3 scripts/run_closing.py --seeds 5 11 77 --delta 1e-3
"""

import argparse
import math
import pathlib
import random
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from veertrack.fixtures import gold, slope_torus
from veertrack.lab import closing_search, perturb_heights


def _slope(n: int) -> float:
    return (n + math.sqrt(n * n + 4)) / 2


def failed_checks(res, n: int) -> list[str]:
    edges = sorted(res.surface.edges)
    r = np.array(res.matrix, dtype=float)
    w = np.array([res.surface.periods[e].w for e in edges])
    h = np.array([res.surface.periods[e].h for e in edges])
    lam = res.lam_w
    checks = {
        "word length": len(res.word) == 2 * n,
        "lambda": abs(lam - _slope(n) ** 2) <= 1e-9,
        "residual": res.residual < 1e-10,
        "R w = w / lambda": np.abs(r @ w - w / lam).max() <= 1e-9 * np.abs(w).max(),
        "R h = lambda h": np.abs(r @ h - lam * h).max() <= 1e-9 * np.abs(h).max(),
    }
    return [name for name, ok in checks.items() if not ok]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--delta", type=float, default=1e-3)
    ap.add_argument("--seeds", type=int, nargs="*", default=[5, 11, 77])
    args = ap.parse_args()

    starts = [("gold", 1, gold)] + [(f"x_{n}", n, lambda n=n: slope_torus(_slope(n))) for n in range(1, 9)]
    failures = 0
    for name, n, build in starts:
        for seed in [None] + args.seeds:
            s = build()
            if seed is not None:
                s = perturb_heights(s, random.Random(seed), args.delta)
            res = closing_search(s)
            bad = failed_checks(res, n)
            failures += bool(bad)
            word = " ".join(f"{e}{d}" for e, d in res.word)
            print(f"{name} seed {seed}: word {word}, T' {res.period_t:.12f}, "
                  f"lambda {res.lam_w:.12f}, residual {res.residual:.3e}"
                  + (f", FAILED {', '.join(bad)}" if bad else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
