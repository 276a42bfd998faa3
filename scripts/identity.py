#!/usr/bin/env python3
"""Fingerprint a fixed list of CLI invocations on the built-in surfaces.

Each invocation runs in-process through ``veertrack.cli.main``, in a fresh
temporary directory holding the fixture documents and a few invalid ones
(run through validate and report only, to pin their violation messages),
and prints one line: the
argv, the exit code, and the sha256 (first 16 hex digits) of stdout, stderr
and the output file ("-" when the invocation writes none).  Two checkouts
that print the same lines gave byte-identical results:

    python3 scripts/identity.py > before.txt   # in one checkout
    python3 scripts/identity.py > after.txt    # in the other
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import math
import os
import pathlib
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from veertrack.cli import main as cli_main
from veertrack.fixtures import gold, octagon, pillow, slope_torus, t2
from veertrack.surface import Surface, serialize_surface


def _slope(n: int):
    return slope_torus((n + math.sqrt(n * n + 4)) / 2)


def _exact_gold():
    g = gold()
    return Surface(g.triangles, g.periods, "exact")


def _t2_shear():
    """t2 sheared by (w, h) -> (w + 11h/100, 9w/100 + h): valid, but its
    Delaunay violation e3 flips before the first split."""
    periods = {
        "e1": (Fraction(1033, 1000), Fraction(39, 100)),
        "e2": (Fraction(-29, 100), Fraction(241, 250)),
        "e3": (Fraction(-743, 1000), Fraction(-677, 500)),
    }
    return t2().replace(periods=periods)


def _t2_zero_sum(mode: str):
    s = t2(mode)
    return s.replace(periods={**s.periods, "e1": (1, 1)})


def _t2_reversed(mode: str):
    s = t2(mode)
    return s.replace(triangles=[tuple(reversed(tri)) for tri in s.triangles])


def _t2_axis(mode: str):
    return t2(mode).replace(periods={"e1": (1, 0), "e2": (Fraction(-2, 5), 1), "e3": (Fraction(-3, 5), -1)})


def _t2_area_gap():
    """Float t2 whose e3 closes its triangles to within validate's 1e-9 but
    puts their shoelace and trapezoid areas 3e-10 apart."""
    s = t2("float")
    return s.replace(periods={**s.periods, "e3": (-0.6 + 5e-10, -1.3)})


def _t2_twice():
    """Two disjoint copies of t2 in one document, the second's labels
    suffixed by b: valid but for the connected rule."""
    s = t2()
    copy = [tuple((e + "b", sg) for e, sg in tri) for tri in s.triangles]
    return Surface([*s.triangles, *copy], {**s.periods, **{e + "b": p for e, p in s.periods.items()}}, "exact")


DOCUMENTS = {
    "t2": t2,
    "t2f": lambda: t2("float"),
    "gold": gold,
    "goldx": _exact_gold,
    "pillow": pillow,
    "octagon": octagon,
    "octagonf": lambda: octagon("float"),
    "x1": lambda: _slope(1),
    "x2": lambda: _slope(2),
    "x3": lambda: _slope(3),
    **{f"x{n}": (lambda n=n: _slope(n)) for n in range(5, 9)},
    "t2shear": _t2_shear,
}
INVALID = {
    "t2sum": lambda: _t2_zero_sum("exact"),
    "t2fsum": lambda: _t2_zero_sum("float"),
    "t2rev": lambda: _t2_reversed("exact"),
    "t2frev": lambda: _t2_reversed("float"),
    "t2axis": lambda: _t2_axis("exact"),
    "t2faxis": lambda: _t2_axis("float"),
    "t2farea": _t2_area_gap,
    "t2twice": _t2_twice,
}
# the slope pi torus never returns: analyze flows its whole window
NO_RETURN = {"pi": lambda: slope_torus(math.pi)}
FLOWING = ("t2", "t2f", "gold", "goldx", "pillow", "x2", "x3")
# long words LⁿRⁿ: many mirror-image state pairs precede the match
MIRRORED = ("x5", "x6", "x7", "x8")
LAB = ("gold", "x2")
# contract and close as the lab benchmark runs them, on three seeds each
LAB_SEEDED = ("x1", "x2", "x3")


def invocations() -> list[tuple[list[str], str | None]]:
    """(argv, output file or None), in a fixed order."""
    out: list[tuple[list[str], str | None]] = []
    for name in DOCUMENTS:
        doc = f"{name}.json"
        out.append((["validate", "--input", doc], None))
        out.append((["report", "--input", doc, "--time", "3"], None))
        out.append((["report", "--input", doc], None))
        out.append((["delaunay", "--input", doc, "--emit-flips", "flips.csv"], "flips.csv"))
        out.append((["delaunay", "--input", doc, "--output", "reduced.json"], "reduced.json"))
        for direction in ("vertical", "horizontal"):
            out.append((["track", "--input", doc, "--direction", direction, "--vertex-curves"], None))
    for name in FLOWING:
        doc = f"{name}.json"
        out.append((["flow", "--input", doc, "--time", "3"], None))
        out.append((["flow", "--input", doc, "--time", "12"], None))
        out.append((["flow", "--input", doc, "--time", "8", "--csv", "events.csv"], "events.csv"))
        out.append((["analyze", "--input", doc, "--time", "12", "--report", "report.json"], "report.json"))
    for name in MIRRORED:
        out.append((["analyze", "--input", f"{name}.json", "--time", "16", "--report", "report.json"], "report.json"))
    out.append((["analyze", "--input", "gold.json", "--time", "0.5"], None))  # no return
    # past the float range: analyze stops at gold's first return; pi flows
    # on into its float degeneracy
    out.append((["analyze", "--input", "gold.json", "--time", "400"], None))
    out.append((["analyze", "--input", "pi.json", "--time", "16"], None))
    out.append((["analyze", "--input", "pi.json", "--time", "400"], None))
    for name in LAB:
        doc = f"{name}.json"
        out.append((["contract", "--input", doc, "--time", "4", "--trials", "3", "--csv", "decay.csv"], "decay.csv"))
        out.append((["close", "--input", doc, "--output", "close.json"], "close.json"))
        out.append((["close", "--input", doc, "--delta", "1e-3", "--seed", "5", "--output", "close.json"], "close.json"))
    for name in LAB_SEEDED:
        doc = f"{name}.json"
        for seed in ("1", "2", "3"):
            out.append((["contract", "--input", doc, "--time", "8", "--trials", "6", "--seed", seed,
                         "--csv", "decay.csv"], "decay.csv"))
            out.append((["close", "--input", doc, "--delta", "1e-3", "--seed", seed, "--output", "close.json"],
                        "close.json"))
    # a trial with the base's word that leaves its chart at a checkpoint
    out.append((["contract", "--input", "x3.json", "--time", "4", "--delta", "1.2", "--seed", "1"], None))
    for name in INVALID:
        out.append((["validate", "--input", f"{name}.json"], None))
        out.append((["report", "--input", f"{name}.json"], None))
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_one(argv: list[str], output: str | None) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in {**DOCUMENTS, **INVALID, **NO_RETURN}.items():
            pathlib.Path(tmp, f"{name}.json").write_text(serialize_surface(build()) + "\n", encoding="utf-8")
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            path = pathlib.Path(tmp, output) if output else None
            written = _digest(path.read_bytes()) if path is not None and path.exists() else "-"
        finally:
            os.chdir(cwd)
    return (
        f"{' '.join(argv)} | exit {code} | stdout {_digest(out.getvalue().encode())} "
        f"| stderr {_digest(err.getvalue().encode())} | file {written}"
    )


def main() -> int:
    for argv, output in invocations():
        print(run_one(argv, output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
