#!/usr/bin/env python3
"""veertrack benchmark: closed-loop CLI invocations on seeded workloads.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 36 --trace 0

One client calls `veertrack.cli.main([...])` in-process, each call only after
the previous one returned, with stdout and stderr captured.  A run:

1. with --trace 0, times `import veertrack.cli` in fresh interpreters
   (setup_s, the median of SETUP_REPEATS);
2. writes the workload's seeded inputs under .perfbench_work/ in the checkout;
3. with --trace 0, repeats rounds over the inputs until --seconds have
   passed (the first round always completes) and reports the end-to-end
   metrics; with --trace 1, runs half that time untraced and half traced,
   reports the per-layer metrics and writes the spans to
   .perfbench_work/spans-<workload>.npz.

The first round's outputs are checked in full; every later invocation must
reproduce its first-round twin exactly.  Timings keep the fastest repeats
of each distinct invocation (the rule of `timeit`), as few as give 40
samples: on a shared machine the slower repeats measure the neighbours'
load, not the program.  With 40 samples, p75 is the highest percentile
with ten samples beyond it.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exits 0 when the run completed, 2 when it cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import veertrack.cli; "
    "print(time.perf_counter() - t)"
)


def fresh_import_seconds() -> float:
    """Seconds to import veertrack.cli in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def p75(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="veertrack closed-loop CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "veertrack" / "cli.py").is_file():
        print(f"perfbench: no veertrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    from workloads import WORKLOADS, closed_loop

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.environ.pop("VEERTRACK_THREADS", None)  # the library default: one worker

    metrics = {}
    if args.trace == 0:
        setup = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(setup), "s")

    from veertrack import cli

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        units = WORKLOADS[args.workload](random.Random(args.seed), work)
        if args.trace == 0:
            phase = closed_loop(units, cli.main, args.seconds)
            kept = phase.fastest()
            metrics.update({
                "cmd_ms_p50": (statistics.median(kept) * 1e3, "ms"),
                "cmd_ms_p75": (p75(kept) * 1e3, "ms"),
                "cmds_per_s": (len(kept) / sum(kept), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            })
            phases = [phase]
        else:
            plain = closed_loop(units, cli.main, args.seconds / 2)
            tracer = spans.Tracer()
            uninstall = tracer.install()
            try:
                traced = closed_loop(
                    units, tracer.job_main(cli.main), args.seconds / 2, expected=plain.expected,
                    before_unit=lambda unit: setattr(tracer, "tag", unit.period),
                )
            finally:
                uninstall()
            tracer.write(WORK / f"spans-{args.workload}.npz")
            metrics.update(spans.layer_metrics(tracer))
            overhead = statistics.median(traced.fastest()) - statistics.median(plain.fastest())
            metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
            phases = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [line for p in phases for line in p.problems]
    if args.trace == 1:
        metrics["failed_frac"] = (failed / attempted, "ratio")
    for line in problems:
        print(f"check failed: {line}")
    kept = phases[0].fastest()
    beyond = sum(1 for t in kept if t > p75(kept))
    print(f"{args.workload} seed {args.seed}: {attempted} invocations, {failed} failed; "
          f"{len(phases[0].times)} distinct invocations, {len(kept)} samples kept, "
          f"{beyond} beyond p75")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
