"""Command line interface.

Exit codes: 0 success, 1 error (bad input, failed validation), 2 degeneracy
(a tie that makes the requested computation ill-posed).

cones and lab, the only modules that import numpy, are imported inside the
commands that call them (analyze, contract, close), so the other commands
start without loading numpy.
"""

import argparse
import csv
import functools
import json
import math
import random
import sys

from .delaunay import delaunay_violations, greedy_delaunay, is_veering, linf_scaled
from .errors import DegeneracyError, DocumentError, VeertrackError
from .flow import detect_periodicity, next_split, run_flow, thick_fraction
from .surface import parse_surface, rebase, serialize_surface, surface_doc, validate
from .traintrack import complementary_regions, dual_track, vertex_curves


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DocumentError(f"input is not UTF-8 text: {exc}") from exc
    return parse_surface(text)


def _load_valid(path: str):
    """_load, refusing a document that fails validation with its first
    violation."""
    s = _load(path)
    report = validate(s)
    if not report.passed:
        rule, where, detail = report.violations[0]
        raise DocumentError(f"violation [{rule}] {where}: {detail}")
    return s


def cmd_validate(args) -> int:
    s = _load(args.input)
    report = validate(s)
    if report.passed:
        print(f"ok: {len(s.triangles)} triangles, {len(s.periods)} edges, area {float(report.area):.6g}")
        return 0
    for rule, where, detail in report.violations:
        print(f"violation [{rule}] {where}: {detail}")
    return 1


def cmd_delaunay(args) -> int:
    s = _load(args.input)
    result, records = greedy_delaunay(s)
    print(f"{len(records)} flips to reach the Delaunay triangulation")
    if args.emit_flips:
        with open(args.emit_flips, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "edge", "old_w", "old_h", "new_w", "new_h"])
            for k, rec in enumerate(records):
                w.writerow(
                    [k, rec.old_edge, rec.old_period[0], rec.old_period[1],
                     rec.new_period[0], rec.new_period[1]]
                )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize_surface(result) + "\n")
    return 0


def cmd_track(args) -> int:
    s = _load(args.input)
    track, measures = dual_track(s, args.direction)
    roles = track.branch_roles()
    for b in track.branches:
        print(
            f"{b}: {roles[b]}, transverse {measures.transverse[b]}, "
            f"tangential {measures.tangential[b]}"
        )
    print(f"regions: {dict(sorted(complementary_regions(track).items()))}")
    if args.vertex_curves:
        w = csv.writer(sys.stdout)
        for curve in vertex_curves(track):
            w.writerow([int(c) for c in curve])
    return 0


def cmd_flow(args) -> int:
    s, _ = greedy_delaunay(_load_valid(args.input))
    traj = run_flow(s, args.time, max_events=args.max_events)
    print(f"{len(traj.events)} events in time {args.time}")
    rows = []
    for k, ev in enumerate(traj.events):
        rows.append(
            [k, s.num.emit(ev.threshold), ev.t, ev.edge, ev.direction,
             " ".join(ev.losers), " ".join(ev.winners)]
        )
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "threshold", "t", "edge", "direction", "losers", "winners"])
            w.writerows(rows)
    else:
        for row in rows:
            print(",".join(str(x) for x in row))
    return 0


def cmd_analyze(args) -> int:
    from .cones import analyze_periodic_word

    s, _ = greedy_delaunay(_load_valid(args.input))
    traj, match = detect_periodicity(s, args.time, max_events=args.max_events)
    if match is None:
        print("no periodic return found in the time window")
        return 1
    rep = analyze_periodic_word(traj, match)
    doc = {
        "word": [(ev.edge, ev.direction) for ev in match.word],
        "support": sorted(rep.support),
        "filling": rep.filling,
        "is_pseudo_anosov": rep.is_pseudo_anosov,
        "lam_w": rep.lam_w,
        "lam_h": rep.lam_h,
        "entropy": rep.entropy,
        "branches": list(rep.branches),
        "return_matrix": [list(r) for r in rep.return_matrix] if rep.return_matrix else None,
        "positive_power": rep.positive_power,
    }
    text = json.dumps(doc, indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_contract(args) -> int:
    from .lab import contraction_experiment

    s = _load_valid(args.input)
    fit = contraction_experiment(
        s, args.time, trials=args.trials, delta=args.delta, seed=args.seed
    )
    print(f"alpha_hat {fit.alpha:.6f}, C_hat {fit.c_hat:.6f}, R^2 {fit.r_squared:.6f}, "
          f"dropped {fit.dropped}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "trial", "d0", "dT", "ratio"])
            for trial, row in enumerate(fit.log_ratios):
                for t, lr in zip(fit.times, row):
                    ratio = math.exp(lr)
                    w.writerow([t, trial, args.delta, args.delta * ratio, ratio])
    return 0


def cmd_close(args) -> int:
    from .lab import closing_search, perturb_heights

    if not (math.isfinite(args.delta) and args.delta >= 0):
        raise VeertrackError(f"delta must be finite and nonnegative, not {args.delta}")
    s = rebase(_load_valid(args.input))
    if args.delta:
        s = perturb_heights(s, random.Random(args.seed), args.delta)
    res = closing_search(s, search_t=args.time)
    doc = {
        "periodic_point": surface_doc(res.surface),
        "T_prime": res.period_t,
        "lam_w": res.lam_w,
        "word": list(res.word),
        "residual": res.residual,
        "converged": res.converged,
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if res.converged else 1


def cmd_report(args) -> int:
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise VeertrackError(f"eps must be finite and positive, not {args.eps}")
    s = _load(args.input)
    rep = validate(s)
    doc = {
        "valid": rep.passed,
        "violations": [list(v) for v in rep.violations],
        "triangles": len(s.triangles),
        "edges": len(s.periods),
    }
    if rep.passed:
        doc["area"] = float(rep.area)
        doc["veering"] = is_veering(s)
        doc["delaunay_violations"] = delaunay_violations(s)
        doc["longest_edge"] = max(s.edges, key=lambda e: linf_scaled(s, s.periods[e]))
        for direction in ("vertical", "horizontal"):
            track, _ = dual_track(s, direction)
            census = complementary_regions(track)
            doc[f"{direction}_regions"] = {str(k): v for k, v in sorted(census.items())}
        reduced, _ = greedy_delaunay(s)
        traj = run_flow(reduced, args.time) if args.time else None
        ev = next_split(reduced)
        doc["next_split"] = (
            None if ev is None else {"edge": ev.edge, "t": ev.t, "direction": ev.direction}
        )
        if traj is not None:
            doc["events"] = len(traj.events)
            doc["thick_fraction"] = thick_fraction(traj, args.eps).theta
    print(json.dumps(doc, indent=2))
    return 0 if rep.passed else 1


# built on the first call of main and kept: parse_args leaves it as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="veertrack")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a surface document")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("delaunay", help="greedy reduction to the Delaunay triangulation")
    sp.add_argument("--input", required=True)
    sp.add_argument("--emit-flips", metavar="CSV")
    sp.add_argument("--output", metavar="FILE")
    sp.set_defaults(func=cmd_delaunay)

    sp = sub.add_parser("track", help="dual train track with measures")
    sp.add_argument("--input", required=True)
    sp.add_argument("--direction", choices=("vertical", "horizontal"), default="vertical")
    sp.add_argument("--vertex-curves", action="store_true")
    sp.set_defaults(func=cmd_track)

    sp = sub.add_parser("flow", help="event-driven splitting sequence")
    sp.add_argument("--input", required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--max-events", type=int, default=10000)
    sp.add_argument("--csv", metavar="OUT")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("analyze", help="periodicity and pseudo-Anosov data")
    sp.add_argument("--input", required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--max-events", type=int, default=10000)
    sp.add_argument("--report", metavar="OUT.json")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("contract", help="strong-stable contraction experiment")
    sp.add_argument("--input", required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--trials", type=int, default=6)
    sp.add_argument("--delta", type=float, default=1e-4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", metavar="OUT")
    sp.set_defaults(func=cmd_contract)

    sp = sub.add_parser("close", help="closing-lemma fixed-point search")
    sp.add_argument("--input", required=True)
    sp.add_argument("--time", type=float, default=5.0)
    sp.add_argument("--delta", type=float, default=0.0,
                    help="perturb the input heights by this norm before closing")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", metavar="OUT.json")
    sp.set_defaults(func=cmd_close)

    sp = sub.add_parser("report", help="one-stop summary of a surface")
    sp.add_argument("--input", required=True)
    sp.add_argument("--time", type=float, default=0.0)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 2
    except (DocumentError, VeertrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
