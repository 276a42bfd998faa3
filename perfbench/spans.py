"""Span tracing of veertrack's public functions, installed from outside.

Each traced function is wrapped once, and every ``veertrack`` module that
bound the original by name (``from .flow import run_flow``) is rebound to the
wrapper, so calls made inside the package are traced too.  A span records its
name, start, end, parent span and the CLI invocation (job) it belongs to.
Spans stay in memory until the run ends.

The span stack assumes one thread runs at a time.  It holds because lab's
executor has a single worker while VEERTRACK_THREADS is unset, and the
calling thread waits for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "flow": ("run_flow", "next_split", "detect_periodicity"),
    "delaunay": ("build_quad", "delaunay_violations", "flip", "greedy_delaunay"),
    "traintrack": ("dual_track", "vertex_curves", "complementary_regions"),
    "surface": ("parse_surface", "validate", "area", "serialize_surface"),
    "cones": ("analyze_periodic_word", "compose_word"),
    "lab": ("contraction_experiment", "closing_search"),
}
SUBCOMMANDS = ("validate", "delaunay", "track", "analyze", "contract", "close")
MODULES = ("cli",) + tuple(TRACED)


def _count_flow(tracer, traj):
    tracer.counts["events"] += len(traj.events)
    tracer.flow_times.append((tracer.job_id, tuple(ev.t for ev in traj.events)))


def _count_greedy(tracer, result):
    tracer.counts["flips"] += len(result[1])


def _count_trials(tracer, fit):
    tracer.counts["trials_kept"] += len(fit.log_ratios)
    tracer.counts["trials"] += len(fit.log_ratios) + fit.dropped


COUNTERS = {
    "flow.run_flow": _count_flow,
    "delaunay.greedy_delaunay": _count_greedy,
    "lab.contraction_experiment": _count_trials,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.job = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1
        self.tag = None  # set by the caller; recorded for each job it opens
        self.job_tags: list = []
        self.counts: Counter = Counter()
        self.flow_times: list[tuple[int, tuple[float, ...]]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.end)
            self.name.append(nid)
            self.job.append(self.job_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, result)
            return result

        return traced

    def job_main(self, main):
        """`main` wrapped so that each call opens a new job whose root span is
        named after the subcommand, cli.<subcommand>."""
        roots = {sub: self.wrap(f"cli.{sub}", main) for sub in SUBCOMMANDS}

        def traced_main(argv):
            self.job_id += 1
            self.job_tags.append(self.tag)
            return roots[argv[0]](argv)

        return traced_main

    def install(self):
        """Wrap every TRACED function and rebind it in all veertrack modules.
        Returns a function that restores the originals."""
        wrapped = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"veertrack.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                key = f"{mod}.{fname}"
                wrapped[fn] = self.wrap(key, fn, COUNTERS.get(key))
        rebound = []
        for modname, module in list(sys.modules.items()):
            if modname != "veertrack" and not modname.startswith("veertrack."):
                continue
            for attr, val in list(vars(module).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(module, attr, wrapped[val])
                    rebound.append((module, attr, val))

        def uninstall():
            for module, attr, val in rebound:
                setattr(module, attr, val)

        return uninstall

    def arrays(self):
        ints = (np.frombuffer(a, dtype=np.int64) for a in (self.name, self.job, self.parent))
        floats = (np.frombuffer(a, dtype=np.float64) for a in (self.start, self.end))
        return (*ints, *floats)

    def write(self, path: Path) -> None:
        name, job, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, job=job, parent=parent,
            start=start, end=end,
        )


def period_drift_max(tracer: Tracer) -> float:
    """Largest |t_{k+p} - t_k - P| over the traced flows of jobs tagged with
    the period of their input: p events in flow time P."""
    worst = 0.0
    for job, times in tracer.flow_times:
        known = tracer.job_tags[job]
        if known is None:
            continue
        p, period = known
        for k in range(len(times) - p):
            worst = max(worst, abs(times[k + p] - times[k] - period))
    return worst


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans: inclusive time per call, calls per
    flow event, self time per job and the counters the wrappers kept."""
    name, _, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    nnames = len(tracer.names)
    calls = np.bincount(name, minlength=nnames)
    incl = np.bincount(name, weights=dur, minlength=nnames)
    own = np.bincount(name, weights=self_time, minlength=nnames)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def n_calls(key):
        return int(calls[ids[key]]) if key in ids else 0

    def inclusive(key):
        return float(incl[ids[key]]) if key in ids else 0.0

    def per_call(key, scale):
        return ratio(inclusive(key) * scale, n_calls(key))

    def ratio(a, b):
        return a / b if b else 0.0

    def per_event(key):
        return ratio(n_calls(key), tracer.counts["events"])

    # next_split calls made under a closing_search span, at any depth
    under = name == ids.get("lab.closing_search", -1)
    while True:
        grown = under | (has_parent & under[np.where(has_parent, parent, 0)])
        if (grown == under).all():
            break
        under = grown
    in_closing = int(((name == ids.get("flow.next_split", -1)) & under).sum())

    jobs = tracer.job_id + 1
    module_self = Counter()
    for n, i in ids.items():
        module_self[n.split(".")[0]] += float(own[i])
    cli_time = sum(inclusive(f"cli.{sub}") for sub in SUBCOMMANDS)

    m = {
        "flow.run_flow.us_per_event": (
            ratio(inclusive("flow.run_flow") * 1e6, tracer.counts["events"]), "us"),
        "flow.next_split.us_per_call": (per_call("flow.next_split", 1e6), "us"),
        "flow.next_split.calls_per_event": (per_event("flow.next_split"), "calls/event"),
        "flow.detect_periodicity.ms_per_call": (per_call("flow.detect_periodicity", 1e3), "ms"),
        "flow.period_drift_max": (period_drift_max(tracer), "flow_t"),
        "delaunay.build_quad.calls_per_event": (per_event("delaunay.build_quad"), "calls/event"),
        "delaunay.delaunay_violations.calls_per_event": (
            per_event("delaunay.delaunay_violations"), "calls/event"),
        "delaunay.flip.us_per_call": (per_call("delaunay.flip", 1e6), "us"),
        "delaunay.greedy_delaunay.ms_per_call": (per_call("delaunay.greedy_delaunay", 1e3), "ms"),
        "delaunay.greedy_delaunay.flips_per_call": (
            ratio(tracer.counts["flips"], n_calls("delaunay.greedy_delaunay")), "flips/call"),
        "traintrack.dual_track.us_per_call": (per_call("traintrack.dual_track", 1e6), "us"),
        "traintrack.dual_track.calls_per_event": (per_event("traintrack.dual_track"), "calls/event"),
        "traintrack.vertex_curves.ms_per_call": (per_call("traintrack.vertex_curves", 1e3), "ms"),
        "traintrack.complementary_regions.us_per_call": (
            per_call("traintrack.complementary_regions", 1e6), "us"),
        "surface.parse_surface.us_per_call": (per_call("surface.parse_surface", 1e6), "us"),
        "surface.validate.us_per_call": (per_call("surface.validate", 1e6), "us"),
        "surface.area.us_per_call": (per_call("surface.area", 1e6), "us"),
        "surface.serialize_surface.us_per_call": (per_call("surface.serialize_surface", 1e6), "us"),
        "cones.analyze_periodic_word.ms_per_call": (
            per_call("cones.analyze_periodic_word", 1e3), "ms"),
        "cones.compose_word.us_per_call": (per_call("cones.compose_word", 1e6), "us"),
        "lab.contraction_experiment.ms_per_call": (
            per_call("lab.contraction_experiment", 1e3), "ms"),
        "lab.contraction_experiment.kept_frac": (
            ratio(tracer.counts["trials_kept"], tracer.counts["trials"]), "ratio"),
        "lab.closing_search.ms_per_call": (per_call("lab.closing_search", 1e3), "ms"),
        "lab.closing_search.next_split_calls_per_call": (
            ratio(in_closing, n_calls("lab.closing_search")), "calls/call"),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.ms_per_call"] = (per_call(f"cli.{sub}", 1e3), "ms")
    m["cli.self_share"] = (ratio(module_self["cli"], cli_time), "ratio")
    for mod in MODULES:
        m[f"{mod}.self_ms_per_job"] = (ratio(module_self[mod] * 1e3, jobs), "ms")
    return m
