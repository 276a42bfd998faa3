"""The benchmark's workloads: which CLI commands run on which inputs, the
checks their outputs must pass, and the closed loop that runs them.

A workload is a list of units.  A unit is one input with a fixed sequence of
CLI invocations (`run`) and a check of one round of their results (`check`),
which returns (step, problem) pairs for the invocations found wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs

RECORD = Path(__file__).resolve().parent / "census_record.json"
MIN_SAMPLES = 40  # so that p75 has ten samples beyond it


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    output: bytes | None  # contents of the file the command wrote, if any
    seconds: float

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (str(self.rc), self.stdout, self.stderr):
            h.update(part.encode())
            h.update(b"\0")
        h.update(self.output if self.output is not None else b"<none>")
        return h.hexdigest()


class Unit:
    key: str
    # (events per period, flow time per period) when the input sits on a
    # known periodic orbit, else None
    period = None

    def run(self, call) -> None:
        raise NotImplementedError

    def check(self, results: list[Result]) -> list[tuple[int, str]]:
        raise NotImplementedError


def _expect_success(results):
    return [(k, f"exit {r.rc}: {r.stderr.strip()[:200]}") for k, r in enumerate(results) if r.rc != 0]


# ---------------------------------------------------------------------------
# orbits: slope tori on known periodic orbits


class OrbitUnit(Unit):
    def __init__(self, n: int, window: float, doc: Path, out: Path):
        self.n, self.window, self.doc, self.out = n, window, doc, out
        self.key = f"x{n}-T{window}"
        self.period = (2 * n, inputs.period_t(n))

    def run(self, call):
        call(["analyze", "--input", str(self.doc), "--time", repr(self.window),
              "--report", str(self.out)], self.out)

    def check(self, results):
        bad = _expect_success(results)
        if bad:
            return bad
        rep = json.loads(results[0].output)
        lam = inputs.slope(self.n) ** 2
        problems = []
        if not abs(rep["lam_w"] - lam) <= 1e-8 * lam:
            problems.append(f"lam_w {rep['lam_w']!r}, expected {lam!r}")
        if len(rep["word"]) != 2 * self.n:
            problems.append(f"word length {len(rep['word'])}, expected {2 * self.n}")
        if rep["is_pseudo_anosov"] is not True:
            problems.append("not reported pseudo-Anosov")
        if not abs(rep["lam_w"] * rep["lam_h"] - 1) <= 1e-6:
            problems.append(f"lam_w * lam_h = {rep['lam_w'] * rep['lam_h']!r}")
        return [(0, "; ".join(problems))] if problems else []


def orbit_units(rng: random.Random, work: Path) -> list[Unit]:
    units = []
    for n in inputs.SLOPE_NS:
        doc = inputs.write(work / f"x{n}.json", inputs.slope_torus_doc(n))
        for j, window in enumerate(inputs.windows(rng)):
            units.append(OrbitUnit(n, window, doc, work / f"out-x{n}-{j}"))
    return units


# ---------------------------------------------------------------------------
# census: exact whole-surface work on sheared fixtures

CENSUS = {"t2": "regions: {2: 1}", "pillow": "regions: {1: 4}", "octagon": "regions: {6: 1}"}


def census_outcome(results: list[Result]) -> list:
    """Exit code and output digest of each invocation of a unit: what the
    record pins for each input."""
    return [[r.rc, r.digest()[:16]] for r in results]


class CensusUnit(Unit):
    def __init__(self, name: str, index: int, work: Path, record: dict):
        self.name, self.index = name, index
        self.key = f"{name}-{index}"
        self.text = inputs.census_doc(name, index)
        self.doc = inputs.write(work / f"{self.key}.json", self.text)
        self.reduced = work / f"{self.key}-reduced.json"
        self.input_sha = hashlib.sha256(self.text.encode()).hexdigest()
        self.record = record.get(self.input_sha)

    def run(self, call):
        call(["validate", "--input", str(self.doc)])
        rc = call(["delaunay", "--input", str(self.doc), "--output", str(self.reduced)], self.reduced)
        # a documented degeneracy (exit 2) leaves no reduced document; the
        # tracks are then taken on the input triangulation
        track_input = self.reduced if rc == 0 else self.doc
        for direction in ("vertical", "horizontal"):
            call(["track", "--input", str(track_input), "--direction", direction, "--vertex-curves"])

    def check(self, results):
        if self.record is None:
            return [(k, f"input {self.key} has no entry in {RECORD.name}") for k in range(len(results))]
        problems = []
        if results[0].rc != 0 or not results[0].stdout.startswith("ok:"):
            problems.append((0, f"validate: exit {results[0].rc}, {results[0].stdout.strip()[:120]}"))
        red = results[1]
        if red.rc == 0:
            if inputs.exact_area(red.output.decode()) != inputs.exact_area(self.text):
                problems.append((1, "reduced document changes the exact area"))
        elif red.rc != 2 or not red.stderr.startswith("degeneracy:"):
            problems.append((1, f"delaunay: exit {red.rc}, {red.stderr.strip()[:120]}"))
        want = CENSUS[self.name]
        for k in (2, 3):
            if results[k].rc != 0 or want not in results[k].stdout.splitlines():
                problems.append((k, f"track: exit {results[k].rc}, expected {want}"))
        got = census_outcome(results)
        for k, (outcome, recorded) in enumerate(zip(got, self.record)):
            if outcome != recorded:
                problems.append((k, f"exit code and digest {outcome} differ from the record {recorded}"))
        if len(got) != len(self.record):
            problems.append((len(got) - 1, f"{len(got)} invocations, the record has {len(self.record)}"))
        return problems


def census_units(rng: random.Random, work: Path) -> list[Unit]:
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    return [
        CensusUnit(name, index, work, record)
        for name, size in inputs.CENSUS_SAMPLE.items()
        for index in sorted(rng.sample(range(inputs.CENSUS_UNIVERSE), size))
    ]


# ---------------------------------------------------------------------------
# lab: contraction fits and closing searches

CONTRACT_LINE = re.compile(
    r"alpha_hat (\S+), C_hat (\S+), R\^2 (\S+), dropped (\d+)$"
)


class LabUnit(Unit):
    """Two contraction fits and one closing search on the slope torus x_n.
    Two fits per search keep the median invocation inside the fits rather
    than on the gap between the fast fits and the slow searches."""

    def __init__(self, n: int, seeds: tuple[int, int, int], doc: Path, out: Path):
        self.n, self.seeds, self.doc, self.out = n, seeds, doc, out
        self.key = f"x{n}-seeds{'-'.join(map(str, seeds))}"

    def run(self, call):
        periods = 4 * inputs.period_t(self.n)
        for seed in self.seeds[:2]:
            call(["contract", "--input", str(self.doc), "--time", repr(periods), "--trials", "6",
                  "--seed", str(seed)])
        call(["close", "--input", str(self.doc), "--delta", "1e-3", "--seed", str(self.seeds[2]),
              "--output", str(self.out)], self.out)

    def check(self, results):
        bad = _expect_success(results)
        if bad:
            return bad
        problems = []
        for k in (0, 1):
            fit = CONTRACT_LINE.match(results[k].stdout.strip())
            if fit is None:
                problems.append((k, f"unreadable fit {results[k].stdout.strip()!r}"))
            elif not (abs(float(fit[1]) - 2) <= 0.01 and float(fit[3]) >= 0.999):
                problems.append((k, f"alpha {fit[1]} or R^2 {fit[3]} out of range"))
        doc = json.loads(results[2].output)
        lam = inputs.slope(self.n) ** 2
        if not (doc["converged"] is True and doc["residual"] < 1e-10
                and abs(doc["lam_w"] - lam) <= 1e-8 and len(doc["word"]) == 2 * self.n):
            problems.append((2, f"close: converged {doc['converged']}, residual {doc['residual']!r}, "
                                f"lam_w {doc['lam_w']!r}, word length {len(doc['word'])}"))
        return problems


def lab_units(rng: random.Random, work: Path) -> list[Unit]:
    units = []
    for n in inputs.LAB_NS:
        doc = inputs.write(work / f"x{n}.json", inputs.slope_torus_doc(n))
        for j in range(inputs.LAB_SEEDS_PER_N):
            seeds = tuple(rng.randrange(2**31) for _ in range(3))
            units.append(LabUnit(n, seeds, doc, work / f"close-x{n}-{j}.json"))
    return units


WORKLOADS = {
    "orbits": orbit_units,
    "census": census_units,
    "lab": lab_units,
}


# ---------------------------------------------------------------------------
# the closed loop


class Client:
    """Runs units through a CLI entry point and keeps what each call did."""

    def __init__(self, main):
        self.main = main
        self.results: list[Result] = []

    def call(self, argv, output: Path | None = None) -> int:
        if output is not None:
            output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a wrong answer, not a benchmark crash
                rc = -1
                err.write(traceback.format_exc())
            seconds = perf_counter() - t0
        data = output.read_bytes() if output is not None and output.exists() else None
        self.results.append(Result(rc, out.getvalue(), err.getvalue(), data, seconds))
        return rc

    def run(self, unit) -> list[Result]:
        first = len(self.results)
        unit.run(self.call)
        got = self.results[first:]
        del self.results[first:]
        return got


@dataclass
class Phase:
    times: list[list[float]]  # per distinct invocation, its time in each round
    expected: list[list]  # per unit, the digest each step must reproduce
    attempted: int
    failed: int
    problems: list[str]

    def fastest(self) -> list[float]:
        """The quickest repeats of each distinct invocation, pooled: as few
        per invocation as give MIN_SAMPLES in all.  Slower repeats of the
        same call measure other load on the machine, not the program."""
        keep = -(-MIN_SAMPLES // len(self.times))
        return [t for ts in self.times for t in sorted(ts)[:keep]]


def _check(unit, results) -> list[tuple[int, str]]:
    try:
        return unit.check(results)
    except Exception as exc:  # an unreadable output fails every step
        return [(k, f"check raised {exc!r}") for k in range(len(results))]


def closed_loop(units, main, seconds: float, expected=None, before_unit=None) -> Phase:
    """Rounds over the units until `seconds` have passed; the first round
    always completes, so every distinct invocation is timed at least once.

    Without `expected`, the first round's outputs are checked in full and
    their digests become the expectation.  An invocation fails when its exit
    code and outputs differ from the expected digest of its step."""
    client = Client(main)
    times: dict[tuple[int, int], list[float]] = {}
    problems, attempted, failed = [], 0, 0
    check = expected is None
    expected = [] if check else list(expected)
    deadline = perf_counter() + seconds
    first_round = True
    while first_round or perf_counter() < deadline:
        for i, unit in enumerate(units):
            if not first_round and perf_counter() >= deadline:
                break
            if before_unit is not None:
                before_unit(unit)
            got = client.run(unit)
            if check and first_round:
                found = _check(unit, got)
                problems += [f"{unit.key} step {k}: {msg}" for k, msg in found]
                bad = {k for k, _ in found}
                expected.append([None if k in bad else r.digest() for k, r in enumerate(got)])
            want = expected[i]
            for k, r in enumerate(got):
                attempted += 1
                failed += k >= len(want) or r.digest() != want[k]
                times.setdefault((i, k), []).append(r.seconds)
        first_round = False
    return Phase(list(times.values()), expected, attempted, failed, problems)
