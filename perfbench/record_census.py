#!/usr/bin/env python3
"""Regenerate census_record.json: the exit codes and output digests of every
input in the census universe, as the current veertrack produces them.

    python3 perfbench/record_census.py

The census workload requires each invocation to reproduce its record, so
rerun this only on a commit whose census outputs are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from workloads import RECORD, CensusUnit, Client, census_outcome  # noqa: E402

from veertrack import cli  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    record, codes = {}, Counter()
    client = Client(cli.main)
    try:
        for name in inputs.CENSUS_SAMPLE:
            for index in range(inputs.CENSUS_UNIVERSE):
                unit = CensusUnit(name, index, work, {})
                outcome = census_outcome(client.run(unit))
                record[unit.input_sha] = outcome
                codes[(name, tuple(rc for rc, _ in outcome))] += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(record.items())]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    for (name, rcs), k in sorted(codes.items()):
        print(f"{name}: exit codes {list(rcs)} on {k} inputs")
    print(f"wrote {len(record)} entries to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
