#!/usr/bin/env python3
"""Mutation sweep of the package's raise guards: can each one fail?

Every `if` or `elif` in src/veertrack whose body starts with `raise` is a
guard.  The sweep copies the checkout and first runs tier-1 there
unmutated; if that run does not pass, it prints the run's output and stops,
since no mutant could then be told from a broken copy.  Then, for each
guard in turn, its condition is replaced by `False` and tier-1 runs with
`-x`.  A guard whose mutant fails a test is killed: some test makes it fire.
One whose mutant passes survived: no test can tell the guard from its
absence.  A run that ends otherwise (a collection or usage error, or no
result within TIMEOUT seconds) proves nothing and is printed as such.
Prints one line per guard, then the counts; exits 1 unless every run gave
a result.  The checkout itself is never written.

    python3 scripts/mutants.py
"""

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src") / "veertrack"
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
TIMEOUT = 600  # seconds per tier-1 run; stops a mutant that makes the suite loop
PASSED, FAILED = 0, 1  # pytest's exit codes; any other code is an error


def guards(source: bytes) -> list[ast.If]:
    """The ifs of source whose body starts with a raise, in line order."""
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise)
    ]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def mutate(source: bytes, node: ast.If) -> bytes:
    """source with the condition of node replaced by False; ast offsets
    count UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    test = node.test
    head = lines[test.lineno - 1][: test.col_offset]
    tail = lines[test.end_lineno - 1][test.end_col_offset :]
    return b"".join(lines[: test.lineno - 1] + [head + b"False" + tail] + lines[test.end_lineno :])


def tier1(copy: pathlib.Path) -> tuple[str, bytes]:
    """("passed" | "failed" | "error" | "timeout", output) of tier-1 in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        return "timeout", exc.stdout or b""
    outcome = {PASSED: "passed", FAILED: "failed"}.get(done.returncode, "error")
    return outcome, done.stdout


def main() -> int:
    counts = {"killed": 0, "survived": 0, "error": 0, "timeout": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=NOT_COPIED)
        outcome, output = tier1(copy)
        if outcome != "passed":
            sys.stdout.write(output.decode("utf-8", "replace"))
            print(f"tier-1 does not pass unmutated ({outcome}); no guard swept")
            return 1
        for path in sorted((copy / PACKAGE).glob("*.py")):
            source = path.read_bytes()
            for node in guards(source):
                path.write_bytes(mutate(source, node))
                try:
                    outcome, _ = tier1(copy)
                finally:
                    path.write_bytes(source)
                verdict = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
                counts[verdict] += 1
                cond = " ".join(ast.get_source_segment(source.decode("utf-8"), node.test).split())
                print(f"{verdict:8} {path.name}:{node.lineno}  {cond}", flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()), f"of {sum(counts.values())} guards")
    return 0 if counts["error"] == counts["timeout"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
