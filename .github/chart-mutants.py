#!/usr/bin/env python3
"""Require the chart-change tests to kill two one-line mutants of the level step.

    .github/chart-mutants.py [REV]

For each mutant below the script extracts REV (default HEAD) with
`git archive` into a temporary directory, replaces the mutant's anchor in
src/jetgeo/curvature.py, which must occur there exactly once, and runs
tests/test_charts.py on that copy.  It prints `killed: <mutant>` when the
tests fail, `survived: <mutant>` when they pass and `error: <mutant>` when
they do not run, and exits 1 unless every mutant is killed and every anchor
occurs exactly once.

M1 reads a moved index's canonical row without its sign, M2 adds the
level step's Christoffel sum instead of subtracting it.  M2 survives every
linear chart (there the sum carries over term by term), so the tests need
their quadratic charts to kill it.
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TARGET = Path("src/jetgeo/curvature.py")
MUTANTS = {
    "M1, no sign on the moved index": ("right[rep[ts]] * sign[ts, None]", "right[rep[ts]]"),
    "M2, the Christoffel sum added": ("sign[ts, None], ord_out), -1)", "sign[ts, None], ord_out), 1)"),
}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: {sys.argv[0]} [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    root = Path(__file__).resolve().parent.parent
    status = 0
    for name, (anchor, mutant) in MUTANTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tree = subprocess.run(["git", "-C", str(root), "archive", rev], check=True,
                                  stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=tree, check=True)
            path = Path(tmp) / TARGET
            text = path.read_text()
            if text.count(anchor) != 1:
                print(f"anchor of {name} occurs {text.count(anchor)} times: {anchor!r}")
                status = 1
                continue
            path.write_text(text.replace(anchor, mutant))
            env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                  "tests/test_charts.py"], cwd=tmp, env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            summary = " ".join(run.stdout.strip().splitlines()[-1:])
            # pytest exits 1 when tests ran and some failed, and 0 when all passed
            verdict = {0: "survived", 1: "killed"}.get(run.returncode, "error")
            print(f"{verdict}: {name} ({summary})")
            if verdict != "killed":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
