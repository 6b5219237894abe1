#!/usr/bin/env python3
"""Require the tests to kill one-line mutants of the curvature engine and its
expression tapes.

    .github/chart-mutants.py [REV]

For each mutant below the script extracts REV (default HEAD) with
`git archive` into a temporary directory, replaces the mutant's anchor in
the mutant's file, where it must occur exactly once, and runs the tests the
mutant names on that copy.  It prints `killed: <mutant>` when the
tests fail, `survived: <mutant>` when they pass and `error: <mutant>` when
they do not run, and exits 1 unless every mutant is killed and every anchor
occurs exactly once.

M1 reads a moved index's canonical row without its sign, M2 adds the
level step's Christoffel sum instead of subtracting it; the chart-change
tests must kill both.  M2 survives every linear chart (there the sum
carries over term by term), so the tests need their quadratic charts to
kill it.  M4 keys a stage product's kept term lists by the product's
columns alone, without the operands' nonzero masks, so a point whose zeros
move within the same columns runs on another point's lists; the test of
points whose zeros differ must kill it.  M5, in the expression tapes, has a
stacked product read its first operand twice; the family's metric tapes,
checked against the reference arithmetic of one jet at a time, must kill
it.
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CURVATURE = Path("src/jetgeo/curvature.py")
CHARTS = ["tests/test_charts.py"]
# name: (file, anchor, mutant, the tests that must kill it)
MUTANTS = {
    "M1, no sign on the moved index": (
        CURVATURE, "right[rep[ts]] * sign[ts, None]", "right[rep[ts]]", CHARTS),
    "M2, the Christoffel sum added": (
        CURVATURE, "sign[ts, None], ord_out), -1)", "sign[ts, None], ord_out), 1)", CHARTS),
    "M4, term lists keyed by the columns alone": (
        CURVATURE, "(cols, live), list)", "(cols,), list)",
        ["tests/test_curvature.py::test_term_lists_follow_the_zeros_of_each_point"]),
    "M5, a stacked tape product reads its first operand twice": (
        Path("src/jetgeo/expr.py"), "w[1, i, at_b] = regs[rb]", "w[1, i, at_b] = regs[ra]",
        ["tests/test_reference_loops.py::test_family_metric_tapes_match_jet_fold"]),
}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: {sys.argv[0]} [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    root = Path(__file__).resolve().parent.parent
    status = 0
    for name, (target, anchor, mutant, tests) in MUTANTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tree = subprocess.run(["git", "-C", str(root), "archive", rev], check=True,
                                  stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=tree, check=True)
            path = Path(tmp) / target
            text = path.read_text()
            if text.count(anchor) != 1:
                print(f"anchor of {name} occurs {text.count(anchor)} times: {anchor!r}")
                status = 1
                continue
            path.write_text(text.replace(anchor, mutant))
            env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                  *tests], cwd=tmp, env=env,
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
