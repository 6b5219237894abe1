#!/usr/bin/env python3
"""Require the tests to kill one-line mutants of the curvature engine, its
expression tapes and the invariant catalog.

    .github/chart-mutants.py [REV]

For each mutant below the script extracts REV (default HEAD) with
`git archive` into a temporary directory, replaces the mutant's anchor in
the mutant's file, where it must occur exactly once, and runs the tests the
mutant names on that copy.  It prints `killed: <mutant>` when the
tests fail, `survived: <mutant>` when they pass and `error: <mutant>` when
they do not run, and exits 1 unless every mutant is killed and every anchor
occurs exactly once.

M1 reads a moved index's canonical row without its sign (the level steps
fold the sign into their gather of the level's rows), M2 adds the level
step's Christoffel sum instead of subtracting it; the chart-change tests
must kill both.  M2 survives every linear chart (there the sum carries over
term by term), so the tests need their quadratic charts to kill it.  M3
cuts `_plan`'s key test to "no plan kept yet", so a context replays a plan
made for other patterns; the test of a pattern change on one spec, and
the command line's test of repeated inputs in one process, which replay
the metrics the process kept, must kill it.  M4
keys a level step's chain by its operands' rows and columns alone, without
their nonzero masks, so a point whose zeros move within the same columns
runs on another point's term lists; the test of points whose zeros differ
must kill it.  M5, in the expression tapes, has a stacked product read its
first operand twice; the family's metric tapes, checked against the
reference arithmetic of one jet at a time, must kill it.  M6 keys a Neumann
sweep's chain by S's columns alone, without S's nonzero mask, so a point
whose inverse zeros move within the same columns replays another point's
term lists; the same test's case of such a point must kill it.  M7, M8 and
M9 each drop one nonzero mask from a chain's key: the inverse's from Γ²'s,
Γ²'s from level 0's and Γ²'s from the level steps'; the test of points
whose zeros differ, or of a pattern that changes at a special point, must
kill each.  M10 has the invariant catalog's orbit filter skip a factor
list's first relabelling after the identity, the swap where two levels
repeat, so it keeps matchings that are not their orbit's least; the
catalog's canonicalizing loop and the pinned lines of the check's schemas
must kill it.
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CURVATURE = Path("src/jetgeo/curvature.py")
CHARTS = ["tests/test_charts.py"]
ZEROS = "tests/test_curvature.py::test_term_lists_follow_the_zeros_of_each_point"
# name: (file, anchor, mutant, the tests that must kill it)
MUTANTS = {
    "M1, no sign on the moved index": (
        CURVATURE, "rep + (sign < 0) * n", "rep", CHARTS),
    "M2, the Christoffel sum added": (
        CURVATURE, "src.take(right[ts]))), -1)", "src.take(right[ts]))), 1)", CHARTS),
    "M3, a kept plan replayed whatever the patterns": (
        CURVATURE, "kept is None or len(kept[0]) != len(key) or not all(map(_same, kept[0], key))",
        "kept is None",
        ["tests/test_plans.py::test_a_pattern_change_plans_afresh",
         "tests/test_cli.py::test_repeated_inputs_in_one_process_print_what_fresh_ones_print"]),
    "M4, a level step's chain keyed without its operands' masks": (
        CURVATURE, "key = (prev.index, prev.cols, prev.live, g2.index, g2.cols, g2.live)",
        "key = (prev.index, prev.cols, g2.index, g2.cols)", [ZEROS]),
    "M5, a stacked tape product reads its first operand twice": (
        Path("src/jetgeo/expr.py"), "w[1, i, at_b] = regs[rb]", "w[1, i, at_b] = regs[ra]",
        ["tests/test_reference_loops.py::test_family_metric_tapes_match_jet_fold"]),
    "M6, a sweep chain keyed by S's columns alone": (
        CURVATURE, '"chain", (s_cols, s_live), lambda', '"chain", (s_cols,), lambda', [ZEROS]),
    "M7, Γ²'s chain keyed without the inverse's mask": (
        CURVATURE, "(ginv.index, ginv.cols, ginv.live, g1.index", "(ginv.index, ginv.cols, g1.index",
        [ZEROS]),
    "M8, level 0's chain keyed without Γ²'s mask": (
        CURVATURE, "key = (g2.index, g2.cols, g2.live, g.index", "key = (g2.index, g2.cols, g.index",
        ["tests/test_plans.py::test_a_pattern_change_plans_afresh"]),
    "M9, a level step's chain keyed without Γ²'s mask": (
        CURVATURE, "prev.live, g2.index, g2.cols, g2.live)", "prev.live, g2.index, g2.cols)",
        [ZEROS]),
    "M10, the orbit filter skips a relabelling": (
        Path("src/jetgeo/invariants.py"), "for new in np.array(_relabellings(factors))[1:]:",
        "for new in np.array(_relabellings(factors))[2:]:",
        ["tests/test_reference_loops.py::test_catalog_matches_the_canonicalizing_loop",
         "tests/test_reference_loops.py::test_check_schema_lines_are_pinned"]),
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
