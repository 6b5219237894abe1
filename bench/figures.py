"""Reference figures quoted in bench/README.md, measured afresh.

    python3 bench/figures.py

Run from the root of a checkout.  Prints, for seed 1:
  * family_sweep: cold and warm time of each family operation p = 0..5,
    each p in a fresh interpreter;
  * the share of importing jetgeo and jetgeo.cli spent in scipy.integrate;
  * jet multiply calls and operand density of each workload (traced run);
  * force calls and time of each geodesic_routes operation.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)


FAMILY = """
import statistics, time, workloads
op = next(op for op in workloads.family_sweep({seed}, ".") if op.name == "family p={p}")
t = time.perf_counter(); op.run(); cold = time.perf_counter() - t
warm = []
for _ in range(3):
    t = time.perf_counter(); op.run(); warm.append(time.perf_counter() - t)
print(cold, statistics.median(warm))
"""

FORCES = """
import time, numpy as np, spans, workloads
ops = workloads.geodesic_routes({seed}, ".")
for op in ops:
    op.run()
tracer = spans.Tracer()
spans.install(tracer)
force = tracer.intern("geodesics.force")
for op in ops:
    # timed untraced, then run once more traced to count its force spans
    t = time.perf_counter(); op.run(); dt = time.perf_counter() - t
    first = len(tracer.name)
    tracer.active = True
    op.run()
    tracer.active = False
    calls = int(np.count_nonzero(np.frombuffer(tracer.name, np.int32)[first:] == force))
    print(f"{{op.name}}\\t{{calls}}\\t{{dt:.3f}}")
"""


def main() -> int:
    print("family_sweep, seed 1: p, cold s, warm s (median of 3)")
    for p in range(6):
        cold, warm = _python(FAMILY.format(seed=SEED, p=p)).stdout.split()
        print(f"  {p}\t{float(cold):.3f}\t{float(warm):.3f}")

    lines = _python("import jetgeo, jetgeo.cli", "-X", "importtime").stderr.splitlines()
    cumulative = {}
    for line in lines:
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1))
    total = cumulative["jetgeo"] + cumulative.get("jetgeo.cli", 0)
    share = cumulative["scipy.integrate"] / total
    print(f"import jetgeo + jetgeo.cli: {total / 1e6:.3f} s, "
          f"scipy.integrate {cumulative['scipy.integrate'] / 1e6:.3f} s ({share:.0%})")

    print("traced run, seed 1: workload, multiply calls, operand density")
    for wl in ("family_sweep", "general_metrics", "check_suite", "geodesic_routes"):
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", wl,
                              "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        m = json.loads(out.stdout.splitlines()[-1])["metrics"]
        print(f"  {wl}\t{m['jets.multiply_calls']['value']}\t"
              f"{m['jets.multiply_density']['value']:.4%}")

    print("geodesic_routes, seed 1, warm: operation, force calls, s")
    for line in _python(FORCES.format(seed=SEED)).stdout.splitlines():
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
