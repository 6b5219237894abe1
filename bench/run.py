"""jetgeo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; jetgeo is imported from its `src/`.
Workers run one at a time, each a fresh interpreter with BLAS and OpenMP
pinned to one thread.

--trace 0 measures the end-to-end metrics with five workers.  Each sets up
(imports jetgeo and jetgeo.cli, builds the inputs); the first and third
then run one cold pass over the workload's operations and warm passes for
S/2 seconds each.  The other three run one cold and one warm pass when the
first worker's cold and first warm pass took under S/2 seconds together,
and stop after set-up otherwise.  Every time a worker reports is scaled to
full host speed by speed.py.  setup_s is the median set-up time of the
five; cold_pass_s sums over the pass each position's median cold time over
the workers that ran passes, and the warm metrics use each operation's
median over all its repeats in their warm passes.

--trace 1 measures the per-layer metrics.  One worker runs a cold and one
warm pass untraced, a second runs the same passes with spans recorded
around every jetgeo entry point; trace.overhead_s is the difference of
their operation times.  The spans are saved under bench/_work/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output that
is not a known fault checked out, 1 when one did not, and 2 or 3 (with no
result printed) when the run could not be made.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("family_sweep", "general_metrics", "check_suite", "geodesic_routes")
SETUP_SAMPLES = 5       # fresh interpreters whose set-up time is taken
MEASURED = (0, 2)       # of them, those that go on to run passes for S/2 s
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: argparse.Namespace, workdir: Path, deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _untraced(args, workdir, deadline):
    # measuring workers interleaved with the others, so that every kind of
    # sample spreads over the run
    setups, runs = [], []
    for i in range(SETUP_SAMPLES):
        if i in MEASURED:
            mode = ("--seconds", str(args.seconds / len(MEASURED)))
        elif sum(runs[0]["cold"]) + sum(runs[0]["warm"][0]) < args.seconds / 2:
            # a cold and a warm pass this cheap are worth more samples
            mode = ("--seconds", "0")
        else:
            mode = ("--setup-only",)
        out = _worker(args, workdir, deadline, *mode)
        setups.append(out["setup_s"])
        if "cold" in out:
            runs.append(out)
    # Every time is scaled to full host speed (speed.py).  Cold times are
    # per position in the pass, the median over the workers that ran a
    # pass, then summed; warm times are each operation's median over all
    # its repeats.
    cold = [statistics.median(times) for times in zip(*(r["cold"] for r in runs))]
    repeats: dict[int, list[float]] = {}
    for times in (p for r in runs for p in r["warm"]):
        for i, t in zip(runs[0]["order"], times):
            repeats.setdefault(i, []).append(t)
    per_op = [statistics.median(ts) for ts in repeats.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_pass_s": (sum(cold), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "ops/s"),
        "op_p50_ms": (1000.0 * statistics.median(per_op), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return runs, metrics


def _traced(args, workdir, deadline):
    plain = _worker(args, workdir, deadline, "--seconds", "0")
    trace_file = BENCH / "_work" / f"trace-{args.workload}.npz"
    traced = _worker(args, workdir, deadline, "--seconds", "0", "--trace", str(trace_file))
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    overhead = (sum(traced["cold"]) + sum(map(sum, traced["warm"]))
                - sum(plain["cold"]) - sum(map(sum, plain["warm"])))
    metrics["trace.overhead_s"] = (overhead, "s")
    return [plain, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run raises SystemExit inside subprocess.run, which then
    # kills the running worker and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "jetgeo" / "__init__.py").is_file():
        print(f"no jetgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # byte-compile up front so no worker's set-up pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = _traced if args.trace else _untraced
        workers, metrics = run(args, workdir, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [msg for w in workers for msg in w["problems"]]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
