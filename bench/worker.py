"""One benchmark worker: a fresh, single-threaded interpreter.

    python3 bench/worker.py --workload W --seed N --workdir D --t0 T
        (--setup-only | --seconds S) [--trace FILE]

T is the parent's time.perf_counter() just before it started this process
(CLOCK_MONOTONIC, one clock for all processes), so the set-up time covers
interpreter start, importing jetgeo and jetgeo.cli, and building the
workload's inputs.  The worker then runs one cold pass over the workload's
operations and warm passes after it for S seconds (whole passes only, at
least one), each warm pass on one CPU in turn.  Each operation is timed
alone; its output is checked after its timed interval.

Without --trace, a `speed.Sampler` runs from the worker's first line to its
last pass, and every time reported (set-up and each operation) is scaled to
full host speed by the probes taken during it.  With --trace no sampler runs
and the times are wall times; the tracer is installed after set-up and
active only while operations run, and the spans go to FILE.  The last line
of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    ap.add_argument("--trace")
    args = ap.parse_args()
    sampler = None if args.trace else speed.Sampler()
    if sampler is not None:
        sampler.start()

    import jetgeo
    import jetgeo.cli  # noqa: F401  (part of the measured set-up)
    import workloads

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(jetgeo.__file__), src]) != src:
        print(f"jetgeo imported from {jetgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup = (args.t0, time.perf_counter())

    def seconds(interval: tuple[float, float]) -> float:
        t0, t1 = interval
        return t1 - t0 if sampler is None else sampler.scaled(t0, t1)

    if args.setup_only:
        if sampler is not None:
            sampler.stop()
        print(json.dumps({"setup_s": seconds(setup)}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    attempted = failed = 0
    problems: list[str] = []

    def one_pass() -> list[tuple[float, float]]:
        nonlocal attempted, failed
        memo: dict = {}
        intervals = []
        for op in ops:
            if tracer is not None:
                tracer.active = True
            t = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a raising operation counts as failed
                out, err = None, exc
            intervals.append((t, time.perf_counter()))
            if tracer is not None:
                tracer.active = False
            found = ([f"raised {type(err).__name__}: {err}"] if err is not None
                     else op.check(out, memo))
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{op.name}: {msg}" for msg in found if not op.tolerates(msg))
        return intervals

    # position in the pass -> index of the operation, the same for every
    # appearance of one operation
    index: dict[int, int] = {}
    order = [index.setdefault(id(op), len(index)) for op in ops]
    cold = one_pass()
    warm: list[list[tuple[float, float]]] = []
    start = time.monotonic()
    # Warm pass i runs on the i-th CPU this process may use, cyclically, so
    # an operation's repeats see every CPU of the shared host.
    cpus = sorted(os.sched_getaffinity(0))
    while not warm or time.monotonic() - start < args.seconds:
        os.sched_setaffinity(0, {cpus[len(warm) % len(cpus)]})
        warm.append(one_pass())
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": seconds(setup),
        "order": order,
        "cold": [seconds(iv) for iv in cold],
        "warm": [[seconds(iv) for iv in p] for p in warm],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
