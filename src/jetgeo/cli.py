"""Command-line front end.

Three subcommands share one metric-loading path:

  curvature   sparse listing of the level-k curvature tensor at a point
  alpha       grid sweep of the invariant ratio with a constancy verdict
  check       named property suite with PASS / FAIL / SKIP per check

Exit codes: 0 success, 1 failed check, 2 bad input, 3 numeric failure.
Output is deterministic for a fixed argument list (seeded sampling, repr
floats, sorted listings); CSV bodies are LF-terminated with a header row
restated in a `# schema:` comment.

A process that calls `main` more than once keeps the metrics of its last
`KEPT_INPUTS` metric inputs, least recently used first out: a `--family`
text, or the bytes of a `--spec` file, which is read on every call.  A
command whose input is kept replays the plans, profile tapes and compiled
geodesic force kept on its metric, which prints what a fresh build prints,
byte for byte.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import expr as ex
from . import family as fam
from . import geodesics as geo
from . import invariants as inv
from .curvature import (
    CurvatureContext,
    DegeneratePlaneError,
    jacobi_operator,
    skew_curvature_operator,
)
from .jets import JetOrderError, JetSpaceSizeError, NonFiniteError
from .metric import MetricSpec, SignatureError, SingularMetricError, metric_from_dict

__all__ = ["main", "build_parser"]

MAX_K = 8
CHECK_SAMPLES = 50


class CliInputError(ValueError):
    """Bad command-line input; maps to exit code 2."""


_NUMERIC_ERRORS = (
    NonFiniteError,
    SingularMetricError,
    SignatureError,
    JetOrderError,
    geo.StepCollapseError,
    geo.TriangularStructureError,
    fam.IllPosedSampleError,
    DegeneratePlaneError,
    np.linalg.LinAlgError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)

_INPUT_ERRORS = (
    CliInputError,
    ex.ParseError,
    fam.PositivityError,
    inv.CapsExceededError,
    JetSpaceSizeError,
)


# ------------------------------------------------------------------ loading
@dataclass(frozen=True)
class LoadedMetric:
    spec: MetricSpec
    params: fam.FamilyParams | None  # set when the metric is a family member
    label: str


def _parse_family(text: str) -> fam.FamilyParams:
    m = re.fullmatch(r"\s*p\s*=\s*(-?\d+)\s*,\s*f\s*=\s*(.+)", text)
    if m is None:
        raise CliInputError(f"--family must look like p=<int>,f=<expr>, got {text!r}")
    try:
        profile = ex.parse(m.group(2), ("y",))
    except ex.ParseError as err:
        raise CliInputError(f"bad profile expression: {err}") from None
    try:
        return fam.FamilyParams(int(m.group(1)), profile)
    except ValueError as err:
        raise CliInputError(str(err)) from None


# Inputs kept per table.  A kept family metric holds 42-301 KiB after one
# command at p = 0..8, and 3.7 MB at p = 11, the largest family a command
# accepts, with every depth 0-8 planned: 8 of them hold at most about 30 MB.
KEPT_INPUTS = 8


@functools.lru_cache(maxsize=KEPT_INPUTS)
def _family_metric(text: str) -> tuple[fam.FamilyParams, MetricSpec]:
    # keyed by the --family text: equal profiles may print differently (-0.0)
    params = _parse_family(text)
    return params, fam.build_metric(params)


@functools.lru_cache(maxsize=KEPT_INPUTS)
def _spec_metric(data: bytes) -> MetricSpec:
    # read as load_metric reads a file: UTF-8 text with universal newlines
    return metric_from_dict(json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")))


def _load_metric(args: argparse.Namespace) -> LoadedMetric:
    if args.family is not None:
        params, spec = _family_metric(args.family)
        label = f"family p={params.p} f={ex.to_text(params.profile)}"
        return LoadedMetric(spec, params, label)
    path = Path(args.spec)
    try:
        spec = _spec_metric(path.read_bytes())  # read afresh: the file may have changed
    except FileNotFoundError:
        raise CliInputError(f"spec file not found: {path}") from None
    except OSError as err:
        raise CliInputError(f"cannot read spec file {path}: {err.strerror}") from None
    except (json.JSONDecodeError, IndexError, KeyError, TypeError, ValueError) as err:
        raise CliInputError(f"bad spec file {path}: {err}") from None
    return LoadedMetric(spec, None, f"spec {path}")


def _parse_point(text: str, dim: int) -> tuple[float, ...]:
    parts = [s.strip() for s in text.split(",")]
    try:
        vals = tuple(float(s) for s in parts)
    except ValueError:
        raise CliInputError(f"--point must be comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise CliInputError(f"--point must be finite, got {text!r}")
    if len(vals) != dim:
        raise CliInputError(f"--point needs {dim} coordinates, got {len(vals)}")
    return vals


def _parse_grid(text: str) -> tuple[str, np.ndarray]:
    m = re.fullmatch(r"\s*([A-Za-z_]\w*)\s*=\s*([^:]+):([^:]+):(\d+)\s*", text)
    if m is None:
        raise CliInputError(f"--grid must look like var=lo:hi:n, got {text!r}")
    try:
        lo, hi = float(m.group(2)), float(m.group(3))
    except ValueError:
        raise CliInputError(f"bad grid bounds in {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliInputError(f"grid bounds must be finite, got {text!r}")
    n = int(m.group(4))
    if n < 1:
        raise CliInputError("grid needs at least one sample")
    try:
        return m.group(1), np.linspace(lo, hi, n)
    except (MemoryError, ValueError):  # numpy refuses the size before it allocates
        raise CliInputError(f"cannot hold a grid of {n} samples") from None


def _emit(lines: Sequence[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as err:
            raise CliInputError(f"cannot write --out {out}: {err.strerror}") from None
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------- curvature
def cmd_curvature(args: argparse.Namespace) -> int:
    loaded = _load_metric(args)
    spec = loaded.spec
    if args.point is None:
        raise CliInputError("curvature needs --point")
    point = _parse_point(args.point, spec.dim)
    k = args.k
    if not 0 <= k <= MAX_K:
        raise CliInputError(f"--k must be in 0..{MAX_K}")

    ctx = CurvatureContext(spec, point, max_deriv=k)
    comp = ctx.curvature(k).components
    cols = ["i1", "i2", "i3", "i4"] + [f"d{j + 1}" for j in range(k)] + ["value"]
    lines = [
        "# jetgeo curvature",
        f"# metric: {loaded.label}",
        f"# point: {','.join(repr(float(v)) for v in point)}",
        f"# k: {k}",
        f"# schema: {','.join(cols)}",
        ",".join(cols),
    ]
    if comp:
        for idx in sorted(comp):
            names = [spec.coords[i] for i in idx]
            lines.append(",".join(names + [repr(float(comp[idx]))]))
    else:
        lines.append("# no non-zero components")
    if loaded.params is not None:
        delta = fam.oracle_delta(loaded.params, point, k, context=ctx)
        lines.append(f"# oracle_max_delta: {repr(float(delta))}")
    _emit(lines, args.out)
    return 0


# ------------------------------------------------------------------- alpha
def cmd_alpha(args: argparse.Namespace) -> int:
    loaded = _load_metric(args)
    if loaded.params is None:
        raise CliInputError("alpha needs --family (the ratio uses the profile)")
    params = loaded.params
    if args.grid is None:
        raise CliInputError("alpha needs --grid y=lo:hi:n")
    var, ys = _parse_grid(args.grid)
    if var != "y":
        raise CliInputError(f"alpha sweeps the y coordinate, got grid over {var!r}")

    rows = []
    jac_delta = 0.0
    for y in ys:
        try:
            a = fam.alpha_closed_form(params, float(y))
            ap = fam.alpha_prime(params, float(y))
        except fam.PositivityError as err:
            raise CliInputError(str(err)) from None
        ctx = CurvatureContext(loaded.spec, fam.base_point(params, float(y)), params.p + 3)
        aj = fam.alpha_via_jacobi(params, ctx.point, context=ctx)
        jac_delta = max(jac_delta, abs(aj - a))
        rows.append((float(y), a, ap))

    lines = [
        "# jetgeo alpha",
        f"# metric: {loaded.label}",
        "# schema: y,alpha,alpha_prime",
        "y,alpha,alpha_prime",
    ]
    for y, a, ap in rows:
        lines.append(f"{repr(y)},{repr(a)},{repr(ap)}")
    lines.append(f"# jacobi_max_delta: {repr(float(jac_delta))}")
    lines.append(f"# verdict: {fam.alpha_verdict([r[1] for r in rows])}")
    _emit(lines, args.out)
    return 0


# ------------------------------------------------------------------- check
def _sym_deviation(comp) -> float:
    """Largest violation of the algebraic identities at one level."""
    worst = 0.0
    for idx, v in comp.items():
        a, b, c, d = idx[:4]
        rest = idx[4:]
        worst = max(worst, abs(v + comp.get((b, a, c, d) + rest, 0.0)))
        worst = max(worst, abs(v + comp.get((a, b, d, c) + rest, 0.0)))
        worst = max(worst, abs(v - comp.get((c, d, a, b) + rest, 0.0)))
        cyc = (
            v
            + comp.get((b, c, a, d) + rest, 0.0)
            + comp.get((c, a, b, d) + rest, 0.0)
        )
        worst = max(worst, abs(cyc))
    return float(worst)


def _bianchi2_deviation(comp1) -> float:
    worst = 0.0
    for (a, b, c, d, e), v in comp1.items():
        s = (
            v
            + comp1.get((a, b, d, e, c), 0.0)
            + comp1.get((a, b, e, c, d), 0.0)
        )
        worst = max(worst, abs(s))
    return float(worst)


def _squared_operators(ctx: CurvatureContext, draws: np.ndarray) -> float:
    """Largest |entry| of J(x)^2 and R(e1, e2)^2 over the samples (x, e1,
    e2) of `draws` (N, 3, m), skipping degenerate planes, as the fold
    `worst = max(worst, v)` from 0.0 over the samples gives it: that fold
    never takes a nan, so the order of the values does not change it."""
    ops = [jacobi_operator(ctx, draws[:, 0])]
    try:
        ops.append(skew_curvature_operator(ctx, draws[:, 1], draws[:, 2]))
    except DegeneratePlaneError:  # rare: one plane at a time, skipping the degenerate ones
        for _, e1, e2 in draws:
            with contextlib.suppress(DegeneratePlaneError):
                ops.append(skew_curvature_operator(ctx, e1, e2)[None])
    return max([0.0, *(v for op in ops for v in np.abs(np.matmul(op, op)).max(axis=(1, 2)).tolist())])


def _check_suite(
    loaded: LoadedMetric, point, seed: int, tol: float
) -> list[tuple[str, str, str]]:
    """(name, status, detail) per check; status is PASS, FAIL, SKIP or
    FAIL-PRECONDITION."""
    spec = loaded.spec
    params = loaded.params
    rng = np.random.default_rng(seed)
    results: list[tuple[str, str, str]] = []
    geo_tol = max(tol, 1e-9)

    def report(name: str, ok: bool, detail: str) -> None:
        results.append((name, "PASS" if ok else "FAIL", detail))

    # the deepest level read: 1 by a spec's checks, p + 2 (at least 2) by the family's
    max_deriv = 1 if params is None else max(2, params.p + 2)
    ctx = CurvatureContext(spec, point, max_deriv=max_deriv)
    comp0 = ctx.curvature(0).components
    comp1 = ctx.curvature(1).components
    scale = max([abs(v) for v in comp0.values()] + [1.0])

    dev = max(_sym_deviation(comp0), _sym_deviation(comp1))
    report("symmetry", dev <= tol * scale, f"max deviation {repr(dev)}")

    dev = _bianchi2_deviation(comp1)
    report("bianchi_2", dev <= tol * scale, f"max deviation {repr(dev)}")

    if params is not None:
        cat = inv.catalog(3, 2)
        schemas = cat.schemas + inv.random_schemas(100, 3, 2, seed)
        inv_scale = max(
            [scale] + [abs(v) for k in (1, 2) for v in ctx.curvature(k).values.tolist()]
        )
        values = inv.evaluate_many(schemas, spec, point, context=ctx)
        worst = max([0.0] + [abs(v) for v in values.tolist()])
        report("weyl_vanishing", worst <= tol * inv_scale,
               f"{len(schemas)} schemas, max |value| {repr(worst)}")

        dev = float(np.max(np.abs(ctx.ricci())))
        report("ricci_flat", dev <= tol * scale, f"max |Ric| {repr(dev)}")

        worst = _squared_operators(ctx, rng.standard_normal((CHECK_SAMPLES, 3, spec.dim)))
        report("nilpotency", worst <= tol * max(scale * scale, 1.0),
               f"max squared-operator entry {repr(worst)}")

        try:
            dev = fam.frame_model_deviation(params, point, context=ctx)
            report("frame_model", dev <= max(tol, 1e-9), f"max component gap {repr(dev)}")
        except fam.PositivityError as err:
            results.append(("frame_model", "FAIL-PRECONDITION", str(err)))
    else:
        vals = {n: inv.evaluate(inv.NAMED_SCHEMAS[n], spec, point, context=ctx)
                for n in ("tau", "r2", "ric2")}
        shown = ", ".join(f"{n}={repr(float(v))}" for n, v in vals.items())
        if all(v == 0.0 for v in vals.values()):  # nothing to control against
            results.append(("weyl_control", "SKIP", f"all three vanish here: {shown}"))
        else:
            report("weyl_control", all(np.isfinite(v) for v in vals.values()),
                   f"expected-nonzero control: {shown}")
        for name in ("ricci_flat", "nilpotency", "frame_model"):
            results.append((name, "SKIP", "family metrics only"))

    v0 = 0.5 * rng.standard_normal(spec.dim)
    prob = geo.GeodesicProblem(spec, tuple(point), velocity=tuple(v0), t_end=1.0)
    rk = geo.solve_geodesic(prob, method="rk")
    en = geo.energy_along(spec, rk)
    drift = float(np.max(np.abs(en - en[0])))
    detail = [f"rk energy drift {repr(drift)}"]
    ok = drift <= geo_tol * max(abs(en[0]), 1.0)
    try:
        tri = geo.solve_geodesic(prob, method="triangular")
    except geo.TriangularStructureError as err:
        detail.append(f"direct route skipped: {err}")
    else:
        gap = float(np.max(np.abs(tri.u - rk.u)))
        detail.append(f"route gap {repr(gap)}")
        ok = ok and gap <= geo_tol
        target = tri.u[-1]
        back = geo.exp_map(spec, point, geo.log_map(spec, point, target))
        rt = float(np.max(np.abs(back - target)))
        detail.append(f"exp(log) gap {repr(rt)}")
        ok = ok and rt <= geo_tol
    report("geodesic_roundtrip", ok, ", ".join(detail))
    return results


def cmd_check(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise CliInputError(f"--tol must be finite and >= 0, got {args.tol!r}")
    if args.seed < 0:
        raise CliInputError(f"--seed must be >= 0, got {args.seed}")
    loaded = _load_metric(args)
    spec = loaded.spec
    if args.point is not None:
        point = _parse_point(args.point, spec.dim)
    elif loaded.params is not None:
        point = fam.base_point(loaded.params, 0.0)
    else:
        raise CliInputError("check needs --point for a non-family spec")

    results = _check_suite(loaded, point, args.seed, args.tol)
    lines = [
        "# jetgeo check",
        f"# metric: {loaded.label}",
        f"# point: {','.join(repr(float(v)) for v in point)}",
        f"# seed: {args.seed}",
        f"# tol: {repr(args.tol)}",
    ]
    lines += [f"{name}: {status} ({detail})" for name, status, detail in results]
    failed = any(status.startswith("FAIL") for _, status, _ in results)
    lines.append(f"RESULT: {'FAIL' if failed else 'PASS'}")
    _emit(lines, args.out)
    return 1 if failed else 0


# ------------------------------------------------------------------ parser
def _add_common(p: argparse.ArgumentParser, point: bool, grid: bool, k: bool) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--family", metavar="p=<int>,f=<expr>", help="family parameters")
    g.add_argument("--spec", metavar="FILE", help="metric spec JSON file")
    if point:
        p.add_argument("--point", metavar="c1,...,cn",
                       help="evaluation point; write --point=-0.5,0.1 when it starts with a minus")
    if grid:
        p.add_argument("--grid", metavar="var=lo:hi:n", help="sweep grid")
    if k:
        p.add_argument("--k", type=int, default=0, metavar="INT",
                       help=f"covariant-derivative order (0..{MAX_K})")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetgeo",
        description="Curvature tables, invariant sweeps, and property checks "
        "for symbolic metric specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="sparse level-k curvature listing at a point")
    _add_common(p, point=True, grid=False, k=True)

    p = sub.add_parser("alpha", help="invariant-ratio sweep over a y grid")
    _add_common(p, point=False, grid=True, k=False)

    p = sub.add_parser("check", help="named property suite")
    _add_common(p, point=True, grid=False, k=False)
    p.add_argument("--seed", type=int, default=0, metavar="INT",
                   help="seed for randomized sampling")
    p.add_argument("--tol", type=float, default=1e-10, metavar="FLOAT",
                   help="tolerance for algebraic checks (integration checks floor at 1e-9)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parsing leaves it as it was
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so a replaced cmd_* is the one that runs
    command = {"curvature": cmd_curvature, "alpha": cmd_alpha, "check": cmd_check}[args.command]
    try:
        return command(args)
    except _INPUT_ERRORS as err:
        print(f"jetgeo: input error: {err}", file=sys.stderr)
        return 2
    except RecursionError:  # only an expression's depth recurses without bound
        print("jetgeo: input error: expression is nested too deeply", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"jetgeo: numeric failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # a bug: one line, and never exit 1 ("a check failed")
        print(f"jetgeo: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
