"""The benchmark's workloads: seeded inputs, the timed operation on each,
and the check of every output against `references` or a property the
method must have.

A workload is one pass: a list of operations that the worker runs once
cold and then repeats; an operation may appear more than once in a pass.
Every operation is a call into jetgeo's public API with inputs generated
here from the seed; checks run after the operation's timed interval and
return a list of problems (empty when the output is right).
"""
from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import jetgeo.cli as cli
from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo import geodesics as geo
from jetgeo import invariants as inv
from jetgeo import metric as mt
from jetgeo.curvature import CurvatureContext

import references as ref

REL_TOL = 1e-9      # engine against closed forms, relative to the level scale
ZERO_BOUND = 1e-9   # |nabla^k R| for k >= 1 on S^2 and H^2 (K = +-1)
ROUTE_GAP = 1e-6    # direct against Runge-Kutta trajectory, t_end = 10
ENERGY_DRIFT = 1e-8  # relative drift of g(du, du) along a trajectory
ROUNDTRIP_GAP = 1e-8  # |exp(log(target)) - target|
CIRCLE_GAP = 1e-8   # Runge-Kutta against the great circle on S^2


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]
    # matches the problems a named engine fault causes today; they make the
    # operation fail without making the run incorrect
    fault: str | None = None

    def tolerates(self, problem: str) -> bool:
        return self.fault is not None and re.match(self.fault, problem) is not None


def _profile(rng: random.Random) -> ref.ExpSum:
    a = tuple(round(rng.uniform(0.5, 1.5), 4) for _ in range(3))
    c = tuple(round(rng.uniform(0.6, 1.8), 4) for _ in range(3))
    return ref.ExpSum(a, c)


def _gap(got: dict, want: dict) -> float:
    return max((abs(got.get(i, 0.0) - want.get(i, 0.0)) for i in set(got) | set(want)),
               default=0.0)


# ------------------------------------------------------------ family_sweep
def _family_op(params, spec, pt):
    p = params.p
    ctx = CurvatureContext(spec, pt, max_deriv=p + 3)
    levels = [(ctx.support(k), ctx.curvature(k).components) for k in range(p + 4)]
    return levels, fam.alpha_via_jacobi(params, pt, context=ctx)


def _family_check(f, p, pt, out, memo):
    levels, alpha = out
    problems = []
    for k, (support, comp) in enumerate(levels):
        want = ref.family_level(f, p, pt, k)
        scale = max(abs(v) for v in want.values())
        gap = _gap(comp, want)
        if gap > REL_TOL * scale:
            problems.append(f"level {k}: gap {gap:.3g} against scale {scale:.3g}")
        if not set(want) <= support:
            problems.append(f"level {k}: support misses {len(set(want) - support)} components")
    want_a = ref.alpha(f, p, pt[1])
    if abs(alpha - want_a) > REL_TOL * abs(want_a):
        problems.append(f"alpha {alpha!r} against {want_a!r}")
    return problems


def family_sweep(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"family_sweep/{seed}")
    ops = []
    for p in range(6):
        f = _profile(rng)
        pt = ref.family_point(p, rng.uniform(-0.3, 0.3),
                              [rng.uniform(-0.3, 0.3) for _ in range(p + 1)])
        params = fam.FamilyParams(p, ex.parse(f.text(), ("y",)))
        spec = fam.build_metric(params)
        ops.append(Op(f"family p={p}", partial(_family_op, params, spec, pt),
                      partial(_family_check, f, p, pt)))
    # The members with p <= 3 take about 2% of a pass and a few ms each, so
    # one repeat per pass leaves their median repeats on a handful of
    # samples.  They run three times in a pass, spread over it.
    small = ops[:4]
    return small + [ops[4]] + small + [ops[5]] + small


# --------------------------------------------------------- general_metrics
def _quadratic(rng: random.Random) -> tuple[float, ...]:
    # u_xx + u_yy = 2 (q0 + q2) stays in [0.1, 1.0], so K never nears 0
    return (round(rng.uniform(0.15, 0.4), 4), round(rng.uniform(-0.2, 0.2), 4),
            round(rng.uniform(-0.1, 0.1), 4), round(rng.uniform(-0.3, 0.3), 4),
            round(rng.uniform(-0.3, 0.3), 4))


def _product_spec(blocks) -> mt.MetricSpec:
    coords, entries = [], {}
    for surf, _pt in blocks:
        for name, e in zip(surf.coords, surf.entries):
            entries[(len(coords), len(coords))] = e
            coords.append(name)
    return mt.metric_from_strings(coords, entries, (0, len(coords)))


def _general_op(spec, pt, kmax):
    ctx = CurvatureContext(spec, pt, max_deriv=kmax)
    levels = [ctx.curvature(k).components for k in range(kmax + 1)]
    invariants = {n: inv.evaluate(inv.NAMED_SCHEMAS[n], spec, pt, context=ctx)
                  for n in ("tau", "r2", "ric2")}
    return levels, ctx.scalar(), invariants


def _dense(comp: dict, rank: int) -> np.ndarray:
    out = np.zeros((2,) * rank)
    for idx, v in comp.items():
        out[idx] = v
    return out


def _surface_problems(surf, pt, k, sub: dict, alone: dict | None) -> list[str]:
    """One block's level-k components against its closed forms (k <= 2),
    the g-wedge-g factorization (k >= 3), and, inside a product, the same
    block computed alone."""
    kval = surf.k_jet(pt)[0]
    got = _dense(sub, 4 + k)
    problems = []
    if k <= 2:
        want = ref.surface_levels(surf, pt)[k]
        tol = REL_TOL * max(abs(kval), float(np.max(np.abs(want))))
        gap = float(np.max(np.abs(got - want)))
        if gap > tol:
            problems.append(f"level {k}: closed-form gap {gap:.3g} above {tol:.3g}")
    elif isinstance(surf, (ref.Sphere, ref.Hyperbolic)):
        worst = float(np.max(np.abs(got)))
        if worst > ZERO_BOUND:
            problems.append(f"level {k}: |nabla^k R| {worst:.3g} above {ZERO_BOUND}")
    else:
        form = ref.wedge_form(surf.metric(pt))
        t = got[0, 1, 1, 0] / form[0, 1, 1, 0]
        want = np.multiply.outer(form, t)
        gap = float(np.max(np.abs(got - want)))
        if gap > REL_TOL * float(np.max(np.abs(got))):
            problems.append(f"level {k}: not of the form T (x) g^g, gap {gap:.3g}")
    if alone is not None:
        tol = REL_TOL * max([abs(kval)] + [abs(v) for v in alone.values()])
        gap = _gap(sub, alone)
        if gap > tol:
            problems.append(f"level {k}: block differs from the block alone by {gap:.3g}, "
                            f"above {tol:.3g}")
    return problems


def _general_check(blocks, kmax, alone_cache, out, memo):
    levels, scalar, invariants = out
    n = len(blocks)
    if n > 1 and not alone_cache:
        # the product splits by blocks: each block's levels must equal those
        # of the block computed alone
        for surf, pt in blocks:
            spec = mt.metric_from_strings(surf.coords, {(0, 0): surf.entries[0],
                                                        (1, 1): surf.entries[1]}, (0, 2))
            ctx = CurvatureContext(spec, pt, max_deriv=kmax)
            alone_cache.append([ctx.curvature(k).components for k in range(kmax + 1)])
    problems = []
    kvals = [surf.k_jet(pt)[0] for surf, pt in blocks]
    for k, comp in enumerate(levels):
        scale = max([abs(v) for v in comp.values()] + [abs(x) for x in kvals])
        mixed = max((abs(v) for idx, v in comp.items()
                     if len({i // 2 for i in idx}) > 1), default=0.0)
        if mixed > REL_TOL * scale:
            problems.append(f"level {k}: block-mixed component {mixed:.3g}")
        for b, (surf, pt) in enumerate(blocks):
            sub = {tuple(i - 2 * b for i in idx): v for idx, v in comp.items()
                   if all(i // 2 == b for i in idx)}
            alone = alone_cache[b][k] if n > 1 else None
            problems += [f"block {b} {msg}" for msg in _surface_problems(surf, pt, k, sub, alone)]
    want = {"tau": 0.0, "r2": 0.0, "ric2": 0.0}
    for kval in kvals:
        for name, v in ref.surface_invariants(kval).items():
            want[name] += v
    sizes = ref.surface_invariants(max(abs(x) for x in kvals))
    for name, v in invariants.items():
        if abs(v - want[name]) > REL_TOL * n * sizes[name]:
            problems.append(f"{name} {v!r} against {want[name]!r}")
    if abs(scalar - want["tau"]) > REL_TOL * n * sizes["tau"]:
        problems.append(f"scalar {scalar!r} against {want['tau']!r}")
    return problems


# One block is a conformal surface scaled by 1e-8, the other a nearly flat
# warped surface.  The global flush in CurvatureContext._neumann_inverse
# (64 eps times the largest inverse coefficient anywhere) zeroes genuine
# coefficients of the small block's inverse, so its levels k >= 2 drift
# from the block computed alone.  The inputs do not depend on the seed.
# Only those drifts are tolerated: an exception, block 0, levels 0-1, a
# mixed component or a wrong invariant still make the run incorrect.
FAULT_PROBLEMS = (r"block 1 level [2-9]: (closed-form gap|not of the form|"
                  r"block differs from the block alone)")
FAULT_BLOCKS = ((ref.Conformal((0.3, 0.2, -0.25, 0.1, -0.2), ("s", "t"), 1e-8), (0.1, 0.2)),
                (ref.Warped(0.0005, ("x", "w")), (0.7, 0.4)))


H2_X = -0.1


def general_metrics(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"general_metrics/{seed}")

    def sphere_pt():
        return (rng.uniform(0.6, 2.5), rng.uniform(-math.pi, math.pi))

    def plane_pt():
        return (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    def h2_pt():
        # H^2 is homogeneous along y, so the seed draws y alone.  Which
        # roundoff images of zero its levels keep changes erratically with x,
        # and with them the operation's cost (1 to 60 ms); at H2_X they show
        # at every level from k = 1 on, as on S^2.
        return (H2_X, rng.uniform(-0.5, 0.5))

    def conformal(coords):
        return ref.Conformal(_quadratic(rng), coords)

    cases = [
        ("S2", [(ref.Sphere(), sphere_pt())], 6),
        ("H2", [(ref.Hyperbolic(), h2_pt())], 6),
        ("conformal", [(conformal(("x", "y")), plane_pt())], 6),
        ("conformal", [(conformal(("x", "y")), plane_pt())], 6),
        ("S2 x conformal", [(ref.Sphere(), sphere_pt()), (conformal(("s", "t")), plane_pt())], 4),
        ("H2 x conformal", [(ref.Hyperbolic(), h2_pt()), (conformal(("s", "t")), plane_pt())], 4),
        ("conformal x conformal", [(conformal(("x", "y")), plane_pt()),
                                   (conformal(("s", "t")), plane_pt())], 4),
    ]
    ops = []
    for name, blocks, kmax in cases + [("block-scaled product", list(FAULT_BLOCKS), 4)]:
        spec = _product_spec(blocks)
        pt = tuple(v for _s, bpt in blocks for v in bpt)
        ops.append(Op(name, partial(_general_op, spec, pt, kmax),
                      partial(_general_check, blocks, kmax, []),
                      fault=FAULT_PROBLEMS if name == "block-scaled product" else None))
    return ops


# ------------------------------------------------------------- check_suite
_CHECK_LINE = re.compile(r"^(\w+): (PASS|FAIL|SKIP|FAIL-PRECONDITION) \((.*)\)$")
_NUMBER = r"(-?[0-9.]+(?:e[-+]?\d+)?|nan|inf)"
FAMILY_ONLY = ("ricci_flat", "nilpotency", "frame_model")
CHECK_SEED = 42


def _spec_file(workdir: str, name: str, surf) -> str:
    path = os.path.join(workdir, f"{name}.json")
    doc = {"dim": 2, "coords": list(surf.coords), "signature": [0, 2],
           "components": [{"i": 0, "j": 0, "expr": surf.entries[0]},
                          {"i": 1, "j": 1, "expr": surf.entries[1]}]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _run_check(argv):
    # looked up at call time, so the traced run sees the wrapped cli.main
    return cli.main(argv)


def _value(detail: str, label: str) -> float:
    m = re.search(re.escape(label) + r"\s*" + _NUMBER, detail)
    if m is None:
        raise ValueError(f"no {label!r} in {detail!r}")
    return float(m.group(1))


def _check_output(out_path, sigma, surf_k, rc, memo):
    """Exit code, verdict, and every reported deviation within bounds set
    here: sigma is the largest closed-form level-0/1 component."""
    try:
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        os.remove(out_path)  # so the next pass cannot pass on a stale file
    except FileNotFoundError:
        lines = []
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not lines or lines[-1] != "RESULT: PASS":
        problems.append(f"verdict {lines[-1] if lines else '(empty)'}")
    found = {}
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m:
            found[m.group(1)] = (m.group(2), m.group(3))
    s = max(sigma, 1.0)
    if surf_k is None:
        bounds = {
            "symmetry": [("max deviation", 1e-11 * s)],
            "bianchi_2": [("max deviation", 1e-11 * s)],
            "weyl_vanishing": [("max |value|", 1e-9 * s ** 3)],
            "ricci_flat": [("max |Ric|", 1e-11 * s)],
            "nilpotency": [("max squared-operator entry", 1e-10 * s * s)],
            "frame_model": [("max component gap", 1e-10)],
            "geodesic_roundtrip": [("rk energy drift", ENERGY_DRIFT), ("route gap", ROUTE_GAP),
                                   ("exp(log) gap", ROUNDTRIP_GAP)],
        }
    else:
        bounds = {
            "symmetry": [("max deviation", 1e-11 * s)],
            "bianchi_2": [("max deviation", 1e-11 * s)],
            "weyl_control": [],
            "geodesic_roundtrip": [("rk energy drift", ENERGY_DRIFT)],
        }
        for name in FAMILY_ONLY:
            if found.get(name, ("",))[0] != "SKIP":
                problems.append(f"{name}: expected SKIP on a spec input")
    for name, limits in bounds.items():
        if name not in found:
            problems.append(f"{name}: missing")
            continue
        status, detail = found[name]
        if status != "PASS":
            problems.append(f"{name}: {status}")
        try:
            for label, bound in limits:
                v = _value(detail, label)
                if not abs(v) <= bound:
                    problems.append(f"{name}: {label} {v!r} above {bound:.3g}")
            if name == "weyl_vanishing" and int(detail.split()[0]) < 1541:
                problems.append(f"{name}: fewer schemas than catalog(3, 2)")
            if name == "weyl_control":
                for inv_name, want in ref.surface_invariants(surf_k).items():
                    got = _value(detail, inv_name + "=")
                    if abs(got - want) > REL_TOL * max(abs(want), 1e-300):
                        problems.append(f"weyl_control: {inv_name} {got!r} against {want!r}")
        except ValueError as err:
            problems.append(f"{name}: {err}")
    return problems


def check_suite(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"check_suite/{seed}")
    ops = []
    for p in range(4):
        # No --point: the command's default, the family base point at y = 0.
        # --seed stays fixed: it draws the velocity of the command's geodesic
        # round trip, and across seeds that alone moved the work of a pass
        # by up to 1.7x (8.5k to 14.2k force calls).
        f = _profile(rng)
        pt = ref.family_point(p, 0.0, [0.0] * (p + 1))
        out = os.path.join(workdir, f"check-p{p}.txt")
        argv = ["check", "--family", f"p={p},f={f.text()}", "--seed", str(CHECK_SEED),
                "--out", out]
        sigma = max(max(abs(v) for v in ref.family_level(f, p, pt, k).values()) for k in (0, 1))
        ops.append(Op(f"check family p={p}", partial(_run_check, argv),
                      partial(_check_output, out, sigma, None)))
    for name, surf, pt in (
        ("sphere", ref.Sphere(), (rng.uniform(0.6, 2.5), rng.uniform(-math.pi, math.pi))),
        ("conformal", ref.Conformal(_quadratic(rng)),
         (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))),
    ):
        spec_path = _spec_file(workdir, name, surf)
        out = os.path.join(workdir, f"check-{name}.txt")
        argv = ["check", "--spec", spec_path, "--point=" + ",".join(repr(v) for v in pt),
                "--seed", str(CHECK_SEED), "--out", out]
        levels = ref.surface_levels(surf, pt)
        sigma = max(float(np.max(np.abs(levels[0]))), float(np.max(np.abs(levels[1]))))
        ops.append(Op(f"check {name}", partial(_run_check, argv),
                      partial(_check_output, out, sigma, surf.k_jet(pt)[0])))
    return ops


# --------------------------------------------------------- geodesic_routes
def _solve(prob, method):
    return geo.solve_geodesic(prob, method=method)


def _roundtrip(spec, start, target):
    return geo.exp_map(spec, start, geo.log_map(spec, start, target))


def _drift(energy: np.ndarray) -> float:
    return float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))


def _route_check(f, p, key, traj, memo):
    problems = []
    drift = _drift(ref.family_energy(f, p, traj.u, traj.du))
    if drift > ENERGY_DRIFT:
        problems.append(f"relative energy drift {drift:.3g}")
    if key[1] == "direct":
        memo[key] = traj
    else:
        direct = memo.get((key[0], "direct"))
        if direct is None:
            problems.append("no direct trajectory to compare against")
        else:
            gap = float(np.max(np.abs(direct.u - traj.u)))
            if gap > ROUTE_GAP:
                problems.append(f"route gap {gap:.3g}")
    return problems


def _roundtrip_check(target, back, memo):
    gap = float(np.max(np.abs(np.asarray(back) - np.asarray(target))))
    return [f"exp(log) gap {gap:.3g}"] if gap > ROUNDTRIP_GAP else []


def _circle_check(start, velocity, traj, memo):
    gap = float(np.max(np.abs(traj.u - ref.great_circle(start, velocity, traj.t))))
    return [f"great-circle gap {gap:.3g}"] if gap > CIRCLE_GAP else []


def geodesic_routes(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"geodesic_routes/{seed}")
    ops = []
    for p in range(3):
        # The adaptive quadrature of the direct route does more work the
        # faster the force grows along the path, so the seed moves the
        # profile, start and velocity only a little: every seed then costs
        # about the same.
        f = ref.ExpSum(tuple(round(rng.uniform(0.95, 1.05), 4) for _ in range(3)),
                       tuple(round(c + rng.uniform(-0.02, 0.02), 4) for c in (0.9, 1.2, 1.5)))
        start = ref.family_point(p, rng.uniform(-0.05, 0.05),
                                 [rng.uniform(-0.05, 0.05) for _ in range(p + 1)])
        # x, y, z_i, xbar, ybar, zbar_i; the ybar pairing keeps |g(v, v)|
        # near 0.3 so the relative drift is well defined
        base = [0.3, 0.12] + [-0.1] * (p + 1) + [0.1, 0.3] + [0.05] * (p + 1)
        vel = tuple(b + rng.uniform(-0.005, 0.005) for b in base)
        params = fam.FamilyParams(p, ex.parse(f.text(), ("y",)))
        spec = fam.build_metric(params)
        prob = geo.GeodesicProblem(spec, start, velocity=vel, t_end=10.0)
        target = tuple(s + rng.uniform(-0.2, 0.2) for s in start)
        for method, route in (("triangular", "direct"), ("rk", "rk")):
            ops.append(Op(f"{route} p={p}", partial(_solve, prob, method),
                          partial(_route_check, f, p, (p, route))))
        ops.append(Op(f"exp(log) p={p}", partial(_roundtrip, spec, start, target),
                      partial(_roundtrip_check, target)))
    start = (rng.uniform(1.3, 1.85), rng.uniform(-math.pi, math.pi))
    vel = (rng.uniform(-0.1, 0.1), rng.uniform(0.4, 0.8))
    sphere = mt.two_sphere()
    prob = geo.GeodesicProblem(sphere, start, velocity=vel, t_end=3.0)
    ops.append(Op("great circle", partial(_solve, prob, "rk"),
                  partial(_circle_check, start, vel)))
    return ops


WORKLOADS = {
    "family_sweep": family_sweep,
    "general_metrics": general_metrics,
    "check_suite": check_suite,
    "geodesic_routes": geodesic_routes,
}
