"""Geodesics through two independent routes.

Route one is standard adaptive Runge-Kutta on the first-order system.  Route
two exploits structural triangularity: when every coordinate is either free
(no force term at all) or forced only by free coordinates, the free ones are
exactly affine in t and the forced ones are plain integrals

    u_c(t) = u_c(0) + v_c(0) t - int_0^t (t - r) G_c(r) dr,

with G_c the Christoffel force evaluated along the known affine part; the
two-point problem on [0, 1] closes the same way with

    v_c(0) = u_c(1) - u_c(0) + int_0^1 (1 - r) G_c(r) dr.

Both routes and the structural check read the Christoffel symbols from
`curvature.christoffel_terms`.  The check is symbolic on the metric side
(which symbols can be nonzero, and the free variables of the components they
differentiate) and numeric on the inverse-metric side (nonzero pattern and
constancy probed at jittered points).  A direct solve checks the structure
and builds its force evaluator once.

The force comes from one kernel per metric (`_Kernel`), generated on the
first solve as straight-line Python (each varying metric entry's value and
first partials from `expr.forward_source`, then the Christoffel sums
unrolled) and kept while the spec lives, beside the symbolic half of the
structure check.  One source runs in two forms: over Python floats for the
Runge-Kutta route's one-point calls, and over numpy rows for the direct
route's breadth-first adaptive Simpson rule, one call per depth for all its
new nodes.  Only the Runge-Kutta route imports scipy.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .curvature import christoffel_terms
from .jets import NonFiniteError
from .metric import MetricSpec

__all__ = [
    "GeodesicProblem",
    "Trajectory",
    "ChristoffelPointEvaluator",
    "StepCollapseError",
    "TriangularStructureError",
    "TriangularReport",
    "triangular_report",
    "integrate_ivp",
    "triangular_ivp",
    "triangular_bvp",
    "solve_geodesic",
    "exp_map",
    "log_map",
    "energy_along",
    "adaptive_simpson",
    "trajectory_csv",
]

_PROBE_TOL = 1e-11  # `_inverse_probe`: relative size of an inverse entry taken as zero
_PROBES = 7  # `_inverse_probe`: jittered points sampled besides the given one
_RK_RTOL = 1e-10  # DOP853 tolerances of the Runge-Kutta route
_RK_ATOL = 1e-12
_QUAD_TOL = 1e-12  # adaptive Simpson tolerance of the direct route


class StepCollapseError(RuntimeError):
    """The adaptive integrator failed to reach the end of the interval."""


class TriangularStructureError(ValueError):
    """The metric is not structurally triangular for the direct solver."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic: times (n,), positions (n, m), velocities (n, m)."""

    t: np.ndarray
    u: np.ndarray
    du: np.ndarray


@dataclass(frozen=True)
class GeodesicProblem:
    """Initial-value (velocity given) or two-point (target given) problem."""

    spec: MetricSpec
    start: tuple[float, ...]
    velocity: tuple[float, ...] | None = None
    target: tuple[float, ...] | None = None
    t_end: float = 1.0

    def __post_init__(self):
        if (self.velocity is None) == (self.target is None):
            raise ValueError("give exactly one of velocity or target")
        m = self.spec.dim
        for name in ("start", "velocity", "target"):
            val = getattr(self, name)
            if val is not None:
                if len(val) != m:
                    raise ValueError(f"{name} must have length {m}")
                object.__setattr__(self, name, tuple(float(v) for v in val))
        if self.target is not None and self.t_end != 1.0:
            raise ValueError("two-point problems are posed on [0, 1]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")


class _Kernel:
    """A metric's geodesic force as generated straight-line Python, built
    once per spec (`_kernel`).  `force(u, d)` takes one point and velocity as
    Python floats, `force_rows` many as rows, one per coordinate.  Both give
    the varying metric entries (i <= j; at `slots` of the flat g, then of its
    transpose), their partials in `spec.active_vars`, and w_c = sum of d^a d^b
    Gamma_abc over `curvature.christoffel_terms` in its order.  `gamma` and
    `gamma_dep` (the nonzero (a, b) of Gamma_ab^c per c, and their variables)
    are the symbolic half of `triangular_report`, and `report` keeps its last
    (point, report): the probe's seed is fixed, so a point's report is too."""

    def __init__(self, spec: MetricSpec):
        m, active = spec.dim, spec.active_vars
        self.g0 = np.zeros((m, m))  # the constant entries
        lines = [f"{''.join(f'd{c}, ' for c in range(m))}= d",
                 *(f"x{k} = u[{spec.coords.index(n)}]" for k, n in enumerate(active))]
        values, grads = [], {}
        for i in range(m):
            for j in range(i, m):
                e = spec.components[i][j]
                if ex.free_vars(e):
                    value, grads[(i, j)] = ex.forward_source(e, active, f"g{i}_{j}", lines)
                    values.append(value)
                else:
                    self.g0[i, j] = self.g0[j, i] = ex.eval_point(e, {})
        self.slots = [i * m + j for i, j in grads] + [j * m + i for i, j in grads]
        pos = {spec.coords.index(n): k for k, n in enumerate(active)}
        w = [["0.0"] for _ in range(m)]
        self.gamma: dict[int, set[tuple[int, int]]] = {}
        self.gamma_dep: dict[int, set[str]] = {}
        for (a, b, c), terms in christoffel_terms(spec).items():
            gamma_abc = " + ".join(f"{h!r} * {grads[pair][pos[v]]}" for v, pair, h in terms)
            w[c].append(f"d{a} * d{b} * ({gamma_abc})")
            self.gamma.setdefault(c, set()).add((a, b))
            self.gamma_dep.setdefault(c, set()).update(
                *(ex.free_vars(spec.components[i][j]) for _, (i, j), _ in terms))
        code = compile("\n    ".join([
            "def force(u, d):", *lines, f"return [{', '.join(values)}], "
            f"[{', '.join(p for grad in grads.values() for p in grad)}], "
            f"[{', '.join(' + '.join(wc) for wc in w)}]"]), f"<geodesic kernel, {spec!r}>", "exec")
        spaces = [dict(ex.FLOAT_OPS), dict(ex.ROW_OPS)]
        for space in spaces:
            exec(code, space)
        self.force, self._rows = (space["force"] for space in spaces)
        self.report: tuple = (None, None)

    def force_rows(self, u, d):
        with np.errstate(all="ignore"):  # overflow shows as NonFiniteError
            return self._rows(u, d)


_KERNELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kernel(spec: MetricSpec) -> _Kernel:
    """The spec's kernel, built on first use and kept while the spec lives."""
    return _KERNELS.get(spec) or _KERNELS.setdefault(spec, _Kernel(spec))


class ChristoffelPointEvaluator:
    """Geodesic force of a metric at one point or many, from the `_Kernel`
    that every evaluator of the spec shares."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.kernel = _kernel(spec)

    def force(self, points: Sequence[float] | np.ndarray, velocities: np.ndarray) -> np.ndarray:
        """G with lower index raised, g^{cd} w_d, for (N, m) points and
        velocities, as (N, m), in one batched solve; one point and velocity
        of shape (m,) give (m,), computed over Python floats.  The
        acceleration is -G."""
        k = self.kernel
        pts, vel = np.asarray(points, dtype=float), np.asarray(velocities, dtype=float)
        if pts.ndim == 1:
            values, _, w = k.force(pts.tolist(), vel.tolist())
            g = k.g0.copy()
            g.put(k.slots, values + values)
            return np.linalg.solve(g, w)
        values, _, w = k.force_rows(pts.T.copy(), vel.T.copy())
        n, m = pts.shape
        g = np.repeat(k.g0.reshape(1, m * m), n, axis=0)
        cols = np.column_stack(np.broadcast_arrays(pts[:, 0], *values, *values, *w))[:, 1:]
        g[:, k.slots] = cols[:, :len(k.slots)]
        return np.linalg.solve(g.reshape(n, m, m), cols[:, len(k.slots):, None])[:, :, 0]


# ------------------------------------------------------------ structure
@dataclass(frozen=True)
class TriangularReport:
    ok: bool
    free: tuple[str, ...]    # coordinates with no force term at all
    forced: tuple[str, ...]  # coordinates forced purely by free ones
    blocking: tuple[str, ...]


def _inverse_probe(
    spec: MetricSpec, point: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero pattern of the inverse metric and per-entry constancy, from
    jittered samples around `point`.  Numeric, not a proof."""
    rng = np.random.default_rng(20_260_817)
    base = np.asarray(point, dtype=float)
    mats = [np.linalg.inv(spec.value(base))]
    for _ in range(_PROBES):
        q = base + rng.uniform(0.05, 0.45, size=base.size) * (1.0 + np.abs(base))
        try:
            mats.append(np.linalg.inv(spec.value(q)))
        except (np.linalg.LinAlgError, NonFiniteError):
            continue  # probe landed on a degenerate or overflowing point; skip it
    if len(mats) < 3:
        # not enough evidence; report everything as varying and nonzero
        full = np.ones((spec.dim, spec.dim), dtype=bool)
        return full, ~full
    stack = np.stack(mats)
    scale = float(np.max(np.abs(stack)))  # relative: the report of c g is that of g
    nonzero = np.max(np.abs(stack), axis=0) > _PROBE_TOL * scale
    constant = np.max(np.abs(stack - stack[0]), axis=0) <= _PROBE_TOL * scale
    return nonzero, constant


def triangular_report(spec: MetricSpec, point: Sequence[float]) -> TriangularReport:
    """Classify coordinates for the direct solver.

    A coordinate is free when no force component can reach it; it is
    admissibly forced when its force involves only free velocities and only
    free position dependence.  Metric-side dependence is read from
    `christoffel_terms`; the inverse pattern is probed numerically near
    `point`."""
    m = spec.dim
    kernel = _kernel(spec)
    at = tuple(map(float, point))
    if kernel.report[0] == at:
        return kernel.report[1]
    inv_nonzero, inv_constant = _inverse_probe(spec, point)

    force_pairs: dict[int, set[tuple[int, int]]] = {}
    force_dep: dict[int, set[str]] = {}
    for d, pairs in kernel.gamma.items():
        for c in np.flatnonzero(inv_nonzero[:, d]).tolist():
            force_pairs.setdefault(c, set()).update(pairs)
            # the entries of a varying inverse depend on every active variable
            force_dep.setdefault(c, set()).update(
                kernel.gamma_dep[d] if inv_constant[c, d] else spec.active_vars)
    free = [c for c in range(m) if c not in force_pairs]
    forced = sorted(force_pairs)
    blocking = []
    for c in forced:
        for what, bad in (
            ("involves non-free velocities", {a for ab in force_pairs[c] for a in ab}),
            ("depends on non-free positions", {spec.coords.index(nm) for nm in force_dep[c]}),
        ):
            if bad.difference(free):
                blocking.append(f"force on {spec.coords[c]} {what} "
                                + ",".join(spec.coords[a] for a in sorted(bad.difference(free))))
    report = TriangularReport(not blocking, tuple(spec.coords[c] for c in free),
                              tuple(spec.coords[c] for c in forced), tuple(blocking))
    kernel.report = at, report
    return report


# ------------------------------------------------------------- quadrature
def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: np.ndarray,
    max_depth: int = 28,
) -> np.ndarray:
    """Vector-valued adaptive Simpson integrals of f over [a[i], b[i]], each
    to tolerance tol[i]; f maps an array of nodes to one row per node.

    Breadth first: each depth evaluates the new nodes of every pending
    interval in one call of f.  A pair of halves is accepted,
    Richardson-corrected, at `max_depth` or when its error is within
    15 tol max(1, |s2|), else split with half the tolerance; sums go back up
    the tree left + right, as in a recursion."""
    a, b, tol = (np.asarray(v, dtype=float) for v in (a, b, tol))
    mid = 0.5 * (a + b)
    fa, fb, fm = np.split(f(np.concatenate([a, b, mid])), 3)
    s = ((b - a) / 6.0)[:, None] * (fa + 4.0 * fm + fb)
    levels = []  # per depth: the accepted values, and which halves split
    for depth in range(max_depth + 1):
        lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
        flm, frm = np.split(f(np.concatenate([lm, rm])), 2)
        left = ((mid - a) / 6.0)[:, None] * (fa + 4.0 * flm + fm)
        right = ((b - mid) / 6.0)[:, None] * (fm + 4.0 * frm + fb)
        s2 = left + right
        err = np.max(np.abs(s2 - s), axis=1)
        # tol is relative to the segment magnitude with an absolute floor;
        # a purely absolute test never terminates on long horizons where
        # the moment integrands are large
        scale = np.maximum(1.0, np.max(np.abs(s2), axis=1))
        split = ~(err <= 15.0 * tol * scale) & (depth < max_depth)
        levels.append((s2 + (s2 - s) / 15.0, split))
        if not split.any():
            break

        def halves(lo, hi):  # the split intervals' left and right halves, interleaved
            return np.stack([lo[split], hi[split]], axis=1).reshape((-1,) + lo.shape[1:])

        a, mid, b = halves(a, mid), halves(lm, rm), halves(mid, b)
        fa, fm, fb = halves(fa, fm), halves(flm, frm), halves(fm, fb)
        s, tol = halves(left, right), np.repeat(0.5 * tol[split], 2)
    out = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = out[0::2] + out[1::2]
        out = value
    return out


# ---------------------------------------------------------------- solvers
def integrate_ivp(spec: MetricSpec, start: Sequence[float], velocity: Sequence[float],
                  t_end: float = 1.0, n_samples: int = 101) -> Trajectory:
    """Runge-Kutta route (DOP853) for the geodesic initial-value problem."""
    from scipy.integrate import solve_ivp  # only this route needs scipy

    m = spec.dim
    ev = ChristoffelPointEvaluator(spec)

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        u, du = y[:m], y[m:]
        return np.concatenate([du, -ev.force(u, du)])

    res = solve_ivp(rhs, (0.0, float(t_end)), np.array([*start, *velocity], dtype=float),
                    method="DOP853", t_eval=np.linspace(0.0, float(t_end), n_samples),
                    rtol=_RK_RTOL, atol=_RK_ATOL)
    if not res.success:
        raise StepCollapseError(f"integrator stopped early: {res.message}")
    y = res.y.T
    return Trajectory(res.t.copy(), y[:, :m].copy(), y[:, m:].copy())


def _forced_force_fn(
    spec: MetricSpec,
    ev: ChristoffelPointEvaluator,
    u0: np.ndarray,
    v0: np.ndarray,
    free_idx: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    vel = np.zeros(spec.dim)
    vel[free_idx] = v0[free_idx]

    def gfun(r: np.ndarray) -> np.ndarray:
        # the force at the nodes r along the affine free line, with the
        # forced coordinates pinned at their start values
        points = np.repeat(u0[None], len(r), axis=0)
        points[:, free_idx] = u0[free_idx] + r[:, None] * v0[free_idx]
        return ev.force(points, np.repeat(vel[None], len(r), axis=0))

    return gfun


def _cumulative_moments(
    gfun: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Running integrals of G and of r G over the sample grid."""
    span = max(grid[-1] - grid[0], 1e-300)

    def fboth(r: np.ndarray) -> np.ndarray:
        g = gfun(r)
        return np.concatenate([g, r[:, None] * g], axis=1)

    seg = adaptive_simpson(
        fboth, grid[:-1], grid[1:], _QUAD_TOL * np.maximum(np.diff(grid) / span, 1e-6)
    )
    k = np.cumsum(np.concatenate([np.zeros((1, 2 * m)), seg]), axis=0)
    return k[:, :m], k[:, m:]


def _direct_setup(
    spec: MetricSpec, start: Sequence[float]
) -> tuple[TriangularReport, np.ndarray, ChristoffelPointEvaluator]:
    """Structure check and force evaluator, once per direct solve."""
    rep = triangular_report(spec, start)
    if not rep.ok:
        raise TriangularStructureError("; ".join(rep.blocking))
    free_idx = np.array([spec.coords.index(v) for v in rep.free], dtype=int)
    return rep, free_idx, ChristoffelPointEvaluator(spec)


def _direct_ivp(
    spec: MetricSpec,
    ev: ChristoffelPointEvaluator,
    free_idx: np.ndarray,
    u0: np.ndarray,
    v0: np.ndarray,
    t_end: float,
    n_samples: int,
) -> Trajectory:
    grid = np.linspace(0.0, float(t_end), n_samples)
    gfun = _forced_force_fn(spec, ev, u0, v0, free_idx)
    k1, k2 = _cumulative_moments(gfun, grid, spec.dim)
    # no force reaches free coordinates; drop solve round-off so they stay
    # exactly affine
    k1[:, free_idx] = 0.0
    k2[:, free_idx] = 0.0
    # u(t) = u0 + v0 t - (t K1 - K2); du = v0 - K1
    u = u0[None, :] + grid[:, None] * v0[None, :] - (grid[:, None] * k1 - k2)
    du = v0[None, :] - k1
    return Trajectory(grid, u, du)


def triangular_ivp(spec: MetricSpec, start: Sequence[float], velocity: Sequence[float],
                   t_end: float = 1.0, n_samples: int = 101) -> Trajectory:
    """Direct-quadrature route; raises TriangularStructureError unless the
    triangular structure holds at `start`."""
    _, free_idx, ev = _direct_setup(spec, start)
    u0 = np.asarray(start, dtype=float)
    v0 = np.asarray(velocity, dtype=float)
    return _direct_ivp(spec, ev, free_idx, u0, v0, t_end, n_samples)


def triangular_bvp(spec: MetricSpec, start: Sequence[float], target: Sequence[float],
                   n_samples: int = 101) -> Trajectory:
    """Two-point problem on [0, 1]; the forced velocities close in one
    quadrature because their force involves free coordinates only, and the
    trajectory then follows from the same direct route as `triangular_ivp`."""
    rep, free_idx, ev = _direct_setup(spec, start)
    u0 = np.asarray(start, dtype=float)
    u1 = np.asarray(target, dtype=float)
    v0 = u1 - u0  # exact for free coordinates; corrected below for forced
    gfun = _forced_force_fn(spec, ev, u0, v0, free_idx)

    def fmom(r: np.ndarray) -> np.ndarray:
        return (1.0 - r)[:, None] * gfun(r)

    corr = adaptive_simpson(fmom, np.zeros(1), np.ones(1), np.full(1, _QUAD_TOL))[0]
    forced_idx = np.array([spec.coords.index(v) for v in rep.forced], dtype=int)
    if forced_idx.size:
        v0[forced_idx] += corr[forced_idx]
    return _direct_ivp(spec, ev, free_idx, u0, v0, 1.0, n_samples)


def solve_geodesic(problem: GeodesicProblem, method: str = "auto",
                   n_samples: int = 101) -> Trajectory:
    """Dispatch a GeodesicProblem to a route; `method` is auto, rk, or
    triangular (two-point problems always need the triangular route).  Auto
    takes the triangular route and falls back to Runge-Kutta when the
    structure check rejects the metric."""
    if method not in ("auto", "rk", "triangular"):
        raise ValueError(f"unknown method {method!r}")
    if problem.target is not None:
        return triangular_bvp(problem.spec, problem.start, problem.target,
                              n_samples)
    if method != "rk":
        try:
            return triangular_ivp(problem.spec, problem.start, problem.velocity,
                                  problem.t_end, n_samples)
        except TriangularStructureError:
            if method == "triangular":
                raise
    return integrate_ivp(problem.spec, problem.start, problem.velocity,
                         problem.t_end, n_samples)


def exp_map(spec: MetricSpec, start: Sequence[float], velocity: Sequence[float]) -> np.ndarray:
    traj = solve_geodesic(GeodesicProblem(spec, tuple(start), velocity=tuple(velocity)))
    return traj.u[-1].copy()


def log_map(spec: MetricSpec, start: Sequence[float], target: Sequence[float]) -> np.ndarray:
    traj = triangular_bvp(spec, start, target)
    return traj.du[0].copy()


def energy_along(spec: MetricSpec, traj: Trajectory) -> np.ndarray:
    """g(du, du) at each sample; constant along exact geodesics."""
    out = np.empty(traj.t.size)
    for j in range(traj.t.size):
        g = spec.value(traj.u[j])
        out[j] = float(traj.du[j] @ g @ traj.du[j])
    return out


def trajectory_csv(traj: Trajectory) -> str:
    m = traj.u.shape[1]
    head = ["t"] + [f"u_{i+1}" for i in range(m)] + [f"du_{i+1}" for i in range(m)]
    lines = [",".join(head)]
    for j in range(traj.t.size):
        row = [repr(float(traj.t[j]))]
        row += [repr(float(v)) for v in traj.u[j]]
        row += [repr(float(v)) for v in traj.du[j]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
