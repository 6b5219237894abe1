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
`curvature.christoffel_terms`.  The check is exact and reads the spec alone:
which symbols can be nonzero, the variables of the components they
differentiate, and the structural pattern of g^-1 with the variables of each
entry, from the spec's one structure (`MetricSpec.structure`).  It never
accepts a wrong structure, but it can refuse a metric whose inverse entries
cancel exactly.

The force comes from one evaluator per spec (`ChristoffelPointEvaluator`),
compiled on first use as straight-line Python (each varying metric entry's
value and first partials from `expr.forward_source`, the Christoffel sums
unrolled, then g G = w solved by substitution over g's structural blocks,
in the order `MetricSpec.structure` gives) and kept while the spec
lives, with the structure check's report.  One source runs in two forms:
over Python floats for the Runge-Kutta route's one-point calls, and over
numpy rows for the direct route's breadth-first adaptive Simpson rule, one
call per depth for all its new nodes.  Every route, the report and
`log_map` read the spec's one evaluator; constructing a
`ChristoffelPointEvaluator(spec)` directly compiles a fresh one.
`energy_along` reads g at the points of a trajectory from the spec itself,
`MetricSpec.value` over all of them in one call.

The Runge-Kutta route is DOP853 (`_dop853`), ported op for op from scipy's
`solve_ivp(method="DOP853")` with the same numpy calls, so its trajectories
are scipy's bit for bit and jetgeo needs numpy alone.
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

_RK_RTOL = 1e-10  # DOP853 tolerances of the Runge-Kutta route
_RK_ATOL = 1e-12
_QUAD_TOL = 1e-12  # adaptive Simpson tolerance of the direct route
_MAX_DEPTH = 28  # adaptive Simpson's deepest split


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
                if not np.isfinite(getattr(self, name)).all():
                    raise ValueError(f"{name} must be finite")
        if self.target is not None and self.t_end != 1.0:
            raise ValueError("two-point problems are posed on [0, 1]")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")


def _pivot(v: float | np.ndarray) -> float | np.ndarray:
    """A divisor of the generated solve, or np.linalg.LinAlgError where it is 0."""
    if v if isinstance(v, float) else np.all(v):
        return v
    raise np.linalg.LinAlgError("Singular matrix")


def _row_block(a: list, b: list) -> list:
    k = len(b)  # one k x k system per column of the rows in a and b
    cells = np.stack(np.broadcast_arrays(*(v for row in a for v in row), *b), -1)
    x = np.linalg.solve(cells[..., :k * k].reshape(-1, k, k), cells[..., k * k:].reshape(-1, k, 1))
    return list(x[:, :, 0].T)


class ChristoffelPointEvaluator:
    """A metric's geodesic force as one generated straight-line function.
    The code gives the varying metric entries (i <= j) and their partials in
    `spec.active_vars`, w_c = sum of d^a d^b Gamma_abc over
    `curvature.christoffel_terms` in its order, and G from g G = w over g's
    blocks in `spec.structure`'s order (all of g one block where g is
    structurally singular), with each constant entry as its literal; it runs
    over Python floats for one point and over numpy rows for many.  `report`
    is the spec's `triangular_report`, decided here from the same terms and
    structure.  The routes share one per spec (`_evaluator`); each
    construction compiles afresh.  It keeps no reference to the spec, so the
    per-spec cache keeps no spec alive."""

    def __init__(self, spec: MetricSpec):
        m, active = spec.dim, spec.active_vars
        lines = [f"{''.join(f'd{c}, ' for c in range(m))}= d",
                 *(f"x{k} = u[{spec.coords.index(n)}]" for k, n in enumerate(active))]
        grads, entry = {}, {}  # entry[r, c]: g_rc as a source atom, both orders
        for (i, j), names in spec.entry_vars.items():
            e = spec.components[i][j]
            if names:
                entry[i, j], grads[(i, j)] = ex.forward_source(e, active, f"g{i}_{j}", lines)
            else:
                entry[i, j] = ex._literal(ex.eval_point(e, {}))
            entry[j, i] = entry[i, j]
        pos = {spec.coords.index(n): k for k, n in enumerate(active)}
        w = [["0.0"] for _ in range(m)]
        gamma: dict[int, set[tuple[int, int]]] = {}  # the nonzero (a, b) of Gamma_ab^c per c
        gamma_dep: dict[int, set[str]] = {}  # and the variables they depend on
        for (a, b, c), terms in christoffel_terms(spec).items():
            gamma_abc = " + ".join(f"{h!r} * {grads[pair][pos[v]]}" for v, pair, h in terms)
            w[c].append(f"d{a} * d{b} * ({gamma_abc})")
            gamma.setdefault(c, set()).add((a, b))
            gamma_dep.setdefault(c, set()).update(*(spec.entry_vars[pair] for _, pair, _ in terms))
        self.report = _classify(spec, gamma, gamma_dep)
        # g G = w block by block: w_r less g_re G_e over solved e, ascending, then
        # / g_rc (none for the literal 1.0) for a singleton (r, c), one solve else
        solved = ["0.0"] * m  # G_c as a source atom
        for rows, cols in spec.structure[2] if spec.structure else [(range(m), range(m))]:
            rhs = [" - ".join([" + ".join(w[r]), *(
                solved[e] if entry[r, e] == "1.0" else f"{entry[r, e]} * {solved[e]}"
                for e in range(m) if (r, e) in entry and e not in cols and solved[e] != "0.0")])
                for r in rows]
            if len(rows) > 1:
                mat = ", ".join("[" + ", ".join(entry.get((r, c), "0.0") for c in cols) + "]"
                                for r in rows)
                rhs = [f"block([{mat}], [{', '.join(rhs)}])"]
            elif (pivot := entry.get((rows[0], cols[0]), "0.0")) != "1.0":  # 0.0: g is singular
                rhs = [f"({rhs[0]}) / pivot({pivot})"]
            if " " in rhs[0]:
                lines.append(f"{', '.join(f's{c}' for c in cols)} = {rhs[0]}")
                rhs = [f"s{c}" for c in cols]
            for c, atom in zip(cols, rhs):
                solved[c] = atom
        code = compile("\n    ".join(["def force(u, d):", *lines, f"return [{', '.join(solved)}]"]),
                       f"<geodesic force, {spec!r}>", "exec")
        spaces = [dict(ex.FLOAT_OPS, pivot=_pivot,
                       block=lambda a, b: np.linalg.solve(a, b).tolist()),
                  dict(ex.ROW_OPS, pivot=_pivot, block=_row_block)]
        for space in spaces:
            exec(code, space)
        self._floats, self._rows = (space["force"] for space in spaces)

    def force(self, points: Sequence[float] | np.ndarray, velocities: np.ndarray) -> np.ndarray:
        """G with lower index raised, g^{cd} w_d, for (N, m) points and
        velocities, as (N, m), by the generated substitution over g's blocks,
        each block of size > 1 in one batched solve; one point and velocity
        of shape (m,) give (m,), computed over Python floats.  A zero pivot
        raises np.linalg.LinAlgError.  The acceleration is -G."""
        pts, vel = np.asarray(points, dtype=float), np.asarray(velocities, dtype=float)
        if pts.ndim == 1:
            return np.array(self._floats(pts.tolist(), vel.tolist()))
        with np.errstate(all="ignore"):  # overflow shows as NonFiniteError
            out = self._rows(pts.T.copy(), vel.T.copy())
        return np.column_stack(np.broadcast_arrays(pts[:, 0], *out))[:, 1:]


_EVALUATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _evaluator(spec: MetricSpec) -> ChristoffelPointEvaluator:
    """The spec's evaluator, compiled on first use and kept while the spec lives."""
    return _EVALUATORS.get(spec) or _EVALUATORS.setdefault(spec, ChristoffelPointEvaluator(spec))


# ------------------------------------------------------------ structure
@dataclass(frozen=True)
class TriangularReport:
    ok: bool
    free: tuple[str, ...]    # coordinates with no force term at all
    forced: tuple[str, ...]  # coordinates forced purely by free ones
    blocking: tuple[str, ...]


def _classify(spec: MetricSpec, gamma: dict[int, set[tuple[int, int]]],
              gamma_dep: dict[int, set[str]]) -> TriangularReport:
    """`triangular_report` from the evaluator's Christoffel pattern and `spec.structure`."""
    if spec.structure is None:
        return TriangularReport(False, (), (), ("the metric is structurally singular",))
    inv, deps, _ = spec.structure
    force_pairs: dict[int, set[tuple[int, int]]] = {}
    force_dep: dict[int, set[str]] = {}
    for d, pairs in gamma.items():
        for c in np.flatnonzero(inv[:, d]).tolist():
            force_pairs.setdefault(c, set()).update(pairs)
            force_dep.setdefault(c, set()).update(
                gamma_dep[d], *(names for names, hit in deps if hit[c, d]))
    free = [c for c in range(spec.dim) if c not in force_pairs]
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
    return TriangularReport(not blocking, tuple(spec.coords[c] for c in free),
                            tuple(spec.coords[c] for c in forced), tuple(blocking))


def triangular_report(spec: MetricSpec) -> TriangularReport:
    """Classify coordinates for the direct solver, once per spec and from the
    spec alone (with its evaluator), so an ok report holds wherever g is
    defined.  A coordinate is free when no force component can reach it; it
    is admissibly forced when its force involves only free velocities and
    only free positions, read from `christoffel_terms` and `spec.structure`."""
    return _evaluator(spec).report


# ------------------------------------------------------------- quadrature
def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: np.ndarray,
) -> np.ndarray:
    """Vector-valued adaptive Simpson integrals of f over [a[i], b[i]], each
    to tolerance tol[i]; f maps an array of nodes to one row per node.

    Breadth first: each depth evaluates the new nodes of every pending
    interval in one call of f.  A pair of halves is accepted,
    Richardson-corrected, at depth `_MAX_DEPTH` or when its error is within
    15 tol max(1, |s2|), else split with half the tolerance; sums go back up
    the tree left + right, as in a recursion."""
    a, b, tol = (np.asarray(v, dtype=float) for v in (a, b, tol))
    mid = 0.5 * (a + b)
    fa, fb, fm = np.split(f(np.concatenate([a, b, mid])), 3)
    s = ((b - a) / 6.0)[:, None] * (fa + 4.0 * fm + fb)
    levels = []  # per depth: the accepted values, and which halves split
    for depth in range(_MAX_DEPTH + 1):
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
        split = ~(err <= 15.0 * tol * scale) & (depth < _MAX_DEPTH)
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


# ----------------------------------------------------------------- DOP853
# Dormand and Prince's explicit Runge-Kutta pair of order 8(5,3) with its
# order-7 dense output, as scipy 1.17.1's `solve_ivp(method="DOP853",
# t_eval=...)` computes it: `rk_step`, `DOP853._step_impl` and its error norm,
# `select_initial_step`, `norm`, `Dop853DenseOutput` with its three extra
# stages, and `solve_ivp`'s `t_eval` loop (scipy/integrate/_ivp: rk.py,
# common.py, base.py, ivp.py), op for op and with the same numpy calls, so
# every trajectory is scipy's bit for bit.  The tableau is Hairer's (Hairer,
# Norsett and Wanner, *Solving Ordinary Differential Equations I*, 2nd ed.,
# Springer 1993, sections II.5 and II.10), as the doubles of scipy's
# dop853_coefficients.py.  That code carries this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

# stages 0-11 step, stage 12 is the new point (weights B, row 12 of A), and
# stages 13-15 serve the dense output alone
_C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = np.zeros((16, 16))
for _s, _row in enumerate([
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
], start=1):
    _A[_s, :_s] = _row
_B = _A[12, :12]
_E3 = np.zeros(13)
_E3[:-1] = _B.copy()
_E3[0] -= 0.2440944881889764
_E3[8] -= 0.7338466882816118
_E3[11] -= 0.022058823529411766
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                0.08192320648511571, -0.022355307863886294, 0])
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0, y0, t_bound, f0, rtol, atol):
    """scipy's `select_initial_step` (Hairer, Norsett and Wanner, II.4) for
    an error estimator of order 7, no largest step and t_bound > t0."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, np.inf)


def _step(rhs, t, y, f, h_abs, t_bound, rtol, atol, K):
    """One accepted step from (t, y) with y' = f there, as scipy's
    `RungeKutta._step_impl` for DOP853 takes it, trying h_abs first: the
    new t, y and f, the next h_abs and the step h.  K (16 rows) receives
    the stages.  Raises StepCollapseError when the step size falls below
    ten spacings of the floats at t."""
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            raise StepCollapseError(f"integrator stopped early: {_TOO_SMALL_STEP}")
        t_new = t + h_abs
        if t_new > t_bound:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)
        K[0] = f
        for s in range(1, 12):
            dy = np.dot(K[:s].T, _A[s, :s]) * h
            K[s] = rhs(t + _C[s] * h, y + dy)
        y_new = y + h * np.dot(K[:12].T, _B)
        f_new = rhs(t + h, y_new)
        K[12] = f_new
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.dot(K[:13].T, _E5) / scale
        err3 = np.dot(K[:13].T, _E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
        if error_norm < 1:
            factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.125)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor, h
        h_abs *= max(0.2, 0.9 * error_norm ** -0.125)
        rejected = True


def _dense(rhs, t_old, t, y_old, y, f, h, K, at):
    """The states at the times `at` within the step from (t_old, y_old) to
    (t, y) as scipy's `Dop853DenseOutput` gives them, (n, len(at)), after
    the three extra stages into K."""
    for s in range(13, 16):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = rhs(t_old + _C[s] * h, y_old + dy)
    F = np.empty((7, len(y_old)))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_D, K)
    x = ((at - t_old) / (t - t_old))[:, None]
    out = np.zeros((len(x), len(y_old)))
    for i, row in enumerate(reversed(F)):
        out += row
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old
    return out.T


def _dop853(rhs, t0, t_bound, y0, t_eval, rtol, atol):
    """scipy's `solve_ivp(rhs, (t0, t_bound), y0, method="DOP853",
    t_eval=t_eval, rtol=rtol, atol=atol)` for t_bound > t0, an ascending
    t_eval and a float y0 of one axis: its `t` and `y`, raising
    StepCollapseError where it fails and its ValueError on a non-finite y0."""
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    done, atol = 0, np.asarray(atol)
    t, y, f = t0, y0, rhs(t0, y0)
    h_abs = _initial_step(rhs, t0, y0, t_bound, f, rtol, atol)
    K = np.empty((16, y0.size))
    ts, ys, finished = [], [], False
    while not finished:
        t_old, y_old = t, y
        t, y, f, h_abs, h = _step(rhs, t, y, f, h_abs, t_bound, rtol, atol, K)
        finished = t >= t_bound
        new = np.searchsorted(t_eval, t, side="right")
        at = t_eval[done:new]
        if at.size > 0:
            ts.append(at)
            ys.append(_dense(rhs, t_old, t, y_old, y, f, h, K, at))
            done = new
    return np.hstack(ts), np.hstack(ys)


# ---------------------------------------------------------------- solvers
def _posed(n_samples: int, *args, **kwargs) -> GeodesicProblem:
    """A route's arguments checked as the GeodesicProblem they pose, and
    at least one sample."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return GeodesicProblem(*args, **kwargs)


def integrate_ivp(spec: MetricSpec, start: Sequence[float], velocity: Sequence[float],
                  t_end: float = 1.0, n_samples: int = 101) -> Trajectory:
    """Runge-Kutta route (DOP853) for the geodesic initial-value problem,
    forward in time (a nan or infinite t_end would never end it)."""
    p = _posed(n_samples, spec, start, velocity=velocity, t_end=t_end)
    m = spec.dim
    ev = _evaluator(spec)

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        u, du = y[:m], y[m:]
        return np.concatenate([du, -ev.force(u, du)])

    t, y = _dop853(rhs, 0.0, float(t_end), np.array([*p.start, *p.velocity]),
                   np.linspace(0.0, float(t_end), n_samples), _RK_RTOL, _RK_ATOL)
    y = y.T
    return Trajectory(t, y[:, :m].copy(), y[:, m:].copy())


def _direct(p: GeodesicProblem, n_samples: int | None) -> Trajectory | np.ndarray:
    """The direct route on a posed problem; raises TriangularStructureError
    unless the metric has the triangular structure.  A two-point problem
    first closes its start velocity in one quadrature, as the force on its
    forced coordinates involves free ones only; with no `n_samples` that
    velocity is the result.  Otherwise the trajectory at `n_samples` points
    of [0, t_end], from the running integrals of G and r G."""
    spec, m = p.spec, p.spec.dim
    rep = triangular_report(spec)
    if not rep.ok:
        raise TriangularStructureError("; ".join(rep.blocking))
    ev = _evaluator(spec)
    free = np.array([spec.coords.index(v) for v in rep.free], dtype=int)
    u0 = np.array(p.start)
    # a target's v0 is exact for free coordinates and corrected for forced
    v0 = np.array(p.velocity) if p.target is None else np.array(p.target) - u0
    vel = np.zeros(m)
    vel[free] = v0[free]

    def force(r: np.ndarray) -> np.ndarray:
        # the force at the nodes r along the affine free line, with the
        # forced coordinates pinned at their start values
        points = np.repeat(u0[None], len(r), axis=0)
        points[:, free] = u0[free] + r[:, None] * v0[free]
        return ev.force(points, np.repeat(vel[None], len(r), axis=0))

    if p.target is not None:
        corr = adaptive_simpson(lambda r: (1.0 - r)[:, None] * force(r),
                                np.zeros(1), np.ones(1), np.full(1, _QUAD_TOL))[0]
        forced = np.array([spec.coords.index(v) for v in rep.forced], dtype=int)
        v0[forced] += corr[forced]
        if n_samples is None:
            return v0
    grid = np.linspace(0.0, float(p.t_end), n_samples)
    span = max(grid[-1] - grid[0], 1e-300)

    def moments(r: np.ndarray) -> np.ndarray:
        g = force(r)
        return np.concatenate([g, r[:, None] * g], axis=1)

    seg = adaptive_simpson(moments, grid[:-1], grid[1:],
                           _QUAD_TOL * np.maximum(np.diff(grid) / span, 1e-6))
    k = np.cumsum(np.concatenate([np.zeros((1, 2 * m)), seg]), axis=0)
    k1, k2 = k[:, :m], k[:, m:]
    # no force reaches free coordinates: the solve reads only zeros there,
    # which this makes +0.0, so they stay exactly affine to the sign of a zero
    k1[:, free] = 0.0
    k2[:, free] = 0.0
    # u(t) = u0 + v0 t - (t K1 - K2); du = v0 - K1
    u = u0[None, :] + grid[:, None] * v0[None, :] - (grid[:, None] * k1 - k2)
    du = v0[None, :] - k1
    return Trajectory(grid, u, du)


def triangular_ivp(spec: MetricSpec, start: Sequence[float], velocity: Sequence[float],
                   t_end: float = 1.0, n_samples: int = 101) -> Trajectory:
    """Direct-quadrature route; raises TriangularStructureError unless the
    metric has the triangular structure."""
    return _direct(_posed(n_samples, spec, start, velocity=velocity, t_end=t_end), n_samples)


def triangular_bvp(spec: MetricSpec, start: Sequence[float], target: Sequence[float],
                   n_samples: int = 101) -> Trajectory:
    """Two-point problem on [0, 1]: the closing velocity, then the trajectory
    from the same direct route as `triangular_ivp`."""
    return _direct(_posed(n_samples, spec, start, target=target), n_samples)


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
    """`triangular_bvp`'s closing velocity, its `du[0]` bit for bit; an
    overflow along the trajectory surfaces in `exp_map`, not here."""
    return _direct(GeodesicProblem(spec, start, target=target), None)


def energy_along(spec: MetricSpec, traj: Trajectory) -> np.ndarray:
    """g(du, du) at each sample, constant along exact geodesics, with g from
    one `spec.value` over the samples' positions.  Raises NonFiniteError
    where an entry of g is not finite."""
    g = spec.value(traj.u)
    if not np.isfinite(g).all():
        raise NonFiniteError("metric not finite along the trajectory")
    return np.array([float(du @ g_j @ du) for du, g_j in zip(traj.du, g)])


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
