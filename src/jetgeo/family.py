"""A family of neutral-signature metrics driven by one profile function.

For an integer p >= -1 and a profile f(y), the chart is

    (x, y, z_0..z_p, xbar, ybar, zbar_0..zbar_p),   dimension 2p + 6,

and the only nonzero metric components are g(x, x) = -2 F with
F = f(y) + sum_i y^(i+1) z_i, plus the constant hyperbolic pairings
g(x, xbar) = g(y, ybar) = g(z_i, zbar_i) = 1.  Signature (p+3, p+3).

Everything curvature-related about this family is independently computable in
closed form; this module carries those closed forms (as oracles for the jet
engine), a curvature-normalized frame, and the scalar

    alpha = f^(p+3) f^(p+5) / (f^(p+4))^2,

which is exposed through two fully independent routes: the closed form above
and a ratio of iterated-derivative curvature contractions on the engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .curvature import CurvatureContext
from .metric import MetricSpec

__all__ = [
    "FamilyParams",
    "PositivityError",
    "IllPosedSampleError",
    "build_metric",
    "family_coords",
    "base_point",
    "profile_derivs",
    "complete_curvature_symmetries",
    "oracle_nabla_k_r",
    "oracle_delta",
    "alpha_closed_form",
    "alpha_prime",
    "alpha_via_jacobi",
    "alpha_verdict",
    "Frame",
    "normalize_frame",
    "CurvatureModel",
    "reference_model",
    "quotient_model",
    "model_deviation",
    "frame_model_deviation",
    "model_kernel",
]

_RANK_TOL = 1e-12  # singular values at or below this times the largest count as zero


class PositivityError(ValueError):
    """Profile derivatives violate the positivity the construction needs."""


class IllPosedSampleError(ValueError):
    """The sampled vectors give contractions too small to divide through."""


@dataclass(frozen=True)
class FamilyParams:
    """p >= -1 and a profile expression in the single variable y."""

    p: int
    profile: ex.Expr

    def __post_init__(self):
        if self.p < -1:
            raise ValueError("p must be >= -1")
        extra = ex.free_vars(self.profile) - {"y"}
        if extra:
            raise ex.UnknownVariableError(sorted(extra)[0], 0)


def family_coords(p: int) -> tuple[str, ...]:
    zs = tuple(f"z{i}" for i in range(p + 1))
    return ("x", "y") + zs + ("xbar", "ybar") + tuple(f"zbar{i}" for i in range(p + 1))


def build_metric(params: FamilyParams) -> MetricSpec:
    p = params.p
    coords = family_coords(p)
    terms: list[ex.Expr] = [params.profile]
    for i in range(p + 1):
        terms.append(ex.Prod((ex.Pow(ex.Var("y"), i + 1), ex.Var(f"z{i}"))))
    big_f = terms[0] if len(terms) == 1 else ex.Sum(tuple(terms))
    comps: dict[tuple[int, int], ex.Expr] = {
        (0, 0): ex.Prod((ex.Const(-2.0), big_f)),
        (0, p + 3): ex.Const(1.0),
        (1, p + 4): ex.Const(1.0),
    }
    for i in range(p + 1):
        comps[(2 + i, p + 5 + i)] = ex.Const(1.0)
    return MetricSpec(coords, comps, (p + 3, p + 3))


def base_point(params: FamilyParams, y: float, z: Sequence[float] | None = None) -> tuple[float, ...]:
    """Point with the given y and z values; all other coordinates zero."""
    p = params.p
    zv = [0.0] * (p + 1) if z is None else [float(v) for v in z]
    if len(zv) != p + 1:
        raise ValueError(f"need {p + 1} z values, got {len(zv)}")
    return (0.0, float(y), *zv, 0.0, 0.0, *([0.0] * (p + 1)))


def profile_derivs(params: FamilyParams, y: float, n: int) -> np.ndarray:
    """[f(y), f'(y), ..., f^(n)(y)] through one jet evaluation."""
    jet = ex.eval_jet(params.profile, {"y": float(y)}, ("y",), n)
    return np.array([jet.extract((k,)) for k in range(n + 1)])


# ------------------------------------------------------------------ oracles
def complete_curvature_symmetries(
    roots: Mapping[tuple[int, ...], float]
) -> dict[tuple[int, ...], float]:
    """Close root components under the pair symmetries of the first four
    slots: antisymmetry in (0,1) and in (2,3), symmetry under pair swap.
    Derivative slots are untouched."""
    # the slots of (i, j, k, l) each image reads, and its sign
    table = (((0, 1, 2, 3), 1.0), ((0, 1, 3, 2), -1.0), ((1, 0, 2, 3), -1.0),
             ((1, 0, 3, 2), 1.0), ((2, 3, 0, 1), 1.0), ((2, 3, 1, 0), -1.0),
             ((3, 2, 0, 1), -1.0), ((3, 2, 1, 0), 1.0))
    out: dict[tuple[int, ...], float] = {}
    for idx, v in roots.items():
        # coinciding images keep the last sign, and dict order the first place
        images = {tuple(idx[t] for t in slots): sign for slots, sign in table}
        for key, sign in images.items():
            full = key + idx[4:]
            w = sign * v
            prev = out.get(full)
            if prev is not None and prev != w:
                raise ValueError(f"inconsistent symmetry images at {full}")
            out[full] = w
    return {k2: v2 for k2, v2 in out.items() if v2 != 0.0}


def _level_roots(
    k: int, a_val: float, b_vals: Sequence[float]
) -> dict[tuple[int, ...], float]:
    """Level-k components closed from the family's root pattern.

    Index 0 is X, 1 is Y and 2 + i is Z_i, in the chart and in the frame
    alike.  A sits at (X, Y, Y, X; Y..Y); B_i = b_vals[i] sits at
    (X, Y, Z_i, X; Y..Y) and at (X, Y, Y, X) with Z_i in one derivative
    slot.  Zero roots are left out."""
    roots: dict[tuple[int, ...], float] = {}
    if a_val != 0.0:
        roots[(0, 1, 1, 0) + (1,) * k] = a_val
    for i, b_val in enumerate(b_vals):
        if b_val == 0.0:
            continue
        zi = 2 + i
        roots[(0, 1, zi, 0) + (1,) * k] = b_val
        for s in range(k):
            tail = tuple(zi if t == s else 1 for t in range(k))
            roots[(0, 1, 1, 0) + tail] = b_val
    return complete_curvature_symmetries(roots)


def _gap(got: Mapping[tuple[int, ...], float], want: Mapping[tuple[int, ...], float]) -> float:
    """Largest absolute component gap over the union of both supports."""
    delta = 0.0
    for idx in set(got) | set(want):
        delta = max(delta, abs(got.get(idx, 0.0) - want.get(idx, 0.0)))
    return float(delta)


def oracle_nabla_k_r(
    params: FamilyParams, point: Sequence[float], k: int
) -> dict[tuple[int, ...], float]:
    """Closed-form level-k components at `point`, independent of the engine."""
    p = params.p
    coords = family_coords(p)
    if len(point) != len(coords):
        raise ValueError("point length does not match family dimension")
    y = float(point[1])
    zv = [float(point[2 + i]) for i in range(p + 1)]
    d = profile_derivs(params, y, k + 2)

    a_val = d[k + 2]
    for i in range(p + 1):
        if i >= k + 1:
            a_val += math.perm(i + 1, k + 2) * y ** (i - k - 1) * zv[i]
    b_vals = [math.perm(i + 1, k + 1) * (y ** (i - k) if i >= k else 0.0) for i in range(p + 1)]
    return _level_roots(k, a_val, b_vals)


def oracle_delta(
    params: FamilyParams,
    point: Sequence[float],
    k: int,
    context: CurvatureContext | None = None,
) -> float:
    """Largest absolute gap between engine and closed-form level-k components."""
    ctx = context or CurvatureContext(build_metric(params), point, k)
    return _gap(ctx.curvature(k).components, oracle_nabla_k_r(params, point, k))


# -------------------------------------------------------------------- alpha
def _alpha_derivs(params: FamilyParams, y: float, n: int) -> list[float]:
    """[f^(p+3)(y), ..., f^(p+3+n)(y)] as Python floats, so that an overflow
    in the closed forms gives inf or nan without a numpy warning; the first
    two must be positive."""
    p = params.p
    d = profile_derivs(params, y, p + 3 + n)[p + 3:].tolist()
    if d[0] <= 0.0 or d[1] <= 0.0:
        raise PositivityError(
            f"profile needs derivative orders {p + 3} and {p + 4} positive at y={y}"
        )
    return d


def alpha_closed_form(params: FamilyParams, y: float) -> float:
    a, b, c = _alpha_derivs(params, y, 2)
    return a * c / (b * b)


def alpha_prime(params: FamilyParams, y: float) -> float:
    """dalpha/dy in closed form."""
    a, b, c, e = _alpha_derivs(params, y, 3)
    return (b * c + a * e) / (b * b) - 2.0 * a * c * c / (b * b * b)


def alpha_via_jacobi(
    params: FamilyParams,
    point: Sequence[float],
    x_vec: Sequence[float] | None = None,
    context: CurvatureContext | None = None,
    aux: np.ndarray | None = None,
) -> float:
    """alpha from the engine alone, as a ratio of iterated-derivative
    curvature contractions; no profile derivatives involved.

    With J_k(v) the metric dual of nabla^k R(v, Y, Y, . ; Y...Y), the vectors
    J_k(X) for k > p are parallel, and

        alpha = <J_{p+1} X, J_{p+3} X> / <J_{p+2} X, J_{p+2} X>

    for any positive-definite auxiliary product, generic X, and Y = e_y.
    `aux` is the Gram matrix of that product (identity when omitted)."""
    p = params.p
    ctx = context or CurvatureContext(build_metric(params), point, p + 3)
    m = ctx.dim
    xv = np.zeros(m) if x_vec is None else np.asarray(x_vec, dtype=float)
    if x_vec is None:
        xv[0] = 1.0
    if xv.shape != (m,):
        raise ValueError(f"x_vec must have length {m}")
    yv = np.zeros(m)
    yv[1] = 1.0
    if aux is None:
        h = np.eye(m)
    else:
        h = np.asarray(aux, dtype=float)
        if h.shape != (m, m):
            raise ValueError(f"aux must be a {m}x{m} Gram matrix")

    def jvec(k: int) -> np.ndarray:
        low = ctx.contract_open(k, [xv, yv, yv, None] + [yv] * k, open_slot=3)
        return ctx.ginv0 @ low

    v1 = jvec(p + 1)
    v2 = jvec(p + 2)
    v3 = jvec(p + 3)
    num = float(v1 @ h @ v3)
    den = float(v2 @ h @ v2)
    scale = float(np.linalg.norm(v1) * np.linalg.norm(v3) * np.linalg.norm(h))
    if den <= 1e-12 * max(scale, 1e-280):
        raise IllPosedSampleError("sample vectors give a vanishing denominator")
    return num / den


def alpha_verdict(values: Sequence[float]) -> str:
    v = np.asarray(values, dtype=float)
    # one sample has no spread to judge, and a non-finite one no value
    if v.size < 2 or not np.isfinite(v).all():
        return "UNDETERMINED"
    if float(np.var(v)) <= 1e-20:
        return "CONSTANT"
    if float(np.max(v) - np.min(v)) >= 1e-2:
        return "NON-CONSTANT"
    return "UNDETERMINED"


# -------------------------------------------------------------------- frame
@dataclass(frozen=True)
class Frame:
    """Curvature-normalized frame at a point, raw and rescaled.

    Vector order: X, Y, Z_0..Z_p, Xbar, Ybar, Zbar_0..Zbar_p."""

    params: FamilyParams
    point: tuple[float, ...]
    a: np.ndarray
    b: np.ndarray
    eps0: float
    eps1: float
    raw: tuple[np.ndarray, ...]
    rescaled: tuple[np.ndarray, ...]


def normalize_frame(
    params: FamilyParams,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> Frame:
    p = params.p
    spec = build_metric(params)
    m = spec.dim
    pt = tuple(float(v) for v in point)
    env = spec.env_at(pt)
    y = env["y"]

    d = profile_derivs(params, y, p + 4)
    if d[p + 4] == 0.0:
        raise PositivityError(f"profile derivative order {p + 4} vanishes at y={y}")
    eps1 = float(d[p + 3] / d[p + 4])
    norm_sq = eps1 ** (p + 3) * float(d[p + 3])
    if norm_sq <= 0.0:
        raise PositivityError(
            f"curvature normalization needs eps1^(p+3) f^(p+3) > 0 at y={y}; got {norm_sq}"
        )
    eps0 = norm_sq ** -0.5

    big_f = d[0] + sum(y ** (i + 1) * env[f"z{i}"] for i in range(p + 1))
    ixb, iyb = p + 3, p + 4
    xvec = np.zeros(m)
    xvec[0] = 1.0
    xvec[ixb] = big_f

    # Y = e_y + sum_k a_k e_{z_k}, with the a_k written into yvec as found
    yvec = np.zeros(m)
    yvec[1] = 1.0
    bmat = np.zeros((p + 1, p + 1))
    if p >= 0:
        ctx = context if context is not None and context.max_deriv >= p else None
        if ctx is None:
            ctx = CurvatureContext(spec, pt, p)

        def phi(k: int, t: float) -> float:
            yvec[2 + k] = t
            return ctx.contract(k, [xvec, yvec, yvec, xvec] + [yvec] * k)

        # the vanishing conditions are affine in each a_k once a_{k+1..p}
        # are fixed, so one extra probe extracts the exact slope
        for k in range(p, -1, -1):
            c0 = phi(k, 0.0)
            slope = phi(k, 1.0) - c0
            if slope == 0.0:
                raise IllPosedSampleError(
                    f"curvature contraction cannot determine frame coefficient {k}"
                )
            yvec[2 + k] = -c0 / slope

        # mat[k, l] = nabla^k R(X, Y, e_{z_l}, X; Y..Y)
        mat = np.array([
            ctx.contract_open(k, [xvec, yvec, None, xvec] + [yvec] * k, open_slot=2)[2:p + 3]
            for k in range(p + 1)
        ])
        # rows of bmat solve sum_l bmat[j, l] mat[k, l] = delta_jk; mat is
        # upper triangular with nonzero diagonal, back-substitute upward
        for j in range(p + 1):
            for k in range(p, -1, -1):
                s = 1.0 if k == j else 0.0
                for l in range(k + 1, p + 1):
                    s -= mat[k, l] * bmat[j, l]
                if mat[k, k] == 0.0:
                    raise IllPosedSampleError(
                        f"degenerate frame normalization at diagonal {k}"
                    )
                bmat[j, k] = s / mat[k, k]
    a = yvec[2:p + 3].copy()

    zvecs = np.zeros((p + 1, m))
    zvecs[:, 2:p + 3] = bmat

    xbar = np.zeros(m)
    xbar[ixb] = 1.0
    ybar = np.zeros(m)
    ybar[iyb] = 1.0
    bhat = np.linalg.inv(bmat)
    zbars = np.zeros((p + 1, m))
    zbars[:, iyb] = [-float(a @ bhat[:, i]) for i in range(p + 1)]
    zbars[:, p + 5:] = bhat.T

    raw = (xvec, yvec, *zvecs, xbar, ybar, *zbars)
    scaled = [eps0 * xvec, eps1 * yvec]
    for i in range(p + 1):
        scaled.append(eps0 ** -2 * eps1 ** -(i + 1) * zvecs[i])
    scaled.append(xbar / eps0)
    scaled.append(ybar / eps1)
    for i in range(p + 1):
        scaled.append(eps0 ** 2 * eps1 ** (i + 1) * zbars[i])
    return Frame(params, pt, a, bmat, eps0, eps1, raw, tuple(scaled))


# -------------------------------------------------------------------- model
@dataclass(frozen=True)
class CurvatureModel:
    """Level-by-level component dictionaries on a q-dimensional space."""

    dim: int
    levels: tuple[Mapping[tuple[int, ...], float], ...]

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1


def reference_model(p: int) -> CurvatureModel:
    """The universal frame components for the family at levels k <= p + 2,
    which do not depend on the profile.  Lives on the span of (X, Y,
    Z_0..Z_p)."""
    if p < -1:
        raise ValueError("p must be >= -1")
    levels = tuple(
        _level_roots(k, 1.0 if k in (p + 1, p + 2) else 0.0,
                     [1.0 if i == k else 0.0 for i in range(p + 1)])
        for k in range(p + 3)
    )
    return CurvatureModel(p + 3, levels)


def _frame_components(
    ctx: CurvatureContext, k: int, reps: Sequence[np.ndarray]
) -> dict[tuple[int, ...], float]:
    """Transform the sparse level-k tensor into the span of `reps`."""
    q = len(reps)
    pmat = np.asarray(reps, dtype=float)
    cur = ctx.curvature(k).components
    for s in range(4 + k):
        nxt: dict[tuple[int, ...], float] = {}
        for idx, v in cur.items():
            col = pmat[:, idx[s]]
            for j in range(q):
                w = col[j] * v
                if w == 0.0:
                    continue
                key = idx[:s] + (j,) + idx[s + 1:]
                nxt[key] = nxt.get(key, 0.0) + w
        cur = {k2: v2 for k2, v2 in nxt.items() if v2 != 0.0}
    return cur


def quotient_model(
    params: FamilyParams,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> CurvatureModel:
    """Engine curvature contracted onto the rescaled unbarred frame span, at
    the levels k <= p + 2 of `reference_model`.

    The barred frame directions insert to zero at every slot, so this is the
    curvature model induced on the quotient by that kernel."""
    p = params.p
    k_max = p + 2
    ctx = context if context is not None and context.max_deriv >= k_max else None
    if ctx is None:
        ctx = CurvatureContext(build_metric(params), point, k_max)
    frame = normalize_frame(params, point, context=ctx)
    reps = frame.rescaled[: p + 3]
    levels = tuple(_frame_components(ctx, k, reps) for k in range(k_max + 1))
    return CurvatureModel(p + 3, levels)


def model_deviation(got: CurvatureModel, want: CurvatureModel) -> float:
    """Largest absolute component gap across shared levels, union support."""
    if got.dim != want.dim:
        raise ValueError("models live on different dimensions")
    n = min(got.max_level, want.max_level)
    return max((_gap(got.levels[k], want.levels[k]) for k in range(n + 1)), default=0.0)


def frame_model_deviation(
    params: FamilyParams,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> float:
    """How far the engine frame components sit from the universal model."""
    got = quotient_model(params, point, context)
    return model_deviation(got, reference_model(params.p))


def model_kernel(ctx: CurvatureContext, k_max: int) -> np.ndarray:
    """Orthonormal basis (columns) of the joint insertion kernel of levels
    0..k_max: vectors giving zero in every slot of every component."""
    m = ctx.dim
    rows: dict[tuple, np.ndarray] = {}
    for k in range(k_max + 1):
        for idx, v in ctx.curvature(k).components.items():
            for s in range(4 + k):
                key = (k, s, idx[:s] + idx[s + 1:])
                row = rows.get(key)
                if row is None:
                    row = np.zeros(m)
                    rows[key] = row
                row[idx[s]] += v
    if not rows:
        return np.eye(m)
    mat = np.array(list(rows.values()))
    _u, sig, vh = np.linalg.svd(mat)
    rank = int(np.sum(sig > _RANK_TOL * sig[0]))
    return vh[rank:].T
