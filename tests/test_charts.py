"""Chart changes as an oracle: every curvature level is a tensor.

A metric pulled back along a chart change x = phi(x') has, at x', levels
that equal the original's at phi(x') with the Jacobian J = dphi/dx' carried
on every slot.  No closed form is needed, so the relation checks any metric
(a metamorphic relation: Chen, Cheung and Yiu, HKUST-CS98-01, 1998).  Under
a linear chart the Christoffel symbols are a tensor too, and the level
step's Christoffel sum carries over term by term; the quadratic part b of
the chart gives them an inhomogeneous part, so that sum matters.  The
scalar invariants are the same number in both charts.
"""
import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo import invariants as inv
from jetgeo.curvature import CurvatureContext
from jetgeo.metric import MetricSpec, metric_from_strings, two_sphere
from test_level_view import non_diagonal

LEVELS = 2
TOL = 1e-10  # of the level's largest entry; the engine reads about 1e-13


def substitute(e: ex.Expr, images) -> ex.Expr:
    """`e` with each variable replaced by its image expression."""
    if isinstance(e, ex.Var):
        return images[e.name]
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Sum):
        return ex.Sum(tuple(substitute(t, images) for t in e.terms))
    if isinstance(e, ex.Prod):
        return ex.Prod(tuple(substitute(f, images) for f in e.factors))
    if isinstance(e, ex.Pow):
        return ex.Pow(substitute(e.base, images), e.exponent)
    return type(e)(substitute(e.arg, images))  # Neg, Exp, Sin, Cos


def pull_back(spec: MetricSpec, a: np.ndarray, b: float) -> MetricSpec:
    """`spec` in the chart x = phi(x'), phi_j(x') = sum_k a_jk x'_k +
    b x'_(j+1)^2 (no square in the last), over the same coordinate names:
    g' = J^T g(phi(x')) J, with J's entries as expressions."""
    n = spec.dim
    x = [ex.Var(c) for c in spec.coords]

    def phi(j):
        terms = [ex.Prod((ex.Const(float(a[j, k])), x[k])) for k in range(n)]
        if j + 1 < n:
            terms.append(ex.Prod((ex.Const(b), ex.Pow(x[j + 1], 2))))
        return ex.Sum(tuple(terms))

    def jac(j, k):
        if k == j + 1:
            return ex.Sum((ex.Const(float(a[j, k])), ex.Prod((ex.Const(2.0 * b), x[k]))))
        return ex.Const(float(a[j, k]))

    images = {c: phi(j) for j, c in enumerate(spec.coords)}
    g = {(i, j): substitute(e, images) for i, row in enumerate(spec.components)
         for j, e in enumerate(row) if e != ex.Const(0.0)}
    return MetricSpec(spec.coords, {
        (k, l): ex.Sum(tuple(ex.Prod((jac(i, k), e, jac(j, l))) for (i, j), e in g.items()))
        for k in range(n) for l in range(k, n)}, spec.signature)


def carried(t: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The covariant tensor `t` with J on every slot: sum t_(i..) J_(i a)..."""
    for _ in range(t.ndim):
        t = np.tensordot(t, jac, axes=([0], [0]))
    return t


CONFORMAL = "exp(2.0*(0.31*{0}^2 - 0.12*{0}*{1} + 0.07*{1}^2 + 0.22*{0} - 0.18*{1}))"


def _diagonal(coords, diag) -> MetricSpec:
    return metric_from_strings(coords, {(i, i): e for i, e in enumerate(diag)}, (0, len(coords)))


def _metrics():
    params = fam.FamilyParams(0, ex.parse("exp(y) + exp(2*y)", ("y",)))
    yield "family p=0", fam.build_metric(params), fam.base_point(params, 0.3, [0.2])
    yield "non-diagonal", *non_diagonal()
    # the pulled-back trees of these are dense in sin, powers, negations
    # and long sums
    yield "conformal", _diagonal(("x", "y"), (CONFORMAL.format("x", "y"),) * 2), (0.2, -0.35)
    yield "S2 x conformal", _diagonal(("theta", "phi", "s", "t"), (
        "1.0", "sin(theta)^2", CONFORMAL.format("s", "t"), CONFORMAL.format("s", "t"))), \
        (0.9, -1.2, 0.3, 0.1)


def _charted(spec, point, b, seed):
    """The contexts of `spec` near `point` and of its pull-back along a
    chart with quadratic part b, at points that the chart maps to each
    other, and the chart's Jacobian there."""
    n = spec.dim
    a = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))
    xp = np.linalg.solve(a, np.asarray(point))
    x = a @ xp + b * np.append(xp[1:] ** 2, 0.0)
    jac = a.copy()
    jac[np.arange(n - 1), np.arange(1, n)] += 2.0 * b * xp[1:]
    ctx = CurvatureContext(spec, tuple(x), LEVELS)
    return ctx, CurvatureContext(pull_back(spec, a, b), tuple(xp), LEVELS), jac


CASES = [(name, spec, point, b, seed) for name, spec, point in _metrics()
         for b in (0.0, 0.1) for seed in (1, 2)]


@pytest.mark.parametrize("name,spec,point,b,seed", CASES,
                         ids=[f"{c[0]}, b={c[3]}, seed {c[4]}" for c in CASES])
def test_levels_are_tensors_under_a_chart_change(name, spec, point, b, seed):
    ctx, moved, jac = _charted(spec, point, b, seed)
    for k in range(LEVELS + 1):
        want = carried(ctx.curvature(k).dense(), jac)
        scale = np.max(np.abs(want))
        assert scale > 0.0
        gap = np.max(np.abs(moved.curvature(k).dense() - want))
        assert gap <= TOL * scale, (k, gap / scale)


TWINS = [(name, spec, point, b)
         for name, spec, point in (("S2", two_sphere(), (0.8, 0.3)),
                                   ("H2", metric_from_strings(("x", "y"), {
                                       (0, 0): "1.0", (1, 1): "exp(2*x)"}, (0, 2)), (-0.1, 0.2)))
         for b in (0.0, 0.1)]


@pytest.mark.parametrize("name,spec,point,b", TWINS, ids=[f"{c[0]}, b={c[3]}" for c in TWINS])
def test_constant_curvature_levels_are_tensors_under_a_chart_change(name, spec, point, b):
    # every entry of the pull-back is dense in both coordinates.  The
    # levels above 0 of S^2 and H^2 are roundoff images of zero (ROADMAP,
    # item 1), so each level is held to TOL of level 0's largest entry
    ctx, moved, jac = _charted(spec, point, b, 1)
    scale = np.max(np.abs(carried(ctx.curvature(0).dense(), jac)))
    assert scale > 0.0
    for k in range(LEVELS + 1):
        gap = np.max(np.abs(moved.curvature(k).dense() - carried(ctx.curvature(k).dense(), jac)))
        assert gap <= TOL * scale, (k, gap / scale)


@pytest.mark.parametrize("name,spec,point,b,seed", CASES + [(*c, 1) for c in TWINS],
                         ids=[f"{c[0]}, b={c[3]}, seed {c[4]}" for c in CASES]
                         + [f"{c[0]}, b={c[3]}, seed 1" for c in TWINS])
def test_invariants_are_the_same_in_both_charts(name, spec, point, b, seed):
    # relative to the larger of the invariant and level 0's largest entry
    # to the invariant's degree, as the family's invariants vanish
    ctx, moved, _ = _charted(spec, point, b, seed)
    scale = np.max(np.abs(ctx.curvature(0).values))
    for n in ("tau", "r2", "ric2"):
        schema = inv.NAMED_SCHEMAS[n]
        want = inv.evaluate(schema, spec, ctx.point, context=ctx)
        got = inv.evaluate(schema, moved.spec, moved.point, context=moved)
        assert abs(got - want) <= TOL * max(abs(want), scale ** len(schema.factors)), n
