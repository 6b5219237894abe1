"""End-to-end acceptance gates: oracle equivalence, pivot structure,
invariant vanishing, frame homogeneity, the alpha dichotomy, long-time
geodesics, kernel structure, and jet-vs-finite-difference correctness."""
import math
import time

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo import geodesics as geo
from jetgeo.curvature import (
    CurvatureContext,
    DegeneratePlaneError,
    jacobi_operator,
    skew_curvature_operator,
)
from jetgeo.invariants import NAMED_SCHEMAS, catalog, evaluate, evaluate_many, random_schemas
from jetgeo.jets import Jet, jet_space
from jetgeo.metric import two_sphere
from test_jets import ranked

PROFILES = ("exp(y)", "exp(y) + exp(2*y)", "y^8 + y^9")
P_VALUES = (-1, 0, 1, 2)


def make_params(p, text):
    return fam.FamilyParams(p, ex.parse(text, ("y",)))


def basis(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


# ------------------------------------------------- 1: oracle equivalence
def check_closed_forms(p, text, rng, n_points):
    """The engine's nabla^k R, k <= p + 3, against the closed forms at
    `n_points` random points of one family member."""
    params = make_params(p, text)
    spec = fam.build_metric(params)
    for _ in range(n_points):
        y = rng.uniform(0.3, 1.3)
        z = rng.uniform(-1.0, 1.0, size=p + 1)
        pt = fam.base_point(params, y, z)
        ctx = CurvatureContext(spec, pt, p + 3)
        for k in range(p + 4):
            delta = fam.oracle_delta(params, pt, k, context=ctx)
            scale = max(
                (abs(v) for v in fam.oracle_nabla_k_r(params, pt, k).values()),
                default=0.0,
            )
            assert delta <= 1e-9 * max(scale, 1e-30), (p, text, k)


def test_engine_matches_closed_forms_on_family_grid():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    points_checked = 0
    for p in P_VALUES:
        for text in PROFILES:
            check_closed_forms(p, text, rng, 9)
            points_checked += 9
    assert points_checked >= 100
    assert time.perf_counter() - t_start <= 60.0


@pytest.mark.parametrize("p", [6, 7, 8])
def test_engine_matches_closed_forms_at_high_p(p):
    # the paper's claims hold for every k >= 2; here up to k = 11, with a
    # jet space of 10 variables at order 13 (1,144,066 multi-indices) at
    # p = 8, one a context
    rng = np.random.default_rng(20261018 + p)
    for text in PROFILES:
        check_closed_forms(p, text, rng, 2)


# -------------------------------------------------------- 2: pivot values
def test_pivot_contractions_are_factorials():
    rng = np.random.default_rng(7)
    for p in (0, 1, 2):
        params = make_params(p, "exp(y) + exp(2*y)")
        spec = fam.build_metric(params)
        n = 2 * p + 6
        for _ in range(4):
            pt = fam.base_point(
                params, rng.uniform(-0.5, 0.5), rng.uniform(-1, 1, size=p + 1)
            )
            ctx = CurvatureContext(spec, pt, p + 3)
            for k in range(p + 4):
                for i in range(p + 1):
                    if i > k:
                        continue
                    vecs = [basis(0, n), basis(1, n), basis(2 + i, n), basis(0, n)]
                    vecs += [basis(1, n)] * k
                    got = ctx.contract(k, vecs)
                    want = math.factorial(k + 1)
                    if i == k:
                        assert abs(got - want) <= 1e-10 * want, (p, k, i)
                    else:
                        assert abs(got) <= 1e-10 * want, (p, k, i)


# ------------------------------------------- 3: Ricci flat and nilpotent
def test_family_is_ricci_flat_with_nilpotent_operators():
    rng = np.random.default_rng(314159)
    for p in P_VALUES:
        for text in PROFILES:
            params = make_params(p, text)
            spec = fam.build_metric(params)
            n = 2 * p + 6
            pt = fam.base_point(
                params, rng.uniform(0.3, 1.0), rng.uniform(-1, 1, size=p + 1)
            )
            ctx = CurvatureContext(spec, pt, 0)
            assert np.max(np.abs(ctx.ricci())) <= 1e-12, (p, text)
            jac_worst = 0.0
            for _ in range(200):
                xi = rng.normal(size=n)
                op = jacobi_operator(ctx, xi)
                jac_worst = max(jac_worst, float(np.max(np.abs(op @ op))))
            assert jac_worst <= 1e-10, (p, text)
            # skew squares vanish on nondegenerate planes; the operator norm
            # diverges toward the null cone, so redraw near-null planes just
            # like outright degenerate ones
            g = spec.value(pt)
            skew_worst = 0.0
            done = 0
            for _ in range(400):
                if done == 200:
                    break
                a, b = rng.normal(size=n), rng.normal(size=n)
                gram = np.array([[a @ g @ a, a @ g @ b], [a @ g @ b, b @ g @ b]])
                if abs(np.linalg.det(gram)) < 1e-2 * (a @ a) * (b @ b):
                    continue
                try:
                    op = skew_curvature_operator(ctx, a, b)
                except DegeneratePlaneError:
                    continue
                skew_worst = max(skew_worst, float(np.max(np.abs(op @ op))))
                done += 1
            assert done == 200, (p, text)
            assert skew_worst <= 1e-10, (p, text)


# ------------------------------------------------ 4: invariant vanishing
def test_scalar_invariants_vanish_on_family():
    params = make_params(0, "exp(y) + exp(2*y)")
    spec = fam.build_metric(params)
    schemas = list(catalog(3, 2).schemas) + list(
        random_schemas(200, 3, 2, seed=20260817)
    )
    assert len(schemas) == 1741
    rng = np.random.default_rng(99)
    for _ in range(50):
        pt = fam.base_point(params, rng.uniform(-0.8, 0.8), rng.uniform(-1, 1, size=1))
        ctx = CurvatureContext(spec, pt, 2)
        sup = {
            k: max((abs(v) for v in fam.oracle_nabla_k_r(params, pt, k).values()),
                   default=0.0)
            for k in range(3)
        }
        values = evaluate_many(schemas, spec, pt, context=ctx)
        for schema, got in zip(schemas, values.tolist()):
            scale = 1.0
            for level in schema.factors:
                scale *= sup[level]
            assert abs(got) <= 1e-10 * max(scale, 1.0), schema.to_line()


def test_sphere_control_invariants_do_not_vanish():
    sph = two_sphere()
    rng = np.random.default_rng(3)
    for _ in range(5):
        pt = (rng.uniform(0.4, 2.7), rng.uniform(-3.0, 3.0))
        ctx = CurvatureContext(sph, pt, 2)
        assert evaluate(NAMED_SCHEMAS["tau"], sph, pt, context=ctx) == pytest.approx(
            2.0, abs=1e-9
        )
        assert evaluate(NAMED_SCHEMAS["r2"], sph, pt, context=ctx) == pytest.approx(
            4.0, abs=1e-9
        )


# --------------------------------------------------- 5: frame normalization
def test_normalized_frames_reproduce_model_constants():
    rng = np.random.default_rng(42)
    for p in P_VALUES:
        for text in ("exp(y)", "exp(y) + exp(2*y)"):
            params = make_params(p, text)
            for _ in range(20):
                pt = fam.base_point(
                    params, rng.uniform(-0.5, 0.8), rng.uniform(-1, 1, size=p + 1)
                )
                assert fam.frame_model_deviation(params, pt) <= 1e-9, (p, text)
            y = rng.uniform(-0.5, 0.8)
            d = fam.profile_derivs(params, y, p + 5)
            frame = fam.normalize_frame(params, fam.base_point(params, y))
            assert frame.eps1 == d[p + 3] / d[p + 4]


# ----------------------------------------------------- 6: alpha dichotomy
def test_alpha_constant_for_pure_exponential():
    params = make_params(0, "exp(y)")
    values = [fam.alpha_closed_form(params, y) for y in np.linspace(-1.0, 1.0, 21)]
    assert float(np.var(values)) <= 1e-20


def test_alpha_non_constant_for_exponential_sum():
    params = make_params(0, "exp(y) + exp(2*y)")
    assert fam.alpha_closed_form(params, 0.0) == pytest.approx(
        297.0 / 289.0, rel=1e-12
    )
    values = [fam.alpha_closed_form(params, y) for y in np.linspace(-1.0, 1.0, 41)]
    assert max(values) - min(values) >= 0.01


def test_alpha_routes_agree_and_ignore_auxiliary_product():
    rng = np.random.default_rng(17)
    for p in (-1, 0, 1):
        params = make_params(p, "exp(y) + exp(2*y)")
        n = 2 * p + 6
        for _ in range(5):
            y = rng.uniform(-0.5, 0.5)
            pt = fam.base_point(params, y, rng.uniform(-1, 1, size=p + 1))
            closed = fam.alpha_closed_form(params, y)
            via_jacobi = fam.alpha_via_jacobi(params, pt)
            assert abs(via_jacobi - closed) <= 1e-9 * max(1.0, abs(closed))
            m = rng.normal(size=(n, n))
            aux = m @ m.T + n * np.eye(n)
            with_aux = fam.alpha_via_jacobi(params, pt, aux=aux)
            assert abs(with_aux - via_jacobi) <= 1e-10 * max(1.0, abs(via_jacobi))


# ------------------------------------------------- 7: long-time geodesics
def test_geodesic_routes_longtime_and_boundary_maps():
    t_start = time.perf_counter()
    params = make_params(0, "exp(y)")
    spec = fam.build_metric(params)
    pt = fam.base_point(params, 0.2, [0.3])

    prob = geo.GeodesicProblem(
        spec, pt, velocity=(0.3, -0.15, 0.2, 0.1, 0.05, -0.1), t_end=10.0
    )
    tri = geo.solve_geodesic(prob, method="triangular", n_samples=201)
    rk = geo.solve_geodesic(prob, method="rk", n_samples=201)
    assert np.max(np.abs(tri.u - rk.u)) <= 1e-6
    assert np.max(np.abs(tri.du - rk.du)) <= 1e-6
    for traj in (tri, rk):
        e = geo.energy_along(spec, traj)
        assert np.max(np.abs(e - e[0])) <= 1e-8

    rng = np.random.default_rng(5)
    for _ in range(100):
        p0 = fam.base_point(params, rng.uniform(-0.5, 0.5), [rng.uniform(-1, 1)])
        q = np.array(p0) + rng.uniform(-0.5, 0.5, size=6)
        v0 = geo.log_map(spec, p0, q)
        back = geo.exp_map(spec, p0, v0)
        assert np.max(np.abs(back - q)) <= 1e-8

    # long-horizon probe: must run to completion with finite output
    probe = geo.triangular_ivp(
        spec, pt, (0.1, -0.2, 0.05, 0.02, 0.01, -0.03), t_end=1000.0, n_samples=101
    )
    assert np.all(np.isfinite(probe.u)) and np.all(np.isfinite(probe.du))
    e = geo.energy_along(spec, probe)
    assert np.max(np.abs(e - e[0])) <= 1e-8
    assert time.perf_counter() - t_start <= 120.0


# ------------------------------------------------------ 8: kernel structure
def test_level_zero_kernel_is_the_isotropic_span():
    for p in (0, 1):
        params = make_params(p, "exp(y) + exp(2*y)")
        pt = fam.base_point(params, 0.3, [0.2] * (p + 1))
        ctx = CurvatureContext(fam.build_metric(params), pt, 2)
        ker = fam.model_kernel(ctx, 2)
        n = 2 * p + 6
        half = n // 2
        assert ker.shape == (n, half)
        assert np.max(np.abs(ker[:half, :])) <= 1e-12
        assert np.linalg.matrix_rank(ker[half:, :], tol=1e-12) == half


def test_quotient_model_has_trivial_kernel():
    for p in (0, 1):
        params = make_params(p, "exp(y) + exp(2*y)")
        pt = fam.base_point(params, 0.3, [0.2] * (p + 1))
        model = fam.quotient_model(params, pt)
        d = model.dim
        # joint insertion kernel: v is in it iff substituting v into any
        # slot of any level gives zero, so stack one row per (level, slot,
        # remaining indices) and ask for full column rank
        rows: dict[tuple, np.ndarray] = {}
        for k, level in enumerate(model.levels):
            for idx, val in level.items():
                for s in range(len(idx)):
                    key = (k, s, idx[:s] + idx[s + 1:])
                    rows.setdefault(key, np.zeros(d))[idx[s]] = val
        mat = np.stack(list(rows.values()))
        assert np.linalg.matrix_rank(mat, tol=1e-12) == d


# ------------------------------------------------------- 9: jet correctness
# one central-difference step per total derivative order; higher orders
# need wider steps to keep cancellation noise below the comparison floor
_FD_STEP = {0: 1.0, 1: 1e-5, 2: 1e-4, 3: 1e-3}


def _fd_partial(f, point, m):
    h = _FD_STEP[sum(m)]

    def rec(vars_left, env):
        for pos, count in enumerate(vars_left):
            if count:
                below = list(vars_left)
                below[pos] -= 1

                def f1(t, pos=pos, below=tuple(below)):
                    e2 = dict(env)
                    e2[pos] = e2.get(pos, 0.0) + t
                    return rec(below, e2)

                return (f1(h) - f1(-h)) / (2.0 * h)
        shifted = [point[i] + env.get(i, 0.0) for i in range(len(point))]
        return f(shifted)

    return rec(tuple(m), {})


def test_jet_coefficients_match_finite_differences():
    chart = ("a", "b", "c")
    corpus = [
        "exp(a)*b + c^3",
        "sin(a*b) + cos(c)",
        "(a + 2*b)^3 - c*a",
        "exp(a + b)*sin(c)",
        "a^2*b*c + 0.5*b^2",
    ]
    rng = np.random.default_rng(11)
    space = jet_space(chart, 3)
    for text in corpus:
        e = ex.parse(text, chart)
        f = lambda pt: ex.eval_point(e, dict(zip(chart, pt)))
        for _ in range(3):
            point = rng.uniform(-0.7, 0.7, size=3)
            env = dict(zip(chart, point))
            jet = ex.eval_jet(e, env, chart, 3)
            for m in ranked(space):
                got = jet.extract(m)
                want = _fd_partial(f, point, m)
                assert abs(got - want) <= 1e-5 * max(1.0, abs(want)), (text, m)


def test_leibniz_identity_exact_for_dyadic_jets():
    chart = ("a", "b", "c")
    space = jet_space(chart, 3)
    rng = np.random.default_rng(23)
    for _ in range(20):
        # dyadic coefficients keep every convolution term exact in binary
        a = Jet(space, rng.integers(-8, 9, size=space.size) / 8.0)
        b = Jet(space, rng.integers(-8, 9, size=space.size) / 8.0)
        prod = Jet(space, space.multiply(a.coef, b.coef))
        rank = ranked(space)
        for m in rank:
            conv = 0.0
            for ma in rank:
                mb = tuple(x - y for x, y in zip(m, ma))
                if any(x < 0 for x in mb):
                    continue
                conv += a.coef[rank[ma]] * b.coef[rank[mb]]
            assert prod.coef[rank[m]] == conv, m
