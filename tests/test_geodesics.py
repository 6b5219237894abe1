"""Geodesics: the batched geodesic force, triangular-structure
analysis, dual-route integration with energy conservation, and the
exp/log boundary maps."""
import inspect
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo import geodesics as geo
from jetgeo.curvature import CurvatureContext, christoffel_terms
from jetgeo.jets import NonFiniteError, jet_space
from jetgeo.metric import MetricSpec, metric_from_strings, two_sphere


def family_setup():
    params = fam.FamilyParams(0, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = fam.build_metric(params)
    return spec, fam.base_point(params, 0.3, [0.6])


def three_metric():
    spec = metric_from_strings(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"},
        (0, 3),
    )
    return spec, np.array([0.2, -0.3, 0.1])


def flat_plane():
    one = ex.parse("1", ("u", "v"))
    return MetricSpec(("u", "v"), {(0, 0): one, (1, 1): one}, (2, 0))


def reference_force(spec, point, velocity):
    """The per-point force the batched one replaced: an order-1 `eval_jet`
    per varying metric entry, the Christoffel terms summed on its
    coefficients, and one solve."""
    m = spec.dim
    env = spec.env_at(point)
    active = spec.active_vars
    sp1 = jet_space(active, 1)
    slot = {spec.coords.index(name): sp1.rank[tuple(int(k == pos) for k in range(sp1.n))]
            for pos, name in enumerate(active)}
    g = np.zeros((m, m))
    jet1 = {}
    for i in range(m):
        for j in range(i, m):
            e = spec.components[i][j]
            if ex.free_vars(e):
                jet1[(i, j)] = ex.eval_jet(e, env, active, 1).coef.tolist()
                g[i, j] = g[j, i] = jet1[(i, j)][0]
            else:
                g[i, j] = g[j, i] = ex.eval_point(e, env)
    w = np.zeros(m)
    for (a, b, c), terms in christoffel_terms(spec).items():
        vv = velocity[a] * velocity[b]
        if vv != 0.0:
            w[c] += vv * sum(h * jet1[pair][slot[v]] for v, pair, h in terms)
    return np.linalg.solve(g, w)


def force_cases():
    """(spec, points, velocities): S^2, family p = 0..2 (exp, cos, sin,
    negation and a zeroth power in the profiles) and the 3-coordinate
    non-diagonal metric."""
    rng = np.random.default_rng(17)
    cases = [(two_sphere(), np.column_stack([rng.uniform(0.3, 2.8, 12),
                                             rng.uniform(-3, 3, 12)]))]
    for p, f in enumerate(("exp(y) + exp(2*y)", "exp(y) - cos(2*y)", "2 + sin(y)^3 + y^0")):
        spec = fam.build_metric(fam.FamilyParams(p, ex.parse(f, ("y",))))
        cases.append((spec, rng.uniform(-0.8, 0.8, (12, spec.dim))))
    spec, pt = three_metric()
    cases.append((spec, pt + rng.uniform(-0.5, 0.5, (12, 3))))
    return [(s, pts, rng.standard_normal(pts.shape)) for s, pts in cases]


# --------------------------------------------------------------- evaluator
def test_force_matches_sphere_closed_form():
    # theta'' = sin cos phi'^2 and phi'' = -2 cot theta' phi'; force is -acc
    ev = geo.ChristoffelPointEvaluator(two_sphere())
    for th, ph, dth, dph in ((0.8, 0.1, 0.3, -0.7), (2.1, -1.0, -0.4, 0.5), (1.2, 0.0, 0.0, 1.3)):
        got = ev.force((th, ph), np.array([dth, dph]))
        want = [-np.sin(th) * np.cos(th) * dph ** 2, 2.0 * dth * dph / np.tan(th)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_force_matches_finite_differences():
    spec, pt = three_metric()
    m = 3
    h = 1e-5
    dg = np.zeros((m, m, m))  # dg[v, i, j] = d_v g_ij
    for v in range(m):
        e = np.zeros(m)
        e[v] = h
        dg[v] = (spec.value(pt + e) - spec.value(pt - e)) / (2 * h)
    first = np.zeros((m, m, m))
    for a, b, c in itertools.product(range(m), repeat=3):
        first[a, b, c] = 0.5 * (dg[a, b, c] + dg[b, a, c] - dg[c, a, b])
    ev = geo.ChristoffelPointEvaluator(spec)
    rng = np.random.default_rng(3)
    for _ in range(5):
        vel = rng.standard_normal(m)
        want = np.linalg.solve(spec.value(pt), np.einsum("a,b,abd->d", vel, vel, first))
        np.testing.assert_allclose(ev.force(pt, vel), want, rtol=1e-7, atol=1e-8)


def test_force_matches_per_point_reference():
    for spec, pts, vels in force_cases():
        ev = geo.ChristoffelPointEvaluator(spec)
        got = ev.force(pts, vels)
        want = np.array([reference_force(spec, p, v) for p, v in zip(pts, vels)])
        # the same arithmetic in the same order: equal up to the sign of zero
        assert got.shape == want.shape and np.array_equal(got, want)


def test_force_batch_invariant():
    for spec, pts, vels in force_cases():
        ev = geo.ChristoffelPointEvaluator(spec)
        batch = ev.force(pts, vels)
        single = np.array([ev.force(p, v) for p, v in zip(pts, vels)])
        assert batch.tobytes() == single.tobytes()
        assert ev.force(tuple(pts[0]), vels[0]).shape == (spec.dim,)


def test_exp_overflow_along_path_raises():
    params = fam.FamilyParams(0, ex.parse("exp(100*y)", ("y",)))
    spec = fam.build_metric(params)
    pt = fam.base_point(params, 0.0, [0.0])  # y reaches 7.09 at t = 7.09
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(NonFiniteError):
            geo.triangular_ivp(spec, pt, (0.0, 1.0, 0.0, 0.1, 0.0, 0.0), t_end=10.0)
        with pytest.raises(NonFiniteError):
            geo.ChristoffelPointEvaluator(spec).force(
                np.array([pt, (0.0, 7.5, 0.0, 0.0, 0.0, 0.0)]), np.ones((2, 6)))


def test_direct_route_batches_force_calls(monkeypatch):
    # the quadrature evaluates every node of one depth together, so a
    # t_end = 10 solve (about 1,200 nodes) makes a handful of force calls
    calls = []
    force = geo.ChristoffelPointEvaluator.force

    def counted(self, points, velocities):
        calls.append(len(points))
        return force(self, points, velocities)

    monkeypatch.setattr(geo.ChristoffelPointEvaluator, "force", counted)
    params = fam.FamilyParams(0, ex.parse("exp(y)", ("y",)))
    spec = fam.build_metric(params)
    geo.triangular_ivp(spec, fam.base_point(params, 0.2, [0.3]),
                       (0.3, -0.15, 0.2, 0.1, 0.05, -0.1), t_end=10.0)
    max_depth = inspect.signature(geo.adaptive_simpson).parameters["max_depth"].default
    assert len(calls) <= max_depth + 2
    assert sum(calls) > 1000


def test_import_leaves_scipy_to_the_rk_route():
    code = (
        "import sys, jetgeo, jetgeo.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'\n"
        "from jetgeo import geodesics as geo\n"
        "from jetgeo.metric import two_sphere\n"
        "traj = geo.integrate_ivp(two_sphere(), (1.5707963267948966, 0.0), (0.0, 1.0))\n"
        "assert abs(traj.u[-1, 1] - 1.0) <= 1e-9, traj.u[-1]\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_christoffel_terms_are_the_engine_nonzeros():
    # symbols the symbolic structure allows are exactly those the curvature
    # engine finds nonzero at a generic point
    spec, pt = family_setup()
    for s, q in ((two_sphere(), (0.8, 0.1)), (spec, pt), three_metric()):
        terms = christoffel_terms(s)
        assert list(terms) == sorted(terms)
        assert set(terms) == set(CurvatureContext(s, q, 0).christoffels().first)


def test_direct_route_set_up_once_per_solve(monkeypatch):
    counts = {"report": 0, "evaluator": 0}
    report, init = geo.triangular_report, geo.ChristoffelPointEvaluator.__init__

    def counted_report(*args):
        counts["report"] += 1
        return report(*args)

    def counted_init(self, *args):
        counts["evaluator"] += 1
        init(self, *args)

    monkeypatch.setattr(geo, "triangular_report", counted_report)
    monkeypatch.setattr(geo.ChristoffelPointEvaluator, "__init__", counted_init)
    spec, pt = family_setup()
    target = geo.exp_map(spec, pt, (0.1, 0.2, -0.1, 0.3, 0.0, 0.1))
    counts.update(report=0, evaluator=0)
    geo.exp_map(spec, pt, geo.log_map(spec, pt, tuple(target)))
    assert counts == {"report": 2, "evaluator": 2}


def test_evaluators_of_one_spec_share_one_kernel():
    spec, pt = family_setup()
    assert spec not in geo._KERNELS  # built on the first solve, not with the spec
    first = geo.ChristoffelPointEvaluator(spec)
    assert geo.ChristoffelPointEvaluator(spec).kernel is first.kernel
    geo.integrate_ivp(spec, pt, (0.1, 0.2, -0.1, 0.3, 0.0, 0.1))
    geo.triangular_report(spec, pt)
    assert geo._KERNELS[spec] is first.kernel
    twin, _ = family_setup()
    assert geo.ChristoffelPointEvaluator(twin).kernel is not first.kernel


# ------------------------------------------------------------------ report
def test_triangular_report_family():
    spec, pt = family_setup()
    rep = geo.triangular_report(spec, pt)
    assert rep.ok
    assert rep.free == ("x", "y", "z0")
    assert rep.forced == ("xbar", "ybar", "zbar0")
    assert rep.blocking == ()


def test_triangular_report_sphere_blocked():
    rep = geo.triangular_report(two_sphere(), (0.8, 0.1))
    assert not rep.ok
    assert rep.free == ()
    assert rep.blocking
    assert any("non-free" in msg for msg in rep.blocking)


def test_triangular_report_flat():
    rep = geo.triangular_report(flat_plane(), (0.0, 0.0))
    assert rep.ok and rep.free == ("u", "v") and rep.forced == ()


# ------------------------------------------------------------------ routes
def test_routes_agree_and_conserve_energy():
    spec, pt = family_setup()
    prob = geo.GeodesicProblem(
        spec, pt, velocity=(0.4, -0.3, 0.2, 0.1, 0.05, -0.2), t_end=2.0
    )
    tri = geo.solve_geodesic(prob, method="triangular")
    rk = geo.solve_geodesic(prob, method="rk")
    assert tri.t.shape == (101,) and tri.u.shape == (101, 6)
    assert np.max(np.abs(tri.u - rk.u)) <= 1e-9
    assert np.max(np.abs(tri.du - rk.du)) <= 1e-9
    # energy is computed independently of either integrator, so it catches
    # errors that route agreement cannot
    e_tri = geo.energy_along(spec, tri)
    e_rk = geo.energy_along(spec, rk)
    assert np.max(np.abs(e_tri - e_tri[0])) <= 1e-12
    assert np.max(np.abs(e_rk - e_rk[0])) <= 1e-10


def test_auto_prefers_triangular_on_family():
    spec, pt = family_setup()
    prob = geo.GeodesicProblem(spec, pt, velocity=(0.1, 0.2, -0.1, 0.3, 0.0, 0.1))
    assert np.array_equal(
        geo.solve_geodesic(prob, method="auto").u,
        geo.solve_geodesic(prob, method="triangular").u,
    )


def test_free_coordinates_are_exactly_affine():
    spec, pt = family_setup()
    v = (0.4, -0.3, 0.2, 0.1, 0.05, -0.2)
    traj = geo.solve_geodesic(geo.GeodesicProblem(spec, pt, velocity=v, t_end=2.0))
    rep = geo.triangular_report(spec, pt)
    for name in rep.free:
        i = spec.coords.index(name)
        assert np.array_equal(traj.u[:, i], pt[i] + v[i] * traj.t)
        assert np.array_equal(traj.du[:, i], np.full_like(traj.t, v[i]))


def test_sphere_rejects_triangular_method():
    prob = geo.GeodesicProblem(
        two_sphere(), (np.pi / 2, 0.0), velocity=(0.0, 1.0), t_end=1.0
    )
    with pytest.raises(geo.TriangularStructureError):
        geo.solve_geodesic(prob, method="triangular")


def test_sphere_equator_geodesic():
    sph = two_sphere()
    prob = geo.GeodesicProblem(
        sph, (np.pi / 2, 0.0), velocity=(0.0, 1.0), t_end=2 * np.pi
    )
    traj = geo.solve_geodesic(prob, n_samples=201)
    assert np.max(np.abs(traj.u[:, 0] - np.pi / 2)) <= 1e-12
    assert traj.u[-1, 1] == pytest.approx(2 * np.pi, abs=1e-10)
    e = geo.energy_along(sph, traj)
    assert np.max(np.abs(e - 1.0)) <= 1e-12


def test_sphere_tilted_geodesic_conserves_energy():
    sph = two_sphere()
    prob = geo.GeodesicProblem(sph, (1.0, 0.5), velocity=(0.3, 0.4), t_end=3.0)
    traj = geo.solve_geodesic(prob)
    e = geo.energy_along(sph, traj)
    assert np.max(np.abs(e - e[0])) <= 1e-10


def test_flat_plane_is_exact():
    flat = flat_plane()
    traj = geo.solve_geodesic(
        geo.GeodesicProblem(flat, (0.0, 0.0), velocity=(1.0, 2.0)), n_samples=3
    )
    assert geo.trajectory_csv(traj) == (
        "t,u_1,u_2,du_1,du_2\n"
        "0.0,0.0,0.0,1.0,2.0\n"
        "0.5,0.5,1.0,1.0,2.0\n"
        "1.0,1.0,2.0,1.0,2.0\n"
    )
    e = geo.energy_along(flat, traj)
    assert np.array_equal(e, np.full(3, 5.0))


# ---------------------------------------------------------------- two-point
def test_two_point_solution_hits_target():
    spec, pt = family_setup()
    v = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    end = geo.exp_map(spec, pt, v)
    traj = geo.solve_geodesic(geo.GeodesicProblem(spec, pt, target=tuple(end)))
    assert np.max(np.abs(traj.u[-1] - end)) <= 1e-12
    assert np.max(np.abs(traj.du[0] - np.array(v))) <= 1e-12


def test_log_map_inverts_exp_map():
    spec, pt = family_setup()
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.uniform(-0.5, 0.5, size=6)
        v[1] = -abs(v[1])  # keep the profile from growing along the path
        end = geo.exp_map(spec, pt, v)
        assert np.max(np.abs(geo.log_map(spec, pt, tuple(end)) - v)) <= 1e-10


def test_problem_validation():
    spec, pt = family_setup()
    v = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    with pytest.raises(ValueError, match="exactly one"):
        geo.GeodesicProblem(spec, pt)
    with pytest.raises(ValueError, match="exactly one"):
        geo.GeodesicProblem(spec, pt, velocity=v, target=pt)
    with pytest.raises(ValueError, match="length 6"):
        geo.GeodesicProblem(spec, pt, velocity=(1.0,))
    with pytest.raises(ValueError, match="length 6"):
        geo.GeodesicProblem(spec, (0.0,), velocity=v)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        geo.GeodesicProblem(spec, pt, target=pt, t_end=2.0)
    with pytest.raises(ValueError, match="unknown method"):
        geo.solve_geodesic(geo.GeodesicProblem(spec, pt, velocity=v), method="nope")


# --------------------------------------------------------------- quadrature
def test_adaptive_simpson():
    got = geo.adaptive_simpson(lambda x: x[:, None] ** 3, [0.0], [1.0], [1e-12])[0]
    assert got[0] == pytest.approx(0.25, abs=1e-12)
    vec = geo.adaptive_simpson(
        lambda x: np.column_stack([x, x * x]), [0.0], [2.0], [1e-12]
    )[0]
    assert vec == pytest.approx([2.0, 8.0 / 3.0], abs=1e-10)


def recursive_simpson(f, a, b, tol, max_depth=28):
    """The depth-first adaptive Simpson rule the breadth-first one replaced,
    one node per call of f."""
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))

    def rec(a_, m_, b_, fa_, fm_, fb_, s, tol_, depth):
        lm, rm = 0.5 * (a_ + m_), 0.5 * (m_ + b_)
        flm, frm = f(lm), f(rm)
        left = (m_ - a_) / 6.0 * (fa_ + 4.0 * flm + fm_)
        right = (b_ - m_) / 6.0 * (fm_ + 4.0 * frm + fb_)
        s2 = left + right
        err = float(np.max(np.abs(s2 - s)))
        if depth >= max_depth or err <= 15.0 * tol_ * max(1.0, float(np.max(np.abs(s2)))):
            return s2 + (s2 - s) / 15.0
        return rec(a_, lm, m_, fa_, flm, fm_, left, 0.5 * tol_, depth + 1) + rec(
            m_, rm, b_, fm_, frm, fb_, right, 0.5 * tol_, depth + 1)

    return rec(a, 0.5 * (a + b), b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


def test_adaptive_simpson_many_intervals():
    # several intervals in one call, each with its own tolerance, on a
    # steep integrand that forces refinement; each equals the depth-first
    # rule bit for bit
    nodes = []

    def steep(x):
        nodes.append(len(x))
        return np.exp(30.0 * x)[:, None]

    a = np.array([0.0, -1.0, 0.2, 0.5])
    b = np.array([1.0, 0.5, 0.3, 0.5])
    tol = np.array([1e-12, 1e-10, 1e-8, 1e-12])
    got = geo.adaptive_simpson(steep, a, b, tol)[:, 0]
    want = (np.exp(30.0 * b) - np.exp(30.0 * a)) / 30.0
    assert got.shape == (4,)
    assert np.all(np.abs(got - want) <= 10.0 * tol * np.maximum(np.abs(want), 1.0))
    assert sum(nodes) > 100 * len(a)  # refined well past the first depth
    assert len(nodes) <= 28 + 2  # the end and mid nodes, then one call per depth
    for i in range(len(a)):
        one = recursive_simpson(lambda r: np.exp(30.0 * np.array([r])), a[i], b[i], tol[i])
        assert one[0] == got[i]


def _conformal(rate):
    return metric_from_strings(("x", "y"), {(0, 0): f"exp({rate}*y)", (1, 1): f"exp({rate}*y)"},
                               (0, 2))


def test_overflowing_probe_points_are_skipped():
    # the start is finite, but jittered probes reach exp(100 y) with y > 7.09
    spec = _conformal(100)
    rep = geo.triangular_report(spec, (0.3, 6.0))
    assert not rep.ok and rep.free == () and rep.forced == ("x", "y")
    traj = geo.solve_geodesic(geo.GeodesicProblem(spec, (0.3, 6.0), velocity=(0.1, -0.2)))
    assert np.isfinite(traj.u).all()


def _scaled(spec, lam):
    return MetricSpec(spec.coords, {
        (i, j): ex.Prod((ex.Const(lam), spec.components[i][j]))
        for i in range(spec.dim) for j in range(i, spec.dim)
        if spec.components[i][j] != ex.Const(0.0)}, spec.signature)


def test_triangular_report_is_scale_invariant():
    # a tiny inverse metric is not a zero one: exp(10 y) g_flat at y = 3
    # has g^-1 ~ 1e-13, and its direct route must still be refused
    spec, pt = family_setup()
    cases = [(_conformal(10), (0.3, 3.0)), (_conformal(10), (0.3, 2.0)), (spec, pt),
             (two_sphere(), (0.8, 0.1)), (flat_plane(), (0.0, 0.0)), three_metric()]
    assert not geo.triangular_report(*cases[0]).ok
    for s, q in cases:
        want = geo.triangular_report(s, q)
        for k in range(-20, 21, 4):
            assert geo.triangular_report(_scaled(s, 10.0 ** k), q) == want, (s, k)


def test_triangular_report_probes_once_per_point(monkeypatch):
    # the report is deterministic (a fixed probe seed), so the kernel keeps
    # the last one: the direct solve, exp_map and log_map from one start
    # probe once between them, and a new point probes again
    spec, pt = family_setup()
    calls = []
    value = MetricSpec.value
    monkeypatch.setattr(MetricSpec, "value", lambda self, q: calls.append(1) or value(self, q))
    want = geo.triangular_report(spec, pt)
    probes = len(calls)
    assert probes > 3
    vel = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    geo.triangular_ivp(spec, pt, vel)
    end = geo.exp_map(spec, pt, vel)
    geo.log_map(spec, list(pt), tuple(end))
    assert geo.triangular_report(spec, np.array(pt)) is want and len(calls) == probes
    other = (pt[0], pt[1] + 0.1, *pt[2:])
    assert geo.triangular_report(spec, other) == want and len(calls) == 2 * probes
    geo.triangular_report(spec, pt)
    assert len(calls) == 3 * probes
