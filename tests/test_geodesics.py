"""Geodesics: the batched geodesic force, triangular-structure
analysis, dual-route integration with energy conservation, and the
exp/log boundary maps."""
import gc
import itertools
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo import geodesics as geo
from jetgeo import metric as mt
from jetgeo.curvature import CurvatureContext, christoffel_terms
from jetgeo.jets import NonFiniteError, jet_space
from jetgeo.metric import MetricSpec, metric_from_strings, two_sphere
from test_jets import ranked


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


def substitution_solve(spec, g, w):
    """x with g x = w for (N, m, m) g and (N, m) w, by substitution over the
    pattern of `spec`'s metric: while a row has one unknown column c left,
    x_c = (w_r - the sum of g_re x_e over its known columns e, ascending) /
    g_rc, the first such row first; when none has, the unknowns left are
    one block, solved at once with rows and columns ascending.  (On the
    metrics of `force_cases` every such block is irreducible.)"""
    pattern = np.zeros((spec.dim, spec.dim), dtype=bool)
    for i, j in spec.entry_vars:
        pattern[i, j] = pattern[j, i] = True
    x, known, rows_left = np.zeros(w.shape), [], list(range(spec.dim))
    while rows_left:
        unknown = {r: set(np.flatnonzero(pattern[r]).tolist()) - set(known) for r in rows_left}
        rows = [r for r in rows_left if len(unknown[r]) == 1][:1] or rows_left
        cols = sorted(set().union(*(unknown[r] for r in rows)))
        rhs = w[:, rows].copy()
        for i, r in enumerate(rows):
            for e in sorted(set(np.flatnonzero(pattern[r]).tolist()) - set(cols)):
                rhs[:, i] = rhs[:, i] - g[:, r, e] * x[:, e]
        if len(rows) == 1:
            x[:, cols[0]] = rhs[:, 0] / g[:, rows[0], cols[0]]
        else:
            x[:, cols] = np.linalg.solve(g[:, rows][:, :, cols], rhs[:, :, None])[:, :, 0]
        known += cols
        rows_left = [r for r in rows_left if r not in rows]
    return x


def reference_system(spec, point, velocity):
    """g and w of the per-point force the batched one replaced: an order-1
    `eval_jet` per varying metric entry, and the Christoffel terms summed
    on its coefficients."""
    m = spec.dim
    env = spec.env_at(point)
    active = spec.active_vars
    sp1 = jet_space(active, 1)
    rank = ranked(sp1)
    slot = {spec.coords.index(name): rank[tuple(int(k == pos) for k in range(sp1.n))]
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
    return g, w


def reference_force(spec, point, velocity):
    """`reference_system` solved by `substitution_solve`."""
    g, w = reference_system(spec, point, velocity)
    return substitution_solve(spec, g[None], w[None])[0]


def force_cases():
    """(spec, points, velocities): S^2, family p = 0..2 (exp, cos, sin,
    negation and a zeroth power in the profiles), the 3-coordinate
    non-diagonal metric, and a 3-coordinate metric of three singleton
    blocks whose last row subtracts two solved terms."""
    rng = np.random.default_rng(17)
    cases = [(two_sphere(), np.column_stack([rng.uniform(0.3, 2.8, 12),
                                             rng.uniform(-3, 3, 12)]))]
    for p, f in enumerate(("exp(y) + exp(2*y)", "exp(y) - cos(2*y)", "2 + sin(y)^3 + y^0")):
        spec = fam.build_metric(fam.FamilyParams(p, ex.parse(f, ("y",))))
        cases.append((spec, rng.uniform(-0.8, 0.8, (12, spec.dim))))
    spec, pt = three_metric()
    cases.append((spec, pt + rng.uniform(-0.5, 0.5, (12, 3))))
    cases = [(s, pts, rng.standard_normal(pts.shape)) for s, pts in cases]
    spec = metric_from_strings(("u", "v", "w"), {(0, 0): "exp(w) + u*v", (0, 1): "sin(u + w)",
                                                 (0, 2): "1", (1, 1): "1"}, (1, 2))
    rng = np.random.default_rng(19)
    return cases + [(spec, rng.uniform(-0.8, 0.8, (12, 3)), rng.standard_normal((12, 3)))]


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
        assert ev.force(pts[:0], vels[:0]).shape == (0, spec.dim)


def test_shared_velocity_is_the_repeated_rows():
    # one (m,) velocity for all points, as the direct route passes it, runs
    # the row form with the velocity as floats: the bits of the repeated
    # rows and of the one-point calls.  The last metric is one 2 x 2 block
    # whose right-hand sides are floats then, as are its constant entries.
    cases = force_cases()
    linear = metric_from_strings(("x", "y"), {(0, 0): "1", (0, 1): "x", (1, 1): "1"}, (0, 2))
    assert [len(rows) for rows, _ in linear.structure[2]] == [2]
    rng = np.random.default_rng(29)
    for spec, pts, vels in (*cases[0:2], cases[3], cases[4],
                            (linear, rng.uniform(-0.5, 0.5, (12, 2)), None)):
        ev = geo.ChristoffelPointEvaluator(spec)
        vel = rng.standard_normal(spec.dim) if vels is None else vels[0]
        shared = ev.force(pts, vel)
        assert shared.shape == pts.shape
        assert shared.tobytes() == ev.force(pts, np.repeat(vel[None], len(pts), 0)).tobytes()
        assert shared.tobytes() == np.array([ev.force(p, vel) for p in pts]).tobytes()
        assert ev.force(pts[:0], vel).shape == (0, spec.dim)


def family_cases():
    """(spec, points, velocities) of family p = 0..8."""
    rng = np.random.default_rng(23)
    for p in range(9):
        spec = fam.build_metric(fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",))))
        pts = rng.uniform(-0.8, 0.8, (6, spec.dim))
        yield spec, pts, rng.standard_normal(pts.shape)


def test_force_matches_dense_solve_within_roundoff():
    # the substitution against one LAPACK solve of g G = w at each point:
    # within 4 eps of the largest entry of the point's force
    for spec, pts, vels in [*force_cases(), *family_cases()]:
        ev = geo.ChristoffelPointEvaluator(spec)
        want = np.array([np.linalg.solve(spec.value(p), reference_system(spec, p, v)[1])
                         for p, v in zip(pts, vels)])
        bound = 4 * np.finfo(float).eps * np.max(np.abs(want), axis=1, keepdims=True)
        for got in (ev.force(pts, vels), np.array([ev.force(p, v) for p, v in zip(pts, vels)])):
            assert (np.abs(got - want) <= bound).all(), spec


def test_free_coordinates_get_exact_zeros():
    # no force reaches a free coordinate, and the substitution computes none
    # there: an exact zero in both forms, where a dense solve leaves round-off
    seen = 0
    for spec, pts, vels in [*force_cases(), *family_cases()]:
        ev = geo.ChristoffelPointEvaluator(spec)
        free = [spec.coords.index(name) for name in ev.report.free]
        seen += len(free)
        assert not ev.force(pts, vels)[:, free].any()
        assert not any(ev.force(p, v)[free].any() for p, v in zip(pts, vels))
    assert seen == sum(p + 3 for p in (0, 1, 2)) + sum(p + 3 for p in range(9))


def test_one_block_and_diagonal_forces_are_the_dense_solves():
    # three_metric is one 3 x 3 block, solved as one LAPACK call on all of
    # g; S^2's two singletons divide as LAPACK's solve does
    cases = force_cases()
    for spec, pts, vels in (cases[0], cases[4]):
        ev = geo.ChristoffelPointEvaluator(spec)
        want = np.array([np.linalg.solve(*reference_system(spec, p, v)) for p, v in zip(pts, vels)])
        assert np.array_equal(ev.force(pts, vels), want)
        assert np.array_equal([ev.force(p, v) for p, v in zip(pts, vels)], want)


def test_zero_pivot_raises_as_the_dense_solve_does():
    spec = metric_from_strings(("x", "y"), {(0, 0): "x", (1, 1): "1"}, (0, 2))
    ev = geo.ChristoffelPointEvaluator(spec)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(spec.value((0.0, 0.3)), [1.0, 0.0])
    assert ev.force((0.5, 0.3), np.ones(2)).shape == (2,)
    for pts in ((0.0, 0.3), np.array([[1.0, 0.2], [0.0, 0.3]])):
        with pytest.raises(np.linalg.LinAlgError):
            ev.force(pts, np.ones(np.shape(pts)))


def test_blocks_solve_random_patterns():
    # metrics of random symmetric patterns, entries c + b x0: the blocks
    # cover g once, each needs only blocks before it, and the force is a
    # dense solve's up to round-off scaled by g's condition number
    rng = np.random.default_rng(11)
    coords = tuple(f"x{k}" for k in range(6))
    sizes = []
    for _ in range(150):
        mask = np.triu(rng.random((6, 6)) < 0.3)
        keys = [(i, j) for i, j in zip(*np.nonzero(mask))]
        spec = metric_from_strings(coords, {
            key: f"{rng.uniform(0.5, 2.0):.3f} + {rng.uniform(-1.0, 1.0):.3f}*x0" for key in keys},
            (0, 6))
        structure = spec.structure
        if structure is None:
            continue
        pattern = np.zeros((6, 6), dtype=bool)
        for i, j in spec.entry_vars:
            pattern[i, j] = pattern[j, i] = True
        done = set()
        for rows, cols in structure[2]:
            assert len(rows) == len(cols) and not done & set(cols)
            assert set(np.flatnonzero(pattern[list(rows)].any(axis=0))) <= done | set(cols)
            done |= set(cols)
            sizes.append(len(rows))
        assert done == set(range(6))
        ev = geo.ChristoffelPointEvaluator(spec)
        pt, vel = rng.uniform(-0.5, 0.5, 6), rng.standard_normal(6)
        g, w = spec.value(pt), reference_system(spec, pt, vel)[1]
        want = np.linalg.solve(g, w)
        tol = 1e-13 * np.linalg.cond(g) * np.max(np.abs(want))
        np.testing.assert_allclose(ev.force(pt, vel), want, rtol=0, atol=tol)
        np.testing.assert_allclose(ev.force(pt[None], vel[None])[0], want, rtol=0, atol=tol)
    assert sizes.count(1) > 100 and len(sizes) - sizes.count(1) > 20


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
    assert len(calls) <= geo._MAX_DEPTH + 2
    assert sum(calls) > 1000


def test_no_jetgeo_command_imports_scipy():
    # a family check (Runge-Kutta and direct routes, exp(log)) and a
    # Runge-Kutta solve load no scipy module; the geodesic routes alone load
    # no numpy.random either (the check draws its velocity from it).  Neither
    # the check nor an S^2 context to level 6 loads numpy.ma, which
    # `np.unique` may import (13.5 ms and 1.3 MB a process)
    code = (
        "import contextlib, io, sys\n"
        "from jetgeo import cli, expr as ex, family as fam, geodesics as geo\n"
        "from jetgeo.curvature import CurvatureContext\n"
        "from jetgeo.metric import two_sphere\n"
        "params = fam.FamilyParams(0, ex.parse('exp(y) + exp(2*y)', ('y',)))\n"
        "spec, pt = fam.build_metric(params), fam.base_point(params, 0.3, [0.6])\n"
        "v = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)\n"
        "geo.solve_geodesic(geo.GeodesicProblem(spec, pt, velocity=v))\n"
        "back = geo.log_map(spec, pt, tuple(geo.exp_map(spec, pt, v)))\n"
        "assert max(abs(back - v)) <= 1e-10, back\n"
        "traj = geo.integrate_ivp(two_sphere(), (1.5707963267948966, 0.0), (0.0, 1.0))\n"
        "assert abs(traj.u[-1, 1] - 1.0) <= 1e-9, traj.u[-1]\n"
        "assert 'numpy.random' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert cli.main(['check', '--family', 'p=2,f=exp(y)+exp(2*y)']) == 0\n"
        "assert 'geodesic_roundtrip: PASS' in out.getvalue(), out.getvalue()\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "assert CurvatureContext(two_sphere(), (0.8, 0.3), 6).curvature(6).dim == 2\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "traj = geo.integrate_ivp(two_sphere(), (1.5707963267948966, 0.0), (0.0, 1.0))\n"
        "assert abs(traj.u[-1, 1] - 1.0) <= 1e-9, traj.u[-1]\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
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
    # the first exp_map compiled the spec's evaluator; the solves share it
    assert counts == {"report": 2, "evaluator": 0}


def test_evaluator_compiled_once_per_spec(monkeypatch):
    # every route, the report, the maps and the energy check of one spec
    # read the one evaluator compiled on its first use
    calls, init = [], geo.ChristoffelPointEvaluator.__init__

    def counted_init(self, spec):
        calls.append(spec)
        init(self, spec)

    monkeypatch.setattr(geo.ChristoffelPointEvaluator, "__init__", counted_init)
    spec, pt = family_setup()
    vel = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    geo.triangular_report(spec)
    traj = geo.integrate_ivp(spec, pt, vel)
    geo.triangular_ivp(spec, pt, vel)
    geo.exp_map(spec, pt, geo.log_map(spec, pt, tuple(traj.u[-1])))
    geo.energy_along(spec, traj)
    assert calls == [spec]


def test_evaluators_of_one_spec_share_one_kernel():
    spec, pt = family_setup()
    assert spec not in geo._EVALUATORS  # built on the first solve, not with the spec
    first = geo._evaluator(spec)
    assert geo._evaluator(spec) is first
    geo.integrate_ivp(spec, pt, (0.1, 0.2, -0.1, 0.3, 0.0, 0.1))
    geo.triangular_report(spec)
    assert geo._EVALUATORS[spec] is first
    twin, _ = family_setup()
    assert geo._evaluator(twin) is not first
    # a direct construction compiles afresh, and the same force
    fresh = geo.ChristoffelPointEvaluator(spec)
    assert fresh is not first and fresh.report == first.report
    vel = np.array([0.1, 0.2, -0.1, 0.3, 0.0, 0.1])
    assert fresh.force(pt, vel).tobytes() == first.force(pt, vel).tobytes()
    # the cache holds its specs weakly, and an evaluator does not keep its
    # spec alive
    gone = weakref.ref(spec)
    del spec, twin
    gc.collect()
    assert gone() is None


# ------------------------------------------------------------------ report
def test_triangular_report_family():
    spec, pt = family_setup()
    rep = geo.triangular_report(spec)
    assert rep.ok
    assert rep.free == ("x", "y", "z0")
    assert rep.forced == ("xbar", "ybar", "zbar0")
    assert rep.blocking == ()


def test_triangular_report_sphere_blocked():
    rep = geo.triangular_report(two_sphere())
    assert not rep.ok
    assert rep.free == ()
    assert rep.blocking
    assert any("non-free" in msg for msg in rep.blocking)


def test_triangular_report_flat():
    rep = geo.triangular_report(flat_plane())
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
    rep = geo.triangular_report(spec)
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


@pytest.mark.parametrize("p", range(4))
def test_log_map_is_the_two_point_start_velocity(p):
    # log_map stops at the closing quadrature; the trajectory it skips
    # starts at du[0] = v0 - 0.0, the same bits
    params = fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = fam.build_metric(params)
    rng = np.random.default_rng(100 + p)
    for _ in range(4):
        start = fam.base_point(params, rng.uniform(-0.5, 0.5), rng.uniform(-1, 1, p + 1))
        target = tuple(np.array(start) + rng.uniform(-0.5, 0.5, spec.dim))
        want = geo.triangular_bvp(spec, start, target).du[0]
        assert geo.log_map(spec, start, target).tobytes() == want.tobytes()


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


def _spoilt(xs, bad):
    return (*xs[:3], bad, *xs[4:])


def test_non_finite_problems_are_refused():
    # nan or inf in a start, velocity or target is refused as the problem is
    # posed, before any route runs: the direct route's quadrature never
    # accepts a nan error estimate, and would split its intervals without end
    spec, pt = family_setup()
    v = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    target = tuple(x + 0.1 for x in pt)
    cases = [case for bad in (math.nan, math.inf, -math.inf) for case in (
        ("start", _spoilt(pt, bad), "velocity", v),
        ("velocity", pt, "velocity", _spoilt(v, bad)),
        ("start", _spoilt(pt, bad), "target", target),
        ("target", pt, "target", _spoilt(target, bad)))]
    for name, start, kind, end in cases:
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            geo.GeodesicProblem(spec, start, **{kind: end})
    routes = {"velocity": (geo.integrate_ivp, geo.triangular_ivp), "target": (geo.triangular_bvp,)}
    for name, start, kind, end in cases:
        for route in routes[kind]:
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                route(spec, start, end)


def test_runge_kutta_route_runs_forward_only():
    # both initial-value routes integrate forward over a finite interval, as
    # every problem does; a nan or infinite end would step forever
    spec, pt = family_setup()
    v = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    for t_end in (0.0, -1.0, math.nan, math.inf):
        for route in (geo.integrate_ivp, geo.triangular_ivp):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                route(spec, pt, v, t_end)
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            geo.GeodesicProblem(spec, pt, velocity=v, t_end=t_end)


def test_every_route_checks_its_problem():
    # the three routes take their arguments as the GeodesicProblem they
    # pose, with at least one sample
    spec, pt = family_setup()
    v = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    target = tuple(x + 0.1 for x in pt)
    for route in (geo.integrate_ivp, geo.triangular_ivp):
        with pytest.raises(ValueError, match="velocity must have length 6"):
            route(spec, pt, v[:5])
        with pytest.raises(ValueError, match="start must have length 6"):
            route(spec, pt + (0.0,), v)
    with pytest.raises(ValueError, match="target must have length 6"):
        geo.triangular_bvp(spec, pt, target[:5])
    with pytest.raises(ValueError, match="start must have length 6"):
        geo.triangular_bvp(spec, pt[:5], target)
    for n_samples in (0, -1):
        for route, end in ((geo.integrate_ivp, v), (geo.triangular_ivp, v),
                           (geo.triangular_bvp, target)):
            with pytest.raises(ValueError, match="n_samples must be >= 1"):
                route(spec, pt, end, n_samples=n_samples)
    for route, end in ((geo.integrate_ivp, v), (geo.triangular_ivp, v),
                       (geo.triangular_bvp, target)):
        traj = route(spec, pt, end, n_samples=1)
        assert traj.t.tolist() == [0.0] and traj.u.tolist() == [list(pt)]


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


def test_adaptive_simpson_evaluates_shared_ends_once():
    # contiguous intervals (a[1:] == b[:-1]) start from their n + 1 distinct
    # ends and n midpoints, each once; the same intervals out of order start
    # from 3n nodes, and every integral is the same bit for bit
    grid = np.linspace(-1.0, 1.0, 7)
    a, b, tol = grid[:-1], grid[1:], 1e-12 * np.arange(1.0, 7.0)

    def steep(nodes):
        def f(x):
            nodes.append(x.copy())
            return np.column_stack([np.exp(30.0 * x), np.sin(5.0 * x)])
        return f

    shared, apart = [], []
    got = geo.adaptive_simpson(steep(shared), a, b, tol)
    order = np.array([3, 0, 5, 1, 4, 2])
    want = geo.adaptive_simpson(steep(apart), a[order], b[order], tol[order])
    assert got[order].tobytes() == want.tobytes()
    assert len(shared[0]) == 2 * 6 + 1 == len(np.unique(shared[0]))
    assert len(apart[0]) == 3 * 6
    assert sum(map(len, apart)) - sum(map(len, shared)) == 5  # the interior ends
    assert [len(x) for x in shared[1:]] == [len(x) for x in apart[1:]]
    # one interval, and none
    one = geo.adaptive_simpson(steep([]), a[:1], b[:1], tol[:1])
    assert one.tobytes() == got[:1].tobytes()
    assert geo.adaptive_simpson(steep([]), a[:0], b[:0], tol[:0]).shape == (0, 2)


def test_direct_routes_evaluate_the_force_through_force(monkeypatch):
    # every force evaluation of the direct routes passes through
    # ChristoffelPointEvaluator.force, where the benchmark's span sees it
    inside, seen = [False], {"force": 0, "rows": 0, "floats": 0}
    force = geo.ChristoffelPointEvaluator.force

    def counted(self, points, velocities):
        seen["force"] += 1
        inside[0] = True
        try:
            return force(self, points, velocities)
        finally:
            inside[0] = False

    spec, pt = family_setup()
    ev = geo._evaluator(spec)
    program = ev._force

    def run(u, d):  # the one program, over rows or over floats
        name = "rows" if isinstance(u, np.ndarray) else "floats"
        assert inside[0], f"a force evaluation outside force ({name})"
        seen[name] += 1
        return program(u, d)
    monkeypatch.setattr(ev, "_force", run)
    monkeypatch.setattr(geo.ChristoffelPointEvaluator, "force", counted)
    vel = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    target = tuple(geo.triangular_ivp(spec, pt, vel).u[-1])
    geo.triangular_bvp(spec, pt, target)
    geo.log_map(spec, pt, target)
    assert seen["force"] == seen["rows"] > 0 and seen["floats"] == 0


def _conformal(rate):
    return metric_from_strings(("x", "y"), {(0, 0): f"exp({rate}*y)", (1, 1): f"exp({rate}*y)"},
                               (0, 2))


def test_overflowing_probe_points_are_skipped():
    # exp(100 y) overflows above y = 7.09, near this start; the report reads
    # the spec alone and evaluates no point, and the solve runs Runge-Kutta
    spec = _conformal(100)
    rep = geo.triangular_report(spec)
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
    assert not geo.triangular_report(cases[0][0]).ok
    for s, _ in cases:
        want = geo.triangular_report(s)
        for k in range(-20, 21, 4):
            assert geo.triangular_report(_scaled(s, 10.0 ** k)) == want, (s, k)


def test_triangular_report_reads_the_spec_alone(monkeypatch):
    # the report is decided once per spec, with its kernel, from the
    # metric's pattern: it evaluates no metric value, and every solve of the
    # spec, from any start, shares the one report
    spec, pt = family_setup()
    monkeypatch.setattr(MetricSpec, "value", lambda self, q: pytest.fail("metric evaluated"))
    want = geo.triangular_report(spec)
    assert want.ok and want is geo._EVALUATORS[spec].report
    seen, report = [], geo.triangular_report
    monkeypatch.setattr(geo, "triangular_report", lambda s: seen.append(report(s)) or seen[-1])
    vel = (0.1, 0.2, -0.1, 0.3, 0.0, 0.1)
    geo.triangular_ivp(spec, pt, vel)
    end = geo.exp_map(spec, pt, vel)
    geo.log_map(spec, list(pt), tuple(end))
    other = (pt[0], pt[1] + 0.1, *pt[2:])
    geo.solve_geodesic(geo.GeodesicProblem(spec, other, velocity=vel))
    assert len(seen) == 4 and all(rep is want for rep in seen)


def test_ill_scaled_blocks_do_not_fool_the_report():
    # 1e-11 (ds^2 + dt^2) + exp(2y)(dx^2 + dy^2): judged against the 1e11
    # of g^ss, a numeric inverse calls g^xx and g^yy zero, but the force on
    # x and y needs their velocities and y, so auto takes Runge-Kutta
    spec = metric_from_strings(("s", "t", "x", "y"), {
        (0, 0): "1e-11", (1, 1): "1e-11", (2, 2): "exp(2*y)", (3, 3): "exp(2*y)"}, (0, 4))
    rep = geo.triangular_report(spec)
    assert not rep.ok and rep.free == ("s", "t") and rep.forced == ("x", "y")
    prob = geo.GeodesicProblem(spec, (0.0, 0.0, 0.1, 0.2), velocity=(0.3, -0.2, 0.4, 0.5))
    with pytest.raises(geo.TriangularStructureError):
        geo.solve_geodesic(prob, method="triangular")
    auto, rk = geo.solve_geodesic(prob), geo.solve_geodesic(prob, method="rk")
    assert np.array_equal(auto.u, rk.u) and np.array_equal(auto.du, rk.du)


def test_structurally_singular_metric_is_refused():
    # no matching of rows to nonzero columns: g is singular at every point,
    # and the report says so without inverting it
    spec = metric_from_strings(("x", "y"), {(0, 0): "exp(y)"}, (0, 2))
    assert geo.triangular_report(spec) == geo.TriangularReport(
        False, (), (), ("the metric is structurally singular",))
    with pytest.raises(geo.TriangularStructureError, match="^the metric is structurally singular"):
        geo.triangular_ivp(spec, (0.0, 0.1), (1.0, 0.5))


def _constant_metric(g):
    m = len(g)
    return MetricSpec(tuple(f"u{i}" for i in range(m)), {
        (i, j): ex.Const(float(g[i, j])) for i in range(m) for j in range(i, m) if g[i, j]},
        (0, m))


def test_inverse_structure_against_numeric_inversion():
    # random symmetric patterns, zero diagonals allowed, with random values:
    # a structurally singular pattern gives a singular matrix, and otherwise
    # the structural pattern of g^-1 holds every entry of the numeric
    # inverse, and equals its pattern on a well-conditioned fill
    rng = np.random.default_rng(20_261_019)
    singular = agree = 0
    for _ in range(1500):
        m = int(rng.integers(2, 9))
        mask = np.triu(rng.random((m, m)) < rng.uniform(0.15, 0.6))
        vals = np.where(mask, rng.uniform(0.5, 2.0, (m, m)) * rng.choice([-1.0, 1.0], (m, m)), 0.0)
        g = vals + np.triu(vals, 1).T
        structure = _constant_metric(g).structure
        if structure is None:
            singular += 1
            assert np.linalg.matrix_rank(g) < m, g
            continue
        inv = np.linalg.inv(g)
        numeric = np.abs(inv) > 1e-13 * np.max(np.abs(inv))
        assert np.array_equal(structure[0], structure[0].T)
        assert not (numeric & ~structure[0]).any(), g
        assert structure[1] == []  # constant entries reach nothing
        if np.linalg.cond(g) < 1e6:
            agree += 1
            assert np.array_equal(numeric, structure[0]), g
    assert singular > 100 and agree > 500


def test_inverse_structure_is_a_superset_under_cancellation():
    # g = [[1, x], [x, x^2 + 1]] has det 1 and g^yy = 1: the structure
    # cannot see the cancellation and lists g^yy as depending on x
    spec = metric_from_strings(("x", "y"), {(0, 0): "1", (0, 1): "x", (1, 1): "x^2 + 1"},
                               (0, 2))
    inv, deps, _ = spec.structure
    assert inv.all()
    assert {n for names, hit in deps if hit[1, 1] for n in names} == {"x"}
    for x in (-3.0, 0.0, 0.7):
        assert np.linalg.inv(spec.value((x, 0.0)))[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_one_structure_per_spec(monkeypatch):
    # the curvature context, the report and every route read the spec's one
    # structure, decided on first use and kept on the spec
    decide, seen = mt._inverse_deps, []
    monkeypatch.setattr(mt, "_inverse_deps", lambda spec: seen.append(spec) or decide(spec))
    spec, pt = family_setup()
    assert seen == []  # building the spec decides nothing
    CurvatureContext(spec, pt, 1)
    CurvatureContext(spec, pt, 2)
    assert geo.triangular_report(spec).ok
    vel = np.linspace(0.1, 0.3, spec.dim)
    geo.integrate_ivp(spec, pt, vel, n_samples=3)
    geo.log_map(spec, pt, np.asarray(pt) + 0.05)
    assert seen == [spec]
