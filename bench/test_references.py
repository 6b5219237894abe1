"""Checks of the benchmark's closed-form references against sympy and,
for the family, against jetgeo's own oracle.

    PYTHONPATH=src python3 -m pytest bench/test_references.py

Curvature is derived symbolically with the engine's conventions:
first-kind Christoffel symbols G_abc = (d_a g_bc + d_b g_ac - d_c g_ab) / 2
with the last index lowered, R_ijkl = d_i(G_jk^m) g_ml + G_jk^m G_iml minus
the same with i and j swapped, and each covariant derivative appended as
the last slot.
"""
from __future__ import annotations

import math
from itertools import product as iproduct

import numpy as np
import pytest
import sympy as sp

import references as ref


def _levels(coords, g, kmax):
    """Symbolic curvature levels 0..kmax as dicts index -> expression."""
    n = len(coords)
    ginv = g.inv()
    first = {(a, b, c): (sp.diff(g[b, c], coords[a]) + sp.diff(g[a, c], coords[b])
                         - sp.diff(g[a, b], coords[c])) / 2
             for a, b, c in iproduct(range(n), repeat=3)}
    second = {(a, b, c): sum(ginv[c, d] * first[(a, b, d)] for d in range(n))
              for a, b, c in iproduct(range(n), repeat=3)}

    def edge(i, j, k, l):
        return sum(sp.diff(second[(j, k, m)], coords[i]) * g[m, l]
                   + second[(j, k, m)] * first[(i, m, l)] for m in range(n))

    level = {idx: edge(*idx) - edge(idx[1], idx[0], idx[2], idx[3])
             for idx in iproduct(range(n), repeat=4)}
    out = [level]
    for _ in range(kmax):
        nxt = {}
        for idx in iproduct(range(n), repeat=len(next(iter(level))) + 1):
            base, m = idx[:-1], idx[-1]
            e = sp.diff(level[base], coords[m])
            for s, i_s in enumerate(base):
                for a in range(n):
                    gam = second[(m, i_s, a)]
                    if gam != 0:
                        e -= gam * level[base[:s] + (a,) + base[s + 1:]]
            nxt[idx] = e
        level = nxt
        out.append(level)
    return out


def _numeric(level, subs):
    return {idx: float(e.subs(subs)) for idx, e in level.items()}


def _gap(got: dict, want: dict) -> float:
    return max(abs(got.get(i, 0.0) - want.get(i, 0.0)) for i in set(got) | set(want))


# ------------------------------------------------------------------ family
F = ref.ExpSum((0.7, 1.3, 0.5), (0.9, 1.6, 1.2))


def test_profile_derivatives_and_alpha_match_sympy():
    y = sp.Symbol("y")
    f = sum(sp.Float(a) * sp.exp(sp.Float(c) * y) for a, c in zip(F.a, F.c))
    for n in range(9):
        want = float(sp.diff(f, y, n).subs(y, 0.3))
        assert F.deriv(0.3, n) == pytest.approx(want, rel=1e-13)
    for p in range(4):
        d = [sp.diff(f, y, p + j).subs(y, -0.2) for j in (3, 4, 5)]
        assert ref.alpha(F, p, -0.2) == pytest.approx(float(d[0] * d[2] / d[1] ** 2), rel=1e-13)


def test_family_levels_match_sympy():
    p = 0
    names = ref.family_coords(p)
    coords = sp.symbols(names)
    x, y, z0 = coords[:3]
    big_f = sum(sp.Float(a) * sp.exp(sp.Float(c) * y) for a, c in zip(F.a, F.c)) + y * z0
    m = len(names)
    g = sp.zeros(m, m)
    g[0, 0] = -2 * big_f
    for i in range(p + 3):
        g[i, p + 3 + i] = g[p + 3 + i, i] = 1
    pt = ref.family_point(p, 0.25, [0.4])
    subs = dict(zip(coords, pt))
    for k, level in enumerate(_levels(coords, g, 1)):
        want = {i: v for i, v in _numeric(level, subs).items() if v != 0.0}
        got = ref.family_level(F, p, pt, k)
        assert _gap(got, want) <= 1e-12 * max(map(abs, want.values()))


def test_family_levels_match_engine_oracle():
    from jetgeo import expr as ex
    from jetgeo import family as fam

    for p in range(4):
        params = fam.FamilyParams(p, ex.parse(F.text(), ("y",)))
        pt = ref.family_point(p, 0.15, [0.1 * (i + 1) for i in range(p + 1)])
        for k in range(p + 4):
            got = ref.family_level(F, p, pt, k)
            want = fam.oracle_nabla_k_r(params, pt, k)
            assert set(got) == set(want)
            assert _gap(got, want) <= 1e-12 * max(map(abs, want.values()))


def test_family_energy_matches_metric():
    p = 1
    rng = np.random.default_rng(3)
    u = rng.uniform(-0.3, 0.3, size=(4, 2 * p + 6))
    du = rng.uniform(-0.5, 0.5, size=(4, 2 * p + 6))
    for j in range(4):
        y, z = u[j, 1], u[j, 2:3 + p]
        g = np.zeros((2 * p + 6,) * 2)
        g[0, 0] = -2.0 * (F.deriv(y, 0) + sum(y ** (i + 1) * z[i] for i in range(p + 1)))
        for i in range(p + 3):
            g[i, p + 3 + i] = g[p + 3 + i, i] = 1.0
        want = du[j] @ g @ du[j]
        assert ref.family_energy(F, p, u[j:j + 1], du[j:j + 1])[0] == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------- surfaces
def _surface_metric(surf, coords):
    names = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos}
    local = dict(zip(surf.coords, coords))
    entries = [sp.sympify(e.replace("^", "**"), locals={**names, **local}) for e in surf.entries]
    return sp.diag(*entries)


SURFACES = [
    (ref.Sphere(), (0.8, 0.3)),
    (ref.Hyperbolic(), (0.2, -0.4)),
    (ref.Conformal((0.3, 0.2, -0.05, 0.1, -0.2)), (0.1, 0.2)),
    (ref.Conformal((0.3, 0.2, -0.25, 0.1, -0.2), ("s", "t"), 1e-8), (0.1, 0.2)),
    (ref.Warped(0.0005), (0.7, 0.4)),
]


@pytest.mark.parametrize("surf,pt", SURFACES, ids=lambda v: type(v).__name__)
def test_surface_levels_match_sympy(surf, pt):
    coords = sp.symbols(surf.coords)
    g = _surface_metric(surf, coords)
    subs = dict(zip(coords, pt))
    levels = _levels(coords, g, 2)
    want = ref.surface_levels(surf, pt)
    kval = surf.k_jet(pt)[0]
    for lvl, dense in zip(levels, want):
        got = dict(np.ndenumerate(dense))
        tol = 1e-12 * max(1.0, abs(kval), float(np.max(np.abs(dense))))
        assert _gap(got, _numeric(lvl, subs)) <= tol


def _contract(coords, g, subs):
    """tau, r2 and ric2 of a metric by symbolic contraction of R."""
    r = _numeric(_levels(coords, g, 0)[0], subs)
    n = len(coords)
    h = np.array(g.inv().subs(subs), dtype=float)
    rt = np.zeros((n,) * 4)
    for idx, v in r.items():
        rt[idx] = v
    ric = np.einsum("ad,abcd->bc", h, rt)
    return {
        "tau": float(np.einsum("ad,bc,abcd->", h, h, rt)),
        "r2": float(np.einsum("ae,bf,cg,dh,abcd,efgh->", h, h, h, h, rt, rt)),
        "ric2": float(np.einsum("ac,bd,ab,cd->", h, h, ric, ric)),
    }


def test_surface_and_product_invariants_match_sympy():
    sphere, conf = ref.Sphere(), ref.Conformal((0.3, 0.2, -0.05, 0.1, -0.2), ("s", "t"))
    coords = sp.symbols(("theta", "phi", "s", "t"))
    g = sp.diag(*(list(_surface_metric(sphere, coords[:2]).diagonal())
                  + list(_surface_metric(conf, coords[2:]).diagonal())))
    pts = ((0.8, 0.3), (0.1, 0.2))
    subs = dict(zip(coords, pts[0] + pts[1]))
    ks = [sphere.k_jet(pts[0])[0], conf.k_jet(pts[1])[0]]
    got = _contract(coords, g, subs)
    for name in ("tau", "r2", "ric2"):
        want = sum(ref.surface_invariants(k)[name] for k in ks)
        assert got[name] == pytest.approx(want, rel=1e-12)
    alone = _contract(coords[2:], g[2:, 2:], subs)
    for name, v in ref.surface_invariants(ks[1]).items():
        assert alone[name] == pytest.approx(v, rel=1e-12)


# ----------------------------------------------------------- great circles
def test_great_circle_solves_geodesic_equations():
    th0, ph0, dth, dph = 1.4, 0.7, 0.08, 0.6
    t = sp.Symbol("t")
    pos = sp.Matrix([sp.sin(th0) * sp.cos(ph0), sp.sin(th0) * sp.sin(ph0), sp.cos(th0)])
    e_th = sp.Matrix([sp.cos(th0) * sp.cos(ph0), sp.cos(th0) * sp.sin(ph0), -sp.sin(th0)])
    e_ph = sp.Matrix([-sp.sin(ph0), sp.cos(ph0), 0])
    vel = dth * e_th + dph * sp.sin(th0) * e_ph
    speed = sp.sqrt(vel.dot(vel))
    path = sp.cos(speed * t) * pos + sp.sin(speed * t) * vel / speed
    theta = sp.acos(path[2])
    phi = sp.atan2(path[1], path[0])
    eq_th = sp.diff(theta, t, 2) - sp.sin(theta) * sp.cos(theta) * sp.diff(phi, t) ** 2
    eq_ph = sp.diff(phi, t, 2) + 2 * sp.cos(theta) / sp.sin(theta) * sp.diff(theta, t) * sp.diff(phi, t)
    ts = np.linspace(0.0, 3.0, 7)
    got = ref.great_circle((th0, ph0), (dth, dph), ts)
    for j, tv in enumerate(ts):
        assert got[j, 0] == pytest.approx(float(theta.subs(t, tv)), abs=1e-13)
        assert math.remainder(got[j, 1] - float(phi.subs(t, tv)), 2 * math.pi) == pytest.approx(0.0, abs=1e-13)
        assert abs(float(eq_th.subs(t, tv))) < 1e-12
        assert abs(float(eq_ph.subs(t, tv))) < 1e-12
    assert got[0] == pytest.approx([th0, ph0], abs=1e-15)
