"""Curvature levels against an independent symbolic oracle.

sympy differentiates the metric components and evaluates the derivatives at
the point to 30 digits (nothing is simplified); the textbook formulas then
build the Christoffel symbols, R_ijkl = g(R(d_i, d_j) d_k, d_l) with
R(X, Y) = [nabla_X, nabla_Y] - nabla_[X, Y], and nabla R and nabla^2 R from
them in mpmath.
The engine shares none of this route: it pushes Taylor jets through its own
update rule.
"""
import functools
import itertools

import mpmath
import pytest
import sympy as sp

from jetgeo.curvature import CurvatureContext
from jetgeo.metric import metric_from_strings

mpmath.mp.dps = 30
REL_TOL = 1e-12  # engine against oracle, relative to the level's scale
ZERO = 1e-25  # an oracle value below this is a zero of the level

METRICS = {
    "S2": (("theta", "phi"), {(0, 0): "1", (1, 1): "sin(theta)^2"}, (0.6, 0.3)),
    # at x = -0.1 roundoff images of zero show in the engine's level 2
    "H2": (("x", "y"), {(0, 0): "1", (1, 1): "exp(2*x)"}, (-0.1, 0.2)),
    "non-diagonal 2": (
        ("a", "b"), {(0, 0): "exp(2*b)", (1, 1): "1 + 0.5*sin(a)", (0, 1): "0.3*a*b"},
        (0.4, -0.1),
    ),
    "non-diagonal 3": (
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"},
        (0.2, -0.3, 0.1),
    ),
}
# nabla R and nabla^2 R are compared in dimension 2 only
CASES = [(name, k) for name, (coords, _, _) in METRICS.items()
         for k in range(3 if len(coords) == 2 else 1)]
# In dimension 2 a Christoffel term of a level step moves a canonical tuple
# to a canonical one or to one with a repeated pair, never to a swapped
# pair, so the level steps' signs are checked on nabla R in dimension 3.
VALUE_CASES = CASES + [("non-diagonal 3", 1)]


def _leibniz(vs, f, h):
    """d_vs (f h) at the point, from f(A) = d_A f and h(B) = d_B h."""
    total = 0
    for mask in itertools.product((False, True), repeat=len(vs)):
        a = tuple(v for v, s in zip(vs, mask) if s)
        b = tuple(v for v, s in zip(vs, mask) if not s)
        total += f(a) * h(b)
    return total


class Oracle:
    def __init__(self, coords, entries, point):
        self.m = m = len(coords)
        self.xs = sp.symbols(coords)
        env = dict(zip(coords, self.xs))
        self.exprs = {}
        for (i, j), text in entries.items():
            e = sp.sympify(text.replace("^", "**"), locals=env)
            self.exprs[(i, j)] = self.exprs[(j, i)] = e
        # the exact value of each double, as the engine sees it
        self.at = {x: sp.Float(v, 30) for x, v in zip(self.xs, point)}
        self.ginv = mpmath.inverse(self.dg(()))

    @functools.cache
    def dg(self, vs):
        """d_vs g at the point, as an mpmath matrix."""
        out = mpmath.zeros(self.m, self.m)
        for (i, j), e in self.exprs.items():
            d = sp.diff(e, *(self.xs[v] for v in vs)) if vs else e
            out[i, j] = mpmath.mpf(d.evalf(30, subs=self.at))
        return out

    @functools.cache
    def dginv(self, vs):
        """d_vs of the inverse metric, from d(g g^-1) = 0."""
        if not vs:
            return self.ginv
        out = mpmath.zeros(self.m, self.m)
        for mask in itertools.product((False, True), repeat=len(vs)):
            if all(mask):
                continue
            a = tuple(v for v, s in zip(vs, mask) if s)
            b = tuple(v for v, s in zip(vs, mask) if not s)
            out -= self.dginv(a) * self.dg(b) * self.ginv
        return out

    @functools.cache
    def gamma(self, vs, j, k, l):
        """d_vs Gamma^l_jk = d_vs (g^ld (d_j g_kd + d_k g_jd - d_d g_jk) / 2)."""
        total = 0
        for d in range(self.m):
            def first(b, d=d):
                return (self.dg(b + (j,))[k, d] + self.dg(b + (k,))[j, d]
                        - self.dg(b + (d,))[j, k]) / 2
            total += _leibniz(vs, lambda a, d=d: self.dginv(a)[l, d], first)
        return total

    @functools.cache
    def riemann(self, vs, i, j, k, l):
        """d_vs R_ijkl, R_ijkl = g_lq (d_i G^q_jk - d_j G^q_ik + G^p_jk G^q_ip
        - G^p_ik G^q_jp)."""
        m = self.m

        def up(b, q):
            out = self.gamma(b + (i,), j, k, q) - self.gamma(b + (j,), i, k, q)
            for p in range(m):
                out += _leibniz(b, lambda c: self.gamma(c, j, k, p),
                                lambda c: self.gamma(c, i, p, q))
                out -= _leibniz(b, lambda c: self.gamma(c, i, k, p),
                                lambda c: self.gamma(c, j, p, q))
            return out

        return sum(_leibniz(vs, lambda a, q=q: self.dg(a)[l, q], lambda b, q=q: up(b, q))
                   for q in range(m))

    @functools.cache
    def nabla(self, vs, i, j, k, l, h):
        """d_vs (nabla R)_ijkl;h, (nabla R)(i; h) = d_h R(i) - sum over slots s
        and b of Gamma^b_{h i_s} R(i, b at s), by Leibniz."""
        base = (i, j, k, l)
        v = self.riemann(vs + (h,), *base)
        for s, a in enumerate(base):
            for b in range(self.m):
                moved = base[:s] + (b,) + base[s + 1:]
                v -= _leibniz(vs, lambda c, a=a, b=b: self.gamma(c, h, a, b),
                              lambda c, moved=moved: self.riemann(c, *moved))
        return v

    def level(self, k):
        """Every level-k component (k <= 2), zeros included, keyed by index
        tuple; (nabla^2 R)(i; h1; h2) = d_h2 (nabla R)(i; h1) - sum over the
        five slots s and b of Gamma^b_{h2 i_s} (nabla R)(i; h1, b at s)."""
        m = self.m
        out = {}
        for idx in itertools.product(range(m), repeat=4 + k):
            if k < 2:
                out[idx] = self.nabla((), *idx) if k else self.riemann((), *idx)
                continue
            base, h = idx[:5], idx[5]
            v = self.nabla((h,), *base)
            for s, a in enumerate(base):
                for b in range(m):
                    moved = base[:s] + (b,) + base[s + 1:]
                    v -= self.gamma((), h, a, b) * self.nabla((), *moved)
            out[idx] = v
        return out


@functools.cache
def oracle_levels(name):
    coords, entries, point = METRICS[name]
    oracle = Oracle(coords, entries, point)
    return oracle, [oracle.level(k) for k in range(3 if len(coords) == 2 else 2)]


def engine(name, k):
    coords, entries, point = METRICS[name]
    return CurvatureContext(metric_from_strings(coords, entries, (0, len(coords))), point, k)


def level_scale(name, k):
    # a level that vanishes, as nabla R on S^2 and H^2, is measured against R
    _, levels = oracle_levels(name)
    return float(max(abs(v) for lev in (levels[0], levels[k]) for v in lev.values()))


@pytest.mark.parametrize("name,k", VALUE_CASES)
def test_level_matches_symbolic_oracle(name, k):
    _, levels = oracle_levels(name)
    got = engine(name, k).curvature(k).components
    scale = level_scale(name, k)
    assert scale > 0.1
    for idx, want in levels[k].items():
        assert abs(got.get(idx, 0.0) - float(want)) <= REL_TOL * scale, idx


@pytest.mark.parametrize("name", list(METRICS))
def test_ricci_and_scalar_match_symbolic_oracle(name):
    oracle, levels = oracle_levels(name)
    m = oracle.m
    ric = [[sum(oracle.ginv[i, l] * levels[0][(i, j, k, l)]
                for i in range(m) for l in range(m)) for k in range(m)] for j in range(m)]
    tau = sum(oracle.ginv[j, k] * ric[j][k] for j in range(m) for k in range(m))
    ctx = engine(name, 0)
    scale = level_scale(name, 0)
    got = ctx.ricci()
    for j, k in itertools.product(range(m), repeat=2):
        assert abs(got[j, k] - float(ric[j][k])) <= REL_TOL * scale, (j, k)
    assert abs(ctx.scalar() - float(tau)) <= REL_TOL * scale


# The engine keeps roundoff images of zero (ROADMAP item 1, defect 2):
# nabla R and nabla^2 R vanish on S^2 and H^2, but S^2 reports them at
# roundoff size from k = 1 on and H^2 at k = 2, and on `non-diagonal 3` some
# level-0 components that vanish for the metric come out at roundoff size
# (as does H^2's and S^2's `support(1)` in tests/test_curvature.py).  The
# antisymmetries in both pairs hold exactly, since the levels keep canonical
# tuples only, so no R_ijkk is among them.
DEFECT_2 = {("S2", 1), ("S2", 2), ("H2", 2), ("non-diagonal 3", 0)}


@pytest.mark.parametrize("name,k", [
    pytest.param(name, k, marks=pytest.mark.xfail(strict=True, reason="defect 2"))
    if (name, k) in DEFECT_2 else (name, k)
    for name, k in CASES
])
def test_oracle_zeros_are_absent_from_the_view(name, k):
    _, levels = oracle_levels(name)
    got = engine(name, k).curvature(k).components
    zeros = [idx for idx, v in levels[k].items() if abs(v) < ZERO]
    assert zeros
    assert [idx for idx in zeros if idx in got] == []
