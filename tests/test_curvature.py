"""Curvature engine against closed forms, finite differences, and the
exhaustive dense recomputation."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import curvature, geodesics
from jetgeo.curvature import (
    CurvatureContext,
    DegeneratePlaneError,
    TensorField,
    _ordered_sum,
    christoffel_terms,
    jacobi_operator,
    skew_curvature_operator,
)
from jetgeo.family import FamilyParams, alpha_via_jacobi, build_metric, base_point
from jetgeo.jets import JetOrderError, JetSpace, NonFiniteError, jet_space
from jetgeo.metric import flat_metric, metric_from_strings, two_sphere
from ref_jets import ref, ref_zero
from test_jets import used


def sphere_ctx(theta=0.8, phi=0.1, k=2):
    return CurvatureContext(two_sphere(), (theta, phi), k)


def family_p0(f="exp(y) + exp(2*y)"):
    return FamilyParams(0, ex.parse(f, ("y",)))


# -------------------------------------------------------------- christoffel
def test_sphere_christoffels_closed_form():
    th = 0.8
    ch = sphere_ctx(th).christoffels()
    s, c = math.sin(th), math.cos(th)
    want_second = {
        (1, 1, 0): -s * c,
        (0, 1, 1): c / s,
        (1, 0, 1): c / s,
    }
    assert set(ch.second) == set(want_second)
    for key, val in want_second.items():
        assert ch.second[key] == pytest.approx(val, rel=1e-14)
    want_first = {
        (1, 1, 0): -s * c,
        (0, 1, 1): s * c,
        (1, 0, 1): s * c,
    }
    assert set(ch.first) == set(want_first)
    for key, val in want_first.items():
        assert ch.first[key] == pytest.approx(val, rel=1e-14)


def test_christoffels_match_finite_differences():
    coords = ("a", "b", "c")
    spec = metric_from_strings(
        coords,
        {
            (0, 0): "exp(2*c)",
            (1, 1): "1 + b^2",
            (2, 2): "2 + sin(a)",
            (0, 1): "0.5*a",
            (1, 2): "0.25*c",
        },
        (0, 3),
    )
    pt = np.array([0.2, -0.3, 0.1])
    m = 3
    h = 1e-5

    def g_at(q):
        return spec.value(q)

    dg = np.zeros((m, m, m))  # dg[v, i, j] = d_v g_ij
    for v in range(m):
        e = np.zeros(m)
        e[v] = h
        dg[v] = (g_at(pt + e) - g_at(pt - e)) / (2 * h)
    fd_first = np.zeros((m, m, m))
    for a, b, c in itertools.product(range(m), repeat=3):
        fd_first[a, b, c] = 0.5 * (dg[a, b, c] + dg[b, a, c] - dg[c, a, b])
    fd_second = np.einsum("cd,abd->abc", np.linalg.inv(g_at(pt)), fd_first)

    ch = CurvatureContext(spec, pt, 0).christoffels()
    for a, b, c in itertools.product(range(m), repeat=3):
        assert ch.first.get((a, b, c), 0.0) == pytest.approx(
            fd_first[a, b, c], rel=1e-7, abs=1e-8
        )
        assert ch.second.get((a, b, c), 0.0) == pytest.approx(
            fd_second[a, b, c], rel=1e-7, abs=1e-8
        )


# ----------------------------------------------------------------- riemann
def test_sphere_curvature_closed_form():
    th = 0.8
    ctx = sphere_ctx(th)
    s2 = math.sin(th) ** 2
    comp = ctx.curvature(0).components
    want = {
        (0, 1, 1, 0): s2,
        (1, 0, 0, 1): s2,
        (0, 1, 0, 1): -s2,
        (1, 0, 1, 0): -s2,
    }
    assert set(comp) == set(want)
    for key, val in want.items():
        assert comp[key] == pytest.approx(val, rel=1e-14)
    np.testing.assert_allclose(ctx.ricci(), np.diag([1.0, s2]), rtol=1e-14)
    assert ctx.scalar() == pytest.approx(2.0, rel=1e-14)


def test_hyperbolic_surface_closed_form():
    spec = metric_from_strings(("u", "v"), {(0, 0): "exp(2*v)", (1, 1): "1"}, (0, 2))
    pt = (0.3, -0.2)
    comp = CurvatureContext(spec, pt, 0).curvature(0).components
    e2v = math.exp(2 * pt[1])
    assert comp[(0, 1, 0, 1)] == pytest.approx(e2v, rel=1e-14)
    assert comp[(0, 1, 1, 0)] == pytest.approx(-e2v, rel=1e-14)
    assert CurvatureContext(spec, pt, 0).scalar() == pytest.approx(-2.0, rel=1e-14)


def test_riemann_matches_finite_differences():
    # same update rule as the engine, but derivatives from central stencils
    coords = ("a", "b")
    spec = metric_from_strings(
        coords, {(0, 0): "exp(2*b)", (1, 1): "1 + 0.5*sin(a)", (0, 1): "0.3*a*b"}, (0, 2)
    )
    pt = np.array([0.4, -0.1])
    m = 2
    h = 1e-4

    def second_kind(q):
        g = spec.value(q)
        dg = np.zeros((m, m, m))
        for v in range(m):
            e = np.zeros(m)
            e[v] = h
            dg[v] = (spec.value(q + e) - spec.value(q - e)) / (2 * h)
        first = np.zeros((m, m, m))
        for a, b, c in itertools.product(range(m), repeat=3):
            first[a, b, c] = 0.5 * (dg[a, b, c] + dg[b, a, c] - dg[c, a, b])
        return np.einsum("cd,abd->abc", np.linalg.inv(g), first), first

    gamma2, gamma1 = second_kind(pt)
    dgamma2 = np.zeros((m, m, m, m))  # [v, a, b, c]
    for v in range(m):
        e = np.zeros(m)
        e[v] = h
        dgamma2[v] = (second_kind(pt + e)[0] - second_kind(pt - e)[0]) / (2 * h)
    g = spec.value(pt)
    fd_r = np.zeros((m, m, m, m))
    for i, j, k, l in itertools.product(range(m), repeat=4):
        term_i = dgamma2[i, j, k] @ g[:, l] + gamma2[j, k] @ gamma1[i, :, l]
        term_j = dgamma2[j, i, k] @ g[:, l] + gamma2[i, k] @ gamma1[j, :, l]
        fd_r[i, j, k, l] = term_i - term_j

    comp = CurvatureContext(spec, pt, 0).curvature(0).components
    for idx in itertools.product(range(m), repeat=4):
        assert comp.get(idx, 0.0) == pytest.approx(fd_r[idx], rel=1e-5, abs=1e-6)


def test_flat_metric_has_no_curvature():
    fl = flat_metric(("t", "x", "y"), (1, 2))
    ctx = CurvatureContext(fl, (0.0, 0.0, 0.0), 2)
    for k in range(3):
        assert ctx.support(k) == frozenset()
        assert ctx.curvature(k).components == {}
    assert CurvatureContext(fl, (0.0, 0.0, 0.0), 0).scalar() == 0.0


def test_constant_offdiagonal_metric_flat():
    spec = metric_from_strings(("a", "b"), {(0, 1): "1", (0, 0): "1"}, (1, 1))
    assert CurvatureContext(spec, (0.5, 0.7), 0).curvature(0).components == {}


# --------------------------------------------------------- internal algebra
def metric_jets(ctx):
    """The metric jets of a context by index pair in both orders (one jet
    for both), in the order of its metric rows."""
    g = {}
    for (i, j), jet in ctx._g_rows.items():
        g[(i, j)] = g[(j, i)] = jet
    return g


def test_inverse_jets_exact():
    for spec, pt in (
        (two_sphere(), (0.8, 0.1)),
        (build_metric(family_p0()), base_point(family_p0(), 0.2, [0.3])),
    ):
        ctx = CurvatureContext(spec, pt, 2)
        assert np.max(np.abs(ctx.ginv0 @ ctx.g0 - np.eye(ctx.dim))) == 0.0
        # the inverse has the order of its reader, the Christoffel symbols
        order = ctx.order - 1
        sp, g = jet_space(ctx.active, order), metric_jets(ctx)
        worst = 0.0
        for i in range(ctx.dim):
            for k in range(ctx.dim):
                acc = ref_zero(sp)
                for j in range(ctx.dim):
                    gj = g.get((i, j))
                    hj = ctx._ginv.get((j, k))
                    if gj is None or hj is None:
                        continue
                    acc = acc + ref(gj).truncated(order) * hj
                want = 1.0 if i == k else 0.0
                resid = (acc - want).coef
                worst = max(worst, float(np.max(np.abs(resid))))
        assert worst <= 1e-14


def test_curvature_symmetries_family():
    params = family_p0()
    pt = base_point(params, 0.4, [0.7])
    ctx = CurvatureContext(build_metric(params), pt, 1)
    for k in (0, 1):
        comp = ctx.curvature(k).components
        for idx, v in comp.items():
            a, b, c, d = idx[:4]
            rest = idx[4:]
            assert comp.get((b, a, c, d) + rest, 0.0) == pytest.approx(-v, rel=1e-12)
            assert comp.get((a, b, d, c) + rest, 0.0) == pytest.approx(-v, rel=1e-12)
            assert comp.get((c, d, a, b) + rest, 0.0) == pytest.approx(v, rel=1e-12)
            cyc = v + comp.get((b, c, a, d) + rest, 0.0) + comp.get((c, a, b, d) + rest, 0.0)
            assert cyc == pytest.approx(0.0, abs=1e-12)


def test_family_products_never_build_a_pair_table():
    # At this point np.linalg.inv(g0) leaves about 2e-17 where the exact
    # inverse has 0.  Unless the Neumann sweeps start from an exact zero,
    # that entry fills the inverse jets and the products turn dense.  No
    # full space over the context's variables above order 0 (where code 0
    # is every code) builds its pair table or lists its codes, not even
    # for products of the levels' jets.
    params = FamilyParams(4, ex.parse("exp(y) + exp(2*y)", ("y",)))
    pt = base_point(params, 0.28, [-0.43, 0.38, -0.3, -0.2, 0.34])
    jet_space.cache_clear()  # spaces whose tables other tests built
    ctx = CurvatureContext(build_metric(params), pt, 7)
    for k in range(8):
        ctx.curvature(k)
    alpha_via_jacobi(params, pt, context=ctx)
    for k in range(8):
        for jet in ctx._level(k).values():
            jet.space.multiply(jet.coef, jet.coef)
    spaces = [jet_space(ctx.active, o) for o in range(1, ctx.order + 1)]
    assert [sp.order for sp in spaces if sp._mul_tables is not None or "_codes" in vars(sp)] == []


def test_level_steps_take_no_per_component_products(monkeypatch):
    # the Neumann inverse, the Christoffel symbols and every level take
    # their products in batched calls; a product per component anywhere
    # outside the metric's own jet evaluation is a silent fallback
    u = "(0.31*x^2 - 0.12*x*y + 0.07*y^2 + 0.22*x - 0.18*y)"
    conformal = f"exp(2.0*{u})"
    spec = metric_from_strings(("x", "y"), {(0, 0): conformal, (1, 1): conformal}, (0, 2))
    calls = {"multiply": 0, "rows": 0}
    inside_eval = [False]

    def counted(owner, attr, key):
        orig = getattr(owner, attr)

        def wrapper(*args):
            calls[key] += not inside_eval[0]
            return orig(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    def eval_jet(*args):
        inside_eval[0] = True
        try:
            return orig_eval_jet(*args)
        finally:
            inside_eval[0] = False

    orig_eval_jet = ex.eval_jet
    monkeypatch.setattr(ex, "eval_jet", eval_jet)
    counted(JetSpace, "multiply", "multiply")
    counted(JetSpace, "multiply_rows", "rows")
    ctx = CurvatureContext(spec, (0.2, -0.35), 6)
    assert ctx._level(0)
    assert calls["multiply"] == 0 and calls["rows"] > 0
    # levels k >= 1: one batched call a level
    calls["rows"] = 0
    for k in range(1, 7):
        assert ctx._level(k)
    assert calls == {"multiply": 0, "rows": 6}


def test_neumann_sweeps_take_one_product_each(monkeypatch):
    # a sweep is one `multiply_rows` over all its term pairs: max_deriv + 1
    # sweeps on S^2, whose inverse gains a degree every sweep, and two on
    # the family, whose second sweep repeats the first to the bit
    calls = [0]
    orig = JetSpace.multiply_rows

    def counted(self, *args):
        calls[0] += 1
        return orig(self, *args)

    cases = [(two_sphere(), (0.8, 0.3), 6, 7)]
    for p in range(4):
        params = FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
        for pt in (base_point(params, 0.0),
                   base_point(params, 0.3, [0.5 - 0.2 * i for i in range(p + 1)])):
            cases.append((build_metric(params), pt, p + 3, 2))
    monkeypatch.setattr(JetSpace, "multiply_rows", counted)
    for spec, pt, k, sweeps in cases:
        ctx = CurvatureContext(spec, pt, k)
        calls[0] = 0
        ginv = ctx._neumann_inverse()
        assert calls[0] == sweeps
        assert ginv.index.tobytes() == ctx._ginv.index.tobytes()
        assert ginv.vals.tobytes() == ctx._ginv.vals.tobytes()


def _family_p5():
    params = FamilyParams(5, ex.parse("exp(y) + exp(2*y)", ("y",)))
    pt = base_point(params, 0.1, [0.1] * 6)
    return pt, build_metric(params)


def test_family_metric_jets_take_their_own_spaces(monkeypatch):
    # g_00 = -2 (f(y) + sum_i y^(i+1) z_i) at p = 5, max_deriv 8: f's two
    # exp series run over codes in y alone, each term over codes in its own
    # variables, and no product runs over codes in all 7 (the -2 is a
    # float).  Products that read one listing at one depth are one call,
    # a row each: the two series' Horner products and y's powers stack
    pt, spec = _family_p5()
    ctx = CurvatureContext(spec, pt, 8)
    series, products = [], []
    coefficients, multiply = ex._series_coefficients, JetSpace.multiply
    monkeypatch.setattr(ex, "_series_coefficients", lambda name, a0, order: series.append(
        name) or coefficients(name, a0, order))
    monkeypatch.setattr(JetSpace, "multiply", lambda self, a, b: products.append(
        (used(self), len(a) if a.ndim > 1 else 1)) or multiply(self, a, b))
    rows = ctx._metric_rows(spec.env_at(pt))
    assert series == ["exp"] * 2
    assert len(ctx.active) == 7 and ctx.active not in {vs for vs, _ in products}
    assert max(len(vs) for vs, _ in products) == 2
    # 9 Horner products a series (order 10), each one call of both series
    y_rows = [n for vs, n in products if vs == ("y",)]
    assert y_rows.count(2) >= 9 and min(y_rows) >= 2
    assert rows.vals.tobytes() == ctx._g_rows.vals.tobytes()


def test_context_builds_one_jet_space_over_its_variables(monkeypatch):
    # every matrix of the context, at every truncation order, is keyed by
    # the codes of its top-order space: no space of a lower order over the
    # active variables is built
    pt, spec = _family_p5()
    built = []
    init = JetSpace.__init__
    monkeypatch.setattr(JetSpace, "__init__", lambda self, variables, order: built.append(
        (tuple(variables), order)) or init(self, variables, order))
    jet_space.cache_clear()
    ctx = CurvatureContext(spec, pt, 8)
    for k in range(9):
        ctx._level(k)
    assert len(ctx.active) == 7
    assert [order for variables, order in built if variables == ctx.active] == [10]


def test_metric_jet_lifts_operands_one_at_a_time():
    # The peak of evaluating g_00 at p = 5 to order 10 on warm spaces.  The
    # fold of one jet at a time before tapes took 8.5 KiB, every node holding only the codes
    # it occupies.  Dense jets of each node's own variables, with the sum's
    # seven terms lifted to all 7 variables as the fold reached them, took
    # 465 KiB, and every node over all 7 variables 1,070 KiB.  A replay of
    # the tape a context keeps took 9.3 KiB, each register let go at the end
    # of the last depth that reads it, and may grow by a quarter of the
    # fold's.  A plain call plans its tape and holds it while it replays:
    # 13.8 KiB measured with this test run alone (10.7 KiB within this
    # file), the replay and a tape of 5.3 KiB.  It may grow by a quarter of
    # the fold's and the tape's.
    pt, spec = _family_p5()
    e, env = spec.components[0][0], spec.env_at(pt)
    want = ex.eval_jet(e, env, spec.active_vars, 10)
    tape = ex.jet_tape(e, spec.active_vars, 10)
    for args, kib in (((), 8.5 + 5.3), ((tape,), 8.5)):
        tracemalloc.start()
        try:
            got = ex.eval_jet(e, env, spec.active_vars, 10, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.coef.tobytes() == want.coef.tobytes()
        assert peak <= 1.25 * kib * 2 ** 10


def test_family_context_memory_is_bounded(monkeypatch):
    # Traced peaks at family p = 5, max_deriv 8, on warm spaces.  With every
    # matrix at its live columns and each metric entry evaluated over its own
    # coordinates, the context build measured 0.62 MiB (most of it the 633
    # KiB peak of evaluating g_00, the one entry over all 7) and level 0
    # 1.105 MiB above what the context holds (the product temporaries of one
    # block of SPARSE_PAIR_COST ** 2 pairs, on listings the first context
    # left on its code sets); each may grow by a quarter.  The build took
    # 1.96 MiB while `_metric_rows` filled a dense 9 x 19,448 row per entry,
    # 3.03 MiB while the metric jets were kept apart and then stacked, and
    # 9.16 MiB with dense matrices, level 0 5.20 MiB (pinned later at 2.50
    # MiB, more than twice its need).  Level 0 is one `_riemann_block`.
    pt, spec = _family_p5()
    CurvatureContext(spec, pt, 8)._level(0)
    blocks = []
    block = CurvatureContext._riemann_block
    monkeypatch.setattr(CurvatureContext, "_riemann_block",
                        lambda self, *args: blocks.append(len(args[0][0])) or block(self, *args))
    tracemalloc.start()
    try:
        ctx = CurvatureContext(spec, pt, 8)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        ctx._level(0)
        level0 = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build <= 1.25 * 0.62 * 2 ** 20
    assert level0 <= 1.25 * 1.105 * 2 ** 20
    assert len(blocks) == 1 and blocks[0] == len(ctx._riemann_candidates())


def test_a_second_identical_context_builds_no_listing(monkeypatch):
    # every listing and derivative shift stays with its code set, so a
    # second context of one metric at one point, levels 0-5, lists nothing
    # and reads the shifts the first left
    params = FamilyParams(3, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec, pt = build_metric(params), base_point(params, 0.0)
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing", lambda self, codes, order: listed.append(
        len(codes)) or listing(self, codes, order))
    jet_space.cache_clear()  # spaces whose listings other tests built
    counts, views, shifts = [], [], []
    for _ in range(2):
        ctx = CurvatureContext(spec, pt, 5)
        views.append([ctx.curvature(k).values.tobytes() for k in range(6)])
        shifts.append([ctx._level(k)._shifts[1] for k in range(5)])
        counts.append(len(listed))
        listed.clear()
    assert counts[0] > 0 and counts[1] == 0 and views[0] == views[1]
    assert all(a is b for a, b in zip(*shifts))


def _stage_bits(ctx, k):
    """The inverse, both Christoffel kinds and levels 0..k of a context
    (rows, columns and values), as bytes."""
    return [part for jets in (ctx._ginv, ctx._gamma1, ctx._gamma2, *map(ctx._level, range(k + 1)))
            for part in (jets.index.tobytes(), jets.cols.tobytes(), jets.vals.tobytes())]


def _zero_moving_cases():
    # (name, spec maker, a point with more zeros, a general point, max_deriv)
    for p in (0, 2, 3):
        params = FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
        yield (f"family p={p}", lambda params=params: build_metric(params),
               base_point(params, 0.0),
               base_point(params, 0.2, [0.3 - 0.1 * i for i in range(p + 1)]), p + 3)
    # g_yy's y-slope vanishes at y = 0 where g_xx's does not: the matrices
    # keep their columns and the zeros move within them
    yield ("slope zero at y = 0", lambda: metric_from_strings(
        ("x", "y"), {(0, 0): "exp(x + y)", (1, 1): "exp(x)*(1 + y^2)"}, (0, 2)),
           (0.1, 0.0), (0.1, 0.3), 4)


ZERO_MOVING = list(_zero_moving_cases())


@pytest.mark.parametrize("name,make,special,general,k", ZERO_MOVING,
                         ids=[c[0] for c in ZERO_MOVING])
def test_term_lists_follow_the_zeros_of_each_point(name, make, special, general, k):
    # one spec at a point with more zeros (the family's base point, y = z
    # = 0), at a general point and at the first point again, two contexts
    # at each, so that the second runs on the term lists the first kept:
    # every context's inverse, Christoffel symbols and levels equal a fresh
    # spec's
    spec = make()
    for pt in (special, general, special):
        want = _stage_bits(CurvatureContext(make(), pt, k), k)
        for _ in range(2):
            assert _stage_bits(CurvatureContext(spec, pt, k), k) == want


def test_replayed_contexts_share_their_support():
    # `support` is kept with its level's plan: contexts of one spec at two
    # generic points give sets equal to a fresh spec's, and the second
    # context's are the first's
    params = FamilyParams(2, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = build_metric(params)
    points = [base_point(params, y, [0.2, -0.1, 0.3]) for y in (0.1, -0.2)]
    first, second = (CurvatureContext(spec, pt, 5) for pt in points)
    fresh = CurvatureContext(build_metric(params), points[1], 5)
    for k in range(6):
        want = frozenset(map(tuple, curvature._images(fresh._level(k).index).tolist()))
        assert first.support(k) == fresh.support(k) == want
        assert second.support(k) is first.support(k)


def _traced_family_build(p: int, max_deriv: int) -> int:
    """The traced peak, in bytes, of a family context build on warm spaces."""
    params = FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
    pt, spec = base_point(params, 0.1, [0.1] * (p + 1)), build_metric(params)
    CurvatureContext(spec, pt, max_deriv)
    tracemalloc.start()
    try:
        CurvatureContext(spec, pt, max_deriv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_family_p7_context_build_memory_is_bounded():
    # Traced peak of the context build at family p = 7, max_deriv 10, on
    # warm spaces: 1.38 MiB measured.  While `eval_jet` built each node as
    # a dense jet, lifted to the full width of the space (293,930
    # coefficients), it peaked at 6.74 MiB; with sparse products binned at
    # that width as well at 9.02 MiB, and with a dense metric row per entry
    # in the top space at 33.7 MiB.  It may grow by a quarter.
    assert _traced_family_build(7, 10) <= 1.25 * 1.38 * 2 ** 20


def test_family_p8_context_build_memory_is_bounded():
    # As at p = 7, at p = 8, max_deriv 11: 2.13 MiB measured, 26.2 MiB with
    # dense jets in `eval_jet`, and 34.98 MiB with sparse products binned at
    # the full width of the space (1,144,066 coefficients) as well.  It may
    # grow by a quarter.
    assert _traced_family_build(8, 11) <= 1.25 * 2.13 * 2 ** 20


def test_family_p8_context_lists_no_full_space():
    # The top space at p = 8, max_deriv 11, holds 1,144,066 multi-indices.
    # A warm context build stays under a fifth of the 26.2 MiB it took while
    # `eval_jet` made dense jets of that width, and neither the build nor
    # level 0 and its point values list that space's codes
    params = FamilyParams(8, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = build_metric(params)
    jet_space.cache_clear()
    assert _traced_family_build(8, 11) < 26.2 / 5 * 2 ** 20
    ctx = CurvatureContext(spec, base_point(params, 0.1, [0.1] * 9), 11)
    ctx.curvature(0)
    top = jet_space(ctx.active, ctx.order)
    assert top.size == 1_144_066 and "_codes" not in vars(top) and top._mul_tables is None


def test_built_spec_is_read_without_walking_its_expressions(monkeypatch):
    # a spec finds its nonzero entries and their coordinates once, when it
    # is built; a context, the Christoffel sums and the geodesic evaluator read
    # that table
    pt, spec = _family_p5()
    calls = []
    free_vars = ex.free_vars
    monkeypatch.setattr(ex, "free_vars", lambda e: calls.append(e) or free_vars(e))
    CurvatureContext(spec, pt, 2)
    christoffel_terms(spec)
    geodesics._evaluator(spec)
    assert calls == []


def test_non_finite_product_in_a_sum_raises():
    # `multiply_rows` raises on a non-finite operand, so the sum stops with
    # the error that a non-finite matrix raises
    space = jet_space(("a", "b"), 4)
    cols = space._codes[:2]  # ranks 0 and 1
    a = np.array([[1.0, math.inf]])
    out = space.product_cols(cols, 4)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        _ordered_sum(out, np.empty((1, len(out))), np.zeros(1, dtype=np.intp),
                     lambda ts: space.multiply_rows(cols, a[ts], a[ts], 4))


def test_stacked_skew_operator_raises_for_a_degenerate_plane():
    # a dependent plane or the totally null barred plane anywhere in a stack
    # raises as the one-plane call does; the check's fold then takes the
    # planes one at a time (tests/test_reference_loops.py)
    params = family_p0()
    ctx = CurvatureContext(build_metric(params), base_point(params, 0.2, [0.3]), 0)
    e = np.eye(ctx.dim)
    for bad in ((e[0], 2.0 * e[0]), (e[3], e[4])):
        e1, e2 = np.random.default_rng(8).standard_normal((2, 6, ctx.dim))
        e1[4], e2[4] = bad
        with pytest.raises(DegeneratePlaneError):
            skew_curvature_operator(ctx, e1, e2)
        sk = skew_curvature_operator(ctx, e1[:4], e2[:4])
        for k in range(4):
            assert sk[k].tobytes() == skew_curvature_operator(ctx, e1[k], e2[k]).tobytes()


def test_identical_metric_entries_are_evaluated_once(monkeypatch):
    # a conformal metric's two diagonal entries are one tree over the same
    # coordinates; S^2's two entries differ
    calls = []
    eval_jet = ex.eval_jet
    monkeypatch.setattr(ex, "eval_jet", lambda e, *args: calls.append(e) or eval_jet(e, *args))
    conf = "exp(2*(0.3*x^2 + 0.1*x*y + 0.2*y))"
    spec = metric_from_strings(("x", "y"), {(0, 0): conf, (1, 1): conf}, (0, 2))
    ctx = CurvatureContext(spec, (0.2, -0.1), 2)
    assert calls == [spec.components[0][0]]
    assert ctx._g_rows.index.tolist() == [[0, 0], [1, 1]]
    assert ctx._g_rows.vals[0].tobytes() == ctx._g_rows.vals[1].tobytes()
    calls.clear()
    sphere_ctx()
    assert len(calls) == 2


def test_exhaustive_matches_sparse():
    cases = [
        (two_sphere(), (0.8, 0.1)),
        (build_metric(family_p0()), base_point(family_p0(), 0.2, [0.3])),
    ]
    for spec, pt in cases:
        ctx = CurvatureContext(spec, pt, 2)
        for k in (0, 1, 2):
            sparse = ctx._level(k)
            full = ctx.level_exhaustive(k)
            assert set(sparse) == set(full)
            for idx, jet in full.items():
                assert np.array_equal(jet.coef, sparse[idx].coef)


def test_level_order_guard():
    ctx = sphere_ctx(k=1)
    ctx.curvature(1)
    with pytest.raises(JetOrderError):
        ctx.curvature(2)


def test_exhaustive_level_guard_names_the_level():
    ctx = sphere_ctx(k=2)
    for k in (3, 5):
        for call in (ctx.curvature, ctx.level_exhaustive):
            with pytest.raises(JetOrderError) as err:
                call(k)
            assert str(err.value) == (f"level {k} needs max_deriv >= {k}, "
                                      "context was built with 2")
    for call in (ctx.curvature, ctx.level_exhaustive):
        with pytest.raises(ValueError, match="level must be >= 0"):
            call(-1)


@pytest.mark.xfail(strict=True, reason="roundoff images of zero at higher Taylor orders "
                   "are kept as coefficients (ROADMAP item 1)")
def test_locally_symmetric_level_one_support_is_empty_at_every_max_deriv():
    # nabla R = 0 on H^2 and S^2.  Today H^2's support(1) has 0 entries for
    # max_deriv <= 5 and 4 (one canonical row and its images) for 6, 7, 8
    # (its view is empty throughout); S^2's has 4.
    h2 = metric_from_strings(("x", "y"), {(0, 0): "1", (1, 1): "exp(2*x)"}, (0, 2))
    for spec, pt in ((h2, (0.4, 0.1)), (two_sphere(), (0.6, 0.3))):
        for md in range(1, 9):
            assert CurvatureContext(spec, pt, md).support(1) == frozenset(), md


def test_inverse_keeps_a_constant_term_its_high_orders_dwarf():
    # on exp(300x)(dx^2 + dy^2) at x = 2.2, g^xx is 2.3e-287 and its jet's
    # order-8 coefficient 3.8e-272; the inverse jets keep the constant term,
    # and the curvature jets of order 6 stay finite
    spec = metric_from_strings(("x", "y"), {(0, 0): "exp(300*x)", (1, 1): "exp(300*x)"}, (0, 2))
    ctx = CurvatureContext(spec, (2.2, 0.0), 6)
    assert ctx._ginv.index.tolist() == [[0, 0], [1, 1]]
    assert ctx._ginv.at_point().tobytes() == np.diag(ctx.ginv0).tobytes()
    assert ctx.ginv0[0, 0] > 0.0
    assert np.isfinite(ctx.curvature(6).values).all()


# ------------------------------------------------------------- contractions
def test_contract_and_contract_open_consistent():
    params = family_p0()
    pt = base_point(params, 0.3, [0.5])
    ctx = CurvatureContext(build_metric(params), pt, 2)
    rng = np.random.default_rng(13)
    for k in (0, 1, 2):
        vecs = [rng.standard_normal(ctx.dim) for _ in range(4 + k)]
        full = ctx.contract(k, vecs)
        for s in range(4 + k):
            opened = ctx.contract_open(k, [v if i != s else None for i, v in enumerate(vecs)], s)
            assert float(opened @ vecs[s]) == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_contract_arity_checks():
    ctx = sphere_ctx()
    with pytest.raises(ValueError):
        ctx.contract(0, [np.ones(2)] * 3)
    with pytest.raises(ValueError):
        ctx.contract_open(0, [None] * 5, 0)


def test_tensorfield_dense(monkeypatch):
    t = CurvatureContext(two_sphere(), (0.8, 0.1), 0).curvature(0)
    dense = t.dense()
    assert dense.shape == (2, 2, 2, 2)
    for idx, v in t.components.items():
        assert dense[idx] == v
    assert dense[(0, 0, 0, 0)] == 0.0
    monkeypatch.setattr(curvature, "DENSE_CAP", 3)
    with pytest.raises(ValueError):
        t.dense()


def test_nabla_k_r_wrapper():
    params = family_p0("exp(y)")
    pt = base_point(params, 0.0, [0.0])
    t = CurvatureContext(build_metric(params), pt, 3).curvature(3)
    assert t.level == 3 and t.rank == 7
    assert t.components[(0, 1, 1, 0, 1, 1, 1)] == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------- operators
def test_jacobi_operator_sphere():
    th = 0.8
    ctx = sphere_ctx(th)
    jac = jacobi_operator(ctx, np.array([1.0, 0.0]))
    np.testing.assert_allclose(jac, np.diag([0.0, 1.0]), atol=1e-14)
    # J(X) X = 0 by the algebraic symmetries, any direction
    rng = np.random.default_rng(14)
    for _ in range(5):
        xi = rng.standard_normal(2)
        assert np.max(np.abs(jacobi_operator(ctx, xi) @ xi)) <= 1e-13
    with pytest.raises(ValueError):
        jacobi_operator(ctx, np.ones(3))


def test_skew_operator_sphere_squares_to_minus_identity():
    ctx = sphere_ctx(0.8)
    op = skew_curvature_operator(ctx, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(op @ op, -np.eye(2), atol=1e-13)
    # plane orientation flips the operator's sign
    flipped = skew_curvature_operator(ctx, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(flipped, -op, atol=1e-13)


@pytest.mark.parametrize("c", [1e-13, 1e-6])
def test_skew_operator_is_scale_free(c):
    # on c * g the operator is the one on g divided by c: the plane tests are
    # relative to the plane's own scale, with no absolute floor
    def skew(scale):
        spec = metric_from_strings(("theta", "phi"), {(0, 0): f"{scale}",
                                                      (1, 1): f"{scale}*sin(theta)^2"}, (0, 2))
        ctx = CurvatureContext(spec, (0.8, 0.3), 0)
        return skew_curvature_operator(ctx, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    want = skew(1.0)
    np.testing.assert_allclose(c * skew(c), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_degenerate_plane_errors():
    params = family_p0()
    pt = base_point(params, 0.2, [0.3])
    ctx = CurvatureContext(build_metric(params), pt, 0)
    m = ctx.dim
    e = np.eye(m)
    with pytest.raises(DegeneratePlaneError):
        skew_curvature_operator(ctx, e[0], 2.0 * e[0])  # dependent
    with pytest.raises(DegeneratePlaneError):
        skew_curvature_operator(ctx, e[3], e[4])  # totally null barred plane
