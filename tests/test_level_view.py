"""The level view `CurvatureContext.curvature(k)` and every read-out built on
it, bit for bit against plain loops over the level jets.

The reference loops below walk `ctx._level(k)`, whose rows are canonical
index tuples (i < j, k < l), with a `value != 0.0` filter of their own, and
expand each row into its four images with exact signs, one component at a
time; the library reads the cached view instead and sums with vectorized
gathers.  Products are formed in the same
order and sums added in the same order, so the results must agree to the
last bit (`tobytes()`), not just to a tolerance.
"""
import numpy as np
import pytest

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo.curvature import (
    CurvatureContext,
    DegeneratePlaneError,
    _plane_basis,
    jacobi_operator,
    skew_curvature_operator,
)
from jetgeo.invariants import (
    NAMED_SCHEMAS,
    WORK_LIMIT,
    CapsExceededError,
    ContractionSchema,
    catalog,
    evaluate,
)
from jetgeo.metric import metric_from_strings


# ------------------------------------------------------------ reference loops
def ref_components(ctx, k):
    # each nonzero canonical component, then (j, i, k, l, ...) and
    # (i, j, l, k, ...) negated and (j, i, l, k, ...) copied
    out = {}
    for idx, jet in ctx._level(k).items():
        v = jet.value()
        if v == 0.0:
            continue
        assert idx[0] < idx[1] and idx[2] < idx[3]
        (i, j, a, b), rest = idx[:4], idx[4:]
        out[idx] = v
        out[(j, i, a, b) + rest] = -v
        out[(i, j, b, a) + rest] = -v
        out[(j, i, b, a) + rest] = v
    return out


def ref_contract(ctx, k, vectors):
    total = 0.0
    for idx, w in ref_components(ctx, k).items():
        for s, i in enumerate(idx):
            w *= vectors[s][i]
        total += w
    return total


def ref_contract_open(ctx, k, vectors, open_slot):
    out = np.zeros(ctx.dim)
    for idx, w in ref_components(ctx, k).items():
        for s, i in enumerate(idx):
            if s == open_slot:
                continue
            w *= vectors[s][i]
        out[idx[open_slot]] += w
    return out


def ref_ricci(ctx):
    rho = np.zeros((ctx.dim, ctx.dim))
    for (i, a, b, j), v in ref_components(ctx, 0).items():
        w = ctx.ginv0[i, j]
        if w != 0.0:
            rho[a, b] += w * v
    return rho


def ref_jacobi(ctx, x):
    low = np.zeros((ctx.dim, ctx.dim))
    for (d, i, j, l), v in ref_components(ctx, 0).items():
        w = v * x[i] * x[j]
        if w != 0.0:
            low[d, l] += w
    return ctx.ginv0 @ low.T


def ref_skew(ctx, e1, e2):
    u1, u2 = _plane_basis(ctx.g0, e1, e2)
    low = np.zeros((ctx.dim, ctx.dim))
    for (i, j, d, l), v in ref_components(ctx, 0).items():
        w = v * u1[i] * u2[j]
        if w != 0.0:
            low[d, l] += w
    return ctx.ginv0 @ low.T


def ref_evaluate(schema, ctx):
    comps = [list(ref_components(ctx, k).items()) for k in schema.factors]
    offs = [0]
    for k in schema.factors[:-1]:
        offs.append(offs[-1] + 4 + k)
    g = ctx.ginv0
    total = 0.0

    def rec(fi, slot_val, weight):
        nonlocal total
        if fi == len(comps):
            w = weight
            for a, b in schema.pairing:
                w *= g[slot_val[a], slot_val[b]]
                if w == 0.0:
                    return
            total += w
            return
        width = 4 + schema.factors[fi]
        for idx, v in comps[fi]:
            slot_val[offs[fi]:offs[fi] + width] = idx
            rec(fi + 1, slot_val, weight * v)

    if all(comps):
        rec(0, [0] * schema.n_slots, 1.0)
    return float(total)


def ref_frame_components(ctx, k, reps):
    q = len(reps)
    pmat = np.asarray(reps, dtype=float)
    cur = ref_components(ctx, k)
    for s in range(4 + k):
        nxt = {}
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


def ref_model_kernel(ctx, k_max, rank_tol=1e-12):
    m = ctx.dim
    rows = {}
    for k in range(k_max + 1):
        for idx, v in ref_components(ctx, k).items():
            for s in range(4 + k):
                key = (k, s, idx[:s] + idx[s + 1:])
                row = rows.get(key)
                if row is None:
                    row = np.zeros(m)
                    rows[key] = row
                row[idx[s]] += v
    mat = np.array(list(rows.values()))
    _u, sig, vh = np.linalg.svd(mat)
    rank = int(np.sum(sig > rank_tol * sig[0]))
    return vh[rank:].T


def ref_oracle_delta(params, point, k, ctx):
    engine = ref_components(ctx, k)
    oracle = fam.oracle_nabla_k_r(params, point, k)
    delta = 0.0
    for idx in set(engine) | set(oracle):
        delta = max(delta, abs(engine.get(idx, 0.0) - oracle.get(idx, 0.0)))
    return delta


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def same_components(got, want):
    return list(got) == list(want) and bits(list(got.values())) == bits(list(want.values()))


# ------------------------------------------------------------------- inputs
def _conformal(x, y, q):
    u = f"({q[0]}*{x}^2 + {q[1]}*{x}*{y} + {q[2]}*{y}^2 + {q[3]}*{x} + {q[4]}*{y})"
    return f"exp(2.0*{u})"


def sphere_times_conformal():
    conf = _conformal("s", "t", (0.3, 0.1, -0.05, 0.2, -0.1))
    spec = metric_from_strings(
        ("theta", "phi", "s", "t"),
        {(0, 0): "1.0", (1, 1): "sin(theta)^2", (2, 2): conf, (3, 3): conf},
        (0, 4),
    )
    return spec, (0.9, 0.3, 0.1, 0.2)


def non_diagonal():
    spec = metric_from_strings(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"},
        (0, 3),
    )
    return spec, (0.2, -0.3, 0.1)


def family_p1():
    params = fam.FamilyParams(1, ex.parse("exp(y) + exp(2*y)", ("y",)))
    return params, fam.base_point(params, 0.3, [0.5, -0.2])


def _contexts():
    spec, pt = sphere_times_conformal()
    yield "S2 x conformal", CurvatureContext(spec, pt, 2)
    spec, pt = non_diagonal()
    yield "non-diagonal", CurvatureContext(spec, pt, 2)
    params, pt = family_p1()
    yield "family p=1", CurvatureContext(fam.build_metric(params), pt, 4)


CONTEXTS = list(_contexts())
IDS = [name for name, _ in CONTEXTS]


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("ctx", [c for _, c in CONTEXTS], ids=IDS)
def test_view_matches_level_jets(ctx):
    for k in range(ctx.max_deriv + 1):
        view = ctx.curvature(k)
        want = ref_components(ctx, k)
        assert view.index.shape == (len(want), 4 + k)
        assert same_components(view.components, want)
        if ctx.dim ** (4 + k) <= 2 ** 21:
            dense = np.zeros((ctx.dim,) * (4 + k))
            for idx, v in want.items():
                dense[idx] = v
            assert view.dense().tobytes() == dense.tobytes()
        assert ctx.curvature(k) is view  # built once
        assert not view.values.flags.writeable and not view.index.flags.writeable


@pytest.mark.parametrize("ctx", [c for _, c in CONTEXTS], ids=IDS)
def test_contractions_bit_identical(ctx):
    rng = np.random.default_rng(11)
    for k in range(ctx.max_deriv + 1):
        vecs = [rng.standard_normal(ctx.dim) for _ in range(4 + k)]
        assert bits(ctx.contract(k, vecs)) == bits(ref_contract(ctx, k, vecs))
        for s in range(4 + k):
            opened = [v if i != s else None for i, v in enumerate(vecs)]
            assert bits(ctx.contract_open(k, opened, s)) == bits(
                ref_contract_open(ctx, k, opened, s)
            )
    assert bits(ctx.ricci()) == bits(ref_ricci(ctx))
    for _ in range(5):
        x = rng.standard_normal(ctx.dim)
        assert bits(jacobi_operator(ctx, x)) == bits(ref_jacobi(ctx, x))
        e1, e2 = rng.standard_normal(ctx.dim), rng.standard_normal(ctx.dim)
        try:
            want = ref_skew(ctx, e1, e2)
        except DegeneratePlaneError:
            continue
        assert bits(skew_curvature_operator(ctx, e1, e2)) == bits(want)


@pytest.mark.parametrize("ctx", [c for _, c in CONTEXTS], ids=IDS)
def test_evaluate_bit_identical(ctx):
    sizes = [len(ref_components(ctx, k)) for k in range(3)]
    # the reference recursion visits every combination; keep it quick
    schemas = [s for s in list(NAMED_SCHEMAS.values()) + list(catalog(3, 2).schemas)
               if np.prod([sizes[k] for k in s.factors]) <= 5_000]
    schemas = schemas[:: max(1, len(schemas) // 300)]
    assert len(schemas) >= 40
    for schema in schemas:
        got = evaluate(schema, None, None, context=ctx)
        assert bits(got) == bits(ref_evaluate(schema, ctx)), schema.to_line()


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("ctx", [c for _, c in CONTEXTS], ids=IDS)
def test_stacked_operators_are_the_one_vector_calls(ctx, n):
    # an (n, m) stack gives (n, m, m), each slice the one-vector call and
    # the reference loop's matrix to the bit
    rng = np.random.default_rng(29 + n)
    x, e1, e2 = rng.standard_normal((3, n, ctx.dim))
    jac = jacobi_operator(ctx, x)
    sk = skew_curvature_operator(ctx, e1, e2)
    assert jac.shape == sk.shape == (n, ctx.dim, ctx.dim)
    for k in range(n):
        assert bits(jac[k]) == bits(jacobi_operator(ctx, x[k])) == bits(ref_jacobi(ctx, x[k]))
        assert bits(sk[k]) == bits(skew_curvature_operator(ctx, e1[k], e2[k]))
        assert bits(sk[k]) == bits(ref_skew(ctx, e1[k], e2[k]))
        assert bits(jac[k] @ jac[k]) == bits(np.matmul(jac, jac)[k])
    with pytest.raises(ValueError, match="direction must have length"):
        jacobi_operator(ctx, np.ones((n, ctx.dim + 1)))
    with pytest.raises(ValueError, match="direction must have length"):
        jacobi_operator(ctx, np.ones((1, n, ctx.dim)))
    # e1 and e2 of different shapes, or of the wrong length, are refused
    for a, b in [(np.ones((n, ctx.dim)), np.ones((n + 2, ctx.dim))),
                 (np.ones((n + 2, ctx.dim)), np.ones((n, ctx.dim))),
                 (np.ones(ctx.dim + 1), np.ones(ctx.dim + 1)),
                 (np.ones((1, n, ctx.dim)), np.ones((1, n, ctx.dim)))]:
        with pytest.raises(ValueError, match="plane vectors must have length"):
            skew_curvature_operator(ctx, a, b)


def test_stacked_jacobi_operator_on_an_empty_view():
    # a flat metric's level 0 holds no component: every stacked slice is 0
    flat = CurvatureContext(metric_from_strings(("x", "y"), {(0, 0): "1", (1, 1): "1"}, (0, 2)),
                            (0.2, -0.1), 0)
    assert len(flat.curvature(0).values) == 0
    for n in (0, 3):
        jac = jacobi_operator(flat, np.ones((n, 2)))
        assert jac.shape == (n, 2, 2) and not jac.any()


def test_family_read_outs_bit_identical():
    params, pt = family_p1()
    ctx = dict(CONTEXTS)["family p=1"]
    reps = fam.normalize_frame(params, pt, context=ctx).rescaled[: params.p + 3]
    for k in range(params.p + 3):
        assert same_components(
            fam._frame_components(ctx, k, reps), ref_frame_components(ctx, k, reps)
        )
    assert bits(fam.model_kernel(ctx, params.p + 2)) == bits(
        ref_model_kernel(ctx, params.p + 2)
    )
    for k in range(ctx.max_deriv + 1):
        assert bits(fam.oracle_delta(params, pt, k, context=ctx)) == bits(
            ref_oracle_delta(params, pt, k, ctx)
        )


def test_evaluate_caps_support_combinations():
    spec, pt = non_diagonal()
    ctx = CurvatureContext(spec, pt, 2)
    assert len(ctx.curvature(2).values) ** 3 > WORK_LIMIT
    schema = ContractionSchema((2, 2, 2), tuple((2 * i, 2 * i + 1) for i in range(9)))
    with pytest.raises(CapsExceededError, match="support combinations"):
        evaluate(schema, spec, pt, context=ctx)


def _canonical_cases():
    spec, pt = non_diagonal()
    yield "non-diagonal", CurvatureContext(spec, pt, 2)
    params = fam.FamilyParams(2, ex.parse("exp(y) + exp(2*y)", ("y",)))
    yield "family p=2", CurvatureContext(fam.build_metric(params),
                                         fam.base_point(params, 0.3, [0.5, -0.2, 0.1]), 4)


CANONICAL_CASES = list(_canonical_cases())


@pytest.mark.parametrize("ctx", [c for _, c in CANONICAL_CASES],
                         ids=[name for name, _ in CANONICAL_CASES])
def test_levels_are_canonical_and_views_their_exact_images(ctx):
    # a level keeps i < j and k < l only; the view holds every image of a
    # nonzero component with its value negated or copied to the bit, and no
    # view or support tuple repeats an index in slots (0, 1) or (2, 3)
    for k in range(ctx.max_deriv + 1):
        index = ctx._level(k).index
        assert (index[:, 0] < index[:, 1]).all() and (index[:, 2] < index[:, 3]).all()
        comps = ctx.curvature(k).components
        assert comps
        for (i, j, a, b, *rest), v in comps.items():
            rest = tuple(rest)
            assert bits(comps[(j, i, a, b) + rest]) == bits(-v)
            assert bits(comps[(i, j, b, a) + rest]) == bits(-v)
            assert bits(comps[(j, i, b, a) + rest]) == bits(v)
        support = ctx.support(k)
        assert set(comps) <= support
        assert all(idx[0] != idx[1] and idx[2] != idx[3] for idx in support)
