"""Plan once per pattern, replay per point: a context that replays the plans
its spec keeps (`MetricSpec.plans`) equals one planned afresh, bit for bit."""
import numpy as np
import pytest

from jetgeo import cli, curvature
from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo.curvature import CurvatureContext, jacobi_operator, skew_curvature_operator
from jetgeo.jets import JetSpace, NonFiniteError
from jetgeo.metric import metric_from_strings, save_metric

SPHERE = (("theta", "phi"), ("1.0", "sin(theta)^2"))
CONFORMAL = "exp(2.0*(0.31*{0}^2 - 0.12*{0}*{1} + 0.07*{1}^2 + 0.22*{0} - 0.18*{1}))"
FLAT = tuple(f"u{n}" for n in range(38))


def _diagonal(coords, diag):
    return lambda: metric_from_strings(coords, {(i, i): e for i, e in enumerate(diag)},
                                       (0, len(coords)))


def _params(p):
    return fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))


def _cases():
    # (name, spec maker, two points where the patterns agree, max_deriv)
    for p in range(6):
        dim = fam.build_metric(_params(p)).dim
        yield (f"family p={p}", lambda p=p: fam.build_metric(_params(p)),
               tuple(0.1 * (1 + n % 3) for n in range(dim)),
               tuple(-0.05 * (1 + n % 4) for n in range(dim)), p + 3)
    yield "S2", _diagonal(*SPHERE), (0.8, 0.3), (1.1, -0.4), 6
    yield "H2", _diagonal(("x", "y"), ("1.0", "exp(2.0*x)")), (-0.1, 0.2), (-0.3, 0.5), 6
    yield ("conformal", _diagonal(("x", "y"), (CONFORMAL.format("x", "y"),) * 2),
           (0.2, -0.35), (-0.3, 0.25), 6)
    yield "non-diagonal", lambda: metric_from_strings(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"}, (0, 3)), (0.2, -0.3, 0.1), (-0.1, 0.4, 0.3), 3
    # 40 coordinates: from level 8 on the index codes are Python ints
    yield ("S2 x flat, 40 coordinates", _diagonal(SPHERE[0] + FLAT, SPHERE[1] + ("1.0",) * 38),
           (0.8, 0.3) + (0.0,) * 38, (1.2, -0.7) + (0.1,) * 38, 8)


CASES = list(_cases())


def _bits(ctx):
    """Every matrix of the context (rows, columns, values), every view and
    both operators on seeded directions and planes, as bytes."""
    out = []
    for jets in (ctx._g_rows, ctx._ginv, ctx._gamma1, ctx._gamma2,
                 *map(ctx._level, range(ctx.max_deriv + 1))):
        out += [jets.index.tobytes(), repr(jets.cols.tolist()), jets.vals.tobytes()]
    for k in range(ctx.max_deriv + 1):
        view = ctx.curvature(k)
        out += [view.index.tobytes(), view.values.tobytes()]
    x, e1, e2 = np.random.default_rng(0).standard_normal((3, 8, ctx.dim))
    return out + [jacobi_operator(ctx, x).tobytes(), skew_curvature_operator(ctx, e1, e2).tobytes()]


def _fresh(make, point, k):
    return _bits(CurvatureContext(make(), point, k))


@pytest.mark.parametrize("name,make,first,second,k", CASES, ids=[c[0] for c in CASES])
def test_a_replayed_context_is_a_freshly_planned_one(name, make, first, second, k):
    spec = make()
    _bits(CurvatureContext(spec, first, k))
    assert _bits(CurvatureContext(spec, second, k)) == _fresh(make, second, k)


@pytest.mark.parametrize("name,make,points,k", [
    ("H2", _diagonal(("x", "y"), ("1.0", "exp(2.0*x)")), [(-0.1, 0.2), (0.0, 0.2), (-0.1, 0.2)], 6),
    ("family p=3", lambda: fam.build_metric(_params(3)),
     [tuple(0.1 * (1 + n % 3) for n in range(12)), fam.base_point(_params(3), 0.0),
      tuple(0.1 * (1 + n % 3) for n in range(12))], 6),
])
def test_a_pattern_change_plans_afresh(name, make, points, k):
    # H2's roundoff images of zero at x = -0.1 are exact zeros at x = 0, and
    # the family's columns are fewer at its base point: each change of
    # pattern on one spec plans afresh, and each context is a fresh spec's
    spec = make()
    levels = []
    for point in points:
        ctx = CurvatureContext(spec, point, k)
        assert _bits(ctx) == _fresh(make, point, k)
        levels.append([ctx._level(n).index.tobytes() + ctx._level(n).cols.tobytes()
                       for n in range(k + 1)])
    assert levels[0] != levels[1] and levels[0] == levels[2]


def test_plans_keep_one_slot_per_stage():
    # 60 generic points of one spec: the slots are the same ones throughout,
    # one per stage of max_deriv 7, and the Neumann sweeps keep one plan
    # each at most
    params = _params(4)
    spec = fam.build_metric(params)
    rng = np.random.default_rng(4)
    stages = ({"christoffel_terms"} | {(7, s) for s in ("metric", "inverse", "gamma1", "gamma2")}
              | {(7, (kind, k)) for kind in ("level", "view") for k in range(8)})
    for _ in range(60):
        point = tuple(rng.uniform(-0.3, 0.3, spec.dim))
        ctx = CurvatureContext(spec, point, 7)
        for k in range(8):
            ctx.support(k)
            ctx.curvature(k)
        fam.alpha_via_jacobi(params, point, context=ctx)
        assert set(spec.plans) == stages
        sweeps = spec.plans[(7, "inverse")][1][-1]
        assert len(sweeps) <= 8 and all(len(sweep[-1]) == 1 for sweep in sweeps)
        assert len(spec.plans[(7, "metric")][1][-1]) == 1  # the columns' slot


def test_a_replay_plans_nothing(monkeypatch):
    # a second generic point of one spec runs on the kept plans: no
    # candidates and no ordered-sum blocks are made again, where a fresh
    # spec makes them all
    params = _params(3)
    spec = fam.build_metric(params)
    first = tuple(0.1 * (1 + n % 3) for n in range(spec.dim))
    second = tuple(-0.05 * (1 + n % 4) for n in range(spec.dim))
    ctx = CurvatureContext(spec, first, 6)
    for k in range(7):
        ctx._level(k)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("_riemann_candidates", "_nabla_candidates"):
        monkeypatch.setattr(CurvatureContext, name, counted(name, getattr(CurvatureContext, name)))
    ctx = CurvatureContext(spec, second, 6)
    for k in range(7):
        ctx._level(k)
    assert calls == []
    monkeypatch.setattr(curvature, "_sum_plan", counted("_sum_plan", curvature._sum_plan))
    ctx = CurvatureContext(spec, tuple(0.2 - 0.05 * (n % 5) for n in range(spec.dim)), 6)
    for k in range(7):
        ctx._level(k)
    assert calls == []
    ctx = CurvatureContext(fam.build_metric(params), second, 6)
    for k in range(7):
        ctx._level(k)
    assert calls.count("_riemann_candidates") == 1 and calls.count("_nabla_candidates") == 6
    assert "_sum_plan" in calls


def test_a_replayed_metric_stage_plans_nothing(monkeypatch):
    # a second generic point of one spec evaluates the metric entries on
    # the tapes the first kept: no tape is made, no code-set join is read
    # and no listing is built; a fresh spec makes its tapes, reading the
    # joins
    params = _params(3)
    spec = fam.build_metric(params)
    second = tuple(-0.05 * (1 + n % 4) for n in range(spec.dim))
    CurvatureContext(spec, tuple(0.1 * (1 + n % 3) for n in range(spec.dim)), 6)
    calls, inside = [], [False]

    def counted(name, fn):
        def wrapper(*args):
            if inside[0]:
                calls.append(name)
            return fn(*args)
        return wrapper

    def metric_stage(self, env):
        inside[0] = True
        try:
            return metric_rows(self, env)
        finally:
            inside[0] = False

    metric_rows = CurvatureContext._metric_rows
    monkeypatch.setattr(CurvatureContext, "_metric_rows", metric_stage)
    monkeypatch.setattr(ex, "jet_tape", counted("jet_tape", ex.jet_tape))
    for name in ("join", "occupying", "_listing", "variable", "constant"):
        monkeypatch.setattr(JetSpace, name, counted(name, getattr(JetSpace, name)))
    ctx = CurvatureContext(spec, second, 6)
    assert calls == []
    fresh = CurvatureContext(fam.build_metric(params), second, 6)
    assert {"jet_tape", "join", "variable"} <= set(calls)
    assert _bits(ctx) == _bits(fresh)


def test_an_exp_overflow_at_a_replayed_point_raises_as_on_a_fresh_spec(tmp_path, capsys):
    # exp(300 x) exp(-300 x) is about 1 wherever it is finite; at x = 0.1
    # every jet is finite, at x = 2.37 the exp argument is 711 (the value
    # check of the point raises), and at x = 2.36 it is 708: the value is
    # finite and the jet coefficients of exp(300 x) are not
    entry = "exp(300*x)*exp(-300*x)"

    def make():
        return metric_from_strings(("x", "y"), {(0, 0): entry, (1, 1): "1.0"}, (0, 2))

    spec, path = make(), tmp_path / "overflow.json"
    save_metric(spec, str(path))
    CurvatureContext(spec, (0.1, 0.2), 4)
    for x, message in ((2.37, "exp overflow at argument 711"),
                       (2.36, "non-finite coefficients in jet exp")):
        errors = []
        for s in (spec, make()):
            with pytest.raises(NonFiniteError) as info:
                CurvatureContext(s, (x, 0.2), 4)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and errors[0].startswith(message)
        assert cli.main(["check", "--spec", str(path), f"--point={x},0.2"]) == 3
        assert capsys.readouterr().err == f"jetgeo: numeric failure: NonFiniteError: {errors[0]}\n"
    # the failed replays leave the plans as they were
    assert _bits(CurvatureContext(spec, (-0.2, 0.3), 4)) == _fresh(make, (-0.2, 0.3), 4)
