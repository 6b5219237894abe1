"""Expression DSL: grammar pins, round-trip property, jet evaluation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo.expr import (
    Const,
    Cos,
    Exp,
    Neg,
    ParseError,
    Pow,
    Prod,
    Sin,
    Sum,
    UnknownVariableError,
    Var,
    eval_jet,
    eval_point,
    free_vars,
    parse,
    to_text,
)
from jetgeo.jets import JetSpace, NonFiniteError, jet_space
from test_jets import dense, ranked, used

CHART = ("y", "z0", "z1")


# ----------------------------------------------------------------- parsing
def test_parse_single_function():
    assert parse("exp(y)", CHART) == Exp(Var("y"))


def test_parse_sum_of_products():
    got = parse("y*z0 + y^2*z1", CHART)
    want = Sum((Prod((Var("y"), Var("z0"))), Prod((Pow(Var("y"), 2), Var("z1")))))
    assert got == want


def test_parse_error_offset():
    with pytest.raises(ParseError) as info:
        parse("y + * z0", CHART)
    assert info.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(UnknownVariableError) as info:
        parse("y + w", CHART)
    assert info.value.name == "w"
    assert info.value.offset == 4
    assert isinstance(info.value, ParseError)


def test_parse_rejects_empty_and_trailing():
    with pytest.raises(ParseError):
        parse("   ", CHART)
    with pytest.raises(ParseError):
        parse("y y", CHART)
    with pytest.raises(ParseError):
        parse("exp(y", CHART)
    with pytest.raises(ParseError):
        parse("y/2", CHART)


def test_exponent_must_be_nonnegative_integer():
    assert parse("y^0", CHART) == Pow(Var("y"), 0)
    with pytest.raises(ParseError):
        parse("y^-2", CHART)
    with pytest.raises(ParseError):
        parse("y^z0", CHART)
    with pytest.raises(ParseError):
        parse("y^1.5", CHART)


def test_precedence():
    assert parse("y + z0*z1", CHART) == Sum((Var("y"), Prod((Var("z0"), Var("z1")))))
    assert parse("(y + z0)*z1", CHART) == Prod((Sum((Var("y"), Var("z0"))), Var("z1")))
    assert parse("y*z0^2", CHART) == Prod((Var("y"), Pow(Var("z0"), 2)))


def test_unary_minus_folds_into_literal():
    assert parse("-2.5", CHART) == Const(-2.5)
    assert parse("-y", CHART) == Neg(Var("y"))
    # per the grammar '^' binds the atom, then '-' applies to the factor
    assert parse("-y^2", CHART) == Neg(Pow(Var("y"), 2))


def test_unary_minus_binds_looser_than_power():
    # standard notation: the Gaussian exp(-y^2) is exp(-(y^2)), -2^2 is -4
    assert eval_point(parse("exp(-y^2)", CHART), {"y": 3.0}) == math.exp(-9.0)
    assert eval_point(parse("-2^2", CHART), {}) == -4.0
    assert parse("(-2)^2", CHART) == Pow(Const(-2.0), 2)
    assert to_text(Pow(Const(-2.0), 2)) == "(-2.0)^2"
    assert eval_point(parse(to_text(Pow(Const(-2.0), 2)), CHART), {}) == 4.0


def test_literal_must_be_finite():
    # 1e999 overflows to inf, which `to_text` would print as `inf`, which
    # no parse reads back
    for text, offset in (("1e999*y", 0), ("y + 2e308", 4)):
        with pytest.raises(ParseError, match="not finite") as info:
            parse(text, CHART)
        assert info.value.offset == offset


def test_subtraction_becomes_negated_term():
    assert parse("y - z0", CHART) == Sum((Var("y"), Neg(Var("z0"))))


def test_number_forms():
    assert parse("1e3", CHART) == Const(1000.0)
    assert parse("2.5e-2", CHART) == Const(0.025)
    assert parse(".5", CHART) == Const(0.5)
    with pytest.raises(ParseError):
        parse("1.2.3", CHART)


# --------------------------------------------------------------- round trip
def exprs():
    atoms = st.one_of(
        st.sampled_from([Var(c) for c in CHART]),
        st.sampled_from([0.0, 1.0, 2.0, -3.0, 0.125, 7.5]).map(Const),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(Sum),
            st.tuples(children, children, children).map(Sum),
            pairs.map(Prod),
            st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(*t)),
            children.map(Exp),
            children.map(Sin),
            children.map(Cos),
            # Neg(Const(c)) normalizes to Const(-c) on reparse, so keep the
            # generator away from that one shape
            children.filter(lambda e: not isinstance(e, Const)).map(Neg),
        )

    return st.recursive(atoms, extend, max_leaves=20)


@given(exprs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_roundtrip_parse_print(e):
    assert parse(to_text(e), CHART) == e


# chart values, among them ones that overflow an exp or a product, or are
# not finite
POINTS = st.tuples(*[st.sampled_from([-1.5, -0.2, 0.0, 0.6, 3.0, 709.2, 1e300, math.inf])] * 3)


@given(exprs(), st.lists(st.sampled_from(CHART), min_size=1, max_size=3, unique=True),
       st.integers(0, 7), POINTS, POINTS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_kept_tape_replays_as_a_fresh_evaluation(e, active, order, first, second):
    # a tape kept from one point carries nothing of it to the next: at the
    # second point its replay is a fresh evaluation there, the same space
    # and bytes, or NonFiniteError with the same message
    def outcome(base, *tape):
        try:
            return eval_jet(e, dict(zip(CHART, base)), active, order, *tape)
        except NonFiniteError as err:
            return err

    tape = ex.jet_tape(e, active, order)
    outcome(first, tape)
    got, want = outcome(second, tape), outcome(second)
    if isinstance(want, NonFiniteError):
        assert type(got) is NonFiniteError and str(got) == str(want)
    else:
        assert got.space is want.space and got.coef.tobytes() == want.coef.tobytes()


def test_a_tape_of_other_variables_or_order_is_refused():
    # a kept tape decides the result, so one made for other variables or
    # another order is refused rather than replayed
    e = parse("sin(y)*z0", CHART)
    tape = ex.jet_tape(e, ("y", "z0"), 3)
    base = {"y": 0.3, "z0": 0.5}
    assert eval_jet(e, base, ["y", "z0"], 3, tape).coef.tobytes() == \
        eval_jet(e, base, ("y", "z0"), 3).coef.tobytes()
    for active, order in ((("z0", "y"), 3), (("y",), 3), (("y", "z0"), 4)):
        with pytest.raises(ValueError, match="does not evaluate in"):
            eval_jet(e, base, active, order, tape)


def test_roundtrip_handwritten():
    cases = [
        "exp(y) + exp(2*y)",
        "y^8 + y^9",
        "-(y + z0)*z1",
        "sin(y)^2",
        "y - z0 - z1",
        "2.0*(y - 1.5)^3",
    ]
    for text in cases:
        e = parse(text, CHART)
        assert parse(to_text(e), CHART) == e


# ---------------------------------------------------------------- free vars
def test_free_vars():
    assert free_vars(parse("exp(y)", CHART)) == {"y"}
    assert free_vars(parse("y*z0 + y^2*z1", CHART)) == {"y", "z0", "z1"}
    assert free_vars(Const(1.0)) == frozenset()
    assert free_vars(parse("-(z1)", CHART)) == {"z1"}


# --------------------------------------------------------------- evaluation
def test_eval_point_matches_math():
    e = parse("exp(y) + y^2*z0 - 1.5", CHART)
    env = {"y": 0.3, "z0": 2.0, "z1": 0.0}
    want = math.exp(0.3) + 0.09 * 2.0 - 1.5
    assert eval_point(e, env) == pytest.approx(want, rel=1e-15)


def test_eval_point_overflow():
    with pytest.raises(NonFiniteError):
        eval_point(parse("exp(y)", CHART), {"y": 1e4})


def test_eval_jet_exp_coefficients():
    jet = eval_jet(parse("exp(y)", CHART), {"y": 0.0}, ("y",), 3)
    np.testing.assert_allclose(jet.coef, [1.0, 1.0, 0.5, 1 / 6], rtol=1e-15)


def test_eval_jet_monomial_support():
    jet = eval_jet(parse("y^2*z1", CHART), {"y": 0.0, "z1": 0.0}, ("y", "z1"), 3)
    coef = dense(jet)
    for m, r in ranked(jet_space(("y", "z1"), 3)).items():
        want = 1.0 if m == (2, 1) else 0.0
        assert coef[r] == want


def test_eval_jet_family_potential_cross_term():
    # F = f(y) + y*z0 with f = e^y: coefficient of y^2 is 1/2, of y z0 is 1
    chart = ("y", "z0")
    f = parse("exp(y) + y*z0", chart)
    jet = eval_jet(f, {"y": 0.0, "z0": 0.0}, chart, 2)
    assert jet.extract((2, 0)) == pytest.approx(1.0, rel=1e-14)
    assert jet.coef[ranked(jet.space)[(2, 0)]] == pytest.approx(0.5, rel=1e-14)
    assert jet.extract((1, 1)) == pytest.approx(1.0, rel=1e-14)
    fd = _central_mixed(lambda y, z: math.exp(y) + y * z, (0.0, 0.0), (1, 1), 1e-5)
    assert jet.extract((1, 1)) == pytest.approx(fd, rel=1e-5)


def test_eval_jet_order_zero_equals_eval_point():
    rng = np.random.default_rng(11)
    e = parse("exp(y)*z0 + sin(z1) - y^3", CHART)
    for _ in range(10):
        env = {c: float(v) for c, v in zip(CHART, rng.uniform(-1, 1, 3))}
        jet = eval_jet(e, env, CHART, 0)
        assert jet.value() == eval_point(e, env)


def test_eval_jet_frozen_variables():
    e = parse("y*z0", CHART)
    jet = eval_jet(e, {"y": 2.0, "z0": 3.0}, ("y",), 2)
    assert jet.value() == 6.0
    assert jet.extract((1,)) == 3.0  # z0 held at its base value
    assert jet.extract((2,)) == 0.0


def test_eval_jet_overflow():
    with pytest.raises(NonFiniteError):
        eval_jet(parse("exp(y)", CHART), {"y": 800.0}, ("y",), 2)


def test_sin_cos_of_non_finite_argument_raise_non_finite_error():
    # an infinite or nan argument of sin or cos is a NonFiniteError in the
    # jets and in the point walk, over floats and over rows, as in the
    # generated code of `OPS`
    rows = {"y": np.array([0.5, 1.0])}  # 1e308 * y * 10 is finite at 0.5 alone
    for text in ("sin(1e308*y*10)", "cos(1e308*y*10)", "sin(0*(1e308*y*10))",
                 "cos(0*(1e308*y*10))"):
        e = parse(text, CHART)
        assert math.isfinite(eval_point(e, {"y": 0.05}))
        with pytest.raises(NonFiniteError):
            eval_jet(e, {"y": 1.0}, ("y",), 2)
        with pytest.raises(NonFiniteError):
            eval_point(e, {"y": 1.0})
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            eval_point(e, rows)
    for value in (math.inf, -math.inf, math.nan):
        for text in ("sin(y)", "cos(y)"):
            with pytest.raises(NonFiniteError):
                eval_jet(parse(text, CHART), {"y": value}, ("y",), 1)


def test_powers_take_the_squaring_products(monkeypatch):
    # y^k for k = 0..9: the products of squaring, with none by a constant 1;
    # a call of stacked rows counts each row (y^7 runs y*y^2 and y^2*y^2
    # as one call)
    counts, multiply = [], JetSpace.multiply

    def counted(self, a, b):
        counts[-1] += len(a) if a.ndim > 1 else 1
        return multiply(self, a, b)
    monkeypatch.setattr(JetSpace, "multiply", counted)
    for k in range(10):
        counts.append(0)
        eval_jet(parse(f"y^{k}", CHART), {"y": 0.3}, ("y",), 4)
    assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3, 4]


def test_eval_jet_keeps_constants_as_floats(monkeypatch):
    # g_00 = -2 (f(y) + sum_i y^(i+1) z_i) of the family at p = 3, to the
    # order of its `check`: -2 and the 2 of exp(2*y) stay floats, so no
    # constant jet is made and no product runs over codes in all 5
    # variables (a constant jet of -2 took one such product)
    params = fam.FamilyParams(3, parse("exp(y) + exp(2*y)", ("y",)))
    spec = fam.build_metric(params)
    env = spec.env_at(fam.base_point(params, 0.1, [0.1] * 4))
    products, constants = [], []
    multiply, constant = JetSpace.multiply, JetSpace.constant
    monkeypatch.setattr(JetSpace, "multiply",
                        lambda self, a, b: products.append(used(self)) or multiply(self, a, b))
    monkeypatch.setattr(JetSpace, "constant",
                        lambda self, v: constants.append(self.variables) or constant(self, v))
    jet = eval_jet(spec.components[0][0], env, spec.active_vars, 7)
    assert len(spec.active_vars) == 5 and jet.variables == spec.active_vars
    assert spec.active_vars not in products and constants == []


def _kernel(e):
    """The value and partials of `e` from `expr.forward_source` code,
    compiled into one namespace of `ex.OPS` as the geodesic force compiles
    it, run over floats (one point) or rows (a point per column, with
    numpy's warnings off as in `ChristoffelPointEvaluator.force`), and the
    positions in CHART of the partials."""
    cols = [k for k, name in enumerate(CHART) if name in free_vars(e)]
    lines = [f"x{k} = u[{c}]" for k, c in enumerate(cols)]
    value, grad = ex.forward_source(e, [CHART[c] for c in cols], "t", lines)
    code = compile("\n    ".join(["def kernel(u):", *lines,
                                   f"return [{value}], [{', '.join(grad)}]"]), "<kernel>", "exec")
    space = dict(ex.OPS)
    exec(code, space)
    kernel = space["kernel"]

    def on_rows(u):
        with np.errstate(all="ignore"):
            return kernel(u)
    return kernel, on_rows, cols


@given(exprs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_jet_equals_order_one_jet(e):
    if not free_vars(e):  # a constant entry is evaluated once, not compiled
        return
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (6, len(CHART)))
    floats, rows, cols = _kernel(e)
    units = np.eye(len(CHART), dtype=int)
    failed = False
    for p in pts:
        try:
            jet = eval_jet(e, dict(zip(CHART, p)), CHART, 1)
        except NonFiniteError:
            failed = True
            with pytest.raises(NonFiniteError):
                floats(p.tolist())
            continue
        # the arithmetic of an order-1 jet, so equal (up to the sign of zero)
        (value,), grad = floats(p.tolist())
        want = [jet.extract(u) for u in units]
        assert type(value) is float and value == jet.value()
        assert list(grad) == [want[c] for c in cols] and not any(want[c] for c in range(3) if c not in cols)
    if failed:
        with pytest.raises(NonFiniteError):
            rows(pts.T.copy())
        return
    value, grad = rows(pts.T.copy())
    full = np.broadcast_arrays(*value, *grad, pts[:, 0])[:-1]  # a constant stays a float
    for row, p in enumerate(pts):
        assert [f[row] for f in full] == sum(floats(p.tolist()), [])


def test_kernel_jet_overflow_raises_without_warning():
    pts = np.array([[0.0, 1.0, 0.0], [0.0, 1e308, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, y in (("exp(y)", 800.0), ("(1e200*y)^2", 1.0), ("sin(y*1e300*y)", 1e10),
                        ("z0*exp(y)", 708.0)):
            floats, rows, _ = _kernel(parse(text, CHART))
            pts[1, 0] = y
            floats(pts[0].tolist())
            with pytest.raises(NonFiniteError):
                floats(pts[1].tolist())
            with pytest.raises(NonFiniteError):
                rows(pts.T.copy())
    with pytest.raises(UnknownVariableError):
        ex.forward_source(parse("y*z1", CHART), ("y",), "t", [])


# ------------------------------------------------- finite-difference oracle
def _central_1d(f, x, order, h):
    if order == 0:
        return f(x)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (
            2 * h**3
        )
    raise ValueError(order)


# one common step per total order keeps nested-stencil roundoff in check
_STEP = {0: 1.0, 1: 1e-5, 2: 1e-4, 3: 1e-3}


def _central_mixed(f, base, m, h=None):
    """Nested central differences, one variable at a time."""
    if h is None:
        h = _STEP[sum(m)]
    if not m:
        return f(*base)
    order = m[0]
    rest = m[1:]

    def g(x):
        return _central_mixed(lambda *args: f(x, *args), base[1:], rest, h)

    return _central_1d(g, base[0], order, h)


def test_jet_coefficients_match_finite_differences():
    rng = np.random.default_rng(12)
    corpus = [
        "exp(y)*z0 + y^3",
        "sin(y) + cos(z0)*y",
        "(y + z0)^3 - 2*y*z0",
        "exp(y - z0^2)",
        "y^2*z0 - 0.5*z0^3 + 1.25",
    ]
    chart = ("y", "z0")
    for text in corpus:
        e = parse(text, chart)

        def fn(y, z):
            return eval_point(e, {"y": y, "z0": z})

        for _ in range(3):
            base = tuple(rng.uniform(-0.8, 0.8, 2))
            jet = eval_jet(e, dict(zip(chart, base)), chart, 3)
            for m in ranked(jet.space):
                got = jet.extract(m)
                want = _central_mixed(fn, base, m)
                assert got == pytest.approx(want, rel=1e-5, abs=2e-5), (text, m)
