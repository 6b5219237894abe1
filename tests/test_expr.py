"""Expression DSL: grammar pins, round-trip property, jet evaluation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetgeo import expr as ex
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
from jetgeo.jets import NonFiniteError
from test_jets import ranked

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
    # per the grammar '-' binds the atom, then '^' applies to the factor
    assert parse("-y^2", CHART) == Pow(Neg(Var("y")), 2)


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
    for m, r in ranked(jet.space).items():
        want = 1.0 if m == (2, 1) else 0.0
        assert jet.coef[r] == want


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
        assert jet.value() == pytest.approx(eval_point(e, env), rel=1e-15)


def test_eval_jet_frozen_variables():
    e = parse("y*z0", CHART)
    jet = eval_jet(e, {"y": 2.0, "z0": 3.0}, ("y",), 2)
    assert jet.value() == 6.0
    assert jet.extract((1,)) == 3.0  # z0 held at its base value
    assert jet.extract((2,)) == 0.0


def test_eval_jet_overflow():
    with pytest.raises(NonFiniteError):
        eval_jet(parse("exp(y)", CHART), {"y": 800.0}, ("y",), 2)


def _kernel(e):
    """The value and partials of `e` from `expr.forward_source` code,
    compiled as the geodesic force compiles it, over floats (one point) or
    rows (a point per column, with numpy's warnings off as in
    `ChristoffelPointEvaluator.force`), and the positions in CHART of the
    partials."""
    cols = [k for k, name in enumerate(CHART) if name in free_vars(e)]
    lines = [f"x{k} = u[{c}]" for k, c in enumerate(cols)]
    value, grad = ex.forward_source(e, [CHART[c] for c in cols], "t", lines)
    code = compile("\n    ".join(["def kernel(u):", *lines,
                                   f"return [{value}], [{', '.join(grad)}]"]), "<kernel>", "exec")
    floats, rows = dict(ex.FLOAT_OPS), dict(ex.ROW_OPS)
    exec(code, floats)
    exec(code, rows)

    def on_rows(u):
        with np.errstate(all="ignore"):
            return rows["kernel"](u)
    return floats["kernel"], on_rows, cols


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
        except (NonFiniteError, ValueError):  # ValueError: math.sin(inf)
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
