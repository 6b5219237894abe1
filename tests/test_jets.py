"""Jet arithmetic: layout, exact algebra, analytic primitives, error paths.

Finite-difference oracles live in test_expr/test_acceptance; here the
independent checks are hand-rolled convolutions and Leibniz sums.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgeo.jets import (
    Jet,
    JetMismatchError,
    JetOrderError,
    JetSpace,
    SPARSE_PAIR_COST,
    NonFiniteError,
    jet_space,
)


def binom(n, k):
    return math.comb(n, k)


def dyadic_jet(space, rng):
    # small dyadic coefficients keep every product and sum exact in floats
    return Jet(space, rng.integers(-8, 9, size=space.size) / 8.0)


# ------------------------------------------------------------------ layout
def test_space_sizes():
    for n_vars, order in itertools.product((1, 2, 3), (0, 1, 2, 3, 4)):
        sp = jet_space(tuple(f"v{i}" for i in range(n_vars)), order)
        assert sp.size == binom(order + n_vars, n_vars)
        assert len(sp.multis) == sp.size
        assert len(set(sp.multis)) == sp.size


def test_multis_graded_and_ranked():
    sp = jet_space(("a", "b"), 3)
    degrees = [sum(m) for m in sp.multis]
    assert degrees == sorted(degrees)
    for r, m in enumerate(sp.multis):
        assert sp.rank[m] == r
    # within a degree block the entries are lexicographic
    block = [m for m in sp.multis if sum(m) == 1]
    assert block == sorted(block)


def test_space_cached():
    assert jet_space(("a", "b"), 2) is jet_space(("a", "b"), 2)
    assert jet_space(("a", "b"), 2) is not jet_space(("a", "b"), 3)


def test_constant_and_variable():
    sp = jet_space(("t",), 3)
    c = sp.constant(2.5)
    assert c.value() == 2.5
    assert np.array_equal(c.coef[1:], np.zeros(3))
    t = sp.variable("t", 1.5)
    assert t.value() == 1.5
    assert t.coef[1] == 1.0
    assert np.array_equal(t.coef[2:], np.zeros(2))


# ----------------------------------------------------------------- algebra
def test_binomial_square():
    sp = jet_space(("t",), 2)
    one_plus_t = sp.constant(1.0) + sp.variable("t", 0.0)
    sq = one_plus_t * one_plus_t
    assert np.array_equal(sq.coef, [1.0, 2.0, 1.0])


def test_add_identity():
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(0)
    a = dyadic_jet(sp, rng)
    assert np.array_equal((a + sp.zero()).coef, a.coef)


def test_truncation_discards_top_order():
    sp = jet_space(("t",), 1)
    t = sp.variable("t", 0.0)
    assert (t * t).is_zero()


def test_mul_commutative_bit_exact():
    rng = np.random.default_rng(1)
    sp = jet_space(("a", "b", "c"), 4)
    for _ in range(20):
        x = Jet(sp, rng.standard_normal(sp.size))
        y = Jet(sp, rng.standard_normal(sp.size))
        assert np.array_equal((x * y).coef, (y * x).coef)


def test_mul_associative():
    rng = np.random.default_rng(2)
    sp = jet_space(("a", "b"), 4)
    for _ in range(20):
        x, y, z = (Jet(sp, rng.standard_normal(sp.size)) for _ in range(3))
        left = (x * y) * z
        right = x * (y * z)
        np.testing.assert_allclose(left.coef, right.coef, rtol=1e-13, atol=1e-13)


def test_mul_matches_direct_convolution():
    # independent oracle: sum over all multi-index splittings
    rng = np.random.default_rng(3)
    sp = jet_space(("a", "b"), 3)
    x, y = dyadic_jet(sp, rng), dyadic_jet(sp, rng)
    prod = x * y
    for m in sp.multis:
        total = 0.0
        for ma in sp.multis:
            if all(a <= t for a, t in zip(ma, m)):
                mb = tuple(t - a for a, t in zip(ma, m))
                total += x.coef[sp.rank[ma]] * y.coef[sp.rank[mb]]
        assert prod.coef[sp.rank[m]] == total


def test_leibniz_exhaustive():
    # (a*b).extract(m) == sum_{s<=m} prod(C(m_i, s_i)) da(s) db(m-s),
    # exact with dyadic inputs
    rng = np.random.default_rng(4)
    for n_vars in (1, 2, 3):
        names = tuple(f"v{i}" for i in range(n_vars))
        sp = jet_space(names, 3)
        a, b = dyadic_jet(sp, rng), dyadic_jet(sp, rng)
        ab = a * b
        for m in sp.multis:
            expansion = 0.0
            for s in itertools.product(*(range(mi + 1) for mi in m)):
                weight = 1.0
                for mi, si in zip(m, s):
                    weight *= binom(mi, si)
                rest = tuple(mi - si for mi, si in zip(m, s))
                expansion += weight * a.extract(s) * b.extract(rest)
            assert ab.extract(m) == expansion


def test_scaled_and_neg():
    sp = jet_space(("t",), 2)
    rng = np.random.default_rng(5)
    a = dyadic_jet(sp, rng)
    assert np.array_equal(a.scaled(-1.0).coef, (-a).coef)
    assert np.array_equal((a - a).coef, np.zeros(sp.size))


def test_pow_matches_repeated_product():
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(6)
    a = dyadic_jet(sp, rng)
    assert np.array_equal(a.pow(0).coef, sp.constant(1.0).coef)
    assert np.array_equal(a.pow(1).coef, a.coef)
    np.testing.assert_allclose(a.pow(3).coef, (a * a * a).coef, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        a.pow(-2)


# ------------------------------------------------------- product routes
DENSITIES = (0.0, 0.01, 0.05, 0.2, 0.6, 1.0)


def _sparse(space, a, b):
    # the sparse route: the listing of the operands' nonzeros
    return space._accumulate(a, b, *space._listing(((a != 0) | (b != 0))[None]))


def _operand(space, rng, density):
    # nonzeros over several decades; the zeros are a mix of 0.0 and -0.0
    keep = rng.random(space.size) < density
    vals = rng.standard_normal(space.size) * 10.0 ** rng.integers(-8, 9, space.size)
    zeros = np.where(rng.random(space.size) < 0.5, -0.0, 0.0)
    return np.where(keep, vals, zeros)


@given(
    n=st.integers(1, 5),
    order=st.integers(0, 6),
    dens_a=st.sampled_from(DENSITIES),
    dens_b=st.sampled_from(DENSITIES),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, order=6, dens_a=1.0, dens_b=0.01, seed=0)
@example(n=5, order=5, dens_a=0.01, dens_b=1.0, seed=1)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_product_routes_bit_identical(n, order, dens_a, dens_b, seed):
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    rng = np.random.default_rng(seed)
    a, b = _operand(sp, rng, dens_a), _operand(sp, rng, dens_b)
    table = sp._accumulate(a, b, *sp._mul())
    sparse = _sparse(sp, a, b)
    assert sparse.tobytes() == table.tobytes()
    assert _sparse(sp, b, a).tobytes() == sparse.tobytes()
    assert sp.multiply(a, b).tobytes() == table.tobytes()


ROWS = st.lists(st.tuples(st.sampled_from(DENSITIES), st.sampled_from(DENSITIES)),
                max_size=6)


@given(n=st.integers(0, 5), order=st.integers(0, 6), rows=ROWS, seed=st.integers(0, 2**32 - 1))
@example(n=3, order=6, rows=[(1.0, 1.0), (0.0, 0.6), (0.2, 0.0)], seed=0)  # table route
@example(n=5, order=5, rows=[(0.01, 0.01), (0.0, 0.0), (0.01, 0.05)], seed=1)  # sparse
@example(n=2, order=4, rows=[], seed=2)
@example(n=0, order=3, rows=[(1.0, 1.0), (0.0, 1.0)], seed=3)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batched_product_rows_match_multiply(n, order, rows, seed):
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    rng = np.random.default_rng(seed)
    a = np.array([_operand(sp, rng, da) for da, _ in rows]).reshape(len(rows), sp.size)
    b = np.array([_operand(sp, rng, db) for _, db in rows]).reshape(len(rows), sp.size)
    out = sp.multiply_rows(a, b)
    assert out.shape == (len(rows), sp.size)
    for r in range(len(rows)):
        assert out[r].tobytes() == sp.multiply(a[r], b[r]).tobytes()


def test_batched_product_takes_both_routes(monkeypatch):
    # the examples above reach each route; this pins which one they take:
    # one listing per block of sparse rows, none past the table's own
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing",
                        lambda self, live: listed.append(live.shape) or listing(self, live))
    rng = np.random.default_rng(1)
    sparse = jet_space(tuple(f"v{i}" for i in range(5)), 5)
    step = SPARSE_PAIR_COST ** 2 // sparse._pairs  # rows a block
    a = np.zeros((2 * step + 1, sparse.size))  # one nonzero a row
    a[np.arange(len(a)), rng.integers(0, sparse.size, len(a))] = rng.standard_normal(len(a))
    sparse.multiply_rows(a, a[::-1].copy())
    assert listed == [(step, sparse.size), (step, sparse.size), (1, sparse.size)]
    dense = jet_space(tuple(f"v{i}" for i in range(3)), 6)
    dense._mul()
    a = np.array([_operand(dense, rng, 1.0) for _ in range(3)])
    dense.multiply_rows(a, a)
    assert len(listed) == 3


def test_non_finite_operands_take_the_table_route(monkeypatch):
    # inf * 0 is nan on the table route; the sparse route would skip it
    sp = jet_space(("a", "b", "c"), 6)
    a = np.zeros(sp.size)
    a[sp.rank[(0, 2, 0)]] = 2.0
    b = np.zeros(sp.size)
    b[sp.rank[(1, 0, 0)]] = 1.0
    sp._mul()
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing",
                        lambda self, live: listed.append(live.shape) or listing(self, live))
    sp.multiply(a, b)
    sp.multiply_rows(a[None], b[None])
    assert len(listed) == 2  # finite, these operands go sparse
    a[sp.rank[(0, 2, 0)]] = math.inf
    with np.errstate(invalid="ignore"):
        out = sp.multiply(a, b)
        assert out.tobytes() == sp._accumulate(a, b, *sp._mul()).tobytes()
        assert sp.multiply_rows(a[None], b[None])[0].tobytes() == out.tobytes()
    assert len(listed) == 2
    assert np.isnan(out[sp.rank[(0, 2, 0)]]) and out[sp.rank[(1, 2, 0)]] == math.inf


def test_wide_space_codes_are_python_ints():
    # (order + 1) ** (n + 1) overflows int64 here, so the codes fall back
    # to Python integers; layout, derivatives and products still hold
    sp = jet_space(tuple(f"v{i}" for i in range(40)), 2)
    assert sp._codes.dtype == object
    assert sp.size == binom(42, 40)
    assert all(sp.rank[m] == r for r, m in enumerate(sp.multis))
    rng = np.random.default_rng(9)
    x, y = dyadic_jet(sp, rng), dyadic_jet(sp, rng)
    last = [sp.rank[(0,) * 39 + (k,)] for k in range(3)]  # 1, v39, v39^2
    assert (x * y).coef[last[2]] == sum(x.coef[last[i]] * y.coef[last[2 - i]] for i in range(3))
    assert np.array_equal(
        _sparse(sp, x.coef, y.coef),
        sp._accumulate(x.coef, y.coef, *sp._mul()),
    )
    assert x.deriv("v39").coef[last[1]] == 2 * x.coef[last[2]]


# ----------------------------------------------------------- deriv/extract
def test_deriv_shifts_coefficients():
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(7)
    x = dyadic_jet(sp, rng)
    d = x.deriv("a")
    assert d.order == 2
    for m in d.space.multis:
        up = (m[0] + 1, m[1])
        assert d.coef[d.space.rank[m]] == x.coef[sp.rank[up]] * (m[0] + 1)


def test_deriv_foreign_variable_is_zero():
    sp = jet_space(("a",), 2)
    x = sp.variable("a", 1.0)
    assert x.deriv("q").is_zero()


def test_order_zero_deriv_message():
    # a variable of the space and a foreign one fail alike
    x = jet_space(("a",), 0).constant(1.0)
    for name in ("a", "q"):
        with pytest.raises(JetOrderError, match="^cannot differentiate an order-0 jet$"):
            x.deriv(name)


def test_extract_examples():
    sp = jet_space(("y", "z1"), 3)
    y = sp.variable("y", 0.0)
    z1 = sp.variable("z1", 0.0)
    j = y * y * z1
    assert j.extract((2, 1)) == 2.0
    assert j.extract((0, 0)) == j.value() == 0.0

    sp1 = jet_space(("y",), 3)
    e = sp1.variable("y", 1.0).exp()
    # third derivative of e^y at 1, with a finite-difference oracle
    h = 1e-3
    fd = (math.exp(1 + 2 * h) - 2 * math.exp(1 + h) + 2 * math.exp(1 - h)
          - math.exp(1 - 2 * h)) / (2 * h ** 3)
    assert e.extract((3,)) == pytest.approx(fd, rel=1e-5)
    assert e.extract((3,)) == pytest.approx(math.e, rel=1e-14)


def test_extract_validation():
    sp = jet_space(("a", "b"), 2)
    j = sp.constant(1.0)
    with pytest.raises(JetOrderError):
        j.extract((2, 1))
    with pytest.raises(JetOrderError):
        j.extract((-1, 0))
    with pytest.raises(JetMismatchError):
        j.extract((1,))


def test_truncated():
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(8)
    x = dyadic_jet(sp, rng)
    t = x.truncated(1)
    assert t.order == 1
    assert np.array_equal(t.coef, x.coef[: t.space.size])
    assert x.truncated(3) is x
    with pytest.raises(JetOrderError):
        x.truncated(4)


# ------------------------------------------------------------- primitives
def test_exp_series_at_zero():
    sp = jet_space(("t",), 4)
    e = sp.variable("t", 0.0).exp()
    np.testing.assert_allclose(
        e.coef, [1.0, 1.0, 0.5, 1 / 6, 1 / 24], rtol=1e-15
    )


def test_exp_of_constant():
    sp = jet_space(("t",), 3)
    e = sp.constant(2.0).exp()
    assert e.value() == pytest.approx(math.exp(2.0), rel=1e-15)
    assert np.array_equal(e.coef[1:], np.zeros(3))


def test_exp_of_sum_matches_scaled_argument():
    sp = jet_space(("y",), 5)
    y = sp.variable("y", 0.25)
    lhs = (y + y.scaled(2.0)).exp()
    rhs = y.scaled(3.0).exp()
    np.testing.assert_allclose(lhs.coef, rhs.coef, rtol=1e-14)
    want = [math.exp(0.75) * 3.0 ** k / math.factorial(k) for k in range(6)]
    np.testing.assert_allclose(lhs.coef, want, rtol=1e-14)


def test_primitive_derivative_identities():
    sp = jet_space(("t",), 6)
    t = sp.variable("t", 0.7)
    e = t.exp()
    np.testing.assert_allclose(e.deriv("t").coef, e.truncated(5).coef, rtol=1e-14)
    s, c = t.sin(), t.cos()
    np.testing.assert_allclose(s.deriv("t").coef, c.truncated(5).coef, rtol=5e-14, atol=1e-16)
    np.testing.assert_allclose(c.deriv("t").coef, (-s).truncated(5).coef, rtol=5e-14, atol=1e-16)
    np.testing.assert_allclose((s * s + c * c).coef, sp.constant(1.0).coef, atol=1e-15)


def test_exp_overflow_raises():
    sp = jet_space(("t",), 2)
    with pytest.raises(NonFiniteError):
        sp.variable("t", 1000.0).exp()
    sp.variable("t", 700.0).exp()  # close to the edge but still finite


# ----------------------------------------------------------------- errors
def test_mismatched_operands():
    a = jet_space(("t",), 2).constant(1.0)
    b = jet_space(("u",), 2).constant(1.0)
    c = jet_space(("t",), 3).constant(1.0)
    with pytest.raises(JetMismatchError):
        a + b
    with pytest.raises(JetMismatchError):
        a * c
