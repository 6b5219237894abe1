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

from jetgeo.curvature import _Jets
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
    nz = np.flatnonzero((a != 0) | (b != 0))
    return space._accumulate(a[nz], b[nz], *space._listing(nz), space.size)


def _table(space, a, b):
    return space._accumulate(a, b, *space._mul(), space.size)


def _operand(space, rng, density):
    # nonzeros over several decades; the zeros are a mix of 0.0 and -0.0
    keep = rng.random(space.size) < density
    vals = rng.standard_normal(space.size) * 10.0 ** rng.integers(-8, 9, space.size)
    zeros = np.where(rng.random(space.size) < 0.5, -0.0, 0.0)
    return np.where(keep, vals, zeros)


def _rows_product(space, a, b, cols):
    """`multiply_rows` of the dense rows a and b taken at the ranks `cols`,
    with its sums put back at their ranks in rows of zeros."""
    out, sums = space.multiply_rows(cols, a[:, cols], b[:, cols])
    assert out.dtype == np.intp and np.all(np.diff(out) > 0) and sums.shape == (len(a), len(out))
    dense = np.zeros((len(a), space.size))
    dense[:, out] = sums
    return dense


def _live_cols(a, b):
    # the ranks where some row of a or of b is nonzero
    return np.flatnonzero(((a != 0) | (b != 0)).any(axis=0))


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
    table = _table(sp, a, b)
    sparse = _sparse(sp, a, b)
    assert sparse.tobytes() == table.tobytes()
    assert _sparse(sp, b, a).tobytes() == sparse.tobytes()
    assert sp.multiply(a, b).tobytes() == table.tobytes()


ROWS = st.lists(st.tuples(st.sampled_from(DENSITIES), st.sampled_from(DENSITIES)),
                max_size=6)


@given(n=st.integers(0, 5), order=st.integers(0, 6), rows=ROWS, seed=st.integers(0, 2**32 - 1))
@example(n=3, order=6, rows=[(1.0, 1.0), (0.0, 0.6), (0.2, 0.0)], seed=0)  # every column
@example(n=5, order=5, rows=[(0.01, 0.01), (0.0, 0.0), (0.01, 0.05)], seed=1)  # a few
@example(n=2, order=4, rows=[], seed=2)
@example(n=0, order=3, rows=[(1.0, 1.0), (0.0, 1.0)], seed=3)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batched_product_rows_match_multiply(n, order, rows, seed):
    # at the rows' live columns, and at every column
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    rng = np.random.default_rng(seed)
    a = np.array([_operand(sp, rng, da) for da, _ in rows]).reshape(len(rows), sp.size)
    b = np.array([_operand(sp, rng, db) for _, db in rows]).reshape(len(rows), sp.size)
    for cols in (_live_cols(a, b), np.arange(sp.size)):
        out = _rows_product(sp, a, b, cols)
        for r in range(len(rows)):
            assert out[r].tobytes() == sp.multiply(a[r], b[r]).tobytes()


def test_batched_product_takes_both_routes(monkeypatch):
    # one listing a call, over the joint columns, whatever the number of
    # row blocks; every column takes the pair table as it stands
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing",
                        lambda self, ranks: listed.append(len(ranks)) or listing(self, ranks))
    rng = np.random.default_rng(1)
    sparse = jet_space(tuple(f"v{i}" for i in range(5)), 5)
    cols = np.arange(sparse.size_at(2))  # degree <= 2: 21 of 252 columns
    pairs = sum(len(x) for x in listing(sparse, cols)[::3])
    step = SPARSE_PAIR_COST ** 2 // pairs  # rows a block
    a = np.zeros((2 * step + 1, sparse.size))
    a[:, cols] = rng.standard_normal((len(a), len(cols)))
    a[a < 0.5] = 0.0
    out = _rows_product(sparse, a, a[::-1].copy(), cols)
    assert listed == [len(cols)]
    for r in range(len(a)):
        assert out[r].tobytes() == sparse.multiply(a[r], a[-1 - r]).tobytes()
    dense = jet_space(tuple(f"v{i}" for i in range(3)), 6)
    dense._mul()
    a = np.array([_operand(dense, rng, 1.0) for _ in range(3)])
    _rows_product(dense, a, a, np.arange(dense.size))
    assert listed == [len(cols)]


def test_non_finite_operands_take_the_table_route(monkeypatch):
    # inf * 0 is nan on the table route; the sparse route would skip it,
    # and so would a product at the operands' own columns
    sp = jet_space(("a", "b", "c"), 6)
    a = np.zeros(sp.size)
    a[sp.rank[(0, 2, 0)]] = 2.0
    b = np.zeros(sp.size)
    b[sp.rank[(1, 0, 0)]] = 1.0
    sp._mul()
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing",
                        lambda self, ranks: listed.append(len(ranks)) or listing(self, ranks))
    cols = _live_cols(a[None], b[None])
    sp.multiply(a, b)
    _rows_product(sp, a[None], b[None], cols)
    assert listed == [2, 2]  # finite, these operands go sparse
    a[sp.rank[(0, 2, 0)]] = math.inf
    with np.errstate(invalid="ignore"):
        out = sp.multiply(a, b)
        assert out.tobytes() == _table(sp, a, b).tobytes()
        assert _rows_product(sp, a[None], b[None], cols)[0].tobytes() == out.tobytes()
    assert listed == [2, 2]
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
    assert np.array_equal(_sparse(sp, x.coef, y.coef), _table(sp, x.coef, y.coef))
    assert x.deriv("v39").coef[last[1]] == 2 * x.coef[last[2]]
    lifted = sp.lift(jet_space(("v3", "v39"), 2).variable("v39", 0.5))
    assert lifted.coef.tobytes() == sp.variable("v39", 0.5).coef.tobytes()


@given(n=st.integers(0, 4), order=st.integers(0, 6), dens_a=st.sampled_from(DENSITIES),
       dens_b=st.sampled_from(DENSITIES), seed=st.integers(0, 2**32 - 1))
@example(n=4, order=6, dens_a=1.0, dens_b=1.0, seed=3)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_lift_keeps_products_to_the_bit(n, order, dens_a, dens_b, seed):
    # a jet over a subsequence of the variables lifts coefficient by
    # coefficient, and the product of lifted jets is the lifted product
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i}" for i in range(n))
    sub = tuple(v for v in names if rng.random() < 0.6)
    big, small = jet_space(names, order), jet_space(sub, order)
    a, b = (Jet(small, _operand(small, rng, d)) for d in (dens_a, dens_b))
    la, lb = big.lift(a), big.lift(b)
    for m, r in small.rank.items():
        at = big.rank[tuple(m[sub.index(v)] if v in sub else 0 for v in names)]
        assert la.coef[at].tobytes() == a.coef[r].tobytes()
    assert np.count_nonzero(la.coef) == np.count_nonzero(a.coef)
    assert (la * lb).coef.tobytes() == big.lift(a * b).coef.tobytes()
    assert big.lift(la) is la


def test_lift_needs_the_order_and_the_variables():
    big = jet_space(("a", "b"), 3)
    with pytest.raises(JetMismatchError):
        big.lift(jet_space(("a",), 2).variable("a", 1.0))
    with pytest.raises(KeyError):
        big.lift(jet_space(("c",), 3).variable("c", 1.0))


# ----------------------------------------------------------- compact kernels
COMPACT_SPACES = ((1, 6), (2, 5), (3, 4), (5, 3), (40, 2))  # (40, 2): Python-int codes


@given(
    shape=st.sampled_from(COMPACT_SPACES),
    kind=st.sampled_from(("empty", "one", "some", "full")),
    rows=st.integers(1, 40),
    scale=st.sampled_from((1e-8, 1.0, 1e8)),
    non_finite=st.sampled_from((None, math.inf, -math.inf, math.nan)),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(40, 2), kind="some", rows=40, scale=1e8, non_finite=None, seed=0)
@example(shape=(3, 4), kind="one", rows=3, scale=1.0, non_finite=math.inf, seed=1)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compact_kernels_match_dense(shape, kind, rows, scale, non_finite, seed):
    # the products and derivatives at a set of columns, against `multiply`
    # and `Jet.deriv` of the same rows put in full rows of zeros
    n, order = shape
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    rng = np.random.default_rng(seed)
    cols = {"empty": np.zeros(0, dtype=np.intp), "full": np.arange(sp.size),
            "one": rng.integers(0, sp.size, 1),
            "some": np.flatnonzero(rng.random(sp.size) < 0.2)}[kind]

    def operand():
        # nonzeros over the scale's decades, zeros a mix of 0.0 and -0.0
        vals = rng.standard_normal((rows, len(cols))) * scale * 10.0 ** rng.integers(-2, 3)
        zeros = np.where(rng.random(vals.shape) < 0.5, -0.0, 0.0)
        return np.where(rng.random(vals.shape) < 0.6, vals, zeros)

    a, b = operand(), operand()
    if non_finite is not None and len(cols):
        a[rng.integers(0, rows), rng.integers(0, len(cols))] = non_finite
    dense_a, dense_b = np.zeros((2, rows, sp.size))
    dense_a[:, cols], dense_b[:, cols] = a, b
    with np.errstate(over="ignore", invalid="ignore"):
        out, sums = sp.multiply_rows(cols, a, b)
        for r in range(rows):
            want = sp.multiply(dense_a[r], dense_b[r])
            got = np.zeros(sp.size)
            got[out] = sums[r]
            assert got.tobytes() == want.tobytes()
    if non_finite is not None and len(cols):
        with pytest.raises(NonFiniteError):
            _Jets(np.arange(rows)[:, None], cols, a, sp)
        return
    jets = _Jets(np.arange(rows)[:, None], cols, a, sp)
    var = rng.integers(-1, n, len(jets))
    if order == 0 or not len(jets):
        return
    d_cols, d = jets.derivs(np.arange(len(jets)), var)
    for r, v in enumerate(var.tolist()):
        want = np.zeros(sp.size_at(order - 1))
        if v >= 0:
            want = Jet(sp, jets.coef[r]).deriv(f"v{v}").coef
        got = np.zeros(len(want))
        got[d_cols] = d[r]
        assert got.tobytes() == want.tobytes()


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
