"""Jet arithmetic: layout, exact algebra, analytic primitives, error paths.

Finite-difference oracles live in test_expr/test_acceptance; here the
independent checks are hand-rolled convolutions and Leibniz sums.
"""
import itertools
import math
import tracemalloc

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


def ranked(space):
    """The multi-indices of `space` as tuples in rank order, each mapped to
    its rank (the space itself keeps them only as arrays)."""
    return {m: r for r, m in enumerate(map(tuple, space._exps.tolist()))}


def dyadic_jet(space, rng):
    # small dyadic coefficients keep every product and sum exact in floats
    return Jet(space, rng.integers(-8, 9, size=space.size) / 8.0)


# ------------------------------------------------------------------ layout
def test_space_sizes():
    for n_vars, order in itertools.product((1, 2, 3), (0, 1, 2, 3, 4)):
        sp = jet_space(tuple(f"v{i}" for i in range(n_vars)), order)
        assert sp.size == binom(order + n_vars, n_vars)
        assert len(ranked(sp)) == sp.size == len(sp._exps)


def test_multis_graded_and_ranked():
    sp = jet_space(("a", "b"), 3)
    rank = ranked(sp)
    degrees = [sum(m) for m in rank]
    assert degrees == sorted(degrees)
    assert list(rank.values()) == list(range(sp.size))
    # within a degree block the entries are lexicographic
    block = [m for m in rank if sum(m) == 1]
    assert block == sorted(block)


def graded_lex(n, order):
    """Every multi-index of n entries and degree <= order, by degree and
    then lexicographically, mapped to its place in that order."""
    multis = []
    for d in range(order + 1):
        for picks in itertools.combinations_with_replacement(range(n), d):
            multis.append(tuple(picks.count(v) for v in range(n)))
    return {m: r for r, m in enumerate(sorted(multis, key=lambda m: (sum(m), m)))}


@pytest.mark.parametrize("n, order", [(1, 0), (2, 3), (3, 4), (7, 4), (40, 2)])
def test_ranks_by_code(n, order):
    # the packed code of every multi-index finds its own rank, and
    # `variable` and `extract` use the graded-lex ranks; at 40 variables
    # the codes are Python ints
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    want = graded_lex(n, order)
    assert ranked(sp) == want
    digits = [(sum(m),) + m for m in want]
    codes = [sum(d * (order + 1) ** (n - i) for i, d in enumerate(m)) for m in digits]
    assert sp._codes.dtype == (object if n == 40 else np.int64)
    at = np.searchsorted(sp._codes, np.array(codes, dtype=sp._codes.dtype))
    assert at.tolist() == list(range(sp.size))
    for v in range(n):
        unit = tuple(int(i == v) for i in range(n))
        coef = sp.variable(f"v{v}", 2.0).coef
        assert np.flatnonzero(coef).tolist() == ([0, want[unit]] if order else [0])
    x = Jet(sp, np.arange(1.0, sp.size + 1))
    for m, r in want.items():
        assert x.extract(m) == (r + 1) * math.prod(map(math.factorial, m))


def test_space_keeps_no_object_per_multi_index():
    # 7 variables at order 10 (19,448 multi-indices, the family's p = 5
    # top space): its sorted codes alone, 155 KiB (1.49 MiB while it kept
    # exponents, degrees and reaches as well)
    tracemalloc.start()
    try:
        sp = JetSpace(tuple(f"v{i}" for i in range(7)), 10)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sp.size == 19448
    assert retained <= 1.25 * 155 * 2 ** 10


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
    rank = ranked(sp)
    for m in rank:
        total = 0.0
        for ma in rank:
            if all(a <= t for a, t in zip(ma, m)):
                mb = tuple(t - a for a, t in zip(ma, m))
                total += x.coef[rank[ma]] * y.coef[rank[mb]]
        assert prod.coef[rank[m]] == total


def test_leibniz_exhaustive():
    # (a*b).extract(m) == sum_{s<=m} prod(C(m_i, s_i)) da(s) db(m-s),
    # exact with dyadic inputs
    rng = np.random.default_rng(4)
    for n_vars in (1, 2, 3):
        names = tuple(f"v{i}" for i in range(n_vars))
        sp = jet_space(names, 3)
        a, b = dyadic_jet(sp, rng), dyadic_jet(sp, rng)
        ab = a * b
        for m in ranked(sp):
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
    assert np.array_equal((a * -1.0).coef, (-a).coef)
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
    # the sparse route: one row of `multiply_rows` at the operands' nonzeros
    nz = np.flatnonzero((a != 0) | (b != 0))
    return _rows_product(space, a[None], b[None], nz)[0]


def _table(space, a, b):
    return space._accumulate(a, b, *space._mul(), space.size)


def _operand(space, rng, density):
    # nonzeros over several decades; the zeros are a mix of 0.0 and -0.0
    keep = rng.random(space.size) < density
    vals = rng.standard_normal(space.size) * 10.0 ** rng.integers(-8, 9, space.size)
    zeros = np.where(rng.random(space.size) < 0.5, -0.0, 0.0)
    return np.where(keep, vals, zeros)


def _rows_product(space, a, b, cols):
    """`multiply_rows` of the dense rows a and b taken at the ranks `cols`
    (at their codes, at the space's order), with its sums put back at their
    ranks in rows of zeros."""
    out, sums = space.multiply_rows(space._codes[cols], a[:, cols], b[:, cols], space.order)
    assert out.dtype == space._codes.dtype and np.all(np.diff(out) > 0)
    assert sums.shape == (len(a), len(out))
    dense = np.zeros((len(a), space.size))
    dense[:, space._rank(out)] = sums
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
    # row blocks; every column is listed the same way, with no pair table
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing", lambda self, codes, order: listed.append(
        len(codes)) or listing(self, codes, order))
    rng = np.random.default_rng(1)
    sparse = jet_space(tuple(f"v{i}" for i in range(5)), 5)
    cols = np.arange(sparse.size_at(2))  # degree <= 2: 21 of 252 columns
    pairs = sum(len(x) for x in listing(sparse, sparse._codes[cols], sparse.order)[::3])
    step = SPARSE_PAIR_COST ** 2 // pairs  # rows a block
    a = np.zeros((2 * step + 1, sparse.size))
    a[:, cols] = rng.standard_normal((len(a), len(cols)))
    a[a < 0.5] = 0.0
    out = _rows_product(sparse, a, a[::-1].copy(), cols)
    assert listed == [len(cols)]
    for r in range(len(a)):
        assert out[r].tobytes() == sparse.multiply(a[r], a[-1 - r]).tobytes()
    dense = JetSpace(tuple(f"v{i}" for i in range(3)), 6)  # with no listing kept
    a = np.array([_operand(dense, rng, 1.0) for _ in range(3)])
    full = _rows_product(dense, a, a, np.arange(dense.size))
    assert listed == [len(cols), dense.size]
    assert full.tobytes() == np.array([dense.multiply(x, x) for x in a]).tobytes()


def test_non_finite_operands_take_the_table_route(monkeypatch):
    # inf * 0 is nan on the table route; the sparse route would skip it,
    # and so would a product at the operands' own columns, which raises
    sp = jet_space(("a", "b", "c"), 6)
    rank = ranked(sp)
    a = np.zeros(sp.size)
    a[rank[(0, 2, 0)]] = 2.0
    b = np.zeros(sp.size)
    b[rank[(1, 0, 0)]] = 1.0
    sp._mul()
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing", lambda self, codes, order: listed.append(
        len(codes)) or listing(self, codes, order))
    cols = _live_cols(a[None], b[None])
    sp.multiply(a, b)
    _rows_product(sp, a[None], b[None], cols)
    assert listed == [2]  # finite, these operands go sparse, and share a listing
    a[rank[(0, 2, 0)]] = math.inf
    with np.errstate(invalid="ignore"):
        out = sp.multiply(a, b)
        assert out.tobytes() == _table(sp, a, b).tobytes()
    with pytest.raises(NonFiniteError):
        _rows_product(sp, a[None], b[None], cols)
    assert listed == [2]
    assert np.isnan(out[rank[(0, 2, 0)]]) and out[rank[(1, 2, 0)]] == math.inf


def test_wide_space_codes_are_python_ints():
    # (order + 1) ** (n + 1) overflows int64 here, so the codes fall back
    # to Python integers; layout, derivatives and products still hold
    sp = jet_space(tuple(f"v{i}" for i in range(40)), 2)
    assert sp._codes.dtype == object
    assert sp.size == binom(42, 40)
    rank = ranked(sp)
    rng = np.random.default_rng(9)
    x, y = dyadic_jet(sp, rng), dyadic_jet(sp, rng)
    last = [rank[(0,) * 39 + (k,)] for k in range(3)]  # 1, v39, v39^2
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
    big_rank = ranked(big)
    for m, r in ranked(small).items():
        at = big_rank[tuple(m[sub.index(v)] if v in sub else 0 for v in names)]
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
    codes = sp._codes[cols]
    if non_finite is not None and len(cols):
        a[rng.integers(0, rows), rng.integers(0, len(cols))] = non_finite
        with pytest.raises(NonFiniteError):
            sp.multiply_rows(codes, a, b, order)
        with pytest.raises(NonFiniteError):
            _Jets(np.arange(rows)[:, None], codes, a, sp, order)
        return
    dense_a, dense_b = np.zeros((2, rows, sp.size))
    dense_a[:, cols], dense_b[:, cols] = a, b
    out, sums = sp.multiply_rows(codes, a, b, order)
    for r in range(rows):
        want = sp.multiply(dense_a[r], dense_b[r])
        got = np.zeros(sp.size)
        got[sp._rank(out)] = sums[r]
        assert got.tobytes() == want.tobytes()
    jets = _Jets(np.arange(rows)[:, None], codes, a, sp, order)
    var = rng.integers(-1, n, len(jets))
    if order == 0 or not len(jets):
        return
    d_cols, d = jets.derivs(np.arange(len(jets)), var)
    for r, v in enumerate(var.tolist()):
        want = np.zeros(sp.size_at(order - 1))
        if v >= 0:
            want = jets[tuple(jets.index[r].tolist())].deriv(f"v{v}").coef
        got = np.zeros(len(want))
        got[sp._rank(d_cols)] = d[r]
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------- deriv/extract
def test_deriv_shifts_coefficients():
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(7)
    x = dyadic_jet(sp, rng)
    d = x.deriv("a")
    assert d.order == 2
    rank = ranked(sp)
    for m, r in ranked(d.space).items():
        up = (m[0] + 1, m[1])
        assert d.coef[r] == x.coef[rank[up]] * (m[0] + 1)


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
    lhs = (y + y * 2.0).exp()
    rhs = (y * 3.0).exp()
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
