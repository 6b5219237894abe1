"""Jet arithmetic: layout, exact algebra, analytic primitives, error paths.

A jet is a value; the arithmetic tested here is that of coefficient arrays
over code sets (`JetSpace.join`, `multiply`, `multiply_rows`, `series_rows`,
`deriv_cols`, `recode`) and of `expr.eval_jet`, which computes with them.
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
from jetgeo.expr import Const, Neg, Pow, Prod, Sum, Var, eval_jet, parse
from jetgeo.jets import (
    Jet,
    JetMismatchError,
    JetOrderError,
    JetSpace,
    JetSpaceSizeError,
    MAX_SPACE_SIZE,
    SPARSE_PAIR_COST,
    NonFiniteError,
    _distinct,
    jet_space,
)
from ref_jets import ref, ref_zero


def binom(n, k):
    return math.comb(n, k)


def exps(space):
    """The multi-index of each code of `space`, one row each, read off the
    codes' digits."""
    return (space._codes[:, None] // space._places % (space.order + 1)).astype(np.int64)


def used(space):
    """The variables of which some code of `space` holds a positive power."""
    return tuple(v for v, on in zip(space.variables, (exps(space) > 0).any(axis=0)) if on)


def ranked(space):
    """The multi-indices of `space` as tuples in the order of its codes, each
    mapped to its position (the space itself keeps them only as codes)."""
    return {m: r for r, m in enumerate(map(tuple, exps(space).tolist()))}


def dense(jet, full=None):
    """`jet`'s coefficients at every multi-index of `full`, a space over its
    variables or more and of its order (by default its own full space), in
    graded-lex rank order: 0.0 where it occupies none."""
    full = jet_space(jet.variables, jet.order) if full is None else full
    out = np.zeros(full.size)
    out[full._rank(jet.codes_in(full))] = jet.coef
    return out


def dyadic_jet(space, rng):
    # small dyadic coefficients keep every product and sum exact in floats
    return Jet(space, rng.integers(-8, 9, size=space.size) / 8.0)


def dyadic_expr(variables, order, rng):
    """A polynomial with a small dyadic coefficient at every multi-index of
    degree <= order: its jet at 0 holds those coefficients, at every code."""
    terms = []
    for m in graded_lex(len(variables), order):
        powers = tuple(Pow(Var(v), k) for v, k in zip(variables, m) if k)
        terms.append(Prod((Const(rng.integers(-8, 9) / 8.0),) + powers) if powers
                     else Const(rng.integers(-8, 9) / 8.0))
    return Sum(tuple(terms))


def at_union(x, y):
    """The space at the union of two jets' codes (`join`), and their
    coefficients there."""
    u, at_x, at_y = x.space.join(y.space)
    a, b = np.zeros((2, u.size))
    a[at_x], b[at_y] = x.coef, y.coef
    return u, a, b


def product(x, y):
    """The product of two jets over the union of their codes, at the codes
    its listing reaches (`multiply`)."""
    u, a, b = at_union(x, y)
    return Jet(u.product_space(), u.multiply(a, b))


# ------------------------------------------------------------------ layout
def test_space_sizes():
    for n_vars, order in itertools.product((1, 2, 3), (0, 1, 2, 3, 4)):
        sp = jet_space(tuple(f"v{i}" for i in range(n_vars)), order)
        assert sp.size == binom(order + n_vars, n_vars)
        assert len(ranked(sp)) == sp.size == len(exps(sp))


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
        coef = dense(sp.variable(f"v{v}", 2.0))
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


def test_a_space_above_the_size_limit_is_refused_before_it_is_built():
    # 14 variables at order 16 hold 145,422,675 multi-indices, the family's
    # top space for `check` at p = 12; the count alone refuses it, before
    # any array of that length exists.  `check` at p = 11 (13 variables,
    # order 15) stays below the limit
    names = tuple(f"v{i}" for i in range(14))
    tracemalloc.start()
    try:
        with pytest.raises(JetSpaceSizeError, match="145,422,675"):
            JetSpace(names, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert issubclass(JetSpaceSizeError, ValueError)
    assert math.comb(15 + 13, 13) <= MAX_SPACE_SIZE < math.comb(16 + 14, 14)


def test_space_cached():
    assert jet_space(("a", "b"), 2) is jet_space(("a", "b"), 2)
    assert jet_space(("a", "b"), 2) is not jet_space(("a", "b"), 3)


def test_constant_and_variable():
    # a constant occupies code 0 alone, a variable code 0 and its own
    # first-order code, and the zero jet no code
    sp = jet_space(("t", "u"), 3)
    c = sp.constant(2.5)
    assert c.value() == 2.5 and c.coef.tolist() == [2.5]
    assert np.array_equal(dense(c)[1:], np.zeros(sp.size - 1))
    t = sp.variable("t", 1.5)
    assert t.value() == 1.5 and t.coef.tolist() == [1.5, 1.0]
    assert list(ranked(t.space)) == [(0, 0), (1, 0)]
    assert dense(t)[ranked(sp)[(1, 0)]] == 1.0 and np.count_nonzero(dense(t)) == 2
    z = ref_zero(sp)
    assert z.space.size == 0 and z.value() == 0.0 and z.is_zero() and z.extract((1, 2)) == 0.0
    assert jet_space(("t",), 0).variable("t", 1.5).coef.tolist() == [1.5]


# ----------------------------------------------------------------- algebra
def test_binomial_square():
    sq = eval_jet(parse("(1 + t)*(1 + t)", ("t",)), {"t": 0.0}, ("t",), 2)
    assert np.array_equal(sq.coef, [1.0, 2.0, 1.0])


def test_add_identity():
    # the union with the empty code set is the jet's own space
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(0)
    a = dyadic_jet(sp, rng)
    u, x, zero = at_union(a, ref_zero(sp))
    assert u is sp and np.array_equal(x + zero, a.coef)


def test_truncation_discards_top_order():
    assert eval_jet(parse("t*t", ("t",)), {"t": 0.0}, ("t",), 1).is_zero()


def test_mul_commutative_bit_exact():
    rng = np.random.default_rng(1)
    sp = jet_space(("a", "b", "c"), 4)
    for _ in range(20):
        x, y = rng.standard_normal(sp.size), rng.standard_normal(sp.size)
        assert np.array_equal(sp.multiply(x, y), sp.multiply(y, x))


def test_mul_associative():
    rng = np.random.default_rng(2)
    sp = jet_space(("a", "b"), 4)
    for _ in range(20):
        x, y, z = (rng.standard_normal(sp.size) for _ in range(3))
        left = sp.multiply(sp.multiply(x, y), z)
        right = sp.multiply(x, sp.multiply(y, z))
        np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-13)


def test_mul_matches_direct_convolution():
    # independent oracle: sum over all multi-index splittings
    rng = np.random.default_rng(3)
    sp = jet_space(("a", "b"), 3)
    x, y = dyadic_jet(sp, rng), dyadic_jet(sp, rng)
    prod = Jet(sp, sp.multiply(x.coef, y.coef))
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
        ab = Jet(sp, sp.multiply(a.coef, b.coef))
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
    # `eval_jet`'s scalar, negation and sum steps
    e, at = dyadic_expr(("t",), 2, np.random.default_rng(5)), {"t": 0.0}
    neg = eval_jet(Neg(e), at, ("t",), 2)
    assert np.array_equal(eval_jet(Prod((e, Const(-1.0))), at, ("t",), 2).coef, neg.coef)
    assert np.array_equal(eval_jet(Sum((e, Neg(e))), at, ("t",), 2).coef, np.zeros(3))


def test_scalar_operands_leave_the_bits_of_constant_jets():
    # in `eval_jet` a float summand is its constant jet, and a float factor
    # scales and adds +0.0, which leaves the bits of the product by that
    # constant jet over the union of their codes, -0.0 coefficients
    # included: -(a*b) at 0 holds -0.0 at every code but that of ab
    for active, order in ((("a", "b"), 3), (("a", "b", "c", "d"), 6)):
        sp, e, at = jet_space(active, order), parse("-(a*b)", active), dict.fromkeys(active, 0.0)
        x = eval_jet(e, at, active, order)
        assert np.signbit(x.coef).all() and np.count_nonzero(x.coef) == 1
        for v in (2.5, -2.0, 0.0, -0.0):
            c = sp.constant(v)
            u, xa, ca = at_union(x, c)
            for got, want in ((Sum((e, Const(v))), Jet(u, xa + ca)),
                              (Sum((Const(v), e)), Jet(u, ca + xa)),
                              (Prod((e, Const(v))), product(x, c)),
                              (Prod((Const(v), e)), product(c, x))):
                got = eval_jet(got, at, active, order)
                assert dense(got).tobytes() == dense(want).tobytes(), v


def test_pow_matches_repeated_product():
    sp = jet_space(("a", "b"), 3)
    e, at = dyadic_expr(sp.variables, 3, np.random.default_rng(6)), {"a": 0.0, "b": 0.0}
    a = eval_jet(e, at, sp.variables, 3)
    assert a.space is sp
    assert np.array_equal(eval_jet(Pow(e, 0), at, sp.variables, 3).coef, sp.constant(1.0).coef)
    assert np.array_equal(eval_jet(Pow(e, 1), at, sp.variables, 3).coef, a.coef)
    np.testing.assert_allclose(dense(eval_jet(Pow(e, 3), at, sp.variables, 3)),
                               sp.multiply(sp.multiply(a.coef, a.coef), a.coef),
                               rtol=1e-14, atol=1e-14)


def test_pow_is_the_squaring_chain():
    # an expression's power in `eval_jet` multiplies the squares a, a^2,
    # a^4, a^8 of k's set bits, lowest first, with no product by a
    # constant 1: the same bits up to the sign of a zero
    sp = jet_space(("a", "b"), 4)
    e, at = dyadic_expr(sp.variables, 4, np.random.default_rng(8)), {"a": 0.0, "b": 0.0}
    a = eval_jet(e, at, sp.variables, 4)
    squares = [a.coef]
    for _ in range(3):
        squares.append(sp.multiply(squares[-1], squares[-1]))
    for k in range(1, 10):
        factors = [sq for bit, sq in enumerate(squares) if k >> bit & 1]
        want = factors[0]
        for f in factors[1:]:
            want = sp.multiply(want, f)
        got = eval_jet(Pow(e, k), at, sp.variables, 4)
        assert (dense(got) + 0.0).tobytes() == (want + 0.0).tobytes()
    assert eval_jet(Pow(e, 0), at, sp.variables, 4).coef.tobytes() == sp.constant(1.0).coef.tobytes()


# -------------------------------------------------- code-set arithmetic
DENSITIES = (0.0, 0.01, 0.05, 0.2, 0.6, 1.0)
SPREADS = (0.0, 0.1, 0.5, 1.0)  # the share of zero codes a jet occupies too
NON_FINITE = (None, math.inf, -math.inf, math.nan)


def _table(space, a, b):
    return space._accumulate(a, b, *space._listed(space.order)[0], space.size)


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



def _occupant(full, coef, rng, spread, zero=False):
    """`coef`, over every code of `full`, as a jet that occupies its nonzeros
    and each other code with probability `spread` (all of them at 1.0, the
    full space), and code 0 where `zero` is set."""
    keep = (coef != 0) | (rng.random(full.size) < spread)
    keep[0] |= zero
    at = np.flatnonzero(keep)
    return Jet(full.occupying(full._codes[at]), coef[at])


def _operands(n, order, dens, spreads, non_finite, seed):
    # two dense operands of the full space, a non-finite coefficient in the
    # first, and the two as jets over code sets; with a non-finite
    # coefficient the first occupies code 0, as every jet of `eval_jet` does
    full = jet_space(tuple(f"v{i}" for i in range(n)), order)
    rng = np.random.default_rng(seed)
    a, b = (_operand(full, rng, d) for d in dens)
    if non_finite is not None:
        a[rng.integers(full.size)] = non_finite
    ja = _occupant(full, a, rng, spreads[0], non_finite is not None)
    jb = _occupant(full, b, rng, spreads[1])
    return full, a, b, ja, jb


CODE_SETS = dict(n=st.integers(1, 4), order=st.integers(0, 6),
                 dens=st.tuples(st.sampled_from(DENSITIES), st.sampled_from(DENSITIES)),
                 spreads=st.tuples(st.sampled_from(SPREADS), st.sampled_from(SPREADS)),
                 non_finite=st.sampled_from(NON_FINITE), seed=st.integers(0, 2**32 - 1))


@given(**CODE_SETS)
@example(n=3, order=6, dens=(1.0, 0.01), spreads=(1.0, 1.0), non_finite=None, seed=0)
@example(n=4, order=6, dens=(0.05, 0.05), spreads=(0.0, 0.1), non_finite=None, seed=1)
@example(n=4, order=5, dens=(0.2, 0.01), spreads=(0.0, 0.0), non_finite=math.nan, seed=2)
@example(n=2, order=4, dens=(0.6, 1.0), spreads=(1.0, 1.0), non_finite=math.inf, seed=3)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_code_set_products_are_the_table_product(n, order, dens, spreads, non_finite, seed):
    # a product over the union of two code sets that hold the operands'
    # nonzeros, read at every code of the full space, is the pair table's
    # product bit for bit, in either order.  With a non-finite coefficient
    # it is the table's wherever that is finite, and itself not finite;
    # over the full set it is the table's bit for bit, nan included
    full, a, b, ja, jb = _operands(n, order, dens, spreads, non_finite, seed)
    with np.errstate(invalid="ignore", over="ignore"):
        table = _table(full, a, b)
        got, flipped = product(ja, jb), product(jb, ja)
    assert dense(flipped).tobytes() == dense(got).tobytes()
    if non_finite is None or ja.space is jb.space is full:
        assert dense(got).tobytes() == table.tobytes()
    else:
        finite = np.isfinite(table)
        assert dense(got)[finite].tobytes() == table[finite].tobytes()
        assert not np.isfinite(got.coef).all()
    if ja.space is jb.space is full:
        assert got.space is full


@given(**CODE_SETS)
@example(n=3, order=4, dens=(0.2, 0.6), spreads=(0.0, 0.5), non_finite=-math.inf, seed=4)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_code_set_sums_truncations_and_derivatives_are_the_dense_ones(
        n, order, dens, spreads, non_finite, seed):
    # over code sets that hold the operands' nonzeros: sums and differences
    # over the union (`join`), sums with a constant jet, truncations
    # (`recode` of a prefix), derivatives (`deriv_cols`) and single
    # coefficients, read at every code, are those of the full space's jets,
    # up to the sign of a zero
    full, a, b, ja, jb = _operands(n, order, dens, spreads, non_finite, seed)
    fa, fb = Jet(full, a), Jet(full, b)
    with np.errstate(invalid="ignore", over="ignore"):
        u, x, y = at_union(ja, jb)
        pairs = [(Jet(u, x + y), Jet(full, a + b)), (Jet(u, x - y), Jet(full, a - b))]
        for j, v in ((ja, 1.5), (jb, -0.25)):
            uc, xc, c = at_union(j, full.constant(v))
            pairs.append((Jet(uc, xc + c), Jet(full, dense(j) + dense(full.constant(v)))))
        pairs += [(ref(j).truncated(q), ref(f).truncated(q)) for j, f in ((ja, fa), (jb, fb))
                  for q in range(order + 1)]
        pairs += [(ref(j).deriv(v), ref(f).deriv(v)) for j, f in ((ja, fa), (jb, fb))
                  for v in full.variables + ("w",) if order]
    for got, want in pairs:
        assert got.variables == want.variables and got.order == want.order
        assert (dense(got) + 0.0).tobytes() == (dense(want) + 0.0).tobytes()
    multis = list(ranked(full))
    for j, f in ((ja, fa), (jb, fb)):
        got, want = (np.array([x.extract(m) for m in multis]) + 0.0 for x in (j, f))
        assert got.tobytes() == want.tobytes()


def test_non_finite_products_keep_the_table_nan():
    # inf * 0 is nan on the pair table, and a product over code sets forms
    # it as well wherever a listed pair reaches the infinite coefficient;
    # a product at the operands' own columns raises instead
    sp = jet_space(("a", "b", "c"), 6)
    rank = ranked(sp)
    at = [0, rank[(0, 2, 0)]]
    a = np.zeros(sp.size)
    a[at[1]] = math.inf
    x, y = Jet(sp.occupying(sp._codes[at]), a[at]), sp.variable("a", 0.0)
    with np.errstate(invalid="ignore"):
        got, table = dense(product(x, y)), _table(sp, a, dense(y))
    assert np.isnan(got[rank[(0, 2, 0)]]) and np.isnan(got[rank[(0, 4, 0)]])
    assert got[rank[(1, 2, 0)]] == math.inf
    finite = np.isfinite(table)
    assert got[finite].tobytes() == table[finite].tobytes()
    with pytest.raises(NonFiniteError):
        _rows_product(sp, a[None], dense(y)[None], _live_cols(a[None], dense(y)[None]))


def test_a_code_set_of_every_multi_index_is_the_full_space():
    # equal code sets share one space and its listing, the set of every
    # code is the full space with its pair table, and the full space lists
    # its codes only when they are read
    sp = JetSpace(("a", "b"), 4)
    x, y = sp.variable("a", 0.5), sp.variable("b", 2.0)
    u, xa, ya = at_union(x, y)
    prod = product(Jet(u, xa + ya), x)
    assert "_codes" not in vars(sp) and sp._mul_tables is None
    assert prod.space is sp.occupying(prod.space._codes.copy()) is not sp
    assert product(prod, prod).space is prod.space._listed(prod.order)[1]
    assert sp.occupying(sp._codes.copy()) is sp is prod.space.occupying(sp._codes)
    ones = Jet(sp, np.ones(sp.size))
    assert product(ones, prod).space is sp and sp._listed(sp.order)[1] is sp
    assert list(sp._mul_tables) == [sp.order]


def _as_read(ia, ib, io, idg, idg_o):
    # a listing (`_listing`, its outputs made positions) as `_listed` keeps
    # it for `_accumulate`: each off-diagonal pair as (s, r) then (r, s),
    # then the diagonal ones, with their outputs
    return (np.concatenate((ib, ia, idg)), np.concatenate((ia, ib, idg)), len(ia),
            np.concatenate((io, idg_o)))


def test_a_code_set_keeps_none_of_its_full_spaces_tables():
    # a code-set space is made from its full space after that space listed
    # its products and derivative shifts, and holds neither: it lists and
    # shifts its own codes when first asked, then keeps them
    sp = JetSpace(("a", "b"), 4)
    x = np.arange(1.0, sp.size + 1)
    sp.multiply(x, x), sp.deriv_cols(sp._codes)
    assert list(sp._mul_tables) == [sp.order] and sp._shifts is not None
    part = sp.occupying(sp._codes[[0, 1, 4, 9]])
    assert part._mul_tables is None and part._shifts is None and part._joins == {}
    listing, reach = part._listed(2)
    want = part._listing(part._codes, 2)
    assert reach._codes.tolist() == _distinct(np.concatenate((want[2], want[4]))).tolist()
    want = _as_read(*want[:2], reach._rank(want[2]), want[3], reach._rank(want[4]))
    assert len(listing) == 4 and listing[2] == want[2] and list(part._mul_tables) == [2]
    assert all(np.array_equal(listing[i], want[i]) for i in (0, 1, 3))
    assert sp.deriv_cols(part._codes) is part._shifts is not sp._shifts


def test_a_full_space_reaches_itself_without_a_sort():
    # at its own order a full space's listing reaches every code (pair (0,
    # r) gives r), so `_listed` takes the space itself as the reach: the
    # reach and the positions are the sorting route's bit for bit, here on
    # every full space of n <= 4 variables and order K <= 7; a lower order
    # still sorts its outputs
    for n in range(5):
        for order in range(8):
            sp = JetSpace(tuple("abcd"[:n]), order)
            for q in {order, max(order - 1, 0)}:
                listing, reach = sp._listed(q)
                ia, ib, io, idg, idg_o = sp._listing(sp._codes, q)
                codes = _distinct(np.concatenate((io, idg_o)))
                want = _as_read(ia, ib, codes.searchsorted(io), idg, codes.searchsorted(idg_o))
                assert reach is sp or q < order
                assert reach._codes.dtype == codes.dtype
                assert reach._codes.tobytes() == codes.tobytes()
                assert listing[2] == want[2]
                for got, w in ((listing[i], want[i]) for i in (0, 1, 3)):
                    assert got.dtype == w.dtype and got.tobytes() == w.tobytes()


def test_a_term_list_keeps_the_pairs_its_rows_weigh():
    # over 1, x, ..., x^4 at order 4, listed as 6 off-diagonal pairs and 3
    # diagonal ones: row 0 is 2x times 3, row 1 is 0 times -0.  Of pair
    # (1, x) the half x * 1 has two nonzero factors and 1 * x has none, and
    # the diagonal pairs of 1 and of x each have a zero factor, so row 0
    # keeps that pair alone, as (x, 1) then (1, x), and row 1 keeps nothing
    sp = jet_space(("x",), 4)
    a = np.array([[0.0, 2.0, 0.0, 0.0, 0.0], [0.0] * 5])
    b = np.array([[3.0, 0.0, 0.0, 0.0, 0.0], [-0.0] * 5])
    [(rows, kept)] = sp.row_terms(sp._codes, a != 0, b != 0, 4)
    left, right, off, out, bins = kept
    assert rows == slice(0, SPARSE_PAIR_COST ** 2 // 15)
    assert (left.tolist(), right.tolist(), off, out.tolist(), bins) == ([1, 0], [0, 1], 1, [1], 10)
    assert all(x.dtype == np.int32 for x in (left, right, out))
    codes, sums = sp.multiply_rows(sp._codes, a, b, 4, [(rows, kept)])
    assert codes is sp._codes and sums.tolist() == [[0.0, 6.0, 0.0, 0.0, 0.0], [0.0] * 5]
    assert sums.tobytes() == np.array([sp.multiply(x, y) for x, y in zip(a, b)]).tobytes()
    # where the rows weigh more than a third of the listing's terms, the
    # block reads the listing
    full = np.ones((1, 5), dtype=bool)
    assert sp.row_terms(sp._codes, full, full, 4) == [(slice(0, SPARSE_PAIR_COST ** 2 // 15), None)]


def test_multiply_rows_lists_each_column_set_once(monkeypatch):
    # two column sets taken in turn, each time a new array of their codes,
    # are listed once each, and their derivative shifts made once each; the
    # Python-int codes of 40 variables too, each time new int objects
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing", lambda self, codes, order: listed.append(
        len(codes)) or listing(self, codes, order))
    for sp in (JetSpace(("a", "b", "c"), 5), JetSpace(tuple(f"v{i}" for i in range(40)), 2)):
        listed.clear()
        sets = (sp._codes[:10], sp._codes[[0, 3, 7, 9]])
        ones = [np.ones((2, len(c))) for c in sets]
        shifts = [sp.deriv_cols(c) for c in sets]
        for _ in range(3):
            for c, a, kept in zip(sets, ones, shifts):
                out, _ = sp.multiply_rows(c + 0, a, a, sp.order)
                assert np.array_equal(sp.product_cols(c + 0, sp.order), out)
                assert sp.deriv_cols(c + 0) is kept
        assert listed == [10, 4]


def test_recode_carries_codes_to_more_variables_and_other_orders():
    # m over (a, c) is (m_a, 0, m_c) over (a, b, c), here of a higher order;
    # ascending codes stay ascending, and into 40 variables they become
    # Python ints.  A target without one of the variables is a KeyError
    small, big = jet_space(("a", "c"), 3), jet_space(("a", "b", "c"), 5)
    got = small.recode(small._codes, big)
    want = [ranked(big)[(m[0], 0, m[1])] for m in ranked(small)]
    assert big._rank(got).tolist() == want and np.all(np.diff(got) > 0)
    x = Jet(small, np.arange(1.0, small.size + 1))
    assert np.array_equal(x.codes_in(big), got) and x.codes_in(small) is small._codes
    wide = jet_space(tuple(f"v{i}" for i in range(40)), 2)
    two = jet_space(("v3", "v39"), 2)
    got = two.recode(two._codes, wide)
    assert got.dtype == object
    assert [ranked(wide)[tuple(m[(3, 39).index(i)] if i in (3, 39) else 0 for i in range(40))]
            for m in ranked(two)] == wide._rank(got).tolist()
    with pytest.raises(KeyError):
        big.recode(big._codes, small)


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
    # one listing a column set, whatever the number of row blocks; the set
    # of every column is the full space, whose listing is its pair table
    # (the table the comparisons read is built before the count starts)
    sparse = jet_space(tuple(f"v{i}" for i in range(5)), 5)
    sparse._listed(sparse.order)
    listed = []
    listing = JetSpace._listing
    monkeypatch.setattr(JetSpace, "_listing", lambda self, codes, order: listed.append(
        len(codes)) or listing(self, codes, order))
    rng = np.random.default_rng(1)
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
    assert full.tobytes() == np.array([dense.multiply(x, x) for x in a]).tobytes()
    assert listed == [len(cols), dense.size] and list(dense._mul_tables) == [dense.order]





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
    assert sp.multiply(x.coef, y.coef)[last[2]] == sum(x.coef[last[i]] * y.coef[last[2 - i]]
                                                       for i in range(3))
    a, b = _operand(sp, rng, 0.05), _operand(sp, rng, 0.05)
    xs, ys = _occupant(sp, a, rng, 0.0), _occupant(sp, b, rng, 0.0)
    assert xs.space._codes.dtype == object
    assert dense(product(xs, ys)).tobytes() == _table(sp, a, b).tobytes()
    assert ref(x).deriv("v39").coef[last[1]] == 2 * x.coef[last[2]]
    u, c, v = at_union(sp.constant(0.5), sp.variable("v39", 0.0))
    assert dense(sp.variable("v39", 0.5)).tobytes() == dense(Jet(u, c + v)).tobytes()
    assert list(ranked(sp.variable("v39", 0.5).space)) == [(0,) * 40, (0,) * 39 + (1,)]


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
    # and the reference derivative of the same rows put in full rows of zeros
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
            want = dense(ref(jets[tuple(jets.index[r].tolist())]).deriv(f"v{v}"))
        got = np.zeros(len(want))
        got[sp._rank(d_cols)] = d[r]
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------- deriv/extract
def test_deriv_shifts_coefficients():
    sp = jet_space(("a", "b"), 3)
    rng = np.random.default_rng(7)
    x = dyadic_jet(sp, rng)
    d = ref(x).deriv("a")
    assert d.order == 2
    rank = ranked(sp)
    for m, r in ranked(d.space).items():
        up = (m[0] + 1, m[1])
        assert d.coef[r] == x.coef[rank[up]] * (m[0] + 1)


def test_extract_examples():
    j = eval_jet(parse("y*y*z1", ("y", "z1")), {"y": 0.0, "z1": 0.0}, ("y", "z1"), 3)
    assert j.extract((2, 1)) == 2.0
    assert j.extract((0, 0)) == j.value() == 0.0

    e = eval_jet(parse("exp(y)", ("y",)), {"y": 1.0}, ("y",), 3)
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


# ------------------------------------------------------------- primitives
def t_jet(text, t, order):
    """`eval_jet` of `text` in the one variable t at t."""
    return eval_jet(parse(text, ("t",)), {"t": t}, ("t",), order)


def test_exp_series_at_zero():
    e = t_jet("exp(t)", 0.0, 4)
    np.testing.assert_allclose(
        e.coef, [1.0, 1.0, 0.5, 1 / 6, 1 / 24], rtol=1e-15
    )


def test_exp_of_constant():
    # the series over the codes of 1 and t of a jet whose slope is 0
    e = t_jet("exp(0*t + 2)", 0.3, 3)
    assert e.value() == pytest.approx(math.exp(2.0), rel=1e-15)
    assert np.array_equal(dense(e)[1:], np.zeros(3))


def test_exp_of_sum_matches_scaled_argument():
    lhs = t_jet("exp(t + t*2.0)", 0.25, 5)
    rhs = t_jet("exp(t*3.0)", 0.25, 5)
    np.testing.assert_allclose(lhs.coef, rhs.coef, rtol=1e-14)
    want = [math.exp(0.75) * 3.0 ** k / math.factorial(k) for k in range(6)]
    np.testing.assert_allclose(lhs.coef, want, rtol=1e-14)


def test_primitive_derivative_identities():
    # the derivative (`deriv_cols`) of each series at order 6 against the
    # series it names at order 5, the truncation
    e = ref(t_jet("exp(t)", 0.7, 6))
    np.testing.assert_allclose(e.deriv("t").coef, t_jet("exp(t)", 0.7, 5).coef, rtol=1e-14)
    s, c = ref(t_jet("sin(t)", 0.7, 6)), ref(t_jet("cos(t)", 0.7, 6))
    np.testing.assert_allclose(s.deriv("t").coef, t_jet("cos(t)", 0.7, 5).coef,
                               rtol=5e-14, atol=1e-16)
    np.testing.assert_allclose(c.deriv("t").coef, t_jet("-sin(t)", 0.7, 5).coef,
                               rtol=5e-14, atol=1e-16)
    np.testing.assert_allclose(dense(t_jet("sin(t)*sin(t) + cos(t)*cos(t)", 0.7, 6)),
                               dense(jet_space(("t",), 6).constant(1.0)), atol=1e-15)


def test_exp_overflow_raises():
    with pytest.raises(NonFiniteError):
        t_jet("exp(t)", 1000.0, 2)
    t_jet("exp(t)", 700.0, 2)  # close to the edge but still finite
