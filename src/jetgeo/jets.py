"""Truncated multivariate Taylor arithmetic.

A jet records every partial derivative of a smooth function at a base point up
to a fixed total order K, stored as Taylor coefficients d^m f(base) / m!.  Sums,
products and analytic primitives of jets are exact to the truncation order, so
the curvature pipeline downstream obtains high-order derivatives without any
finite differencing.

Coefficients live in a dense table indexed by multi-indices in graded
lexicographic order.  The grading means the coefficients of order <= q are a
prefix of the table, so truncation is a slice.

Each multi-index m also has a packed code: the digits |m|, m_1, ..., m_n read
as one number in base K + 1.  No digit exceeds K below the truncation order,
so code(m + m') = code(m) + code(m') for every product term that is kept, and
the codes ascend with the graded-lex rank, so `searchsorted` on them turns a
code back into a rank (packed exponents for sparse polynomial products:
Monagan and Pearce, CASC 2007, LNCS 4770).  The derivative shift
m -> m + e_v and the pair listing below are built from the codes.

A product sums pair terms, and one listing gives the pairs: for an ascending
set of ranks, every pair (r, s), r <= s, of them with |r| + |s| <= K, in
ascending order, with the rank of r + s.  The ranks are graded, so the
partners of r are one run of the set: from r up to size_at(K - |r|).  Pair
(r, s) weighs a[r]*b[s] + a[s]*b[r] off the diagonal and a[r]*b[r] on it;
off-diagonal pairs are summed into the output ranks by one `bincount`,
diagonal pairs by a second, added in that order.  The pair table, the
listing of every rank, is cached in the space when first needed; it has
sum_r max(0, size_at(K - |r|) - r) pairs, about a million at 7 variables and
order 10.  In every pair a listing of fewer ranks leaves out, and in every
pair it lists beyond nonzero(a) x nonzero(b), a[r] or b[s], and a[s] or
b[r], are zero; with finite operands such a pair weighs +-0.0, and adding
+-0.0 to a bin changes no bit (the bins start at +0.0).  So the listing of
any superset of the operands' nonzeros gives the table's product to the bit,
and a * b and b * a are bit-identical.  (A non-finite coefficient would break
this: the table forms inf * 0 = nan where a shorter listing forms nothing,
so such operands always take the table.)

`multiply` lists the operands' nonzeros when nnz(a) * nnz(b) *
SPARSE_PAIR_COST is below the table's pair count and every coefficient is
finite (the sparse route), and takes the table otherwise.  A space with at
most SPARSE_PAIR_COST pairs always takes the table without counting
nonzeros, and b is not counted when nnz(a) * SPARSE_PAIR_COST alone reaches
the pair count (a zero b then takes the table, for the same bits).

`JetSpace.lift` embeds a jet over a subsequence of the variables, at the
same order, in the space of all of them: m there is m with zeros added here,
with code sum_v m_v code(e_v), so one `searchsorted` gives its rank.  The
graded-lex order of the multi-indices of a subsequence of the variables is
their order in their own space, so that space's pair table is, pair for
pair and in order, the listing here of the lifted ranks, a superset of the
lifted operands' nonzeros.  So the product of lifted jets is the lift of
their product, to the bit, and sums and the analytic series follow; only a
sum that held -0.0 off the lifted ranks holds +0.0 there.

`multiply_rows` multiplies many pairs of jets bit for bit as `multiply`
would, given column-compressed: (rows, len(cols)) coefficients at an
ascending set `cols` of ranks that all rows share.  It lists `cols` once
(the table, when `cols` is every rank).  `deriv_cols` differentiates such
rows: rank m goes to the rank of m - e_v, times m_v.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetSpace",
    "JetMismatchError",
    "JetOrderError",
    "NonFiniteError",
    "jet_space",
]


class JetMismatchError(ValueError):
    """Operands live over different variable lists or truncation orders."""


class JetOrderError(ValueError):
    """A multi-index or derivative request exceeds the truncation order."""


class NonFiniteError(ArithmeticError):
    """An operation produced inf or nan."""


# The sparse route runs when nnz(a) * nnz(b) * SPARSE_PAIR_COST < pair count.
# Measured on an x86-64 host: a pair costs both routes about the same (6 to
# 11 ns), but a sparse product has a fixed cost of about 25 us against 8 us
# for a table product, so the constant also keeps small spaces (at most this
# many pairs) on the table.  With both routes timed on every product of a
# cold and a warm pass of each benchmark workload: at 4 or less, order-1 and
# order-2 products went sparse and the multiplies of the geodesic and
# invariant workloads took a fifth longer; at 16, products with at most a
# dozen nonzero pairs in spaces of 25 to 1,519 pairs went sparse and the
# dense workloads' multiply time rose 0.4-2%; from 256 to 2048 they were
# within 0.2% of table-only and the family within 2% of its best (0.30 s,
# against 3.6 s table-only).
# A larger value keeps the table route for operands up to that many
# times sparser than the table, up to that many times slower there.
SPARSE_PAIR_COST = 256


def _ramps(lengths: np.ndarray) -> np.ndarray:
    """The ranges 0..l-1 for each l in `lengths`, concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _multi_indices(n: int, order: int) -> np.ndarray:
    """Every multi-index of n entries and total degree <= order, one a row."""
    m = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):
        room = order + 1 - m.sum(axis=1)
        m = np.column_stack((np.repeat(m, room, axis=0), _ramps(room)))
    return m


def _finite(a: np.ndarray, b: np.ndarray) -> bool:
    # the sparse route's condition: the table's inf * 0 is nan
    return bool(np.isfinite(a).all() and np.isfinite(b).all())


def _check_differentiable(order: int) -> None:
    if order == 0:
        raise JetOrderError("cannot differentiate an order-0 jet")


@lru_cache(maxsize=None)
def jet_space(variables: tuple[str, ...], order: int) -> "JetSpace":
    """Canonical (cached) space for an ordered variable tuple and order."""
    return JetSpace(variables, order)


class JetSpace:
    """Multi-index bookkeeping shared by all jets over one variable tuple.

    Use :func:`jet_space` to obtain instances; the cache guarantees that equal
    (variables, order) pairs share tables, and binary operations accept jets
    whose spaces agree structurally.

    `multis[r]` is the multi-index of rank r and `rank` inverts it.
    `_codes[r]` packs multis[r] as described in the module docstring (int64,
    or Python ints where (K + 1) ** (n + 1) would overflow it), and `_deg[r]`
    is its total degree.  The ranks s with |r| + |s| <= K are those below
    `_reach[r]`, and `_pairs` is the pair table's length, known in closed
    form before the table exists.  `multiply` picks the table or the sparse
    route per call from the operands' nonzero counts; `_mul_tables` stays
    None until the table is first needed.  `_last_listing` keeps the last
    column set `multiply_rows` listed, `_deriv_full` the derivative table of
    every rank, and `_lifts` the ranks here of each space lifted from; none
    changes a result.
    """

    def __init__(self, variables: Sequence[str], order: int):
        if order < 0:
            raise JetOrderError(f"truncation order must be >= 0, got {order}")
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")
        self.order = int(order)
        self.n = len(self.variables)
        # digits in base order + 1: the degree first, then the exponents
        # in variable order; Python ints where int64 would overflow
        base = self.order + 1
        dtype = np.int64 if base ** (self.n + 1) < 2 ** 63 else object
        weights = np.array([base ** (self.n - d) for d in range(self.n + 1)], dtype=dtype)
        exps = _multi_indices(self.n, self.order)
        deg = exps.sum(axis=1)
        codes = (np.column_stack((deg, exps)).astype(dtype) * weights).sum(axis=1)
        by_code = np.argsort(codes, kind="stable")
        self._codes = codes[by_code]
        self._unit_codes = weights[0] + weights[1:]
        self._exps = exps[by_code]
        self._deg = deg[by_code]
        self.multis: tuple[tuple[int, ...], ...] = tuple(map(tuple, self._exps.tolist()))
        self.size = len(self.multis)
        self.rank = dict(zip(self.multis, range(self.size)))
        self._var_pos = {name: i for i, name in enumerate(self.variables)}
        top = np.array([self.size_at(self.order - d) for d in range(self.order + 1)])
        self._reach = top[self._deg]
        self._pairs = int(np.maximum(self._reach - np.arange(self.size), 0).sum())
        self._mul_tables = None
        self._last_listing: tuple = (None,)
        self._deriv_full = None
        self._lifts: dict = {}

    def size_at(self, order: int) -> int:
        """Number of multi-indices of total degree <= order (a table prefix)."""
        return math.comb(order + self.n, self.n)

    def key(self) -> tuple:
        return (self.variables, self.order)

    # ------------------------------------------------------------------ build
    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.size))

    def constant(self, value: float) -> "Jet":
        coef = np.zeros(self.size)
        coef[0] = value
        return Jet(self, coef)

    def variable(self, name: str, base: float) -> "Jet":
        if name not in self._var_pos:
            raise KeyError(f"{name!r} is not a variable of this space")
        coef = np.zeros(self.size)
        coef[0] = base
        if self.order >= 1:
            unit = tuple(1 if i == self._var_pos[name] else 0 for i in range(self.n))
            coef[self.rank[unit]] = 1.0
        return Jet(self, coef)

    def lift(self, jet: "Jet") -> "Jet":
        """`jet`, of this order over a subsequence of these variables, as a
        jet of this space: its coefficients put at the ranks of their
        multi-indices here (see the module docstring)."""
        small = jet.space
        if small is self:
            return jet
        if small.key() not in self._lifts:
            if small.order != self.order:
                raise JetMismatchError(f"cannot lift order {small.order} to {self.order}")
            pos = [self._var_pos[v] for v in small.variables]
            # code(m) = sum_v m_v code(e_v), as the degree is sum_v m_v
            codes = (small._exps * self._unit_codes[pos]).sum(axis=1)
            self._lifts[small.key()] = np.searchsorted(self._codes, codes)
        coef = np.zeros(self.size)
        coef[self._lifts[small.key()]] = jet.coef
        return Jet(self, coef)

    # ------------------------------------------------------------- arithmetic
    def _listing(self, ranks: np.ndarray):
        """The product pairs of an ascending array of ranks.

        Every pair (r, s), r <= s, of `ranks` with |r| + |s| <= K, in
        ascending order, as positions in `ranks`, with the rank of r + s:
        (r, s, out) of the off-diagonal pairs, then (r, out) of the diagonal
        ones, as `_accumulate` takes them.
        """
        # ranks are graded, so the partners of r are one run of the set:
        # from r up to size_at(K - |r|)
        stop = np.searchsorted(ranks, self._reach[ranks])
        lengths = np.maximum(stop - np.arange(len(ranks)), 0)
        i = np.repeat(np.arange(len(ranks)), lengths)
        j = i + _ramps(lengths)
        out = np.searchsorted(self._codes, self._codes[ranks[i]] + self._codes[ranks[j]])
        diag = i == j
        off = ~diag
        return i[off], j[off], out[off], i[diag], out[diag]

    def _mul(self):
        # the pair table: the listing of every rank
        if self._mul_tables is None:
            self._mul_tables = self._listing(np.arange(self.size))
        return self._mul_tables

    @staticmethod
    def _accumulate(a, b, ia, ib, io, idg, idg_o, width: int) -> np.ndarray:
        # off-diagonal pair (r, s) weighs a[r]*b[s] + a[s]*b[r], diagonal
        # pair r weighs a[r]*b[r]; each of `width` bins sums its off-diagonal
        # pairs, then its diagonal ones, in listing order.  (rows, n)
        # operands take one listing, binned at an offset of r * width for row r.
        if a.ndim > 1:
            at = (np.arange(len(a)) * width)[:, None]
            io, idg_o = (io + at).ravel(), (idg_o + at).ravel()
        bins = width * (len(a) if a.ndim > 1 else 1)
        # (an empty bincount is of integers, hence the length tests)
        if len(io):
            w = a.take(ia, -1) * b.take(ib, -1) + a.take(ib, -1) * b.take(ia, -1)
            out = np.bincount(io, weights=w.ravel(), minlength=bins)
        else:
            out = np.zeros(bins)
        if len(idg_o):
            wd = a.take(idg, -1) * b.take(idg, -1)
            out += np.bincount(idg_o, weights=wd.ravel(), minlength=bins)
        return out.reshape(a.shape[:-1] + (width,))

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        pairs = self._pairs
        if pairs > SPARSE_PAIR_COST:
            cost = np.count_nonzero(a) * SPARSE_PAIR_COST
            if cost < pairs and cost * np.count_nonzero(b) < pairs and _finite(a, b):
                nz = np.flatnonzero((a != 0) | (b != 0))
                return self._accumulate(a[nz], b[nz], *self._listing(nz), self.size)
        return self._accumulate(a, b, *self._mul(), self.size)

    def multiply_rows(self, cols: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Products of (rows, len(cols)) operands at the ascending ranks `cols`.

        Returns the ascending ranks `out` the listing of `cols` reaches and
        the (rows, len(out)) sums there: row r, put at `out` in a row of
        zeros, is `multiply` of row r of a and of b, so put, bit for bit.
        A full `cols` takes the pair table as it stands.  Operands with a
        non-finite coefficient are put in full rows first and take the
        table, so that inf * 0 = nan lands where `multiply` puts it.  Rows
        go in blocks of SPARSE_PAIR_COST ** 2 listed pairs, which bounds the
        temporaries.
        """
        if len(cols) < self.size and not _finite(a, b):
            wide = np.zeros((2, len(a), self.size))
            wide[:, :, cols] = a, b
            (a, b), cols = wide, np.arange(self.size)
        listing, out = self._product_listing(cols)
        sums = np.empty((len(a), len(out)))
        step = max(1, SPARSE_PAIR_COST ** 2 // max(1, len(listing[0]) + len(listing[3])))
        for r0 in range(0, len(a), step):
            rows = slice(r0, r0 + step)
            sums[rows] = self._accumulate(a[rows], b[rows], *listing, len(out))
        return out, sums

    def _product_listing(self, cols: np.ndarray):
        # the listing of `cols` with its output ranks as positions in the
        # ranks it reaches, and those ranks; the last one is kept, as a sum
        # asks for it in `product_cols` and then per block of rows, and the
        # Neumann sweeps for the same columns sweep after sweep
        if len(cols) == self.size:
            return self._mul(), cols
        key = cols.tobytes()
        if self._last_listing[0] != key:
            ia, ib, io, idg, idg_o = self._listing(cols)
            out = _distinct(np.concatenate((io, idg_o)))
            listing = ia, ib, np.searchsorted(out, io), idg, np.searchsorted(out, idg_o)
            self._last_listing = key, listing, out
        return self._last_listing[1:]

    def product_cols(self, cols: np.ndarray) -> np.ndarray:
        """The ranks `multiply_rows` returns for operands at the ranks `cols`."""
        return self._product_listing(cols)[1]

    def deriv_cols(self, cols: np.ndarray):
        """Differentiation at the ascending ranks `cols`: the ranks m - e_v
        that ranks m of `cols` with m_v > 0 go to, over every v, ascending
        (in this space and the one an order lower); and for each variable v
        and each of those ranks r, the position in `cols` of r + e_v and its
        exponent of v as a float, or len(cols) and 0.0 where r + e_v is not
        in `cols`.  A last row holds len(cols) and 0.0 throughout, for no
        derivative.  The result for every rank is kept."""
        full = len(cols) == self.size
        if full and self._deriv_full is not None:
            return self._deriv_full
        _check_differentiable(self.order)
        var, at = np.nonzero(self._exps[cols].T > 0)
        src = cols[at]
        # code(m - e_v) = code(m) - code(e_v), and codes ascend with rank
        to = np.searchsorted(self._codes, self._codes[src] - self._unit_codes[var])
        ranks = _distinct(to)
        pos = np.full((self.n + 1, len(ranks)), len(cols))
        fac = np.zeros((self.n + 1, len(ranks)))
        to = np.searchsorted(ranks, to)
        pos[var, to], fac[var, to] = at, self._exps[src, var]
        if full:
            self._deriv_full = ranks, pos, fac
        return ranks, pos, fac


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct entries of `x`, ascending (`np.unique` would import
    numpy.ma)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


class Jet:
    """Dense truncated Taylor expansion over a :class:`JetSpace`.

    Coefficient at multi-index m is d^m f(base) / m!.  Jets are value objects;
    arithmetic never mutates operands.
    """

    __slots__ = ("space", "coef")

    def __init__(self, space: JetSpace, coef: np.ndarray):
        self.space = space
        self.coef = coef

    # ----------------------------------------------------------------- basics
    @property
    def variables(self) -> tuple[str, ...]:
        return self.space.variables

    @property
    def order(self) -> int:
        return self.space.order

    def value(self) -> float:
        """The order-0 coefficient, i.e. the plain function value."""
        return float(self.coef[0])

    def is_zero(self) -> bool:
        return not self.coef.any()

    def _check_mate(self, other: "Jet") -> None:
        if self.space is not other.space and self.space.key() != other.space.key():
            raise JetMismatchError(
                f"jet over {self.variables} order {self.order} combined with "
                f"jet over {other.variables} order {other.order}"
            )

    # ------------------------------------------------------------- operations
    def __add__(self, other):
        if isinstance(other, (int, float)):
            coef = self.coef.copy()
            coef[0] += other
            return Jet(self.space, coef)
        self._check_mate(other)
        return Jet(self.space, self.coef + other.coef)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        self._check_mate(other)
        return Jet(self.space, self.coef - other.coef)

    def __neg__(self):
        return Jet(self.space, -self.coef)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.space, self.coef * other)
        self._check_mate(other)
        return Jet(self.space, self.space.multiply(self.coef, other.coef))

    __rmul__ = __mul__

    def scaled(self, factor: float) -> "Jet":
        return Jet(self.space, self.coef * factor)

    def truncated(self, order: int) -> "Jet":
        """Drop coefficients above the given total order (a prefix slice)."""
        if order > self.order:
            raise JetOrderError(f"cannot raise order {self.order} to {order}")
        if order == self.order:
            return self
        target = jet_space(self.variables, order)
        return Jet(target, self.coef[: target.size].copy())

    def deriv(self, name: str) -> "Jet":
        """Partial derivative; one order lower.  Zero for foreign variables."""
        if name not in self.space._var_pos:
            _check_differentiable(self.order)
            return jet_space(self.variables, self.order - 1).zero()
        _, pos, fac = self.space.deriv_cols(np.arange(self.space.size))
        v = self.space._var_pos[name]  # every m - e_v has its m here
        return Jet(jet_space(self.variables, self.order - 1), self.coef[pos[v]] * fac[v])

    def extract(self, m: Sequence[int]) -> float:
        """The partial derivative d^m f(base) (coefficient times m!)."""
        m = tuple(int(x) for x in m)
        if len(m) != self.space.n:
            raise JetMismatchError(f"multi-index {m} has wrong length for {self.variables}")
        if any(x < 0 for x in m):
            raise JetOrderError(f"negative entry in multi-index {m}")
        if sum(m) > self.order:
            raise JetOrderError(f"|{m}| exceeds truncation order {self.order}")
        fact = 1.0
        for x in m:
            fact *= math.factorial(x)
        return float(self.coef[self.space.rank[m]] * fact)

    # --------------------------------------------------- analytic primitives
    def _series(self, coeffs: Sequence[float]) -> "Jet":
        # Horner evaluation of sum_j coeffs[j] * (self - value)^j.  The shifted
        # jet is nilpotent past the truncation order, so this is exact.
        nil = self.coef.copy()
        nil[0] = 0.0
        space = self.space
        acc = np.zeros(space.size)
        acc[0] = coeffs[space.order]
        for j in range(space.order - 1, -1, -1):
            acc = space.multiply(acc, nil)
            acc[0] += coeffs[j]
        return Jet(space, acc)

    def exp(self) -> "Jet":
        v = math.exp(self.coef[0]) if self.coef[0] < 709.0 else math.inf
        if not math.isfinite(v):
            raise NonFiniteError(f"exp overflow at base value {self.coef[0]}")
        coeffs = [v]
        for j in range(1, self.order + 1):
            coeffs.append(coeffs[-1] / j)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = self._series(coeffs)
        if not np.isfinite(out.coef).all():
            raise NonFiniteError("non-finite coefficients in jet exp")
        return out

    def sin(self) -> "Jet":
        a0 = float(self.coef[0])
        cycle = (math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0))
        coeffs = [cycle[j % 4] / math.factorial(j) for j in range(self.order + 1)]
        return self._series(coeffs)

    def cos(self) -> "Jet":
        a0 = float(self.coef[0])
        cycle = (math.cos(a0), -math.sin(a0), -math.cos(a0), math.sin(a0))
        coeffs = [cycle[j % 4] / math.factorial(j) for j in range(self.order + 1)]
        return self._series(coeffs)

    def pow(self, exponent: int) -> "Jet":
        if exponent < 0 or exponent != int(exponent):
            raise ValueError(f"jet powers must be non-negative integers, got {exponent}")
        result = self.space.constant(1.0)
        base = self
        e = int(exponent)
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        return f"Jet(vars={self.variables}, order={self.order}, value={self.value()!r})"

