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

A product sums pair terms, and one listing gives the pairs: for a set of
ranks, every pair (r, s), r <= s, of them with |r| + |s| <= K, in ascending
order, with the rank of r + s.  The ranks are graded, so the partners of r
are one run of the set: from r up to size_at(K - |r|).  Pair (r, s) weighs
a[r]*b[s] + a[s]*b[r] off the diagonal and a[r]*b[r] on it; off-diagonal
pairs are summed into the output ranks by one `bincount`, diagonal pairs by
a second, added in that order.  A product has two routes through it:
  * table route: the pair table is the listing of every rank, cached in the
    space the first time this route runs there.  It has
    sum_r max(0, size_at(K - |r|) - r) pairs, about a million at 7 variables
    and order 10.
  * sparse route: the listing of the ranks where a or b is nonzero.
In every pair the sparse route leaves out, and in every pair it lists beyond
nonzero(a) x nonzero(b), a[r] or b[s], and a[s] or b[r], are zero; with
finite operands such a pair weighs +-0.0, and adding +-0.0 to a bin changes
no bit (the bins start at +0.0).  Both routes sum in the one ascending
order, so they give bit-identical products, and a * b and b * a are
bit-identical on either.  (A non-finite coefficient would break this: the
table route forms inf * 0 = nan where the sparse route forms nothing, so such
operands always take the table route.)

`multiply_rows` multiplies many pairs of jets in one call, each row bit for
bit as `multiply` would: the sparse route lists every row of a block in one
call, as flat indices into the block, and the table route bins row r's sums
at an offset of r * size; either sums the block in one `bincount` pair.

`multiply` takes the sparse route when nnz(a) * nnz(b) * SPARSE_PAIR_COST is
below the table's pair count and every coefficient is finite.  A space with
at most SPARSE_PAIR_COST pairs always takes the table route without counting
nonzeros, and b is not counted when nnz(a) * SPARSE_PAIR_COST alone reaches
the pair count (a zero b then takes the table route, for the same bits).
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
    None until the table route first runs.
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
        self._deriv_tables: dict[str, tuple["JetSpace", np.ndarray, np.ndarray]] = {}

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

    # ------------------------------------------------------------- arithmetic
    def _listing(self, live: np.ndarray):
        """The product pairs of the ranks set in each row of a (rows, size) mask.

        For each row, every pair (r, s), r <= s, of its set ranks with
        |r| + |s| <= K, row by row in ascending order, as flat indices into
        the (rows, size) array, with the flat index of rank r + s in the same
        row: (r, s, out) of the off-diagonal pairs, then (r, out) of the
        diagonal ones, as `_accumulate` takes them.
        """
        flat = np.flatnonzero(live)
        rank = flat % self.size
        start = flat - rank
        # ranks are graded, so the partners of r are one run of set ranks:
        # from r up to size_at(K - |r|) in r's row
        stop = np.searchsorted(flat, start + self._reach[rank])
        lengths = np.maximum(stop - np.arange(len(flat)), 0)
        i = np.repeat(np.arange(len(flat)), lengths)
        j = i + _ramps(lengths)
        out = start[i] + np.searchsorted(self._codes, self._codes[rank[i]] + self._codes[rank[j]])
        diag = i == j
        off = ~diag
        return flat[i[off]], flat[j[off]], out[off], flat[i[diag]], out[diag]

    def _mul(self):
        # the pair table: the listing of one row with every rank set
        if self._mul_tables is None:
            self._mul_tables = self._listing(np.ones((1, self.size), dtype=bool))
        return self._mul_tables

    @staticmethod
    def _accumulate(a, b, ia, ib, io, idg, idg_o) -> np.ndarray:
        # off-diagonal pair (r, s) weighs a[r]*b[s] + a[s]*b[r], diagonal
        # pair r weighs a[r]*b[r]; each bin sums its off-diagonal pairs, then
        # its diagonal ones, in listing order.  (rows, size) operands take
        # one row's listing each, binned at an offset of r * size for row r.
        if a.ndim > 1:
            at = np.arange(0, a.size, a.shape[1])[:, None]
            io, idg_o = (io + at).ravel(), (idg_o + at).ravel()
        # (an empty bincount is of integers, hence the length tests)
        if len(io):
            w = a.take(ia, -1) * b.take(ib, -1) + a.take(ib, -1) * b.take(ia, -1)
            out = np.bincount(io, weights=w.ravel(), minlength=a.size)
        else:
            out = np.zeros(a.size)
        if len(idg_o):
            wd = a.take(idg, -1) * b.take(idg, -1)
            out += np.bincount(idg_o, weights=wd.ravel(), minlength=a.size)
        return out.reshape(a.shape)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        pairs = self._pairs
        if pairs > SPARSE_PAIR_COST:
            cost = np.count_nonzero(a) * SPARSE_PAIR_COST
            if cost < pairs and cost * np.count_nonzero(b) < pairs and _finite(a, b):
                return self._accumulate(a, b, *self._listing(((a != 0) | (b != 0))[None]))
        return self._accumulate(a, b, *self._mul())

    def multiply_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row r is `multiply(a[r], b[r])` bit for bit, for (rows, size) operands.

        Rows go in blocks of SPARSE_PAIR_COST ** 2 table pairs, which bounds
        the temporaries while a block's fixed cost (some hundred pairs'
        worth, see SPARSE_PAIR_COST) stays below a hundredth of its work.
        The route rule is `multiply`'s summed over a block's rows: the sparse
        route when sum nnz(a[r]) * nnz(b[r]) * SPARSE_PAIR_COST is below
        rows * pairs and every coefficient is finite.  The sparse route is
        one listing of the block's nonzero masks, the table route the pair
        table at an offset of r * size for row r, and either sums the whole
        block in one `_accumulate`.
        """
        out = np.empty((len(a), self.size))
        step = max(1, SPARSE_PAIR_COST ** 2 // self._pairs)
        for r0 in range(0, len(a), step):
            x, y = a[r0:r0 + step], b[r0:r0 + step]
            if (self._pairs > SPARSE_PAIR_COST
                    and (np.count_nonzero(x, axis=1) @ np.count_nonzero(y, axis=1))
                    * SPARSE_PAIR_COST < len(x) * self._pairs and _finite(x, y)):
                sums = self._accumulate(x.ravel(), y.ravel(), *self._listing((x != 0) | (y != 0)))
            else:
                sums = self._accumulate(x, y, *self._mul())
            out[r0:r0 + len(x)] = sums.reshape(x.shape)
        return out

    def deriv_table(self, name: str):
        if name not in self._deriv_tables:
            _check_differentiable(self.order)
            target = jet_space(self.variables, self.order - 1)
            v = self._var_pos[name]
            # the target's multi-indices are this space's first target.size
            src = np.searchsorted(self._codes, self._codes[: target.size] + self._unit_codes[v])
            fac = (self._exps[: target.size, v] + 1).astype(float)
            self._deriv_tables[name] = (target, src, fac)
        return self._deriv_tables[name]


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
        target, src, fac = self.space.deriv_table(name)
        return Jet(target, self.coef[src] * fac)

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

