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
code back into a rank.  The space tables are built from the codes: the ranks
of all multi-indices, the shift m -> m + e_v of a derivative, and the pair
table below (packed exponents for sparse polynomial products: Monagan and
Pearce, CASC 2007, LNCS 4770).

A product has two routes, with one summation:
  * table route: the pair table lists every rank pair (r, s), r <= s, with
    |r| + |s| <= K, in ascending order, with the rank of r + s.  Row (r, s)
    weighs a[r]*b[s] + a[s]*b[r] off the diagonal and a[r]*b[r] on it;
    off-diagonal rows are summed into the output ranks by one `bincount`,
    diagonal rows by a second, added in that order.  The table has
    sum_r max(0, size_at(K - |r|) - r) rows, about a million at 7 variables
    and order 10, and is built the first time this route runs in a space.
  * sparse route: only the pairs of nonzero(a) x nonzero(b) within the
    degree bound, folded to their (min, max) rows, in ascending order, then
    weighed and summed exactly as the table route does.
The rows the sparse route leaves out are those where a[r] or b[s], and a[s]
or b[r], are zero; with finite operands each weighs +-0.0, and adding +-0.0
to a bin changes no bit (the bins start at +0.0).  The rows it keeps are
summed in the table's order, so the two routes give bit-identical products,
and a * b and b * a are bit-identical on either.  (A non-finite coefficient
would break this: the table route forms inf * 0 = nan where the sparse route
forms nothing, so such operands always take the table route.)

`multiply_rows` multiplies many pairs of jets in one call, each row bit for
bit as `multiply` would: the table route gathers every jet's pairs at once
and bins jet r's sums apart from the others' in the one `bincount`.

`multiply` takes the sparse route when nnz(a) * nnz(b) * SPARSE_PAIR_COST is
below the table's row count.  A space with at most SPARSE_PAIR_COST rows
always takes the table route without counting nonzeros, and b is not counted
when nnz(a) * SPARSE_PAIR_COST alone reaches the row count (a zero b then
takes the table route, for the same bits).
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
    is its total degree.  `_pairs` is the pair table's row count, known in
    closed form before the table exists.  `multiply` picks the table or the
    sparse route per call from the operands' nonzero counts; `_mul_tables`
    stays None until the table route first runs.
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
        self._pairs = int(self._pair_rows().sum())
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
    def _pair_rows(self) -> np.ndarray:
        # rows (r, s) of the pair table per rank r: s >= r and |s| <= K - |r|
        top = np.array([self.size_at(self.order - d) for d in range(self.order + 1)])
        return np.maximum(top[self._deg] - np.arange(self.size), 0)

    def _mul(self):
        # Symmetrized pair table: rows with ia < ib contribute
        # a[ia]*b[ib] + a[ib]*b[ia], diagonal rows contribute a[ia]*b[ia].
        # The symmetry makes a * b and b * a bit-identical.
        if self._mul_tables is None:
            lengths = self._pair_rows()
            ra = np.repeat(np.arange(self.size), lengths)
            rb = ra + _ramps(lengths)
            ro = np.searchsorted(self._codes, self._codes[ra] + self._codes[rb])
            diag = ra == rb
            off = ~diag
            self._mul_tables = (ra[off], rb[off], ro[off], ra[diag], ro[diag])
        return self._mul_tables

    @staticmethod
    def _accumulate(a, b, ia, ib, io, idg, idg_o) -> np.ndarray:
        # a and b hold one jet, or one jet a column of a (size, jets) array
        # where every jet takes the same pair rows: bin o of jet r is then
        # o * jets + r, and each bin still sums its rows in table order
        if a.ndim > 1:
            jets = np.arange(a.shape[1])
            io = (io[:, None] * len(jets) + jets).ravel()
            idg_o = (idg_o[:, None] * len(jets) + jets).ravel()
        if len(io):
            w = a[ia] * b[ib] + a[ib] * b[ia]
            out = np.bincount(io, weights=w.ravel(), minlength=a.size)
        else:
            out = np.zeros(a.size)
        if len(idg_o):
            wd = a[idg] * b[idg]
            out += np.bincount(idg_o, weights=wd.ravel(), minlength=a.size)
        return out.reshape(a.shape)

    def _sparse_rows(self, a: np.ndarray, b: np.ndarray):
        # the pair-table rows that reach a nonzero coefficient of each
        # operand, in table order and split as `_mul` splits them; None
        # when a coefficient is not finite (the table's inf * 0 is nan)
        ia, ib = np.flatnonzero(a), np.flatnonzero(b)
        if not (np.isfinite(a[ia]).all() and np.isfinite(b[ib]).all()):
            return None
        i, j = np.nonzero(self._deg[ia][:, None] + self._deg[ib] <= self.order)
        i, j = ia[i], ib[j]
        # sorted and deduplicated by hand: np.unique would import numpy.ma
        rows = np.sort(np.minimum(i, j) * self.size + np.maximum(i, j))
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows = rows[first]
        lo, hi = np.divmod(rows, self.size)
        ro = np.searchsorted(self._codes, self._codes[lo] + self._codes[hi])
        diag = lo == hi
        off = ~diag
        return lo[off], hi[off], ro[off], lo[diag], ro[diag]

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        pairs = self._pairs
        if pairs > SPARSE_PAIR_COST:
            cost = np.count_nonzero(a) * SPARSE_PAIR_COST
            if cost < pairs and cost * np.count_nonzero(b) < pairs:
                rows = self._sparse_rows(a, b)
                if rows is not None:
                    return self._accumulate(a, b, *rows)
        return self._accumulate(a, b, *self._mul())

    def multiply_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row r is `multiply(a[r], b[r])` bit for bit, for (rows, size) operands.

        The route rule is `multiply`'s summed over the rows: the sparse
        route when sum nnz(a[r]) * nnz(b[r]) * SPARSE_PAIR_COST is below
        rows * pairs.  The sparse route lists each row's pairs at an offset
        of r * size, the table route applies the one table to every row, and
        either sums all rows in one `_accumulate`.  Rows go in blocks of
        SPARSE_PAIR_COST ** 2 table pairs, which bounds the temporaries while
        a block's fixed cost (some hundred pairs' worth, see
        SPARSE_PAIR_COST) stays below a hundredth of its work.
        """
        out = np.empty((len(a), self.size))
        step = max(1, SPARSE_PAIR_COST ** 2 // self._pairs)
        for r0 in range(0, len(a), step):
            x, y = a[r0:r0 + step], b[r0:r0 + step]
            sums = None
            if self._pairs > SPARSE_PAIR_COST:
                work = np.count_nonzero(x, axis=1) @ np.count_nonzero(y, axis=1)
                if work * SPARSE_PAIR_COST < len(x) * self._pairs:
                    listed = [self._sparse_rows(xr, yr) for xr, yr in zip(x, y)]
                    if None not in listed:
                        at = range(0, x.size, self.size)
                        rows = [np.concatenate([t + o for t, o in zip(ts, at)]) for ts in zip(*listed)]
                        sums = self._accumulate(x.ravel(), y.ravel(), *rows).reshape(x.shape)
            if sums is None:
                sums = self._accumulate(x.T, y.T, *self._mul()).T
            out[r0:r0 + len(x)] = sums
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

