"""Truncated multivariate Taylor arithmetic.

A jet records every partial derivative of a smooth function at a base point up
to a fixed total order K, stored as Taylor coefficients d^m f(base) / m!.  Sums,
products and analytic primitives of jets are exact to the truncation order, so
the curvature pipeline downstream obtains high-order derivatives without any
finite differencing.

Coefficients live in a dense table indexed by multi-indices in graded
lexicographic order.  The grading means the coefficients of order <= q are a
prefix of the table, so truncation is a slice.

A space names each multi-index m by its packed code alone, one sorted array
with no Python object per multi-index: the digits |m|, m_1, ..., m_n read as
one number in base K + 1 (packed exponents for sparse polynomial products:
Monagan and Pearce, CASC 2007, LNCS 4770).  No digit exceeds K below the
truncation order, so code(m + m') = code(m) + code(m') for every product
term that is kept, code(m) = sum_v m_v code(e_v), m_v is the digit
(code // (K + 1)^(n - 1 - v)) % (K + 1), and |m| <= q means
code(m) < (q + 1) (K + 1)^n.  The codes ascend with the graded-lex rank, so
one `searchsorted` turns codes into ranks.  Only this module reads them.

A product sums pair terms, and one listing gives the pairs: for an ascending
set of codes and an order q, every pair (r, s), r <= s, of them with
|r| + |s| <= q, in ascending order, with the code of r + s.  The codes are
graded, so the partners of r are one run of the set: from r up to the first
code of degree q - |r| + 1.  Pair (r, s) weighs a[r]*b[s] + a[s]*b[r] off
the diagonal and a[r]*b[r] on it; off-diagonal pairs are summed into the
output by one `bincount`, diagonal pairs by a second, added in that order.
Dense jets, indexed by rank, use the pair table, the listing of every code,
cached when first needed: (C(K + 2n, 2n) + C(K // 2 + n, n)) / 2 pairs,
about a million at 7 variables and order 10.  In every pair a listing of
fewer multi-indices leaves out, and in every pair it lists beyond
nonzero(a) x nonzero(b), a[r] or b[s], and a[s] or b[r], are zero; with
finite operands such a pair weighs +-0.0, and adding +-0.0 to a bin changes
no bit (the bins start at +0.0).  So the listing of any superset of the
operands' nonzeros gives the table's product to the bit, and a * b and
b * a are bit-identical.  (A non-finite coefficient would break this: the
table forms inf * 0 = nan where a shorter listing forms nothing, so such
operands always take the table.)

`multiply` takes the sparse route, one row of `multiply_rows` at the codes
of the operands' nonzeros, when nnz(a) * nnz(b) * SPARSE_PAIR_COST is below
the table's pair count and every coefficient is finite, and the table
otherwise.  A space with at most SPARSE_PAIR_COST pairs always takes the
table without counting nonzeros, and b is not counted when nnz(a) *
SPARSE_PAIR_COST alone reaches the pair count (a zero b then takes the
table, for the same bits).

`JetSpace.jet_at` puts values at codes in a row of zeros of an order (one
`searchsorted` ranks the codes); `lift` embeds a jet over a subsequence of
the variables, at the same order, in the space of all of them: m there is
m with zeros added here, at code sum_v m_v code(e_v) (`codes_of`).  The
graded-lex order of the multi-indices of a subsequence of the variables is
their order in their own space, so that space's pair table is, pair for
pair and in order, the listing here of the lifted ranks, a superset of the
lifted operands' nonzeros.  So the product of lifted jets is the lift of
their product, to the bit, and sums and the analytic series follow; only a
sum that held -0.0 off the lifted ranks holds +0.0 there.

Column-compressed jets are keyed by code: (rows, len(cols)) coefficients at
ascending codes `cols` that all rows share, of an order q <= K.  As the
codes of degree <= q are a prefix, the space of order K serves every lower
order.  `multiply_rows` multiplies many pairs of them from one listing of
`cols`, bit for bit as `multiply` at order q; a non-finite operand raises
NonFiniteError.  `deriv_cols` sends code m to m - code(e_v), times m_v.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
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

# every exp in the package, of jets and of floats, raises NonFiniteError from
# this argument on (a float overflows above log(max float) = 709.78...)
_EXP_LIMIT = 709.0


def _ramps(lengths: np.ndarray) -> np.ndarray:
    """The ranges 0..l-1 for each l in `lengths`, concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _finite(a: np.ndarray, b: np.ndarray) -> bool:
    # the sparse route's condition: the table's inf * 0 is nan
    return bool(np.isfinite(a).all() and np.isfinite(b).all())


@lru_cache(maxsize=None)
def jet_space(variables: tuple[str, ...], order: int) -> "JetSpace":
    """Canonical (cached) space for an ordered variable tuple and order."""
    return JetSpace(variables, order)


class JetSpace:
    """Multi-index bookkeeping shared by all jets over one variable tuple.

    Use :func:`jet_space` to obtain instances; the cache guarantees that equal
    (variables, order) pairs share tables, and binary operations accept jets
    whose spaces agree structurally.

    `_codes[r]` is the packed code of rank r (int64, or Python ints where
    (K + 1) ** (n + 1) would overflow it), `_grade` the code of the degree
    digit, (K + 1) ** n, `_places[v]` that of digit m_v, and
    `_unit_codes[v]` the code of e_v; `_exps[r]`, the multi-index of rank
    r, is read off the codes when first asked for.  `_pairs` is the pair
    table's length.  `_mul_tables` stays None until the table is first
    needed.  `_last_listing` keeps the last column set `multiply_rows`
    listed at each order, `_deriv_full` the derivative shifts of every code up to a
    degree, by degree, and `_lifts` the codes here of each space lifted
    from; none changes a result.
    """

    def __init__(self, variables: Sequence[str], order: int):
        if order < 0:
            raise JetOrderError(f"truncation order must be >= 0, got {order}")
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")
        self.order = int(order)
        self.n = len(self.variables)
        # digits in base order + 1: the exponents, one variable at a time in
        # lexicographic order, then the degree; Python ints past int64
        base = self.order + 1
        dtype = np.int64 if base ** (self.n + 1) < 2 ** 63 else object
        code, deg = np.zeros(1, dtype=dtype), np.zeros(1, dtype=np.int64)
        for _ in range(self.n):
            room = base - deg
            ramp = _ramps(room)
            code = np.repeat(code, room) * base + ramp.astype(dtype)
            deg = np.repeat(deg, room) + ramp
        self._grade = base ** self.n
        self._codes = np.sort(deg.astype(dtype) * self._grade + code)
        self._places = np.array([base ** (self.n - 1 - v) for v in range(self.n)], dtype=dtype)
        self._unit_codes = self._grade + self._places
        self.size = len(self._codes)
        self._var_pos = {name: i for i, name in enumerate(self.variables)}
        # ordered pairs of degree sum <= K, and the diagonal ones, halved
        self._pairs = (math.comb(self.order + 2 * self.n, 2 * self.n)
                       + math.comb(self.order // 2 + self.n, self.n)) // 2
        self._mul_tables = None
        self._last_listing: dict = {}
        self._deriv_full: dict = {}
        self._lifts: dict = {}

    def size_at(self, order: int) -> int:
        """Number of multi-indices of total degree <= order (a table prefix)."""
        return math.comb(order + self.n, self.n)

    @cached_property
    def _exps(self) -> np.ndarray:
        return (self._codes[:, None] // self._places % (self.order + 1)).astype(np.int64)

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
            coef[self._rank(self._unit_codes[self._var_pos[name]])] = 1.0
        return Jet(self, coef)

    def _rank(self, codes):
        """The ranks of packed codes (codes ascend with rank)."""
        return np.searchsorted(self._codes, codes)

    def stop(self, order):
        """The code after every code of degree <= order (elementwise)."""
        return (order + 1) * self._grade

    def codes_of(self, small: "JetSpace") -> np.ndarray:
        """The codes here of the multi-indices of `small`, a space of this
        order over a subsequence of these variables, in its rank order."""
        if small.order != self.order:
            raise JetMismatchError(f"cannot lift order {small.order} to {self.order}")
        if small.variables == self.variables:
            return self._codes
        if small.variables not in self._lifts:
            pos = [self._var_pos[v] for v in small.variables]
            self._lifts[small.variables] = small._exps @ self._unit_codes[pos]
        return self._lifts[small.variables]

    def jet_at(self, codes: np.ndarray, vals: np.ndarray, order: int) -> "Jet":
        """The jet of `order` over these variables with `vals` at the codes
        `codes` here, all of degree <= order, and zeros elsewhere."""
        space = self if order == self.order else jet_space(self.variables, order)
        coef = np.zeros(space.size)
        coef[self._rank(codes)] = vals
        return Jet(space, coef)

    def lift(self, jet: "Jet") -> "Jet":
        """`jet`, of this order over a subsequence of these variables, as a
        jet of this space: its coefficients put at the codes of their
        multi-indices here."""
        if jet.space is self:
            return jet
        return self.jet_at(self.codes_of(jet.space), jet.coef, self.order)

    # ------------------------------------------------------------- arithmetic
    def _listing(self, codes: np.ndarray, order: int):
        """The product pairs of an ascending array of codes at an order:
        every pair (r, s), r <= s, of `codes` with |r| + |s| <= order, in
        ascending order, as positions in `codes`, with the code of r + s:
        (r, s, out) of the off-diagonal pairs, then (r, out) of the diagonal
        ones, as `_accumulate` takes them once `out` is made positions."""
        # codes are graded, so the partners of r are one run of the set:
        # from r up to the first code of degree order - |r| + 1
        stop = np.searchsorted(codes, self.stop(order - codes // self._grade))
        lengths = np.maximum(stop - np.arange(len(codes)), 0)
        i = np.repeat(np.arange(len(codes)), lengths)
        j = i + _ramps(lengths)
        out = codes[i] + codes[j]
        diag = i == j
        off = ~diag
        return i[off], j[off], out[off], i[diag], out[diag]

    def _mul(self):
        # the pair table: the listing of every code, with output ranks
        if self._mul_tables is None:
            ia, ib, io, idg, idg_o = self._listing(self._codes, self.order)
            self._mul_tables = ia, ib, self._rank(io), idg, self._rank(idg_o)
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
                out, sums = self.multiply_rows(self._codes[nz], a[None, nz], b[None, nz],
                                               self.order)
                return self.jet_at(out, sums[0], self.order).coef
        return self._accumulate(a, b, *self._mul(), self.size)

    def multiply_rows(self, cols: np.ndarray, a: np.ndarray, b: np.ndarray, order: int):
        """Products of (rows, len(cols)) operands at the ascending codes
        `cols`, truncated at `order`.

        Returns the ascending codes `out` the listing of `cols` reaches and
        the (rows, len(out)) sums there: row r, put at `out` in a row of
        zeros of the space of that order, is `multiply` there of row r of a
        and of b, so put, bit for bit.  A non-finite operand raises
        NonFiniteError.  Rows go in blocks of SPARSE_PAIR_COST ** 2 pairs.
        """
        if not _finite(a, b):
            raise NonFiniteError("non-finite coefficients in the curvature jets")
        listing, out = self._product_listing(cols, order)
        sums = np.empty((len(a), len(out)))
        step = max(1, SPARSE_PAIR_COST ** 2 // max(1, len(listing[0]) + len(listing[3])))
        for r0 in range(0, len(a), step):
            rows = slice(r0, r0 + step)
            sums[rows] = self._accumulate(a[rows], b[rows], *listing, len(out))
        return out, sums

    def _product_listing(self, cols: np.ndarray, order: int):
        # the listing of `cols` with its output codes as positions in the
        # codes it reaches, and those codes.  The last of each order is kept:
        # sums ask for it again per block of rows, the Neumann sweeps sweep
        # after sweep, contexts of one metric context after context.  Python
        # int codes match by address, and the kept copy keeps them alive
        key = cols.tobytes()
        last = self._last_listing.get(order)
        if last is None or last[0] != key:
            ia, ib, io, idg, idg_o = self._listing(cols, order)
            out = _distinct(np.concatenate((io, idg_o)))
            listing = ia, ib, np.searchsorted(out, io), idg, np.searchsorted(out, idg_o)
            last = self._last_listing[order] = key, cols.copy(), listing, out
        return last[2:]

    def product_cols(self, cols: np.ndarray, order: int) -> np.ndarray:
        """The codes `multiply_rows` returns for operands at the codes `cols`."""
        return self._product_listing(cols, order)[1]

    def deriv_cols(self, cols: np.ndarray):
        """Differentiation at the ascending codes `cols`: the codes m - e_v
        that codes m of `cols` with m_v > 0 go to, over every v, ascending;
        and for each variable v and each of those codes r, the position in
        `cols` of r + e_v and its exponent of v as a float, or len(cols) and
        0.0 where r + e_v is not in `cols`.  A last row holds len(cols) and
        0.0 throughout, for no derivative.  The result for every code up to
        a degree is kept."""
        top = int(cols[-1]) // self._grade if len(cols) else -1
        full = top >= 0 and len(cols) == self.size_at(top)
        if full and top in self._deriv_full:
            return self._deriv_full[top]
        digit = cols // self._places[:, None] % (self.order + 1)
        var, at = np.nonzero(digit > 0)
        to = cols[at] - self._unit_codes[var]
        codes = _distinct(to)
        pos = np.full((self.n + 1, len(codes)), len(cols))
        fac = np.zeros((self.n + 1, len(codes)))
        to = np.searchsorted(codes, to)
        pos[var, to], fac[var, to] = at, digit[var, at]
        if full:
            self._deriv_full[top] = codes, pos, fac
        return codes, pos, fac


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
        if (self.variables, self.order) != (other.variables, other.order):
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
        if self.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        lower = jet_space(self.variables, self.order - 1)
        if name not in self.space._var_pos:
            return lower.zero()
        _, pos, fac = self.space.deriv_cols(self.space._codes)
        v = self.space._var_pos[name]
        return Jet(lower, self.coef[pos[v]] * fac[v])

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
        return float(self.coef[self.space._rank(m @ self.space._unit_codes)] * fact)

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
        v = math.exp(self.coef[0]) if self.coef[0] < _EXP_LIMIT else math.inf
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

