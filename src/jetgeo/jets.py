"""Truncated multivariate Taylor arithmetic.

A jet records every partial derivative of a smooth function at a base point up
to a fixed total order K, stored as Taylor coefficients d^m f(base) / m!.  A
`Jet` is a value: a space and its coefficients.  The arithmetic is over
coefficient arrays: sums over the union of two code sets (`JetSpace.join`),
products (`multiply`, `multiply_rows`), the series of exp, sin and cos
(`series_rows`) and derivatives (`deriv_cols`), each exact to the truncation
order, so the curvature pipeline downstream obtains high-order derivatives
without any finite differencing.  The public jet arithmetic is
`expr.eval_jet`, which computes an expression's jet with them; the curvature
stages compute many jets a step with them.

A space names each multi-index m by its packed code alone, one sorted array
with no Python object per multi-index: the digits |m|, m_1, ..., m_n read as
one number in base K + 1 (packed exponents for sparse polynomial products:
Monagan and Pearce, CASC 2007, LNCS 4770).  No digit exceeds K below the
truncation order, so code(m + m') = code(m) + code(m') for every product
term that is kept, code(m) = sum_v m_v code(e_v), m_v is the digit
(code // (K + 1)^(n - 1 - v)) % (K + 1), and |m| <= q means
code(m) < (q + 1) (K + 1)^n.  The codes ascend with the graded-lex rank
(by degree, then lexicographically), so the codes of degree <= q are a
prefix and truncation is a slice.  Only this module reads them.

A jet holds only the codes it occupies: its space is a variable tuple, an
order and an ascending set of codes, one coefficient each, and every other
multi-index holds 0.  `jet_space` gives the full space, of every code, listed
only when first read; `occupying` the space at a code set, made once.  A
constant occupies code 0, a variable code 0 and its own code.  A sum runs
over the union of its operands' codes, a product over that union's pair
listing, to the codes it reaches; truncation keeps a prefix, and a
derivative the codes m - e_v it reaches.  So the code sets follow from the
operations, never from the values.  A code set keeps what is derived from
it: its product listing per order, with the space of the codes that listing
reaches, and its derivative shifts, so the listings of one expression are
built once.  `recode` carries codes to a space over more variables or of
another order: m there is m with zeros added, at sum_v m_v code(e_v).

A product sums pair terms, and one listing gives the pairs: for an ascending
set of codes and an order q, every pair (r, s), r <= s, of them with
|r| + |s| <= q, in ascending order, with the code of r + s.  The codes are
graded, so the partners of r are one run of the set: from r up to the first
code of degree q - |r| + 1.  Pair (r, s) weighs a[r]*b[s] + a[s]*b[r] off
the diagonal and a[r]*b[r] on it; off-diagonal pairs are summed into the
output by one `bincount`, diagonal pairs by a second, added in that order.
A space's listing is built when first needed; the full space's is the pair
table, (C(K + 2n, 2n) + C(K // 2 + n, n)) / 2 pairs, about a million at 7
variables and order 10.  In every pair a listing of fewer multi-indices
leaves out, and in every pair it lists beyond nonzero(a) x nonzero(b), a[r]
or b[s], and a[s] or b[r], are zero; with finite operands such a pair weighs
+-0.0, and adding +-0.0 to a bin changes no bit (the bins start at +0.0).
So the listing of any superset of the operands' nonzeros gives the table's
product to the bit, the products of a and b and of b and a are bit-identical,
and a sum over a union adds +0.0 where a dense operand would hold +0.0.  (A
non-finite coefficient breaks the first: the table forms inf * 0 = nan where
a shorter listing forms nothing.  A listing that holds code 0, as every jet
that `expr.eval_jet` makes does, still turns each non-finite coefficient
a[r] into a non-finite output, through the pair (0, r).)

Column-compressed jets are keyed by code: (rows, len(cols)) coefficients at
ascending codes `cols` that all rows share, of an order q <= K.  As the
codes of degree <= q are a prefix, the space of order K serves every lower
order.  `multiply_rows` multiplies many pairs of them from the listing of
the code set `cols` at order q, bit for bit as `multiply` at order q, or
from term lists cut from it (`row_terms`): each row's pairs of the listing
that it weighs with two nonzero factors, which give the listing's product
to the bit for any operands with those nonzeros, as the listing of a
superset does; a non-finite operand raises NonFiniteError.  `deriv_cols`
sends code m to m - code(e_v), times m_v, by the shifts kept on the code
set `cols`.
"""
from __future__ import annotations

import copy
import math
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetSpace",
    "JetMismatchError",
    "JetOrderError",
    "JetSpaceSizeError",
    "MAX_SPACE_SIZE",
    "NonFiniteError",
    "jet_space",
]


class JetMismatchError(ValueError):
    """A multi-index does not have one entry per variable of its jet."""


class JetOrderError(ValueError):
    """A multi-index or derivative request exceeds the truncation order."""


class NonFiniteError(ArithmeticError):
    """An operation produced inf or nan."""


class JetSpaceSizeError(ValueError):
    """A jet space would hold more than MAX_SPACE_SIZE multi-indices."""


# The most multi-indices a space may hold, refused before any array of that
# length is allocated: the family's `check` and `alpha` up to p = 11 (37,442,160
# and 67,863,915), where `check` at p = 12 needs 145,422,675
MAX_SPACE_SIZE = 10 ** 8


# `multiply_rows` takes its rows, and curvature's ordered sums and the
# invariants their terms, in blocks of at most SPARSE_PAIR_COST ** 2 (65,536)
# product terms or coefficients: a bound on their temporaries, which changes
# no result
SPARSE_PAIR_COST = 256

# every exp in the package, of jets and of floats, raises NonFiniteError from
# this argument on (a float overflows above log(max float) = 709.78...)
_EXP_LIMIT = 709.0


def _finite(v: float | np.ndarray) -> bool:
    """Whether a float, or every entry of an array, is finite."""
    return math.isfinite(v) if isinstance(v, float) else bool(np.isfinite(v).all())


def _pointwise(fn, v: float | np.ndarray) -> float | np.ndarray:
    # math's function value by value, for a float or a row of points: numpy's
    # exp differs from math.exp in the last bit for about one argument in twenty
    return fn(v) if isinstance(v, float) else np.fromiter(map(fn, v.tolist()), float, len(v))


# the guarded primitives of every evaluator, over a float or a row: exp(nan)
# is nan, which the evaluators' final checks catch
def _exp(v: float | np.ndarray) -> float | np.ndarray:
    if v >= _EXP_LIMIT if isinstance(v, float) else (v >= _EXP_LIMIT).any():
        raise NonFiniteError(f"exp overflow at argument {np.max(v)}")
    return _pointwise(math.exp, v)


def _trig(fn, v: float | np.ndarray) -> float | np.ndarray:
    if not _finite(v):
        raise NonFiniteError(f"{fn.__name__} of non-finite argument {np.max(v)}")
    return _pointwise(fn, v)


def _series_coefficients(name: str, a0: float, order: int) -> list[float]:
    """The Taylor coefficients to `order` of exp, sin or cos (`name`) about
    a0: the series in powers of a jet less its value a0 that `expr`'s tapes
    sum with `JetSpace.series_rows`.  The guards of `_exp` and `_trig` raise
    NonFiniteError."""
    if name == "exp":
        coeffs = [_exp(a0)]
        for j in range(1, order + 1):
            coeffs.append(coeffs[-1] / j)
        return coeffs
    # the derivatives of sin or cos cycle: value, slope, -value, -slope
    fn, slope = (math.sin, math.cos) if name == "sin" else (math.cos, lambda t: -math.sin(t))
    v, s = _trig(fn, a0), slope(a0)
    cycle = (v, s, -v, -s)
    return [cycle[j % 4] / math.factorial(j) for j in range(order + 1)]


def _power(x, k: int, mul):
    # x^k for k >= 1 by squaring with the product `mul`; the first factor is
    # x itself, with no product by 1
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


@lru_cache(maxsize=None)
def jet_space(variables: tuple[str, ...], order: int) -> "JetSpace":
    """Canonical (cached) space for an ordered variable tuple and order."""
    return JetSpace(variables, order)


class JetSpace:
    """The multi-indices that jets over one variable tuple occupy.

    Use :func:`jet_space` for the full space of a (variables, order) pair,
    and `occupying` for the space at a set of its codes.  `join` takes a
    space of the same variables and order.

    `_codes` holds the ascending codes (int64, or Python ints where
    (K + 1) ** (n + 1) would overflow it), `size` their number, `_grade`
    the code of the degree digit, (K + 1) ** n, `_places[v]` that of digit
    m_v, `_unit_codes[v]` the code of e_v; `_zero` says if code 0 is in.
    A code set keeps what is derived from it, each part built when first
    read: `_mul_tables`, None until its first listing, then by order the
    listing of `_codes` with its output positions and the space of the
    codes it reaches (`_listed`); `_shifts`, the derivative shifts of
    `deriv_cols`; and `_joins`, for each space a jet (or an `expr` tape) here
    has met, the space of the union of both sets and the positions there
    of each (`join`); `_horner`, the products of a series over it
    (`horner`).  The spaces of one code system share `_sets`, the space of
    each code set, and `_variables`, that of each variable's codes, so what
    a code set keeps lives as long as its full space; none changes a result.
    """

    def __init__(self, variables: Sequence[str], order: int):
        if order < 0:
            raise JetOrderError(f"truncation order must be >= 0, got {order}")
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")
        self.order = int(order)
        self.n = len(self.variables)
        self.size = self.size_at(self.order)
        if self.size > MAX_SPACE_SIZE:
            raise JetSpaceSizeError(
                f"a jet space of order {self.order} in {self.n} variables would hold "
                f"{self.size:,} multi-indices, above the limit of {MAX_SPACE_SIZE:,}")
        # digits in base order + 1; Python ints past int64
        base = self.order + 1
        self._dtype = np.int64 if base ** (self.n + 1) < 2 ** 63 else object
        self._grade = base ** self.n
        self._places = np.array([base ** (self.n - 1 - v) for v in range(self.n)], self._dtype)
        self._unit_codes = self._grade + self._places
        self._var_pos = {name: i for i, name in enumerate(self.variables)}
        self._full, self._zero = self, True
        self._mul_tables = self._shifts = self._horner = None
        self._joins: dict = {}
        self._sets: dict = {}
        self._variables: dict = {}

    def size_at(self, order: int) -> int:
        """Number of multi-indices of total degree <= order (a prefix)."""
        return math.comb(order + self.n, self.n)

    @cached_property
    def _codes(self) -> np.ndarray:
        # the full space's: exponents one variable at a time, then the degree
        base = self.order + 1
        code, deg = np.zeros(1, dtype=self._dtype), np.zeros(1, dtype=np.int64)
        for _ in range(self.n):
            room = base - deg
            run, ramp = _expand(np.zeros_like(room), room)
            code = code[run] * base + ramp.astype(self._dtype)
            deg = deg[run] + ramp
        return np.sort(deg.astype(self._dtype) * self._grade + code)

    def occupying(self, codes: np.ndarray) -> "JetSpace":
        """The space of these variables and order whose jets occupy the
        ascending codes `codes`: the full space if they are all of them."""
        full = self._full
        if len(codes) == full.size:
            return full
        codes = codes.astype(full._dtype, copy=False)
        # Python int codes are keyed by value, not by address
        key = tuple(codes.tolist()) if full._dtype is object else codes.tobytes()
        space = full._sets.get(key)
        if space is None:
            # the full space's variables and code system, none of what it
            # derived from its own codes
            space = full._sets[key] = copy.copy(full)
            space._codes, space.size, space._joins = codes, len(codes), {}
            space._mul_tables = space._shifts = space._horner = None
            space._zero = bool(len(codes)) and codes[0] == 0
        return space

    # ------------------------------------------------------------------ build
    def constant(self, value: float) -> "Jet":
        """`value` as a jet, which occupies code 0 alone."""
        return Jet(self.occupying(np.zeros(1, dtype=self._dtype)), np.array([float(value)]))

    def variable(self, name: str, base: float) -> "Jet":
        """The variable `name` at `base`: code 0 and, from order 1, the code
        of e_name."""
        if name not in self._var_pos:
            raise KeyError(f"{name!r} is not a variable of this space")
        if self.order == 0:
            return self.constant(base)
        space = self._variables.get(name)
        if space is None:
            codes = np.array([0, self._unit_codes[self._var_pos[name]]], dtype=self._dtype)
            space = self._variables[name] = self.occupying(codes)
        return Jet(space, np.array([float(base), 1.0]))

    def _rank(self, codes):
        """The positions of codes among `_codes` (which ascend)."""
        return np.searchsorted(self._codes, codes)

    def stop(self, order):
        """The code after every code of degree <= order (elementwise)."""
        return (order + 1) * self._grade

    def recode(self, codes: np.ndarray, to: "JetSpace") -> np.ndarray:
        """The codes in `to`, a space over these variables or more whose
        order holds their degrees, of the multi-indices with codes `codes`
        here; ascending codes stay ascending."""
        if (to.variables, to.order) == (self.variables, self.order):
            return codes
        digits = codes[:, None] // self._places % (self.order + 1)
        pos = [to._var_pos[v] for v in self.variables]
        return (digits @ to._unit_codes[pos]).astype(to._dtype, copy=False)

    def codes_in(self, to: "JetSpace") -> np.ndarray:
        """These codes in `to` (`recode`)."""
        return self.recode(self._codes, to)

    def join(self, other: "JetSpace"):
        """The space at the union of these codes and those of `other`, a
        space of the same variables and order, and the positions there of
        each; kept in `_joins`."""
        join = self._joins.get(other)
        if join is None:
            space = self.occupying(_distinct(np.concatenate((self._codes, other._codes))))
            join = self._joins[other] = space, space._rank(self._codes), space._rank(other._codes)
        return join

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
        start = np.arange(len(codes))
        i, j = _expand(start, np.maximum(stop - start, 0))
        out = codes[i] + codes[j]
        diag = i == j
        off = ~diag
        return i[off], j[off], out[off], i[diag], out[diag]

    def _listed(self, order: int):
        """The listing of these codes at `order` as `_accumulate` reads it,
        its output codes made positions in the codes it reaches, and the
        space of those codes (the full space itself at its own order, with
        no sort): built once per order, then kept."""
        if self._mul_tables is None:
            self._mul_tables = {}
        got = self._mul_tables.get(order)
        if got is None:
            ia, ib, io, idg, idg_o = self._listing(self._codes, order)
            # at the full space's own order, pair (0, r) reaches each code r
            reach = (self if self is self._full and order == self.order
                     else self.occupying(_distinct(np.concatenate((io, idg_o)))))
            # each off-diagonal pair twice, as (s, r) then (r, s), then the
            # diagonal ones; their outputs, then the diagonal ones'
            listing = (np.concatenate((ib, ia, idg)), np.concatenate((ia, ib, idg)), len(ia),
                       reach._rank(np.concatenate((io, idg_o))))
            got = self._mul_tables[order] = listing, reach
        return got

    @staticmethod
    def _accumulate(a, b, left, right, off: int, out, width: int) -> np.ndarray:
        # the one product kernel, over a term list: off-diagonal pair (r, s)
        # weighs a[r]*b[s] + a[s]*b[r], diagonal pair r weighs a[r]*b[r];
        # each of `width` bins sums its off-diagonal pairs, then its diagonal
        # one (r + r is the code of one r), in list order.  The `off`
        # off-diagonal pairs are listed twice, as (s, r) and as (r, s), so
        # one product gives every term.  A listing (`_listed`) is one term
        # list, and `row_terms` cuts it to the pairs its operands weigh.
        # (rows, n) operands take one list, binned at an offset of r * width
        # for row r (none for row 0, so one row bins as a (size,) operand does).
        bins = width * (len(a) if a.ndim > 1 else 1)
        if not len(out):  # (an empty bincount is of integers)
            return np.zeros(a.shape[:-1] + (width,))
        if bins > width:
            out = (out + np.arange(0, bins, width)[:, None]).ravel()
        w = a.take(left, -1)
        w *= b.take(right, -1)
        np.add(w[..., off:2 * off], w[..., :off], out=w[..., off:2 * off])
        return np.bincount(out, weights=w[..., off:].ravel(),
                           minlength=bins).reshape(a.shape[:-1] + (width,))

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product of coefficient arrays over these codes, over the codes
        their listing at this order reaches (these codes, for the full space):
        row by row for (rows, size) operands, each row the one-row product
        bit for bit (`_accumulate`)."""
        listing, reach = self._listed(self.order)
        return self._accumulate(a, b, *listing, reach.size)

    def product_space(self) -> "JetSpace":
        """The space of the codes `multiply` reaches."""
        return self._listed(self.order)[1]

    @staticmethod
    def _row_blocks(rows: int, terms: int):
        # rows in blocks of SPARSE_PAIR_COST ** 2 product terms at most
        step = max(1, SPARSE_PAIR_COST ** 2 // max(1, terms))
        return [slice(r0, r0 + step) for r0 in range(0, rows, step)]

    def row_terms(self, cols: np.ndarray, live_a: np.ndarray, live_b: np.ndarray, order: int):
        """The term lists of `multiply_rows` at the ascending codes `cols`
        and `order` for operands whose nonzeros are the (rows, len(cols))
        masks live_a and live_b: per block of rows of the listing's product,
        its rows and its term list, or None where the block reads the
        listing.  Row r of a block keeps each pair of the listing that it
        weighs with two nonzero factors (an off-diagonal pair where one of
        its halves has them, a diagonal pair where its factor is nonzero), in
        listing order, and the block's list is its rows' laid end to end, as
        `_accumulate` reads it: int32 positions in the rows laid end to end
        and in their bins, and the number of bins.  Every other pair weighs
        +-0.0, and a bin, which starts at +0.0, keeps its bits when one is
        added, so the lists give the listing's product to the bit for any
        operands with these masks (or fewer nonzeros).  A block whose rows
        keep more than a third of their terms reads the listing: a list
        would save it little time for the memory it holds.  The masks are
        read through the gathers of the listing's product, block by block,
        so the lists cost about one product."""
        (left, right, off, out), reach = self.occupying(cols)._listed(order)
        n, width = len(cols), reach.size
        lists = []
        for rows in self._row_blocks(len(live_a), len(left)):
            kept = live_a[rows].take(left, -1) & live_b[rows].take(right, -1)
            r, pair = np.nonzero(kept[:, :off] | kept[:, off:2 * off])
            rd, diag = np.nonzero(kept[:, 2 * off:])
            if 3 * (2 * len(pair) + len(diag)) > kept.size:
                lists.append((rows, None))
                continue
            at = np.concatenate((pair, pair + off, diag + 2 * off))
            shift = np.concatenate((r, r, rd)) * n
            lists.append((rows, ((left[at] + shift).astype(np.int32),
                                 (right[at] + shift).astype(np.int32), len(pair),
                                 (out[np.concatenate((pair, diag + off))]
                                  + np.concatenate((r, rd)) * width).astype(np.int32),
                                 len(kept) * width)))
        return lists

    def multiply_rows(self, cols: np.ndarray, a: np.ndarray, b: np.ndarray, order: int,
                      terms=None):
        """Products of (rows, len(cols)) operands at the ascending codes
        `cols`, truncated at `order`.

        Returns the ascending codes `out` the listing of `cols` reaches and
        the (rows, len(out)) sums there: row r, put at `out` in a row of
        zeros of the space of that order, is `multiply` there of row r of a
        and of b, so put, bit for bit.  The product reads `terms`, the term
        lists `row_terms` made for masks that hold a's and b's nonzeros, or
        by default the whole listing, its rows in blocks of
        SPARSE_PAIR_COST ** 2 product terms (an off-diagonal pair is two).
        A non-finite operand raises NonFiniteError.
        """
        if not (_finite(a) and _finite(b)):
            raise NonFiniteError("non-finite coefficients in the curvature jets")
        listing, reach = self.occupying(cols)._listed(order)
        if terms is None:
            terms = [(rows, None) for rows in self._row_blocks(len(a), len(listing[0]))]
        sums = np.empty((len(a), reach.size))
        for rows, kept in terms:
            if kept is None:  # each row at its own bins
                sums[rows] = self._accumulate(a[rows], b[rows], *listing, reach.size)
            else:  # the rows laid end to end, as the list reads them
                block = sums[rows]
                block[...] = self._accumulate(a[rows].ravel(), b[rows].ravel(),
                                              *kept).reshape(block.shape)
        return reach._codes, sums

    def product_cols(self, cols: np.ndarray, order: int) -> np.ndarray:
        """The codes `multiply_rows` returns for operands at the codes `cols`."""
        return self.occupying(cols)._listed(order)[1]._codes

    def horner(self):
        """The products of `series_rows` over these codes, which hold code 0,
        acc * nil from the first to the last: the space at the union of the
        codes acc reaches and these, with the positions there of acc and of
        these (None where they are its codes as they are); then the space
        of the codes the last reaches.  Built once, then kept in `_horner`."""
        if self._horner is None:
            levels, acc = [], self
            for _ in range(self.order - 1):
                u, at_a, at_b = acc.join(self)
                levels.append((u, None if u is acc else at_a, None if u is self else at_b))
                acc = u.product_space()
            self._horner = levels, acc
        return self._horner

    def series_rows(self, nil: np.ndarray, coeffs: Sequence[Sequence[float]]):
        """Horner's sum of coeffs[r][j] * nil[r]^j over j for each row r:
        nil is (rows, size) over these codes, which hold code 0, with 0 at
        code 0, and coeffs[r] the order + 1 floats of row r.  Returns the
        space of the codes reached (`horner`) and the (rows, its size) sums,
        each row the one-row sum bit for bit.  The first product, by
        coeffs[r][order], is a scalar one; each later one is a `multiply`
        over the union of the codes the sum reaches and these."""
        levels, reach = self.horner()
        k = self.order
        acc = np.empty_like(nil)
        for r, c in enumerate(coeffs):
            acc[r] = nil[r] * c[k] + 0.0
            acc[r, 0] += c[k - 1]
        wide_u = None  # nil at the codes of the last union, kept while it stays
        for j, (u, at_a, at_b) in zip(range(k - 2, -1, -1), levels):
            if at_a is not None:
                a, acc = acc, np.zeros((len(acc), u.size))
                acc[:, at_a] = a
            if u is not wide_u:
                wide_u, wide = u, nil
                if at_b is not None:
                    wide = np.zeros((len(nil), u.size))
                    wide[:, at_b] = nil
            acc = u.multiply(acc, wide)
            for r, c in enumerate(coeffs):
                acc[r, 0] += c[j]
        return reach, acc

    def deriv_cols(self, cols: np.ndarray):
        """Differentiation at the ascending codes `cols`: the codes m - e_v
        that codes m of `cols` with m_v > 0 go to, over every v, ascending;
        and for each variable v and each of those codes r, the position in
        `cols` of r + e_v and its exponent of v as a float, or len(cols) and
        0.0 where r + e_v is not in `cols`.  A last row holds len(cols) and
        0.0 throughout, for no derivative.  Kept on the code set `cols`."""
        space = self.occupying(cols)
        if space._shifts is None:
            digit = cols // self._places[:, None] % (self.order + 1)
            var, at = np.nonzero(digit > 0)
            to = cols[at] - self._unit_codes[var]
            codes = _distinct(to)
            pos = np.full((self.n + 1, len(codes)), len(cols))
            fac = np.zeros((self.n + 1, len(codes)))
            to = np.searchsorted(codes, to)
            pos[var, to], fac[var, to] = at, digit[var, at]
            space._shifts = codes, pos, fac
        return space._shifts


def _expand(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs given by start and length: each member's run, and its position."""
    run = np.arange(len(length)).repeat(length)
    return run, np.arange(len(run)) + (start + length - length.cumsum())[run]


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct entries of `x`, ascending (`np.unique` would import
    numpy.ma)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


class Jet:
    """Truncated Taylor expansion over a :class:`JetSpace`.

    `coef[i]` is d^m f(base) / m! at the multi-index m of the space's i-th
    code, and every multi-index the space does not occupy holds 0.  A jet is
    a value with no arithmetic of its own: `expr.eval_jet` computes jets,
    and the curvature stages compute them many at a time.
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
        return float(self.coef[0]) if self.space._zero else 0.0

    def is_zero(self) -> bool:
        return not self.coef.any()

    def codes_in(self, space: JetSpace) -> np.ndarray:
        """The codes in `space` of the multi-indices of `coef` (`recode`)."""
        return self.space.codes_in(space)

    def extract(self, m: Sequence[int]) -> float:
        """The partial derivative d^m f(base) (coefficient times m!)."""
        m = tuple(int(x) for x in m)
        if len(m) != self.space.n:
            raise JetMismatchError(f"multi-index {m} has wrong length for {self.variables}")
        if any(x < 0 for x in m):
            raise JetOrderError(f"negative entry in multi-index {m}")
        if sum(m) > self.order:
            raise JetOrderError(f"|{m}| exceeds truncation order {self.order}")
        code, space = m @ self.space._unit_codes, self.space
        at = space._rank(code)
        if at == space.size or space._codes[at] != code:
            return 0.0
        fact = 1.0
        for x in m:
            fact *= math.factorial(x)
        return float(self.coef[at] * fact)

    def __repr__(self):
        return f"Jet(vars={self.variables}, order={self.order}, value={self.value()!r})"
