"""Curvature of a metric at a point, to any requested covariant order.

Everything is computed through truncated Taylor jets in the coordinates the
metric actually depends on.  A `CurvatureContext` fixes a metric, a base
point, and `max_deriv`; it then carries jets of total order

    metric            max_deriv + 2
    Christoffel       max_deriv + 1
    curvature level k max_deriv - k      (level k = k-th covariant derivative)

so the level-k components still hold enough derivative information to feed
level k + 1.  Truncating both factors of a product to the output order first
is exact, because multiplication never moves low-order coefficients up.

A level is sparse: one coefficient matrix with a row per component that can
be nonzero, keyed by canonical index tuples (i < j in slots 0, 1 and k < l in
slots 2, 3), and missing keys are exact zeros.  It reads as a dictionary
from index tuple to jet (a view of the row).  Every level is antisymmetric
in both pairs, so any other tuple is a canonical one's value times an exact
sign, or exactly 0 where a pair repeats an index (`_canonical`); the level
steps look their Christoffel terms up that way, and the point-value views
expand each canonical row into its four images.  Support is propagated level
to level (a new nonzero needs either a derivative of an old one or a
Christoffel hook into one), and an exhaustive evaluator over every canonical
tuple is kept alongside as a slow cross-check.  A level's rows ascend by
canonical tuple, read as a base-dim number, and its point-value view follows
that order, each row with its three images.  Row order fixes no value: a
component's jet sums its own terms in their own order.  Every sum of
jets in the context (Neumann inverse, Christoffel symbols, level 0, level
steps) is one ordered step, `_ordered_sum`: terms from row-batched products
and derivative shifts (vector-mode Taylor propagation: Griewank and Walther,
Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), added in the order of a
loop over them by one `np.bincount` per block, whose rows are ranked without
a sort, so every coefficient is that loop's to the last bit, up to the sign
of a zero.

Each matrix keeps its truncation order and only its live columns: the
packed codes (`jets`) of the context's one jet space, of the top order,
where some row is nonzero (38 of 19,448 for the inverse at p = 5 in the
family).  All arithmetic runs on those columns: a product lists the pairs
of its operands' joint columns, a derivative sends code m to m - code(e_v),
and truncation keeps a prefix of the columns.  A sum's columns are known
before it runs, from those of its terms.  A metric entry's jet is taken over
its own coordinates, and a row is made dense only when a read-out asks for it.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .jets import SPARSE_PAIR_COST, Jet, JetOrderError, NonFiniteError, _distinct, jet_space
from . import expr as ex
from .metric import MetricSpec

__all__ = [
    "CurvatureContext",
    "Christoffels",
    "TensorField",
    "christoffel_terms",
    "DegeneratePlaneError",
    "jacobi_operator",
    "skew_curvature_operator",
    "DENSE_CAP",
]

DENSE_CAP = 10_000_000
_EXHAUSTIVE_CAP = 2_000_000  # index tuples `level_exhaustive` may enumerate
_PLANE_TOL = 1e-12  # relative size below which `_plane_basis` calls a form zero


class DegeneratePlaneError(ValueError):
    """The requested 2-plane is degenerate for the metric at the point."""


@dataclass(frozen=True)
class Christoffels:
    """Point values of both Christoffel kinds; keys (a, b, c), zeros omitted.

    `first[(a, b, c)]` lowers all indices; `second[(a, b, c)]` has upper c.
    """

    dim: int
    first: Mapping[tuple[int, int, int], float]
    second: Mapping[tuple[int, int, int], float]


@dataclass(frozen=True, eq=False)
class TensorField:
    """Point values of a level-k curvature tensor (4 + k lower slots).

    Row r of `index` is the index tuple of the r-th nonzero component and
    `values[r]` its value; zeros are omitted.  Rows come in fours, one per
    nonzero canonical component, ascending by canonical tuple: (i, j, k, l,
    ...), then its images (j, i, k, l, ...) and (i, j, l, k, ...) with the
    value negated and (j, i, l, k, ...) with it copied.
    """

    dim: int
    level: int
    index: np.ndarray  # (nnz, 4 + level) ints
    values: np.ndarray  # (nnz,) floats

    @property
    def rank(self) -> int:
        return 4 + self.level

    @property
    def components(self) -> dict[tuple[int, ...], float]:
        return dict(zip(zip(*self.index.T.tolist()), self.values.tolist()))

    def dense(self) -> np.ndarray:
        n = self.dim ** self.rank
        if n > DENSE_CAP:
            raise ValueError(f"dense tensor would hold {n} entries, cap is {DENSE_CAP}")
        out = np.zeros((self.dim,) * self.rank)
        out[tuple(self.index.T)] = self.values
        return out


ChristoffelTerms = dict[tuple[int, int, int], tuple[tuple[int, tuple[int, int], float], ...]]


def christoffel_terms(spec: MetricSpec) -> ChristoffelTerms:
    """First-kind Christoffel symbols of `spec` that can be nonzero, as sums.

    Gamma_abc = 1/2 (d_a g_bc + d_b g_ac - d_c g_ab).  Keys (a, b, c) come in
    sorted order; each maps to its terms (v, (i, j), h), meaning h d_v g_ij
    with i <= j, keeping only the terms whose g_ij depends on coordinate v.
    Dependence is symbolic (`MetricSpec.entry_vars`), so it holds at every
    point.
    """
    deps: dict[tuple[int, int], frozenset[int]] = {}
    for (i, j), names in spec.entry_vars.items():
        deps[(i, j)] = deps[(j, i)] = frozenset(map(spec.coords.index, names))
    keys: set[tuple[int, int, int]] = set()
    for (i, j), vs in deps.items():
        for v in vs:
            keys.update(((v, i, j), (i, v, j), (i, j, v)))
    out: ChristoffelTerms = {}
    for a, b, c in sorted(keys):
        terms = tuple(
            (v, (min(pair), max(pair)), h)
            for v, pair, h in ((a, (b, c), 0.5), (b, (a, c), 0.5), (c, (a, b), -0.5))
            if v in deps.get(pair, ())
        )
        # a == c or b == c can leave one derivative twice, with opposite signs
        if len({t[:2] for t in terms}) > 1 or sum(t[2] for t in terms):
            out[(a, b, c)] = terms
    return out


def _contract(
    view: TensorField,
    factors: Sequence[tuple[tuple[int, ...], np.ndarray]],
    out_slots: tuple[int, ...] = (),
) -> np.ndarray:
    """Sum of value * f_1 * ... * f_n over the components of `view`, binned
    by their indices in `out_slots` (one output axis per out slot).

    A factor (slots, a) reads `a` at the component's indices in `slots`.
    Each term is the value times the factors in the order given, and
    `np.bincount` adds the terms in row order, as a loop over the components
    would, so the sums are those of that loop bit for bit.  A factor may
    stack arrays along leading axes (every stacked factor the same stack);
    the result then stacks the sums, each that of the factors' arrays at
    its place, in the same one `np.bincount`, whose bins are offset by the
    place.
    """
    w = view.values
    for slots, a in factors:
        w = w * np.asarray(a, dtype=float)[(...,) + tuple(view.index[:, s] for s in slots)]
    lead = w.shape[:-1]
    bins = np.arange(math.prod(lead))[:, None] + np.zeros(len(view.values), dtype=np.intp)
    for s in out_slots:
        bins = bins * view.dim + view.index[:, s]
    return np.bincount(bins.ravel(), weights=w.ravel(),
                       minlength=len(bins) * view.dim ** len(out_slots)).reshape(
        lead + (view.dim,) * len(out_slots))


# the slot orders of a canonical tuple's four images, and their signs
_IMAGES = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]])
_IMAGE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _canonical(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `idx`, index tuples, with slots (0, 1) and (2, 3) each
    sorted, and the sign that takes a level's value there to its value at
    the row: -1 per swapped pair, 0 where a pair repeats an index."""
    a, b, out = idx[:, 0:4:2], idx[:, 1:4:2], idx.copy()
    out[:, 0:4:2], out[:, 1:4:2] = np.minimum(a, b), np.maximum(a, b)
    return out, np.sign((idx[:, 1] - idx[:, 0]) * (idx[:, 3] - idx[:, 2]))


def _images(index: np.ndarray) -> np.ndarray:
    """Each canonical row of `index` followed by its three images."""
    out = index.repeat(4, axis=0)
    out[:, :4] = index[:, _IMAGES].reshape(-1, 4)
    return out


def _runs(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order of `key` (values below n), with the start and the
    length of each value's run in it."""
    length = np.bincount(key, minlength=n)
    return key.argsort(kind="stable"), length.cumsum() - length, length


def _expand(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs given by start and length: each member's run, and its position."""
    run = np.arange(len(length)).repeat(length)
    return run, np.arange(len(run)) + (start + length - length.cumsum())[run]


@lru_cache(maxsize=None)
def _digit_weights(dim: int, r: int) -> np.ndarray:
    """Weights that read an r-index tuple as one base-dim number (Python
    ints where int64 would overflow); one read-only array per (dim, r)."""
    wide = np.int64 if dim ** r < 2 ** 63 else object
    out = np.array([dim ** (r - 1 - s) for s in range(r)], dtype=wide)
    out.setflags(write=False)
    return out


class _Jets(Mapping):
    """Jets of truncation order `order` by index tuple, zero rows left out:
    row r of `index` is a key, and row r of `vals` its jet's coefficients at
    `cols`, the ascending codes of `space` where some row is nonzero.  A
    non-finite coefficient raises NonFiniteError.  A key's jet is built
    dense, of `order`, by `JetSpace.jet_at` when read, and no other row is."""

    def __init__(self, index: np.ndarray, cols: np.ndarray, vals: np.ndarray, space, order: int):
        if not np.isfinite(vals).all():
            raise NonFiniteError("non-finite coefficients in the curvature jets")
        live = vals != 0.0
        keep, used = live.any(axis=1), live.any(axis=0)
        if not keep.all():
            index, vals = index[keep], vals[keep]
        if not used.all():
            cols, vals = cols[used], vals[:, used]
        self.index, self.cols, self.vals, self.space, self.order = index, cols, vals, space, order

    @cached_property
    def _row(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(tuple, self.index.tolist()), range(len(self.index))))

    def __getitem__(self, key) -> Jet:
        return self.space.jet_at(self.cols, self.vals[self._row[key]], self.order)

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self.index)

    def at_point(self) -> np.ndarray:
        """The order-0 coefficients: the column of code 0."""
        return self.vals[:, 0] if self.cols[:1].tolist() == [0] else np.zeros(len(self.vals))

    def cut(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """The columns and values truncated to `order`: a prefix of the columns."""
        n = self.cols.searchsorted(self.space.stop(order))
        return self.cols[:n], self.vals[:, :n]

    @cached_property
    def _shifts(self):
        # `deriv_cols` at `cols`, and `vals` with a zero column last, which
        # its position len(cols) picks
        codes, pos, fac = self.space.deriv_cols(self.cols)
        return codes, pos, fac, np.column_stack((self.vals, np.zeros(len(self.vals))))

    def derivs(self, rows: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes where a derivative can be nonzero, and there row rows[n]
        differentiated by variable var[n] as `Jet.deriv` does, 0 where it is -1."""
        codes, pos, fac, padded = self._shifts
        return codes, padded[rows[:, None], pos[var]] * fac[var]


def _widen(cols: np.ndarray, vals: np.ndarray, to: np.ndarray) -> np.ndarray:
    """`vals`, at the ascending codes `cols`, put at their places among the
    ascending codes `to`, a superset, with zeros elsewhere."""
    if len(cols) == len(to):
        return vals
    out = np.zeros((len(vals), len(to)))
    out[:, to.searchsorted(cols)] = vals
    return out


def _joint(*mats: tuple[np.ndarray, np.ndarray], also: tuple[np.ndarray, ...] = ()):
    """Matrices given as (columns, values), put at the union of their
    columns and those of `also`, all ascending codes: that union, and the
    matrices there."""
    cols = [c for c, _ in mats] + list(also)
    if not all(np.array_equal(c, cols[0]) for c in cols[1:]):
        cols = [_distinct(np.concatenate(cols))]
    return cols[0], [_widen(c, v, cols[0]) for c, v in mats]


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code's place among the distinct codes in order of first
    appearance, and the distinct codes in that order."""
    by_code = codes.argsort(kind="stable")
    new = np.ones(len(codes), dtype=bool)
    new[1:] = codes[by_code[1:]] != codes[by_code[:-1]]
    first = by_code[new]
    order = first.argsort()
    place = np.empty(len(codes), dtype=np.intp)
    place[by_code] = order.argsort()[new.cumsum() - 1]
    return place, codes[first[order]]


def _decode(codes: np.ndarray, dim: int, r: int) -> np.ndarray:
    """The r-index tuples below dim that `codes` read as base-dim numbers."""
    return (codes.reshape(-1, 1) // _digit_weights(dim, r) % dim).astype(np.intp, copy=False)


def _canonical_rows(idx: np.ndarray, dim: int) -> np.ndarray:
    """The distinct canonical forms of the rows of `idx`, index tuples below
    dim, ascending, but those where a pair repeats an index."""
    idx, sign = _canonical(idx)
    r = idx.shape[1]
    return _decode(_distinct(idx[sign != 0] @ _digit_weights(dim, r)), dim, r)


def _ordered_sum(cols: np.ndarray, acc: np.ndarray, row: np.ndarray, terms, sign: int = 1,
                 started=None) -> None:
    """Add term t, of the terms that `terms(ts)` gives for the slice ts as
    (ascending codes, values there), to row[t] of `acc`, a matrix at the
    codes `cols` that hold every term's, each row in the order of `row` as
    `acc = acc + term` (`acc - term` for sign -1) would: a `started` row
    goes on from what `acc` holds, any other begins with its first term, or
    minus it.  A block of terms, SPARSE_PAIR_COST ** 2 coefficients at most
    to bound the temporaries, is one `np.bincount` over bins (row, column):
    first what `acc` holds at the rows that have begun, then the terms in
    order, negated for sign -1 (a - b is a + -b exactly).  It adds in input
    order from +0.0, so every coefficient is the loop's, but for the sign
    of a zero: a row that would hold -0.0 alone holds +0.0.  A block's rows
    are ranked without a sort: each term writes its position at its row of
    `place`, the terms that read theirs back (one a row) name the distinct
    rows, and their ranks are then written there."""
    held = np.zeros(len(acc), dtype=bool) if started is None else started.copy()
    place = np.empty(len(acc), dtype=np.intp)
    width = len(cols)
    cells = np.arange(width)
    step = max(1, SPARSE_PAIR_COST ** 2 // max(1, width))
    for t0 in range(0, len(row), step):
        ts = slice(t0, t0 + step)
        r = row[ts]
        n = np.arange(len(r))
        place[r] = n
        rows = r[place[r] == n]
        place[rows] = n[:len(rows)]
        carry = held[rows].nonzero()[0]
        vals = _widen(*terms(ts), cols)
        w = np.concatenate((acc[rows[carry]], -vals if sign < 0 else vals))
        bins = np.concatenate((carry, place[r]))[:, None] * width + cells
        acc[rows] = np.bincount(bins.ravel(), weights=w.ravel(),
                                minlength=len(rows) * width).reshape(len(rows), width)
        held[rows] = True


class CurvatureContext:
    """Jets of the curvature hierarchy of `spec` at `point`.

    `max_deriv` is the highest covariant-derivative level that can be read
    out of this context; asking beyond it raises JetOrderError.
    """

    def __init__(self, spec: MetricSpec, point: Sequence[float], max_deriv: int = 0):
        if max_deriv < 0:
            raise ValueError("max_deriv must be >= 0")
        spec.validate_at(point)
        self.spec = spec
        self.point = tuple(float(v) for v in point)
        self.max_deriv = int(max_deriv)
        self.order = self.max_deriv + 2
        self.dim = spec.dim
        self.coords = spec.coords

        self.active = spec.active_vars
        self.act_idx = tuple(self.coords.index(v) for v in self.active)
        self._space = jet_space(self.active, self.order)
        self._act_pos = np.full(self.dim, -1)
        self._act_pos[list(self.act_idx)] = np.arange(len(self.act_idx))

        # metric jets: the upper triangle row by row as `_g_rows`, and the
        # row of each index pair in both orders as `_g_row`
        self._g_rows = self._metric_rows(spec.env_at(point))
        self._g_row = np.full((self.dim, self.dim), -1)
        for r, (i, j) in enumerate(self._g_rows.index.tolist()):
            self._g_row[i, j] = self._g_row[j, i] = r

        # constant part taken from the jets themselves so that the Neumann
        # inverse is exact against them, not against a reevaluation
        self.g0 = np.where(self._g_row >= 0, self._g_rows.at_point()[self._g_row], 0.0)
        # g^-1 on its structural pattern (`MetricSpec.structure`), exact 0 off
        # it, where LAPACK may leave roundoff
        h0 = np.linalg.inv(self.g0)
        self.ginv0 = np.where(spec.structure[0], 0.5 * (h0 + h0.T), 0.0)

        with np.errstate(all="ignore"):  # a non-finite result raises in `_Jets`
            self._ginv = self._neumann_inverse()
            self._gamma1 = self._christoffel_first()
            self._gamma1_row = np.full((self.dim,) * 3, -1)
            self._gamma1_row[tuple(self._gamma1.index.T)] = np.arange(len(self._gamma1))
            self._gamma2 = self._christoffel_second()

        # hooks for covariant-derivative terms: the rows of `_gamma2` as
        # runs grouped stably by lower pair a * dim + b (`_fwd_*`, with the
        # upper index and the row of each) and by upper index c (`_rev_*`)
        keys = self._gamma2.index
        self._fwd_row, self._fwd_start, self._fwd_len = _runs(keys[:, 0] * self.dim + keys[:, 1],
                                                              self.dim ** 2)
        self._fwd_upper = keys[self._fwd_row, 2]
        rev, self._rev_start, self._rev_len = _runs(keys[:, 2], self.dim)
        self._rev_lower = keys[rev, :2]

        self._levels: list[_Jets] = []
        self._views: dict[int, TensorField] = {}

    # ------------------------------------------------------------ plumbing
    def _metric_rows(self, env) -> _Jets:
        """The metric jets of the upper triangle row by row, zeros left out:
        each entry's jet over its own coordinates, its nonzeros put at their
        codes here.  Identical entries (expression and coordinates) are
        evaluated once."""
        rows, evaluated = [], {}
        # not empty: `validate_at` has ruled out a zero metric
        for (i, j), names in self.spec.entry_vars.items():
            key = (self.spec.components[i][j], names)
            if key not in evaluated:
                evaluated[key] = ex.eval_jet(key[0], env, names, self.order)
            jet = evaluated[key]
            nz = np.flatnonzero(jet.coef)
            rows.append((self._space.codes_of(jet.space)[nz], jet.coef[None, nz]))
        cols, vals = _joint(*rows)
        return _Jets(np.array(list(self.spec.entry_vars), dtype=np.intp), cols,
                     np.concatenate(vals), self._space, self.order)

    def _neumann_inverse(self) -> _Jets:
        """Inverse-metric jets at full order.

        With g = g0 + N and N free of constant term, N is nilpotent in the
        truncated algebra, so `order` sweeps of S <- h0 - h0 N S land on the
        exact truncated inverse.  A sweep sums t = N S over b ascending, then
        S from h0 (or from nothing) less h0 t in the order t's entries arise:
        one `multiply_rows` of all the pairs (N_ab, S_bc), then two ordered
        sums.  The rows each term reads, where it adds and its h0 weight
        depend on the keys of S only, and are planned again when those change.

        h0 is `ginv0`, which is exact 0 off g^-1's structural pattern
        (`MetricSpec.structure`).  `np.linalg.inv` often leaves about 1e-17
        at a structural zero; through the sweeps it would fill the inverse
        jets (at p = 5 in the family, 16,445 of 19,448 coefficients where 38
        are nonzero), and every product with them would be dense.  Every
        coefficient the sweeps leave is kept: the seed alone decides the
        inverse's zeros.
        """
        m, h0 = self.dim, self.ginv0
        space = self._space
        g = self._g_rows
        # N's entries (a, b): each upper metric entry with a nonconstant
        # part, as (i, j) and then (j, i), with their rows of `nil`
        live = g.vals[:, 1:].any(axis=1)  # code 0 is column 0: g0 is not zero
        nil = g.vals[live]
        nil[:, 0] = 0.0
        nil = (g.cols, nil)
        src, nil_a, nil_b = np.array(
            [(r, *pair) for r, (i, j) in enumerate(g.index[live].tolist())
             for pair in dict.fromkeys([(i, j), (j, i)])], dtype=np.intp).reshape(-1, 3).T
        # S and t as rows keyed a * m + b; S starts from h0, at code 0
        base = np.flatnonzero(h0)
        seed = h0.flat[base]
        keys, s_cols, s, stale = base, np.zeros(1, dtype=np.intp), seed[:, None], True
        for _ in range(self.order):
            if stale:  # the terms of a sweep depend on the keys of S only
                pos = np.full((m, m), -1)
                pos.flat[keys] = np.arange(len(keys))
                at, c = np.nonzero(pos[nil_b] >= 0)
                t_row, t_keys = _first_seen(nil_a[at] * m + c)
                ta, tc = np.divmod(t_keys, m)
                tr, i = np.nonzero(h0[:, ta].T != 0.0)
                s_row, new = _first_seen(np.concatenate((base, i * m + tc[tr])))
                left_row, right_row, weight = src[at], pos[nil_b[at], c], h0[i, ta[tr], None]
                s_row, started = s_row[len(base):], np.arange(len(new)) < len(base)
                stale, keys = not np.array_equal(new, keys), new
            cols, (left, right) = _joint(nil, (s_cols, s))
            t_cols, prods = space.multiply_rows(cols, left[left_row], right[right_row], self.order)
            t = np.empty((len(t_keys), len(t_cols)))
            _ordered_sum(t_cols, t, t_row, lambda ts: (t_cols, prods[ts]))
            # code 0 is in `cols`, so in `t_cols`: h0 goes to column 0
            last_cols, last, s_cols = s_cols, s, t_cols
            s = np.zeros((len(new), len(s_cols)))
            s[: len(base), 0] = seed
            _ordered_sum(s_cols, s, s_row, lambda ts: (t_cols, t[tr[ts]] * weight[ts]), -1, started)
            used = (s != 0.0).any(axis=0)
            if not used.all():
                s_cols, s = s_cols[used], s[:, used]
            # a sweep that repeats the last to the bit is a fixed point
            if (not stale and np.array_equal(s_cols, last_cols)
                    and np.array_equal(s.view(np.int64), last.view(np.int64))):
                break
        return _Jets(np.column_stack(np.divmod(keys, m)), s_cols, s, space, self.order)

    def _christoffel_first(self) -> _Jets:
        """Gamma_abc as the sums of `christoffel_terms`, in their order."""
        terms = [(key, self._g_row[pair], self._act_pos[v], h)
                 for key, sums in christoffel_terms(self.spec).items()
                 for v, pair, h in sums if self._g_row[pair] >= 0]
        weights = _digit_weights(self.dim, 3)
        keys = np.array([t[0] for t in terms], dtype=np.intp).reshape(-1, 3)
        row, keys = _first_seen(keys @ weights)
        g, var = np.array([t[1:3] for t in terms], dtype=np.intp).reshape(-1, 2).T
        h = np.array([t[3] for t in terms])
        cols = self._g_rows._shifts[0]
        acc = np.empty((len(keys), len(cols)))
        _ordered_sum(cols, acc, row, lambda ts: (
            cols, self._g_rows.derivs(g[ts], var[ts])[1] * h[ts, None]))
        return _Jets(_decode(keys, self.dim, 3), cols, acc, self._space, self.order - 1)

    def _christoffel_second(self) -> _Jets:
        """Gamma_ab^c = sum over d of ginv^cd Gamma_abd, summed key by key
        of `_gamma1` and then over the inverse's column d in its order."""
        g1, ginv = self._gamma1, self._ginv
        space, order = self._space, self.order - 1
        by_col, start, length = _runs(ginv.index[:, 1], self.dim)
        at, h = _expand(start[g1.index[:, 2]], length[g1.index[:, 2]])
        h = by_col[h]
        weights = _digit_weights(self.dim, 3)
        row, keys = _first_seen(np.column_stack((g1.index[at, :2], ginv.index[h, 0])) @ weights)
        cols, (left, right) = _joint(ginv.cut(order), (g1.cols, g1.vals))
        out = space.product_cols(cols, order)
        acc = np.empty((len(keys), len(out)))
        _ordered_sum(out, acc, row, lambda ts: space.multiply_rows(
            cols, left[h[ts]], right[at[ts]], order))
        return _Jets(_decode(keys, self.dim, 3), out, acc, space, order)

    # ------------------------------------------------------------ curvature
    def _riemann_candidates(self) -> np.ndarray:
        """Canonical index tuples a level-0 component can be nonzero at,
        ascending (`_canonical_rows`): the canonical forms of the tuples
        (i, q, k, l) that a Christoffel hook Gamma_qk^m reaches by its
        derivative or product term, but those with i = q or k = l."""
        q, k, m_ = self._gamma2.index.T
        act = np.array(self.act_idx, dtype=np.intp)
        # the derivative terms' hooks and (i, l), then the product terms'
        hd, ld = (self._g_row[m_] >= 0).nonzero()
        hp, ip, lp = (self._gamma1_row[:, m_].transpose(1, 0, 2) >= 0).nonzero()
        h = np.concatenate((hd.repeat(len(act)), hp))
        i = np.concatenate((np.tile(act, len(hd)), ip))
        l = np.concatenate((ld.repeat(len(act)), lp))
        return _canonical_rows(np.column_stack((i, q[h], k[h], l)), self.dim)

    def _riemann_jets(self, idx: np.ndarray) -> _Jets:
        """Level-0 jets at the canonical tuples `idx` (rows), zeros left out, by
        blocks (`_riemann_block`) of candidates and their swaps (j, i, k, l)."""
        order = self.order - 2
        # the factors of the edge products at their joint columns: d_i
        # Gamma_jk^m or Gamma_jk^m on the left, g_ml or Gamma_iml on the right
        cols, factors = _joint(self._gamma2.cut(order), self._g_rows.cut(order),
                               self._gamma1.cut(order), also=(self._gamma2._shifts[0],))
        out = self._space.product_cols(cols, order)
        step = max(1, SPARSE_PAIR_COST ** 2 // max(1, len(out)))
        coefs = [np.zeros((0, len(out)))] + [
            self._riemann_block(np.stack((b, b[:, [1, 0, 2, 3]])), order, cols, factors, out)
            for b in (idx[c0:c0 + step] for c0 in range(0, len(idx), step))]
        return _Jets(idx, out, np.concatenate(coefs), self._space, order)

    def _riemann_block(self, edges, order: int, cols, factors, out):
        """R(i, j, k, l) = edge(i, j, k, l) - edge(j, i, k, l) at the block
        whose (i, j, k, l) and (j, i, k, l) are `edges[0]` and `edges[1]`:
        the candidates' jets at the codes `out`, zero rows kept.  An edge
        sums over the hooks m of (j, k) in `_gamma2` order (d_i Gamma_jk^m)
        g_ml and then Gamma_jk^m Gamma_iml.  `factors` holds Gamma_jk^m,
        g_ml and Gamma_iml at `cols`, the joint columns of the edge
        products, which are truncated at `order`."""
        i, j, k, l = edges.reshape(-1, 4).T
        at, hook = _expand(self._fwd_start[j * self.dim + k], self._fwd_len[j * self.dim + k])
        m_, i, l = self._fwd_upper[hook], i[at], l[at]
        # per hook the derivative term, then the product term, -1 if absent
        right = np.stack((np.where(self._act_pos[i] >= 0, self._g_row[m_, l], -1),
                          self._gamma1_row[i, m_, l]), axis=1).ravel()
        t = (right >= 0).nonzero()[0]
        deriv, right, at, hook = t % 2 == 0, right[t], at[t // 2], self._fwd_row[hook[t // 2]]
        var = self._act_pos[i[t // 2]]
        live = np.bincount(at, minlength=len(j)) > 0
        row_of = np.where(live, live.cumsum() - 1, -1)
        g2, g, g1 = factors

        def products(ts):
            d, h, r = deriv[ts], hook[ts], right[ts]
            left = _widen(*self._gamma2.derivs(h, np.where(d, var[ts], -1)), cols)
            left[~d] = g2[h[~d]]
            other = np.empty_like(left)
            other[d] = g[r[d]]
            other[~d] = g1[r[~d]]
            return self._space.multiply_rows(cols, left, other, order)

        edge = np.empty((int(live.sum()), len(out)))
        _ordered_sum(out, edge, row_of[at], products)
        a, b = row_of.reshape(2, -1)
        acc = np.zeros((len(a), len(out)))
        acc[a >= 0] = edge[a[a >= 0]]
        minus = (b >= 0).nonzero()[0]
        _ordered_sum(out, acc, minus, lambda ts: (out, edge[b[minus[ts]]]), -1, a >= 0)
        return acc

    def _nabla_step(self, prev: _Jets, ord_out: int) -> _Jets:
        return self._nabla_jets(prev, self._nabla_candidates(prev.index), ord_out)

    def _nabla_candidates(self, index: np.ndarray) -> np.ndarray:
        """Canonical index tuples the level after the one keyed by `index`
        (canonical tuples) can be nonzero at, ascending (`_canonical_rows`):
        a key with a derivative slot appended, or the canonical form of a key
        with one slot moved along a Christoffel hook and the hook's lower
        index appended, unless a pair repeats an index."""
        n, r = index.shape
        act = np.array(self.act_idx, dtype=np.intp)
        # the hooks of each (key, slot) pair
        at, h = _expand(self._rev_start[index].ravel(), self._rev_len[index].ravel())
        hooked, s = np.divmod(at, r)
        key = np.concatenate((np.arange(n).repeat(len(act)), hooked))
        last = np.concatenate((np.tile(act, n), self._rev_lower[h, 0]))
        cand = np.concatenate((index[key], last[:, None]), axis=1)
        cand[n * len(act) + np.arange(len(at)), s] = self._rev_lower[h, 1]
        return _canonical_rows(cand, self.dim)

    def _nabla_jets(self, prev: _Jets, idx: np.ndarray, ord_out: int) -> _Jets:
        """Jets of the level after `prev` (rows ascending) at the canonical
        index tuples, rows of `idx`, zeros left out: (nabla T)(i; m) = d_m T(i)
        - sum_s Gamma_{m i_s}^a T(i, a at s), all at once: the derivatives by
        column shifts, then the Christoffel products subtracted in the order of
        the sum (`_ordered_sum`).  T(i, a at s) is read at its canonical row
        times its sign, and a term whose sign is 0 is left out."""
        space = self._space
        r = prev.index.shape[1]
        if not prev:
            return _Jets(idx[:0], np.zeros(0, dtype=np.intp), np.zeros((0, 0)), space, ord_out)
        # index tuples as base-dim codes, looked up in prev's ascending codes
        weights = _digit_weights(self.dim, r)
        prev_codes = prev.index @ weights

        def find(codes):
            pos = np.minimum(prev_codes.searchsorted(codes), len(prev_codes) - 1)
            return np.where(prev_codes[pos] == codes, pos, -1)

        base, m_ = idx[:, :-1], idx[:, -1]
        tj = find(base @ weights)
        var = self._act_pos[m_]
        has_d = (tj >= 0) & (var >= 0)
        # the Christoffel terms as (component, hook, row of prev), in the
        # order of the sum: component by component, slot by slot, by hook
        pair = (m_[:, None] * self.dim + base).ravel()
        at, hook = _expand(self._fwd_start[pair], self._fwd_len[pair])
        comp, s = np.divmod(at, r)
        moved = base[comp]
        moved[np.arange(len(at)), s] = self._fwd_upper[hook]
        moved, sign = _canonical(moved)
        rep = np.where(sign != 0, find(moved @ weights), -1)
        t = (rep >= 0).nonzero()[0]
        comp, hook, rep, sign = comp[t], self._fwd_row[hook[t]], rep[t], sign[t]

        # rows to evaluate: those with a Christoffel term or a derivative
        # that is not identically zero.  Row t of prev depends on variable v
        # where its v-derivative has a nonzero coefficient: where a place
        # that the shift of v picks holds one
        live = np.bincount(comp, minlength=len(idx)) > 0
        _, pos, _, padded = prev._shifts
        depends = (padded != 0)[:, pos[:-1]].any(axis=2)
        live[has_d] |= depends[tj[has_d], var[has_d]]
        rows = live.nonzero()[0]
        out, acc = prev.derivs(tj[rows], np.where(has_d[rows], var[rows], -1))
        if len(comp):
            cols, (left, right) = _joint(self._gamma2.cut(ord_out), prev.cut(ord_out))
            out, (acc,) = _joint((out, acc), also=(space.product_cols(cols, ord_out),))
            _ordered_sum(out, acc, (live.cumsum() - 1)[comp], lambda ts: space.multiply_rows(
                cols, left[hook[ts]], right[rep[ts]] * sign[ts, None], ord_out), -1, has_d[rows])
        return _Jets(idx[rows], out, acc, space, ord_out)

    def _check_level(self, k: int) -> None:
        if k < 0:
            raise ValueError("level must be >= 0")
        if k > self.max_deriv:
            raise JetOrderError(f"level {k} needs max_deriv >= {k}, "
                                f"context was built with {self.max_deriv}")

    def _level(self, k: int) -> _Jets:
        self._check_level(k)
        while len(self._levels) <= k:
            n = len(self._levels)
            with np.errstate(all="ignore"):  # a non-finite result raises in `_Jets`
                self._levels.append(self._nabla_step(self._levels[-1], self.order - 2 - n) if n
                                    else self._riemann_jets(self._riemann_candidates()))
        return self._levels[k]

    # ------------------------------------------------------------- read-out
    def christoffels(self) -> Christoffels:
        def nonzero(jets: _Jets) -> dict[tuple[int, int, int], float]:
            return {k: v for k, v in zip(jets, jets.at_point().tolist()) if v != 0.0}

        return Christoffels(self.dim, nonzero(self._gamma1), nonzero(self._gamma2))

    def curvature(self, k: int = 0) -> TensorField:
        """The level-k point values, built once per level: each nonzero
        canonical component followed by its three images (`TensorField`).

        This is the one place that decides which components are zero at the
        point; every contraction reads this view.
        """
        view = self._views.get(k)
        if view is None:
            level = self._level(k)
            values = level.at_point()
            keep = values != 0.0
            index = _images(level.index[keep])
            values = (values[keep, None] * _IMAGE_SIGNS).ravel()
            index.setflags(write=False)
            values.setflags(write=False)
            view = self._views[k] = TensorField(self.dim, k, index, values)
        return view

    def support(self, k: int = 0) -> frozenset[tuple[int, ...]]:
        """Index tuples whose level-k jet is not identically zero here: the
        canonical rows of the level and their images."""
        return frozenset(map(tuple, _images(self._level(k).index).tolist()))

    def ricci(self) -> np.ndarray:
        return _contract(self.curvature(0), [((0, 3), self.ginv0)], (1, 2))

    def scalar(self) -> float:
        rho = self.ricci()
        return float(np.sum(self.ginv0 * rho))

    def contract(self, k: int, vectors: Sequence[np.ndarray]) -> float:
        """Full contraction of the level-k tensor with 4 + k vectors."""
        if len(vectors) != 4 + k:
            raise ValueError(f"need {4 + k} vectors, got {len(vectors)}")
        return float(_contract(self.curvature(k), [((s,), v) for s, v in enumerate(vectors)]))

    def contract_open(
        self, k: int, vectors: Sequence[np.ndarray | None], open_slot: int
    ) -> np.ndarray:
        """Contract all slots except `open_slot`; returns a lower-index vector."""
        if len(vectors) != 4 + k:
            raise ValueError(f"need {4 + k} vector entries, got {len(vectors)}")
        factors = [((s,), v) for s, v in enumerate(vectors) if s != open_slot]
        return _contract(self.curvature(k), factors, (open_slot,))

    # --------------------------------------------------- exhaustive oracles
    def level_exhaustive(self, k: int) -> dict[tuple[int, ...], Jet]:
        """Recompute level k over every canonical index tuple, with the
        level steps' own lookups; cross-check for support propagation,
        exponential in k.  Keyed as `_level(k)` is: canonical rows only."""
        self._check_level(k)
        if self.dim ** (4 + k) > _EXHAUSTIVE_CAP:
            raise ValueError("exhaustive enumeration over cap")
        m = self.dim
        pair = np.array([i * m + j for i, j in combinations(range(m), 2)], dtype=np.intp)
        with np.errstate(all="ignore"):  # a non-finite result raises in `_Jets`
            for n in range(k + 1):
                # every canonical tuple, ascending: pair (i, j), pair (k, l), rest
                cand = _decode((pair[:, None] * m * m + pair).reshape(-1, 1) * m ** n
                               + np.arange(m ** n), m, 4 + n)
                full = (self._nabla_jets(full, cand, self.order - 2 - n) if n
                        else self._riemann_jets(cand))
        return full


# ------------------------------------------------------------- operators
def jacobi_operator(ctx: CurvatureContext, direction: Sequence[float]) -> np.ndarray:
    """Matrix of v -> metric-dual of R(v, X, X, .) for X = `direction`; for
    an (N, m) stack of directions, the (N, m, m) stack of their matrices,
    each the one-direction matrix bit for bit."""
    x = np.asarray(direction, dtype=float)
    if x.shape[-1:] != (ctx.dim,) or x.ndim > 2:
        raise ValueError(f"direction must have length {ctx.dim}")
    low = _contract(ctx.curvature(0), [((1,), x), ((2,), x)], (0, 3))
    return np.matmul(ctx.ginv0, np.swapaxes(low, -1, -2))


def _plane_basis(
    g0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal oriented basis of span{e1, e2}, unit up to sign.

    Raises DegeneratePlaneError when the induced form on the plane is
    degenerate (or the vectors are dependent)."""
    q11 = float(e1 @ g0 @ e1)
    q12 = float(e1 @ g0 @ e2)
    q22 = float(e2 @ g0 @ e2)
    scale = max(abs(q11), abs(q12), abs(q22))
    det = q11 * q22 - q12 * q12
    if scale == 0.0 or abs(det) <= _PLANE_TOL * scale * scale:
        raise DegeneratePlaneError("degenerate 2-plane for this metric")
    for c1, c2 in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        q = c1 * c1 * q11 + 2.0 * c1 * c2 * q12 + c2 * c2 * q22
        if abs(q) > _PLANE_TOL * scale:
            break
    else:
        raise DegeneratePlaneError("no non-null vector found in the plane")
    eps1 = 1.0 if q > 0 else -1.0
    s1 = abs(q) ** 0.5
    u1 = (c1 * e1 + c2 * e2) / s1
    a1, a2 = c1 / s1, c2 / s1
    # the other generator: e2 unless u1 came from it alone
    w, w1, w2 = (e2, 0.0, 1.0) if (c1, c2) != (0.0, 1.0) else (e1, 1.0, 0.0)
    proj = eps1 * float(w @ g0 @ u1)
    v = w - proj * u1
    b1, b2 = w1 - proj * a1, w2 - proj * a2
    qv = float(v @ g0 @ v)
    if abs(qv) <= _PLANE_TOL * scale:
        raise DegeneratePlaneError("degenerate 2-plane for this metric")
    s2 = abs(qv) ** 0.5
    u2 = v / s2
    b1, b2 = b1 / s2, b2 / s2
    if a1 * b2 - a2 * b1 < 0.0:
        u2 = -u2
    return u1, u2


def skew_curvature_operator(
    ctx: CurvatureContext, e1: Sequence[float], e2: Sequence[float]
) -> np.ndarray:
    """Matrix of v -> metric-dual of R(u1, u2, v, .), with (u1, u2) the
    oriented orthonormalization of the given plane; for (N, m) stacks of
    e1 and e2, the (N, m, m) stack of the planes' matrices, each the
    one-plane matrix bit for bit.  The planes are orthonormalized one at a
    time; the first degenerate one raises DegeneratePlaneError."""
    e1, e2 = np.asarray(e1, float), np.asarray(e2, float)
    if e1.shape != e2.shape or e1.shape[-1:] != (ctx.dim,) or e1.ndim > 2:
        raise ValueError(f"plane vectors must have length {ctx.dim}")
    bases = [_plane_basis(ctx.g0, *plane)
             for plane in zip(e1.reshape(-1, ctx.dim), e2.reshape(-1, ctx.dim))]
    u1, u2 = np.reshape(bases, (-1, 2, ctx.dim)).swapaxes(0, 1).reshape((2,) + e1.shape)
    low = _contract(ctx.curvature(0), [((0,), u1), ((1,), u2)], (2, 3))
    return np.matmul(ctx.ginv0, np.swapaxes(low, -1, -2))
