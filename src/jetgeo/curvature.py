"""Curvature of a metric at a point, to any requested covariant order.

Everything is computed through truncated Taylor jets in the coordinates the
metric actually depends on.  A `CurvatureContext` fixes a metric, a base
point, and `max_deriv`; it then carries jets of total order

    metric            max_deriv + 2
    inverse metric    max_deriv + 1
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
tuple is kept alongside as a slow cross-check.  Every matrix's rows (the
inverse's, both Christoffel kinds', each level's) ascend by key, read as a
base-dim number, and a level's point-value view follows that order, each row
with its three images.  Every sum of jets in the context (Neumann inverse,
Christoffel symbols, level 0, level steps) runs over its summation index
ascending, hooks included, as one ordered step, `_ordered_sum`: terms from
row-batched products and derivative shifts (vector-mode Taylor propagation:
Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13),
added in the order of a loop over them by one `np.bincount` per block, whose
rows are ranked without a sort, so every coefficient is that loop's to the
last bit, up to the sign of a zero.

Each matrix keeps its truncation order and only its live columns: the
packed codes (`jets`) of the context's one jet space, of the top order,
where some row is nonzero (38 of 19,448 for the inverse at p = 5 in the
family).  All arithmetic runs on those columns: a product lists the pairs
of its operands' joint columns, a derivative sends code m to m - code(e_v),
and truncation keeps a prefix of the columns.  A column set keeps its
listings and shifts (`JetSpace.occupying`), so a second context of one
metric and point lists nothing.  A sum's columns are known before it runs,
from those of its terms.  A metric entry's jet is taken over
its own coordinates, and a row read out as a jet occupies its matrix's columns.

Each stage of a context (the metric jets, the Neumann inverse, Γ₁, Γ₂,
level 0, each level step and each view) is a plan, then a replay: an
inspector and an executor (Saltz, Mirchandaney and Crowley, IEEE Trans.
Comput. 40(5), 1991), or a symbolic and a numeric sparse factorization
(George and Liu, 1981).  The plan is index arithmetic on patterns, never
on values: the metric entries' tapes (`expr.jet_tape`) and columns,
candidates, row lookups, hook expansions, canonical signs, live rows, the
Neumann sweeps' chains (`_sweep_chain`) and the ordered sums' blocks
(`_sum_plan`).  The replay is the numeric work, the tapes' replays,
gathers, products, derivative shifts and `np.bincount`s (`_sum_replay`),
with every check of the build.  A plan is kept on the spec
(`MetricSpec.plans`), one slot per (max_deriv, stage), keyed by every input
it reads: index arrays, column sets and nonzero masks (the metric jets'
`coef != 0`, `vals != 0`, `ginv0 != 0`, N's live rows and nonzeros).  A
later context whose inputs equal the key replays it; any other plans
afresh and replaces the slot, so a special point (the family's base point,
H²'s roundoff images of zero) never runs on another pattern's plan.  A
Neumann sweep's columns follow the values, so the inverse keeps one slot
per sweep, whose chain is keyed by S's columns and nonzero mask, and the
number of sweeps, which the values decide, is never kept.  A sweep
replays its chain: one gather of S, one product on the chain's term list,
the ordered sums of t and of S, the cut of zero columns and the
fixed-point test.  Every other stage product (Γ², level 0, the level
steps) replays a chain as well: its plan, keyed also by the operands'
nonzero masks (`_Jets.live`), keeps per ordered-sum block the int32 gathers
of both operands at the product's codes from their matrices laid end to
end with a zero last (`_gather`); a derivative operand (d_i Γ² in level 0,
a level step's start, Γ₁'s terms) is one gather of shifts and a factor row
(`_shift_gather`), and a level step folds the canonical sign into its
gather, which reads the level and its negatives.  A replayed block is one
take per operand, one `JetSpace.multiply_listed` on the listing the plan
keeps and the term lists of its slot (`_product`, `_term_lists`,
`JetSpace.row_terms`), so only pairs of nonzero factors are multiplied, and
then `_sum_replay`.  No operand is checked: each comes from a `_Jets`,
which raised on a non-finite value, and each result passes through one.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .jets import SPARSE_PAIR_COST, Jet, JetOrderError, NonFiniteError, _distinct, _expand, jet_space
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
    point; the sums are made once per spec and kept in `MetricSpec.plans`.
    """
    def sums() -> ChristoffelTerms:
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

    return _plan(spec.plans, "christoffel_terms", (), sums)


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
    `cols`, the ascending codes of `space` where some row is nonzero, and
    `live` the nonzero mask of `vals`, which the plans' keys read.  A
    non-finite coefficient raises NonFiniteError.  A key's jet, made when
    read, occupies `cols`, as codes of its own order."""

    def __init__(self, index: np.ndarray, cols: np.ndarray, vals: np.ndarray, space, order: int):
        if not np.isfinite(vals).all():
            raise NonFiniteError("non-finite coefficients in the curvature jets")
        live = vals != 0.0
        keep, used = live.any(axis=1), live.any(axis=0)
        if not keep.all():
            index, vals, live = index[keep], vals[keep], live[keep]
        if not used.all():
            cols, vals, live = cols[used], vals[:, used], live[:, used]
        self.index, self.cols, self.vals, self.live = index, cols, vals, live
        self.space, self.order = space, order

    @cached_property
    def _row(self) -> dict[tuple[int, ...], int]:
        return dict(zip(map(tuple, self.index.tolist()), range(len(self.index))))

    @cached_property
    def _row_space(self):
        target = jet_space(self.space.variables, self.order)
        return target.occupying(self.space.recode(self.cols, target))

    def __getitem__(self, key) -> Jet:
        return Jet(self._row_space, self.vals[self._row[key]].copy())

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

    def flat(self, *more: np.ndarray) -> np.ndarray:
        """`vals` laid end to end, then each of `more` so, and a zero last:
        the source the chains' gathers read (`_gather`)."""
        return np.concatenate((self.vals.ravel(), *(m.ravel() for m in more), _ZERO))


def _widen(cols: np.ndarray, vals: np.ndarray, to: np.ndarray) -> np.ndarray:
    """`vals`, at the ascending codes `cols`, put at their places among the
    ascending codes `to`, a superset, with zeros elsewhere."""
    if len(cols) == len(to):
        return vals
    out = np.zeros((len(vals), len(to)))
    out[:, to.searchsorted(cols)] = vals
    return out


def _union(*cols: np.ndarray) -> np.ndarray:
    """The union of ascending code arrays, ascending: the first where all
    are equal."""
    if all(np.array_equal(c, cols[0]) for c in cols[1:]):
        return cols[0]
    return _distinct(np.concatenate(cols))


def _decode(codes: np.ndarray, dim: int, r: int) -> np.ndarray:
    """The r-index tuples below dim that `codes` read as base-dim numbers."""
    return (codes.reshape(-1, 1) // _digit_weights(dim, r) % dim).astype(np.intp, copy=False)


def _canonical_rows(idx: np.ndarray, dim: int) -> np.ndarray:
    """The distinct canonical forms of the rows of `idx`, index tuples below
    dim, ascending, but those where a pair repeats an index."""
    idx, sign = _canonical(idx)
    r = idx.shape[1]
    return _decode(_distinct(idx[sign != 0] @ _digit_weights(dim, r)), dim, r)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays are equal in shape and entries: integer and bool
    arrays of one dtype by their bytes, which is cheaper for small ones
    than an elementwise test, any others (Python int codes) entry by entry."""
    if a is b:
        return True
    if a.shape != b.shape:
        return False
    if a.dtype == b.dtype and a.dtype.kind in "biu":
        return a.tobytes() == b.tobytes()
    return bool((a == b).all())


def _plan(store: dict, slot, key: tuple, make):
    """The plan kept in `store` at `slot` if it was made for `key`, a tuple
    of the arrays it reads, each equal in shape and entries to the kept
    one's (`_same`); else `make()`, kept there for `key` in its place."""
    kept = store.get(slot)
    if kept is None or len(kept[0]) != len(key) or not all(map(_same, kept[0], key)):
        kept = store[slot] = key, make()
    return kept[1]


def _term_lists(store: dict, slot, key, make):
    """The term lists a product reads, kept in `store` at `slot` for the
    patterns of its operands that `key()` gives (`_plan`): None, for the
    listing, the first time a pattern comes, so a pattern met once (a fresh
    spec, a special point) costs no more than that product, and `make()`'s
    lists (`JetSpace.row_terms`) when it comes back.  Where every block of
    them would read the listing, which gives the product for any operands,
    the slot holds None for good and its products read no key."""
    if slot in store and store[slot] is None:
        return None
    kept = _plan(store, slot, key(), list)
    if not kept:
        kept.append(None)
    elif kept[0] is None:
        terms = make()
        if all(block is None for _, block in terms):
            store[slot] = None
        else:
            kept[0] = terms
    return kept[0]


def _sum_plan(row: np.ndarray, n: int, width: int, started=None) -> list:
    """The blocks of `_ordered_sum` into n rows of `width` columns: per block
    its slice of the terms, the rows it writes, those of them that go on
    from what the matrix holds, and each input's first bin: its place among
    the rows written, the carried rows first and then the terms, times
    `width`."""
    held = np.zeros(n, dtype=bool) if started is None else started.copy()
    place = np.empty(n, dtype=np.intp)
    step = max(1, SPARSE_PAIR_COST ** 2 // max(1, width))
    blocks = []
    for t0 in range(0, len(row), step):
        ts = slice(t0, t0 + step)
        r = row[ts]
        k = np.arange(len(r))
        place[r] = k
        rows = r[place[r] == k]
        place[rows] = k[:len(rows)]
        carry = held[rows].nonzero()[0]
        blocks.append((ts, rows, rows[carry], np.concatenate((carry, place[r])) * width))
        held[rows] = True
    return blocks


def _sum_replay(blocks: list, cols: np.ndarray, acc: np.ndarray, terms, sign: int = 1) -> None:
    """Run the blocks of `_sum_plan` on `acc`, a matrix at the codes `cols`,
    with the terms that `terms(ts)` gives for the slice ts."""
    width = len(cols)
    cells = np.arange(width)
    for ts, rows, carried, first in blocks:
        vals = _widen(*terms(ts), cols)
        if sign < 0:
            vals = -vals
        w = np.concatenate((acc[carried], vals)) if len(carried) else vals
        acc[rows] = np.bincount((first[:, None] + cells).ravel(), weights=w.ravel(),
                                minlength=len(rows) * width).reshape(len(rows), width)


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
    rows, and their ranks are then written there.  The blocks and ranks
    read `row`, `started` and the width alone (`_sum_plan`), and the sums
    run on them (`_sum_replay`)."""
    _sum_replay(_sum_plan(row, len(acc), len(cols), started), cols, acc, terms, sign)


def _find(own: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The position in the ascending codes `own` of each of `codes`, or
    len(own) where it is not there."""
    if not len(own):
        return np.zeros(len(codes), dtype=np.intp)
    at = own.searchsorted(codes)
    at[own.take(at, mode="clip") != codes] = len(own)
    return at


def _positions(at: np.ndarray, rows: np.ndarray, width: int, zero: int, start: int = 0):
    """Positions in a source of the rows `rows` of a matrix `width` wide,
    laid end to end there from `start`, at the columns `at` (a column per
    row, or one row of columns for all), and `zero`, the place of a zero in
    the source, where a column is `width`: int32, as the plans keep them,
    while the source fits it."""
    out = np.where(at == width, zero, (rows * width + start)[:, None] + at)
    return out.astype(np.int32 if zero < 2 ** 31 else np.intp)


def _gather(cols: np.ndarray, own: np.ndarray, rows: np.ndarray, zero: int,
            start: int = 0) -> np.ndarray:
    """The positions that put rows `rows` of a matrix at the ascending codes
    `own`, laid end to end from `start` in a source, at the ascending codes
    `cols`: a (len(rows), len(cols)) gather, `zero`, the place of a zero in
    the source, where a code of `cols` is not in `own`.  Codes of `own` not
    in `cols` are left out, so a gather at a prefix truncates."""
    return _positions(_find(own, cols), rows, len(own), zero, start)


def _shift_gather(space, cols: np.ndarray, own: np.ndarray, rows: np.ndarray, var: np.ndarray,
                  zero: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather (as `_gather`'s) and the factor row that put at the
    ascending codes `cols` rows `rows` of a matrix at the codes `own`, row
    n differentiated by variable var[n] (`JetSpace.deriv_cols`; -1 for
    none): the gathered coefficient of m + e_v times the factor, m_v, is
    the derivative's at m, and 0.0 times 0.0 where m has no term."""
    codes, pos, fac = space.deriv_cols(own)
    at = _find(codes, cols)
    # a last column for the codes of `cols` that no shift reaches
    pos = np.concatenate((pos, np.full((len(pos), 1), len(own))), axis=1)[var][:, at]
    fac = np.concatenate((fac, np.zeros((len(fac), 1))), axis=1)[var][:, at]
    return _positions(pos, rows, len(own), zero), fac


def _product(space, listed: tuple, store: dict, slot, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`JetSpace.multiply_listed` of the gathered operands a and b on the
    listing `listed` = (codes, order, listing, width) keeps, with the term
    lists kept in `store` at `slot` (`_term_lists`); the chain's key holds
    the nonzero masks of the matrices a and b are gathered from, so the
    slot needs none."""
    cols, order, listing, width = listed
    kept = _term_lists(store, slot, tuple, lambda: space.row_terms(
        cols, a != 0.0, b != 0.0, order))
    return space.multiply_listed(a, b, listing, width, kept)


_ZERO = np.zeros(1)


def _sweep_chain(space, order: int, keys: np.ndarray, s_cols: np.ndarray, src: np.ndarray,
                 nil_a: np.ndarray, nil_b: np.ndarray, pattern: np.ndarray, base: np.ndarray,
                 g_cols: np.ndarray, n_nil: int, last) -> tuple:
    """The plan of a Neumann sweep (`CurvatureContext._neumann_inverse`) on
    S keyed by `keys` (a * m + b, ascending) at the codes `s_cols`, from
    N's entries (a, b) = (nil_a, nil_b), each at row src of N's n_nil rows
    at the codes `g_cols`, and h0's pattern, where `base` holds S's seed.

    Its terms, from the keys alone: the keys and those of the new S, the
    new keys as rows (a, b), each product's rows of N and of S, t's row by
    product and t's size, each h0 term's row of t and its place in h0, and
    the row of S of each seed term and then of each h0 term.  Its columns:
    the products' joint codes, the gather that puts their rows of N there
    from N laid end to end with a zero last, that code set's listing and
    the codes it reaches, and the blocks of both ordered sums there
    (`_sum_plan`).  Then the gather of S's rows, as N's, and a store for
    the products' term lists (`_term_lists`).  The keys only grow, and
    where they held at `last`, the sweep before's chain, the terms are its,
    as are the columns where the codes held too."""
    if last is not None and len(last[0][0]) == len(last[0][1]):
        terms = last[0]
    else:
        m = len(pattern)
        pos = np.full((m, m), -1)
        pos.flat[keys] = np.arange(len(keys))
        at, c = np.nonzero(pos[nil_b] >= 0)
        t_codes = nil_a[at] * m + c
        t_keys = _distinct(t_codes)
        ta, tc = np.divmod(t_keys, m)
        tr, i = np.nonzero(pattern[:, ta].T)
        s_codes = i * m + tc[tr]
        new = _distinct(np.concatenate((base, s_codes)))
        terms = (keys, new, np.column_stack(np.divmod(new, m)), src[at], pos[nil_b[at], c],
                 t_keys.searchsorted(t_codes), len(t_keys), tr, i * m + ta[tr],
                 new.searchsorted(np.concatenate((base, s_codes))))
    _, new, _, left, right, t_row, n_t, _, _, s_row = terms
    cols = _union(g_cols, s_cols)
    if last is not None and terms is last[0] and _same(cols, last[1][0]):
        joint = last[1]
    else:
        listing, t_cols = space.listed(cols, order)
        joint = (cols, _gather(cols, g_cols, left, n_nil * len(g_cols)), listing, t_cols,
                 _sum_plan(t_row, n_t, len(t_cols)), _sum_plan(s_row, len(new), len(t_cols)))
    return terms, joint, _gather(cols, s_cols, right, len(keys) * len(s_cols)), {}


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
            self._gamma2 = self._christoffel_second()

        self._levels: list[_Jets] = []
        self._views: dict[int, TensorField] = {}

    # ------------------------------------------------------------ plumbing
    def _planned(self, stage, key: tuple, make):
        """The plan of `stage` for the patterns `key`: the spec's, in its
        slot (max_deriv, stage), if made for them, else `make()` (`_plan`)."""
        return _plan(self.spec.plans, (self.max_deriv, stage), key, make)

    @cached_property
    def _gamma1_row(self) -> np.ndarray:
        """The row of `_gamma1` at each index tuple (a, b, c), -1 at none."""
        out = np.full((self.dim,) * 3, -1)
        out[tuple(self._gamma1.index.T)] = np.arange(len(self._gamma1))
        return out

    @cached_property
    def _hooks(self) -> tuple[np.ndarray, ...]:
        """Hooks for covariant-derivative terms: the rows of `_gamma2`, which
        ascend by (a, b, c), as runs by lower pair a * dim + b (start and
        length), and grouped stably by upper index c (start, length, and
        the rows' lower pairs in that order)."""
        keys = self._gamma2.index
        fwd_len = np.bincount(keys[:, 0] * self.dim + keys[:, 1], minlength=self.dim ** 2)
        rev, rev_start, rev_len = _runs(keys[:, 2], self.dim)
        return fwd_len.cumsum() - fwd_len, fwd_len, rev_start, rev_len, keys[rev, :2]

    def _metric_rows(self, env) -> _Jets:
        """The metric jets of the upper triangle row by row, zeros left out:
        each entry's jet over its own coordinates, its nonzeros put at their
        codes here.  Identical entries (expression and coordinates) are
        evaluated once, each by `ex.eval_jet` on the tape the metric stage's
        plan keeps (`_metric_plan`); their columns here are planned by the
        jets' nonzero masks, so a point whose zeros differ plans afresh."""
        tapes, entry, codes, index, joint = self._planned("metric", (), self._metric_plan)
        coefs = [ex.eval_jet(e, env, names, self.order, tape).coef for e, names, tape in tapes]
        masks = tuple(c != 0.0 for c in coefs)

        def columns():
            # the union of the entries' nonzero codes, and where each
            # entry's nonzeros sit among the distinct jets' coefficients
            # laid end to end (`take`) and in the matrix (`put`)
            nz = [np.flatnonzero(m) for m in masks]
            start = np.cumsum([0] + [len(m) for m in masks])
            cols = _union(*(codes[d][nz[d]] for d in entry))
            take = np.concatenate([nz[d] + start[d] for d in entry])
            put = (np.repeat(np.arange(len(entry)), [len(nz[d]) for d in entry]),
                   np.concatenate([cols.searchsorted(codes[d][nz[d]]) for d in entry]))
            return cols, take, put

        cols, take, put = _plan(joint, "columns", masks, columns)
        vals = np.zeros((len(entry), len(cols)))
        vals[put] = np.concatenate(coefs)[take]
        return _Jets(index, cols, vals, self._space, self.order)

    def _metric_plan(self) -> tuple:
        """The metric stage's plan: the distinct entries (expression,
        coordinates, `ex.jet_tape`), each upper entry's place among them,
        each distinct jet's codes here, the entries' index pairs, and a
        slot for the columns by nonzero masks."""
        distinct: dict = {}
        entry = [distinct.setdefault((self.spec.components[i][j], names), len(distinct))
                 for (i, j), names in self.spec.entry_vars.items()]
        tapes = [(e, names, ex.jet_tape(e, names, self.order)) for e, names in distinct]
        codes = [tape.space.codes_in(self._space) for _, _, tape in tapes]
        # not empty: `validate_at` has ruled out a zero metric
        return (tapes, entry, codes, np.array(list(self.spec.entry_vars), dtype=np.intp), {})

    def _neumann_inverse(self) -> _Jets:
        """Inverse-metric jets of order max_deriv + 1, their reader Γ²'s.

        With g = g0 + N and N free of constant term, N is nilpotent in the
        truncated algebra, and sweep j of S <- h0 - h0 N S is exact to degree
        j: max_deriv + 1 sweeps, or fewer where one repeats the last to the
        bit, land on the exact truncated inverse.  A sweep sums t = N S over b
        ascending, then S from h0 (or from nothing) less h0 t over a ascending:
        one product of all the pairs (N_ab, S_bc), then two ordered sums.
        Each sweep replays the chain its plan holds (`_sweep_chain`): one
        gather of S's rows at the product's codes (N's rows are taken there
        once a context, again only where those codes move); one
        `JetSpace.multiply_listed` on the chain's term lists (`_term_lists`);
        the ordered sum of t over b, the h0-weighted one of S from the seed
        (`_sum_replay`), the cut of S's zero columns and the fixed-point
        test.  The inverse's plan is keyed by N's rows, columns and nonzero
        mask and h0's pattern, and keeps a slot per sweep, whose chain is
        keyed by S's columns and nonzero mask; the number of sweeps, which
        the values decide, is never kept.

        h0 is `ginv0`, which is exact 0 off g^-1's structural pattern
        (`MetricSpec.structure`).  `np.linalg.inv` often leaves about 1e-17
        at a structural zero; through the sweeps it would fill the inverse
        jets (at p = 5 in the family, 16,445 of 19,448 coefficients where 38
        are nonzero), and every product with them would be dense.  Every
        coefficient the sweeps leave is kept: the seed alone decides the
        inverse's zeros.
        """
        h0, space, order = self.ginv0, self._space, self.order - 1
        g_cols, g_vals = self._g_rows.cut(order)
        # N's entries (a, b): each upper metric entry with a nonconstant
        # part, as (i, j) and then (j, i), with their rows of `nil`
        live = g_vals[:, 1:].any(axis=1)  # code 0 is column 0: g0 is not zero
        nil = g_vals[live]
        nil[:, 0] = 0.0
        pattern = h0 != 0.0

        def plan():
            src, nil_a, nil_b = np.array(
                [(r, *pair) for r, (i, j) in enumerate(self._g_rows.index[live].tolist())
                 for pair in dict.fromkeys([(i, j), (j, i)])], dtype=np.intp).reshape(-1, 3).T
            return src, nil_a, nil_b, np.flatnonzero(pattern), []

        # the metric jets' rows, columns and mask decide N's
        src, nil_a, nil_b, base, sweeps = self._planned(
            "inverse", (self._g_rows.index, self._g_rows.cols, self._g_rows.live, pattern), plan)
        # N laid end to end with a zero last, as the chains' gathers read it
        n_nil, nil = len(nil), np.concatenate((nil.ravel(), _ZERO))
        # S as rows keyed a * m + b; it starts from h0, at code 0
        seed = h0.flat[base]
        keys, s_cols, s = base, np.zeros(1, dtype=np.intp), seed[:, None]
        s_live, chain = s != 0.0, None
        left_at = weight_at = seed_at = None  # where `left`, `weight`, `seeded` were read
        for sweep in range(order):
            if sweep == len(sweeps):
                sweeps.append({})
            last = chain
            chain = _plan(sweeps[sweep], "chain", (s_cols, s_live), lambda: _sweep_chain(
                space, order, keys, s_cols, src, nil_a, nil_b, pattern, base, g_cols, n_nil, last))
            ((_, keys, index, _, _, _, n_t, tr, w_at, _),
             (cols, n_at, listing, t_cols, t_sum, s_sum), s_at, terms) = chain
            if n_at is not left_at:  # N's operand, taken again only where the columns moved
                left_at, left = n_at, nil.take(n_at)
            # a non-finite S stays so to the last sweep, whose `_Jets` raises
            right = np.concatenate((s.ravel(), _ZERO)).take(s_at)
            width = len(t_cols)
            prods = _product(space, (cols, order, listing, width), terms, "terms", left, right)
            t = np.empty((n_t, width))
            _sum_replay(t_sum, t_cols, t, lambda ts: (t_cols, prods[ts]))
            # S from the seed's rows (code 0 is in `cols`, so in `t_cols`:
            # h0 goes to column 0), then less h0 t: plus t (-h0), which is
            # -(h0 t) to the bit
            if t_cols is not seed_at:
                seed_at, seeded = t_cols, np.zeros((len(base), width))
                seeded[:, 0] = seed
            if w_at is not weight_at:
                weight_at, weight = w_at, -h0.flat[w_at][:, None]
            s_terms = np.concatenate((seeded, t[tr] * weight))
            last_cols, last_s, s_cols = s_cols, s, t_cols
            s = np.empty((len(keys), width))
            _sum_replay(s_sum, s_cols, s, lambda ts: (t_cols, s_terms[ts]))
            s_live = s != 0.0
            used = s_live.any(axis=0)
            if not used.all():
                s_cols, s, s_live = s_cols[used], s[:, used], s_live[:, used]
            # a sweep that repeats the last to the bit is a fixed point; the
            # keys only grow, so an S of the last one's shape has its keys
            if _same(s_cols, last_cols) and s.tobytes() == last_s.tobytes():
                break
        return _Jets(index, s_cols, s, space, order)

    def _christoffel_first(self) -> _Jets:
        """Gamma_abc as the sums of `christoffel_terms`, in their order: per
        term h d_v g_ij, one gather of g_ij's row at the shifts of v times
        their factors (`_shift_gather`), then times h."""
        g_rows, space = self._g_rows, self._space

        def plan():
            terms = [(key, self._g_row[pair], self._act_pos[v], h)
                     for key, sums in christoffel_terms(self.spec).items()
                     for v, pair, h in sums if self._g_row[pair] >= 0]
            weights = _digit_weights(self.dim, 3)
            codes = np.array([t[0] for t in terms], dtype=np.intp).reshape(-1, 3) @ weights
            keys = _distinct(codes)
            g, var = np.array([t[1:3] for t in terms], dtype=np.intp).reshape(-1, 2).T
            h = np.array([t[3] for t in terms])
            cols = space.deriv_cols(g_rows.cols)[0]
            return (_decode(keys, self.dim, 3), cols,
                    *_shift_gather(space, cols, g_rows.cols, g, var, g_rows.vals.size), h[:, None],
                    _sum_plan(keys.searchsorted(codes), len(keys), len(cols)))

        index, cols, at, fac, h, blocks = self._planned(
            "gamma1", (g_rows.index, g_rows.cols), plan)
        src = g_rows.flat()
        acc = np.empty((len(index), len(cols)))
        _sum_replay(blocks, cols, acc, lambda ts: (cols, src.take(at[ts]) * fac[ts] * h[ts]))
        return _Jets(index, cols, acc, space, self.order - 1)

    def _christoffel_second(self) -> _Jets:
        """Gamma_ab^c = sum over d ascending of ginv^cd Gamma_abd: per block
        of the ordered sum, one gather of each factor's rows at the
        product's codes and one product (`_product`)."""
        g1, ginv = self._gamma1, self._ginv
        space, order = self._space, self.order - 1

        def plan():
            by_col, start, length = _runs(ginv.index[:, 1], self.dim)
            at, h = _expand(start[g1.index[:, 2]], length[g1.index[:, 2]])
            h = by_col[h]
            weights = _digit_weights(self.dim, 3)
            codes = np.column_stack((g1.index[at, :2], ginv.index[h, 0])) @ weights
            keys = _distinct(codes)
            cols = _union(ginv.cols, g1.cols)
            listing, out = space.listed(cols, order)
            return (_decode(keys, self.dim, 3), out, (cols, order, listing, len(out)),
                    _gather(cols, ginv.cols, h, ginv.vals.size),
                    _gather(cols, g1.cols, at, g1.vals.size),
                    _sum_plan(keys.searchsorted(codes), len(keys), len(out)), {})

        index, out, listed, left, right, blocks, terms = self._planned(
            "gamma2", (ginv.index, ginv.cols, ginv.live, g1.index, g1.cols, g1.live), plan)
        a, b = ginv.flat(), g1.flat()
        acc = np.empty((len(index), len(out)))
        _sum_replay(blocks, out, acc, lambda ts: (out, _product(
            space, listed, terms, ts.start, a.take(left[ts]), b.take(right[ts]))))
        return _Jets(index, out, acc, space, order)

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

    def _riemann_jets(self, idx: np.ndarray | None = None) -> _Jets:
        """Level-0 jets at the canonical tuples `idx` (rows), by default the
        candidates (`_riemann_candidates`), zeros left out, by blocks
        (`_riemann_block`) of candidates and their swaps (j, i, k, l)."""
        order = self.order - 2
        # the factors of the edge products: d_i Gamma_jk^m or Gamma_jk^m on
        # the left, g_ml or Gamma_iml on the right
        mats = g2, g, g1 = self._gamma2, self._g_rows, self._gamma1
        key = (g2.index, g2.cols, g2.live, g.index, g.cols, g.live, g1.index, g1.cols, g1.live)

        def plan():
            rows = self._riemann_candidates() if idx is None else idx
            cols = _union(*(jets.cut(order)[0] for jets in mats),
                          self._space.deriv_cols(g2.cols)[0])
            listing, out = self._space.listed(cols, order)
            step = max(1, SPARSE_PAIR_COST ** 2 // max(1, len(out)))
            return rows, out, (cols, order, listing, len(out)), [
                self._riemann_block_plan(rows[c0:c0 + step], cols, len(out))
                for c0 in range(0, len(rows), step)], {}

        rows, out, listed, blocks, _ = self._planned(
            ("level", 0), key + (() if idx is None else (idx,)), plan)
        # Gamma_jk^m's rows, then g's and Gamma_iml's, as the gathers read them
        srcs = g2.flat(), g.flat(g1.vals)
        coefs = [np.zeros((0, len(out)))] + [
            self._riemann_block(block, out, listed, srcs) for block in blocks]
        return _Jets(rows, out, np.concatenate(coefs), self._space, order)

    def _riemann_block_plan(self, rows: np.ndarray, cols: np.ndarray, width: int) -> tuple:
        """The terms of `_riemann_block` at the candidates `rows` and their
        swaps (j, i, k, l), with the ordered sums' blocks at `width` columns:
        per hook m of (j, k), ascending, a derivative term where i is active
        and g_ml can be nonzero, then a product term where Gamma_iml can;
        and the factors' gathers at the edge products' codes `cols`: d_i
        Gamma_jk^m by its shifts and factors (`_shift_gather`), Gamma_jk^m
        with the factor 1.0, and g_ml or Gamma_iml from the two laid end to
        end."""
        i, j, k, l = np.stack((rows, rows[:, [1, 0, 2, 3]])).reshape(-1, 4).T
        fwd_start, fwd_len = self._hooks[:2]
        at, hook = _expand(fwd_start[j * self.dim + k], fwd_len[j * self.dim + k])
        m_, i, l = self._gamma2.index[hook, 2], i[at], l[at]
        # per hook the derivative term, then the product term, -1 if absent
        right = np.stack((np.where(self._act_pos[i] >= 0, self._g_row[m_, l], -1),
                          self._gamma1_row[i, m_, l]), axis=1).ravel()
        t = (right >= 0).nonzero()[0]
        deriv, right, at, hook = t % 2 == 0, right[t], at[t // 2], hook[t // 2]
        live = np.bincount(at, minlength=len(j)) > 0
        row_of = np.where(live, live.cumsum() - 1, -1)
        n = int(live.sum())
        a, b = row_of.reshape(2, -1)
        minus = (b >= 0).nonzero()[0]
        g2, g, g1 = self._gamma2, self._g_rows, self._gamma1
        zero = g.vals.size + g1.vals.size
        left, fac = _shift_gather(self._space, cols, g2.cols, hook,
                                  np.where(deriv, self._act_pos[i[t // 2]], -1), g2.vals.size)
        left[~deriv] = _gather(cols, g2.cols, hook[~deriv], g2.vals.size)
        fac[~deriv] = 1.0
        other = _gather(cols, g.cols, right, zero)
        other[~deriv] = _gather(cols, g1.cols, right[~deriv], zero, g.vals.size)
        return (rows, left, fac, other, n, _sum_plan(row_of[at], n, width), a, b[minus],
                _sum_plan(minus, len(a), width, a >= 0), {})

    def _riemann_block(self, plan: tuple, out: np.ndarray, listed: tuple,
                       srcs: tuple) -> np.ndarray:
        """R(i, j, k, l) = edge(i, j, k, l) - edge(j, i, k, l) at the block
        whose plan is `plan` (`_riemann_block_plan`): the candidates' jets at
        the codes `out` that the listing `listed` reaches, zero rows kept.
        An edge sums over the hooks m of (j, k), ascending, (d_i Gamma_jk^m)
        g_ml and then Gamma_jk^m Gamma_iml: per block of the sum, one gather
        of each factor from `srcs`, one multiply by the left's factor row and
        one product (`_product`)."""
        rows, left, fac, other, n, edge_sum, a, b, minus_sum, terms = plan
        (lsrc, rsrc), space = srcs, self._space
        edge = np.empty((n, len(out)))
        _sum_replay(edge_sum, out, edge, lambda ts: (out, _product(
            space, listed, terms, ts.start, lsrc.take(left[ts]) * fac[ts],
            rsrc.take(other[ts]))))
        acc = np.zeros((len(rows), len(out)))
        acc[a >= 0] = edge[a[a >= 0]]
        _sum_replay(minus_sum, out, acc, lambda ts: (out, edge[b[ts]]), -1)
        return acc

    def _nabla_step(self, prev: _Jets, ord_out: int) -> _Jets:
        return self._nabla_jets(prev, None, ord_out)

    def _nabla_candidates(self, index: np.ndarray) -> np.ndarray:
        """Canonical index tuples the level after the one keyed by `index`
        (canonical tuples) can be nonzero at, ascending (`_canonical_rows`):
        a key with a derivative slot appended, or the canonical form of a key
        with one slot moved along a Christoffel hook and the hook's lower
        index appended, unless a pair repeats an index."""
        n, r = index.shape
        act = np.array(self.act_idx, dtype=np.intp)
        _, _, rev_start, rev_len, rev_lower = self._hooks
        # the hooks of each (key, slot) pair
        at, h = _expand(rev_start[index].ravel(), rev_len[index].ravel())
        hooked, s = np.divmod(at, r)
        key = np.concatenate((np.arange(n).repeat(len(act)), hooked))
        last = np.concatenate((np.tile(act, n), rev_lower[h, 0]))
        cand = np.concatenate((index[key], last[:, None]), axis=1)
        cand[n * len(act) + np.arange(len(at)), s] = rev_lower[h, 1]
        return _canonical_rows(cand, self.dim)

    def _nabla_jets(self, prev: _Jets, idx: np.ndarray | None, ord_out: int) -> _Jets:
        """Jets of the level after `prev` (rows ascending) at the canonical
        index tuples, rows of `idx`, by default the candidates
        (`_nabla_candidates`), zeros left out: (nabla T)(i; m) = d_m T(i)
        - sum_s Gamma_{m i_s}^a T(i, a at s), all at once: the derivatives by
        one gather of shifts times a factor row, then the Christoffel
        products subtracted in the order of the sum (`_sum_replay`), per
        block one gather of each factor and one product (`_product`).
        T(i, a at s) is read at its canonical row times its sign, folded into
        the gather, and a term whose sign is 0 is left out (`_nabla_plan`)."""
        space = self._space
        if not prev:
            rows = np.zeros((0, prev.index.shape[1] + 1), dtype=np.intp) if idx is None else idx[:0]
            return _Jets(rows, np.zeros(0, dtype=np.intp), np.zeros((0, 0)), space, ord_out)
        g2 = self._gamma2
        key = (prev.index, prev.cols, prev.live, g2.index, g2.cols, g2.live)
        rows, out, start, fac, chain, terms = self._planned(
            ("level", self.order - 2 - ord_out), key + (() if idx is None else (idx,)),
            lambda: self._nabla_plan(prev, idx, ord_out))
        # prev's rows laid end to end, then their negatives, which the
        # Christoffel terms of sign -1 read
        src = prev.flat(-prev.vals)
        acc = src.take(start) * fac
        if chain is not None:
            listed, p_out, left, right, blocks = chain
            g2s = g2.flat()
            _sum_replay(blocks, out, acc, lambda ts: (p_out, _product(
                space, listed, terms, ts.start, g2s.take(left[ts]), src.take(right[ts]))), -1)
        return _Jets(rows, out, acc, space, ord_out)

    def _nabla_plan(self, prev: _Jets, idx: np.ndarray | None, ord_out: int) -> tuple:
        """The rows and terms of `_nabla_jets`, from the patterns alone: the
        rows of `idx` (or the candidates) with a Christoffel term or a
        derivative that is not identically zero, the codes of the sum, the
        gather and factor row of each row's derivative there
        (`_shift_gather`); and where there are Christoffel terms, (hook, row
        of prev, sign) in the order of the sum, the product's listing and
        codes, the gathers of the hooks' rows of Gamma^2 and of prev's rows
        at the product's codes, a row of sign -1 read among prev's
        negatives, and the ordered sum's blocks."""
        if idx is None:
            idx = self._nabla_candidates(prev.index)
        r = prev.index.shape[1]
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
        fwd_start, fwd_len = self._hooks[:2]
        pair = (m_[:, None] * self.dim + base).ravel()
        at, hook = _expand(fwd_start[pair], fwd_len[pair])
        comp, s = np.divmod(at, r)
        moved = base[comp]
        moved[np.arange(len(at)), s] = self._gamma2.index[hook, 2]
        moved, sign = _canonical(moved)
        rep = np.where(sign != 0, find(moved @ weights), -1)
        t = (rep >= 0).nonzero()[0]
        comp, hook, rep, sign = comp[t], hook[t], rep[t], sign[t]

        # rows to evaluate: those with a Christoffel term or a derivative
        # that is not identically zero.  Row t of prev depends on variable v
        # where its v-derivative has a nonzero coefficient: where a place
        # that the shift of v picks holds one
        space, g2 = self._space, self._gamma2
        d_cols, pos, _ = space.deriv_cols(prev.cols)
        live = np.bincount(comp, minlength=len(idx)) > 0
        depends = np.column_stack((prev.live, np.zeros(len(prev), dtype=bool)))[:, pos[:-1]]
        live[has_d] |= depends.any(axis=2)[tj[has_d], var[has_d]]
        rows = live.nonzero()[0]
        # prev and its negatives laid end to end, with a zero last
        n, zero = len(prev), 2 * prev.vals.size
        chain, out = None, d_cols
        if len(comp):
            cols = _union(g2.cut(ord_out)[0], prev.cut(ord_out)[0])
            listing, p_out = space.listed(cols, ord_out)
            out = _union(d_cols, p_out)
            chain = ((cols, ord_out, listing, len(p_out)), p_out,
                     _gather(cols, g2.cols, hook, g2.vals.size),
                     _gather(cols, prev.cols, rep + (sign < 0) * n, zero),
                     _sum_plan((live.cumsum() - 1)[comp], len(rows), len(out), has_d[rows]))
        return (idx[rows], out, *_shift_gather(space, out, prev.cols, tj[rows],
                                               np.where(has_d[rows], var[rows], -1), zero),
                chain, {})

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
                                    else self._riemann_jets())
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
        point; every contraction reads this view.  Its `index` is planned from
        the level's rows and those zeros, and read-only: contexts that replay
        the plan share it.
        """
        view = self._views.get(k)
        if view is None:
            level = self._level(k)
            values = level.at_point()
            keep = values != 0.0

            def images():
                index = _images(level.index[keep])
                index.setflags(write=False)
                return index

            index = self._planned(("view", k), (level.index, keep), images)
            values = (values[keep, None] * _IMAGE_SIGNS).ravel()
            values.setflags(write=False)
            view = self._views[k] = TensorField(self.dim, k, index, values)
        return view

    def support(self, k: int = 0) -> frozenset[tuple[int, ...]]:
        """Index tuples whose level-k jet is not identically zero here: the
        canonical rows of the level and their images.  The set is kept with
        the level's plan, keyed by the level's rows, and immutable: contexts
        that replay the plan share it."""
        level = self._level(k)

        def support():
            return frozenset(map(tuple, _images(level.index).tolist()))

        # the plan's last part holds what it keeps by pattern; an empty
        # level after the first may have none (`_nabla_jets`)
        kept = self.spec.plans.get((self.max_deriv, ("level", k)))
        if kept is None:
            return support()
        return _plan(kept[1][-1], "support", (level.index,), support)

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
    """Orthonormal oriented basis of span{e1, e2}, unit up to sign; for
    (N, m) stacks of e1 and e2, the (N, m) stacks of the planes' bases.

    u1 is the first of e1, e2 and e1 + e2 that is not null, and u2 the
    other generator made orthogonal to it, each normalized.  Every step is
    the one-plane scalar step elementwise: a @ g0 @ b in the one-plane BLAS
    shapes, and square roots by `np.float_power`, which is Python's pow, so
    each plane's basis is its own to the bit.  Raises DegeneratePlaneError
    when the induced form on some plane is degenerate (or the vectors are
    dependent, or not finite)."""
    def form(a, b):
        return np.matmul(np.matmul(a[..., None, :], g0), b[..., :, None])[..., 0, 0]

    with np.errstate(all="ignore"):  # a rejected plane raises below
        q11, q12, q22 = form(e1, e1), form(e1, e2), form(e2, e2)
        scale = np.maximum(np.maximum(abs(q11), abs(q12)), abs(q22))
        ok = abs(q11 * q22 - q12 * q12) > _PLANE_TOL * scale * scale
        # where e1 and e2 are both null, e1 + e2 is not, the form being
        # nondegenerate
        null1, null2 = abs(q11) <= _PLANE_TOL * scale, abs(q22) <= _PLANE_TOL * scale
        alone2 = null1 & ~null2  # u1 from e2 alone
        c1, c2 = np.where(alone2, 0.0, 1.0), np.where(null1, 1.0, 0.0)
        q = c1 * c1 * q11 + 2.0 * c1 * c2 * q12 + c2 * c2 * q22
        eps1 = np.where(q > 0, 1.0, -1.0)
        s1 = np.float_power(abs(q), 0.5)
        u1 = (c1[..., None] * e1 + c2[..., None] * e2) / s1[..., None]
        a1, a2 = c1 / s1, c2 / s1
        # the other generator: e2 unless u1 came from it alone
        w = np.where(alone2[..., None], e1, e2)
        w1, w2 = np.where(alone2, 1.0, 0.0), np.where(alone2, 0.0, 1.0)
        proj = eps1 * form(w, u1)
        v = w - proj[..., None] * u1
        b1, b2 = w1 - proj * a1, w2 - proj * a2
        qv = form(v, v)
        ok &= abs(qv) > _PLANE_TOL * scale
        s2 = np.float_power(abs(qv), 0.5)
        u2 = v / s2[..., None]
        b1, b2 = b1 / s2, b2 / s2
        u2 = np.where((a1 * b2 - a2 * b1 < 0.0)[..., None], -u2, u2)
    if not ok.all():
        raise DegeneratePlaneError("degenerate 2-plane for this metric")
    return u1, u2


def skew_curvature_operator(
    ctx: CurvatureContext, e1: Sequence[float], e2: Sequence[float]
) -> np.ndarray:
    """Matrix of v -> metric-dual of R(u1, u2, v, .), with (u1, u2) the
    oriented orthonormalization of the given plane; for (N, m) stacks of
    e1 and e2, the (N, m, m) stack of the planes' matrices, each the
    one-plane matrix bit for bit.  If any plane of a stack is degenerate,
    the call raises DegeneratePlaneError."""
    e1, e2 = np.asarray(e1, float), np.asarray(e2, float)
    if e1.shape != e2.shape or e1.shape[-1:] != (ctx.dim,) or e1.ndim > 2:
        raise ValueError(f"plane vectors must have length {ctx.dim}")
    u1, u2 = _plane_basis(ctx.g0, e1, e2)
    low = _contract(ctx.curvature(0), [((0,), u1), ((1,), u2)], (2, 3))
    return np.matmul(ctx.ginv0, np.swapaxes(low, -1, -2))
