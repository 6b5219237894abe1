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
be nonzero, keyed by index tuples, and missing keys are exact zeros.  It
reads as a dictionary from index tuple to jet (a view of the row).  Support
is propagated level to level (a new nonzero needs either a derivative of an
old one or a Christoffel hook into one), and an exhaustive all-indices
evaluator is kept alongside as a slow cross-check.  Each step after level 0
evaluates all components of its level at once: derivatives as gathers and
Christoffel terms as one row-batched jet product (vector-mode Taylor
propagation: Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM
2008, ch. 13), summed in the order of a loop over the components, so every
coefficient is that loop's to the last bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct
from typing import Iterable, Mapping, Sequence

import numpy as np

from .jets import Jet, JetOrderError, _ramps, jet_space
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
    `values[r]` its value, in the context's level order; zeros are omitted.
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

    def dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        n = self.dim ** self.rank
        if n > cap:
            raise ValueError(f"dense tensor would hold {n} entries, cap is {cap}")
        out = np.zeros((self.dim,) * self.rank)
        out[tuple(self.index.T)] = self.values
        return out


ChristoffelTerms = dict[tuple[int, int, int], tuple[tuple[int, tuple[int, int], float], ...]]


def christoffel_terms(spec: MetricSpec) -> ChristoffelTerms:
    """First-kind Christoffel symbols of `spec` that can be nonzero, as sums.

    Gamma_abc = 1/2 (d_a g_bc + d_b g_ac - d_c g_ab).  Keys (a, b, c) come in
    sorted order; each maps to its terms (v, (i, j), h), meaning h d_v g_ij
    with i <= j, keeping only the terms whose g_ij depends on coordinate v.
    Dependence is symbolic (`expr.free_vars`), so it holds at every point.
    """
    deps: dict[tuple[int, int], frozenset[int]] = {}
    for i, j in iproduct(range(spec.dim), repeat=2):
        names = ex.free_vars(spec.components[i][j])
        if names:
            deps[(i, j)] = frozenset(spec.coords.index(n) for n in names)
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
    would, so the sums are those of that loop bit for bit.
    """
    w = view.values
    for slots, a in factors:
        w = w * np.asarray(a, dtype=float)[tuple(view.index[:, s] for s in slots)]
    bins = np.zeros(len(w), dtype=np.intp)
    for s in out_slots:
        bins = bins * view.dim + view.index[:, s]
    size = view.dim ** len(out_slots)
    return np.bincount(bins, weights=w, minlength=size).reshape((view.dim,) * len(out_slots))


def _runs(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order of `key` (values below n), with the start and the
    length of each value's run in it."""
    length = np.bincount(key, minlength=n)
    return np.argsort(key, kind="stable"), np.cumsum(length) - length, length


def _expand(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs given by start and length: each member's run, and its position."""
    return np.repeat(np.arange(len(length)), length), np.repeat(start, length) + _ramps(length)


def _digit_weights(dim: int, r: int) -> np.ndarray:
    """Weights that read an r-index tuple as one base-dim number (Python
    ints where int64 would overflow)."""
    wide = np.int64 if dim ** r < 2 ** 63 else object
    return np.array([dim ** (r - 1 - s) for s in range(r)], dtype=wide)


class _Level(dict):
    """The jets of one curvature level by index tuple, in level order.

    Jet r is a view of row r of `coef`, and row r of `index` is its key.
    """

    def __init__(self, keys: list, index: np.ndarray, coef: np.ndarray, space):
        super().__init__(zip(keys, [Jet(space, row) for row in coef]))
        self.index = index
        self.coef = coef

    def depends(self, space) -> np.ndarray:
        """(row, variable) flags: the row has a nonzero coefficient whose
        exponent of the variable is positive, so its derivative by the
        variable is not identically zero.  `space` is the rows' space."""
        row, col = np.nonzero(self.coef)
        at, var = np.nonzero(space._exps[col] > 0)
        out = np.zeros((len(self.coef), space.n), dtype=bool)
        out[row[at], var] = True
        return out

    @classmethod
    def of(cls, jets: Mapping[tuple[int, ...], Jet], rank: int, space) -> "_Level":
        keys = list(jets)
        index = np.array(keys, dtype=np.intp).reshape(len(keys), rank)
        coef = np.array([j.coef for j in jets.values()]).reshape(len(keys), space.size)
        return cls(keys, index, coef, space)


def _flush(coef: np.ndarray, scale: float) -> np.ndarray:
    """`coef` with the entries at machine noise against `scale` set to 0."""
    return np.where(np.abs(coef) <= 64.0 * np.finfo(float).eps * scale, 0.0, coef)


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

        env = spec.env_at(point)
        self.active = spec.active_vars
        self.act_idx = tuple(self.coords.index(v) for v in self.active)
        self._act_set = frozenset(self.act_idx)
        self._space = jet_space(self.active, self.order)

        # metric jets, both index orders sharing one object
        self._g: dict[tuple[int, int], Jet] = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                e = spec.components[i][j]
                if isinstance(e, ex.Const) and e.value == 0.0:
                    continue
                jet = ex.eval_jet(e, env, self.active, self.order)
                if jet.is_zero():
                    continue
                self._g[(i, j)] = jet
                self._g[(j, i)] = jet
        self._g_by_row: dict[int, list[tuple[int, Jet]]] = {}
        for (i, j), jet in self._g.items():
            self._g_by_row.setdefault(i, []).append((j, jet))

        # constant part taken from the jets themselves so that the Neumann
        # inverse is exact against them, not against a reevaluation
        g0 = np.zeros((self.dim, self.dim))
        for (i, j), jet in self._g.items():
            g0[i, j] = jet.value()
        self.g0 = g0
        h0 = np.linalg.inv(g0)
        self.ginv0 = 0.5 * (h0 + h0.T)

        self._ginv = self._neumann_inverse()
        self._gamma1 = self._christoffel_first()
        self._gamma2 = self._christoffel_second()

        # hooks for covariant-derivative terms: fwd[(a, b)] lists (c, jet)
        # with lower pair (a, b) and upper c.  The level steps read the same
        # lists as runs of the keys in `_gamma2` order, grouped stably by
        # lower pair a * dim + b (`_fwd_*`) and by upper index c (`_rev_*`).
        self._fwd: dict[tuple[int, int], list[tuple[int, Jet]]] = {}
        for (a, b, c), jet in self._gamma2.items():
            self._fwd.setdefault((a, b), []).append((c, jet))
        keys = np.array(list(self._gamma2), dtype=np.intp).reshape(-1, 3)
        gammas = list(self._gamma2.values())
        fwd, self._fwd_start, self._fwd_len = _runs(keys[:, 0] * self.dim + keys[:, 1],
                                                    self.dim ** 2)
        self._fwd_upper = keys[fwd, 2]
        self._fwd_jets = [gammas[h] for h in fwd.tolist()]
        rev, self._rev_start, self._rev_len = _runs(keys[:, 2], self.dim)
        self._rev_lower = keys[rev, :2]
        self._act_pos = np.full(self.dim, -1)
        self._act_pos[list(self.act_idx)] = np.arange(len(self.act_idx))

        self._levels: list[_Level] = []
        self._views: dict[int, TensorField] = {}

    # ------------------------------------------------------------ plumbing
    def _neumann_inverse(self) -> dict[tuple[int, int], Jet]:
        """Inverse-metric jets at full order.

        With g = g0 + N and N free of constant term, N is nilpotent in the
        truncated algebra, so `order` sweeps of S <- h0 - h0 N S land on the
        exact truncated inverse.

        h0 is `ginv0` with its roundoff images of zero set to exact zeros, by
        the rule that cleans the result at the end (`_flush`).  An entry the
        exact inverse has as 0 often comes out of `np.linalg.inv` as about
        1e-17; through the sweeps it would fill the inverse jets (at p = 5
        in the family, 16,445 of 19,448 coefficients where 38 are nonzero),
        and every product with them would be dense.  max|h0| is at most the
        scale of the end flush, so the seed zeroes only entries that flush
        deletes from the constant terms anyway.  `ginv0` itself is kept as
        computed.  Both floors are stopgaps: coefficient error bounds are to
        replace them (ROADMAP, error-bounded zero decisions).
        """
        m = self.dim
        h0 = _flush(self.ginv0, np.max(np.abs(self.ginv0)))
        space = self._space
        nil: dict[tuple[int, int], Jet] = {}
        for (i, j), jet in self._g.items():
            if i > j:
                continue
            c = jet.coef.copy()
            c[0] = 0.0
            if not c.any():
                continue
            nj = Jet(space, c)
            nil[(i, j)] = nj
            if i != j:
                nil[(j, i)] = nj
        base: dict[tuple[int, int], Jet] = {}
        for i in range(m):
            for j in range(m):
                if h0[i, j] != 0.0:
                    base[(i, j)] = space.constant(h0[i, j])
        if not nil:
            return base
        s = dict(base)
        for _ in range(self.order):
            t: dict[tuple[int, int], Jet] = {}
            for (a, b), nj in nil.items():
                for c in range(m):
                    sj = s.get((b, c))
                    if sj is None:
                        continue
                    term = nj * sj
                    prev = t.get((a, c))
                    t[(a, c)] = term if prev is None else prev + term
            nxt = dict(base)
            for (a, c), tj in t.items():
                for i in range(m):
                    if h0[i, a] == 0.0:
                        continue
                    term = tj.scaled(h0[i, a])
                    prev = nxt.get((i, c))
                    nxt[(i, c)] = (-term) if prev is None else prev - term
            s = nxt
        # The sweeps are exact in exact arithmetic, so coefficients at machine
        # noise relative to the whole inverse are roundoff images of structural
        # zeros.  Left in place they make mathematically-zero Christoffel
        # symbols merely tiny, and those breed spurious curvature support that
        # grows exponentially with the derivative level.
        scale = max((np.max(np.abs(j.coef)) for j in s.values()), default=0.0)
        cleaned: dict[int, Jet | None] = {}
        out: dict[tuple[int, int], Jet] = {}
        for key, jet in s.items():
            mark = id(jet)
            if mark not in cleaned:
                coef = _flush(jet.coef, scale)
                cleaned[mark] = Jet(jet.space, coef) if coef.any() else None
            cj = cleaned[mark]
            if cj is not None:
                out[key] = cj
        return out

    def _christoffel_first(self) -> dict[tuple[int, int, int], Jet]:
        out: dict[tuple[int, int, int], Jet] = {}
        for key, terms in christoffel_terms(self.spec).items():
            acc = None
            for v, pair, h in terms:
                gj = self._g.get(pair)
                if gj is None:
                    continue
                term = gj.deriv(self.coords[v]).scaled(h)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                out[key] = acc
        return out

    def _christoffel_second(self) -> dict[tuple[int, int, int], Jet]:
        ord1 = self.order - 1
        by_col: dict[int, list[tuple[int, Jet]]] = {}
        for (c, d), jet in self._ginv.items():
            by_col.setdefault(d, []).append((c, jet.truncated(ord1)))
        acc: dict[tuple[int, int, int], Jet] = {}
        for (a, b, d), g1 in self._gamma1.items():
            for c, hj in by_col.get(d, ()):
                term = hj * g1
                key = (a, b, c)
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return {k: v for k, v in acc.items() if not v.is_zero()}

    # ------------------------------------------------------------ curvature
    def _edge_value(self, i: int, j: int, k: int, l: int, ord0: int) -> Jet | None:
        # one orientation: (d_i Gamma_jk^m) g_ml + Gamma_jk^m Gamma_iml
        acc = None
        for m_, gamma2 in self._fwd.get((j, k), ()):
            if i in self._act_set:
                gj = self._g.get((m_, l))
                if gj is not None:
                    term = gamma2.deriv(self.coords[i]) * gj.truncated(ord0)
                    acc = term if acc is None else acc + term
            g1 = self._gamma1.get((i, m_, l))
            if g1 is not None:
                term = gamma2.truncated(ord0) * g1.truncated(ord0)
                acc = term if acc is None else acc + term
        return acc

    def _riemann_candidates(self) -> set[tuple[int, int, int, int]]:
        """Index tuples a level-0 component can be nonzero at: a Christoffel
        hook whose derivative or product term can reach them."""
        gamma1_by_mid: dict[int, list[tuple[int, int]]] = {}
        for (a, b, c) in self._gamma1:
            gamma1_by_mid.setdefault(b, []).append((a, c))
        cand: set[tuple[int, int, int, int]] = set()
        for (q, k), lst in self._fwd.items():
            for m_, _ in lst:
                for l, _ in self._g_by_row.get(m_, ()):
                    for i in self.act_idx:
                        cand.add((i, q, k, l))
                        cand.add((q, i, k, l))
                for i, l in gamma1_by_mid.get(m_, ()):
                    cand.add((i, q, k, l))
                    cand.add((q, i, k, l))
        return cand

    def _riemann_jets(self, cand: Iterable[tuple[int, int, int, int]]) -> _Level:
        """Level-0 jets at the index tuples `cand`, zeros left out."""
        ord0 = self.order - 2
        out: dict[tuple[int, int, int, int], Jet] = {}
        for (i, j, k, l) in cand:
            a = self._edge_value(i, j, k, l, ord0)
            b = self._edge_value(j, i, k, l, ord0)
            if b is not None:
                a = (-b) if a is None else a - b
            if a is not None and not a.is_zero():
                out[(i, j, k, l)] = a
        return _Level.of(out, 4, jet_space(self.active, ord0))

    def _nabla_step(self, prev: _Level, ord_out: int) -> _Level:
        return self._nabla_jets(prev, self._nabla_candidates(prev.index), ord_out)

    def _nabla_candidates(self, index: np.ndarray) -> set[tuple[int, ...]]:
        """Index tuples the level after the one keyed by `index` can be
        nonzero at: a key with a derivative slot appended, or with one slot
        moved along a Christoffel hook and the hook's lower index appended.
        They go into the set key by key, derivative slots first and then
        slot by slot in hook order, which fixes the set's iteration order."""
        n, r = index.shape
        # the candidates as base-dim codes of their r + 1 indices
        weights = _digit_weights(self.dim, r + 1)
        codes = index @ weights[:-1]
        act = np.array(self.act_idx, dtype=np.intp)
        derived = np.repeat(np.arange(n), len(act))
        # (key, slot) pairs row by row, so the hooks come slot by slot
        at, h = _expand(self._rev_start[index].ravel(), self._rev_len[index].ravel())
        hooked, s = np.divmod(at, r)
        moved = codes[hooked] + (self._rev_lower[h, 1] - index.ravel()[at]) * weights[s]
        seq = np.concatenate((codes[derived] + np.tile(act, n), moved + self._rev_lower[h, 0]))
        seq = seq[np.argsort(np.concatenate((derived, hooked)), kind="stable")]
        # a repeat leaves a set as it was, so only first occurrences go in
        by_code = np.argsort(seq, kind="stable")
        first = np.ones(len(seq), dtype=bool)
        first[1:] = seq[by_code[1:]] != seq[by_code[:-1]]
        seq = seq[np.sort(by_code[first])]
        cand = np.empty((len(seq), r + 1), dtype=np.intp)
        for j in range(r, -1, -1):
            cand[:, j] = seq % self.dim
            seq = seq // self.dim
        return set(map(tuple, cand.tolist()))

    def _hook_terms(self, base, m_, codes, weights, find):
        """The Christoffel terms of the components (base; m_) as arrays of
        (component, hook, row of the previous level), in the order of the
        sum: component by component, slot by slot, then in hook order.
        `codes` are the bases as base-dim codes and `find` turns a code into
        its row of the previous level, -1 where it has none."""
        pair = (m_[:, None] * self.dim + base).ravel()
        at, hook = _expand(self._fwd_start[pair], self._fwd_len[pair])
        comp, s = np.divmod(at, base.shape[1])
        rep = find(codes[comp] + (self._fwd_upper[hook] - base.ravel()[at]) * weights[s])
        hit = rep >= 0
        return comp[hit], hook[hit], rep[hit]

    def _nabla_jets(self, prev: _Level, cand: Iterable[tuple[int, ...]], ord_out: int) -> _Level:
        """Jets of the level after `prev` at the index tuples `cand`, zeros
        left out: (nabla T)(i; m) = d_m T(i) - sum_s Gamma_{m i_s}^a T(i, a at s).

        All components at once: the derivatives by one gather per variable,
        the products by one `multiply_rows`.  A component subtracts its
        products from its derivative in the order of the sum, or starts
        from minus the first where it has no derivative, so every jet is
        that of a loop over the components bit for bit.
        """
        space = jet_space(self.active, ord_out)
        cand = list(cand)
        r = prev.index.shape[1]
        idx = np.fromiter(chain.from_iterable(cand), np.intp, len(cand) * (r + 1))
        idx = idx.reshape(-1, r + 1)
        if not prev:
            return _Level([], idx[:0], np.zeros((0, space.size)), space)
        # index tuples as base-dim codes, looked up in prev's sorted codes
        weights = _digit_weights(self.dim, r)
        prev_codes = prev.index @ weights
        by_code = np.argsort(prev_codes, kind="stable")
        sorted_codes = prev_codes[by_code]

        def find(codes):
            pos = np.minimum(np.searchsorted(sorted_codes, codes), len(by_code) - 1)
            return np.where(sorted_codes[pos] == codes, by_code[pos], -1)

        base, m_ = idx[:, :-1], idx[:, -1]
        codes = base @ weights
        tj = find(codes)
        var = self._act_pos[m_]
        has_d = (tj >= 0) & (var >= 0)
        comp, hook, rep = self._hook_terms(base, m_, codes, weights, find)
        n_terms = np.bincount(comp, minlength=len(cand))

        # rows to evaluate: those with a Christoffel term or a derivative
        # that is not identically zero
        prev_space = jet_space(self.active, ord_out + 1)
        live = n_terms > 0
        live[has_d] |= prev.depends(prev_space)[tj[has_d], var[has_d]]
        rows = np.flatnonzero(live)
        acc = np.empty((len(rows), space.size))
        started = has_d[rows]
        for v in np.flatnonzero(np.bincount(var[rows[started]], minlength=len(self.act_idx))):
            _, src, fac = prev_space.deriv_table(self.active[v])
            at = np.flatnonzero(started & (var[rows] == v))
            deriv = prev.coef[tj[rows[at]][:, None], src]
            deriv *= fac
            acc[at] = deriv
        if len(comp):
            gamma = np.array([jet.coef[: space.size] for jet in self._fwd_jets])
            prods = space.multiply_rows(gamma[hook], prev.coef[rep, : space.size])
            row = (np.cumsum(live) - 1)[comp]
            # term t of every component in one step, t = 0, 1, ...
            nth = _ramps(n_terms[n_terms > 0])
            by_nth = np.argsort(nth, kind="stable")
            ends = np.cumsum(np.bincount(nth)).tolist()
            for t, (start, end) in enumerate(zip([0] + ends, ends)):
                sel = by_nth[start:end]
                if t == 0:
                    fresh = ~started[row[sel]]
                    acc[row[sel[fresh]]] = -prods[sel[fresh]]
                    sel = sel[~fresh]
                acc[row[sel]] -= prods[sel]
        keep = acc.any(axis=1)
        if not keep.all():
            rows, acc = rows[keep], acc[keep]
        return _Level([cand[i] for i in rows.tolist()], idx[rows], acc, space)

    def _level(self, k: int) -> dict[tuple[int, ...], Jet]:
        if k < 0:
            raise ValueError("level must be >= 0")
        if k > self.max_deriv:
            raise JetOrderError(
                f"level {k} needs max_deriv >= {k}, context was built with {self.max_deriv}"
            )
        while len(self._levels) <= k:
            n = len(self._levels)
            if n == 0:
                self._levels.append(self._riemann_jets(self._riemann_candidates()))
            else:
                ord_out = self.order - 2 - n
                self._levels.append(self._nabla_step(self._levels[n - 1], ord_out))
        return self._levels[k]

    # ------------------------------------------------------------- read-out
    def christoffels(self) -> Christoffels:
        first = {k: j.value() for k, j in self._gamma1.items() if j.value() != 0.0}
        second = {k: j.value() for k, j in self._gamma2.items() if j.value() != 0.0}
        return Christoffels(self.dim, first, second)

    def curvature(self, k: int = 0) -> TensorField:
        """The level-k point values, built once per level.

        This is the one place that decides which components are zero at the
        point; every contraction reads this view.
        """
        view = self._views.get(k)
        if view is None:
            level = self._level(k)
            keep = level.coef[:, 0] != 0.0
            index = level.index[keep]
            values = level.coef[keep, 0]
            index.setflags(write=False)
            values.setflags(write=False)
            view = self._views[k] = TensorField(self.dim, k, index, values)
        return view

    def support(self, k: int = 0) -> frozenset[tuple[int, ...]]:
        """Index tuples whose level-k jet is not identically zero here."""
        return frozenset(self._level(k))

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
        """Recompute level k over every index tuple; cross-check for support
        propagation, exponential in k."""
        if self.dim ** (4 + k) > _EXHAUSTIVE_CAP:
            raise ValueError("exhaustive enumeration over cap")
        full = self._riemann_jets(iproduct(range(self.dim), repeat=4))
        for n in range(1, k + 1):
            ord_out = self.order - 2 - n
            if ord_out < 0:
                raise JetOrderError(
                    f"level {n} needs max_deriv >= {n}, context was built with {self.max_deriv}"
                )
            full = self._nabla_jets(full, iproduct(range(self.dim), repeat=4 + n), ord_out)
        return full


# ------------------------------------------------------------- operators
def jacobi_operator(ctx: CurvatureContext, direction: Sequence[float]) -> np.ndarray:
    """Matrix of v -> metric-dual of R(v, X, X, .) for X = `direction`."""
    x = np.asarray(direction, dtype=float)
    if x.shape != (ctx.dim,):
        raise ValueError(f"direction must have length {ctx.dim}")
    low = _contract(ctx.curvature(0), [((1,), x), ((2,), x)], (0, 3))
    return ctx.ginv0 @ low.T


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
    if abs(qv) <= _PLANE_TOL * max(1.0, scale):
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
    oriented orthonormalization of the given plane."""
    u1, u2 = _plane_basis(ctx.g0, np.asarray(e1, float), np.asarray(e2, float))
    low = _contract(ctx.curvature(0), [((0,), u1), ((1,), u2)], (2, 3))
    return ctx.ginv0 @ low.T
