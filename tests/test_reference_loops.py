"""Family read-outs, the curvature levels, the exhaustive curvature oracle
and the invariant catalog, bit for bit against the plain loops that computed
them before they were folded into shared helpers.

The reference functions below keep those loops: the frame built with unit
vectors and per-element assembly, the oracle and reference model each with
its own root loop, the closed alpha forms in numpy scalars, the Neumann
inverse sweeps and the second-kind Christoffel sum over dictionaries of jets,
the level-0 candidates and edge sums and the level steps one component and
one Christoffel term at a time, the exhaustive levels with their own
evaluation loops, the invariants one schema at a time, the jet products
with the pair table built on its own and the sparse pairs listed row by row
from nonzero(a) x nonzero(b), and the geodesic force as a tree of numpy
closures per metric entry (`compile_grad`) and a loop over the Christoffel
terms.  The Runge-Kutta route is checked against scipy's `solve_ivp`, the
code it was ported from.  Results must agree to the last bit (`tobytes()` or
pickle), not just to a tolerance.
"""
import hashlib
import math
import pickle
from itertools import accumulate, chain, permutations
from itertools import product as iproduct
from random import Random
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetgeo import expr as ex
from jetgeo import family as fam
from jetgeo import geodesics as geo
from jetgeo import invariants as inv
from jetgeo import cli
from jetgeo import curvature as cv
from jetgeo.curvature import (
    CurvatureContext,
    DegeneratePlaneError,
    christoffel_terms,
    jacobi_operator,
    skew_curvature_operator,
)
from jetgeo.invariants import WORK_LIMIT, CapsExceededError, ContractionSchema
from jetgeo.jets import SPARSE_PAIR_COST, Jet, NonFiniteError, _ramps, jet_space
from jetgeo.metric import MetricSpec, metric_from_strings, two_sphere
from test_expr import CHART as EXPR_CHART
from test_expr import exprs
from test_curvature import metric_jets
from test_geodesics import force_cases, substitution_solve
from test_symbolic_oracle import METRICS as ORACLE_METRICS

PROFILES = ["exp(y) + exp(2*y)", "exp(y) - cos(2*y)", "2 + sin(y)^3 + y^0"]


# ------------------------------------------------------------ reference loops
def _fall(n, j):
    out = 1.0
    for t in range(j):
        out *= n - t
    return out


def ref_oracle_nabla_k_r(params, point, k):
    p = params.p
    y = float(point[1])
    zv = [float(point[2 + i]) for i in range(p + 1)]
    d = fam.profile_derivs(params, y, k + 2)
    ax, ay = 0, 1
    a_val = d[k + 2]
    for i in range(p + 1):
        if i >= k + 1:
            a_val += _fall(i + 1, k + 2) * y ** (i - k - 1) * zv[i]
    roots = {}
    if a_val != 0.0:
        roots[(ax, ay, ay, ax) + (ay,) * k] = a_val
    for i in range(p + 1):
        b_val = _fall(i + 1, k + 1) * (y ** (i - k) if i >= k else 0.0)
        if b_val == 0.0:
            continue
        zi = 2 + i
        roots[(ax, ay, zi, ax) + (ay,) * k] = b_val
        for s in range(k):
            tail = tuple(zi if t == s else ay for t in range(k))
            roots[(ax, ay, ay, ax) + tail] = b_val
    return fam.complete_curvature_symmetries(roots)


def ref_reference_model(p, k_max):
    levels = []
    for k in range(k_max + 1):
        roots = {}
        if k in (p + 1, p + 2):
            roots[(0, 1, 1, 0) + (1,) * k] = 1.0
        if 0 <= k <= p:
            zi = 2 + k
            roots[(0, 1, zi, 0) + (1,) * k] = 1.0
            for s in range(k):
                tail = tuple(zi if t == s else 1 for t in range(k))
                roots[(0, 1, 1, 0) + tail] = 1.0
        levels.append(fam.complete_curvature_symmetries(roots))
    return fam.CurvatureModel(p + 3, tuple(levels))


def ref_alpha(params, y):
    p = params.p
    d = fam.profile_derivs(params, y, p + 6)
    a, b, c, e = d[p + 3], d[p + 4], d[p + 5], d[p + 6]
    if a <= 0.0 or b <= 0.0:
        raise fam.PositivityError(
            f"profile needs derivative orders {p + 3} and {p + 4} positive at y={y}"
        )
    return (float(a * c / (b * b)),
            float((b * c + a * e) / (b * b) - 2.0 * a * c * c / (b * b * b)))


def ref_normalize_frame(params, point):
    p = params.p
    spec = fam.build_metric(params)
    m = spec.dim
    pt = tuple(float(v) for v in point)
    env = spec.env_at(pt)
    y = env["y"]
    d = fam.profile_derivs(params, y, p + 4)
    eps1 = float(d[p + 3] / d[p + 4])
    norm_sq = eps1 ** (p + 3) * float(d[p + 3])
    if norm_sq <= 0.0:
        raise fam.PositivityError(
            f"curvature normalization needs eps1^(p+3) f^(p+3) > 0 at y={y}; got {norm_sq}"
        )
    eps0 = norm_sq ** -0.5
    big_f = d[0] + sum(y ** (i + 1) * env[f"z{i}"] for i in range(p + 1))
    ixb, iyb = p + 3, p + 4
    xvec = np.zeros(m)
    xvec[0] = 1.0
    xvec[ixb] = big_f

    a = np.zeros(max(p + 1, 0))
    bmat = np.zeros((max(p + 1, 0),) * 2)
    yvec = np.zeros(m)
    yvec[1] = 1.0
    if p >= 0:
        ctx = CurvatureContext(spec, pt, p)

        def yvec_with(coeffs):
            v = np.zeros(m)
            v[1] = 1.0
            for j in range(p + 1):
                v[2 + j] = coeffs[j]
            return v

        for k in range(p, -1, -1):
            def phi(t):
                c = a.copy()
                c[k] = t
                yv = yvec_with(c)
                return ctx.contract(k, [xvec, yv, yv, xvec] + [yv] * k)

            c0 = phi(0.0)
            a[k] = -c0 / (phi(1.0) - c0)

        yvec = yvec_with(a)
        mat = np.zeros((p + 1, p + 1))
        for k in range(p + 1):
            for l in range(p + 1):
                ecol = np.zeros(m)
                ecol[2 + l] = 1.0
                mat[k, l] = ctx.contract(k, [xvec, yvec, ecol, xvec] + [yvec] * k)
        for j in range(p + 1):
            for k in range(p, -1, -1):
                s = 1.0 if k == j else 0.0
                for l in range(k + 1, p + 1):
                    s -= mat[k, l] * bmat[j, l]
                bmat[j, k] = s / mat[k, k]

    zvecs = []
    for i in range(p + 1):
        v = np.zeros(m)
        for l in range(p + 1):
            v[2 + l] = bmat[i, l]
        zvecs.append(v)
    xbar = np.zeros(m)
    xbar[ixb] = 1.0
    ybar = np.zeros(m)
    ybar[iyb] = 1.0
    zbars = []
    if p >= 0:
        bhat = np.linalg.inv(bmat)
        for i in range(p + 1):
            v = np.zeros(m)
            v[iyb] = -float(a @ bhat[:, i])
            for j in range(p + 1):
                v[p + 5 + j] = bhat[j, i]
            zbars.append(v)

    raw = (xvec, yvec, *zvecs, xbar, ybar, *zbars)
    scaled = [eps0 * xvec, eps1 * yvec]
    for i in range(p + 1):
        scaled.append(eps0 ** -2 * eps1 ** -(i + 1) * zvecs[i])
    scaled.append(xbar / eps0)
    scaled.append(ybar / eps1)
    for i in range(p + 1):
        scaled.append(eps0 ** 2 * eps1 ** (i + 1) * zbars[i])
    return fam.Frame(params, pt, a, bmat, eps0, eps1, raw, tuple(scaled))


def ref_flush(coef, scale):
    return np.where(np.abs(coef) <= 64.0 * np.finfo(float).eps * scale, 0.0, coef)


def ref_neumann_inverse(ctx):
    m = ctx.dim
    h0 = ref_flush(ctx.ginv0, np.max(np.abs(ctx.ginv0)))
    space = jet_space(ctx.active, ctx.order)
    nil = {}
    for (i, j), jet in metric_jets(ctx).items():
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
    base = {}
    for i in range(m):
        for j in range(m):
            if h0[i, j] != 0.0:
                base[(i, j)] = space.constant(h0[i, j])
    if not nil:
        return base
    s = dict(base)
    for _ in range(ctx.order):
        t = {}
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
                term = tj * h0[i, a]
                prev = nxt.get((i, c))
                nxt[(i, c)] = (-term) if prev is None else prev - term
        s = nxt
    scale = max((np.max(np.abs(j.coef)) for j in s.values()), default=0.0)
    cleaned = {}
    out = {}
    for key, jet in s.items():
        mark = id(jet)
        if mark not in cleaned:
            coef = ref_flush(jet.coef, scale)
            cleaned[mark] = Jet(jet.space, coef) if coef.any() else None
        cj = cleaned[mark]
        if cj is not None:
            out[key] = cj
    return out


def ref_christoffel_second(ctx, ginv):
    ord1 = ctx.order - 1
    by_col = {}
    for (c, d), jet in ginv.items():
        by_col.setdefault(d, []).append((c, jet.truncated(ord1)))
    acc = {}
    for (a, b, d), g1 in ctx._gamma1.items():
        for c, hj in by_col.get(d, ()):
            term = hj * g1
            key = (a, b, c)
            prev = acc.get(key)
            acc[key] = term if prev is None else prev + term
    return {k: v for k, v in acc.items() if not v.is_zero()}


def ref_fwd(ctx):
    # hooks for covariant-derivative terms: fwd[(a, b)] lists (c, jet)
    # with lower pair (a, b) and upper c
    fwd = {}
    for (a, b, c), jet in ctx._gamma2.items():
        fwd.setdefault((a, b), []).append((c, jet))
    return fwd


def ref_edge_value(ctx, fwd, g, i, j, k, l, ord0):
    # one orientation: (d_i Gamma_jk^m) g_ml + Gamma_jk^m Gamma_iml
    acc = None
    for m_, gamma2 in fwd.get((j, k), ()):
        if i in ctx.act_idx:
            gj = g.get((m_, l))
            if gj is not None:
                term = gamma2.deriv(ctx.coords[i]) * gj.truncated(ord0)
                acc = term if acc is None else acc + term
        g1 = ctx._gamma1.get((i, m_, l))
        if g1 is not None:
            term = gamma2.truncated(ord0) * g1.truncated(ord0)
            acc = term if acc is None else acc + term
    return acc


def ref_canonical(idx):
    # the tuple with slots (0, 1) and (2, 3) each sorted, and the sign that
    # takes the level's value there to its value at idx: -1 per swapped
    # pair, 0 where a pair repeats an index
    i, j, k, l = idx[:4]
    if i == j or k == l:
        return None, 0
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if k > l:
        k, l, sign = l, k, -sign
    return (i, j, k, l) + tuple(idx[4:]), sign


def ref_canonical_tuples(dim, r):
    return [t for t in iproduct(range(dim), repeat=r) if ref_canonical(t) == (t, 1)]


def ref_images(idx, v):
    # a canonical tuple's value, then its three images with exact signs
    i, j, k, l = idx[:4]
    rest = tuple(idx[4:])
    return [(idx, v), ((j, i, k, l) + rest, -v), ((i, j, l, k) + rest, -v),
            ((j, i, l, k) + rest, v)]


def ref_moved_term(prev, gamma2, moved, ord_out):
    # Gamma times T(moved), read at moved's canonical row times its sign
    key, sign = ref_canonical(moved)
    rep = prev.get(key) if sign else None
    if rep is None:
        return None
    rep = rep.truncated(ord_out)
    return gamma2.truncated(ord_out) * (-rep if sign < 0 else rep)


def ref_riemann_candidates(ctx):
    fwd = ref_fwd(ctx)
    g_by_row = {}
    for (i, j), jet in metric_jets(ctx).items():
        g_by_row.setdefault(i, []).append((j, jet))
    gamma1_by_mid = {}
    for (a, b, c) in ctx._gamma1:
        gamma1_by_mid.setdefault(b, []).append((a, c))
    cand = set()

    def add(idx):
        key, sign = ref_canonical(idx)
        if sign:
            cand.add(key)

    for (q, k), lst in fwd.items():
        for m_, _ in lst:
            for l, _ in g_by_row.get(m_, ()):
                for i in ctx.act_idx:
                    add((i, q, k, l))
            for i, l in gamma1_by_mid.get(m_, ()):
                add((i, q, k, l))
    return cand


def ref_riemann_jets(ctx, cand):
    # the components in ascending order of their canonical tuples
    fwd, g = ref_fwd(ctx), metric_jets(ctx)
    ord0 = ctx.order - 2
    out = {}
    for (i, j, k, l) in sorted(cand):
        a = ref_edge_value(ctx, fwd, g, i, j, k, l, ord0)
        b = ref_edge_value(ctx, fwd, g, j, i, k, l, ord0)
        if b is not None:
            a = (-b) if a is None else a - b
        if a is not None and not a.is_zero():
            out[(i, j, k, l)] = a
    return out


def ref_level_exhaustive(ctx, k):
    fwd = ref_fwd(ctx)
    full = ref_riemann_jets(ctx, ref_canonical_tuples(ctx.dim, 4))
    for n in range(1, k + 1):
        ord_out = ctx.order - 2 - n
        nxt = {}
        for idx in ref_canonical_tuples(ctx.dim, 4 + n):
            base, m_ = idx[:-1], idx[-1]
            acc = None
            tj = full.get(base)
            if tj is not None and m_ in ctx.act_idx:
                acc = tj.deriv(ctx.coords[m_])
            for s, i_s in enumerate(base):
                for a, gamma2 in fwd.get((m_, i_s), ()):
                    term = ref_moved_term(full, gamma2, base[:s] + (a,) + base[s + 1:], ord_out)
                    if term is None:
                        continue
                    acc = (-term) if acc is None else acc - term
            if acc is not None and not acc.is_zero():
                nxt[idx] = acc
        full = nxt
    return full


def ref_nabla_candidates(ctx, prev):
    rev = {}
    for (a, b, c) in ctx._gamma2:
        rev.setdefault(c, []).append((a, b))
    cand = set()
    for idx in prev:
        for m_ in ctx.act_idx:
            cand.add(idx + (m_,))
        for s, a in enumerate(idx):
            for (m_, i_) in rev.get(a, ()):
                key, sign = ref_canonical(idx[:s] + (i_,) + idx[s + 1:] + (m_,))
                if sign:
                    cand.add(key)
    return cand


def ref_nabla_step(ctx, prev, ord_out):
    # the component loop of the level steps: candidates added to a set key
    # by key, then in ascending order each component's terms one Jet
    # product at a time
    fwd = ref_fwd(ctx)
    out = {}
    for full in sorted(ref_nabla_candidates(ctx, prev)):
        base_idx, m_ = full[:-1], full[-1]
        acc = None
        tj = prev.get(base_idx)
        if tj is not None and m_ in ctx.act_idx:
            acc = tj.deriv(ctx.coords[m_])
        for s, i_s in enumerate(base_idx):
            for a, gamma2 in fwd.get((m_, i_s), ()):
                term = ref_moved_term(prev, gamma2, base_idx[:s] + (a,) + base_idx[s + 1:],
                                      ord_out)
                if term is None:
                    continue
                acc = (-term) if acc is None else acc - term
        if acc is not None and not acc.is_zero():
            out[full] = acc
    return out


def ref_levels(ctx, k_max):
    levels = [ref_riemann_jets(ctx, ref_riemann_candidates(ctx))]
    for n in range(1, k_max + 1):
        levels.append(ref_nabla_step(ctx, levels[-1], ctx.order - 2 - n))
    return levels


def ref_view(level, k):
    # the point-value view: in level order, each nonzero canonical value
    # and its three images, zeros out
    rows = [pair for idx, jet in level.items() if jet.coef[0] != 0.0
            for pair in ref_images(idx, float(jet.coef[0]))]
    index = np.fromiter(chain.from_iterable(idx for idx, _ in rows), np.intp, len(rows) * (4 + k))
    return index.reshape(-1, 4 + k), np.array([v for _, v in rows], dtype=float)


def ref_evaluate(
    schema: ContractionSchema,
    spec: MetricSpec,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> float:
    """Value of the invariant at `point`, summed over sparse factor supports.

    The factors are joined one at a time over their level views
    (`CurvatureContext.curvature`).  A combination joins one component of
    each factor so far, held as one index column per joined slot, and it is
    dropped as soon as one of its closed pairs meets a zero of `ginv0`.  Each
    kept term is the product of the factor values and then of the g^ab in
    pairing order, and the terms are added in the order of nested loops over
    the factors.
    """
    ctx = context or CurvatureContext(spec, point, max(schema.factors))
    views = [ctx.curvature(k) for k in schema.factors]
    work = math.prod(max(1, len(view.values)) for view in views)
    if work > WORK_LIMIT:
        raise CapsExceededError(f"evaluation needs {work} support combinations")
    owner = [f for f, k in enumerate(schema.factors) for _ in range(4 + k)]
    g = ctx.ginv0
    cols: list[np.ndarray] = []
    weight = np.ones(1)
    for f, view in enumerate(views):
        n = len(view.values)
        rows = np.repeat(np.arange(len(weight)), n)
        pick = np.tile(np.arange(n), len(weight))
        cols = [c[rows] for c in cols] + list(view.index[pick].T)
        weight = weight[rows] * view.values[pick]
        keep = np.ones(len(weight), dtype=bool)
        for a, b in schema.pairing:
            if owner[b] == f:  # a < b, so the pair closes with factor f
                keep &= g[cols[a], cols[b]] != 0.0
        cols = [c[keep] for c in cols]
        weight = weight[keep]
    for a, b in schema.pairing:
        weight = weight * g[cols[a], cols[b]]
    return float(np.bincount(np.zeros(len(weight), dtype=np.intp), weights=weight, minlength=1)[0])


def ref_canonical_key(schema):
    # every factor order that sorts the levels, each relabelling built as a
    # dict, and the least relabelled pairing
    factors, pairing = schema.factors, schema.pairing
    ends = accumulate(4 + k for k in factors)
    slots = [range(end - 4 - k, end) for k, end in zip(factors, ends)]
    relabelled = []
    for order in permutations(range(len(factors))):
        if any(factors[i] > factors[j] for i, j in zip(order, order[1:])):
            continue
        new = {old: s for s, old in enumerate(chain.from_iterable(slots[i] for i in order))}
        relabelled.append(tuple(sorted(
            (min(new[a], new[b]), max(new[a], new[b])) for a, b in pairing
        )))
    return (tuple(sorted(factors)), min(relabelled))


def ref_all_matchings(slots):
    if not slots:
        yield ()
        return
    a = slots[0]
    for i in range(1, len(slots)):
        rest = slots[1:i] + slots[i + 1:]
        for tail in ref_all_matchings(rest):
            yield ((a, slots[i]),) + tail


def ref_catalog(max_factors, max_deriv, exhaustive_limit=1000):
    # every matching of every factor list, canonicalized and deduplicated,
    # then sorted
    seen, out, skipped = set(), [], []
    for factors in inv._factor_lists(max_factors, max_deriv):
        n = sum(4 + k for k in factors)
        cnt = inv.matching_count(n)
        if cnt == 0:
            continue
        if cnt > exhaustive_limit:
            skipped.append(factors)
            continue
        for pairing in ref_all_matchings(list(range(n))):
            key = ref_canonical_key(ContractionSchema(factors, pairing))
            if key not in seen:
                seen.add(key)
                out.append(ContractionSchema(*key))
    out.sort(key=lambda s: (len(s.factors), s.factors, s.pairing))
    return inv.CatalogResult(tuple(out), tuple(skipped))


def ref_random_schemas(count, max_factors, max_deriv, seed):
    # draws until `count` distinct canonical schemas or 200 * count attempts
    rng = Random(seed)
    pool = [f for f in inv._factor_lists(max_factors, max_deriv)
            if sum(4 + k for k in f) % 2 == 0]
    seen, out, attempts = set(), [], 0
    while len(out) < count and attempts < 200 * max(1, count):
        attempts += 1
        factors = pool[rng.randrange(len(pool))]
        slots = list(range(sum(4 + k for k in factors)))
        rng.shuffle(slots)
        pairing = tuple((slots[2 * i], slots[2 * i + 1]) for i in range(len(slots) // 2))
        key = ref_canonical_key(ContractionSchema(factors, pairing))
        if key not in seen:
            seen.add(key)
            out.append(ContractionSchema(*key))
    return tuple(out)


# the jet products: the pair table built apart from the sparse listing, the
# sparse pairs listed row by row, and the summation in two modes
def ref_pair_rows(self):
    # rows (r, s) of the pair table per rank r: s >= r and |s| <= K - |r|
    top = np.array([self.size_at(self.order - d) for d in range(self.order + 1)])
    return np.maximum(top[self._exps.sum(axis=1)] - np.arange(self.size), 0)


def ref_mul(self):
    # Symmetrized pair table: rows with ia < ib contribute
    # a[ia]*b[ib] + a[ib]*b[ia], diagonal rows contribute a[ia]*b[ia].
    # The symmetry makes a * b and b * a bit-identical.
    lengths = ref_pair_rows(self)
    ra = np.repeat(np.arange(self.size), lengths)
    rb = ra + _ramps(lengths)
    ro = np.searchsorted(self._codes, self._codes[ra] + self._codes[rb])
    diag = ra == rb
    off = ~diag
    return (ra[off], rb[off], ro[off], ra[diag], ro[diag])


def ref_accumulate(a, b, ia, ib, io, idg, idg_o) -> np.ndarray:
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


def ref_sparse_rows(self, a: np.ndarray, b: np.ndarray):
    # the pair-table rows that reach a nonzero coefficient of each
    # operand, in table order and split as `_mul` splits them; None
    # when a coefficient is not finite (the table's inf * 0 is nan)
    ia, ib = np.flatnonzero(a), np.flatnonzero(b)
    if not (np.isfinite(a[ia]).all() and np.isfinite(b[ib]).all()):
        return None
    deg = self._exps.sum(axis=1)
    i, j = np.nonzero(deg[ia][:, None] + deg[ib] <= self.order)
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


def ref_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    pairs = self._pairs
    if pairs > SPARSE_PAIR_COST:
        cost = np.count_nonzero(a) * SPARSE_PAIR_COST
        if cost < pairs and cost * np.count_nonzero(b) < pairs:
            rows = ref_sparse_rows(self, a, b)
            if rows is not None:
                return ref_accumulate(a, b, *rows)
    return ref_accumulate(a, b, *ref_mul(self))


def ref_multiply_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((len(a), self.size))
    step = max(1, SPARSE_PAIR_COST ** 2 // self._pairs)
    for r0 in range(0, len(a), step):
        x, y = a[r0:r0 + step], b[r0:r0 + step]
        sums = None
        if self._pairs > SPARSE_PAIR_COST:
            work = np.count_nonzero(x, axis=1) @ np.count_nonzero(y, axis=1)
            if work * SPARSE_PAIR_COST < len(x) * self._pairs:
                listed = [ref_sparse_rows(self, xr, yr) for xr, yr in zip(x, y)]
                if None not in listed:
                    at = range(0, x.size, self.size)
                    rows = [np.concatenate([t + o for t, o in zip(ts, at)]) for ts in zip(*listed)]
                    sums = ref_accumulate(x.ravel(), y.ravel(), *rows).reshape(x.shape)
        if sums is None:
            sums = ref_accumulate(x.T, y.T, *ref_mul(self)).T
        out[r0:r0 + len(x)] = sums
    return out


def ref_eval_jet(e: ex.Expr, base, active: Sequence[str], order: int) -> Jet:
    """`expr.eval_jet` with every node a dense jet over all of `active`."""
    space = jet_space(tuple(active), order)
    act = set(space.variables)

    def rec(node: ex.Expr) -> Jet:
        if isinstance(node, ex.Const):
            return space.constant(float(node.value))
        if isinstance(node, ex.Var):
            try:
                v = float(base[node.name])
            except KeyError:
                raise ex.UnknownVariableError(node.name, 0) from None
            if node.name in act:
                return space.variable(node.name, v)
            return space.constant(v)
        if isinstance(node, ex.Sum):
            acc = rec(node.terms[0])
            for t in node.terms[1:]:
                acc = acc + rec(t)
            return acc
        if isinstance(node, ex.Prod):
            acc = rec(node.factors[0])
            for f in node.factors[1:]:
                acc = acc * rec(f)
            return acc
        if isinstance(node, ex.Pow):
            return rec(node.base).pow(node.exponent)
        if isinstance(node, ex.Neg):
            return -rec(node.arg)
        if isinstance(node, ex.Exp):
            return rec(node.arg).exp()
        if isinstance(node, ex.Sin):
            return rec(node.arg).sin()
        if isinstance(node, ex.Cos):
            return rec(node.arg).cos()
        raise TypeError(f"not an Expr node: {node!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        out = rec(e)
    if not np.isfinite(out.coef).all():
        raise NonFiniteError("expression evaluation produced non-finite coefficients")
    return out


def ref_pointwise(fn, v):
    # math's function value by value, as in `eval_jet`: numpy's exp differs
    # from math.exp in the last bit for about one argument in twenty
    return fn(v) if np.ndim(v) == 0 else np.fromiter(map(fn, v.tolist()), float, len(v))


def ref_grad_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_grad_mul(a, b):  # the product rule of an order-1 jet, a0*b' + a'*b0
    return a[0] * b[0], a[0] * b[1] + a[1] * b[0]


# (function, derivative); None: the derivative is the function's value
REF_ANALYTIC = {ex.Exp: (math.exp, None), ex.Sin: (math.sin, math.cos),
                ex.Cos: (math.cos, lambda t: -math.sin(t))}


def ref_compile_grad(
    e: ex.Expr, active: Sequence[str]
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Compile `e` once into a function from an (N, n) array of points
    (columns in the order of `active`) to the values (N,) and first partials
    (N, n): forward-mode differentiation over arrays (Griewank and Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008) with the arithmetic of an
    order-1 `eval_jet`, whose results it equals bit for bit up to the sign of
    a zero.  Raises NonFiniteError on an exp argument >= 709, a non-finite
    argument of sin or cos, or a non-finite value or partial, with no numpy
    warning on the way."""
    pos = {name: k for k, name in enumerate(active)}
    zero = np.zeros((len(pos), 1))
    unit = np.eye(len(pos))[:, :, None]  # unit[k]: the gradient of variable k

    # a node becomes a function of the points, one contiguous row per
    # variable, to its value (a float or (N,)) and gradient ((n, N), or
    # (n, 1) to broadcast)
    def build(node: ex.Expr):
        if isinstance(node, ex.Const):
            return lambda x, c=float(node.value): (c, zero)
        if isinstance(node, ex.Var):
            if node.name not in pos:
                raise ex.UnknownVariableError(node.name, 0)
            k = pos[node.name]
            return lambda x: (x[k], unit[k])
        if isinstance(node, (ex.Sum, ex.Prod)):
            parts = [build(t) for t in ex._children(node)]
            step = ref_grad_add if isinstance(node, ex.Sum) else ref_grad_mul

            def fold(x):
                acc = parts[0](x)
                for f in parts[1:]:
                    acc = step(acc, f(x))
                return acc
            return fold
        arg = build(ex._children(node)[0])
        if isinstance(node, ex.Pow):
            def power(x):
                out, b, k = (1.0, zero), arg(x), node.exponent
                while k:
                    if k & 1:
                        out = ref_grad_mul(out, b)
                    k >>= 1
                    if k:
                        b = ref_grad_mul(b, b)
                return out
            return power
        if isinstance(node, ex.Neg):
            return lambda x: ref_grad_mul((-1.0, zero), arg(x))
        fn, slope = REF_ANALYTIC[type(node)]

        def analytic(x):
            v, g = arg(x)
            # a nan argument of exp gives nan, which the final check catches
            if np.any(v >= 709.0 if fn is math.exp else ~np.isfinite(v)):
                raise ex.NonFiniteError(f"{fn.__name__} overflow or non-finite argument at {np.max(v)}")
            out = ref_pointwise(fn, v)
            return out, (out if slope is None else ref_pointwise(slope, v)) * g
        return analytic

    root = build(e)

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.ascontiguousarray(np.asarray(points, dtype=float).T)
        with np.errstate(all="ignore"):
            v, g = root(x)
            # adding zeros gives constants and broadcast gradients full shape
            value = v + np.zeros(x.shape[1])
            grad = (np.zeros(x.shape) + g).T
        if not (np.isfinite(value).all() and np.isfinite(grad).all()):
            raise ex.NonFiniteError("expression evaluation produced a non-finite value or partial")
        return value, grad

    return evaluate


class ref_ChristoffelPointEvaluator:
    """Geodesic force for a metric, over many points at once.

    Each structurally nonzero metric entry that varies is compiled once
    (`expr.compile_grad`); a call evaluates the values and first partials
    of those entries at every point, sums the terms of
    `curvature.christoffel_terms` on the partials, and solves all the
    systems g G = w, w_c = sum over velocities of du^a du^b Gamma_abc, by
    `test_geodesics.substitution_solve`."""

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        m = spec.dim
        self.active = spec.active_vars
        self._cols = [spec.coords.index(name) for name in self.active]
        partial = {c: k for k, c in enumerate(self._cols)}  # coordinate -> partial
        self._g0 = np.zeros((m, m))  # the constant entries
        self._entries = []  # (i, j, compiled) for the varying entries, i <= j
        for i in range(m):
            for j in range(i, m):
                e = spec.components[i][j]
                if ex.free_vars(e):
                    self._entries.append((i, j, ref_compile_grad(e, self.active)))
                else:
                    self._g0[i, j] = self._g0[j, i] = ex.eval_point(e, {})
        self._terms = [
            (a, b, c, tuple((partial[v], pair, h) for v, pair, h in terms))
            for (a, b, c), terms in christoffel_terms(spec).items()
        ]

    def force(self, points: Sequence[float] | np.ndarray, velocities: np.ndarray) -> np.ndarray:
        """G with lower index raised, g^{cd} w_d, for (N, m) points and
        velocities, as (N, m); one point and velocity of shape (m,) give
        (m,).  The acceleration is -G."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        vel = np.atleast_2d(np.asarray(velocities, dtype=float))
        g = np.repeat(self._g0[None], len(pts), axis=0)
        grads = {}
        x = pts[:, self._cols]
        for i, j, compiled in self._entries:
            g[:, i, j], grads[(i, j)] = compiled(x)
            g[:, j, i] = g[:, i, j]
        w = np.zeros(vel.shape)
        for a, b, c, terms in self._terms:
            w[:, c] += vel[:, a] * vel[:, b] * sum(h * grads[pair][:, s] for s, pair, h in terms)
        out = substitution_solve(self.spec, g, w)
        return out[0] if single else out


def ref_force(spec):
    return ref_ChristoffelPointEvaluator(spec).force


def ref_integrate_ivp(spec, start, velocity, t_end, n_samples=101, force=None):
    """`geodesics.integrate_ivp` as scipy's DOP853 solve, driven by
    `ref_force` or by `force`."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    m, force = spec.dim, force or ref_force(spec)

    def rhs(_t, y):
        return np.concatenate([y[m:], -force(y[:m], y[m:])])

    res = solve_ivp(rhs, (0.0, float(t_end)), np.concatenate([start, velocity]),
                    method="DOP853", t_eval=np.linspace(0.0, float(t_end), n_samples),
                    rtol=geo._RK_RTOL, atol=geo._RK_ATOL)
    assert res.success
    return res.t, res.y.T[:, :m], res.y.T[:, m:]


def ref_ordered_sum(cols, acc, row, terms, sign=1, started=None):
    """The ordered sum rank by rank: the n-th terms of all rows in one
    vector step, n = 0, 1, ..., within blocks of SPARSE_PAIR_COST ** 2
    coefficients."""
    fresh = np.ones(len(acc), dtype=bool) if started is None else ~started
    nth = np.empty(len(row), dtype=np.intp)
    nth[np.argsort(row, kind="stable")] = _ramps(np.bincount(row))
    add = np.subtract if sign < 0 else np.add
    step = max(1, SPARSE_PAIR_COST ** 2 // max(1, len(cols)))
    for t0 in range(0, len(row), step):
        ts = slice(t0, t0 + step)
        vals, n, rows = cv._widen(*terms(ts), cols), nth[ts], row[ts]
        by_n = np.argsort(n, kind="stable")
        ends = np.cumsum(np.bincount(n)).tolist()
        for k, (lo, hi) in enumerate(zip([0] + ends, ends)):
            sel = by_n[lo:hi]
            r = rows[sel]
            if k == 0:
                new = fresh[r]
                acc[r[new]] = -vals[sel[new]] if sign < 0 else vals[sel[new]]
                sel, r = sel[~new], r[~new]
            acc[r] = add(acc[r], vals[sel])


def ref_squared_operators(ctx, rng, samples):
    """The nilpotency check's loop: per sample a direction and a plane
    drawn in turn, J(x)^2 and then R(e1, e2)^2 unless the plane is
    degenerate."""
    worst = 0.0
    for _ in range(samples):
        xi = rng.standard_normal(ctx.dim)
        jac = jacobi_operator(ctx, xi)
        worst = max(worst, float(np.max(np.abs(jac @ jac))))
        try:
            sk = skew_curvature_operator(
                ctx, rng.standard_normal(ctx.dim), rng.standard_normal(ctx.dim))
        except DegeneratePlaneError:
            continue
        worst = max(worst, float(np.max(np.abs(sk @ sk))))
    return worst


# ------------------------------------------------------------------ helpers
def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def same_arrays(got, want):
    return len(got) == len(want) and all(
        np.shape(g) == np.shape(w) and bits(g) == bits(w) for g, w in zip(got, want)
    )


def same_jets(got, want):
    """Same keys in the same order, and the same coefficients to the bit, up
    to the sign of a zero: a fresh row of a minus sum in the loops starts
    from -term, which leaves -0.0 in every column no term touches, and the
    context keeps no column where all its jets are zero."""
    return list(got) == list(want) and all(
        bits(got[key].coef + 0.0) == bits(jet.coef + 0.0) for key, jet in want.items())


def same_frames(got, want):
    return (
        got.point == want.point
        and same_arrays([got.a, got.b], [want.a, want.b])
        and bits([got.eps0, got.eps1]) == bits([want.eps0, want.eps1])
        and same_arrays(got.raw, want.raw)
        and same_arrays(got.rescaled, want.rescaled)
    )


def outcome(fn):
    """fn's result, or the PositivityError it raised."""
    try:
        return fn()
    except fam.PositivityError as err:
        return err


def same_errors(got, want):
    return type(got) is type(want) and str(got) == str(want)


def jet_outcome(fn):
    """fn's jet, or the error an overflow raised (ValueError: math.sin(inf))."""
    try:
        return fn()
    except (NonFiniteError, ValueError) as err:
        return err


MEMBERS = [(p, text) for p in range(4) for text in PROFILES]
IDS = [f"p={p} {text}" for p, text in MEMBERS]
# a sample of y on which every member has at least two valid frames and two
# positive alpha denominators, and several invalid ones
Y_GRID = (-1.5, -0.9, -0.6, -0.3, -0.2, 0.1, 0.4, 0.8, 1.2)


def _points(p, text):
    params = fam.FamilyParams(p, ex.parse(text, ("y",)))
    for y in Y_GRID:
        z = [0.1 * (i + 1) * (-1) ** i for i in range(p + 1)]
        yield params, fam.base_point(params, y, z)


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("p,text", MEMBERS, ids=IDS)
def test_frame_and_quotient_model_match_loops(p, text):
    valid = 0
    for params, pt in _points(p, text):
        want = outcome(lambda: ref_normalize_frame(params, pt))
        got = outcome(lambda: fam.normalize_frame(params, pt))
        if isinstance(want, Exception):
            assert same_errors(got, want)
            continue
        valid += 1
        assert same_frames(got, want)
        ctx = CurvatureContext(fam.build_metric(params), pt, p + 2)
        reps = want.rescaled[: p + 3]
        levels = tuple(fam._frame_components(ctx, k, reps) for k in range(p + 3))
        model = fam.quotient_model(params, pt, context=ctx)
        assert pickle.dumps(model.levels) == pickle.dumps(levels)
    assert valid >= 2


@pytest.mark.parametrize("p,text", MEMBERS, ids=IDS)
def test_oracle_and_alpha_match_loops(p, text):
    valid = 0
    for params, pt in _points(p, text):
        for k in range(p + 4):
            got = fam.oracle_nabla_k_r(params, pt, k)
            assert pickle.dumps(got) == pickle.dumps(ref_oracle_nabla_k_r(params, pt, k))
        with np.errstate(all="ignore"):
            want = outcome(lambda: ref_alpha(params, pt[1]))
        got = outcome(lambda: (fam.alpha_closed_form(params, pt[1]),
                               fam.alpha_prime(params, pt[1])))
        if isinstance(want, Exception):
            assert same_errors(got, want)
            continue
        valid += 1
        assert bits(got) == bits(want)
    assert valid >= 2


def test_oracle_delta_is_a_python_float():
    params, pt = next(_points(1, PROFILES[0]))
    ctx = CurvatureContext(fam.build_metric(params), pt, 2)
    for k in range(3):
        assert type(fam.oracle_delta(params, pt, k, context=ctx)) is float


@pytest.mark.parametrize("p", range(-1, 5))
def test_reference_model_matches_loops(p):
    got = fam.reference_model(p)
    assert got.dim == p + 3 and len(got.levels) == p + 3
    for k_max in range(p + 3):
        assert pickle.dumps(got.levels[:k_max + 1]) == pickle.dumps(
            ref_reference_model(p, k_max).levels)


def _exhaustive_cases():
    yield "S2", CurvatureContext(two_sphere(), (0.8, 0.1), 3), 3
    spec = metric_from_strings(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"},
        (0, 3),
    )
    yield "non-diagonal", CurvatureContext(spec, (0.2, -0.3, 0.1), 2), 2


@pytest.mark.parametrize("name,ctx,k_max", list(_exhaustive_cases()),
                         ids=["S2", "non-diagonal"])
def test_level_exhaustive_matches_loops(name, ctx, k_max):
    for k in range(k_max + 1):
        assert same_jets(ctx.level_exhaustive(k), ref_level_exhaustive(ctx, k))


def _conformal(x, y, q, scale=""):
    u = f"({q[0]}*{x}^2 + {q[1]}*{x}*{y} + {q[2]}*{y}^2 + {q[3]}*{x} + {q[4]}*{y})"
    return (x, y), (f"{scale}exp(2.0*{u})",) * 2


def _diagonal(*blocks):
    # block-diagonal metric from (coordinates, diagonal entries) blocks
    coords = [c for names, _ in blocks for c in names]
    entries = [e for _, diag in blocks for e in diag]
    return metric_from_strings(coords, {(i, i): e for i, e in enumerate(entries)},
                               (0, len(coords)))


SPHERE = (("theta", "phi"), ("1.0", "sin(theta)^2"))
H2 = (("x", "y"), ("1.0", "exp(2.0*x)"))
CONFORMAL = _conformal("x", "y", (0.31, -0.12, 0.07, 0.22, -0.18))
CONFORMAL_ST = _conformal("s", "t", (0.2, 0.15, -0.05, -0.1, 0.25))
BLOCK_SCALED = (_conformal("s", "t", (0.3, 0.2, -0.25, 0.1, -0.2), "1e-08*"),
                (("x", "w"), ("1.0", "exp(0.001*x^2)")))


def _level_cases():
    yield "S2", _diagonal(SPHERE), (1.1, 0.4), 6
    yield "H2", _diagonal(H2), (-0.1, 0.3), 6  # roundoff images of zero from k = 2 on
    yield "conformal", _diagonal(CONFORMAL), (0.2, -0.35), 6
    yield "S2 x conformal", _diagonal(SPHERE, CONFORMAL_ST), (0.9, -1.2, 0.3, 0.1), 4
    # the benchmark's block-scaled product: `ref_neumann_inverse`'s global
    # flush cuts its small block's inverse, the context's structural seed
    # does not (test_block_scaled_product_is_each_block_alone)
    yield "block-scaled product", _diagonal(*BLOCK_SCALED), (0.1, 0.2, 0.7, 0.4), 4
    yield "non-diagonal", metric_from_strings(
        ("a", "b", "c"),
        {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
         (0, 1): "0.5*a", (1, 2): "0.25*c"},
        (0, 3),
    ), (0.2, -0.3, 0.1), 3
    # g_00 = 0 at the point and g_01 not constant: h0 holds an exact zero
    # at g^yy, the first sweep reaches that entry, and the second must plan
    # the term N_01 S_11 that it brings
    yield "indefinite, g_00 = 0", metric_from_strings(
        ("x", "y"), {(0, 0): "x + 0.3*y^2", (0, 1): "1 + 0.5*x - 0.2*y", (1, 1): "2.0 + y"},
        (1, 1),
    ), (0.0, 0.0), 3
    # levels k >= 1 are empty on these two
    yield "flat", _diagonal((("a", "b", "c"), ("1.0", "2.0", "3.0"))), (0.1, 0.2, 0.3), 3
    yield "H2 x line", _diagonal((("x", "y", "z"), ("1.0", "exp(2.0*x)", "1.0"))), \
        (0.4, 0.1, -0.2), 3
    for p in range(4):
        params, pt = next(_points(p, PROFILES[p % len(PROFILES)]))
        yield f"family p={p}", fam.build_metric(params), pt, p + 3
    # g_00 = f(0) = 0: h0 holds an exact zero at g^xbar xbar, inside the
    # structural pattern of g^-1, and the sweeps find that entry after the
    # base keys
    params = fam.FamilyParams(1, ex.parse("y^8 + y^9", ("y",)))
    yield "family p=1, g_00 = 0", fam.build_metric(params), \
        fam.base_point(params, 0.0, [0.1, 0.2]), 4


LEVEL_CASES = list(_level_cases())


@pytest.mark.parametrize("name,spec,pt,k_max", LEVEL_CASES, ids=[c[0] for c in LEVEL_CASES])
def test_levels_match_component_loop(name, spec, pt, k_max):
    ctx = CurvatureContext(spec, pt, k_max)
    if name == "block-scaled product":  # the loops from here on take the context's inverse
        ginv = dict(ctx._ginv.items())
    else:
        ginv = ref_neumann_inverse(ctx)
        assert same_jets(ctx._ginv, ginv)
    assert same_jets(ctx._gamma2, ref_christoffel_second(ctx, ginv))
    want = ref_levels(ctx, k_max)
    for k in range(k_max + 1):
        got = ctx._level(k)
        assert same_jets(got, want[k])
        view = ctx.curvature(k)
        index, values = ref_view(want[k], k)
        assert view.index.dtype == index.dtype and view.index.shape == index.shape
        assert view.index.tobytes() == index.tobytes() and bits(view.values) == bits(values)
    if name in ("flat", "H2 x line"):
        assert all(not ctx._level(k) for k in range(1, k_max + 1))


@pytest.mark.parametrize("name,spec,pt,k_max", LEVEL_CASES, ids=[c[0] for c in LEVEL_CASES])
def test_candidates_are_distinct_ascending_canonical(name, spec, pt, k_max):
    # level 0's and each step's candidates: distinct canonical tuples,
    # ascending, and as a set the reference loops' set
    ctx = CurvatureContext(spec, pt, k_max)
    got = [ctx._riemann_candidates()] + [ctx._nabla_candidates(ctx._level(k).index)
                                         for k in range(k_max)]
    want = [ref_riemann_candidates(ctx)] + [
        ref_nabla_candidates(ctx, dict.fromkeys(map(tuple, ctx._level(k).index.tolist())))
        for k in range(k_max)]
    for k, (cand, ref) in enumerate(zip(got, want)):
        assert cand.dtype == np.intp and cand.shape[1:] == (4 + k,)
        rows = list(map(tuple, cand.tolist()))
        assert rows == sorted(ref)
        assert all(ref_canonical(t) == (t, 1) for t in rows)


def _row_order_cases():
    yield "conformal", _diagonal(CONFORMAL), (0.2, -0.35), 6
    yield next(case for case in LEVEL_CASES if case[0] == "non-diagonal")
    params, pt = next(_points(2, PROFILES[2]))
    yield "family p=2", fam.build_metric(params), pt, 5
    # 40 coordinates: from level 8 on, 40^(4 + k) passes int64 and the
    # codes are Python ints
    flat = tuple(f"u{n}" for n in range(38))
    yield "S2 x flat, 40 coordinates", _diagonal(SPHERE, (flat, ("1.0",) * 38)), \
        (0.8, 0.3) + (0.0,) * 38, 8


ROW_ORDER_CASES = list(_row_order_cases())


@pytest.mark.parametrize("name,spec,pt,k_max", ROW_ORDER_CASES,
                         ids=[c[0] for c in ROW_ORDER_CASES])
def test_level_rows_ascend_and_do_not_depend_on_candidate_order(name, spec, pt, k_max):
    ctx = CurvatureContext(spec, pt, k_max)
    rng = np.random.default_rng(5)

    def rows(jets):
        return {key: (jets.cols[jets.vals[n] != 0.0].tobytes(), bits(jets.vals[n]))
                for n, key in enumerate(map(tuple, jets.index.tolist()))}

    for k in range(k_max + 1):
        level = ctx._level(k)
        codes = level.index @ cv._digit_weights(ctx.dim, 4 + k)
        assert (codes[1:] > codes[:-1]).all()
        if k == 0:
            cand = ctx._riemann_candidates()
            built = ctx._riemann_jets(cand[rng.permutation(len(cand))])
        else:
            prev = ctx._level(k - 1)
            cand = ctx._nabla_candidates(prev.index)
            built = ctx._nabla_jets(prev, cand[rng.permutation(len(cand))], ctx.order - 2 - k)
        assert len(level) and rows(built) == rows(level)
    if name.startswith("S2 x flat"):
        assert cv._digit_weights(40, 4 + k_max).dtype == object


def test_inverse_seeds_from_the_structural_pattern():
    # np.linalg.inv leaves -4.4e-17 at g^xx here, a structural zero of g^-1;
    # seeded from the spec's structure, the inverse jets hold no row off that
    # pattern and are the reference loops' bit for bit
    params = fam.FamilyParams(0, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = fam.build_metric(params)
    ctx = CurvatureContext(spec, fam.base_point(params, -0.3, [0.1]), 3)
    pattern = spec.structure[0]
    assert (np.linalg.inv(ctx.g0)[~pattern] != 0.0).any()
    assert (ctx.ginv0[~pattern] == 0.0).all()
    assert pattern[tuple(ctx._ginv.index.T)].all()
    assert same_jets(ctx._ginv, ref_neumann_inverse(ctx))


def test_block_scaled_product_is_each_block_alone():
    # the inverse's zeros are g^-1's structural ones (`MetricSpec.structure`),
    # so a block scaled by 1e-8 beside a block of
    # order 1 keeps every jet it has alone: the inverse, the Christoffel
    # symbols and every level, lifted to the product's variables, bit for bit
    # up to the sign of a zero, and no jet mixes the blocks
    pt, k_max = (0.1, 0.2, 0.7, 0.4), 4
    ctx = CurvatureContext(_diagonal(*BLOCK_SCALED), pt, k_max)
    blocks = [(CurvatureContext(_diagonal(block), pt[2 * b:2 * b + 2], k_max), (2 * b, 2 * b + 1))
              for b, block in enumerate(BLOCK_SCALED)]

    def jets(c, what):  # a matrix of the context, or a level
        return c._level(what) if isinstance(what, int) else getattr(c, what)

    for what in ("_ginv", "_gamma1", "_gamma2", *range(k_max + 1)):
        got = jets(ctx, what)
        keys = set(got)
        for alone, idx in blocks:
            want = jets(alone, what)
            for key in want:
                mine = tuple(idx[i] for i in key)
                keys.remove(mine)
                lifted = got[mine].space.lift(want[key])
                assert bits(got[mine].coef + 0.0) == bits(lifted.coef + 0.0), (what, key)
        assert not keys, (what, keys)


@pytest.mark.parametrize("bound", [SPARSE_PAIR_COST, 6])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("seed", range(4))
def test_ordered_sum_matches_the_rank_loop(monkeypatch, seed, sign, bound):
    # random rows, some started and some never reached, terms at random
    # subsets of the columns with exact zeros and -0.0 among their values;
    # with a bound of 6 a block holds 36 // 9 = 4 terms, so a row's terms
    # spread over several blocks.  Then a few rows of a large matrix,
    # reached in descending order, each by a run of five terms, so that
    # runs straddle blocks: the edge of ranking a block's rows without a
    # sort.  Equal to the bit up to the sign of a zero
    monkeypatch.setattr(cv, "SPARSE_PAIR_COST", bound)
    rng = np.random.default_rng(seed)
    n_terms = 40
    cols = np.sort(rng.choice(50, 9, replace=False))
    vals = rng.standard_normal((n_terms, len(cols)))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    vals[rng.random(vals.shape) < 0.1] = -0.0
    subset = [np.sort(rng.choice(len(cols), rng.integers(1, len(cols) + 1), replace=False))
              for _ in range(n_terms)]
    sub = np.array([np.isin(np.arange(len(cols)), s) for s in subset])
    vals[~sub] = 0.0

    def terms(ts):  # the slice's values at the columns some term of it uses
        used = sub[ts].any(axis=0)
        return cols[used], vals[ts][:, used]

    few = np.sort(rng.choice(399, n_terms // 5, replace=False))[::-1]
    for n_rows, row in ((7, rng.integers(0, 6, n_terms)), (400, few.repeat(5))):
        started = rng.random(n_rows) < 0.4
        start = rng.standard_normal((n_rows, len(cols)))
        start[0, :2] = -0.0
        got, want = start.copy(), start.copy()
        cv._ordered_sum(cols, got, row, terms, sign, started)
        ref_ordered_sum(cols, want, row, terms, sign, started)
        assert bits(got + 0.0) == bits(want + 0.0)
        untouched = np.setdiff1d(np.arange(n_rows), row)
        assert n_rows - 1 in untouched  # no term reaches the last row
        assert bits(got[untouched]) == bits(start[untouched])


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("where", ["base", "general"])
def test_squared_operators_match_the_sample_loop(p, seed, where):
    # the nilpotency check's stacked operators against the loop over its 50
    # samples, from the same generator: one (50, 3, m) draw is the loop's
    # sequence of draws.  The value is also the check's printed figure
    params = fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = fam.build_metric(params)
    pt = (fam.base_point(params, 0.0) if where == "base" else
          fam.base_point(params, 0.3, [0.5 - 0.2 * i for i in range(p + 1)]))
    ctx = CurvatureContext(spec, pt, max(2, p + 2))
    want = ref_squared_operators(ctx, np.random.default_rng(seed), cli.CHECK_SAMPLES)
    draws = np.random.default_rng(seed).standard_normal((cli.CHECK_SAMPLES, 3, spec.dim))
    assert bits(cli._squared_operators(ctx, draws)) == bits(want)
    loaded = cli.LoadedMetric(spec, params, "")
    results = {name: detail for name, _, detail in cli._check_suite(loaded, pt, seed, 1e-10)}
    assert results["nilpotency"] == f"max squared-operator entry {want!r}"


def test_squared_operators_skip_degenerate_planes():
    # degenerate planes among the samples (a dependent one, the totally
    # null barred plane) are skipped sample by sample as in the loop, on the
    # family and on a Riemannian product whose squared operators are not 0
    rng = np.random.default_rng(3)
    params = fam.FamilyParams(0, ex.parse("exp(y) + exp(2*y)", ("y",)))
    family = CurvatureContext(fam.build_metric(params), fam.base_point(params, 0.2, [0.3]), 2)
    conf = "exp(2.0*(0.3*s^2 + 0.1*s*t - 0.05*t^2 + 0.2*s - 0.1*t))"
    product = CurvatureContext(metric_from_strings(
        ("theta", "phi", "s", "t"),
        {(0, 0): "1.0", (1, 1): "sin(theta)^2", (2, 2): conf, (3, 3): conf}, (0, 4)),
        (0.9, 0.3, 0.1, 0.2), 0)
    for ctx in (family, product):
        draws = rng.standard_normal((20, 3, ctx.dim))
        draws[3, 2] = 2.0 * draws[3, 1]
        if ctx is family:
            draws[11, 1:] = np.eye(ctx.dim)[3:5]
        flat = iter(draws.reshape(-1, ctx.dim))
        stream = type("Stream", (), {"standard_normal": lambda self, m: next(flat)})()
        want = ref_squared_operators(ctx, stream, len(draws))
        assert bits(cli._squared_operators(ctx, draws)) == bits(want)
        assert want > 0.0 or ctx is family
    # with tiny directions the planes give the value: each plane in turn the
    # one that is not degenerate, so a plane lost or kept wrongly shows
    draws = rng.standard_normal((4, 3, product.dim))
    draws[:, 0] *= 1e-6
    for n in range(len(draws)):
        one = draws.copy()
        one[:, 2] = 2.0 * one[:, 1]
        one[n, 2] = draws[n, 2]
        flat = iter(one.reshape(-1, product.dim))
        stream = type("Stream", (), {"standard_normal": lambda self, m: next(flat)})()
        want = ref_squared_operators(product, stream, len(one))
        assert bits(cli._squared_operators(product, one)) == bits(want)
        assert want > 1e6 * np.max(np.abs(np.matmul(*[jacobi_operator(product, one[:, 0])] * 2)))
    # nan samples: the loop's fold `max(worst, v)` from 0.0 never takes a nan
    nan = np.full((3, 3, product.dim), np.nan)
    flat = iter(nan.reshape(-1, product.dim))
    stream = type("Stream", (), {"standard_normal": lambda self, m: next(flat)})()
    assert bits(cli._squared_operators(product, nan)) == bits(0.0)
    assert bits(ref_squared_operators(product, stream, len(nan))) == bits(0.0)


def test_level_exhaustive_does_not_use_propagated_candidates(monkeypatch):
    # the exhaustive oracle cross-checks candidate generation, so a candidate
    # lost there must show up as a difference
    ctx = CurvatureContext(two_sphere(), (0.8, 0.1), 0)
    cand = ctx._riemann_candidates()
    lost = (0, 1, 0, 1)
    kept = (cand != lost).any(axis=1)
    assert not kept.all()
    monkeypatch.setattr(ctx, "_riemann_candidates", lambda: cand[kept])
    assert lost not in ctx._level(0) and lost in ctx.level_exhaustive(0)


def test_catalog_built_once_per_argument_list():
    assert inv.catalog(3, 2) is inv.catalog(3, 2)
    assert inv.catalog(2, 1) is inv.catalog(2, 1)
    assert isinstance(inv.catalog(3, 2).schemas, tuple)
    with pytest.raises(inv.CapsExceededError):
        inv.catalog(4, 0)


@pytest.mark.parametrize("max_factors,max_deriv",
                         list(iproduct(range(1, inv.MAX_FACTORS + 1), range(3))))
def test_catalog_matches_the_canonicalizing_loop(max_factors, max_deriv):
    # same schemas in the same order and the same skipped lists
    for limit in (1, 15, 105, 1000, inv.MAX_EXHAUSTIVE_LIMIT):
        assert inv.catalog(max_factors, max_deriv, limit) == \
            ref_catalog(max_factors, max_deriv, limit), limit


@pytest.mark.parametrize("args", [(100, 3, 2, 42), (200, 3, 2, 20260817), (200, 3, 2, 0),
                                  (50, 1, 0, 0), (100, 1, 0, 1), (300, 2, 1, 5)])
def test_random_schemas_match_the_drawing_loop(args):
    assert inv.random_schemas.__wrapped__(*args) == ref_random_schemas(*args)


def test_random_schemas_stop_once_the_pool_is_exhausted(monkeypatch):
    # (1, 0) has 3 canonical schemas; the loop made all 20,000 attempts
    draws = []

    class Counted(Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(inv, "Random", Counted)
    got = inv.random_schemas.__wrapped__(100, 1, 0, 1)
    assert got == ref_random_schemas(100, 1, 0, 1) and len(got) == 3
    assert len(draws) < 200  # it stops _REPEAT_RUN draws after the third schema


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3).flatmap(
    lambda factors: st.permutations(range(sum(4 + k for k in factors))).map(
        lambda order: (tuple(factors), order)))
       .filter(lambda case: len(case[1]) % 2 == 0))
def test_canonical_key_matches_the_dict_relabelling(case):
    factors, order = case
    schema = ContractionSchema(factors, tuple(zip(order[::2], order[1::2])))
    assert schema.canonical_key() == ref_canonical_key(schema)


def _lines_sha256(schemas):
    return hashlib.sha256("\n".join(s.to_line() for s in schemas).encode()).hexdigest()


def test_check_schema_lines_are_pinned():
    # the to_line() text of the check's schemas before the relabelling table
    assert _lines_sha256(inv.catalog(3, 2).schemas) == \
        "4627375276778eb7d73dc8df2c440c884ecebe2c1d6ce71d3c25f261d57a32f2"
    assert _lines_sha256(inv.random_schemas(100, 3, 2, 42)) == \
        "c1661109c98dee8a15275d30fd500b8daa2e07c4068c423813cbae9ee2e7d8ba"


def test_join_plans_follow_the_pairing():
    # each pair closes with the factor that owns its larger slot, and its
    # code is a * n_slots + b
    for schema in inv.catalog(3, 2).schemas + tuple(inv.NAMED_SCHEMAS.values()):
        owner = [f for f, k in enumerate(schema.factors) for _ in range(4 + k)]
        closing = [[] for _ in schema.factors]
        for a, b in schema.pairing:
            closing[owner[b]].append((a, b))
        codes = tuple(a * len(owner) + b for a, b in schema.pairing)
        assert schema._join_plan == (tuple(map(tuple, closing)), codes), schema


# ------------------------------------------------------------------ invariants
CHECK_SCHEMAS = inv.catalog(3, 2).schemas + inv.random_schemas(100, 3, 2, 42)
NON_DIAGONAL = metric_from_strings(
    ("a", "b", "c"),
    {(0, 0): "exp(2*c)", (1, 1): "1 + b^2", (2, 2): "2 + sin(a)",
     (0, 1): "0.5*a", (1, 2): "0.25*c"},
    (0, 3),
)


def _invariant_cases():
    for p in range(4):
        params = fam.FamilyParams(p, ex.parse(PROFILES[0], ("y",)))
        spec = fam.build_metric(params)
        rng = np.random.default_rng(p)
        md = max(2, p + 2)  # as `jetgeo check` builds it
        yield f"family p={p} base", spec, fam.base_point(params, 0.0), md, CHECK_SCHEMAS
        yield f"family p={p} general", spec, tuple(rng.uniform(-0.7, 0.7, spec.dim)), md, \
            CHECK_SCHEMAS
    yield "S2", two_sphere(), (0.8, 0.1), 2, CHECK_SCHEMAS
    # g^-1 is zero between the blocks: some branches of a factor list end,
    # others stay live
    yield "S2 x conformal", _diagonal(SPHERE, CONFORMAL_ST), (0.9, -1.2, 0.3, 0.1), 2, \
        CHECK_SCHEMAS
    # dense levels (32, 108 and 324 values): every 20th schema keeps it to
    # about 2 s, and some of those raise CapsExceededError
    yield "non-diagonal", NON_DIAGONAL, (0.2, -0.3, 0.1), 2, CHECK_SCHEMAS[::20]
    yield "flat", _diagonal((("a", "b", "c"), ("1.0", "2.0", "3.0"))), (0.1, 0.2, 0.3), 2, \
        CHECK_SCHEMAS


INVARIANT_CASES = list(_invariant_cases())


def _ref_values(schemas, spec, pt, ctx):
    """The loop's value of each schema, or the CapsExceededError it raised."""
    out = []
    for schema in schemas:
        try:
            out.append(ref_evaluate(schema, spec, pt, context=ctx))
        except CapsExceededError as err:
            out.append(err)
    return out


@pytest.mark.parametrize("name,spec,pt,max_deriv,schemas", INVARIANT_CASES,
                         ids=[c[0] for c in INVARIANT_CASES])
def test_evaluate_many_matches_schema_loop(name, spec, pt, max_deriv, schemas):
    ctx = CurvatureContext(spec, pt, max_deriv)
    want = _ref_values(schemas, spec, pt, ctx)
    fits = [s for s, w in zip(schemas, want) if not isinstance(w, CapsExceededError)]
    got = inv.evaluate_many(fits, spec, pt, context=ctx)
    assert got.dtype == float and got.shape == (len(fits),)
    assert bits(got) == bits([w for w in want if not isinstance(w, CapsExceededError)])
    for schema, w in zip(schemas, want):
        if isinstance(w, CapsExceededError):
            with pytest.raises(CapsExceededError) as err:
                inv.evaluate_many((schema,), spec, pt, context=ctx)
            assert str(err.value) == str(w)
        else:
            assert bits(inv.evaluate(schema, spec, pt, context=ctx)) == bits(w)
    if name == "flat":
        assert not got.any()
    if name in ("S2", "non-diagonal", "S2 x conformal"):
        assert np.count_nonzero(got) > len(fits) // 4
    if name == "S2 x conformal":
        assert np.count_nonzero(got) < len(fits)


def test_evaluate_many_forms_no_term_on_the_family(monkeypatch):
    # at the base point every term meets a structural zero of g^-1: no branch
    # reaches a finish without a combination, and no block keeps a term, so
    # no product is formed (each is formed right before its block's bincount)
    finished, summed = [], []
    finish = inv._finish

    def counted_finish(g, combo, weight, members, out):
        finished.append(len(weight))
        finish(g, combo, weight, members, out)

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, *args, **kwargs):
            summed.append(len(kwargs["weights"]))
            return np.bincount(*args, **kwargs)

    monkeypatch.setattr(inv, "_finish", counted_finish)
    monkeypatch.setattr(inv, "np", CountedNumpy())
    for p in range(4):
        params = fam.FamilyParams(p, ex.parse(PROFILES[0], ("y",)))
        spec, pt = fam.build_metric(params), fam.base_point(params, 0.0)
        finished.clear()
        got = inv.evaluate_many(CHECK_SCHEMAS, spec, pt, CurvatureContext(spec, pt, max(2, p + 2)))
        assert bits(got) == bits(np.zeros(len(CHECK_SCHEMAS))), p
        assert finished and min(finished) > 0, p
        assert summed == [], p


def test_evaluate_many_keeps_input_order_and_duplicates():
    sph, pt = two_sphere(), (0.8, 0.1)
    ctx = CurvatureContext(sph, pt, 2)
    named = list(inv.NAMED_SCHEMAS.values())
    mixed = [named[3], named[0], CHECK_SCHEMAS[700], named[0], CHECK_SCHEMAS[5],
             named[6], CHECK_SCHEMAS[-1], named[2], CHECK_SCHEMAS[700], named[1]]
    got = inv.evaluate_many(mixed, sph, pt, context=ctx)
    assert bits(got) == bits(_ref_values(mixed, sph, pt, ctx))
    assert got[1] == got[3] and got[2] == got[8]
    assert len({s.factors for s in mixed}) >= 5
    assert bits(inv.evaluate_many([], sph, pt, context=ctx)) == b""


def test_evaluate_many_caps_error_matches_loop():
    ctx = CurvatureContext(NON_DIAGONAL, (0.2, -0.3, 0.1), 2)
    big = next(s for s in CHECK_SCHEMAS if s.factors == (2, 2, 2))
    with pytest.raises(CapsExceededError) as want:
        ref_evaluate(big, NON_DIAGONAL, (0.2, -0.3, 0.1), context=ctx)
    # one schema past the limit fails the whole batch, with the loop's message
    with pytest.raises(CapsExceededError) as got:
        inv.evaluate_many((inv.NAMED_SCHEMAS["tau"], big), NON_DIAGONAL, (0.2, -0.3, 0.1),
                          context=ctx)
    assert str(got.value) == str(want.value) == "evaluation needs 34012224 support combinations"


# --------------------------------------------------------------- jet products
@pytest.mark.parametrize("n,order", [(0, 3), (1, 0), (1, 7), (2, 8), (3, 6), (5, 5), (40, 2)])
def test_full_row_listing_is_the_table(n, order):
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    want = ref_mul(sp)
    assert int(ref_pair_rows(sp).sum()) == sp._pairs
    # the listing of every code gives codes, the table ranks
    coded = want[:2] + (sp._codes[want[2]], want[3], sp._codes[want[4]])
    for got, want in ((sp._listing(sp._codes, sp.order), coded), (sp._mul(), want)):
        assert len(got) == len(want)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


DENSITIES = (0.0, 0.01, 0.05, 0.2, 0.6, 1.0)  # as in tests/test_jets.py


def _operand(space, rng, density):
    # nonzeros over several decades; the zeros are a mix of 0.0 and -0.0
    keep = rng.random(space.size) < density
    vals = rng.standard_normal(space.size) * 10.0 ** rng.integers(-8, 9, space.size)
    zeros = np.where(rng.random(space.size) < 0.5, -0.0, 0.0)
    return np.where(keep, vals, zeros)


def rows_product(space, a, b):
    """`multiply_rows` of the dense rows a and b at their live columns (at
    their codes, at the space's order), with its sums put back at their
    ranks in rows of zeros."""
    cols = np.flatnonzero(((a != 0) | (b != 0)).any(axis=0))
    out, sums = space.multiply_rows(space._codes[cols], a[:, cols], b[:, cols], space.order)
    dense = np.zeros(a.shape)
    dense[:, space._rank(out)] = sums
    return dense


ROWS = st.lists(st.tuples(st.sampled_from(DENSITIES), st.sampled_from(DENSITIES)),
                min_size=1, max_size=6)


@given(n=st.integers(0, 5), order=st.integers(0, 6), rows=ROWS, seed=st.integers(0, 2**32 - 1))
@example(n=3, order=6, rows=[(1.0, 1.0), (0.0, 0.6), (0.2, 0.0)], seed=0)
@example(n=5, order=5, rows=[(0.01, 0.01), (0.0, 0.0), (0.01, 0.05)], seed=1)
@example(n=5, order=5, rows=[(1.0, 0.01), (0.01, 1.0)], seed=2)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_products_match_reference_routes(n, order, rows, seed):
    sp = jet_space(tuple(f"v{i}" for i in range(n)), order)
    rng = np.random.default_rng(seed)
    a = np.array([_operand(sp, rng, da) for da, _ in rows])
    b = np.array([_operand(sp, rng, db) for _, db in rows])
    assert bits(rows_product(sp, a, b)) == bits(ref_multiply_rows(sp, a, b))
    for x, y in zip(a, b):
        assert bits(sp.multiply(x, y)) == bits(ref_multiply(sp, x, y))
        assert bits(sp.multiply(y, x)) == bits(ref_multiply(sp, y, x))


def test_non_finite_products_match_reference_routes():
    sp = jet_space(("a", "b", "c"), 6)
    rng = np.random.default_rng(4)
    a = np.array([_operand(sp, rng, 0.05) for _ in range(4)])
    b = np.array([_operand(sp, rng, 0.05) for _ in range(4)])
    a[1, 7], b[2, 0], a[3, 30] = math.inf, math.nan, -math.inf
    # the finite row matches, and a call with a non-finite operand raises
    assert bits(rows_product(sp, a[:1], b[:1])) == bits(ref_multiply_rows(sp, a[:1], b[:1]))
    with pytest.raises(NonFiniteError):
        rows_product(sp, a, b)
    with np.errstate(invalid="ignore", over="ignore"):
        for x, y in zip(a, b):
            assert bits(sp.multiply(x, y)) == bits(ref_multiply(sp, x, y))


# ------------------------------------------------------ expression jets
def _same_jet_outcome(e, base, active, order):
    got = jet_outcome(lambda: ex.eval_jet(e, base, active, order))
    want = jet_outcome(lambda: ref_eval_jet(e, base, active, order))
    if isinstance(want, Exception):
        return same_errors(got, want)
    return (isinstance(got, Jet) and got.space is want.space
            and bits(got.coef + 0.0) == bits(want.coef + 0.0))


@given(e=exprs(), active=st.lists(st.sampled_from(EXPR_CHART + ("w",)), min_size=1,
                                  max_size=4, unique=True),
       order=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_eval_jet_matches_dense_reference(e, active, order, seed):
    # 1-4 active variables in any order, the chart's others frozen, and w,
    # which no expression holds; every coefficient byte-equal up to the sign
    # of a zero, or the same error
    base = dict(zip(EXPR_CHART + ("w",), np.random.default_rng(seed).uniform(-2.0, 2.0, 4)))
    assert _same_jet_outcome(e, base, active, order)


@pytest.mark.parametrize("text,y", [("exp(y)", 800.0), ("(1e200*y)^2", 1.0),
                                    ("sin(y*1e300*y)", 1e10), ("z0*exp(y)", 708.0)])
def test_eval_jet_overflow_matches_dense_reference(text, y):
    e = ex.parse(text, EXPR_CHART)
    base = {"y": y, "z0": 1e308, "z1": 0.5}
    for active in (("y",), ("z0", "y"), EXPR_CHART):
        for order in (0, 2, 5):
            want = jet_outcome(lambda: ref_eval_jet(e, base, active, order))
            assert isinstance(want, Exception) and _same_jet_outcome(e, base, active, order)


@pytest.mark.parametrize("p", range(6))
def test_family_metric_jets_match_dense_reference(p):
    # every entry at the order a context of max_deriv p + 3 evaluates, bit for bit
    params = fam.FamilyParams(p, ex.parse("exp(y) + exp(2*y)", ("y",)))
    spec = fam.build_metric(params)
    env = spec.env_at(fam.base_point(params, 0.1, [0.1 * (-1) ** i for i in range(p + 1)]))
    for row in spec.components:
        for e in row:
            got = ex.eval_jet(e, env, spec.active_vars, p + 5)
            assert bits(got.coef) == bits(ref_eval_jet(e, env, spec.active_vars, p + 5).coef)


# -------------------------------------------------------- geodesic kernel
def test_kernel_force_matches_reference_evaluator():
    # the kernel's float form for one point, its rows form for many
    for spec, pts, vels in force_cases():
        ref = ref_force(spec)
        ev = geo.ChristoffelPointEvaluator(spec)
        assert bits(ev.force(pts, vels)) == bits(ref(pts, vels))
        for p, v in zip(pts, vels):
            assert bits(ev.force(p, v)) == bits(ref(p, v))


def _rk_cases():
    """Family p = 0..2 at t_end = 10, starts and velocities as in the
    benchmark's geodesic_routes, and two S^2 great circles."""
    for p in range(3):
        params = fam.FamilyParams(p, ex.parse("exp(0.97*y) + exp(1.21*y) + exp(1.5*y)", ("y",)))
        start = fam.base_point(params, 0.02, [-0.03 + 0.01 * i for i in range(p + 1)])
        vel = [0.3, 0.12] + [-0.1] * (p + 1) + [0.1, 0.3] + [0.05] * (p + 1)
        yield fam.build_metric(params), start, vel, 10.0
    yield two_sphere(), (1.4, 0.3), (0.05, 0.6), 3.0
    yield two_sphere(), (1.8, -2.9), (-0.08, 0.45), 3.0


@pytest.mark.parametrize("case", range(5))
def test_rk_trajectories_match_reference_force(case):
    spec, start, vel, t_end = list(_rk_cases())[case]
    got = geo.integrate_ivp(spec, start, vel, t_end)
    t, u, du = ref_integrate_ivp(spec, start, vel, t_end)
    assert same_arrays([got.t, got.u, got.du], [t, u, du])


@pytest.mark.parametrize("case", range(5))
def test_dop853_port_matches_scipy(case):
    # the port against scipy's solve_ivp(method="DOP853") on one force, four
    # starts of each force case at t_end 1 and 10
    spec, pts, vels = force_cases()[case]
    force = geo.ChristoffelPointEvaluator(spec).force
    for start, vel in zip(pts[:4], vels[:4]):
        for t_end in (1.0, 10.0):
            got = geo.integrate_ivp(spec, start, vel, t_end)
            want = ref_integrate_ivp(spec, start, vel, t_end, force=force)
            assert same_arrays([got.t, got.u, got.du], want), (start, vel, t_end)


def test_dop853_tableau_is_scipys():
    dc = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for got, want in ((geo._C, dc.C), (geo._A, dc.A), (geo._B, dc.B), (geo._E3, dc.E3),
                      (geo._E5, dc.E5), (geo._D, dc.D)):
        assert got.shape == want.shape and bits(got) == bits(want)


def _line():
    # exp(2x) dx^2: x' = 1 / (t - 1) from x(0) = 0, x'(0) = -1 runs to -inf at t = 1
    return metric_from_strings(("x",), {(0, 0): "exp(2*x)"}, (0, 1))


def test_dop853_failures_are_scipys():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    spec = _line()
    force = geo.ChristoffelPointEvaluator(spec).force

    def rhs(_t, y):
        return np.concatenate([y[1:], -force(y[:1], y[1:])])

    res = solve_ivp(rhs, (0.0, 2.0), np.array([0.0, -1.0]), method="DOP853",
                    t_eval=np.linspace(0.0, 2.0, 101), rtol=geo._RK_RTOL, atol=geo._RK_ATOL)
    assert not res.success
    with pytest.raises(geo.StepCollapseError) as err:
        geo.integrate_ivp(spec, (0.0,), (-1.0,), 2.0)
    assert str(err.value) == f"integrator stopped early: {res.message}"
    assert res.message == "Required step size is less than spacing between numbers."
    # the port refuses a non-finite initial state as scipy does; the route
    # refuses it before, as the GeodesicProblem it poses
    for start, vel, name in (((math.nan,), (1.0,), "start"), ((0.0,), (math.inf,), "velocity")):
        y0 = np.array([*start, *vel])
        with pytest.raises(ValueError) as want:
            solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853")
        with pytest.raises(ValueError) as got:
            geo._dop853(rhs, 0.0, 1.0, y0, np.linspace(0.0, 1.0, 101), geo._RK_RTOL, geo._RK_ATOL)
        assert str(got.value) == str(want.value)
        assert str(want.value) == "All components of the initial state `y0` must be finite."
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            geo.integrate_ivp(spec, start, vel)


def test_energy_along_matches_tree_walk():
    # the kernel's value code against `MetricSpec.value` (`expr.eval_point`)
    for spec, pts, vels in force_cases():
        traj = geo.integrate_ivp(spec, pts[0], vels[0], 1.0)
        want = [float(du @ spec.value(u) @ du) for u, du in zip(traj.u, traj.du)]
        assert bits(geo.energy_along(spec, traj)) == bits(want)


def _metric_value_cases():
    rng = np.random.default_rng(3)
    for p in range(-1, 9):
        for text in ("exp(y)+exp(2*y)", "y^8+y^9", "exp(y)-cos(2*y)"):
            spec = fam.build_metric(fam.FamilyParams(p, ex.parse(text, ("y",))))
            for _ in range(3):
                yield spec, tuple(rng.uniform(-1.0, 1.0, spec.dim).tolist())
    for coords, entries, pt in ORACLE_METRICS.values():
        yield metric_from_strings(coords, entries, (0, len(coords))), pt
    yield _diagonal(SPHERE, CONFORMAL_ST), (0.9, -1.2, 0.3, 0.1)


def test_metric_value_is_one_arithmetic():
    # g(p) by the tree walk, as the constant terms of the curvature jets and
    # by the tree walk over a batch of points: the same bits, up to the sign
    # of a zero, and a batch's the one point's to the sign of a zero
    batches: dict[MetricSpec, list] = {}
    for spec, pt in _metric_value_cases():
        want = bits(spec.value(pt) + 0.0)
        assert bits(CurvatureContext(spec, pt, 0).g0 + 0.0) == want, (spec, pt)
        assert bits(spec.value(np.array([pt]))[0] + 0.0) == want, (spec, pt)
        batches.setdefault(spec, []).append(pt)
    for spec, pts in batches.items():
        got = spec.value(np.array(pts))
        assert got.shape == (len(pts), spec.dim, spec.dim) and got.flags.c_contiguous
        assert bits(got) == bits([spec.value(pt) for pt in pts]), spec


def test_metric_value_errors_are_non_finite():
    # an exp that overflows raises NonFiniteError in the tree walk, at one
    # point and at any point of a batch; a sum that overflows without one is
    # inf, at one point and in a batch with no numpy warning, which
    # `validate_at` reports
    spec = metric_from_strings(("x", "y"), {(0, 0): "1e308 + 1e308*x + exp(800*x)",
                                            (1, 1): "exp(100*y)"}, (0, 2))
    for point in ((1.0, 0.0), (0.0, 7.1)):
        with pytest.raises(NonFiniteError):
            spec.value(point)
        with pytest.raises(NonFiniteError):
            spec.value(np.array([(-1.0, 0.0), point]))
    spec = metric_from_strings(("x", "y"), {(0, 0): "1e308 + 1e308*x", (1, 1): "1"}, (0, 2))
    assert spec.value((1.0, 0.0))[0, 0] == math.inf
    assert spec.value(np.array([(-1.0, 0.0), (1.0, 0.0)]))[:, 0, 0].tolist() == [0.0, math.inf]
    with pytest.raises(NonFiniteError, match=r"^metric not finite at \(1\.0, 0\.0\)$"):
        spec.validate_at((1.0, 0.0))


def test_metric_reads_no_partials():
    # d/dx exp(708 x) = 708 e^708 overflows at x = 1 where the entry does not:
    # the force raises there, and the metric is the tree walk's
    spec = metric_from_strings(("x", "y"), {(0, 0): "exp(708*x)", (1, 1): "1"}, (0, 2))
    ev, point = geo._evaluator(spec), (1.0, 0.0)
    assert spec.value(point)[0, 0] == math.exp(708.0)
    assert bits(spec.value(np.array([point]))) == bits([spec.value(point)])
    assert bits(spec.value(np.array([point, (0.5, 0.2)]))) == bits([spec.value(point),
                                                                   spec.value((0.5, 0.2))])
    with pytest.raises(NonFiniteError):
        ev.force(point, (1.0, 0.0))
    with pytest.raises(NonFiniteError):
        ev.force([point], [(1.0, 0.0)])
