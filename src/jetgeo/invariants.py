"""Scalar curvature invariants as contraction schemas.

A schema is a list of factors, the j-th being the level-k_j curvature tensor
(4 + k_j lower slots), together with a perfect matching on all slots; each
matched pair is contracted with the inverse metric.  Slots are numbered
globally, factor by factor.

The text form is `R,dR|((0,3),(1,2))`: factor names use one `d` per
derivative level, and the pairing is written without spaces.  Round-trips
through `to_line`/`from_line` are exact.

Two schemas that differ only by reordering factors of equal level describe
the same invariant.  `_relabellings` tabulates, once per factor list, the
slot maps of the factor orders that sort its levels; `canonical_key`,
`catalog` and `random_schemas` all take the least relabelled pairing.  One
pairing finds it in `_least_relabelling`.  `catalog` lists each slot
count's matchings once, as one array in lexicographic order, keeps the rows
that `_orbit_least` finds least of their orbit, with one comparison of all
rows per relabelling, so they stay sorted, and makes their schemas in bulk
(`_bulk_schemas`), each with the pairing and join plan the constructor
would give it.  `ContractionSchema(...)` stays the one constructor that
checks its input.
"""
from __future__ import annotations

import functools
import inspect
import math
import re
from dataclasses import dataclass
from itertools import accumulate, chain, permutations
from operator import index, itemgetter
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .curvature import CurvatureContext
from .jets import SPARSE_PAIR_COST
from .metric import MetricSpec

__all__ = [
    "ContractionSchema",
    "CapsExceededError",
    "NAMED_SCHEMAS",
    "catalog",
    "CatalogResult",
    "random_schemas",
    "evaluate",
    "evaluate_many",
    "evaluate_dense",
    "matching_count",
]

MAX_FACTORS = 3
MAX_DERIV = 4
MAX_EXHAUSTIVE_LIMIT = 10_000
WORK_LIMIT = 10_000_000
_REPEAT_RUN = 64  # repeated draws before random_schemas asks if its pool is exhausted


class CapsExceededError(RuntimeError):
    """A combinatorial request went past the module's hard limits."""


def _slots(factors: Sequence[int]) -> int:
    return sum(4 + k for k in factors)


def matching_count(n_slots: int) -> int:
    """Number of perfect matchings on n_slots points (0 when odd)."""
    if n_slots % 2:
        return 0
    out = 1
    for v in range(n_slots - 1, 0, -2):
        out *= v
    return out


@functools.cache
def _relabellings(factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per factor order that sorts the levels, each slot's number after it."""
    ends = accumulate(4 + k for k in factors)
    slots = [range(end - 4 - k, end) for k, end in zip(factors, ends)]
    out = []
    for order in permutations(range(len(factors))):
        if all(factors[i] <= factors[j] for i, j in zip(order, order[1:])):
            moved = list(chain.from_iterable(slots[i] for i in order))
            out.append(tuple(sorted(range(len(moved)), key=moved.__getitem__)))
    return tuple(out)


def _least_relabelling(factors: tuple[int, ...], pairing) -> tuple[tuple[int, int], ...]:
    return min(tuple(sorted((new[a], new[b]) if new[a] < new[b] else (new[b], new[a])
                            for a, b in pairing))
               for new in _relabellings(factors))


@functools.cache
def _owners(factors: tuple[int, ...]) -> tuple[int, ...]:  # the factor of each slot
    return tuple(f for f, k in enumerate(factors) for _ in range(4 + k))


@dataclass(frozen=True)
class ContractionSchema:
    """Factors (derivative level of each) and a perfect matching of all slots."""

    factors: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("schema needs at least one factor")
        if any(k < 0 for k in self.factors):
            raise ValueError("factor levels must be >= 0")
        factors = tuple(map(index, self.factors))
        owner = _owners(factors)
        n = len(owner)
        norm = []
        for a, b in self.pairing:
            a, b = index(a), index(b)
            norm.append((a, b) if a < b else (b, a))
        norm.sort()
        if sorted(chain.from_iterable(norm)) != list(range(n)):
            raise ValueError(f"pairing is not a perfect matching of {n} slots")
        closing: list[list[tuple[int, int]]] = [[] for _ in factors]
        for a, b in norm:
            closing[owner[b]].append((a, b))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "pairing", tuple(norm))
        # for `evaluate_many`: the pairs that close with each factor (with b's
        # factor, as a < b), and the code a * n_slots + b of each pair
        object.__setattr__(self, "_join_plan",
                           (tuple(map(tuple, closing)), tuple(a * n + b for a, b in norm)))

    @property
    def n_slots(self) -> int:
        return _slots(self.factors)

    def canonical_key(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """Identity under reordering of equal-level factors: the least
        relabelled pairing over the factor orders that sort the levels."""
        return tuple(sorted(self.factors)), _least_relabelling(self.factors, self.pairing)

    def canonical(self) -> "ContractionSchema":
        f, p = self.canonical_key()
        return ContractionSchema(f, p)

    def to_line(self) -> str:
        names = ",".join("d" * k + "R" for k in self.factors)
        body = ",".join(f"({a},{b})" for a, b in self.pairing)
        return f"{names}|({body})"

    @staticmethod
    def from_line(line: str) -> "ContractionSchema":
        try:
            names, body = line.strip().split("|", 1)
        except ValueError:
            raise ValueError(f"schema line needs one '|': {line!r}") from None
        factors = []
        for name in names.split(","):
            m = re.fullmatch(r"(d*)R", name.strip())
            if m is None:
                raise ValueError(f"bad factor name {name!r}")
            factors.append(len(m.group(1)))
        pairs = [(int(a), int(b)) for a, b in re.findall(r"\((\d+),(\d+)\)", body)]
        inner = "(" + ",".join(f"({a},{b})" for a, b in pairs) + ")"
        if body.replace(" ", "") != inner:
            raise ValueError(f"bad pairing text {body!r}")
        return ContractionSchema(tuple(factors), tuple(pairs))


NAMED_SCHEMAS: dict[str, ContractionSchema] = {
    "tau": ContractionSchema((0,), ((0, 3), (1, 2))),
    "ric2": ContractionSchema((0, 0), ((0, 3), (4, 7), (1, 5), (2, 6))),
    "r2": ContractionSchema((0, 0), ((0, 4), (1, 5), (2, 6), (3, 7))),
    "grad_r2": ContractionSchema((1, 1), ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))),
    "rrr_trace": ContractionSchema(
        (0, 0, 0), ((2, 4), (3, 5), (6, 8), (7, 9), (10, 0), (11, 1))
    ),
    "rrr_interlock": ContractionSchema(
        (0, 0, 0), ((0, 4), (2, 6), (1, 8), (3, 10), (5, 9), (7, 11))
    ),
    "lap_tau": ContractionSchema((2,), ((0, 3), (1, 2), (4, 5))),
}


def _factor_lists(max_factors: int, max_deriv: int) -> Iterable[tuple[int, ...]]:
    def rec(prefix: tuple[int, ...], lo: int):
        if prefix:
            yield prefix
        if len(prefix) == max_factors:
            return
        for k in range(lo, max_deriv + 1):
            yield from rec(prefix + (k,), k)

    yield from rec((), 0)


def _matching_rows(n_max: int) -> dict[int, np.ndarray]:
    """Each even slot count's perfect matchings up to n_max, in
    lexicographic order, one pair row a0, b0, a1, b1, ... (a < b) each: slot
    0 with each i, then each matching of the rest, renumbered onto the slots
    left."""
    out = {0: np.zeros((1, 0), np.intp)}
    for n in range(2, n_max + 1, 2):
        rest = out[n - 2]
        i = np.arange(1, n)[:, None]
        left = np.arange(1, n - 1) + (np.arange(1, n - 1) >= i)  # slots 1..n-1 but i
        rows = np.empty((n - 1, len(rest), n), np.intp)
        rows[:, :, 0] = 0
        rows[:, :, 1] = i
        rows[:, :, 2:] = left[:, rest]
        out[n] = rows.reshape(-1, n)
    return out


def _orbit_least(factors: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """A mask of the matchings of `rows` (pair rows a0, b0, a1, b1, ...; the
    `factors` sorted) that are the least of their orbit, as
    `_least_relabelling` finds it: one lexicographic comparison of all rows
    per relabelling.  Each row is compared as each slot's partner, where the
    order is that of the sorted pair lists: two matchings first differ at
    the smallest slot whose partner differs, and that slot opens a pair in
    both."""
    partner = np.empty_like(rows)
    r = np.arange(len(rows))
    partner[r[:, None], rows[:, 0::2]] = rows[:, 1::2]
    partner[r[:, None], rows[:, 1::2]] = rows[:, 0::2]
    keep = np.ones(len(rows), dtype=bool)
    # the first relabelling of sorted factors is the identity
    for new in np.array(_relabellings(factors))[1:]:
        moved = np.empty_like(partner)
        moved[:, new] = new[partner]
        first = (moved != partner).argmax(axis=1)  # where they differ, else 0
        keep &= moved[r, first] >= partner[r, first]
    return keep


def _bulk_schemas(factors: tuple[int, ...], rows: np.ndarray) -> list[ContractionSchema]:
    """The schemas of `factors` whose pairings are the pair rows `rows`
    (a < b, ascending), each with the pairing and join plan the constructor
    gives it, made without the constructor's checks, which such rows pass.
    A pairing's closing pairs are cut from it by one getter per closing
    pattern, the factor each of its pairs closes with."""
    n = rows.shape[1]
    a, b = rows[:, 0::2], rows[:, 1::2]
    close = np.array(_owners(factors))[b]
    cuts: dict[tuple[int, ...], tuple] = {}
    out = []
    pairings = [tuple(zip(it, it)) for it in map(iter, rows.tolist())]
    for pairing, key, codes in zip(pairings, map(tuple, close.tolist()), (a * n + b).tolist()):
        cut = cuts.get(key)
        if cut is None:
            ends = list(accumulate((key.count(f) for f in range(len(factors))), initial=0))
            # a stable order: each factor's pairs stay in pairing order
            cut = cuts[key] = (itemgetter(*sorted(range(len(key)), key=key.__getitem__)),
                               [slice(lo, hi) for lo, hi in zip(ends, ends[1:])])
        ordered = cut[0](pairing)  # a tuple: a schema has at least two pairs
        schema = object.__new__(ContractionSchema)
        schema.__dict__.update(factors=factors, pairing=pairing, _join_plan=(
            tuple(map(ordered.__getitem__, cut[1])), tuple(codes)))
        out.append(schema)
    return out


@dataclass(frozen=True)
class CatalogResult:
    schemas: tuple[ContractionSchema, ...]
    skipped: tuple[tuple[int, ...], ...]  # factor lists past the matching limit


def _built_once(fn):
    """`functools.cache` keyed by argument values, however a call spells
    them: by position, by keyword or left to their defaults."""
    cached = functools.cache(fn)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def once(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    once.cache_info, once.cache_clear = cached.cache_info, cached.cache_clear
    return once


def _check_caps(max_factors: int, max_deriv: int) -> None:
    if max_factors < 1 or max_factors > MAX_FACTORS:
        raise CapsExceededError(f"max_factors must be in 1..{MAX_FACTORS}")
    if max_deriv < 0 or max_deriv > MAX_DERIV:
        raise CapsExceededError(f"max_deriv must be in 0..{MAX_DERIV}")


@_built_once
def catalog(
    max_factors: int, max_deriv: int, exhaustive_limit: int = 1000
) -> CatalogResult:
    """All canonical schemas over factor lists whose matching count stays
    within `exhaustive_limit`; larger factor lists are reported as skipped.
    Sorted by factor count, factors, then pairing.  Each slot count's
    matchings are listed once, as one array in lexicographic order; a factor
    list with a repeated level keeps each orbit's least (`_orbit_least`), so
    the result is sorted as built.  Built once per process for each argument
    list, however it is spelled; the result is immutable."""
    _check_caps(max_factors, max_deriv)
    if exhaustive_limit < 1 or exhaustive_limit > MAX_EXHAUSTIVE_LIMIT:
        raise CapsExceededError(f"exhaustive_limit must be in 1..{MAX_EXHAUSTIVE_LIMIT}")
    lists: list[tuple[int, ...]] = []
    skipped: list[tuple[int, ...]] = []
    for factors in _factor_lists(max_factors, max_deriv):
        n = _slots(factors)
        if matching_count(n) > exhaustive_limit:
            skipped.append(factors)
        elif n % 2 == 0:
            lists.append(factors)
    lists.sort(key=lambda f: (len(f), f))
    matchings = _matching_rows(max(map(_slots, lists), default=0))
    out: list[ContractionSchema] = []
    for factors in lists:
        rows = matchings[_slots(factors)]
        out.extend(_bulk_schemas(factors, rows[_orbit_least(factors, rows)]))
    return CatalogResult(tuple(out), tuple(skipped))


@_built_once
def random_schemas(
    count: int, max_factors: int, max_deriv: int, seed: int
) -> tuple[ContractionSchema, ...]:
    """Deterministic sample of distinct canonical schemas (may return fewer
    than `count` when the space is small).  Drawn once per process for each
    argument list, however it is spelled; the result is immutable.  After
    `_REPEAT_RUN` repeats in a row it stops if it holds the whole pool, when
    `catalog` can list it."""
    _check_caps(max_factors, max_deriv)
    rng = Random(seed)
    pool = [f for f in _factor_lists(max_factors, max_deriv) if _slots(f) % 2 == 0]
    seen: dict = {}  # canonical key: schema, in drawing order
    attempts = repeats = 0
    while len(seen) < count and attempts < 200 * max(1, count):
        attempts += 1
        factors = pool[rng.randrange(len(pool))]
        slots = list(range(_slots(factors)))
        rng.shuffle(slots)
        pairing = tuple((slots[2 * i], slots[2 * i + 1]) for i in range(len(slots) // 2))
        key = (factors, _least_relabelling(factors, pairing))
        if key not in seen:
            seen[key] = ContractionSchema(*key)
            repeats = 0
            continue
        repeats += 1
        if repeats == _REPEAT_RUN:
            whole = catalog(max_factors, max_deriv, MAX_EXHAUSTIVE_LIMIT)
            if not whole.skipped and len(seen) == len(whole.schemas):
                break
    return tuple(seen.values())


# ------------------------------------------------------------- evaluation
def evaluate_many(
    schemas: Sequence[ContractionSchema],
    spec: MetricSpec,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> np.ndarray:
    """Values of the invariants at `point`, one per schema in input order.

    The factors are joined one at a time over their level views
    (`CurvatureContext.curvature`).  A combination joins one component of
    each factor so far, held as one index row per joined slot, and it is
    dropped as soon as one of its closed pairs meets a zero of `ginv0`.  Each
    kept term is the product of the factor values and then of the g^ab in
    pairing order, and each schema's terms are added in the order of nested
    loops over its factors.

    Schemas with the same factor list share their joins as a trie: those
    whose pairs close the same way up to factor f share one join and filter
    through f, and a branch that the filter leaves with no combination ends
    there.  Each trie node joins its last factor once and reads one table
    g[C[a], C[b]] over its combinations C for every slot pair (a, b) its
    schemas use.  The zero test of those tables comes before any product: a
    schema with no combination left keeps its +0.0, and one `bincount` sums
    the terms of the others.  A context built here reaches the deepest level
    of any schema.
    """
    by_factors: dict[tuple[int, ...], list] = {}
    for i, schema in enumerate(schemas):
        by_factors.setdefault(schema.factors, []).append((i, schema))
    levels = set(chain.from_iterable(by_factors))
    ctx = context or CurvatureContext(spec, point, max(levels, default=0))
    views = {k: ctx.curvature(k) for k in levels}
    for factors in by_factors:
        work = math.prod(max(1, len(views[k].values)) for k in factors)
        if work > WORK_LIMIT:
            raise CapsExceededError(f"evaluation needs {work} support combinations")
    out = np.zeros(len(schemas))
    for factors, members in by_factors.items():
        first = views[factors[0]]
        # 1.0 * value, the first join's weight, is the value itself; an
        # overflow shows as an inf or nan value, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            _join_rest([views[k] for k in factors], ctx.ginv0, 0, first.index.T, first.values,
                       members, out)
    return out


def _join_rest(views, g, f, combo, weight, members, out) -> None:
    """Split the combinations of factors 0..f that the schemas of `members`
    share (`combo`, one row of component indices per joined slot, and
    `weight`) by the pairs that close at f, and join each part that keeps a
    combination with the next factor; at the last factor, finish them."""
    if f == len(views) - 1:
        _finish(g, combo, weight, members, out)
        return
    groups: dict[tuple[tuple[int, int], ...], list] = {}
    for member in members:
        groups.setdefault(member[1]._join_plan[0][f], []).append(member)
    view = views[f + 1]
    nonzero: dict[tuple[int, int], np.ndarray] = {}
    for pairs, group in groups.items():
        part, part_weight = combo, weight
        if pairs:
            keep = np.ones(len(weight), dtype=bool)
            for a, b in pairs:
                if (a, b) not in nonzero:
                    nonzero[a, b] = g[combo[a], combo[b]] != 0.0
                keep &= nonzero[a, b]
            part, part_weight = combo[:, keep], weight[keep]
        if not len(part_weight):
            continue
        # combination (r, c) joins combination r with component c of the view
        joined = np.empty((len(part) + view.rank, len(part_weight), len(view.values)), np.intp)
        joined[:len(part)] = part[:, :, None]
        joined[len(part):] = view.index.T[:, None, :]
        _join_rest(views, g, f + 1, joined.reshape(len(joined), -1),
                   np.multiply.outer(part_weight, view.values).ravel(), group, out)


def _finish(g, combo, weight, members, out) -> None:
    """Values of the schemas of `members` over all their combinations: one
    table row g[combo[a], combo[b]] per slot pair, found by its code
    a * n_slots + b.  The zero test comes first, and only the schemas with a
    combination left form their products.  Blocks of schemas bound the
    (schemas, pairs, combinations) temporaries by SPARSE_PAIR_COST ** 2
    entries, or by one schema's; a schema's terms are summed within one block."""
    if not len(weight):
        return
    n_slots = len(combo)
    n_pairs = n_slots // 2
    step = max(1, SPARSE_PAIR_COST ** 2 // max(1, n_pairs * len(weight)))
    for lo in range(0, len(members), step):
        block = members[lo:lo + step]
        codes = np.array([schema._join_plan[1] for _, schema in block])
        used = np.zeros(n_slots * n_slots, dtype=bool)
        used[codes] = True
        a, b = np.divmod(used.nonzero()[0], n_slots)
        table = g[combo[a], combo[b]]
        rows = used.cumsum()[codes] - 1  # (schemas, pairs): each pair's table row
        keep = np.logical_and.reduce((table != 0.0)[rows], axis=1)  # (schemas, combinations)
        live = keep.any(axis=1)
        n_live = np.count_nonzero(live)
        if not n_live:
            continue  # each value stays +0.0, the bits a bincount of no terms gives
        index = [i for i, _ in block]
        if n_live < len(block):
            rows, keep, index = rows[live], keep[live], np.array(index)[live]
        factors = table[rows]  # (schemas, pairs, combinations)
        terms = weight * factors[:, 0]
        for j in range(1, n_pairs):
            terms *= factors[:, j]
        out[index] = np.bincount(keep.nonzero()[0], weights=terms[keep], minlength=len(rows))


def evaluate(
    schema: ContractionSchema,
    spec: MetricSpec,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> float:
    """Value of one invariant at `point`, summed over the sparse factor
    supports: `evaluate_many`'s batched join on a batch of one.  Over one
    context a schema's value is the same, bit for bit, in any batch: batching
    shares joins and tables, never a schema's terms or their order."""
    return float(evaluate_many((schema,), spec, point, context)[0])


def evaluate_dense(
    schema: ContractionSchema,
    spec: MetricSpec,
    point: Sequence[float],
    context: CurvatureContext | None = None,
) -> float:
    """Same invariant through dense arrays and einsum; slow cross-check."""
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"  # einsum's 52
    if schema.n_slots > len(letters):
        raise CapsExceededError("too many slots for the dense evaluator")
    ctx = context or CurvatureContext(spec, point, max(schema.factors))
    slot_letter = letters[:schema.n_slots]
    subs = []
    ops = []
    off = 0
    for k in schema.factors:
        t = ctx.curvature(k).dense()
        ops.append(t)
        subs.append(slot_letter[off:off + 4 + k])
        off += 4 + k
    for a, b in schema.pairing:
        ops.append(ctx.ginv0)
        subs.append(slot_letter[a] + slot_letter[b])
    expr_str = ",".join(subs) + "->"
    return float(np.einsum(expr_str, *ops, optimize=True))
