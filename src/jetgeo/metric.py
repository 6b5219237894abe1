"""Coordinate metrics with expression-valued components.

A `MetricSpec` is a chart (ordered coordinate names), a symmetric matrix of
component expressions, and a declared signature `(neg, pos)` counting the
negative and positive eigenvalues the metric is expected to have at valid
points.  Points are sequences of floats in chart order.
"""
from __future__ import annotations

import functools
import json
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .jets import NonFiniteError

__all__ = [
    "MetricSpec",
    "SingularMetricError",
    "SignatureError",
    "metric_from_strings",
    "metric_to_dict",
    "metric_from_dict",
    "save_metric",
    "load_metric",
    "flat_metric",
    "two_sphere",
]


class SingularMetricError(ValueError):
    """The metric matrix is (numerically) degenerate at the point."""


class SignatureError(ValueError):
    """Eigenvalue signs at the point disagree with the declared signature."""


_ZERO = ex.Const(0.0)


class MetricSpec:
    """Symmetric expression-valued metric on a fixed chart.

    `components` maps index pairs to expressions; pairs may be given in
    either order but at most once, and missing pairs are zero.  `entry_vars`
    maps each (i, j), i <= j, whose component is not `Const(0.0)`, row by
    row, to the coordinates it depends on, in chart order.
    """

    def __init__(
        self,
        coords: Sequence[str],
        components: Mapping[tuple[int, int], ex.Expr],
        signature: tuple[int, int],
    ):
        self.coords = tuple(coords)
        m = len(self.coords)
        if m == 0:
            raise ValueError("empty chart")
        if len(set(self.coords)) != m:
            raise ValueError("duplicate coordinate names")
        neg, pos = int(signature[0]), int(signature[1])
        if neg < 0 or pos < 0 or neg + pos != m:
            raise ValueError(f"signature {signature} incompatible with dimension {m}")
        self.signature = (neg, pos)
        self.dim = m

        table: list[list[ex.Expr]] = [[_ZERO] * m for _ in range(m)]
        deps: dict[tuple[int, int], frozenset[str]] = {}
        for (i, j), e in components.items():
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"component index {(i, j)} out of range for dimension {m}")
            key = (min(i, j), max(i, j))
            if key in deps:
                raise ValueError(f"component {key} given more than once")
            deps[key] = ex.free_vars(e)
            bad = deps[key] - set(self.coords)
            if bad:
                raise ex.UnknownVariableError(sorted(bad)[0], 0)
            table[key[0]][key[1]] = e
            table[key[1]][key[0]] = e
        self.components: tuple[tuple[ex.Expr, ...], ...] = tuple(tuple(row) for row in table)
        self.entry_vars: dict[tuple[int, int], tuple[str, ...]] = {
            key: tuple(c for c in self.coords if c in deps[key])
            for key in sorted(deps) if table[key[0]][key[1]] != _ZERO}
        self.active_vars: tuple[str, ...] = tuple(
            c for c in self.coords if any(c in names for names in self.entry_vars.values()))

    @functools.cached_property
    def structure(self) -> tuple[np.ndarray, list, list] | None:
        """`_inverse_deps(self)`, decided on first use and kept on the spec."""
        return _inverse_deps(self)

    @functools.cached_property
    def plans(self) -> dict:
        """What the curvature contexts of this spec derive from patterns
        alone, one slot per stage (the metric stage's expression tapes
        among them), each with the patterns it was made for (`curvature`);
        kept on the spec."""
        return {}

    @property
    def is_constant(self) -> bool:
        return not self.active_vars

    def env_at(self, point: Sequence[float]) -> dict[str, float]:
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, chart has {self.dim} coordinates")
        return dict(zip(self.coords, map(float, point)))

    def value(self, points: Sequence[float] | np.ndarray) -> np.ndarray:
        """Metric matrix at one point as an (m, m) float array, or at each
        row of an (N, m) numpy array of points as (N, m, m): `expr.eval_point`
        over the rows of the points' coordinates, each point's matrix the
        one-point value bit for bit.  An overflow in a batch is inf, as it
        is over floats."""
        if getattr(points, "ndim", 1) != 2:
            return self._fill(np.zeros((self.dim, self.dim)), self.env_at(points))
        rows = np.asarray(points, dtype=float).T.copy()
        if len(rows) != self.dim:
            raise ValueError(f"points have {len(rows)} coordinates, chart has {self.dim}")
        g = np.zeros((rows.shape[1], self.dim, self.dim))
        with np.errstate(all="ignore"):  # the view's [i, j] is g[:, i, j]
            self._fill(g.transpose(1, 2, 0), dict(zip(self.coords, rows)))
        return g

    def _fill(self, g: np.ndarray, env: Mapping[str, float | np.ndarray]) -> np.ndarray:
        # g's nonzero entries, g[i, j] = g[j, i], from `eval_point` at env
        comps, walk = self.components, ex.eval_point
        for i, j in self.entry_vars:
            g[i, j] = g[j, i] = walk(comps[i][j], env)
        return g

    def validate_at(self, point: Sequence[float]) -> np.ndarray:
        """Check nondegeneracy and signature at `point`; return eigenvalues.

        Raises NonFiniteError for a non-finite entry, SingularMetricError when
        the smallest |eigenvalue| is at most m eps times the largest (the
        backward error of `np.linalg.eigvalsh`, and `np.linalg.matrix_rank`'s
        default tolerance: such an eigenvalue may be the image of a zero),
        and SignatureError when the sign counts disagree with the signature.
        """
        g = self.value(point)
        if not np.isfinite(g).all():
            raise NonFiniteError(f"metric not finite at {tuple(point)}")
        w = np.linalg.eigvalsh(g)
        if np.min(np.abs(w)) <= self.dim * np.finfo(float).eps * np.max(np.abs(w)):
            raise SingularMetricError(
                f"metric degenerate at {tuple(point)}: eigenvalues {w.tolist()}"
            )
        neg = int(np.sum(w < 0.0))
        pos = int(np.sum(w > 0.0))
        if (neg, pos) != self.signature:
            raise SignatureError(
                f"signature at {tuple(point)} is ({neg}, {pos}), declared {self.signature}"
            )
        return w

    def __repr__(self) -> str:
        return f"MetricSpec(dim={self.dim}, coords={self.coords}, signature={self.signature})"


def _inverse_deps(spec: MetricSpec) -> tuple[np.ndarray, list, list] | None:
    """The structural pattern of g^-1 from the pattern of g, per varying g_kl
    its variables and the entries of g^-1 they reach, and g's blocks in solve
    order; None when g is structurally singular.  Rows are matched to nonzero
    columns by Kuhn's augmenting paths; with the matching on the diagonal,
    g^-1 has the pattern of the transitive closure of g's digraph (Gilbert,
    SIAM J. Matrix Anal. Appl. 15(1), 1994).  As dg^cd/dg_kl = -g^ck g^ld,
    g_kl reaches g^cd where g^ck and g^ld are nonzero.  Both are supersets
    (cancellation is unseen).  Rows that reach each other form a block, with
    their matched columns, each ascending; a block comes after the blocks it
    reaches, which reach fewer rows (block triangular form: Duff, Erisman
    and Reid, *Direct Methods for Sparse Matrices*, ch. 6)."""
    m = spec.dim
    g = np.zeros((m, m), dtype=bool)
    for i, j in spec.entry_vars:
        g[i, j] = g[j, i] = True
    mate = [-1] * m  # mate[c]: the row matched to column c

    def augment(r: int, seen: set[int]) -> bool:
        for c in np.flatnonzero(g[r]).tolist():
            if c not in seen:
                seen.add(c)
                if mate[c] < 0 or augment(mate[c], seen):
                    mate[c] = r
                    return True
        return False

    if not all(augment(r, set()) for r in range(m)):
        return None
    reach = g[:, (col := np.argsort(mate))]  # row r's matched column moved to column r
    for k in range(m):
        reach |= reach[:, k:k + 1] & reach[k:k + 1]
    blocks: dict[tuple[int, ...], list[int]] = {}
    for r in sorted(range(m), key=lambda r: (np.count_nonzero(reach[r]), r)):
        rows = tuple(np.flatnonzero(reach[r] & reach[:, r]).tolist())
        blocks.setdefault(rows, sorted(col[list(rows)].tolist()))
    inv = reach[mate]
    return inv, [(names, np.outer(inv[:, k], inv[l]) | np.outer(inv[:, l], inv[k]))
                 for (k, l), names in spec.entry_vars.items() if names], list(blocks.items())


def metric_from_strings(
    coords: Sequence[str],
    entries: Mapping[tuple[int, int], str],
    signature: tuple[int, int],
) -> MetricSpec:
    """Build a MetricSpec by parsing textual component expressions."""
    parsed = {ij: ex.parse(text, coords) for ij, text in entries.items()}
    return MetricSpec(coords, parsed, signature)


# ------------------------------------------------------------- serialization
def metric_to_dict(spec: MetricSpec) -> dict:
    comps = [{"i": i, "j": j, "expr": ex.to_text(spec.components[i][j])}
             for i, j in spec.entry_vars]
    return {
        "dim": spec.dim,
        "coords": list(spec.coords),
        "signature": list(spec.signature),
        "components": comps,
    }


def _integer(value, field: str) -> int:
    # a JSON integer alone: int() would read 0.9 as 0 and true as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def metric_from_dict(data: Mapping) -> MetricSpec:
    coords = list(data["coords"])
    if _integer(data["dim"], "dim") != len(coords):
        raise ValueError("dim does not match number of coordinates")
    sig = data["signature"]
    if len(sig) != 2:
        raise ValueError(f"signature must hold two counts, got {sig!r}")
    sig = tuple(_integer(v, "signature") for v in sig)
    entries = {}
    for c in data["components"]:
        key = (_integer(c["i"], "i"), _integer(c["j"], "j"))
        if key in entries:  # a dict would keep the last silently
            raise ValueError(f"component {key} given more than once")
        entries[key] = str(c["expr"])
    return metric_from_strings(coords, entries, sig)


def save_metric(spec: MetricSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metric_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_metric(path: str) -> MetricSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return metric_from_dict(json.load(fh))


# ------------------------------------------------------------ stock examples
def flat_metric(coords: Sequence[str], signature: tuple[int, int]) -> MetricSpec:
    """Diagonal constant metric: -1 on the first `neg` coords, +1 after."""
    neg, _pos = signature
    comps = {
        (i, i): ex.Const(-1.0 if i < neg else 1.0)
        for i in range(len(coords))
    }
    return MetricSpec(coords, comps, signature)


def two_sphere() -> MetricSpec:
    """Unit round sphere in polar chart (theta, phi), valid away from the poles."""
    coords = ("theta", "phi")
    comps: dict[tuple[int, int], ex.Expr] = {
        (0, 0): ex.Const(1.0),
        (1, 1): ex.Pow(ex.Sin(ex.Var("theta")), 2),
    }
    return MetricSpec(coords, comps, (0, 2))
