"""Coordinate metrics with expression-valued components.

A `MetricSpec` is a chart (ordered coordinate names), a symmetric matrix of
component expressions, and a declared signature `(neg, pos)` counting the
negative and positive eigenvalues the metric is expected to have at valid
points.  Points are sequences of floats in chart order.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex

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
_SINGULAR_TOL = 1e-10  # eigenvalue ratio at or below which `validate_at` calls g singular


class MetricSpec:
    """Symmetric expression-valued metric on a fixed chart.

    `components` maps index pairs to expressions; pairs may be given in
    either order but at most once, and missing pairs are zero.
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
        seen: set[tuple[int, int]] = set()
        for (i, j), e in components.items():
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"component index {(i, j)} out of range for dimension {m}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"component {key} given more than once")
            seen.add(key)
            bad = ex.free_vars(e) - set(self.coords)
            if bad:
                raise ex.UnknownVariableError(sorted(bad)[0], 0)
            table[key[0]][key[1]] = e
            table[key[1]][key[0]] = e
        self.components: tuple[tuple[ex.Expr, ...], ...] = tuple(tuple(row) for row in table)

        av: set[str] = set()
        for i in range(m):
            for j in range(i, m):
                av |= ex.free_vars(self.components[i][j])
        # chart order, not discovery order
        self.active_vars: tuple[str, ...] = tuple(c for c in self.coords if c in av)

    @property
    def is_constant(self) -> bool:
        return not self.active_vars

    def env_at(self, point: Sequence[float]) -> dict[str, float]:
        pt = [float(v) for v in point]
        if len(pt) != self.dim:
            raise ValueError(f"point has length {len(pt)}, chart has {self.dim} coordinates")
        return dict(zip(self.coords, pt))

    def value(self, point: Sequence[float]) -> np.ndarray:
        """Metric matrix at `point` as an (m, m) float array."""
        env = self.env_at(point)
        m = self.dim
        g = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                g[i, j] = g[j, i] = ex.eval_point(self.components[i][j], env)
        return g

    def validate_at(self, point: Sequence[float]) -> np.ndarray:
        """Check nondegeneracy and signature at `point`; return eigenvalues.

        Raises SingularMetricError when the smallest |eigenvalue| falls below
        `_SINGULAR_TOL` times the largest, and SignatureError when the sign counts
        disagree with the declared signature.
        """
        g = self.value(point)
        w = np.linalg.eigvalsh(g)
        scale = float(np.max(np.abs(w)))
        if scale == 0.0 or float(np.min(np.abs(w))) <= _SINGULAR_TOL * scale:
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
    comps = []
    for i in range(spec.dim):
        for j in range(i, spec.dim):
            e = spec.components[i][j]
            if e == _ZERO:
                continue
            comps.append({"i": i, "j": j, "expr": ex.to_text(e)})
    return {
        "dim": spec.dim,
        "coords": list(spec.coords),
        "signature": list(spec.signature),
        "components": comps,
    }


def metric_from_dict(data: Mapping) -> MetricSpec:
    coords = list(data["coords"])
    if int(data["dim"]) != len(coords):
        raise ValueError("dim does not match number of coordinates")
    sig = data["signature"]
    entries = {(int(c["i"]), int(c["j"])): str(c["expr"]) for c in data["components"]}
    return metric_from_strings(coords, entries, (int(sig[0]), int(sig[1])))


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
