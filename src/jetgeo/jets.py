"""Truncated multivariate Taylor arithmetic.

A jet records every partial derivative of a smooth function at a base point up
to a fixed total order K, stored as Taylor coefficients d^m f(base) / m!.  Sums,
products and analytic primitives of jets are exact to the truncation order, so
the curvature pipeline downstream obtains high-order derivatives without any
finite differencing.

Coefficients live in a dense table indexed by multi-indices in graded
lexicographic order.  The grading means the coefficients of order <= q are a
prefix of the table, so truncation is a slice.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

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


def _compositions(total: int, n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        if total == 0:
            yield ()
        return
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def jet_space(variables: tuple[str, ...], order: int) -> "JetSpace":
    """Canonical (cached) space for an ordered variable tuple and order."""
    return JetSpace(variables, order)


class JetSpace:
    """Multi-index bookkeeping shared by all jets over one variable tuple.

    Use :func:`jet_space` to obtain instances; the cache guarantees that equal
    (variables, order) pairs share tables, and binary operations accept jets
    whose spaces agree structurally.
    """

    def __init__(self, variables: Sequence[str], order: int):
        if order < 0:
            raise JetOrderError(f"truncation order must be >= 0, got {order}")
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in {self.variables}")
        self.order = int(order)
        self.n = len(self.variables)
        multis: list[tuple[int, ...]] = []
        for d in range(self.order + 1):
            multis.extend(_compositions(d, self.n))
        self.multis: tuple[tuple[int, ...], ...] = tuple(multis)
        self.size = len(multis)
        self.rank = {m: i for i, m in enumerate(multis)}
        self._var_pos = {name: i for i, name in enumerate(self.variables)}
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
    def _mul(self):
        # Symmetrized pair table: rows with ia < ib contribute
        # a[ia]*b[ib] + a[ib]*b[ia], diagonal rows contribute a[ia]*b[ia].
        # The symmetry makes a * b and b * a bit-identical.
        if self._mul_tables is None:
            off_a: list[int] = []
            off_b: list[int] = []
            off_o: list[int] = []
            diag: list[int] = []
            diag_o: list[int] = []
            for ra, ma in enumerate(self.multis):
                da = sum(ma)
                hi = self.size_at(self.order - da)
                for rb in range(ra, hi):
                    mb = self.multis[rb]
                    out = self.rank[tuple(x + y for x, y in zip(ma, mb))]
                    if rb == ra:
                        diag.append(ra)
                        diag_o.append(out)
                    else:
                        off_a.append(ra)
                        off_b.append(rb)
                        off_o.append(out)
            self._mul_tables = (
                np.array(off_a, dtype=np.intp),
                np.array(off_b, dtype=np.intp),
                np.array(off_o, dtype=np.intp),
                np.array(diag, dtype=np.intp),
                np.array(diag_o, dtype=np.intp),
            )
        return self._mul_tables

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ia, ib, io, idg, idg_o = self._mul()
        out = np.zeros(self.size)
        if len(io):
            w = a[ia] * b[ib] + a[ib] * b[ia]
            out += np.bincount(io, weights=w, minlength=self.size)
        if len(idg_o):
            wd = a[idg] * b[idg]
            out += np.bincount(idg_o, weights=wd, minlength=self.size)
        return out

    def deriv_table(self, name: str):
        if name not in self._deriv_tables:
            if self.order == 0:
                raise JetOrderError("cannot differentiate an order-0 jet")
            target = jet_space(self.variables, self.order - 1)
            v = self._var_pos[name]
            src = np.empty(target.size, dtype=np.intp)
            fac = np.empty(target.size)
            for r, m in enumerate(target.multis):
                up = tuple(x + 1 if i == v else x for i, x in enumerate(m))
                src[r] = self.rank[up]
                fac[r] = m[v] + 1
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

