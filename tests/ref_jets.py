"""The jet arithmetic the tests take as their reference.

`RefJet` is a `jetgeo.jets.Jet` with operators: sums, differences,
negation and products of jets over the union of their code sets
(`JetSpace.join`, `JetSpace.multiply`), a float operand as its constant
jet, truncation, partial derivatives (`JetSpace.deriv_cols`), and exp, sin,
cos (`JetSpace.series_rows`) and non-negative integer powers.  The library
computes jets only by `expr.eval_jet`'s tape replays and the planned
curvature stages, many jets a step; this arithmetic takes one jet at a
time, so the tests check the library's jets against it.  `ref(jet)` reads
a library jet as a `RefJet`, and every result here is one.
"""
import numpy as np

from jetgeo.jets import (Jet, JetMismatchError, JetOrderError, JetSpace, NonFiniteError, _power,
                         _series_coefficients, jet_space)


def ref(jet: Jet) -> "RefJet":
    """`jet` with the reference operators."""
    return RefJet(jet.space, jet.coef)


def ref_zero(space: JetSpace) -> "RefJet":
    """The zero jet of `space`'s variables and order, which occupies no code."""
    return RefJet(space.occupying(np.zeros(0, dtype=space._dtype)), np.zeros(0))


class RefJet(Jet):
    __slots__ = ()

    def _check_mate(self, other: Jet) -> None:
        if (self.variables, self.order) != (other.variables, other.order):
            raise JetMismatchError(
                f"jet over {self.variables} order {self.order} combined with "
                f"jet over {other.variables} order {other.order}"
            )

    def _mate(self, other: Jet):
        """The space at the union of both operands' codes, and their
        coefficients there."""
        self._check_mate(other)
        mine, theirs = self.space, other.space
        if mine is theirs:
            return mine, self.coef, other.coef
        space, at_a, at_b = mine.join(theirs)
        a, b = np.zeros((2, space.size))
        a[at_a], b[at_b] = self.coef, other.coef
        return space, a, b

    # A scalar operand gives the bits of its constant jet: a sum adds it as
    # that jet, and a product scales by it and adds +0.0, as that jet's
    # product starts each bin at +0.0; both turn a -0.0 coefficient into
    # +0.0 (finite operands)
    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = self.space.constant(other)
        space, a, b = self._mate(other)
        return RefJet(space, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        space, a, b = self._mate(other)
        return RefJet(space, a - b)

    def __neg__(self):
        return RefJet(self.space, -self.coef)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return RefJet(self.space, self.coef * other + 0.0)
        space, a, b = self._mate(other)
        coef = space.multiply(a, b)
        return RefJet(space.product_space(), coef)

    __rmul__ = __mul__

    def truncated(self, order: int) -> "RefJet":
        """Drop coefficients above the given total order (a prefix slice)."""
        if order > self.order:
            raise JetOrderError(f"cannot raise order {self.order} to {order}")
        if order == self.order:
            return self
        space, target = self.space, jet_space(self.variables, order)
        n = space._codes.searchsorted(space.stop(order))
        return RefJet(target.occupying(space.recode(space._codes[:n], target)),
                      self.coef[:n].copy())

    def deriv(self, name: str) -> "RefJet":
        """Partial derivative; one order lower.  Zero for foreign variables."""
        if self.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        lower = jet_space(self.variables, self.order - 1)
        if name not in self.space._var_pos:
            return ref_zero(lower)
        space, v = self.space, self.space._var_pos[name]
        codes, pos, fac = space.deriv_cols(space._codes)
        coef = np.append(self.coef, 0.0)[pos[v]] * fac[v]
        return RefJet(lower.occupying(space.recode(codes, lower)), coef)

    def _series(self, coeffs) -> "RefJet":
        # Horner evaluation of sum_j coeffs[j] * (self - value)^j, over codes
        # that hold code 0 (`JetSpace.series_rows`, one row).  The shifted
        # jet is nilpotent past the truncation order, so this is exact
        jet = self if self.space._zero else self + 0.0
        if not self.order:
            return ref(jet.space.constant(coeffs[0]))
        nil = jet.coef[None].copy()
        nil[0, 0] = 0.0
        space, acc = jet.space.series_rows(nil, [coeffs])
        return RefJet(space, acc[0])

    def exp(self) -> "RefJet":
        coeffs = _series_coefficients("exp", self.value(), self.order)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = self._series(coeffs)
        if not np.isfinite(out.coef).all():
            raise NonFiniteError("non-finite coefficients in jet exp")
        return out

    def sin(self) -> "RefJet":
        return self._series(_series_coefficients("sin", self.value(), self.order))

    def cos(self) -> "RefJet":
        return self._series(_series_coefficients("cos", self.value(), self.order))

    def pow(self, exponent: int) -> "RefJet":
        if exponent < 0 or exponent != int(exponent):
            raise ValueError(f"jet powers must be non-negative integers, got {exponent}")
        return (_power(self, int(exponent), RefJet.__mul__) if exponent
                else ref(self.space.constant(1.0)))
