"""Functionals on the free monomial algebra and their convolution.

Evaluation is exact (Gaussian rational) unless a point-mass leaf occurs, in
which case it is a complex float: the scalars' mixing rule turns any sum or
product with a complex value into a complex.  Convolution pairs two
functionals through the diagonal coproduct, so on a basis expansion it
multiplies values monomial by monomial.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .scalars import GaussianRational, ONE, ZERO
from .semigroup import NumericalSemigroup
from .translations import PartialTranslation
from .quantum import FreeElement

Scalar = Union[GaussianRational, complex]


@dataclass(frozen=True)
class MatrixCoeff:
    """Matrix coefficient against two basis points: value <V e_b, e_a>."""
    a: int
    b: int


@dataclass(frozen=True)
class SymbolPointMass:
    """Point evaluation of the symbol at angle 2*pi*turns, scaled by weight.

    Sees only the monomial index, so it annihilates the commutator ideal.
    """
    turns: Fraction
    weight: complex = 1.0


@dataclass(frozen=True)
class LinCombo:
    terms: tuple[tuple[GaussianRational, "Functional"], ...]


@dataclass(frozen=True)
class Convolution:
    left: "Functional"
    right: "Functional"


@dataclass(frozen=True)
class ShiftPullback:
    """Pullback along basis-wise shift conjugation by a member."""
    inner: "Functional"
    e: int


Functional = Union[MatrixCoeff, SymbolPointMass, LinCombo, Convolution, ShiftPullback]


def haar() -> Functional:
    """The absorbing state: the (0, 0) matrix coefficient."""
    return MatrixCoeff(0, 0)


def point_mass(turns, weight: complex = 1.0) -> Functional:
    return SymbolPointMass(Fraction(turns), complex(weight))


def lin_combo(terms: Sequence[tuple[GaussianRational, Functional]]) -> Functional:
    return LinCombo(tuple((GaussianRational.coerce(c), f) for c, f in terms))


def convolve(xi: Functional, eta: Functional) -> Functional:
    return Convolution(xi, eta)


def phi_star(xi: Functional, s: NumericalSemigroup, e: int) -> Functional:
    if not s.contains(e):
        raise ValueError(f"{e} is not a member")
    return ShiftPullback(xi, e)


def is_exact(xi: Functional) -> bool:
    if isinstance(xi, MatrixCoeff):
        return True
    if isinstance(xi, SymbolPointMass):
        return False
    if isinstance(xi, LinCombo):
        return all(is_exact(f) for _c, f in xi.terms)
    if isinstance(xi, Convolution):
        return is_exact(xi.left) and is_exact(xi.right)
    if isinstance(xi, ShiftPullback):
        return is_exact(xi.inner)
    raise TypeError(f"not a functional: {xi!r}")


def eval_on_monomial(xi: Functional, v: PartialTranslation) -> Scalar:
    if isinstance(xi, MatrixCoeff):
        if v.domain.contains(xi.b) and xi.b + v.index == xi.a:
            return ONE
        return ZERO
    if isinstance(xi, SymbolPointMass):
        angle = 2.0 * cmath.pi * float(xi.turns)
        return xi.weight * cmath.exp(1j * v.index * angle)
    if isinstance(xi, LinCombo):
        return sum((c * eval_on_monomial(f, v) for c, f in xi.terms), ZERO)
    if isinstance(xi, Convolution):
        return eval_on_monomial(xi.left, v) * eval_on_monomial(xi.right, v)
    if isinstance(xi, ShiftPullback):
        conj = FreeElement.monomial(v).conjugate_by_shift(xi.e)
        return evaluate(xi.inner, conj)
    raise TypeError(f"not a functional: {xi!r}")


def evaluate(xi: Functional, x: FreeElement) -> Scalar:
    """Linear extension of the monomial values over the basis expansion."""
    if isinstance(xi, MatrixCoeff):
        s = x.semigroup
        if not s.contains(xi.a) or not s.contains(xi.b):
            raise ValueError("matrix coefficient against non-members")
    return sum((c * eval_on_monomial(xi, v) for v, c in x.terms.items()), ZERO)


def _scalars_close(a: Scalar, b: Scalar, tol: float) -> bool:
    if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
        return a == b
    return abs(a - b) <= tol


def haar_property_check(phi: Functional, x: FreeElement, tol: float = 1e-12) -> bool:
    """Absorbing law through the identity coefficient, both product orders."""
    h = haar()
    phi_at_identity = evaluate(phi, FreeElement.identity(x.semigroup))
    expected = phi_at_identity * evaluate(h, x)
    left = evaluate(convolve(h, phi), x)
    right = evaluate(convolve(phi, h), x)
    return _scalars_close(left, expected, tol) and _scalars_close(right, expected, tol)


def measure_convolution_check(alpha, beta, x: FreeElement, tol: float = 1e-10) -> bool:
    """Point-mass convolution agrees with the point mass at the summed angle."""
    pa, pb = point_mass(alpha), point_mass(beta)
    lhs = evaluate(convolve(pa, pb), x)
    rhs = evaluate(point_mass(Fraction(alpha) + Fraction(beta)), x)
    return _scalars_close(lhs, rhs, tol)
