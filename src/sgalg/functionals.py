"""Functionals on the free monomial algebra and their convolution.

Evaluation is exact (Gaussian rational) unless a point-mass leaf occurs, in
which case it is a complex float: the scalars' mixing rule turns any sum or
product with a complex value into a complex.  Convolution pairs two
functionals through the diagonal coproduct, so on a basis expansion it
multiplies values monomial by monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .scalars import GaussianRational, ONE, ZERO, turn_phase
from .semigroup import NumericalSemigroup
from .translations import PartialTranslation, compose, elementary
from .quantum import FreeElement

Scalar = Union[GaussianRational, complex]


@dataclass(frozen=True)
class MatrixCoeff:
    """Matrix coefficient against two basis points: value <V e_b, e_a>."""
    a: int
    b: int


@dataclass(frozen=True)
class SymbolPointMass:
    """Point evaluation of the symbol at angle 2*pi*turns.

    Sees only the monomial index, so it annihilates the commutator ideal.
    """
    turns: Fraction


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


def point_mass(turns) -> Functional:
    return SymbolPointMass(Fraction(turns))


def lin_combo(terms: Sequence[tuple[GaussianRational, Functional]]) -> Functional:
    return LinCombo(tuple((GaussianRational.coerce(c), f) for c, f in terms))


def convolve(xi: Functional, eta: Functional) -> Functional:
    return Convolution(xi, eta)


def phi_star(xi: Functional, s: NumericalSemigroup, e: int) -> Functional:
    if not s.contains(e):
        raise ValueError(f"{e} is not a member")
    return ShiftPullback(xi, e)


def eval_on_monomial(xi: Functional, v: PartialTranslation) -> Scalar:
    kind = type(xi)
    if kind is MatrixCoeff:
        b = xi.b
        if b + v.index == xi.a and v.semigroup.contains(b) and not (v.mask >> b) & 1:
            return ONE
        return ZERO
    if kind is SymbolPointMass:
        return turn_phase(v.index, xi.turns)
    if kind is LinCombo:
        return sum((c * eval_on_monomial(f, v) for c, f in xi.terms), ZERO)
    if kind is Convolution:
        return eval_on_monomial(xi.left, v) * eval_on_monomial(xi.right, v)
    if kind is ShiftPullback:
        # T_e* V T_e is one monomial; phi_star has checked that e is a member.
        s, e = v.semigroup, xi.e
        return eval_on_monomial(xi.inner, compose(elementary(s, e, True),
                                                  compose(v, elementary(s, e, False))))
    raise TypeError(f"not a functional: {xi!r}")


def evaluate(xi: Functional, x: FreeElement) -> Scalar:
    """Linear extension of the monomial values over the basis expansion."""
    if isinstance(xi, MatrixCoeff):
        s = x.semigroup
        if not s.contains(xi.a) or not s.contains(xi.b):
            raise ValueError("matrix coefficient against non-members")
    return sum((c * eval_on_monomial(xi, v) for v, c in x.terms.items()), ZERO)
