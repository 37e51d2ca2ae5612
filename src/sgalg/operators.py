"""Exact calculus for the dense subalgebra of weighted translations.

An element is a finite combination of two kinds of basis operator: the
widest translation M_c of each index c (e_d -> e_{d+c} wherever d + c stays
a member), keyed ``(c, None)``, and the matrix unit e_d -> e_{d+c} between
members d and d + c, keyed ``(c, d)``.  This is Coburn's extension
0 -> K -> C*(S) -> C(T) -> 0 on the dense algebra: the widest translations
lift the symbol, and the matrix units span the finite part of the
commutator ideal.  The keys are linearly independent (at one index M_c acts
at infinitely many members, the units at finitely many), so this form is
faithful: the element is zero exactly when no key is stored, and operator
equality is equality of the term dicts.  Monomial indicator combinations
are linearly dependent for non-totally-ordered semigroups, so this form
(not a monomial expansion) is what makes operator equality decidable.

Coefficients are exact Gaussian rationals or complex floats; the float layer
(gauge twists, Fourier projection) uses the same elements with complex
coefficients, and their symbols have complex coefficients.  ``weights``
lists an element as one eventually constant weight per index.
"""

from __future__ import annotations

from .scalars import Combination, ONE, ZERO
from .semigroup import NumericalSemigroup, bit_positions
from .translations import PartialTranslation, _leaving, elementary


class LaurentPolynomial(Combination):
    """Finite combination of integer-exponent characters of the circle.

    Coefficients are exact scalars or complex floats, as the weights are.
    """

    __slots__ = ()

    def __init__(self, terms: dict):
        super().__init__(None, terms)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self._product(other, int.__add__)
        return super().__mul__(other)

    def conjugate_reflect(self) -> "LaurentPolynomial":
        """Adjoint of the function: conjugate coefficients, negate exponents."""
        return LaurentPolynomial({-c: v.conjugate() for c, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [f"({v})X^{c}" for c, v in sorted(self.terms.items())]
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPolynomial({self.terms!r})"

    def to_json_dict(self) -> dict:
        return {"coefficients": [[c, str(v)] for c, v in sorted(self.terms.items())]}


class OperatorElement(Combination):
    """Element of the dense subalgebra: widest translations plus matrix units.

    ``terms`` maps ``(c, None)`` (the widest translation of index c) and
    ``(c, d)`` (the unit e_d -> e_{d+c}) to coefficients.
    """

    __slots__ = ()

    def __init__(self, semigroup: NumericalSemigroup, terms: dict):
        for c, d in terms:
            if d is not None and not (semigroup.contains(d) and semigroup.contains(d + c)):
                raise ValueError(f"matrix unit ({c}, {d}) needs members {d} and {d}+{c}")
        super().__init__(semigroup, terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, semigroup: NumericalSemigroup) -> "OperatorElement":
        return cls._new(semigroup, {})

    @classmethod
    def identity(cls, semigroup: NumericalSemigroup) -> "OperatorElement":
        return cls._new(semigroup, {(0, None): ONE})

    # -- basic structure ----------------------------------------------------

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted({c for c, _d in self.terms}))

    def weights(self) -> dict[int, tuple]:
        """Each index's weight as (tail, exceptions), in increasing index order:
        the tail is M_c's coefficient m, the exceptions are zero where M_c leaves
        the semigroup and m + u at each unit u.  Built on each call."""
        s = self.semigroup
        tails, units = _parts(self)
        weights = {c: (m, dict.fromkeys(bit_positions(_leaving(s, c)), ZERO))
                   for c, m in tails}
        for (c, d), u in units:
            m, exceptions = weights.setdefault(c, (ZERO, {}))
            exceptions[d] = m + u
        return dict(sorted(weights.items()))

    # -- algebra -------------------------------------------------------------

    # Bound in this class's own namespace, where perfbench/tracing.py looks.
    __add__ = Combination.__add__

    def __mul__(self, other):
        """Operator product; the right factor acts first."""
        if type(other) is not OperatorElement:
            return super().__mul__(other)
        self._same(other)
        s = self.semigroup
        member = s.contains
        left_tails, left_units = _parts(self)
        right_tails, right_units = _parts(other)
        by_target: dict[int, list] = {}
        for (c, d), u in right_units:
            by_target.setdefault(d + c, []).append((c, d, u))

        def pairs():
            for a, x in left_tails:
                for b, y in right_tails:
                    # M_a M_b = M_{a+b} on the d with d + b a member.
                    xy = x * y
                    yield (a + b, None), xy
                    for d in bit_positions(_leaving(s, b) & ~_leaving(s, a + b)):
                        yield (a + b, d), -xy
                for (c, d), u in right_units:
                    if member(d + c + a):
                        yield (c + a, d), x * u
            for (c, d), u in left_units:
                for b, y in right_tails:
                    if member(d - b):
                        yield (c + b, d - b), u * y
                for c2, d2, u2 in by_target.get(d, ()):
                    yield (c + c2, d2), u * u2

        return OperatorElement.collect(s, pairs())

    def adjoint(self) -> "OperatorElement":
        """M_c* = M_{-c} and (e_d -> e_{d+c})* = (e_{d+c} -> e_d), coefficients conjugated."""
        return OperatorElement._new(self.semigroup, {
            (-c, None if d is None else d + c): v.conjugate()
            for (c, d), v in self.terms.items()})

    # -- basis action ---------------------------------------------------------

    def apply(self, d: int) -> dict:
        """Coefficients of the image of basis point d; empty when killed."""
        member = self.semigroup.contains
        if not member(d):
            raise ValueError(f"{d} is not a member")
        out = {}
        for (c, e), v in self.terms.items():
            # M_c moves d wherever d + c is a member; the unit (c, e) only e.
            if e == d or e is None and member(d + c):
                out[d + c] = out[d + c] + v if d + c in out else v
        return {m: v for m, v in out.items() if v}

    # -- grading ----------------------------------------------------------------

    def grade(self, c: int) -> "OperatorElement":
        """The single index-c graded component (zero element when absent)."""
        return OperatorElement._new(self.semigroup,
                                    {k: v for k, v in self.terms.items() if k[0] == c})

    def expectation(self) -> "OperatorElement":
        """Projection onto the zero-index subalgebra."""
        return self.grade(0)

    # -- symbol and ideal ---------------------------------------------------------

    def stabilization_threshold(self) -> int:
        """Least N with conjugate(e) equal to the lifted symbol for all members e >= N."""
        s = self.semigroup
        return max((_leaving(s, c).bit_length() if d is None else d + 1
                    for c, d in self.terms), default=0)

    def conjugate(self, e: int) -> "OperatorElement":
        """Shift conjugation T_e* A T_e: fixes each M_c, moves each unit down by e."""
        s = self.semigroup
        if not s.contains(e):
            raise ValueError(f"{e} is not a member")
        return OperatorElement._new(s, {
            (c, d if d is None else d - e): v for (c, d), v in self.terms.items()
            if d is None or (s.contains(d - e) and s.contains(d + c - e))})

    def symbol(self) -> LaurentPolynomial:
        """Image in the commutative quotient: the widest translations' coefficients."""
        return LaurentPolynomial(dict(_parts(self)[0]))

    def in_ideal(self) -> bool:
        """Membership in the commutator ideal: vanishing symbol."""
        return self.symbol().is_zero

    def split(self) -> tuple[LaurentPolynomial, "OperatorElement"]:
        """Exact splitting A = lift(symbol(A)) + ideal part, the matrix units."""
        return self.symbol(), OperatorElement._new(self.semigroup, dict(_parts(self)[1]))

    def deviation_from(self, other: "OperatorElement") -> float:
        """Max absolute weight difference over all indices and members."""
        return max(map(abs, term_values(self - other).values()), default=0.0)

    # -- printing -------------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for c, (tail, exceptions) in self.weights().items():
            exc = ",".join(f"{d}:{v}" for d, v in sorted(exceptions.items()))
            parts.append(f"[{c}] ({{{exc}}}, tail={tail}, N={max(exceptions, default=-1) + 1})")
        return "; ".join(parts)

    def __repr__(self):
        return f"OperatorElement({self.semigroup!r}, {self.terms!r})"

    def to_json_dict(self) -> dict:
        return {"components": [
            {"index": c,
             "exceptions": [[d, str(v)] for d, v in sorted(exceptions.items())],
             "tail": str(tail),
             "threshold": max(exceptions, default=-1) + 1}
            for c, (tail, exceptions) in self.weights().items()]}


def _parts(a: OperatorElement) -> tuple[list, list]:
    """The (index, coefficient) pairs of the widest translations and the
    ((index, source), coefficient) pairs of the matrix units."""
    tails, units = [], []
    for (c, d), v in a.terms.items():
        if d is None:
            tails.append((c, v))
        else:
            units.append(((c, d), v))
    return tails, units


def term_values(a: OperatorElement) -> dict:
    """The weight on each term: m on all of M_c's row, m + u at the unit (c, d)."""
    tails = {c: m for (c, d), m in a.terms.items() if d is None}
    return {(c, d): v if d is None else tails.get(c, 0) + v for (c, d), v in a.terms.items()}


def monomial_terms(v: PartialTranslation, coeff) -> list:
    """The terms of coeff times from_monomial(v), its units first."""
    c = v.index
    units = bit_positions(v.mask & ~_leaving(v.semigroup, c))
    neg = -coeff if units else None
    return [((c, d), neg) for d in units] + [((c, None), coeff)]


def from_monomial(v: PartialTranslation) -> OperatorElement:
    """M_c minus the units at the members v's domain leaves out beyond M_c's."""
    return OperatorElement._new(v.semigroup, dict(monomial_terms(v, ONE)))


def toeplitz_lift(f: LaurentPolynomial, semigroup: NumericalSemigroup) -> OperatorElement:
    """Combination of widest translations with prescribed symbol f."""
    return OperatorElement._new(semigroup, {(c, None): v for c, v in f.terms.items()})


def generator_commutator(semigroup: NumericalSemigroup, a: int, b: int,
                         a_star: bool = False, b_star: bool = False) -> OperatorElement:
    """UW - WU for two elementary letters; a generator of the commutator ideal."""
    u = from_monomial(elementary(semigroup, a, a_star))
    w = from_monomial(elementary(semigroup, b, b_star))
    return u * w - w * u
