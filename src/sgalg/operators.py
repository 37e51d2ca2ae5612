"""Exact calculus for the dense subalgebra of weighted translations.

An element is stored per shift index as an eventually-constant weight
function on the semigroup.  This form is faithful: the element is zero
exactly when no component is stored.  Monomial indicator combinations are
linearly dependent for non-totally-ordered semigroups, so the weight form
(not a monomial expansion) is what makes operator equality decidable.

Weights are exact Gaussian rationals or complex floats; the float layer
(gauge twists, Fourier projection) uses the same elements with complex
weights, and their symbols have complex coefficients.
"""

from __future__ import annotations

from typing import Callable

from .scalars import Combination, GaussianRational, ONE, ZERO, as_scalar
from .semigroup import NumericalSemigroup
from .translations import PartialTranslation, elementary, max_translation


class EventualWeight:
    """Weight function on the semigroup, constant above a minimal threshold.

    Stored as the constant tail value plus the finitely many members where
    the value differs from it.  A weight with a complex value is all complex.
    """

    __slots__ = ("exceptions", "tail", "_key")

    def __init__(self, exceptions: dict, tail):
        if isinstance(tail, complex) or any(isinstance(v, complex)
                                            for v in exceptions.values()):
            tail = complex(tail)
            exceptions = {d: complex(v) for d, v in exceptions.items()}
        tail = as_scalar(tail)
        cleaned = {d: v if type(v) is GaussianRational else as_scalar(v)
                   for d, v in exceptions.items() if v != tail}
        self.exceptions = cleaned
        self.tail = tail
        self._key = (tuple(sorted(cleaned.items())), tail)

    @property
    def threshold(self) -> int:
        return max(self.exceptions) + 1 if self.exceptions else 0

    def value(self, d: int):
        return self.exceptions.get(d, self.tail)

    @property
    def is_zero(self) -> bool:
        return not self.tail and not self.exceptions

    def __eq__(self, other):
        if not isinstance(other, EventualWeight):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"EventualWeight({self.exceptions!r}, tail={self.tail!r})"


def weight_from_fn(s: NumericalSemigroup, fn: Callable[[int], object],
                   bound: int, tail) -> EventualWeight:
    """Weight equal to fn on members below bound and to tail from bound on."""
    return EventualWeight({d: fn(d) for d in s.members_upto(bound - 1)}, tail)


def _value_ext(s: NumericalSemigroup, w: EventualWeight, x: int):
    """Weight value extended by zero off the semigroup.

    The zero is the int 0, which mixes with exact and complex values alike.
    """
    return w.value(x) if s.contains(x) else 0


class LaurentPolynomial(Combination):
    """Finite combination of integer-exponent characters of the circle.

    Coefficients are exact scalars or complex floats, as the weights are.
    """

    __slots__ = ()

    def __init__(self, terms: dict):
        super().__init__(None, terms)

    @classmethod
    def character(cls, c: int, coeff=1) -> "LaurentPolynomial":
        return cls({c: coeff})

    def coefficient(self, c: int) -> GaussianRational:
        return self.terms.get(c, ZERO)

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

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


class OperatorElement:
    """Element of the dense subalgebra in faithful weighted-translation form."""

    __slots__ = ("semigroup", "components", "_key")

    def __init__(self, semigroup: NumericalSemigroup,
                 components: dict[int, EventualWeight]):
        comps = {int(c): w for c, w in components.items() if not w.is_zero}
        for c, w in comps.items():
            # Support condition: the weight must vanish wherever the shifted
            # basis point would leave the semigroup.
            bound = max(semigroup.frobenius - c, -c, -1)
            for d in semigroup.members_upto(bound):
                if not semigroup.contains(d + c) and w.value(d):
                    raise ValueError(
                        f"component {c} has weight {w.value(d)} at {d}, "
                        f"but {d}+{c} is outside the semigroup")
        self._fill(semigroup, comps)

    @classmethod
    def _closed(cls, semigroup: NumericalSemigroup,
                components: dict[int, EventualWeight]) -> "OperatorElement":
        """Element of weights known to meet the support condition, not rescanned."""
        out = cls.__new__(cls)
        out._fill(semigroup, {c: w for c, w in components.items() if not w.is_zero})
        return out

    def _fill(self, semigroup: NumericalSemigroup, comps: dict[int, EventualWeight]):
        self.semigroup = semigroup
        self.components = comps
        self._key = (semigroup, tuple(sorted((c, w._key) for c, w in comps.items())))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, semigroup: NumericalSemigroup) -> "OperatorElement":
        return cls(semigroup, {})

    @classmethod
    def identity(cls, semigroup: NumericalSemigroup) -> "OperatorElement":
        return cls._closed(semigroup, {0: EventualWeight({}, ONE)})

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))

    def weight_at(self, c: int) -> EventualWeight:
        return self.components.get(c, EventualWeight({}, ZERO))

    def _check_same(self, other: "OperatorElement"):
        if self.semigroup != other.semigroup:
            raise ValueError("elements over different semigroups")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        self._check_same(other)
        s = self.semigroup
        out: dict[int, EventualWeight] = {}
        for c in set(self.components) | set(other.components):
            wa, wb = self.components.get(c), other.components.get(c)
            if wa is None or wb is None:
                # A component on one side only is copied, not rebuilt.
                out[c] = wb if wa is None else wa
                continue
            bound = max(wa.threshold, wb.threshold)
            out[c] = weight_from_fn(s, lambda d: wa.value(d) + wb.value(d),
                                    bound, wa.tail + wb.tail)
        return OperatorElement._closed(s, out)

    def __sub__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(GaussianRational(-1))

    def scale(self, scalar) -> "OperatorElement":
        scalar = as_scalar(scalar)
        if not scalar:
            return OperatorElement.zero(self.semigroup)
        out = {c: EventualWeight({d: scalar * v for d, v in w.exceptions.items()},
                                 scalar * w.tail)
               for c, w in self.components.items()}
        return OperatorElement._closed(self.semigroup, out)

    def __mul__(self, other):
        if isinstance(other, OperatorElement):
            return self._product(other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    # -- multiplicative structure --------------------------------------------

    def _product(self, other: "OperatorElement") -> "OperatorElement":
        """Operator product; the right factor acts first."""
        self._check_same(other)
        s = self.semigroup
        pieces: dict[int, list[tuple[EventualWeight, int, EventualWeight]]] = {}
        for c1, w1 in self.components.items():
            for c2, w2 in other.components.items():
                pieces.setdefault(c1 + c2, []).append((w1, c2, w2))
        out: dict[int, EventualWeight] = {}
        for c, plist in pieces.items():
            def fn(d, plist=plist):
                acc = 0
                for w1, c2, w2 in plist:
                    acc = acc + w2.value(d) * _value_ext(s, w1, d + c2)
                return acc
            bound = max(max(w2.threshold, w1.threshold - c2,
                            s.frobenius + 1 - c2, -c2, 0)
                        for w1, c2, w2 in plist)
            tail = sum(w1.tail * w2.tail for w1, _c2, w2 in plist)
            out[c] = weight_from_fn(s, fn, bound, tail)
        return OperatorElement._closed(s, out)

    def adjoint(self) -> "OperatorElement":
        s = self.semigroup
        out: dict[int, EventualWeight] = {}
        for c, w in self.components.items():
            bound = max(w.threshold + c, s.frobenius + c + 1, c, 0)
            out[-c] = weight_from_fn(
                s, lambda d, w=w, c=c: _value_ext(s, w, d - c).conjugate(),
                bound, w.tail.conjugate())
        return OperatorElement._closed(s, out)

    # -- basis action ---------------------------------------------------------

    def apply(self, d: int) -> dict:
        """Coefficients of the image of basis point d; empty when killed."""
        if not self.semigroup.contains(d):
            raise ValueError(f"{d} is not a member")
        out = {}
        for c, w in self.components.items():
            v = w.value(d)
            if v:
                out[d + c] = v
        return out

    # -- grading ----------------------------------------------------------------

    def grade(self, c: int) -> "OperatorElement":
        """The single index-c graded component (zero element when absent)."""
        if c in self.components:
            return OperatorElement._closed(self.semigroup, {c: self.components[c]})
        return OperatorElement.zero(self.semigroup)

    def expectation(self) -> "OperatorElement":
        """Projection onto the zero-index subalgebra."""
        return self.grade(0)

    # -- symbol and ideal ---------------------------------------------------------

    def stabilization_threshold(self) -> int:
        """Least N with conjugate(e) equal to the lifted symbol for all members e >= N."""
        return max((w.threshold for w in self.components.values()), default=0)

    def conjugate(self, e: int) -> "OperatorElement":
        """Shift conjugation T_e* A T_e, computed exactly."""
        s = self.semigroup
        if not s.contains(e):
            raise ValueError(f"{e} is not a member")
        out: dict[int, EventualWeight] = {}
        for c, w in self.components.items():
            bound = max(w.threshold - e, s.frobenius - c + 1, -c, 0)

            def fn(d, w=w, c=c):
                if not s.contains(d + c):
                    return 0
                return w.value(d + e)
            out[c] = weight_from_fn(s, fn, bound, w.tail)
        # Accumulate: distinct indices stay distinct, so plain dict is fine.
        return OperatorElement._closed(s, out)

    def symbol(self) -> LaurentPolynomial:
        """Image in the commutative quotient: one coefficient per tail value."""
        return LaurentPolynomial({c: w.tail for c, w in self.components.items()})

    def in_ideal(self) -> bool:
        """Membership in the commutator ideal: vanishing symbol."""
        return self.symbol().is_zero

    def split(self) -> tuple[LaurentPolynomial, "OperatorElement"]:
        """Exact splitting A = lift(symbol(A)) + ideal part."""
        f = self.symbol()
        return f, self - toeplitz_lift(f, self.semigroup)

    def is_isometry(self) -> bool:
        return self.adjoint() * self == OperatorElement.identity(self.semigroup)

    def deviation_from(self, other: "OperatorElement") -> float:
        """Max absolute weight difference over all indices and sample points."""
        dev = 0.0
        for c in set(self.components) | set(other.components):
            wa, wb = self.weight_at(c), other.weight_at(c)
            dev = max(dev, abs(wa.tail - wb.tail))
            for d in self.semigroup.members_upto(max(wa.threshold, wb.threshold) - 1):
                dev = max(dev, abs(wa.value(d) - wb.value(d)))
        return dev

    # -- value semantics ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for c in self.indices():
            w = self.components[c]
            exc = ",".join(f"{d}:{v}" for d, v in sorted(w.exceptions.items()))
            parts.append(f"[{c}] ({{{exc}}}, tail={w.tail}, N={w.threshold})")
        return "; ".join(parts)

    def __repr__(self):
        return f"OperatorElement({self.semigroup!r}, {self.components!r})"

    def to_json_dict(self) -> dict:
        comps = []
        for c in self.indices():
            w = self.components[c]
            comps.append({
                "index": c,
                "exceptions": [[d, str(v)] for d, v in sorted(w.exceptions.items())],
                "tail": str(w.tail),
                "threshold": w.threshold,
            })
        return {"components": comps}


def from_monomial(v: PartialTranslation) -> OperatorElement:
    """Indicator weight of the translation's domain, at its index."""
    w = EventualWeight({d: ZERO for d in v.domain.excluded()}, ONE)
    return OperatorElement._closed(v.semigroup, {v.index: w})


def toeplitz_lift(f: LaurentPolynomial, semigroup: NumericalSemigroup) -> OperatorElement:
    """Combination of widest translations with prescribed symbol f."""
    acc = OperatorElement.zero(semigroup)
    for c, coeff in f.terms.items():
        acc = acc + from_monomial(max_translation(semigroup, c)).scale(coeff)
    return acc


def generator_commutator(semigroup: NumericalSemigroup, a: int, b: int,
                         a_star: bool = False, b_star: bool = False) -> OperatorElement:
    """UW - WU for two elementary letters; a generator of the commutator ideal."""
    u = from_monomial(elementary(semigroup, a, a_star))
    w = from_monomial(elementary(semigroup, b, b_star))
    return u * w - w * u
