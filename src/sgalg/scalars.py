"""Exact scalars: complex numbers with rational real and imaginary parts.

A ``GaussianRational`` is stored as three integers ``(a, b, d)``, meaning
``(a + b*i)/d``, with ``d > 0`` and ``gcd(a, b, d) == 1``, so arithmetic is
integer arithmetic with one gcd per result (none when ``d == 1``).

A weight or a functional value is either such an exact scalar or a Python
``complex``.  Combining the two by ``+ - * /``, in either order, gives the
float result of the same operation on ``complex(exact)``; the two kinds
never compare equal.  ``Combination`` is the one finite linear combination
over basis keys with such coefficients.  ``turn_phase`` is the one character
value e^{2πi·c·t} of the circle, for an exact angle t in turns.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import gcd, pi


def _gr(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d in lowest terms; d must be positive."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = a, b, d
    return out


def _ratio(n: int, d: int) -> str:
    """n/d spelled as str(Fraction(n, d)) spells it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _exact(x):
    """x as a GaussianRational, or None when x is not an exact scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _gr(x.numerator, 0, x.denominator)
    return None


class GaussianRational:
    """Immutable ``(a + b*i)/d`` with integer a, b and d, in lowest terms.

    Supports field arithmetic, conjugation and coercion from int/Fraction;
    ``re`` and ``im`` are the parts as Fractions.  Values compare exactly,
    equal ints and Fractions included, and hash as those do.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # Lowest terms: d takes each prime's full power from q or s, coprime to its numerator.
        self._a, self._b, self._d = re.numerator * (d // q), im.numerator * (d // s), d

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        o = _exact(x)
        if o is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")
        return o

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _exact(other)
        if o is None:
            return complex(self) + other if isinstance(other, complex) else NotImplemented
        if not self._a and not self._b:
            return o
        if not o._a and not o._b:
            return self
        d1, d2 = self._d, o._d
        return _gr(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _exact(other)
        if o is None:
            return complex(self) - other if isinstance(other, complex) else NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = _exact(other)
        if o is None:
            return other - complex(self) if isinstance(other, complex) else NotImplemented
        return o + -self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _exact(other)
        if o is None:
            return complex(self) * other if isinstance(other, complex) else NotImplemented
        a1, b1, d1, a2, b2, d2 = self._a, self._b, self._d, o._a, o._b, o._d
        if not b1 and a1 == d1:
            return o
        if not b2 and a2 == d2:
            return self
        return _gr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _exact(other)
        if o is None:
            return complex(self) / other if isinstance(other, complex) else NotImplemented
        a2, b2 = o._a, o._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1 = self._a, self._b
        return _gr((a1 * a2 + b1 * b2) * o._d, (b1 * a2 - a1 * b2) * o._d, self._d * n)

    def __rtruediv__(self, other):
        o = _exact(other)
        if o is None:
            return other / complex(self) if isinstance(other, complex) else NotImplemented
        return o / self

    def conjugate(self) -> "GaussianRational":
        return _gr(self._a, -self._b, self._d)

    def __abs__(self) -> float:
        return ((self._a * self._a + self._b * self._b) / (self._d * self._d)) ** 0.5

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and (self._a, self._d) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        # That of the equal int or Fraction if real, else that of (re, im).
        if self._d == 1:
            return hash(self._a) if not self._b else hash((self._a, self._b))
        return hash(self.re) if not self._b else hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    # -- conversions ------------------------------------------------------

    def to_complex(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does.
        return complex(self._a / self._d, self._b / self._d)

    __complex__ = to_complex

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio(a, d)
        sign = "+" if b > 0 else "-"
        return f"{_ratio(a, d)}{sign}{'' if abs(b) == d else _ratio(abs(b), d)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def as_scalar(x):
    """An int or Fraction as a GaussianRational; exact and complex values unchanged."""
    if isinstance(x, (GaussianRational, complex)):
        return x
    return GaussianRational.coerce(x)


def turn_phase(c: int, turns) -> complex:
    """e^{2πi·c·turns} for an int or Fraction turns: c·turns is reduced modulo
    one turn on its integer numerator and denominator before any float is
    formed, so the error is a few ulp whatever c is."""
    q = turns.denominator
    return cmath.exp(2j * pi * (c * turns.numerator % q / q))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


class Combination:
    """Finite linear combination of basis keys, optionally over a semigroup.

    Every coefficient is a nonzero ``GaussianRational`` or ``complex`` (the
    public constructor drops zeros and makes ints and Fractions exact;
    ``collect`` drops the zeros given or summed and takes the rest as they
    are; ``_new`` takes a clean dict as it is), so two combinations are equal
    exactly when their term dicts are.  Binary operations require operands of
    one kind over one semigroup.
    """

    __slots__ = ("semigroup", "terms")

    def __init__(self, semigroup, terms: dict):
        self.semigroup = semigroup
        self.terms = {k: c if type(c) is GaussianRational else as_scalar(c)
                      for k, c in terms.items() if c}

    @classmethod
    def _new(cls, semigroup, terms: dict):
        """terms, clean already, kept as they are: no subclass constructor or check runs."""
        out = cls.__new__(cls)
        out.semigroup, out.terms = semigroup, terms
        return out

    @classmethod
    def collect(cls, semigroup, pairs):
        """The combination of (key, coefficient) pairs, repeated keys summed."""
        out = {}
        get = out.get
        for k, c in pairs:
            prev = get(k)
            if prev is not None:
                c = prev + c
            if c:
                out[k] = c
            elif prev is not None:
                del out[k]
        return cls._new(semigroup, out)

    def _same(self, other) -> None:
        if self.semigroup is not other.semigroup and self.semigroup != other.semigroup:
            raise ValueError("operands over different semigroups")

    def _product(self, other, key_product, cls=None):
        """Bilinear product: key pairs combine by key_product, coefficients multiply."""
        self._same(other)
        return (cls or type(self)).collect(
            self.semigroup, ((key_product(k1, k2), c1 * c2)
                             for k1, c1 in self.terms.items()
                             for k2, c2 in other.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._same(other)
        return self.collect(self.semigroup,
                            itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._new(self.semigroup, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        scalar = as_scalar(scalar)
        return self._new(self.semigroup,
                         {k: v for k, c in self.terms.items() if (v := scalar * c)})

    def __mul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.semigroup == other.semigroup and self.terms == other.terms

    def __hash__(self):
        return hash((self.semigroup, frozenset(self.terms.items())))
