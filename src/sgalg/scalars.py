"""Exact scalars: complex numbers with rational real and imaginary parts.

A weight or a functional value is either such an exact scalar or a Python
``complex``.  Combining the two by ``+ - * /``, in either order, gives the
float result of the same operation on ``complex(exact)``; the two kinds
never compare equal.  ``Combination`` is the one finite linear combination
over basis keys with such coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _exact(x):
    """x as a GaussianRational, or None when x is not an exact scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


class GaussianRational:
    """Immutable ``re + im*i`` with exact Fraction parts.

    Supports field arithmetic, conjugation and coercion from int/Fraction.
    Values are hashable and compare exactly; equality with plain ints and
    Fractions is allowed (hash stays consistent for real values).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        o = _exact(x)
        if o is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")
        return o

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _exact(other)
        if o is None:
            return complex(self) + other if isinstance(other, complex) else NotImplemented
        if not self.re and not self.im:
            return o
        if not o.re and not o.im:
            return self
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _exact(other)
        if o is None:
            return complex(self) - other if isinstance(other, complex) else NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _exact(other)
        if o is None:
            return other - complex(self) if isinstance(other, complex) else NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = _exact(other)
        if o is None:
            return complex(self) * other if isinstance(other, complex) else NotImplemented
        if not self.im and not o.im:
            if self.re == 1:
                return o
            if o.re == 1:
                return self
            return GaussianRational(self.re * o.re)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _exact(other)
        if o is None:
            return complex(self) / other if isinstance(other, complex) else NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = _exact(other)
        if o is None:
            return other / complex(self) if isinstance(other, complex) else NotImplemented
        return o / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return float(self.abs2()) ** 0.5

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- conversions ------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = f"{abs(self.im)}i" if abs(self.im) != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def as_scalar(x):
    """An int or Fraction as a GaussianRational; exact and complex values unchanged."""
    if isinstance(x, (GaussianRational, complex)):
        return x
    return GaussianRational.coerce(x)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


class Combination:
    """Finite linear combination of basis keys, optionally over a semigroup.

    Coefficients pass through ``as_scalar`` and zeros are dropped, so two
    combinations are equal exactly when their term dicts are.  Binary
    operations require operands of one kind over one semigroup.
    """

    __slots__ = ("semigroup", "terms")

    def __init__(self, semigroup, terms: dict):
        self.semigroup = semigroup
        self.terms = {k: as_scalar(c) for k, c in terms.items() if c}

    @classmethod
    def _new(cls, semigroup, terms: dict):
        # Bypasses a subclass's own constructor signature.
        out = cls.__new__(cls)
        Combination.__init__(out, semigroup, terms)
        return out

    @classmethod
    def collect(cls, semigroup, pairs):
        """The combination of (key, coefficient) pairs, repeated keys summed."""
        out = {}
        for k, c in pairs:
            out[k] = out[k] + c if k in out else c
        return cls._new(semigroup, out)

    def _same(self, other) -> None:
        if self.semigroup != other.semigroup:
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
                         {k: scalar * c for k, c in self.terms.items()})

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
