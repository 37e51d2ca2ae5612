import operator
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from sgalg.scalars import GaussianRational, I_UNIT, ONE, ZERO


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(GaussianRational, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_conjugation_and_modulus(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert (a * a.conjugate()).re == a.abs2()


@given(scalars)
def test_division(a):
    if not a.is_zero:
        assert a / a == ONE
        assert ONE / a * a == ONE


def test_coercion_and_identities():
    assert GaussianRational(2) + 1 == GaussianRational(3)
    assert 2 * GaussianRational(Fraction(1, 2)) == ONE
    assert I_UNIT * I_UNIT == GaussianRational(-1)
    assert ZERO.is_zero and not ONE.is_zero
    assert GaussianRational(Fraction(1, 2), 3) == GaussianRational(Fraction(1, 2), 3)


def test_string_forms():
    assert str(GaussianRational(Fraction(1, 2), 3)) == "1/2+3i"
    assert str(GaussianRational(2, -1)) == "2-i"
    assert str(GaussianRational(0)) == "0"
    assert str(GaussianRational(-3)) == "-3"


def test_hash_consistent_with_int_equality():
    assert GaussianRational(2) == 2
    assert hash(GaussianRational(2)) == hash(2)


def test_mixing_with_complex_gives_complex():
    exact = (GaussianRational(Fraction(1, 3), -2), GaussianRational(-5), ZERO)
    floats = (0.25 - 1.5j, 3j, np.complex128(-0.1 + 0.7j))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for g in exact:
            for z in floats:
                left = op(g, z)
                assert isinstance(left, complex)
                assert left == op(complex(g), z)
                if g:
                    # numpy hands its scalar over as a plain complex
                    right = op(z, g)
                    assert isinstance(right, complex)
                    assert right == op(complex(z), complex(g))
    assert GaussianRational(1) != 1 + 0j and 1 + 0j != GaussianRational(1)
