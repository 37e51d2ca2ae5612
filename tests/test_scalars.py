import cmath
import math
import operator
import random
from fractions import Fraction

import numpy as np
from hypothesis import example, given, strategies as st

from sgalg.scalars import GaussianRational, I_UNIT, ONE, ZERO, turn_phase


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
    assert (a * a.conjugate()).re == a.re * a.re + a.im * a.im


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


def fraction_spelling(re: Fraction, im: Fraction) -> str:
    """GaussianRational.__str__'s reference, spelled from the two Fraction parts."""
    if im == 0:
        return str(re)
    imag = f"{abs(im)}i" if abs(im) != 1 else "i"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


# Zero parts, imaginary parts of +-1 and denominators only one part has.
parts = st.one_of(rationals, st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)]))


@given(parts, parts)
@example(Fraction(1, 2), Fraction(1, 3))
@example(Fraction(3, 4), Fraction(-1, 6))
@example(Fraction(-1, 6), Fraction(1))
@example(Fraction(0), Fraction(-7, 2))
def test_string_form_matches_fraction_spelling(re, im):
    assert str(GaussianRational(re, im)) == fraction_spelling(re, im)


def test_hash_consistent_with_int_equality():
    assert GaussianRational(2) == 2
    assert hash(GaussianRational(2)) == hash(2)


# -- the (a, b, d) form against a (Fraction, Fraction) reference ----------------

pairs = st.tuples(rationals, rationals)


def _ref_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    imag = f"{abs(im)}i" if abs(im) != 1 else "i"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


REFERENCE = {
    operator.add: lambda x, y: (x[0] + y[0], x[1] + y[1]),
    operator.sub: lambda x, y: (x[0] - y[0], x[1] - y[1]),
    operator.mul: lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    operator.truediv: _ref_div,
}


def assert_matches(g, ref):
    """g is the canonical (a, b, d) form of the reference pair ref."""
    assert isinstance(g, GaussianRational)
    assert (g.re, g.im) == ref
    assert g._d > 0 and math.gcd(g._a, g._b, g._d) == 1
    assert (Fraction(g._a, g._d), Fraction(g._b, g._d)) == ref
    assert str(g) == _ref_str(*ref)
    assert g.to_complex() == complex(float(ref[0]), float(ref[1]))
    assert g == GaussianRational(*ref)


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert_matches(gx, x)
    # a Fraction on either side is the real value it denotes
    real = (y[0], Fraction(0))
    cases = ((gx, x, gy, y), (gx, x, y[0], real), (y[0], real, gx, x))
    for op, ref in REFERENCE.items():
        for left, left_ref, right, right_ref in cases:
            if op is not operator.truediv or any(right_ref):
                assert_matches(op(left, right), ref(left_ref, right_ref))
    assert_matches(-gx, (-x[0], -x[1]))
    assert_matches(gx.conjugate(), (x[0], -x[1]))
    assert gx.re * gx.re + gx.im * gx.im == x[0] * x[0] + x[1] * x[1]
    assert abs(gx) == float(x[0] * x[0] + x[1] * x[1]) ** 0.5


@given(pairs)
def test_equality_and_hash_agree_with_fraction(x):
    g = GaussianRational(*x)
    if x[1] == 0:
        assert g == x[0] and x[0] == g
        assert hash(g) == hash(x[0])
        if x[0].denominator == 1:
            assert g == int(x[0]) and hash(g) == hash(int(x[0]))
    else:
        assert g != x[0] and x[0] != g
        assert hash(g) == hash(x)
    assert g != x[0] + 1
    assert {g: 1}[GaussianRational(*x)] == 1


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


def test_turn_phase_reduces_exactly_at_large_indices():
    # The reference reduces c*t modulo one turn with Fraction arithmetic.
    rng = random.Random(5)
    turns = [Fraction(1, 3), Fraction(-355, 113), Fraction(0.1), Fraction(1, 1 << 20), 7]
    turns += [Fraction(rng.randrange(1 << 20), 1 << 20) for _ in range(20)]
    for t in turns:
        for c in (10**6, -10**6, 10**6 + 1, 1, 0):
            expected = cmath.exp(2j * math.pi * float(Fraction(c * t) % 1))
            assert abs(turn_phase(c, t) - expected) <= 1e-15, (c, t)
    assert turn_phase(0, Fraction(1, 3)) == 1 and type(turn_phase(0, 0)) is complex
