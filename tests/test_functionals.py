import cmath
import random
from fractions import Fraction

import pytest

from sgalg.scalars import GaussianRational, ONE, ZERO
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import evaluate_word, max_translation
from sgalg.quantum import FreeElement, rep
from sgalg import functionals as fns
from sgalg.checks import _scalars_close, haar_property_check, measure_convolution_check

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])


def mono(s, *letters):
    return FreeElement.monomial(evaluate_word(s, tuple(letters)))


def rank_one_free():
    return FreeElement.identity(S23) - mono(S23, (3, True), (2, False), (2, True), (3, False))


def test_matrix_coeff_examples():
    h = fns.haar()
    assert fns.evaluate(h, FreeElement.identity(S23)) == ONE
    m = fns.MatrixCoeff(3, 2)
    assert fns.evaluate(m, FreeElement.monomial(max_translation(S23, 1))) == ONE
    assert fns.evaluate(h, rank_one_free()) == ONE
    with pytest.raises(ValueError):
        fns.evaluate(fns.MatrixCoeff(1, 0), FreeElement.identity(S23))


def test_haar_on_monomials():
    h = fns.haar()
    for a in (2, 3, 5):
        assert fns.evaluate(h, mono(S23, (a, False))) == ZERO
    assert fns.evaluate(h, FreeElement.identity(S23)) == ONE
    # factors through the operator form
    rng = random.Random(43)
    for _ in range(40):
        x = FreeElement.zero(S23)
        for _ in range(rng.randint(1, 4)):
            x = x + mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                                for _ in range(rng.randint(1, 4)))).scale(
                rng.choice((ONE, GaussianRational(-2), GaussianRational(0, 1))))
        assert fns.evaluate(h, x) == rep(x).apply(0).get(0, ZERO)


def test_convolution_absorbing_cases():
    h = fns.haar()
    phi = fns.MatrixCoeff(2, 2)
    for word in (((2, False),), ((3, False), (2, True)), ((2, False), (2, True))):
        v = mono(S23, *word)
        if list(v.terms)[0].index == 0 and list(v.terms)[0].mask == 0:
            continue
        assert fns.evaluate(fns.convolve(h, phi), v) == ZERO
    one = FreeElement.identity(S23)
    assert fns.evaluate(fns.convolve(h, phi), one) == fns.evaluate(phi, one)


def test_point_mass_convolution():
    x = mono(S23, (2, False))
    a, b = Fraction(1, 3), Fraction(1, 5)
    val = fns.evaluate(fns.convolve(fns.point_mass(a), fns.point_mass(b)), x)
    expect = cmath.exp(1j * 2 * (2 * cmath.pi * float(a + b)))
    assert abs(val - expect) < 1e-12


def test_haar_property_check():
    rng = random.Random(47)
    for _ in range(60):
        x = FreeElement.zero(S23)
        for _ in range(rng.randint(1, 5)):
            x = x + mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                                for _ in range(rng.randint(1, 5)))).scale(
                rng.choice((ONE, GaussianRational(3), GaussianRational(0, -1))))
        assert haar_property_check(fns.MatrixCoeff(2, 2), x)
        assert haar_property_check(fns.point_mass(Fraction(1, 7)), x)
    assert haar_property_check(fns.MatrixCoeff(0, 0), FreeElement.identity(S23))
    assert haar_property_check(fns.point_mass(Fraction(2, 5)),
                               mono(S23, (2, False)))


def test_phi_star_examples():
    # ideal-annihilating functionals are fixed by the pullback
    pm = fns.point_mass(Fraction(1, 4))
    x = mono(S23, (2, False))
    pulled = fns.phi_star(pm, S23, 3)
    assert abs(complex(fns.evaluate(pulled, x))
               - complex(fns.evaluate(pm, x))) < 1e-12

    # the absorbing state is not: it sees the ideal
    h = fns.haar()
    p0 = rank_one_free()
    assert fns.evaluate(fns.phi_star(h, S23, 2), p0) == ZERO
    assert fns.evaluate(h, p0) == ONE

    # zero shift is the identity pullback
    assert fns.evaluate(fns.phi_star(h, S23, 0), p0) == ONE
    with pytest.raises(ValueError):
        fns.phi_star(h, S23, 1)


def test_measure_convolution_check():
    assert measure_convolution_check(0, 0, FreeElement.identity(S23))
    x = mono(S23, (2, False)) + mono(S23, (3, True))
    assert measure_convolution_check(Fraction(1, 3), Fraction(1, 5), x)
    ideal = mono(S23, (2, False)) * mono(S23, (2, True)) - FreeElement.identity(S23)
    assert rep(ideal).in_ideal()
    assert measure_convolution_check(Fraction(1, 6), Fraction(1, 7), ideal)
    pm = fns.point_mass(Fraction(1, 6))
    assert abs(complex(fns.evaluate(pm, ideal))) < 1e-12


def test_point_masses_vanish_on_ideal_but_haar_does_not():
    p0 = rank_one_free()
    assert rep(p0).in_ideal()
    for turns in (Fraction(0), Fraction(1, 3), Fraction(-2, 7)):
        val = fns.evaluate(fns.point_mass(turns), p0)
        assert abs(complex(val)) < 1e-12
    assert fns.evaluate(fns.haar(), p0) == ONE


def test_convolution_associative_commutative():
    rng = random.Random(53)
    for _ in range(100):
        functionals = []
        for _ in range(3):
            if rng.random() < 0.5:
                functionals.append(fns.MatrixCoeff(S23.element_at(rng.randrange(6)),
                                                   S23.element_at(rng.randrange(6))))
            else:
                functionals.append(fns.point_mass(Fraction(rng.randrange(-5, 6),
                                                           rng.randrange(1, 8))))
        xi, eta, zeta = functionals
        x = mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 5))))
        lhs = fns.evaluate(fns.convolve(fns.convolve(xi, eta), zeta), x)
        rhs = fns.evaluate(fns.convolve(xi, fns.convolve(eta, zeta)), x)
        assert _scalars_close(lhs, rhs, 1e-12)
        ab = fns.evaluate(fns.convolve(xi, eta), x)
        ba = fns.evaluate(fns.convolve(eta, xi), x)
        assert _scalars_close(ab, ba, 1e-12)


def test_matrix_coefficients_factor_through_rep():
    rng = random.Random(73)
    for _ in range(50):
        x = FreeElement.zero(S23)
        for _ in range(rng.randint(1, 4)):
            x = x + mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                                for _ in range(rng.randint(1, 4)))).scale(
                rng.choice((ONE, GaussianRational(-1), GaussianRational(0, 2))))
        a = S23.element_at(rng.randrange(8))
        b = S23.element_at(rng.randrange(8))
        direct = fns.evaluate(fns.MatrixCoeff(a, b), x)
        via_rep = rep(x).apply(b).get(a, ZERO)
        assert direct == via_rep


def test_exactness_of_values():
    h = fns.haar()
    x = FreeElement.identity(S23)
    assert isinstance(fns.evaluate(h, x), GaussianRational)
    assert isinstance(fns.evaluate(fns.point_mass(Fraction(1, 3)), x), complex)
    combo = fns.lin_combo([(GaussianRational(Fraction(1, 2)), h)])
    assert fns.evaluate(combo, x) == GaussianRational(Fraction(1, 2))
