import cmath
import math
import random

import numpy as np
import pytest

from sgalg.scalars import GaussianRational, I_UNIT, ONE
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import elementary, evaluate_word
from sgalg.operators import LaurentPolynomial, OperatorElement, from_monomial, toeplitz_lift
from sgalg.quantum import FreeElement, rep
from sgalg.checks import default_norm_symbols
from sgalg.numeric import (fourier_project, gauge_twist, laurent_sup_norm,
                           norm_convergence, operator_norm, shift_example_check,
                           truncate)

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])


def test_truncate_identity():
    t = truncate(OperatorElement.identity(S23), 4)
    assert t.legend == (0, 2, 3, 4)
    assert np.allclose(t.matrix, np.eye(4))


def test_truncate_shift_pattern():
    t = truncate(from_monomial(elementary(S23, 2, False)), 4)
    # basis 0,2,3,4: images 2, 4 are inside the window
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 0] = 1.0   # 0 -> 2
    expect[3, 1] = 1.0   # 2 -> 4
    assert np.allclose(t.matrix, expect)


def test_truncate_rank_one():
    p0 = OperatorElement.identity(S23) - from_monomial(
        evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False))))
    t = truncate(p0, 5)
    expect = np.zeros((5, 5))
    expect[0, 0] = 1.0
    assert np.allclose(t.matrix, expect)


def test_truncate_columns_match_action():
    rng = random.Random(59)
    for s in (Z, S23):
        for _ in range(100):
            x = FreeElement.zero(s)
            for _ in range(rng.randint(1, 4)):
                x = x + FreeElement.monomial(
                    evaluate_word(s, tuple((rng.choice(s.generators), rng.random() < 0.5)
                                           for _ in range(rng.randint(1, 4))))).scale(
                    rng.choice((ONE, I_UNIT, GaussianRational(-2))))
            a = rep(x)
            n = 12
            t = truncate(a, n)
            pos = {m: i for i, m in enumerate(t.legend)}
            for j, sj in enumerate(t.legend):
                col = {m: v for m, v in a.apply(sj).items() if m in pos}
                expect = np.zeros(n, dtype=complex)
                for m, v in col.items():
                    expect[pos[m]] = v.to_complex()
                assert np.allclose(t.matrix[:, j], expect)


def test_operator_norm_examples():
    assert abs(operator_norm(truncate(OperatorElement.identity(S23), 16)) - 1.0) < 1e-9
    assert abs(operator_norm(truncate(from_monomial(elementary(S23, 2, False)), 24)) - 1.0) < 1e-9
    for n in (64, 512):
        tri = truncate(toeplitz_lift(LaurentPolynomial({1: ONE, -1: ONE}), Z), n)
        assert abs(operator_norm(tri) - 2.0 * math.cos(math.pi / (n + 1))) < 1e-12
    assert operator_norm(truncate(OperatorElement.zero(S23), 8)) == 0.0


def test_laurent_sup_norm_examples():
    f = LaurentPolynomial({0: GaussianRational(-3, 4)})
    value, bound = laurent_sup_norm(f)
    assert abs(value - 5.0) < 1e-12

    g = LaurentPolynomial({1: ONE, -1: ONE})
    value, bound = laurent_sup_norm(g)
    assert abs(value - 2.0) <= bound + 1e-12

    h = LaurentPolynomial({2: ONE, -3: ONE})
    value, bound = laurent_sup_norm(h, samples=4096)
    assert 1.9 < value <= 2.0 + 1e-9
    with pytest.raises(ValueError):
        laurent_sup_norm(g, samples=4)


def test_laurent_sup_norm_matches_scalar_loop():
    samples = 4096
    for f in default_norm_symbols():
        loop = max(abs(sum(complex(v) * cmath.exp(1j * c * (2.0 * math.pi * k / samples))
                           for c, v in f.terms.items()))
                   for k in range(samples))
        value, _bound = laurent_sup_norm(f, samples)
        assert abs(value - loop) < 1e-14


def test_norm_convergence_small():
    report = norm_convergence(LaurentPolynomial({1: ONE, -1: ONE}), Z,
                              dims=(16, 32, 64), band=0.05)
    assert report["pass"]
    values = report["computed"]["norms"]
    assert values == sorted(values)
    assert abs(values[-1] - 2.0) < 0.05

    const = norm_convergence(LaurentPolynomial({0: GaussianRational(7)}), S23,
                             dims=(8, 16), band=0.05)
    assert const["pass"]
    assert all(abs(v - 7.0) < 1e-8 for v in const["computed"]["norms"])


def test_gauge_twist_examples():
    t2 = from_monomial(elementary(S23, 2, False))
    theta = 0.77
    twisted = gauge_twist(t2, theta)
    expect = t2.scale(np.exp(2j * theta))
    assert twisted.deviation_from(expect) < 1e-14

    assert gauge_twist(t2, 0.0).deviation_from(t2) == 0.0

    p = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (2, True)))))
    assert gauge_twist(p, 1.23).deviation_from(p) < 1e-14


def test_gauge_twist_rotates_symbol():
    # The circle action on the symbol: coefficient c picks up exp(i*c*theta).
    t2 = from_monomial(elementary(S23, 2, False))
    a = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (3, True))))
            + FreeElement.monomial(elementary(S23, 3, False)).scale(I_UNIT)
            + FreeElement.monomial(elementary(S23, 2, True)).scale(GaussianRational(2, -1)))
    for x in (t2, a):
        f = x.symbol()
        for theta in (0.5, -1.3, 2.9):
            twisted = gauge_twist(x, theta)
            g = twisted.symbol()
            assert set(g.terms) == set(f.terms)
            for c, v in f.terms.items():
                assert abs(g.coefficient(c) - cmath.exp(1j * c * theta) * complex(v)) < 1e-12
            _lifted, ideal_part = twisted.split()
            assert ideal_part.in_ideal() and not twisted.in_ideal()


def test_gauge_group_action():
    rng = random.Random(61)
    a = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (3, True))))
            + FreeElement.monomial(elementary(S23, 3, False)).scale(I_UNIT))
    for _ in range(10):
        t1, t2 = rng.uniform(0, 6.3), rng.uniform(0, 6.3)
        once = gauge_twist(a, t1 + t2)
        twice = gauge_twist(gauge_twist(a, t1), t2)
        assert twice.deviation_from(once) < 1e-12


def test_fourier_project_examples():
    a = (from_monomial(elementary(S23, 2, False))
         + from_monomial(elementary(S23, 3, True)))
    proj = fourier_project(a, 2, 16)
    assert proj.deviation_from(a.grade(2)) < 1e-9

    absent = fourier_project(a, 1, 16)
    assert absent.deviation_from(OperatorElement.zero(S23)) < 1e-9

    z = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (2, True)))))
    assert fourier_project(z, 0, 8).deviation_from(z) < 1e-9

    with pytest.raises(ValueError):
        fourier_project(a, 2, 6)


def test_fourier_recovers_all_grades():
    rng = random.Random(67)
    for s in (Z, S23):
        for _ in range(10):
            x = FreeElement.zero(s)
            for _ in range(rng.randint(1, 4)):
                x = x + FreeElement.monomial(
                    evaluate_word(s, tuple((rng.choice(s.generators), rng.random() < 0.5)
                                           for _ in range(rng.randint(1, 5))))).scale(
                    rng.choice((ONE, GaussianRational(2, -1))))
            a = rep(x)
            span = max((abs(c) for c in a.indices()), default=0)
            for c in a.indices():
                assert fourier_project(a, c, 2 * span + 6).deviation_from(a.grade(c)) < 1e-9


def test_shift_example_check():
    report = shift_example_check()
    assert report["pass"]
    computed = report["computed"]
    assert computed["reversed_order_failures"] == []
    assert computed["printed_order_failures"][0][0] == 0
    assert computed["tensor_witness"]["pair"] == [0, 2]
    assert computed["tensor_witness"]["coproduct"] == [[[2, 4], "1"]]
    assert computed["tensor_witness"]["tensor_square"] == [[[2, 3], "1"]]
    assert computed["diagonal_agrees"]
