import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import dense_truncate, reference_weights
from sgalg.scalars import GaussianRational, I_UNIT, ONE, ZERO
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import elementary, evaluate_word
from sgalg.operators import LaurentPolynomial, OperatorElement, from_monomial, toeplitz_lift
from sgalg.quantum import FreeElement, rep
from sgalg import checks
from sgalg.checks import default_norm_symbols, norm_convergence
from sgalg.numeric import (fourier_project, gauge_twist, laurent_sup_norm,
                           operator_norm, truncate)

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])


def test_truncate_identity():
    # Row and column i stand for the basis point s_i.
    assert [S23.element_at(i) for i in range(4)] == [0, 2, 3, 4]
    assert np.allclose(truncate(OperatorElement.identity(S23), 4), np.eye(4))


def test_truncate_shift_pattern():
    t = truncate(from_monomial(elementary(S23, 2, False)), 4)
    # basis 0,2,3,4: images 2, 4 are inside the window
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 0] = 1.0   # 0 -> 2
    expect[3, 1] = 1.0   # 2 -> 4
    assert np.allclose(t, expect)


def test_truncate_rank_one():
    p0 = OperatorElement.identity(S23) - from_monomial(
        evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False))))
    t = truncate(p0, 5)
    expect = np.zeros((5, 5))
    expect[0, 0] = 1.0
    assert np.allclose(t, expect)


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
            legend = [s.element_at(i) for i in range(n)]
            pos = {m: i for i, m in enumerate(legend)}
            for j, sj in enumerate(legend):
                col = {m: v for m, v in a.apply(sj).items() if m in pos}
                expect = np.zeros(n, dtype=complex)
                for m, v in col.items():
                    expect[pos[m]] = v.to_complex()
                assert np.allclose(t[:, j], expect)


def test_truncate_matches_dense_reference():
    # Entry for entry equal to the loop-built complex matrix; float64 exactly
    # when every weight value is an exact real.
    rng = random.Random(71)
    for s in (Z, S23, NumericalSemigroup([11, 13])):
        elements = []
        for _ in range(40):
            x = FreeElement.zero(s)
            for _ in range(rng.randint(1, 4)):
                x = x + FreeElement.monomial(
                    evaluate_word(s, tuple((rng.choice(s.generators), rng.random() < 0.5)
                                           for _ in range(rng.randint(1, 4))))).scale(
                    rng.choice((ONE, GaussianRational(-2), I_UNIT)))
            elements.append(rep(x))
        elements.append(gauge_twist(elements[0], Fraction(1, 9)))  # complex weights
        for a in elements:
            values = [v for tail, exceptions in reference_weights(a).values()
                      for v in (tail, *exceptions.values())]
            real = all(type(v) is GaussianRational and v.im == 0 for v in values)
            for n in (1, 9, 40):
                t = truncate(a, n)
                assert t.dtype == (np.float64 if real else np.complex128)
                assert (t == dense_truncate(a, n)).all()


def _svd_norm(mat):
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(73)
    mats = [rng.standard_normal((n, n)) for n in (1, 7, 64, 256)]
    mats += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for n in (1, 7, 64, 256)]
    mats += [rng.standard_normal((30, 45)), rng.integers(-5, 6, size=(20, 20))]
    for mat in mats:
        sigma = _svd_norm(mat)
        assert abs(operator_norm(mat) - sigma) <= 1e-13 * max(1.0, sigma)
    for s in (Z, S23):
        for f in default_norm_symbols():
            largest = truncate(toeplitz_lift(f, s), 512)
            for n in (64, 128, 256, 512):
                sigma = _svd_norm(largest[:n, :n])
                assert abs(operator_norm(largest[:n, :n]) - sigma) <= 1e-13 * max(1.0, sigma)
    assert operator_norm(np.zeros((5, 5))) == 0.0


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
    value, bound = laurent_sup_norm(h)
    assert 1.9 < value <= 2.0 + 1e-9
    assert bound == math.pi * 3 * 2 / 4096  # the grid is 4096 points


def test_laurent_sup_norm_matches_scalar_loop():
    samples = 4096
    for f in default_norm_symbols():
        loop = max(abs(sum(complex(v) * cmath.exp(1j * c * (2.0 * math.pi * k / samples))
                           for c, v in f.terms.items()))
                   for k in range(samples))
        value, _bound = laurent_sup_norm(f)
        assert abs(value - loop) < 1e-14


def test_laurent_sup_norm_off_symmetric_and_congruent_exponents():
    # Generic phases, so the maximum is not the coefficient sum, and exponents
    # congruent mod the 4096 grid points (4101 and 5, -4095 and 1, 4113 and
    # 17), whose coefficients must add.  The loop reduces c·k mod 4096 exactly.
    f = LaurentPolynomial({0: GaussianRational(1, 1), 1: GaussianRational(-2),
                           -3: GaussianRational(Fraction(1, 2), 3), 5: I_UNIT,
                           17: ONE, 21: GaussianRational(0, -3), 4101: GaussianRational(2),
                           -4095: GaussianRational(-1, 2), 4113: GaussianRational(0, 1)})
    samples = 4096
    loop = max(abs(sum(complex(v) * cmath.exp(2j * math.pi * (c * k % samples) / samples)
                       for c, v in f.terms.items()))
               for k in range(samples))
    value, _bound = laurent_sup_norm(f)
    assert abs(value - loop) < 1e-13


def test_norm_convergence_small():
    report = norm_convergence(LaurentPolynomial({1: ONE, -1: ONE}), Z)
    assert report["pass"]
    assert report["parameters"]["dims"] == [64, 128, 256, 512]
    assert report["parameters"]["band"] == 0.05
    values = report["computed"]["norms"]
    assert values == sorted(values)
    assert abs(values[-1] - 2.0) < 0.05

    const = norm_convergence(LaurentPolynomial({0: GaussianRational(7)}), S23)
    assert const["pass"]
    assert all(abs(v - 7.0) < 1e-8 for v in const["computed"]["norms"])


def test_gauge_twist_examples():
    # Angles are turns: an eighth of a turn at index 2 is a quarter turn, i.
    t2 = from_monomial(elementary(S23, 2, False))
    twisted = gauge_twist(t2, Fraction(1, 8))
    assert twisted.deviation_from(t2.scale(1j)) < 1e-14
    assert gauge_twist(t2, 0.125) == twisted  # a float is read exactly

    assert gauge_twist(t2, 0).deviation_from(t2) == 0.0

    p = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (2, True)))))
    assert gauge_twist(p, Fraction(1, 5)).deviation_from(p) < 1e-14


def test_gauge_twist_rotates_symbol():
    # The circle action on the symbol: coefficient c picks up exp(2*pi*i*c*t).
    t2 = from_monomial(elementary(S23, 2, False))
    a = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (3, True))))
            + FreeElement.monomial(elementary(S23, 3, False)).scale(I_UNIT)
            + FreeElement.monomial(elementary(S23, 2, True)).scale(GaussianRational(2, -1)))
    for x in (t2, a):
        f = x.symbol()
        for t in (Fraction(1, 12), Fraction(-1, 5), Fraction(4, 9)):
            twisted = gauge_twist(x, t)
            g = twisted.symbol()
            assert set(g.terms) == set(f.terms)
            for c, v in f.terms.items():
                phase = cmath.exp(2j * math.pi * c * float(t))
                assert abs(g.terms.get(c, ZERO) - phase * complex(v)) < 1e-12
            _lifted, ideal_part = twisted.split()
            assert ideal_part.in_ideal() and not twisted.in_ideal()


def test_gauge_group_action():
    rng = random.Random(61)
    a = rep(FreeElement.monomial(evaluate_word(S23, ((2, False), (3, True))))
            + FreeElement.monomial(elementary(S23, 3, False)).scale(I_UNIT))
    for _ in range(10):
        t1, t2 = (Fraction(rng.randrange(1 << 20), 1 << 20) for _ in range(2))
        once = gauge_twist(a, t1 + t2)
        twice = gauge_twist(gauge_twist(a, t1), t2)
        assert twice.deviation_from(once) < 1e-12


def test_complex_adjoint_and_conjugation_are_exact():
    # adjoint and shift conjugation move complex terms without arithmetic,
    # so their exact identities hold for complex coefficients too.
    b = from_monomial(elementary(S23, 3, True))
    x = gauge_twist(b, Fraction(1, 20))
    assert x.adjoint().adjoint() == x
    assert gauge_twist(b, 0).conjugate(2) == gauge_twist(b.conjugate(2), 0)


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


def sample_by_sample_projection(a, target_index, samples):
    """fourier_project's reference: the running sum of one full gauge twist per sample."""
    acc = OperatorElement.zero(a.semigroup)
    base = gauge_twist(a, 0)  # the same weights as complex numbers, converted once
    for k in range(samples):
        phase = cmath.exp(-2j * math.pi * target_index * k / samples) / samples
        acc = acc + gauge_twist(base, Fraction(k, samples)).scale(phase)
    return acc


@pytest.mark.parametrize("gens", [(2, 3), (3, 7), (31, 37)])
def test_fourier_project_matches_sample_by_sample_sum(gens):
    # The fourier suite's corpus and grades, each projected both ways.
    s = NumericalSemigroup(gens)
    rng = checks._rng("fourier", s, 0)
    corpus = [checks.random_operator(rng, s, max_terms=4, max_word_len=5) for _ in range(25)]
    for a in corpus:
        span = max((abs(c) for c in a.indices()), default=0)
        for c in a.indices() + (span + 1,):
            fast = fourier_project(a, c, 2 * span + 8)
            assert fast.deviation_from(sample_by_sample_projection(a, c, 2 * span + 8)) <= 1e-12


def test_shift_example_check():
    (report,) = checks.suite_shift37()
    assert report["pass"]
    computed = report["computed"]
    assert computed["reversed_order_failures"] == []
    assert computed["printed_order_failures"][0][0] == 0
    assert computed["tensor_witness"]["pair"] == [0, 2]
    assert computed["tensor_witness"]["coproduct"] == [[[2, 4], "1"]]
    assert computed["tensor_witness"]["tensor_square"] == [[[2, 3], "1"]]
    assert computed["diagonal_agrees"]
