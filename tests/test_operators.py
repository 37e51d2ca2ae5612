import random

import pytest

from sgalg.scalars import GaussianRational, I_UNIT, ONE, ZERO
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import compose, elementary, evaluate_word, max_translation
from sgalg.operators import (EventualWeight, LaurentPolynomial, OperatorElement,
                             from_monomial, generator_commutator, toeplitz_lift)

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])


def projection_word():
    return evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False)))


def rank_one_at_zero():
    return OperatorElement.identity(S23) - from_monomial(projection_word())


def apply_oracle(terms, d, s):
    """Basis-action oracle from raw (coefficient, word) pairs."""
    from sgalg.translations import word_action
    out = {}
    for coeff, word in terms:
        m = word_action(s, word, d)
        if m is not None:
            out[m] = out.get(m, ZERO) + coeff
    return {k: v for k, v in out.items() if not v.is_zero}


# -- canonical form ----------------------------------------------------------------


def test_from_monomial_examples():
    t2 = from_monomial(elementary(S23, 2, False))
    assert t2.indices() == (2,)
    w = t2.weight_at(2)
    assert w.tail == ONE and w.exceptions == {}

    p = from_monomial(evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False))))
    w = p.weight_at(0)
    assert w.tail == ONE and w.exceptions == {0: ZERO} and w.threshold == 1

    m1 = from_monomial(max_translation(S23, 1))
    w = m1.weight_at(1)
    assert w.value(0) == ZERO and w.tail == ONE


def test_weight_canonicalization():
    w = EventualWeight({0: ONE, 2: ONE, 5: GaussianRational(3)}, ONE)
    assert w.exceptions == {5: GaussianRational(3)}
    assert w.threshold == 6
    assert EventualWeight({4: ZERO}, ZERO).is_zero


def test_support_condition_enforced():
    bad = EventualWeight({}, ONE)     # tail 1, but 0 + (-2) leaves the semigroup
    with pytest.raises(ValueError):
        OperatorElement(S23, {-2: bad})


def test_equality_is_operator_equality():
    # two different word routes to the same operator
    a = from_monomial(evaluate_word(S23, ((2, True), (3, False))))
    b = from_monomial(max_translation(S23, 1))
    assert a == b
    assert a * b.adjoint() != OperatorElement.identity(S23)


def test_rank_one_projection_example():
    p0 = rank_one_at_zero()
    assert p0.indices() == (0,)
    w = p0.weight_at(0)
    assert w.exceptions == {0: ONE} and w.tail == ZERO
    assert p0.apply(0) == {0: ONE}
    assert p0.apply(2) == {}


# -- arithmetic --------------------------------------------------------------------


def test_multiply_examples():
    prod = (from_monomial(elementary(S23, 2, True))
            * from_monomial(elementary(S23, 3, False)))
    assert prod == from_monomial(max_translation(S23, 1))

    v = evaluate_word(S23, ((2, False), (3, True)))
    assert from_monomial(v).adjoint() == from_monomial(v.adjoint())


def test_apply_examples():
    s = S23
    a = from_monomial(elementary(s, 2, False)).scale(2) + from_monomial(
        compose(elementary(s, 2, True), elementary(s, 3, False)))
    assert a.apply(2) == {4: GaussianRational(2), 3: ONE}


def test_multiply_against_action_oracle():
    rng = random.Random(17)
    for s in (Z, S23):
        for _ in range(60):
            words_a = [(rng.choice((ONE, GaussianRational(-1), GaussianRational(2))),
                        tuple((rng.choice(s.generators), rng.random() < 0.5)
                              for _ in range(rng.randint(1, 4))))
                       for _ in range(rng.randint(1, 3))]
            words_b = [(rng.choice((ONE, I_UNIT)),
                        tuple((rng.choice(s.generators), rng.random() < 0.5)
                              for _ in range(rng.randint(1, 4))))
                       for _ in range(rng.randint(1, 3))]
            a = sum((from_monomial(evaluate_word(s, w)).scale(c) for c, w in words_a),
                    OperatorElement.zero(s))
            b = sum((from_monomial(evaluate_word(s, w)).scale(c) for c, w in words_b),
                    OperatorElement.zero(s))
            ab = a * b
            for d in s.members_upto(16):
                image_b = b.apply(d)
                expect = {}
                for mid, coeff in image_b.items():
                    for out, c2 in a.apply(mid).items():
                        expect[out] = expect.get(out, ZERO) + coeff * c2
                expect = {k: v for k, v in expect.items() if not v.is_zero}
                assert ab.apply(d) == expect


def test_linear_dependence_of_indicators():
    # indicator combination that is the zero operator over a gap semigroup
    w2 = from_monomial(compose(elementary(S23, 2, False), elementary(S23, 2, True)))
    w3 = from_monomial(compose(elementary(S23, 3, False), elementary(S23, 3, True)))
    ws0 = from_monomial(projection_word())
    w5 = from_monomial(evaluate_word(S23, ((2, False), (2, True), (3, False), (3, True))))
    assert (w2 + w3 - ws0 - w5).is_zero


# -- grading ------------------------------------------------------------------------


def test_grade_examples():
    s = S23
    a = (from_monomial(elementary(s, 2, False)).scale(2)
         + from_monomial(elementary(s, 3, False)).scale(3)
         + from_monomial(compose(elementary(s, 2, True), elementary(s, 3, False))))
    assert a.grade(2) == from_monomial(elementary(s, 2, False)).scale(2)
    assert a.grade(7).is_zero
    assert sum((a.grade(c) for c in a.indices()), OperatorElement.zero(s)) == a


def test_expectation_examples():
    s = S23
    a = from_monomial(elementary(s, 2, False)) * from_monomial(elementary(s, 3, True))
    assert a.expectation().is_zero
    p0 = rank_one_at_zero()
    assert p0.expectation() == p0
    q = from_monomial(compose(elementary(s, 2, False), elementary(s, 2, True)))
    assert (q * p0).expectation() == q * p0


# -- symbol, ideal, splitting ----------------------------------------------------------


def test_symbol_examples():
    s = S23
    a = (from_monomial(evaluate_word(s, ((2, False), (2, True))))
         + from_monomial(evaluate_word(s, ((3, False), (3, True)))))
    assert a.symbol() == LaurentPolynomial({0: GaussianRational(2)})
    assert rank_one_at_zero().symbol().is_zero
    b = from_monomial(elementary(s, 2, False)) + from_monomial(elementary(s, 3, True))
    assert b.symbol() == LaurentPolynomial({2: ONE, -3: ONE})


def test_toeplitz_lift_examples():
    s = S23
    assert toeplitz_lift(LaurentPolynomial({1: ONE}), s) == from_monomial(max_translation(s, 1))
    assert toeplitz_lift(LaurentPolynomial({0: ONE}), s) == OperatorElement.identity(s)
    f = LaurentPolynomial({1: GaussianRational(2, 1), -1: GaussianRational(2, -1)})
    lifted = toeplitz_lift(f, s)
    assert lifted.adjoint() == lifted
    assert lifted.symbol() == f


def test_in_ideal_examples():
    s = S23
    assert generator_commutator(s, 2, 2, False, True).in_ideal()
    assert rank_one_at_zero().in_ideal()
    assert not from_monomial(elementary(s, 2, False)).in_ideal()


def test_split_examples():
    s = S23
    t2 = from_monomial(elementary(s, 2, False))
    p0 = rank_one_at_zero()
    f, k = (t2 + p0).split()
    assert f == LaurentPolynomial({2: ONE})
    assert k == p0

    f2 = LaurentPolynomial({3: ONE, -2: GaussianRational(5)})
    lf, kf = toeplitz_lift(f2, s).split()
    assert lf == f2 and kf.is_zero

    comm = generator_commutator(s, 2, 3, False, True)
    fc, kc = comm.split()
    assert fc.is_zero and kc == comm


def test_conjugate_and_threshold_examples():
    s = S23
    p0 = rank_one_at_zero()
    assert p0.stabilization_threshold() == 1
    assert p0.conjugate(2).is_zero

    f = LaurentPolynomial({1: ONE, -2: GaussianRational(3)})
    lifted = toeplitz_lift(f, s)
    for e in (0, 2, 3, 5):
        assert lifted.conjugate(e) == lifted

    t2 = from_monomial(elementary(s, 2, False))
    assert t2.conjugate(3) == from_monomial(max_translation(s, 2))
    with pytest.raises(ValueError):
        t2.conjugate(1)


def test_stabilization_property():
    rng = random.Random(23)
    for s in (Z, S23):
        for _ in range(40):
            terms = [(rng.choice((ONE, GaussianRational(-2), I_UNIT)),
                      tuple((rng.choice(s.generators), rng.random() < 0.5)
                            for _ in range(rng.randint(1, 5))))
                     for _ in range(rng.randint(1, 4))]
            a = sum((from_monomial(evaluate_word(s, w)).scale(c) for c, w in terms),
                    OperatorElement.zero(s))
            lifted = toeplitz_lift(a.symbol(), s)
            e = s.first_member_at_least(a.stabilization_threshold())
            for _ in range(3):
                assert a.conjugate(e) == lifted
                e = s.first_member_at_least(e + 1)


def test_is_isometry_examples():
    assert from_monomial(elementary(S23, 3, False)).is_isometry()
    assert not from_monomial(max_translation(S23, 1)).is_isometry()
    # the corrected combined shift is an isometry
    s = S23
    p = projection_word()
    t = (from_monomial(elementary(s, 2, False))
         - from_monomial(compose(elementary(s, 2, False), p))
         + from_monomial(evaluate_word(s, ((2, True), (3, False)))))
    assert t.is_isometry()


def test_symbol_homomorphism_property():
    rng = random.Random(29)
    for _ in range(60):
        words = [tuple((rng.choice(S23.generators), rng.random() < 0.5)
                       for _ in range(rng.randint(1, 4))) for _ in range(4)]
        a = (from_monomial(evaluate_word(S23, words[0]))
             + from_monomial(evaluate_word(S23, words[1])).scale(I_UNIT))
        b = (from_monomial(evaluate_word(S23, words[2])).scale(GaussianRational(-2))
             + from_monomial(evaluate_word(S23, words[3])))
        assert (a * b).symbol() == a.symbol() * b.symbol()
        assert (a + b).symbol() == a.symbol() + b.symbol()
        assert a.adjoint().symbol() == a.symbol().conjugate_reflect()


def test_adjoint_involutive_and_anti_multiplicative():
    rng = random.Random(31)
    for g in S23.generators:
        assert from_monomial(elementary(S23, g, False)).is_isometry()
    for _ in range(40):
        words = [tuple((rng.choice(S23.generators), rng.random() < 0.5)
                       for _ in range(rng.randint(1, 4))) for _ in range(3)]
        a = (from_monomial(evaluate_word(S23, words[0])).scale(I_UNIT)
             + from_monomial(evaluate_word(S23, words[1])))
        b = from_monomial(evaluate_word(S23, words[2])).scale(GaussianRational(-2))
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_laurent_polynomial_arithmetic():
    f = LaurentPolynomial({1: ONE, -1: ONE})
    g = LaurentPolynomial({2: I_UNIT})
    assert (f * g).terms == {3: I_UNIT, 1: I_UNIT}
    assert (f - f).is_zero
    assert f.conjugate_reflect() == f
    assert g.conjugate_reflect() == LaurentPolynomial({-2: GaussianRational(0, -1)})
