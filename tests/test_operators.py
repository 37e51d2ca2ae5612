import random
from fractions import Fraction

import pytest

from conftest import dense_truncate, reference_weights
from sgalg.checks import random_operator, random_word
from sgalg.numeric import gauge_twist, truncate
from sgalg.scalars import GaussianRational, I_UNIT, ONE, ZERO
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import compose, elementary, evaluate_word, max_translation
from sgalg.operators import (LaurentPolynomial, OperatorElement, from_monomial,
                             generator_commutator, toeplitz_lift)

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
    assert t2.weights() == {2: (ONE, {})}

    p = from_monomial(evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False))))
    assert p.weights() == {0: (ONE, {0: ZERO})} and p.stabilization_threshold() == 1

    m1 = from_monomial(max_translation(S23, 1))
    assert m1.weights() == {1: (ONE, {0: ZERO})}
    assert m1.apply(0) == {} and m1.apply(2) == {3: ONE}


# Each semigroup with the number of random operators drawn over it.
READER_LADDER = ((S23, 60), (NumericalSemigroup([3, 7]), 60),
                 (NumericalSemigroup([31, 37]), 30), (NumericalSemigroup([99, 101]), 15))


def test_readers_match_reference_weights():
    # weights, apply, stabilization_threshold and truncate read the terms;
    # the reference finds each weight's zeros member by member.  Products
    # give units on indices that also carry a widest translation (m + u),
    # and a gauge twist gives complex weights.
    rng = random.Random(83)
    for s, count in READER_LADDER:
        for k in range(count):
            a = random_operator(rng, s, max_terms=4, max_word_len=4)
            a = a * random_operator(rng, s, max_terms=3, max_word_len=3) + a
            if k % 5 == 4:
                a = gauge_twist(a, 0.7)
            ref = reference_weights(a)
            weights = a.weights()
            assert weights == ref and list(weights) == list(ref)
            top = max((max(exc, default=-1) + 1 for _tail, exc in ref.values()), default=0)
            assert a.stabilization_threshold() == top
            points = {d for _tail, exc in ref.values() for d in exc}
            points.update(s.members_upto(40))
            points.update(s.first_member_at_least(top + i) for i in range(3))
            for d in sorted(points):
                assert a.apply(d) == {d + c: v for c, (tail, exc) in ref.items()
                                      if (v := exc.get(d, tail))}
            for n in (1, 24):
                assert (truncate(a, n) == dense_truncate(a, n)).all()


def test_support_condition_enforced():
    # The unit e_0 -> e_{-2} would leave the semigroup.
    with pytest.raises(ValueError):
        OperatorElement(S23, {(-2, 0): ONE})


def test_equality_is_operator_equality():
    # two different word routes to the same operator
    a = from_monomial(evaluate_word(S23, ((2, True), (3, False))))
    b = from_monomial(max_translation(S23, 1))
    assert a == b
    assert a * b.adjoint() != OperatorElement.identity(S23)


def test_rank_one_projection_example():
    p0 = rank_one_at_zero()
    assert p0.indices() == (0,)
    assert p0.weights() == {0: (ZERO, {0: ONE})}
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


def _word_depth(word):
    # No partial sum of the letters' moves exceeds this, so above F plus the
    # depth the word acts as a plain translation.
    return sum(a for a, _starred in word)


# Each semigroup of the Frobenius ladder with the number of random pairs drawn.
ORACLE_LADDER = ((Z, 60), (S23, 60), (NumericalSemigroup([3, 7]), 12),
                 (NumericalSemigroup([11, 13]), 6), (NumericalSemigroup([31, 37]), 3))


def test_multiply_against_action_oracle():
    # Sums, products, adjoints of sums and products, and shift conjugations,
    # against the letter-by-letter word_action oracle at every basis point up
    # to F plus the depth of the deepest word, and never below 16.
    rng = random.Random(17)
    for s, trials in ORACLE_LADDER:
        for _ in range(trials):
            terms_a = [(rng.choice((ONE, GaussianRational(-1), GaussianRational(2))),
                        random_word(rng, s, 4)) for _ in range(rng.randint(1, 3))]
            terms_b = [(rng.choice((ONE, I_UNIT)), random_word(rng, s, 4))
                       for _ in range(rng.randint(1, 3))]
            a = sum((from_monomial(evaluate_word(s, w)).scale(c) for c, w in terms_a),
                    OperatorElement.zero(s))
            b = sum((from_monomial(evaluate_word(s, w)).scale(c) for c, w in terms_b),
                    OperatorElement.zero(s))
            e = s.element_at(rng.randrange(1, 6))
            depth = (max(_word_depth(w) for _c, w in terms_a)
                     + max(_word_depth(w) for _c, w in terms_b) + 2 * e)
            top = max(16, s.frobenius + depth)
            window = s.members_upto(top)
            terms = terms_a + terms_b
            ab_terms = [(ca * cb, wa + wb) for ca, wa in terms_a for cb, wb in terms_b]
            ba_terms = [(cb * ca, wb + wa) for ca, wa in terms_a for cb, wb in terms_b]
            conjugated = [(c, ((e, True),) + w + ((e, False),)) for c, w in terms]
            ab, ba, total = a * b, b * a, a + b
            total_e = total.conjugate(e)
            for d in window:
                assert ab.apply(d) == apply_oracle(ab_terms, d, s)
                assert ba.apply(d) == apply_oracle(ba_terms, d, s)
                assert total.apply(d) == apply_oracle(terms, d, s)
                assert total_e.apply(d) == apply_oracle(conjugated, d, s)
            # <X* e_m, e_d> = conj <X e_d, e_m>, over every d that reaches the window.
            for x, x_terms in ((total, terms), (ab, ab_terms)):
                x_star = x.adjoint()
                rows = {d: apply_oracle(x_terms, d, s) for d in s.members_upto(top + depth)}
                for m in window:
                    expect = {d: row[m].conjugate() for d, row in rows.items() if m in row}
                    assert x_star.apply(m) == expect


@pytest.mark.parametrize("gens", [(3, 7), (11, 13), (31, 37)])
def test_closed_results_pass_the_public_check(gens):
    # The operations below build their results without the constructor's
    # check; each result's matrix units must still pass it.
    s = NumericalSemigroup(list(gens))
    rng = random.Random(sum(gens))
    coeffs = (ONE, GaussianRational(-1), GaussianRational(Fraction(2, 3), -1), I_UNIT)

    def element():
        monomials = (from_monomial(evaluate_word(s, random_word(rng, s, 4))) for _ in range(3))
        return sum((m.scale(rng.choice(coeffs)) for m in monomials), OperatorElement.zero(s))

    for _ in range(3):
        a, b = element(), element()
        results = [a + b, a.scale(rng.choice(coeffs)), a * b, b * a.adjoint(), a.adjoint(),
                   a.conjugate(s.element_at(rng.randrange(1, 6))), gauge_twist(a, 0.7),
                   from_monomial(evaluate_word(s, random_word(rng, s, 6))),
                   OperatorElement.identity(s)]
        results += [a.grade(c) for c in a.indices()]
        for x in results:
            assert OperatorElement(x.semigroup, dict(x.terms)) == x


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


def is_isometry(a):
    return a.adjoint() * a == OperatorElement.identity(a.semigroup)


def test_is_isometry_examples():
    assert is_isometry(from_monomial(elementary(S23, 3, False)))
    assert not is_isometry(from_monomial(max_translation(S23, 1)))
    # the corrected combined shift is an isometry
    s = S23
    p = projection_word()
    t = (from_monomial(elementary(s, 2, False))
         - from_monomial(compose(elementary(s, 2, False), p))
         + from_monomial(evaluate_word(s, ((2, True), (3, False)))))
    assert is_isometry(t)


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
        assert is_isometry(from_monomial(elementary(S23, g, False)))
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
