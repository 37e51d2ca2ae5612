import itertools
import random
from fractions import Fraction

import pytest

from conftest import (group_like_reference, group_like_survey, operator_coordinates,
                      pairwise_descent_witness, pairwise_morphism_falsify,
                      pointwise_descent_witness, tensor_apply)
from sgalg.scalars import GaussianRational, I_UNIT, ONE, ZERO
from sgalg.semigroup import NumericalSemigroup, morphism_multipliers
from sgalg.translations import compose, elementary, evaluate_word, max_translation
from sgalg.operators import LaurentPolynomial, OperatorElement, from_monomial
from sgalg import checks, quantum
from sgalg.numeric import gauge_twist
from sgalg.quantum import (FreeElement, FreeTensor, coideal_decomposition,
                           coproduct, corner_diagram_check, descent_witness,
                           distinct_monomials,
                           enumerate_words, exact_nullspace, group_like_detect,
                           monomial_kernel, quantum_morphism_falsify, rep,
                           tensor_multiply, tensor_of, weak_antipode,
                           weak_hopf_check)

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])


def tensor_adjoint(s: FreeTensor) -> FreeTensor:
    return FreeTensor.collect(s.semigroup,
                              (((v.adjoint(), w.adjoint()), c.conjugate())
                               for (v, w), c in s.terms.items()))


def mono(s, *letters):
    return FreeElement.monomial(evaluate_word(s, tuple(letters)))


def dependence_element():
    """Indicator inclusion-exclusion that is the zero operator over S(2,3)."""
    return (mono(S23, (2, False), (2, True)) + mono(S23, (3, False), (3, True))
            - mono(S23, (3, True), (2, False), (2, True), (3, False))
            - mono(S23, (2, False), (2, True), (3, False), (3, True)))


# -- rep ------------------------------------------------------------------------


def test_rep_examples():
    x = mono(S23, (2, False))
    assert rep(x) == from_monomial(elementary(S23, 2, False))
    assert rep(dependence_element()).is_zero
    for v in distinct_monomials(S23, 3):
        assert not rep(FreeElement.monomial(v)).is_zero


@pytest.mark.parametrize("gens", [(2, 3), (3, 5), (31, 37)])
def test_rep_is_the_sum_of_monomial_lifts(gens):
    s = NumericalSemigroup(gens)
    rng = random.Random(f"rep:{gens}")
    for _ in range(40):
        x = checks.random_free_element(rng, s, max_terms=6, max_word_len=6)
        for y in (x, x.scale(0.5 - 0.25j)):
            lifts = OperatorElement.zero(s)
            for v, c in y.terms.items():
                lifts = lifts + from_monomial(v).scale(c)
            assert rep(y) == lifts


# -- linear combinations -----------------------------------------------------------


def random_terms(rng, s, count):
    return [(evaluate_word(s, tuple((rng.choice(s.generators), rng.random() < 0.5)
                                    for _ in range(rng.randint(1, 4)))),
             rng.choice((ONE, GaussianRational(-2), I_UNIT, GaussianRational(1, -1))))
            for _ in range(count)]


def is_clean(x) -> bool:
    """Only nonzero exact or complex coefficients, and equal to the public constructor's copy."""
    rebuilt = (LaurentPolynomial(dict(x.terms)) if type(x) is LaurentPolynomial
               else type(x)(x.semigroup, dict(x.terms)))
    return all(type(c) in (GaussianRational, complex) and c for c in x.terms.values()) \
        and rebuilt == x


@pytest.mark.parametrize("gens", [(2, 3), (3, 7)])
def test_results_stored_without_coercion_are_clean(gens):
    # Results built by _new, which stores its dict as it is.
    s = NumericalSemigroup(gens)
    rng = random.Random(f"clean:{gens}")
    g = s.generators[0]
    # collect does not coerce, so it is given the exact and complex scalars it keeps.
    half = GaussianRational(Fraction(1, 2))
    collected = OperatorElement.collect(s, [((g, None), ONE), ((g, None), -ONE),
                                            ((0, None), GaussianRational(2)),
                                            ((g, 0), half), ((g, 0), -half),
                                            ((-g, None), 0.5j), ((-g, None), -0.5j)])
    assert collected.terms == {(0, None): GaussianRational(2)} and is_clean(collected)
    for _ in range(10):
        x, y = (checks.random_free_element(rng, s) for _ in range(2))
        a, b = rep(x), rep(y)
        twisted = gauge_twist(a, 0.7)
        symbol, ideal = a.split()
        results = [x + y - x, x * y, x.scale(0), x.scale(Fraction(2, 3)), x.scale(0.5 - 1j),
                   -x, a * b, a - a, a.scale(0), a.scale(Fraction(-1, 3)), a.scale(1j), -a,
                   a.adjoint(), a.conjugate(g), symbol, ideal, symbol * b.symbol(), twisted,
                   twisted * b, twisted.adjoint(), -twisted, twisted.scale(Fraction(1, 2)),
                   tensor_multiply(coproduct(x), coproduct(y))]
        results += [a.grade(c) for c in a.indices() + (1 + max(map(abs, a.indices()), default=0),)]
        if x != y:
            s_, t = tensor_of(x, y), tensor_of(y, x)
            product = tensor_multiply(s_, t)
            assert product == FreeTensor.collect(s, (
                ((compose(p0, q0), compose(p1, q1)), c * d)
                for (p0, p1), c in s_.terms.items() for (q0, q1), d in t.terms.items()))
            results.append(product)
        for r in results:
            assert is_clean(r), r


def test_operands_over_different_semigroups_are_refused():
    x = mono(S23, (2, False))
    z = mono(Z, (1, False))
    with pytest.raises(ValueError):
        x + z
    with pytest.raises(ValueError):
        x * z
    with pytest.raises(ValueError):
        tensor_of(x, z)
    with pytest.raises(ValueError):
        tensor_multiply(coproduct(x), coproduct(z))
    with pytest.raises(TypeError):
        LaurentPolynomial({1: ONE}) + x


def test_equality_and_hash_ignore_insertion_order():
    rng = random.Random(43)
    for _ in range(30):
        terms = random_terms(rng, S23, rng.randint(1, 6))
        x = FreeElement.collect(S23, terms)
        y = FreeElement.collect(S23, reversed(terms))
        shuffled = list(terms)
        rng.shuffle(shuffled)
        w = FreeElement.collect(S23, shuffled)
        assert x == y == w
        assert hash(x) == hash(y) == hash(w)
        other = FreeElement.collect(S23, random_terms(rng, S23, 3))
        assert x + other == other + x
        assert hash(x + other) == hash(other + x)
        assert x - x == FreeElement.zero(S23)


def test_complex_scaling_of_free_elements():
    rng = random.Random(47)
    for z in (0.5 - 0.25j, complex(0, -3), 1e-3 + 2j):
        x = FreeElement.collect(S23, random_terms(rng, S23, 4))
        scaled = x.scale(z)
        assert all(isinstance(c, complex) for c in scaled.terms.values())
        assert z * x == scaled
        assert rep(scaled).deviation_from(rep(x).scale(z)) <= 1e-12


# -- coproduct -------------------------------------------------------------------


def test_coproduct_examples():
    t2 = elementary(S23, 2, False)
    d = coproduct(FreeElement.monomial(t2))
    assert d.terms == {(t2, t2): ONE}
    assert coproduct(FreeElement.zero(S23)).is_zero

    u, w = t2, elementary(S23, 3, False)
    x = FreeElement.monomial(u).scale(2) + FreeElement.monomial(w).scale(I_UNIT)
    d = coproduct(x)
    assert d.terms == {(u, u): GaussianRational(2), (w, w): I_UNIT}


def test_tensor_multiply_examples():
    t2 = FreeElement.monomial(elementary(S23, 2, False))
    t3 = FreeElement.monomial(elementary(S23, 3, False))
    t5 = FreeElement.monomial(elementary(S23, 5, False))
    assert tensor_multiply(tensor_of(t2, t2), tensor_of(t3, t3)) == tensor_of(t5, t5)

    rng = random.Random(31)
    for _ in range(40):
        u = mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 4))))
        w = mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 4))))
        assert coproduct(u * w) == tensor_multiply(coproduct(u), coproduct(w))

    v = elementary(S23, 2, False)
    w = elementary(S23, 3, True)
    t = FreeTensor(S23, {(v, w): ONE})
    assert tensor_adjoint(t).terms == {(v.adjoint(), w.adjoint()): ONE}


def test_tensor_apply_examples():
    t2 = elementary(S23, 2, False)
    t = tensor_of(FreeElement.monomial(t2), FreeElement.monomial(t2))
    assert tensor_apply(t, (0, 0)) == {(2, 2): ONE}

    x = mono(S23, (3, True), (2, False), (2, True), (3, False))
    d = coproduct(x)
    assert tensor_apply(d, (2, 3)) == {(2, 3): ONE}

    rng = random.Random(37)
    for _ in range(40):
        x = FreeElement.zero(S23)
        for _ in range(rng.randint(1, 4)):
            x = x + mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                                for _ in range(rng.randint(1, 4)))).scale(
                rng.choice((ONE, I_UNIT, GaussianRational(-2))))
        op = rep(x)
        for a in S23.members_upto(10):
            diag = tensor_apply(coproduct(x), (a, a))
            assert diag == {(m, m): c for m, c in op.apply(a).items()}


@pytest.mark.parametrize("gens", [(1,), (2, 3), (3, 5), (31, 37)])
def test_pair_images_match_tensor_apply(gens):
    s = NumericalSemigroup(gens)
    rng = random.Random(f"pair-images:{gens}")
    # samples in no particular order, reaching past F, where masks can outrun the window
    pool = s.members_upto(2 * s.frobenius + 3 * max(gens))
    for _ in range(6):
        x, y = (checks.random_free_element(rng, s) for _ in range(2))
        for t in (coproduct(x), tensor_of(x, y)):
            cs = rng.sample(pool, min(8, len(pool))) + [s.frobenius + 1]
            ds = rng.sample(pool, min(5, len(pool))) + [s.frobenius + max(gens)]
            for a, b in ((cs, ds), (ds, cs), (cs, cs), (ds[:1], ds[:1])):
                expected = [((c, d), vals) for c in a for d in b
                            if (vals := tensor_apply(t, (c, d)))]
                assert list(t.pair_images(a, b)) == expected
            assert list(t.pair_images([], ds)) == list(t.pair_images(cs, [])) == []
            assert list(t.pair_images([], [])) == []


# -- weak Hopf structure ------------------------------------------------------------


def test_weak_antipode_examples():
    t2 = elementary(S23, 2, False)
    assert weak_antipode(FreeElement.monomial(t2)).terms == {t2.adjoint(): ONE}
    one = FreeElement.identity(S23)
    assert weak_antipode(one) == one
    x = FreeElement.monomial(t2).scale(GaussianRational(0, 2))
    # linear, not conjugate-linear: the coefficient is untouched
    assert weak_antipode(x).terms == {t2.adjoint(): GaussianRational(0, 2)}
    assert weak_antipode(weak_antipode(x)) == x


def test_weak_hopf_examples():
    v = mono(S23, (2, False))
    assert weak_hopf_check(v)
    x = (mono(S23, (2, False)).scale(2)
         - mono(S23, (2, True), (3, False)).scale(3))
    assert weak_hopf_check(x)
    assert weak_hopf_check(FreeElement.zero(S23))


def test_coassociativity_examples():
    rng = random.Random(41)
    for _ in range(30):
        x = FreeElement.zero(S23)
        for _ in range(5):
            x = x + mono(S23, *((rng.choice(S23.generators), rng.random() < 0.5)
                                for _ in range(rng.randint(1, 5)))).scale(
                rng.choice((ONE, GaussianRational(-1), I_UNIT)))
        assert weak_hopf_check(x)


# -- group-like detection --------------------------------------------------------------


def test_group_like_examples():
    assert group_like_detect(mono(S23, (3, False))) == 3
    assert group_like_detect(FreeElement.monomial(max_translation(S23, 1))) is None
    two_terms = mono(S23, (2, False)) + mono(S23, (3, False))
    assert group_like_detect(two_terms) is None
    assert group_like_detect(mono(S23, (2, False)).scale(2)) is None
    assert group_like_detect(FreeElement.identity(S23)) == 0


def test_group_like_detect_matches_the_definition():
    # The rule read from the terms against coproduct x (x) x plus an isometric
    # image: monomials times exact, complex-one and imaginary coefficients,
    # pairs, and zero.  A complex 1+0j is never the exact one.
    pool = checks._COEFF_POOL + (1 + 0j, 2j)
    for s, length in ((Z, 4), (S23, 4), (NumericalSemigroup([3, 7]), 3),
                      (NumericalSemigroup([11, 13]), 2)):
        monos = sorted(distinct_monomials(s, length), key=lambda v: v.sort_key)
        cases = [FreeElement(s, {v: lam}) for v in monos for lam in pool]
        cases += [FreeElement(s, {v: ONE, w: ONE}) for v, w in itertools.combinations(monos, 2)]
        cases.append(FreeElement.zero(s))
        answers = [group_like_detect(x) for x in cases]
        assert answers == [group_like_reference(x) for x in cases]
        assert any(c is not None for c in answers)
    shift = FreeElement.monomial(elementary(S23, 3, False))
    assert group_like_detect(shift) == 3 and group_like_detect(shift.scale(1 + 0j)) is None


def test_group_like_survey_small(group_like_invariants):
    pool = (ONE, GaussianRational(-1))
    found = group_like_survey(S23, 2, pool)
    assert found == {0, 2, 3, 4, 5, 6}
    assert group_like_invariants(S23, 2, pool, max_terms=2)
    # A zero coefficient is no monomial at all, so it detects nothing.
    assert group_like_survey(S23, 2, (GaussianRational(0),)) == set()


# -- coideal ---------------------------------------------------------------------------


def test_coideal_examples():
    t2 = elementary(S23, 2, False)
    comm, s1, s2 = coideal_decomposition(t2, t2.adjoint())
    assert s1 + s2 == coproduct(comm)
    assert not (s1 + s2).is_zero
    assert comm == mono(S23, (2, False), (2, True)) - FreeElement.identity(S23)

    t3 = elementary(S23, 3, False)
    comm, s1, s2 = coideal_decomposition(t2, t3)
    assert comm.is_zero and s1.is_zero and s2.is_zero  # commuting pair

    comm, s1, s2 = coideal_decomposition(elementary(S23, 3, True), t2)
    assert s1 + s2 == coproduct(comm)


# -- descent and corner ------------------------------------------------------------------


def test_descent_witness_example():
    found = descent_witness(dependence_element(), 10)
    assert found is not None
    (pair, values) = found
    assert pair == (2, 3)
    assert values == {(2, 3): GaussianRational(-1)}


@pytest.mark.parametrize("gens", [[2, 3], [3, 5], [3, 7], [3, 4, 5], [11, 13]])
def test_descent_witness_matches_the_pairwise_reference(gens):
    # Every rep-zero kernel vector at word length 6, over the window
    # suite_descent uses: same pair, same values in the same order.
    s = NumericalSemigroup(gens)
    monos = sorted(distinct_monomials(s, 6), key=lambda v: v.sort_key)
    window = max([10] + [v.mask.bit_length() + 2 for v in monos])
    kernel = list(monomial_kernel(monos))
    assert kernel
    for vec in kernel:
        x = FreeElement(s, {monos[p]: c for p, c in vec})
        found, expected = descent_witness(x, window), pairwise_descent_witness(x, window)
        assert expected is not None and found[0] == expected[0]
        assert list(found[1].items()) == list(expected[1].items())


@pytest.mark.parametrize("gens", [(3, 5), (31, 37), (99, 101)])
def test_descent_witness_matches_the_pointwise_reference(gens):
    # Every probe suite_descent passes: one point per domain cell finds the
    # witness and values that every left-out point does.
    s = NumericalSemigroup(gens)
    monos = sorted(distinct_monomials(s, 6), key=lambda v: v.sort_key)
    window = max([10] + [v.mask.bit_length() + 2 for v in monos])
    probes = [x for x in (FreeElement(s, {monos[p]: c for p, c in vec})
                          for vec in monomial_kernel(monos)) if rep(x).is_zero]
    assert probes
    for x in probes:
        found, expected = descent_witness(x, window), pointwise_descent_witness(x, window)
        assert expected is not None and found[0] == expected[0]
        assert list(found[1].items()) == list(expected[1].items())


def test_descent_requires_rep_zero():
    with pytest.raises(ValueError):
        descent_witness(mono(S23, (2, False)), 10)


def test_descent_diagonal_never_witnesses():
    x = dependence_element()
    t = coproduct(x)
    for a in S23.members_upto(12):
        assert tensor_apply(t, (a, a)) == {}


def test_no_dependences_over_totally_ordered():
    monos = sorted(distinct_monomials(Z, 6), key=lambda v: v.sort_key)
    by_index = {}
    for v in monos:
        by_index.setdefault(v.index, []).append(v)
    for vs in by_index.values():
        cols = operator_coordinates([from_monomial(v) for v in vs])
        assert exact_nullspace(cols) == []


def test_corner_examples():
    x = mono(S23, (2, False), (2, True))
    assert corner_diagram_check(x, 0, 10) is None
    assert corner_diagram_check(x, 1, 10) == (2, 3)
    # negative classes are checked through the mirror image, reported unmirrored
    assert corner_diagram_check(x, -1, 10) == (3, 2)

    for v in distinct_monomials(Z, 4):
        xz = FreeElement.monomial(v)
        for a in range(-4, 5):
            assert corner_diagram_check(xz, a, 10) is None


def test_nullspace_unit():
    one = ONE
    cols = [{"a": one}, {"a": one}, {"b": one}]
    basis = exact_nullspace(cols)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] * 1 + vec[1] == ZERO and vec[2] == ZERO


def test_nullspace_matches_dense_reference(dense_kernel):
    # Sparse columns with general Gaussian-rational entries, so pivots need
    # scaling and rows fill in; the reduced echelon form, hence the basis, is
    # the dense elimination's whatever the pivot rows chosen.
    dense_nullspace, _ = dense_kernel
    rng = random.Random(11)
    values = (ONE, GaussianRational(-2), GaussianRational(1, 3), I_UNIT,
              GaussianRational(Fraction(1, 2), -1))
    for _ in range(60):
        keys = range(rng.randint(1, 8))
        cols = [{k: rng.choice(values) for k in keys if rng.random() < 0.4}
                for _ in range(rng.randint(1, 9))]
        assert exact_nullspace(cols) == dense_nullspace(cols)


@pytest.mark.parametrize("gens,max_len", [([2, 3], 8), ([3, 5], 7), ([3, 4, 5], 5),
                                          ([3, 7], 5), ([11, 13], 4)])
def test_sparse_kernel_matches_dense_reference(dense_kernel, gens, max_len):
    _, dense_monomial_kernel = dense_kernel
    s = NumericalSemigroup(gens)
    pts = sorted(distinct_monomials(s, max_len), key=lambda v: v.sort_key)
    expanded = []
    for vec in list(monomial_kernel(pts)):
        positions = [p for p, _ in vec]
        assert all(p < q for p, q in zip(positions, positions[1:]))
        assert all(not c.is_zero for _, c in vec)
        assert rep(FreeElement(s, {pts[p]: c for p, c in vec})).is_zero
        full = [ZERO] * len(pts)
        for p, c in vec:
            full[p] = c
        expanded.append(full)
    assert expanded == dense_monomial_kernel(pts)


# -- short-word search ------------------------------------------------------------------


@pytest.mark.parametrize("gens,max_len", [([1], 11), ([2, 3], 7), ([3, 5], 6),
                                          ([3, 7], 5), ([3, 4, 5], 5), ([11, 13], 4)])
def test_search_matches_brute_force_enumeration(gens, max_len):
    s = NumericalSemigroup(gens)
    first: dict = {}
    for word, v in enumerate_words(s, max_len):
        first.setdefault(v, word)
    assert list(distinct_monomials(s, max_len).items()) == list(first.items())


# -- morphism falsifier ------------------------------------------------------------------


def test_falsifier_examples():
    assert quantum_morphism_falsify(Z, Z, [1], 6) == [None]
    assert quantum_morphism_falsify(Z, S23, [2], 5) == [None]
    (w,) = quantum_morphism_falsify(S23, Z, [1], 6)
    assert w is not None and w.kind == "combination"
    assert quantum_morphism_falsify(S23, Z, [], 6) == []
    for multipliers in ([1], [2, 1], [-2]):   # 1*1 = 1 is not in S(2,3), nor is -2*1
        with pytest.raises(ValueError, match=f"{multipliers[-1]} is not a morphism multiplier"):
            quantum_morphism_falsify(Z, S23, multipliers, 4)


def test_falsifier_witness_is_genuine():
    (w,) = quantum_morphism_falsify(S23, Z, [1], 6)
    left = sum((from_monomial(evaluate_word(S23, word)).scale(c)
                for c, word in w.left), OperatorElement.zero(S23))
    right = sum((from_monomial(evaluate_word(S23, word)).scale(c)
                 for c, word in w.right), OperatorElement.zero(S23))
    assert left == right      # equal as source operators
    img_left = sum((from_monomial(evaluate_word(Z, word)).scale(c)
                    for c, word in w.left), OperatorElement.zero(Z))
    img_right = sum((from_monomial(evaluate_word(Z, word)).scale(c)
                     for c, word in w.right), OperatorElement.zero(Z))
    assert img_left != img_right


def test_falsifier_word_witness_from_three_generators():
    # T(3)T*(3)T(5) = T(4)T*(3)T(4) over S(3,4,5): both keep d exactly when
    # d >= 3.  Over S(2,3) the first keeps 0 and the second does not.
    s345 = NumericalSemigroup([3, 4, 5])
    (w,) = quantum_morphism_falsify(s345, S23, [1], 3)
    assert w.kind == "word"
    ((c1, left),), ((c2, right),) = w.left, w.right
    assert c1 == c2 == ONE and left != right
    source = evaluate_word(s345, left)
    assert source == evaluate_word(s345, right)
    assert distinct_monomials(s345, 3)[source] == left
    # m = 1 leaves the letters as they are
    assert evaluate_word(S23, left) != evaluate_word(S23, right)


def _same_witnesses(s1, s2, multipliers, length):
    """One scan over the multipliers against the pairwise reference, multiplier
    by multiplier; the kinds of the witnesses found."""
    kinds = []
    for m, found in zip(multipliers, quantum_morphism_falsify(s1, s2, multipliers, length),
                        strict=True):
        expected = pairwise_morphism_falsify(s1, s2, m, length)
        assert (found is None) == (expected is None)
        if found is not None:
            assert ((found.kind, found.left, found.right, found.multiplier)
                    == (expected.kind, expected.left, expected.right, expected.multiplier))
        kinds.append(None if found is None else found.kind)
    return kinds


def test_falsifier_matches_the_pairwise_reference():
    # Every admissible multiplier up to 6 at every length up to 5, and the
    # benchmark's scans: the same witness, spelled with the same words, as the
    # search on translations, which runs its (source, image) pairs to the end.
    kinds = set()
    for src in ([1], [2, 3], [3, 5], [3, 7], [3, 4, 5]):
        s1 = NumericalSemigroup(src)
        for tgt in ([1], [2, 3], [3, 5]):
            s2 = NumericalSemigroup(tgt)
            multipliers = morphism_multipliers(s1, s2, 6)
            for length in range(1, 6):
                kinds.update((tuple(src), tuple(tgt), kind)
                             for kind in _same_witnesses(s1, s2, multipliers, length))
    assert ((3, 4, 5), (2, 3), "word") in kinds
    for src in ([2, 3], [3, 5]):
        s1 = NumericalSemigroup(src)
        _same_witnesses(s1, Z, morphism_multipliers(s1, Z, 6), 7)
    assert _same_witnesses(Z, Z, [1], 11) == [None]
    s345 = NumericalSemigroup([3, 4, 5])
    assert _same_witnesses(s345, S23, [1], 6) == ["word"]


def test_source_automaton_moves_compose_and_levels_hold_first_words():
    for gens, length in (([1], 8), ([2, 3], 6), ([3, 5], 5), ([3, 4, 5], 4)):
        s = NumericalSemigroup(gens)
        pts, words, moves, levels = quantum._source_automaton(s, length)
        assert pts[0] == elementary(s, 0, False)
        for letter, move in zip(quantum.letters_of(s), moves):
            for i, j in move.items():
                assert pts[j] == compose(elementary(s, *letter), pts[i])
        assert levels[0] == [0] and len(levels) == length
        for depth, level in enumerate(levels[1:], 1):
            assert level == [k for k, word in words.items() if len(word) == depth]
        assert {k for level in levels for k in level} == set().union(*map(set, moves))


def test_falsifier_eliminates_only_the_classes_it_reads(monkeypatch):
    # A refuted scan stops at its last witness, so later index classes are never
    # eliminated; a second multiplier eliminates nothing that the first did not.
    S35 = NumericalSemigroup([3, 5])
    eliminated = []

    def counting(columns):
        eliminated.append(len(columns))
        return exact_nullspace(columns)

    monkeypatch.setattr(quantum, "exact_nullspace", counting)
    classes = {v.index for v in distinct_monomials(S35, 7)}
    assert [w.kind for w in quantum_morphism_falsify(S35, Z, [1], 7)] == ["combination"]
    first = list(eliminated)
    eliminated.clear()
    assert ([w.kind for w in quantum_morphism_falsify(S35, Z, [1, 2], 7)]
            == ["combination", "combination"])
    assert 0 < len(eliminated) < len(classes)
    assert eliminated == first


def test_falsifier_trivial_multiplier_consistent():
    # the zero multiplier is the symbol evaluated at the neutral point: a
    # genuine morphism, so no witness can exist
    assert quantum_morphism_falsify(S23, Z, [0], 5) == [None]


def test_scan_of_zero_multipliers_builds_no_source_automaton(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a scan of zero multipliers built the source automaton")

    monkeypatch.setattr(quantum, "_source_automaton", unreachable)
    assert quantum_morphism_falsify(S23, Z, [0], 5) == [None]
    assert quantum_morphism_falsify(S23, S23, [0, 0], 5) == [None, None]


def test_morphism_report_builds_one_source_automaton_per_scan(monkeypatch):
    built = []

    def counting(semigroup, max_len):
        built.append((semigroup, max_len))
        return source_automaton(semigroup, max_len)

    source_automaton = quantum._source_automaton
    monkeypatch.setattr(quantum, "_source_automaton", counting)
    report = checks.morphism_report(S23, Z, None, 6)
    assert [r["multiplier"] for r in report["results"]] == list(range(7))
    assert built == [(S23, 6)]
    checks.morphism_report(NumericalSemigroup([3, 5]), Z, 2, 4)
    assert built[1:] == [(NumericalSemigroup([3, 5]), 4)]
