"""Named verification suites producing deterministic JSON-able reports.

Each suite returns a list of reports {claim, parameters, computed, expected,
tolerance, pass}.  The CLI exposes them by name; the acceptance tests call
the same functions.  All randomness is seeded and reported.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import GaussianRational, I_UNIT, ONE, ZERO
from .semigroup import NumericalSemigroup, automorphism_multipliers
from .translations import (PartialTranslation, Word, compose, elementary,
                           evaluate_word, max_translation, word_action)
from .operators import (LaurentPolynomial, OperatorElement, from_monomial,
                        generator_commutator, toeplitz_lift)
from . import quantum
from .quantum import (FreeElement, coproduct, corner_diagram_check, descent_witness,
                      distinct_monomials, monomial_kernel,
                      quantum_morphism_falsify, rep, weak_antipode,
                      weak_hopf_check, _pt_sort_key)
from . import functionals as fns
from .numeric import (fourier_project, gauge_twist, norm_convergence,
                      operator_norm, shift_example_check, truncate)

SUITE_NAMES = ("order", "inverse", "grading", "symbol", "weakhopf", "haar",
               "coideal", "descent", "fourier", "norms", "shift37")


def _report(claim: str, parameters: dict, computed, expected, tolerance, passed: bool) -> dict:
    return {"claim": claim, "parameters": parameters, "computed": computed,
            "expected": expected, "tolerance": tolerance, "pass": bool(passed)}


def _rng(name: str, s: NumericalSemigroup, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{s.generators}")


def random_word(rng: random.Random, s: NumericalSemigroup, max_len: int) -> Word:
    length = rng.randint(1, max_len)
    return tuple((rng.choice(s.generators), rng.random() < 0.5)
                 for _ in range(length))


_COEFF_POOL = (ONE, GaussianRational(-1), GaussianRational(2),
               GaussianRational(Fraction(1, 2)), I_UNIT,
               GaussianRational(1, -1), GaussianRational(-3))


def random_free_element(rng: random.Random, s: NumericalSemigroup,
                        max_terms: int = 5, max_word_len: int = 6) -> FreeElement:
    terms: dict[PartialTranslation, GaussianRational] = {}
    for _ in range(rng.randint(1, max_terms)):
        v = evaluate_word(s, random_word(rng, s, max_word_len))
        terms[v] = terms.get(v, ZERO) + rng.choice(_COEFF_POOL)
    return FreeElement(s, terms)


def random_operator(rng: random.Random, s: NumericalSemigroup,
                    max_terms: int = 5, max_word_len: int = 6) -> OperatorElement:
    return rep(random_free_element(rng, s, max_terms, max_word_len))


# -- order suite -----------------------------------------------------------------


def suite_order(s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    rng = _rng("order", s, seed)
    reports = []

    n_pairs = 300
    closure_ok = all(
        s.contains(s.element_at(rng.randrange(40)) + s.element_at(rng.randrange(40)))
        for _ in range(n_pairs))
    reports.append(_report("membership is closed under addition",
                           {"semigroup": str(s), "pairs": n_pairs, "seed": seed},
                           {"all_sums_members": closure_ok}, True, 0, closure_ok))

    members = s.members_upto(s.frobenius + 2 * max(s.generators) + 2)
    reflexive = all(s.natural_below(a, a) for a in members)
    antisym = all(not (s.natural_below(a, b) and s.natural_below(b, a))
                  for a in members for b in members if a != b)
    transitive = True
    for _ in range(300):
        a, b, c = (members[rng.randrange(len(members))] for _ in range(3))
        if s.natural_below(a, b) and s.natural_below(b, c):
            transitive = transitive and s.natural_below(a, c)
    order_ok = reflexive and antisym and transitive
    reports.append(_report("natural relation is a partial order",
                           {"semigroup": str(s), "window": members[-1], "seed": seed},
                           {"reflexive": reflexive, "antisymmetric": antisym,
                            "transitive": transitive}, True, 0, order_ok))

    # Pairwise comparability, independent of the gap list.  The window is wide
    # enough: with gaps, a generator a and a + frobenius are incomparable.
    window = s.members_upto(s.frobenius + max(s.generators))
    total = all(s.contains(b - a) or s.contains(a - b)
                for i, a in enumerate(window) for b in window[i + 1:])
    equiv_ok = total == (len(s.gaps) == 0)
    reports.append(_report("totality of the natural order matches gap-freeness",
                           {"semigroup": str(s)},
                           {"totally_ordered": total, "gaps": list(s.gaps)},
                           {"equivalence": True}, 0, equiv_ok))

    enum = [s.element_at(i) for i in range(60)]
    increasing = all(b > a for a, b in zip(enum, enum[1:]))
    exact_members = (enum == s.members_upto(enum[-1]))
    reports.append(_report("enumeration is strictly increasing and exhaustive",
                           {"semigroup": str(s), "count": 60},
                           {"increasing": increasing, "matches_members": exact_members},
                           True, 0, increasing and exact_members))

    autos = sorted(automorphism_multipliers(s))
    reports.append(_report("the only scaling automorphism is the identity",
                           {"semigroup": str(s)}, {"multipliers": autos}, [1], 0,
                           autos == [1]))
    return reports


# -- inverse-semigroup suite --------------------------------------------------------


def suite_inverse(s: NumericalSemigroup, seed: int = 0, n_words: int = 1000,
                  max_len: int = 8) -> list[dict]:
    rng = _rng("inverse", s, seed)
    window = 2 * (s.frobenius + max_len * max(s.generators)) + 2

    inverse_ok = index_ok = action_ok = canonical_ok = True
    for _ in range(n_words):
        w = random_word(rng, s, max_len)
        v = evaluate_word(s, w)
        vs = v.adjoint()
        inverse_ok &= compose(compose(v, vs), v) == v
        inverse_ok &= compose(compose(vs, v), vs) == vs
        u = evaluate_word(s, random_word(rng, s, max_len))
        index_ok &= compose(v, u).index == v.index + u.index
        d = s.element_at(rng.randrange(20))
        via_u = u.apply(d)
        expect = v.apply(via_u) if via_u is not None else None
        action_ok &= compose(v, u).apply(d) == expect
        action_ok &= all(v.apply(d2) == word_action(s, w, d2)
                         for d2 in s.members_upto(window))
        canonical_ok &= (evaluate_word(s, w) == v)

    reports = [
        _report("each monomial has its adjoint as inverse",
                {"semigroup": str(s), "words": n_words, "max_len": max_len, "seed": seed},
                {"all_pass": inverse_ok}, True, 0, inverse_ok),
        _report("indices add under composition",
                {"semigroup": str(s), "words": n_words, "seed": seed},
                {"all_pass": index_ok}, True, 0, index_ok),
        _report("normal forms reproduce the letter-by-letter basis action",
                {"semigroup": str(s), "window": window, "seed": seed},
                {"all_pass": action_ok and canonical_ok}, True, 0,
                action_ok and canonical_ok),
    ]

    idem_ok = True
    projections = []
    for _ in range(200):
        w = random_word(rng, s, max_len)
        v = evaluate_word(s, w)
        p = compose(v.adjoint(), v)
        projections.append(p)
        idem_ok &= (p.index == 0 and compose(p, p) == p)
    for _ in range(200):
        p = projections[rng.randrange(len(projections))]
        q = projections[rng.randrange(len(projections))]
        pq = compose(p, q)
        idem_ok &= (pq == compose(q, p))
        idem_ok &= pq.domain == p.domain.intersect(q.domain)
    reports.append(_report("zero-index elements are commuting idempotents",
                           {"semigroup": str(s), "samples": 200, "seed": seed},
                           {"all_pass": idem_ok}, True, 0, idem_ok))

    stab_ok = True
    for _ in range(100):
        v = evaluate_word(s, random_word(rng, s, max_len))
        target = max_translation(s, v.index)
        n = v.domain.threshold
        e = s.first_member_at_least(n)
        for _ in range(5):
            conj = compose(elementary(s, e, True), compose(v, elementary(s, e, False)))
            stab_ok &= (conj == target)
            e = s.first_member_at_least(e + 1)
    reports.append(_report("shift conjugation stabilizes to the widest translation "
                           "from the domain threshold on",
                           {"semigroup": str(s), "samples": 100, "seed": seed},
                           {"all_pass": stab_ok}, True, 0, stab_ok))
    return reports


# -- grading suite --------------------------------------------------------------------


def suite_grading(s: NumericalSemigroup, seed: int = 0, n_elements: int = 500) -> list[dict]:
    rng = _rng("grading", s, seed)
    corpus = [random_operator(rng, s) for _ in range(n_elements)]

    sum_ok = all(sum((a.grade(c) for c in a.indices()), OperatorElement.zero(s)) == a
                 for a in corpus)
    product_ok = True
    for _ in range(120):
        a = corpus[rng.randrange(len(corpus))]
        b = corpus[rng.randrange(len(corpus))]
        ab = a * b
        for c in ab.indices():
            acc = OperatorElement.zero(s)
            for ca in a.indices():
                acc = acc + a.grade(ca) * b.grade(c - ca)
            product_ok &= (acc == ab.grade(c))

    expect_ok = True
    for a in corpus[:120]:
        e = a.expectation()
        expect_ok &= (e.expectation() == e)
        expect_ok &= (e.indices() in ((), (0,)))
    for _ in range(60):
        a = corpus[rng.randrange(len(corpus))]
        x = corpus[rng.randrange(len(corpus))].expectation()
        y = corpus[rng.randrange(len(corpus))].expectation()
        expect_ok &= ((x * a * y).expectation() == x * a.expectation() * y)

    window = 2 * (s.frobenius + 20)
    faithful_ok = True
    for a in corpus[:120]:
        empty = all(not a.apply(d) for d in s.members_upto(window))
        faithful_ok &= (empty == a.is_zero)
        faithful_ok &= ((a - a).is_zero and all(not (a - a).apply(d)
                                                for d in s.members_upto(10)))

    return [
        _report("every element is the sum of its graded components",
                {"semigroup": str(s), "elements": n_elements, "seed": seed},
                {"all_pass": sum_ok}, True, 0, sum_ok),
        _report("grading is multiplicative: products convolve the indices",
                {"semigroup": str(s), "pairs": 120, "seed": seed},
                {"all_pass": product_ok}, True, 0, product_ok),
        _report("zero-grade projection is an idempotent bimodule map",
                {"semigroup": str(s), "seed": seed},
                {"all_pass": expect_ok}, True, 0, expect_ok),
        _report("weight form is faithful: empty action on a window means zero",
                {"semigroup": str(s), "window": window, "seed": seed},
                {"all_pass": faithful_ok}, True, 0, faithful_ok),
    ]


# -- symbol suite ------------------------------------------------------------------------


def suite_symbol(s: NumericalSemigroup, seed: int = 0, n_pairs: int = 500) -> list[dict]:
    rng = _rng("symbol", s, seed)

    mult_ok = True
    for _ in range(n_pairs):
        a = random_operator(rng, s, max_terms=3, max_word_len=5)
        b = random_operator(rng, s, max_terms=3, max_word_len=5)
        mult_ok &= ((a * b).symbol() == a.symbol() * b.symbol())
        mult_ok &= (a.adjoint().symbol() == a.symbol().conjugate_reflect())

    split_ok = True
    for _ in range(n_pairs):
        a = random_operator(rng, s, max_terms=4, max_word_len=5)
        f, k = a.split()
        split_ok &= (toeplitz_lift(f, s) + k == a)
        split_ok &= k.in_ideal()
    lift_ok = True
    for _ in range(40):
        f = LaurentPolynomial({rng.randrange(-5, 6): rng.choice(_COEFF_POOL)
                               for _ in range(rng.randint(1, 4))})
        lift_ok &= (toeplitz_lift(f, s).symbol() == f)
        ff, kk = toeplitz_lift(f, s).split()
        lift_ok &= (ff == f and kk.is_zero)

    comm_ok = True
    gens = s.generators
    for a in gens:
        for b in gens:
            for sa in (False, True):
                for sb in (False, True):
                    comm_ok &= generator_commutator(s, a, b, sa, sb).in_ideal()

    stab_ok = True
    for _ in range(80):
        a = random_operator(rng, s)
        lifted = toeplitz_lift(a.symbol(), s)
        e = s.first_member_at_least(a.stabilization_threshold())
        for _ in range(3):
            stab_ok &= (a.conjugate(e) == lifted)
            e = s.first_member_at_least(e + 1)

    return [
        _report("the symbol is a star-homomorphism onto the circle functions",
                {"semigroup": str(s), "pairs": n_pairs, "seed": seed},
                {"all_pass": mult_ok}, True, 0, mult_ok),
        _report("splitting is exact: lift plus ideal part reassembles the element",
                {"semigroup": str(s), "elements": n_pairs, "seed": seed},
                {"all_pass": split_ok and lift_ok}, True, 0, split_ok and lift_ok),
        _report("generator commutators land in the kernel of the symbol",
                {"semigroup": str(s)}, {"all_pass": comm_ok}, True, 0, comm_ok),
        _report("shift conjugation stabilizes to the lifted symbol",
                {"semigroup": str(s), "elements": 80, "seed": seed},
                {"all_pass": stab_ok}, True, 0, stab_ok),
    ]


# -- weak Hopf suite --------------------------------------------------------------------------


def suite_weakhopf(s: NumericalSemigroup, seed: int = 0, n_elements: int = 500) -> list[dict]:
    rng = _rng("weakhopf", s, seed)
    corpus = [random_free_element(rng, s) for _ in range(n_elements)]

    axioms_ok = all(weak_hopf_check(x).passed for x in corpus)

    algebra_map_ok = True
    for _ in range(n_elements):
        x = corpus[rng.randrange(len(corpus))]
        y = corpus[rng.randrange(len(corpus))]
        algebra_map_ok &= (coproduct(x * y) ==
                           quantum.tensor_multiply(coproduct(x), coproduct(y)))

    antipode_ok = all(weak_antipode(weak_antipode(x)) == x for x in corpus[:200])
    one = FreeElement.identity(s)
    antipode_ok &= (weak_antipode(one) == one)

    return [
        _report("both weak antipode axioms hold on the free algebra",
                {"semigroup": str(s), "elements": n_elements, "seed": seed},
                {"all_pass": axioms_ok}, True, 0, axioms_ok),
        _report("the coproduct is an algebra map",
                {"semigroup": str(s), "pairs": n_elements, "seed": seed},
                {"all_pass": algebra_map_ok}, True, 0, algebra_map_ok),
        _report("the weak antipode is a linear involution fixing the identity",
                {"semigroup": str(s), "seed": seed},
                {"all_pass": antipode_ok}, True, 0, antipode_ok),
    ]


# -- coideal suite -----------------------------------------------------------------------------


def suite_coideal(s: NumericalSemigroup, max_total_len: int = 4) -> list[dict]:
    import itertools as it

    seen = set()
    checked = 0
    ok = True
    letters = quantum.letters_of(s)
    for l1 in range(1, max_total_len):
        for l2 in range(1, max_total_len - l1 + 1):
            for w1 in it.product(letters, repeat=l1):
                v = evaluate_word(s, w1)
                for w2 in it.product(letters, repeat=l2):
                    u = evaluate_word(s, w2)
                    if (v, u) in seen:
                        continue
                    seen.add((v, u))
                    _s1, _s2, good = quantum.coideal_decomposition(v, u)
                    ok &= good
                    checked += 1
    return [_report("commutator coproducts split into the two ideal-sided summands",
                    {"semigroup": str(s), "max_total_word_len": max_total_len},
                    {"pairs_checked": checked, "all_pass": ok}, True, 0, ok)]


# -- descent suite -----------------------------------------------------------------------------


def suite_descent(s: NumericalSemigroup, seed: int = 0, window: Optional[int] = None,
                  max_len: int = 6, corner_span: int = 4) -> list[dict]:
    rng = _rng("descent", s, seed)
    monos = sorted(distinct_monomials(s, max_len), key=_pt_sort_key)
    kernel = monomial_kernel(monos)
    if window is None:
        # wide enough to reach past every domain threshold at this word length
        window = max([10] + [v.domain.threshold + 2 for v in monos])
    reports = []

    diag_ok = True
    probes = [random_free_element(rng, s, max_terms=4, max_word_len=4)
              for _ in range(60)]
    for x in probes:
        op = rep(x)
        t = coproduct(x)
        for a in s.members_upto(window):
            diag = {k: v for k, v in t.apply((a, a)).items()}
            expect = {(m, m): c for m, c in op.apply(a).items()}
            diag_ok &= (diag == expect)
    reports.append(_report("diagonal pairs reproduce the operator action exactly",
                           {"semigroup": str(s), "probes": len(probes),
                            "window": window, "seed": seed},
                           {"all_pass": diag_ok}, True, 0, diag_ok))

    corner_zero_ok = all(corner_diagram_check(x, 0, window).passed for x in probes)
    reports.append(_report("the zero difference class always compresses consistently",
                           {"semigroup": str(s), "probes": len(probes)},
                           {"all_pass": corner_zero_ok}, True, 0, corner_zero_ok))

    if s.is_totally_ordered():
        inj_ok = not kernel
        reports.append(_report("short-word monomials are linearly independent "
                               "as operators",
                               {"semigroup": str(s), "max_word_len": max_len,
                                "distinct_monomials": len(monos)},
                               {"kernel_dimension": len(kernel)},
                               {"kernel_dimension": 0}, 0, inj_ok))
        corner_ok = True
        for v in monos:
            x = FreeElement.monomial(v)
            for a in range(-corner_span, corner_span + 1):
                corner_ok &= corner_diagram_check(x, a, window).passed
        reports.append(_report("corner compression commutes for every short "
                               "monomial and small class",
                               {"semigroup": str(s), "classes": corner_span,
                                "monomials": len(monos)},
                               {"all_pass": corner_ok}, True, 0, corner_ok))
    else:
        dep_ok = len(kernel) > 0
        witnesses = []
        witness_ok = True
        for vec in kernel:
            x = FreeElement(s, {monos[i]: c for i, c in enumerate(vec)})
            if not rep(x).is_zero:
                witness_ok = False
                continue
            found = descent_witness(x, window)
            witness_ok &= (found is not None)
            if found is not None:
                (c, d), vals = found
                witness_ok &= (c != d)
                witnesses.append([c, d])
        reports.append(_report("operator-level dependences exist and each has an "
                               "off-diagonal tensor witness",
                               {"semigroup": str(s), "max_word_len": max_len,
                                "window": window},
                               {"kernel_dimension": len(kernel),
                                "witnesses": witnesses},
                               {"kernel_nonzero": True, "every_vector_witnessed": True},
                               0, dep_ok and witness_ok))
    return reports


# -- haar / convolution suite ----------------------------------------------------------------------


def suite_haar(s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    rng = _rng("haar", s, seed)
    corpus = [random_free_element(rng, s, max_terms=4, max_word_len=5)
              for _ in range(120)]
    h = fns.haar()

    def random_functional() -> fns.Functional:
        kind = rng.randrange(3)
        if kind == 0:
            return fns.MatrixCoeff(s.element_at(rng.randrange(8)),
                                   s.element_at(rng.randrange(8)))
        if kind == 1:
            return fns.point_mass(Fraction(rng.randrange(-6, 7), rng.randrange(1, 9)))
        return fns.lin_combo([(rng.choice(_COEFF_POOL),
                               fns.MatrixCoeff(s.element_at(rng.randrange(4)),
                                               s.element_at(rng.randrange(4))))])

    absorb_ok = all(fns.haar_property_check(random_functional(),
                                            corpus[rng.randrange(len(corpus))])
                    for _ in range(300))

    assoc_ok = comm_ok = True
    for _ in range(200):
        xi, eta, zeta = (random_functional() for _ in range(3))
        x = corpus[rng.randrange(len(corpus))]
        left = fns.evaluate(fns.convolve(fns.convolve(xi, eta), zeta), x)
        right = fns.evaluate(fns.convolve(xi, fns.convolve(eta, zeta)), x)
        assoc_ok &= fns._scalars_close(left, right, 1e-12)
        ab = fns.evaluate(fns.convolve(xi, eta), x)
        ba = fns.evaluate(fns.convolve(eta, xi), x)
        comm_ok &= fns._scalars_close(ab, ba, 1e-12)

    ideal_ok = True
    gens = s.generators
    ideal_elements = []
    for a in gens:
        for b in gens:
            u = FreeElement.monomial(elementary(s, a, False))
            w = FreeElement.monomial(elementary(s, b, True))
            ideal_elements.append(u * w - w * u)
    # T_a T_a* has a proper domain, so I - T_a T_a* is a nonzero ideal element.
    one = FreeElement.identity(s)
    ta = elementary(s, gens[0], False)
    p_rank_one = one - FreeElement.monomial(compose(ta, ta.adjoint()))
    ideal_elements.append(p_rank_one)
    for x in ideal_elements:
        if rep(x).in_ideal():
            for _ in range(4):
                pm = fns.point_mass(Fraction(rng.randrange(-6, 7), rng.randrange(1, 9)))
                val = fns.evaluate(pm, x)
                ideal_ok &= abs(val) <= 1e-10
    haar_sees_ideal = fns.evaluate(h, p_rank_one) == ONE
    ideal_ok &= haar_sees_ideal

    factor_ok = True
    for x in corpus:
        direct = fns.evaluate(h, x)
        via_rep = rep(x).weight_at(0).value(0)
        factor_ok &= (direct == via_rep)

    measure_ok = all(
        fns.measure_convolution_check(Fraction(rng.randrange(-8, 9), rng.randrange(1, 11)),
                                      Fraction(rng.randrange(-8, 9), rng.randrange(1, 11)),
                                      corpus[rng.randrange(len(corpus))])
        for _ in range(120))

    pull_ok = True
    for _ in range(80):
        x = corpus[rng.randrange(len(corpus))]
        e = s.element_at(rng.randrange(6))
        pm = fns.point_mass(Fraction(rng.randrange(-6, 7), rng.randrange(1, 9)))
        pulled = fns.phi_star(pm, s, e)
        pull_ok &= fns._scalars_close(fns.evaluate(pulled, x), fns.evaluate(pm, x), 1e-10)

    return [
        _report("the basis state at zero absorbs under convolution, both orders",
                {"semigroup": str(s), "samples": 300, "seed": seed},
                {"all_pass": absorb_ok}, True, 0, absorb_ok),
        _report("convolution is associative and commutative on the corpus",
                {"semigroup": str(s), "triples": 200, "seed": seed},
                {"associative": assoc_ok, "commutative": comm_ok}, True, 1e-12,
                assoc_ok and comm_ok),
        _report("point masses annihilate the ideal; the absorbing state does not",
                {"semigroup": str(s), "seed": seed},
                {"all_pass": ideal_ok}, True, 1e-10, ideal_ok),
        _report("the absorbing state factors through the operator weight at zero",
                {"semigroup": str(s), "elements": len(corpus)},
                {"all_pass": factor_ok}, True, 0, factor_ok),
        _report("point-mass convolution adds angles",
                {"semigroup": str(s), "samples": 120, "seed": seed},
                {"all_pass": measure_ok}, True, 1e-10, measure_ok),
        _report("shift pullback fixes ideal-annihilating functionals",
                {"semigroup": str(s), "samples": 80, "seed": seed},
                {"all_pass": pull_ok}, True, 1e-10, pull_ok),
    ]


# -- fourier / gauge suite ----------------------------------------------------------------------


def suite_fourier(s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    rng = _rng("fourier", s, seed)
    corpus = [random_operator(rng, s, max_terms=4, max_word_len=5) for _ in range(25)]

    recover_ok = True
    for a in corpus:
        span = max((abs(c) for c in a.indices()), default=0)
        samples = 2 * span + 8
        for c in list(a.indices()) + [span + 1]:
            projected = fourier_project(a, c, samples)
            recover_ok &= projected.deviation_from(a.grade(c)) <= 1e-9

    action_ok = True
    for a in corpus[:10]:
        t1 = rng.uniform(0, 6.28)
        t2 = rng.uniform(0, 6.28)
        once = gauge_twist(a, t1 + t2)
        twice = gauge_twist(gauge_twist(a, t1), t2)
        action_ok &= twice.deviation_from(once) <= 1e-12
        action_ok &= gauge_twist(a, 0.0).deviation_from(a) <= 1e-15

    fixed_ok = True
    for a in corpus[:10]:
        z = a.expectation()
        fixed_ok &= gauge_twist(z, rng.uniform(0, 6.28)).deviation_from(z) <= 1e-12

    mult_ok = True
    for _ in range(10):
        a = corpus[rng.randrange(len(corpus))]
        b = corpus[rng.randrange(len(corpus))]
        theta = rng.uniform(0, 6.28)
        lhs = gauge_twist(a * b, theta)
        rhs = gauge_twist(a, theta) * gauge_twist(b, theta)
        mult_ok &= lhs.deviation_from(rhs) <= 1e-9
        twisted_adjoint = gauge_twist(a.adjoint(), theta)
        adjoint_of_twisted = gauge_twist(a, theta).adjoint()
        mult_ok &= twisted_adjoint.deviation_from(adjoint_of_twisted) <= 1e-9

    return [
        _report("character averaging of gauge twists recovers each grade",
                {"semigroup": str(s), "elements": len(corpus), "seed": seed},
                {"all_pass": recover_ok}, True, 1e-9, recover_ok),
        _report("the gauge action is a circle action",
                {"semigroup": str(s), "seed": seed},
                {"all_pass": action_ok}, True, 1e-12, action_ok),
        _report("zero-index elements are gauge-fixed",
                {"semigroup": str(s), "seed": seed},
                {"all_pass": fixed_ok}, True, 1e-12, fixed_ok),
        _report("gauge twisting is multiplicative",
                {"semigroup": str(s), "seed": seed},
                {"all_pass": mult_ok}, True, 1e-9, mult_ok),
    ]


# -- norm suite ----------------------------------------------------------------------------------


def default_norm_symbols() -> list[LaurentPolynomial]:
    L = LaurentPolynomial
    half = GaussianRational(Fraction(1, 2))
    return [
        L({1: ONE, -1: ONE}),
        L({0: ONE}),
        L({2: ONE, -3: ONE}),
        L({0: GaussianRational(2), 1: ONE}),
        L({1: ONE, 2: ONE, 3: ONE}),
        L({-1: ONE, 1: I_UNIT}),
        L({-2: half, 5: ONE}),
        L({0: ONE, 3: ONE, -3: ONE}),
        L({0: GaussianRational(3)}),
        L({1: ONE, -1: GaussianRational(-1)}),
    ]


def suite_norms(s: NumericalSemigroup, dims: Sequence[int] = (64, 128, 256, 512),
                band: float = 0.05) -> list[dict]:
    reports = []
    for f in default_norm_symbols():
        reports.append(norm_convergence(f, s, dims=dims, band=band))

    ident = operator_norm(truncate(OperatorElement.identity(s), 32))
    shift = operator_norm(truncate(from_monomial(elementary(s, s.generators[0], False)), 32))
    spot_ok = abs(ident - 1.0) <= 1e-12 and abs(shift - 1.0) <= 1e-12
    computed = {"identity": ident, "generating_shift": shift}
    if s.is_totally_ordered():
        import math
        n = 64
        tri = operator_norm(truncate(toeplitz_lift(LaurentPolynomial({1: ONE, -1: ONE}), s), n))
        expected_tri = 2.0 * math.cos(math.pi / (n + 1))
        computed["tridiagonal_64"] = tri
        computed["tridiagonal_closed_form"] = expected_tri
        spot_ok &= abs(tri - expected_tri) <= 1e-12
    reports.append(_report("spot norms: identity, generating shift, tridiagonal form",
                           {"semigroup": str(s)}, computed, {"norm": 1.0}, 1e-12, spot_ok))
    return reports


def suite_shift37(_s: Optional[NumericalSemigroup] = None) -> list[dict]:
    # The regression is specific to the two-generator semigroup 2,3.
    return [shift_example_check()]


# -- morphism runner --------------------------------------------------------------------------------


def morphism_report(s1: NumericalSemigroup, s2: NumericalSemigroup,
                    multiplier: Optional[int], max_len: int) -> dict:
    """Falsifier run for one multiplier, or a scan over 0..6 when absent."""
    from .semigroup import morphism_multipliers
    if multiplier is not None:
        multipliers = [multiplier]
    else:
        multipliers = morphism_multipliers(s1, s2, 6)
    results = []
    any_witness = False
    for m in multipliers:
        witness = quantum_morphism_falsify(s1, s2, m, max_len)
        entry = {"multiplier": m, "trivial": m == 0,
                 "consistent_up_to": None if witness else max_len,
                 "witness": witness.to_json_dict() if witness else None}
        any_witness |= witness is not None
        results.append(entry)
    return {"source": list(s1.generators), "target": list(s2.generators),
            "max_word_len": max_len, "results": results,
            "witness_found": any_witness}


# -- dispatch -----------------------------------------------------------------------------------------


def run_suite(name: str, s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    if name == "order":
        return suite_order(s, seed)
    if name == "inverse":
        return suite_inverse(s, seed)
    if name == "grading":
        return suite_grading(s, seed)
    if name == "symbol":
        return suite_symbol(s, seed)
    if name == "weakhopf":
        return suite_weakhopf(s, seed)
    if name == "haar":
        return suite_haar(s, seed)
    if name == "coideal":
        return suite_coideal(s)
    if name == "descent":
        return suite_descent(s, seed)
    if name == "fourier":
        return suite_fourier(s, seed)
    if name == "norms":
        return suite_norms(s)
    if name == "shift37":
        return suite_shift37(s)
    if name == "all":
        out = []
        for n in SUITE_NAMES:
            out.extend(run_suite(n, s, seed))
        return out
    raise ValueError(f"unknown suite {name!r}")
