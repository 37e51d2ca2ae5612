"""Named verification suites producing deterministic JSON-able reports.

Each suite returns a list of reports {claim, parameters, computed, expected,
tolerance, pass}.  The CLI exposes them by name; the acceptance tests call
the same functions.  All randomness is seeded and reported.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .scalars import GaussianRational, I_UNIT, ONE
from .semigroup import (NumericalSemigroup, automorphism_multipliers,
                        morphism_multipliers)
from .translations import (Word, compose, elementary, evaluate_word,
                           max_translation, word_action_mask)
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
_UNSEEDED = ("coideal", "norms", "shift37")


def _report(claim: str, parameters: dict, computed, expected, tolerance, passed: bool) -> dict:
    return {"claim": claim, "parameters": parameters, "computed": computed,
            "expected": expected, "tolerance": tolerance, "pass": bool(passed)}


def _render(case):
    """A case as JSON, for a counterexample.

    A word becomes an expression that `sg eval --expr` reads back to the same
    monomial, and a functional one that `sg convolve --functional` reads back
    where the grammar can spell it; an algebra object, its JSON form; a number
    stays a number, a tuple becomes a list, and anything else becomes its
    string.
    """
    if isinstance(case, tuple) and case and all(
            type(letter) is tuple and len(letter) == 2 and type(letter[1]) is bool
            for letter in case):
        return "*".join(f"T*({a})" if starred else f"T({a})" for a, starred in case)
    if isinstance(case, (tuple, list)):
        return [_render(x) for x in case]
    if isinstance(case, (int, float)):
        return case
    for method in ("to_json_dict", "to_json_list"):
        if hasattr(case, method):
            return getattr(case, method)()
    return _spell(case) or str(case)


def _spell(xi) -> Optional[str]:
    """A functional in the `--functional` grammar; None for shift pullbacks,
    weighted point masses and anything that is not a functional."""
    if isinstance(xi, fns.MatrixCoeff):
        return f"w[{xi.a},{xi.b}]"
    if isinstance(xi, fns.SymbolPointMass):
        return f"pm({xi.turns})" if xi.weight == 1 else None
    if isinstance(xi, fns.Convolution):
        left, right = _spell(xi.left), _spell(xi.right)
        return f"conv({left},{right})" if left and right else None
    if isinstance(xi, fns.LinCombo):
        terms = [(c, _spell(f)) for c, f in xi.terms]
        if terms and all(f for _c, f in terms):
            # A coefficient is spelled re+im i in full: the grammar has no bare i.
            return "lin(" + " + ".join(
                f"{c.re}{'-' if c.im < 0 else '+'}{abs(c.im)}i*{f}" if c.im else f"{c.re}*{f}"
                for c, f in terms) + ")"
    return None


def _first_failures(*parts) -> list[Optional[dict]]:
    """The first failing case of each claim, found in one pass over its cases.

    Each part is (cases, holds_1, ..., holds_k), with the same k in every
    part: holds_j decides claim j on each case of the part, and a tuple case
    is spread over its parameters.  A failure is {"case": i, "value": ...},
    with i counted from 0 across the parts.  A claim is not checked again
    after its first failure, but every lazy stream is still drawn to its end,
    so that later seeded draws do not depend on the failure.
    """
    failures: list[Optional[dict]] = [None] * (len(parts[0]) - 1)
    i = 0
    for cases, *predicates in parts:
        for case in cases:
            args = case if type(case) is tuple else (case,)
            for j, holds in enumerate(predicates):
                if failures[j] is None and not holds(*args):
                    failures[j] = {"case": i, "value": _render(case)}
            i += 1
    return failures


def _verdict(claim: str, parameters: dict, failure: Optional[dict], tolerance=0,
             computed: Optional[dict] = None) -> dict:
    """A report that passes when there is no failure; a failure is its counterexample."""
    computed = {"all_pass": failure is None} if computed is None else computed
    if failure is not None:
        computed["counterexample"] = failure
    return _report(claim, parameters, computed, True, tolerance, failure is None)


def _forall(claim: str, parameters: dict, *parts, tolerance=0) -> dict:
    """Report on one claim over its parts (cases, holds), as in _first_failures."""
    (failure,) = _first_failures(*parts)
    return _verdict(claim, parameters, failure, tolerance)


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
    return FreeElement.collect(s, ((evaluate_word(s, random_word(rng, s, max_word_len)),
                                    rng.choice(_COEFF_POOL))
                                   for _ in range(rng.randint(1, max_terms))))


def random_operator(rng: random.Random, s: NumericalSemigroup,
                    max_terms: int = 5, max_word_len: int = 6) -> OperatorElement:
    return rep(random_free_element(rng, s, max_terms, max_word_len))


def _draws(rng: random.Random, items: Sequence, count: int, per_case: int = 2):
    """count cases of per_case items drawn from a sequence with replacement."""
    for _ in range(count):
        yield tuple(items[rng.randrange(len(items))] for _ in range(per_case))


# -- order suite -----------------------------------------------------------------


def suite_order(s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    rng = _rng("order", s, seed)
    n_pairs = 300
    sums = ((s.element_at(rng.randrange(40)), s.element_at(rng.randrange(40)))
            for _ in range(n_pairs))
    (closure,) = _first_failures((sums, lambda a, b: s.contains(a + b)))
    reports = [_verdict("membership is closed under addition",
                        {"semigroup": str(s), "pairs": n_pairs, "seed": seed}, closure,
                        computed={"all_sums_members": closure is None})]

    members = s.members_upto(s.frobenius + 2 * max(s.generators) + 2)
    reflexive = all(s.natural_below(a, a) for a in members)
    # For a != b one of b - a and a - b is negative, so two members of the
    # window precede each other only if S held -k for some 0 < k <= window.
    antisym = not any(s.contains(-k) for k in range(1, members[-1] + 1))
    transitive = True
    for a, b, c in _draws(rng, members, 300, 3):
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
    points = ((2 << window) - 1) & ~s.gapmask  # the members up to the window

    def word_pairs():
        for _ in range(n_words):
            w = random_word(rng, s, max_len)
            w2 = random_word(rng, s, max_len)
            yield w, evaluate_word(s, w), w2, evaluate_word(s, w2), s.element_at(rng.randrange(20))

    def inverse(_w, v, _w2, _u, _d):
        vs = v.adjoint()
        return compose(compose(v, vs), v) == v and compose(compose(vs, v), vs) == vs

    def action(w, v, _w2, u, d):
        via_u = u.apply(d)
        expect = v.apply(via_u) if via_u is not None else None
        return (compose(v, u).apply(d) == expect
                and word_action_mask(s, w, points) == (points & ~v.domain.mask, v.index))

    inverse_fail, index_fail, action_fail = _first_failures(
        (word_pairs(), inverse,
         lambda _w, v, _w2, u, _d: compose(v, u).index == v.index + u.index, action))

    projections = []

    def idempotents():
        for _ in range(200):
            w = random_word(rng, s, max_len)
            v = evaluate_word(s, w)
            projections.append(compose(v.adjoint(), v))
            yield w, projections[-1]

    def commuting(p, q):
        pq = compose(p, q)
        return pq == compose(q, p) and pq.domain == p.domain.intersect(q.domain)

    def conjugations():
        for _ in range(100):
            w = random_word(rng, s, max_len)
            v = evaluate_word(s, w)
            target = max_translation(s, v.index)
            e = s.first_member_at_least(v.domain.threshold)
            for _ in range(5):
                yield w, v, e, target
                e = s.first_member_at_least(e + 1)

    return [
        _verdict("each monomial has its adjoint as inverse",
                 {"semigroup": str(s), "words": n_words, "max_len": max_len, "seed": seed},
                 inverse_fail),
        _verdict("indices add under composition",
                 {"semigroup": str(s), "words": n_words, "seed": seed}, index_fail),
        _verdict("normal forms reproduce the letter-by-letter basis action",
                 {"semigroup": str(s), "window": window, "seed": seed}, action_fail),
        _forall("zero-index elements are commuting idempotents",
                {"semigroup": str(s), "samples": 200, "seed": seed},
                (idempotents(), lambda _w, p: p.index == 0 and compose(p, p) == p),
                (_draws(rng, projections, 200), commuting)),
        _forall("shift conjugation stabilizes to the widest translation "
                "from the domain threshold on",
                {"semigroup": str(s), "samples": 100, "seed": seed},
                (conjugations(), lambda _w, v, e, target: compose(
                    elementary(s, e, True), compose(v, elementary(s, e, False))) == target)),
    ]


# -- grading suite --------------------------------------------------------------------


def suite_grading(s: NumericalSemigroup, seed: int = 0, n_elements: int = 500) -> list[dict]:
    rng = _rng("grading", s, seed)
    corpus = [random_operator(rng, s) for _ in range(n_elements)]
    zero = OperatorElement.zero(s)

    def convolves(a, b):
        ab = a * b
        return all(sum((a.grade(ca) * b.grade(c - ca) for ca in a.indices()), zero)
                   == ab.grade(c) for c in ab.indices())

    def projects(a):
        e = a.expectation()
        return e.expectation() == e and e.indices() in ((), (0,))

    window = 2 * (s.frobenius + 20)
    members, small = s.members_upto(window), s.members_upto(10)

    def faithful(a):
        difference = a - a
        return ((all(not a.apply(d) for d in members) == a.is_zero)
                and difference.is_zero and all(not difference.apply(d) for d in small))

    return [
        _forall("every element is the sum of its graded components",
                {"semigroup": str(s), "elements": n_elements, "seed": seed},
                (corpus, lambda a: sum((a.grade(c) for c in a.indices()), zero) == a)),
        _forall("grading is multiplicative: products convolve the indices",
                {"semigroup": str(s), "pairs": 120, "seed": seed},
                (_draws(rng, corpus, 120), convolves)),
        _forall("zero-grade projection is an idempotent bimodule map",
                {"semigroup": str(s), "seed": seed},
                (corpus[:120], projects),
                (((a, x.expectation(), y.expectation())
                  for a, x, y in _draws(rng, corpus, 60, 3)),
                 lambda a, x, y: (x * a * y).expectation() == x * a.expectation() * y)),
        _forall("weight form is faithful: empty action on a window means zero",
                {"semigroup": str(s), "window": window, "seed": seed},
                (corpus[:120], faithful)),
    ]


# -- symbol suite ------------------------------------------------------------------------


def suite_symbol(s: NumericalSemigroup, seed: int = 0, n_pairs: int = 500) -> list[dict]:
    rng = _rng("symbol", s, seed)

    def multiplicative(a, b):
        return ((a * b).symbol() == a.symbol() * b.symbol()
                and a.adjoint().symbol() == a.symbol().conjugate_reflect())

    def splits(a):
        f, k = a.split()
        return toeplitz_lift(f, s) + k == a and k.in_ideal()

    def lifts(f):
        lift = toeplitz_lift(f, s)
        ff, kk = lift.split()
        return lift.symbol() == f and ff == f and kk.is_zero

    def conjugations():
        for _ in range(80):
            a = random_operator(rng, s)
            lifted = toeplitz_lift(a.symbol(), s)
            e = s.first_member_at_least(a.stabilization_threshold())
            for _ in range(3):
                yield a, e, lifted
                e = s.first_member_at_least(e + 1)

    return [
        _forall("the symbol is a star-homomorphism onto the circle functions",
                {"semigroup": str(s), "pairs": n_pairs, "seed": seed},
                (((random_operator(rng, s, max_terms=3, max_word_len=5),
                   random_operator(rng, s, max_terms=3, max_word_len=5))
                  for _ in range(n_pairs)), multiplicative)),
        _forall("splitting is exact: lift plus ideal part reassembles the element",
                {"semigroup": str(s), "elements": n_pairs, "seed": seed},
                ((random_operator(rng, s, max_terms=4, max_word_len=5)
                  for _ in range(n_pairs)), splits),
                ((LaurentPolynomial({rng.randrange(-5, 6): rng.choice(_COEFF_POOL)
                                     for _ in range(rng.randint(1, 4))})
                  for _ in range(40)), lifts)),
        _forall("generator commutators land in the kernel of the symbol",
                {"semigroup": str(s)},
                (product(s.generators, s.generators, (False, True), (False, True)),
                 lambda a, b, sa, sb: generator_commutator(s, a, b, sa, sb).in_ideal())),
        _forall("shift conjugation stabilizes to the lifted symbol",
                {"semigroup": str(s), "elements": 80, "seed": seed},
                (conjugations(), lambda a, e, lifted: a.conjugate(e) == lifted)),
    ]


# -- weak Hopf suite --------------------------------------------------------------------------


def suite_weakhopf(s: NumericalSemigroup, seed: int = 0, n_elements: int = 500) -> list[dict]:
    rng = _rng("weakhopf", s, seed)
    corpus = [random_free_element(rng, s) for _ in range(n_elements)]
    return [
        _forall("both weak antipode axioms hold on the free algebra",
                {"semigroup": str(s), "elements": n_elements, "seed": seed},
                (corpus, lambda x: weak_hopf_check(x).passed)),
        _forall("the coproduct is an algebra map",
                {"semigroup": str(s), "pairs": n_elements, "seed": seed},
                (_draws(rng, corpus, n_elements), lambda x, y: coproduct(x * y)
                 == quantum.tensor_multiply(coproduct(x), coproduct(y)))),
        _forall("the weak antipode is a linear involution fixing the identity",
                {"semigroup": str(s), "seed": seed},
                (corpus[:200], lambda x: weak_antipode(weak_antipode(x)) == x),
                ([FreeElement.identity(s)], lambda one: weak_antipode(one) == one)),
    ]


# -- coideal suite -----------------------------------------------------------------------------


def suite_coideal(s: NumericalSemigroup, max_total_len: int = 4) -> list[dict]:
    # Each distinct pair of monomials once, with the first words reaching it;
    # a pair is reached when the first words' lengths sum to at most the bound.
    by_len: dict[int, list] = {}
    for v, word in distinct_monomials(s, max_total_len - 1).items():
        by_len.setdefault(len(word), []).append((v, word))
    distinct = {(v, w): (w1, w2)
                for l1 in range(1, max_total_len)
                for l2 in range(1, max_total_len - l1 + 1)
                for v, w1 in by_len.get(l1, ()) for w, w2 in by_len.get(l2, ())}
    (failure,) = _first_failures(
        (distinct.items(), lambda vw, _words: quantum.coideal_decomposition(*vw)[2]))
    return [_verdict("commutator coproducts split into the two ideal-sided summands",
                     {"semigroup": str(s), "max_total_word_len": max_total_len}, failure,
                     computed={"pairs_checked": len(distinct), "all_pass": failure is None})]


# -- descent suite -----------------------------------------------------------------------------


def suite_descent(s: NumericalSemigroup, seed: int = 0, window: Optional[int] = None,
                  max_len: int = 6, corner_span: int = 4) -> list[dict]:
    rng = _rng("descent", s, seed)
    monos = sorted(distinct_monomials(s, max_len), key=_pt_sort_key)
    kernel = list(monomial_kernel(monos))
    if window is None:
        # wide enough to reach past every domain threshold at this word length
        window = max([10] + [v.domain.threshold + 2 for v in monos])
    members = s.members_upto(window)

    def diagonal(x):
        op, t = rep(x), coproduct(x)
        return all(t.apply((a, a)) == {(m, m): c for m, c in op.apply(a).items()}
                   for a in members)

    probes = [random_free_element(rng, s, max_terms=4, max_word_len=4)
              for _ in range(60)]
    reports = [
        _forall("diagonal pairs reproduce the operator action exactly",
                {"semigroup": str(s), "probes": len(probes), "window": window, "seed": seed},
                (probes, diagonal)),
        _forall("the zero difference class always compresses consistently",
                {"semigroup": str(s), "probes": len(probes)},
                (probes, lambda x: corner_diagram_check(x, 0, window).passed)),
    ]

    if s.is_totally_ordered():
        reports.append(_report("short-word monomials are linearly independent "
                               "as operators",
                               {"semigroup": str(s), "max_word_len": max_len,
                                "distinct_monomials": len(monos)},
                               {"kernel_dimension": len(kernel)},
                               {"kernel_dimension": 0}, 0, not kernel))
        classes = ((x, a) for x in map(FreeElement.monomial, monos)
                   for a in range(-corner_span, corner_span + 1))
        reports.append(_forall("corner compression commutes for every short "
                               "monomial and small class",
                               {"semigroup": str(s), "classes": corner_span,
                                "monomials": len(monos)},
                               (classes, lambda x, a: corner_diagram_check(x, a, window).passed)))
    else:
        dependences = (FreeElement(s, {monos[p]: c for p, c in vec}) for vec in kernel)
        found = [descent_witness(x, window) if rep(x).is_zero else None for x in dependences]
        witness_ok = all(f is not None and f[0][0] != f[0][1] for f in found)
        reports.append(_report("operator-level dependences exist and each has an "
                               "off-diagonal tensor witness",
                               {"semigroup": str(s), "max_word_len": max_len,
                                "window": window},
                               {"kernel_dimension": len(kernel),
                                "witnesses": [list(f[0]) for f in found if f is not None]},
                               {"kernel_nonzero": True, "every_vector_witnessed": True},
                               0, len(kernel) > 0 and witness_ok))
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
            return random_point_mass()
        return fns.lin_combo([(rng.choice(_COEFF_POOL),
                               fns.MatrixCoeff(s.element_at(rng.randrange(4)),
                                               s.element_at(rng.randrange(4))))])

    def random_point_mass() -> fns.Functional:
        return fns.point_mass(Fraction(rng.randrange(-6, 7), rng.randrange(1, 9)))

    def random_element() -> FreeElement:
        return corpus[rng.randrange(len(corpus))]

    def close(xi, eta, x, tol):
        return fns._scalars_close(fns.evaluate(xi, x), fns.evaluate(eta, x), tol)

    absorbing = _forall("the basis state at zero absorbs under convolution, both orders",
                        {"semigroup": str(s), "samples": 300, "seed": seed},
                        (((random_functional(), random_element()) for _ in range(300)),
                         fns.haar_property_check))
    triples = ((random_functional(), random_functional(), random_functional(),
                random_element()) for _ in range(200))
    assoc, comm = _first_failures((
        triples,
        lambda xi, eta, zeta, x: close(fns.convolve(fns.convolve(xi, eta), zeta),
                                       fns.convolve(xi, fns.convolve(eta, zeta)), x, 1e-12),
        lambda xi, eta, _zeta, x: close(fns.convolve(xi, eta), fns.convolve(eta, xi),
                                        x, 1e-12)))

    shifts = [FreeElement.monomial(elementary(s, a, False)) for a in s.generators]
    adjoints = [FreeElement.monomial(elementary(s, b, True)) for b in s.generators]
    ideal_elements = [u * w - w * u for u in shifts for w in adjoints]
    # T_a T_a* has a proper domain, so I - T_a T_a* is a nonzero ideal element.
    ta = elementary(s, s.generators[0], False)
    p_rank_one = FreeElement.identity(s) - FreeElement.monomial(compose(ta, ta.adjoint()))
    ideal_elements.append(p_rank_one)
    annihilated = ((x, random_point_mass()) for x in ideal_elements
                   if rep(x).in_ideal() for _ in range(4))

    return [
        absorbing,
        _verdict("convolution is associative and commutative on the corpus",
                 {"semigroup": str(s), "triples": 200, "seed": seed}, assoc or comm, 1e-12,
                 computed={"associative": assoc is None, "commutative": comm is None}),
        _forall("point masses annihilate the ideal; the absorbing state does not",
                {"semigroup": str(s), "seed": seed},
                (annihilated, lambda x, pm: abs(fns.evaluate(pm, x)) <= 1e-10),
                ([p_rank_one], lambda x: fns.evaluate(h, x) == ONE), tolerance=1e-10),
        _forall("the absorbing state factors through the operator weight at zero",
                {"semigroup": str(s), "elements": len(corpus)},
                (corpus, lambda x: fns.evaluate(h, x) == rep(x).weight_at(0).value(0))),
        _forall("point-mass convolution adds angles",
                {"semigroup": str(s), "samples": 120, "seed": seed},
                (((Fraction(rng.randrange(-8, 9), rng.randrange(1, 11)),
                   Fraction(rng.randrange(-8, 9), rng.randrange(1, 11)),
                   random_element()) for _ in range(120)),
                 fns.measure_convolution_check), tolerance=1e-10),
        _forall("shift pullback fixes ideal-annihilating functionals",
                {"semigroup": str(s), "samples": 80, "seed": seed},
                (((random_element(), s.element_at(rng.randrange(6)), random_point_mass())
                  for _ in range(80)),
                 lambda x, e, pm: close(fns.phi_star(pm, s, e), pm, x, 1e-10)),
                tolerance=1e-10),
    ]


# -- fourier / gauge suite ----------------------------------------------------------------------


def suite_fourier(s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    rng = _rng("fourier", s, seed)
    corpus = [random_operator(rng, s, max_terms=4, max_word_len=5) for _ in range(25)]

    spans = ((a, max((abs(c) for c in a.indices()), default=0)) for a in corpus)
    grades = ((a, c, 2 * span + 8) for a, span in spans for c in a.indices() + (span + 1,))

    def circle_action(a, t1, t2):
        return (gauge_twist(gauge_twist(a, t1), t2).deviation_from(gauge_twist(a, t1 + t2))
                <= 1e-12 and gauge_twist(a, 0.0).deviation_from(a) <= 1e-15)

    def multiplicative(a, b, theta):
        return (gauge_twist(a * b, theta).deviation_from(
                    gauge_twist(a, theta) * gauge_twist(b, theta)) <= 1e-9
                and gauge_twist(a.adjoint(), theta).deviation_from(
                    gauge_twist(a, theta).adjoint()) <= 1e-9)

    return [
        _forall("character averaging of gauge twists recovers each grade",
                {"semigroup": str(s), "elements": len(corpus), "seed": seed},
                (grades, lambda a, c, samples: fourier_project(a, c, samples)
                 .deviation_from(a.grade(c)) <= 1e-9), tolerance=1e-9),
        _forall("the gauge action is a circle action",
                {"semigroup": str(s), "seed": seed},
                (((a, rng.uniform(0, 6.28), rng.uniform(0, 6.28)) for a in corpus[:10]),
                 circle_action), tolerance=1e-12),
        _forall("zero-index elements are gauge-fixed",
                {"semigroup": str(s), "seed": seed},
                (((a.expectation(), rng.uniform(0, 6.28)) for a in corpus[:10]),
                 lambda z, theta: gauge_twist(z, theta).deviation_from(z) <= 1e-12),
                tolerance=1e-12),
        _forall("gauge twisting is multiplicative",
                {"semigroup": str(s), "seed": seed},
                (((a, b, rng.uniform(0, 6.28)) for a, b in _draws(rng, corpus, 10)),
                 multiplicative), tolerance=1e-9),
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
    reports = [norm_convergence(f, s, dims=dims, band=band) for f in default_norm_symbols()]

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
    multipliers = ([multiplier] if multiplier is not None
                   else morphism_multipliers(s1, s2, 6))
    results = []
    for m in multipliers:
        witness = quantum_morphism_falsify(s1, s2, m, max_len)
        results.append({"multiplier": m, "trivial": m == 0,
                        "consistent_up_to": None if witness else max_len,
                        "witness": witness.to_json_dict() if witness else None})
    return {"source": list(s1.generators), "target": list(s2.generators),
            "max_word_len": max_len, "results": results,
            "witness_found": any(r["witness"] is not None for r in results)}


# -- dispatch -----------------------------------------------------------------------------------------


def run_suite(name: str, s: NumericalSemigroup, seed: int = 0) -> list[dict]:
    if name == "all":
        return [report for n in SUITE_NAMES for report in run_suite(n, s, seed)]
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    # Looked up by name on each call, so a rebinding of the module attribute
    # (a tracing wrapper, a test's monkeypatch) is the function that runs.
    suite = globals()[f"suite_{name}"]
    return suite(s) if name in _UNSEEDED else suite(s, seed)
