"""The verification suites' reports: fixed keys when passing, a replayable
first counterexample when failing."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from sgalg import checks, cli, quantum
from sgalg import functionals as fns
from sgalg.exprparse import parse_element, parse_functional
from sgalg.operators import OperatorElement
from sgalg.quantum import FreeElement, coproduct
from sgalg.scalars import ONE, GaussianRational
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import PartialTranslation, evaluate_word, word_action

from conftest import pointwise_corner, pointwise_diagonal

S23 = NumericalSemigroup([2, 3])
REPORT_KEYS = {"claim", "parameters", "computed", "expected", "tolerance", "pass"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def failing(reports):
    return [r for r in reports if not r["pass"]]


def word_of(expr: str):
    """Letters of a rendered word such as 'T(3)*T*(2)', in operator order."""
    return tuple((int(a), star == "*") for star, a in re.findall(r"T(\*?)\((\d+)\)", expr))


def scalar_of(text: str) -> GaussianRational:
    re_part, sign, im_part = re.fullmatch(
        r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)?i)?", text).groups()
    imag = Fraction(im_part or 1) if sign else Fraction(0)
    return GaussianRational(Fraction(re_part), -imag if sign == "-" else imag)


def free_element_of(s, items) -> FreeElement:
    """Inverse of FreeElement.to_json_list."""
    terms = {}
    for coeff, pt in items:
        excluded = [m for m in s.members_upto(pt["threshold"] - 1)
                    if m not in pt["members_below"]]
        terms[PartialTranslation(s, pt["index"], excluded)] = scalar_of(coeff)
    return FreeElement(s, terms)


def test_passing_reports_keep_their_keys(capsys):
    code, doc = run_cli(capsys, "check", "--gens", "2,3", "--suite", "all")
    assert code == 0 and doc["pass"]
    for report in doc["reports"]:
        assert set(report) == REPORT_KEYS
        assert report["pass"] is True
        assert "counterexample" not in report["computed"]


def corrupt_word_action(monkeypatch):
    """A whole-window basis-action oracle under which words of four or more
    letters keep no point."""
    real = checks.word_action_mask

    def corrupted(s, word, mask):
        survivors, index = real(s, word, mask)
        return (0 if len(word) >= 4 else survivors), index

    monkeypatch.setattr(checks, "word_action_mask", corrupted)


def test_inverse_counterexample_replays(monkeypatch):
    corrupt_word_action(monkeypatch)
    reports = checks.suite_inverse(S23)
    (report,) = failing(reports)
    assert report["claim"] == "normal forms reproduce the letter-by-letter basis action"
    computed = report["computed"]
    assert set(computed) == {"all_pass", "counterexample"} and not computed["all_pass"]
    counterexample = computed["counterexample"]
    assert set(counterexample) == {"case", "value"}
    expr, monomial_json = counterexample["value"][:2]

    # The rendered word reads back to the same monomial.
    (v,) = parse_element(expr, S23).terms
    assert v.to_json_dict() == monomial_json
    word = word_of(expr)
    members = S23.members_upto(report["parameters"]["window"])

    def corrupted(d):
        return None if len(word) >= 4 else word_action(S23, word, d)

    assert any(v.apply(d) != corrupted(d) for d in members)
    assert all(v.apply(d) == word_action(S23, word, d) for d in members)


def test_weakhopf_counterexample_replays(monkeypatch):
    real = quantum.tensor_multiply

    def corrupted(s, t):
        product = real(s, t)
        return product if len(product.terms) < 6 else type(product)(product.semigroup, {})

    monkeypatch.setattr(quantum, "tensor_multiply", corrupted)
    reports = checks.suite_weakhopf(S23)
    (report,) = failing(reports)
    assert report["claim"] == "the coproduct is an algebra map"
    counterexample = report["computed"]["counterexample"]
    x, y = (free_element_of(S23, items) for items in counterexample["value"])
    assert [x.to_json_list(), y.to_json_list()] == counterexample["value"]
    assert coproduct(x * y) != corrupted(coproduct(x), coproduct(y))
    assert coproduct(x * y) == real(coproduct(x), coproduct(y))


def test_failing_check_exits_one_with_the_counterexample(monkeypatch, capsys):
    corrupt_word_action(monkeypatch)
    code, doc = run_cli(capsys, "check", "--gens", "2,3", "--suite", "inverse")
    assert code == 1 and doc["pass"] is False
    (report,) = failing(doc["reports"])
    assert isinstance(report["computed"]["counterexample"]["case"], int)
    assert len(word_of(report["computed"]["counterexample"]["value"][0])) >= 4


def test_first_failure_stops_checking_but_drains_the_stream():
    drawn, checked = [], []

    def cases():
        for i in range(10):
            drawn.append(i)
            yield i

    def below_three(i):
        checked.append(i)
        return i < 3

    (failure,) = checks._first_failures((cases(), below_three), (["x"], lambda c: True))
    assert failure == {"case": 3, "value": 3}
    assert checked == [0, 1, 2, 3] and drawn == list(range(10))
    assert checks._first_failures(([5], bool), ([0], bool)) == [{"case": 1, "value": 0}]


def test_order_suite_is_linear_in_the_window(monkeypatch):
    s = NumericalSemigroup([99, 101])
    calls = [0]
    natural_below = NumericalSemigroup.natural_below

    def counted(self, a, b):
        calls[0] += 1
        return natural_below(self, a, b)

    monkeypatch.setattr(NumericalSemigroup, "natural_below", counted)
    reports = checks.suite_order(s)
    assert all(r["pass"] for r in reports)
    order = reports[1]
    assert order["computed"] == {"reflexive": True, "antisymmetric": True, "transitive": True}
    assert calls[0] <= 2 * order["parameters"]["window"]


def test_functional_counterexamples_replay_through_the_cli_grammar(monkeypatch):
    # Every functional the haar suite evaluates renders to --functional syntax
    # that parses back to an equal functional; only shift pullbacks, which the
    # grammar cannot spell, fall back to their string.
    seen = []
    real = fns.evaluate

    def recording(xi, x):
        seen.append(xi)
        return real(xi, x)

    monkeypatch.setattr(fns, "evaluate", recording)
    assert all(r["pass"] for r in checks.suite_haar(S23, seed=0))
    kinds = set()
    for xi in seen:
        text = checks._render(xi)
        if "ShiftPullback" in repr(xi):
            assert text == str(xi)
            continue
        assert parse_functional(text, S23) == xi, text
        kinds.add(type(xi).__name__)
    assert kinds == {"MatrixCoeff", "SymbolPointMass", "LinCombo", "Convolution"}
    lin = fns.lin_combo([(GaussianRational(0, 1), fns.MatrixCoeff(0, 2)),
                         (GaussianRational(Fraction(-1, 2), -1), fns.haar())])
    assert checks._render(lin) == "lin(0+1i*w[0,2] + -1/2-1i*w[0,0])"
    assert parse_functional(checks._render(lin), S23) == lin
    pullback = fns.phi_star(fns.point_mass(Fraction(1, 3)), S23, 2)
    assert checks._render(pullback) == str(pullback) and str(pullback).startswith("ShiftPullback(")


def nested_loop_pairs(s, max_total_len):
    """Monomial pairs of words with lengths summing to at most max_total_len,
    each with the first two words reaching it, evaluating every word one by one."""
    letters = quantum.letters_of(s)
    pairs: dict = {}
    for l1 in range(1, max_total_len):
        for l2 in range(1, max_total_len - l1 + 1):
            for w1 in itertools.product(letters, repeat=l1):
                v = evaluate_word(s, w1)
                for w2 in itertools.product(letters, repeat=l2):
                    pairs.setdefault((v, evaluate_word(s, w2)), (w1, w2))
    return list(pairs.items())


@pytest.mark.parametrize("gens,count", [([2, 3], None), ([1], None), ([3, 4, 5], 1620)])
def test_coideal_checks_the_nested_loop_pairs_in_order(monkeypatch, gens, count):
    s = NumericalSemigroup(gens)
    expected = nested_loop_pairs(s, 4)
    checked = []

    def record(v, w):
        # fails on the last pair only, so the counterexample shows its words
        checked.append((v, w))
        return len(checked) < len(expected)

    monkeypatch.setattr(checks, "coideal_splits", record)
    (report,) = checks.suite_coideal(s)
    assert checked == [pair for pair, _words in expected]
    assert report["computed"]["pairs_checked"] == len(expected)
    assert report["computed"]["counterexample"] == {
        "case": len(expected) - 1, "value": checks._render(expected[-1])}
    assert count is None or len(expected) == count


def descent_probes(s):
    """suite_descent's window and diagonal probes at seed 0."""
    rng = checks._rng("descent", s, 0)
    window = max([10] + [v.mask.bit_length() + 2 for v in quantum.distinct_monomials(s, 6)])
    return window, [checks.random_free_element(rng, s, max_terms=4, max_word_len=4)
                    for _ in range(60)]


@pytest.mark.parametrize("gens", [(2, 3), (3, 7), (31, 37)])
def test_zero_class_corner_check_is_the_diagonal_predicate(gens):
    # suite_descent decides "the zero difference class always compresses
    # consistently" by its diagonal predicate: on the suite's own probes and
    # window, corner_diagram_check at class 0 gives the same verdict.
    s = NumericalSemigroup(list(gens))
    window, probes = descent_probes(s)
    for x in probes:
        assert ((quantum.corner_diagram_check(x, 0, window) is None)
                == pointwise_diagonal(coproduct(x), quantum.rep(x), window))


@pytest.mark.parametrize("gens", [(2, 3), (3, 7), (11, 13), (31, 37)])
def test_diagonal_predicate_matches_the_pointwise_reference(monkeypatch, gens):
    # corner_diagram_check at every class -4..4 on the suite's probes, with
    # rep(x) as it is and with one weight perturbed: a unit at a member d,
    # inside the window or just past it, or one more widest translation,
    # which moves the weight's tail.
    s = NumericalSemigroup(list(gens))
    window, probes = descent_probes(s)
    rng = random.Random(0)
    verdicts = []
    for x in probes:
        op = quantum.rep(x)
        c = rng.choice([v.index for v in x.terms] or [0])
        d = rng.choice([m for m in s.members_upto(window + 3) if s.contains(m + c)])
        for perturbed in (op, op + OperatorElement(s, {(c, d): ONE}),
                          op + OperatorElement(s, {(c, None): ONE})):
            monkeypatch.setattr(quantum, "rep", lambda _x, op=perturbed: op)
            for a in range(-4, 5):
                expected = pointwise_corner(x, a, window)
                assert quantum.corner_diagram_check(x, a, window) == expected
                verdicts.append(expected is None)
    assert True in verdicts and False in verdicts
