from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sgalg.scalars import GaussianRational
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import elementary, evaluate_word
from sgalg.quantum import FreeElement, rep
from sgalg import exprparse as ep
from sgalg import functionals as fns

from conftest import reference_tokenize

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])
I23 = FreeElement.identity(S23)


def gen(a, starred=False):
    return FreeElement.monomial(elementary(S23, a, starred))


# -- parsing --------------------------------------------------------------------


def test_parse_projection_expression():
    x = ep.parse_element("(I - T*(3)*T(2)*T*(2)*T(3))", S23)
    expect = I23 - FreeElement.monomial(evaluate_word(
        S23, ((3, True), (2, False), (2, True), (3, False))))
    assert x == expect
    assert ep.parse_element("I - T*(3)*T(2)*T*(2)*T(3)", S23) == expect


def test_star_suffix_equals_starred_generator():
    assert ep.parse_element("T(2)^*", S23) == ep.parse_element("T*(2)", S23)


def test_scalar_literals():
    assert ep.parse_element("1/2 + 3i", S23) == I23.scale(GaussianRational(Fraction(1, 2), 3))
    assert ep.parse_element("2 - 1/4i", S23) == I23.scale(GaussianRational(2, Fraction(-1, 4)))
    # The scalar is greedy: with its trailing i, '1/2 + 3i' is one atom that
    # scales T(2); without it, '1/2 + 3' is a sum and 3 scales T(2) alone.
    assert ep.parse_element("1/2 + 3i*T(2)", S23) == (
        gen(2).scale(GaussianRational(Fraction(1, 2), 3)))
    assert ep.parse_element("1/2 + 3*T(2)", S23) == (
        I23.scale(Fraction(1, 2)) + gen(2).scale(3))
    assert ep.parse_element("1/2 + 3", S23) == I23.scale(Fraction(7, 2))


def test_operator_order():
    # left factor acts last: T(2)*T*(2) maps e_0 to nothing, T*(2)*T(2) is I
    a = rep(ep.parse_element("T(2)*T*(2)", S23))
    b = rep(ep.parse_element("T*(2)*T(2)", S23))
    assert a.apply(0) == {}
    assert b == rep(I23)


def test_parse_errors_carry_offsets():
    for text, offset in (("T(2) + @", 7), ("T(2) +", 6), ("1/0", 1), ("T(2", 3),
                         ("T(2) T(3)", 5)):
        with pytest.raises(ep.ExprError) as err:
            ep.parse_element(text, S23)
        assert err.value.offset == offset, text


def test_generator_membership_enforced():
    with pytest.raises(ep.ExprError):
        ep.parse_element("T(1)", S23)
    assert ep.parse_element("T(4)", S23) == gen(4)


def test_syntax_errors_before_the_first_non_member():
    # A syntax error anywhere wins over a generator outside the semigroup; on
    # input that parses, the first such generator in the text is named.
    s37 = NumericalSemigroup([3, 7])
    for text, message, offset in (
            ("T(1) +", "expected an atom, found end of input", 6),
            ("T(1) T(2)", "trailing input 'T'", 5),
            ("T(3) + T(5) - T*(2)*T(4)", "generator 5 is not in the semigroup", None),
            ("(T(8)^* + T*(4))*T(2)", "generator 8 is not in the semigroup", None)):
        with pytest.raises(ep.ExprError) as err:
            ep.parse_element(text, s37)
        assert (err.value.message, err.value.offset) == (message, offset), text


def test_letters_are_bounded(monkeypatch):
    # The letters an input reads sum to at most MAX_LETTERS: at the budget the
    # input binds, past it no further letter is built.
    assert ep.MAX_LETTERS == 1_000_000
    x = ep.parse_element("T(500000)*T*(500000)", S23)
    assert x == gen(500000) * gen(500000, True)
    built = []

    def recording(s, a, starred):
        built.append(a)
        return elementary(s, a, starred)

    monkeypatch.setattr("sgalg.exprparse.elementary", recording)
    for text, letters, message in (
            ("T*(999999999999)", [], "the letters sum to more than 1000000"),
            ("T(500000)*T*(500001)", [500000], "the letters sum to more than 1000000"),
            ("T(2) + T(2000000)*T*(2)", [2], "the letters sum to more than 1000000"),
            ("T(1) + T(2000000)", [], "generator 1 is not in the semigroup"),
            ("T(2000000) + T(1)", [], "the letters sum to more than 1000000")):
        built.clear()
        with pytest.raises(ep.ExprError) as err:
            ep.parse_element(text, S23)
        assert (err.value.message, err.value.offset, built) == (message, None, letters), text
    with pytest.raises(ep.ExprError) as err:
        ep.parse_element("T*(999999999999) +", S23)
    assert (err.value.message, err.value.offset) == ("expected an atom, found end of input", 18)


def test_scalar_times_word():
    x = ep.parse_element("2*T(2) + (1/2 + 3i)*T(3)", S23)
    t2 = elementary(S23, 2, False)
    t3 = elementary(S23, 3, False)
    assert x.terms[t2] == GaussianRational(2)
    assert x.terms[t3] == GaussianRational(Fraction(1, 2), 3)


def test_adjoint_of_expression_is_conjugate_linear():
    x = ep.parse_element("(0 + 2i)*T(2)", S23)
    xs = x.star()
    assert xs.terms[elementary(S23, 2, True)] == GaussianRational(0, -2)
    assert ep.parse_element("((0 + 2i)*T(2))^*", S23) == xs


# -- lexer ------------------------------------------------------------------------


_LEXER_ALPHABET = ("0123456789aTIiwz" "\u0663\u00b2\u00e9\u03bb"
                   " \t\u2003" "+-*/()[],^@")


@given(st.text(alphabet=_LEXER_ALPHABET, max_size=24))
@example("T*(3)^* + 1/2i")
@example("w[-2,\u0663\u00b2]\t\u00e9\u03bb")
@example("T(2)^")
@example("T(2) @")
def test_tokens_match_the_reference_lexer(text):
    try:
        expected = reference_tokenize(text)
    except ep.ExprError as exc:
        with pytest.raises(ep.ExprError) as err:
            ep._tokenize(text)
        assert (err.value.message, err.value.offset) == (exc.message, exc.offset)
    else:
        assert ep._tokenize(text) == expected


# -- random expressions against free-algebra arithmetic -----------------------------

# An expression is drawn as (text, value, level).  The level is what the text
# parses as on its own: 1 a sum or difference, 2 a product, 3 a starred
# factor, 4 an atom.  An operand below the level its place needs is
# parenthesized, which is how a printed tree stays the tree it was drawn as.


def _rat(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _scalar(re, im):
    # Real parts are non-negative (the grammar has no unary minus); an
    # imaginary part makes the greedy 're ± im i' atom.
    text = _rat(re) if im == 0 else f"{_rat(re)} {'+' if im > 0 else '-'} {_rat(abs(im))}i"
    return text, I23.scale(GaussianRational(re, im)), 4


def _at_least(level, operand):
    text, value, own = operand
    return operand if own >= level else (f"({text})", value, 4)


def _sum(left, right, minus):
    (lt, lv, _), (rt, rv, _) = left, _at_least(2, right)
    return (f"{lt} - {rt}", lv - rv, 1) if minus else (f"{lt} + {rt}", lv + rv, 1)


def _product(left, right):
    (lt, lv, _), (rt, rv, _) = _at_least(2, left), _at_least(3, right)
    return f"{lt}*{rt}", lv * rv, 2


def _star(inner):
    text, value, _ = _at_least(4, inner)
    return f"{text}^*", value.star(), 3


def expressions():
    nonneg = st.fractions(min_value=0, max_value=20, max_denominator=9)
    anyfrac = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    leaves = st.one_of(
        st.builds(_scalar, nonneg, anyfrac),
        st.just(("I", I23, 4)),
        st.sampled_from([(f"T*({a})" if starred else f"T({a})", gen(a, starred), 4)
                         for a in (2, 3, 4, 5) for starred in (False, True)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(_sum, children, children, st.booleans()),
            st.builds(_product, children, children),
            st.builds(_star, children),
            children.map(lambda c: (f"({c[0]})", c[1], 4)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(expressions())
def test_parse_matches_free_algebra_arithmetic(drawn):
    text, value, _level = drawn
    assert ep.parse_element(text, S23) == value, text


# -- functional syntax ------------------------------------------------------------------


def test_parse_functionals():
    assert ep.parse_functional("haar", S23) == fns.MatrixCoeff(0, 0)
    assert ep.parse_functional("w[3,2]", S23) == fns.MatrixCoeff(3, 2)
    pm = ep.parse_functional("pm(1/3)", S23)
    assert pm == fns.SymbolPointMass(Fraction(1, 3))
    conv = ep.parse_functional("conv(haar, w[2,2])", S23)
    assert conv == fns.Convolution(fns.MatrixCoeff(0, 0), fns.MatrixCoeff(2, 2))
    lin = ep.parse_functional("lin(2*haar + 1/2*w[0,0] - 3*pm(1/4))", S23)
    assert isinstance(lin, fns.LinCombo)
    assert [str(c) for c, _f in lin.terms] == ["2", "1/2", "-3"]

    haar = fns.MatrixCoeff(0, 0)
    table = {
        "pm(-6/5)": fns.SymbolPointMass(Fraction(-6, 5)),
        "lin(-1*haar)": fns.LinCombo(((GaussianRational(-1), haar),)),
        "lin(1-1i*haar)": fns.LinCombo(((GaussianRational(1, -1), haar),)),
        "lin(-1/2+3i*w[0,2])": fns.LinCombo(((GaussianRational(Fraction(-1, 2), 3),
                                              fns.MatrixCoeff(0, 2)),)),
        "conv(conv(haar, w[0,2]), pm(1/4))": fns.Convolution(
            fns.Convolution(haar, fns.MatrixCoeff(0, 2)),
            fns.SymbolPointMass(Fraction(1, 4))),
        " haar ": haar,
        "w[ 3 , 2 ]": fns.MatrixCoeff(3, 2),
        "pm( 1 / 3 )": fns.SymbolPointMass(Fraction(1, 3)),
        "conv( haar ,w[2,2] )": fns.Convolution(haar, fns.MatrixCoeff(2, 2)),
        "lin(1 - 1 i * haar)": fns.LinCombo(((GaussianRational(1, -1), haar),)),
        "lin( 2*haar + 1/2 * w[0,0] -3*pm(1/4) )": fns.LinCombo((
            (GaussianRational(2), haar),
            (GaussianRational(Fraction(1, 2)), haar),
            (GaussianRational(-3), fns.SymbolPointMass(Fraction(1, 4))))),
    }
    for text, expected in table.items():
        assert ep.parse_functional(text, S23) == expected, text


def test_parse_functional_errors():
    with pytest.raises(ep.ExprError):
        ep.parse_functional("w[1,0]", S23)    # 1 is not a member
    with pytest.raises(ep.ExprError):
        ep.parse_functional("pm(1/0)", S23)
    with pytest.raises(ep.ExprError):
        ep.parse_functional("spam", S23)
    with pytest.raises(ep.ExprError):
        ep.parse_functional("haar extra", S23)
    for text, offset in (("pm(1/3", 6), ("w[2 2]", 4)):
        with pytest.raises(ep.ExprError) as err:
            ep.parse_functional(text, S23)
        assert err.value.offset == offset
