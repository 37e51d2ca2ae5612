from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sgalg.scalars import GaussianRational
from sgalg.semigroup import NumericalSemigroup
from sgalg.translations import elementary, evaluate_word
from sgalg.quantum import FreeElement, rep
from sgalg import exprparse as ep
from sgalg import functionals as fns

S23 = NumericalSemigroup([2, 3])
Z = NumericalSemigroup([1])


# -- parsing --------------------------------------------------------------------


def test_parse_projection_expression():
    ast = ep.parse("(I - T*(3)*T(2)*T*(2)*T(3))")
    assert isinstance(ast, ep.Paren)
    assert isinstance(ast.inner, ep.Sub)
    x = ep.to_free_element(ast, S23)
    expect = (FreeElement.identity(S23)
              - FreeElement.monomial(evaluate_word(
                  S23, ((3, True), (2, False), (2, True), (3, False)))))
    assert x == expect


def test_star_suffix_equals_starred_generator():
    assert ep.parse_element("T(2)^*", S23) == ep.parse_element("T*(2)", S23)


def test_scalar_literals():
    ast = ep.parse("1/2 + 3i")
    assert ast == ep.Scalar(GaussianRational(Fraction(1, 2), 3))
    assert ep.parse("2 - 1/4i") == ep.Scalar(GaussianRational(2, Fraction(-1, 4)))
    # the greedy scalar only fires when the trailing i is present
    plain = ep.parse("1/2 + 3")
    assert isinstance(plain, ep.Add)


def test_operator_order():
    # left factor acts last: T(2)*T*(2) maps e_0 to nothing, T*(2)*T(2) is I
    a = rep(ep.parse_element("T(2)*T*(2)", S23))
    b = rep(ep.parse_element("T*(2)*T(2)", S23))
    assert a.apply(0) == {}
    assert b == rep(FreeElement.identity(S23))


def test_parse_errors_carry_offsets():
    with pytest.raises(ep.ExprError) as err:
        ep.parse("T(2) + @")
    assert err.value.offset == 7
    with pytest.raises(ep.ExprError):
        ep.parse("T(2) +")
    with pytest.raises(ep.ExprError):
        ep.parse("1/0")
    with pytest.raises(ep.ExprError):
        ep.parse("T(2")


def test_generator_membership_enforced():
    with pytest.raises(ep.ExprError):
        ep.parse_element("T(1)", S23)
    assert ep.parse_element("T(4)", S23) == FreeElement.monomial(elementary(S23, 4, False))


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


# -- printing round trip ------------------------------------------------------------


def scalar_nodes():
    nonneg = st.fractions(min_value=0, max_value=20, max_denominator=9)
    anyfrac = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return st.builds(lambda r, i: ep.Scalar(GaussianRational(r, i)), nonneg, anyfrac)


def ast_strategy():
    leafs = st.one_of(
        scalar_nodes(),
        st.just(ep.Ident()),
        st.sampled_from([ep.Gen(2), ep.Gen(3), ep.Gen(4), ep.GenStar(2), ep.GenStar(3)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(ep.Add, children, children.map(_guard_term)),
            st.builds(ep.Sub, children, children.map(_guard_term)),
            st.builds(ep.Mul, children.map(_guard_factor),
                      children.map(_guard_right_factor)),
            st.builds(lambda i: ep.Star(_guard_factor(i)), children),
            st.builds(ep.Paren, children),
        )

    return st.recursive(leafs, extend, max_leaves=12)


# The grammar is left-associative, so parser-reachable trees never have a
# bare sum as the right child of a sum, nor a bare product as the right
# child of a product; the generators wrap those in parentheses.

def _guard_factor(node):
    if isinstance(node, (ep.Add, ep.Sub, ep.Mul, ep.Star)):
        return ep.Paren(node)
    return node


def _guard_right_factor(node):
    if isinstance(node, (ep.Add, ep.Sub, ep.Mul, ep.Star)):
        return ep.Paren(node)
    return node


def _guard_term(node):
    if isinstance(node, (ep.Add, ep.Sub)):
        return ep.Paren(node)
    return node


@given(ast_strategy())
def test_print_parse_roundtrip(ast):
    printed = ep.print_expr(ast)
    assert ep.parse(printed) == ast


def test_roundtrip_count():
    # a deterministic bulk pass, complementing the property test
    import random
    rng = random.Random(71)
    leafs = [ep.Ident(), ep.Gen(2), ep.Gen(3), ep.GenStar(2),
             ep.Scalar(GaussianRational(Fraction(1, 2), 3)),
             ep.Scalar(GaussianRational(5))]

    def grow(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leafs)
        kind = rng.randrange(5)
        if kind == 0:
            return ep.Add(grow(depth - 1), _guard_term(grow(depth - 1)))
        if kind == 1:
            return ep.Sub(grow(depth - 1), _guard_term(grow(depth - 1)))
        if kind == 2:
            return ep.Mul(_guard_factor(grow(depth - 1)), _guard_factor(grow(depth - 1)))
        if kind == 3:
            return ep.Star(_guard_factor(grow(depth - 1)))
        return ep.Paren(grow(depth - 1))

    for _ in range(500):
        ast = grow(4)
        assert ep.parse(ep.print_expr(ast)) == ast


# -- functional syntax ------------------------------------------------------------------


def test_parse_functionals():
    assert ep.parse_functional("haar", S23) == fns.MatrixCoeff(0, 0)
    assert ep.parse_functional("w[3,2]", S23) == fns.MatrixCoeff(3, 2)
    pm = ep.parse_functional("pm(1/3)", S23)
    assert pm == fns.SymbolPointMass(Fraction(1, 3), 1.0)
    conv = ep.parse_functional("conv(haar, w[2,2])", S23)
    assert conv == fns.Convolution(fns.MatrixCoeff(0, 0), fns.MatrixCoeff(2, 2))
    lin = ep.parse_functional("lin(2*haar + 1/2*w[0,0] - 3*pm(1/4))", S23)
    assert isinstance(lin, fns.LinCombo)
    assert [str(c) for c, _f in lin.terms] == ["2", "1/2", "-3"]


def test_parse_functional_errors():
    with pytest.raises(ep.ExprError):
        ep.parse_functional("w[1,0]", S23)    # 1 is not a member
    with pytest.raises(ep.ExprError):
        ep.parse_functional("pm(1/0)", S23)
    with pytest.raises(ep.ExprError):
        ep.parse_functional("spam", S23)
    with pytest.raises(ep.ExprError):
        ep.parse_functional("haar extra", S23)
