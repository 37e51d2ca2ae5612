"""Expression grammar for algebra elements and functionals.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^*']
    atom   := rationalComplex | 'I' | 'T(' int ')' | 'T*(' int ')' | '(' expr ')'
    rationalComplex := rat [('+'|'-') rat 'i']
    rat    := int ['/' int]

Products are in operator order: the left factor acts last.  ``T*(a)`` is the
same as ``T(a)^*``.  The scalar lookahead is greedy: ``1/2 + 3i`` is one
scalar atom, which keeps print/parse round trips exact.

Functionals share the lexer and the scalar rules:

    functional := 'haar' | 'w[' ['-'] int ',' ['-'] int ']'
                | 'pm(' ['-'] rat ')' | 'conv(' functional ',' functional ')'
                | 'lin(' coeff '*' functional (('+'|'-') coeff '*' functional)* ')'
    coeff      := ['-'] rationalComplex

A leading '-' negates the integer, the angle, or the real part of the
coefficient.  pm takes the angle as a fraction of a full turn: pm(1/3) sits
at 2*pi/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .scalars import GaussianRational
from .semigroup import NumericalSemigroup
from .quantum import FreeElement
from .translations import elementary
from . import functionals as fn


class ExprError(ValueError):
    """Parse or binding failure, carrying the byte offset when syntactic."""

    def __init__(self, message: str, offset: Optional[int] = None):
        super().__init__(message if offset is None
                         else f"{message} (at byte {offset})")
        self.offset = offset
        self.message = message


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Scalar:
    value: GaussianRational


@dataclass(frozen=True)
class Ident:
    pass


@dataclass(frozen=True)
class Gen:
    a: int


@dataclass(frozen=True)
class GenStar:
    a: int


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Star:
    inner: "Expression"


@dataclass(frozen=True)
class Paren:
    inner: "Expression"


Expression = Union[Scalar, Ident, Gen, GenStar, Add, Sub, Mul, Star, Paren]


# -- lexer -----------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str        # INT IDENT PLUS MINUS STAR SLASH LPAREN RPAREN LBRACK RBRACK
                     # COMMA STARSUF END
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch == "^":
            if i + 1 < n and text[i + 1] == "*":
                out.append(_Token("STARSUF", "^*", i))
                i += 2
                continue
            raise ExprError("expected '*' after '^'", i)
        simple = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
                  "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
                  ",": "COMMA"}
        if ch in simple:
            out.append(_Token(simple[ch], ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(_Token("END", "", n))
    return out


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprError(f"expected {kind}, found {tok.text or 'end of input'}",
                            tok.offset)
        self.pos += 1
        return tok

    def finish(self, node):
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"trailing input {tok.text!r}", tok.offset)
        return node

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take(self.peek().kind)
            rhs = self.parse_term()
            node = Add(node, rhs) if op.kind == "PLUS" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek().kind == "STAR":
            self.take("STAR")
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> Expression:
        node = self.parse_atom()
        if self.peek().kind == "STARSUF":
            self.take("STARSUF")
            node = Star(node)
        return node

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "INT":
            return Scalar(self.parse_rational_complex())
        if tok.kind == "IDENT" and tok.text == "I":
            self.take("IDENT")
            return Ident()
        if tok.kind == "IDENT" and tok.text == "T":
            self.take("IDENT")
            starred = False
            if self.peek().kind == "STAR" and self.peek(1).kind == "LPAREN":
                self.take("STAR")
                starred = True
            self.take("LPAREN")
            a = int(self.take("INT").text)
            self.take("RPAREN")
            return GenStar(a) if starred else Gen(a)
        if tok.kind == "LPAREN":
            self.take("LPAREN")
            inner = self.parse_expr()
            self.take("RPAREN")
            return Paren(inner)
        raise ExprError(f"expected an atom, found {tok.text or 'end of input'}",
                        tok.offset)

    def parse_rat(self) -> Fraction:
        num = int(self.take("INT").text)
        if self.peek().kind == "SLASH":
            slash = self.take("SLASH")
            den = int(self.take("INT").text)
            if den == 0:
                raise ExprError("division by zero in scalar", slash.offset)
            return Fraction(num, den)
        return Fraction(num)

    def parse_rational_complex(self) -> GaussianRational:
        real = self.parse_rat()
        # Greedy lookahead: consume '± rat i' only when the 'i' is present.
        save = self.pos
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.peek().kind == "PLUS" else -1
            self.pos += 1
            if self.peek().kind == "INT":
                try:
                    imag = self.parse_rat()
                except ExprError:
                    self.pos = save
                    return GaussianRational(real)
                if self.peek().kind == "IDENT" and self.peek().text == "i":
                    self.take("IDENT")
                    return GaussianRational(real, sign * imag)
            self.pos = save
        return GaussianRational(real)

    def take_sign(self) -> int:
        """Consume an optional leading '-': -1 when present, else 1."""
        if self.peek().kind == "MINUS":
            self.pos += 1
            return -1
        return 1

    def parse_functional(self, semigroup: NumericalSemigroup) -> fn.Functional:
        tok = self.peek()
        name = tok.text if tok.kind == "IDENT" else None
        if name == "haar":
            self.pos += 1
            return fn.haar()
        if name == "w":
            self.pos += 1
            self.take("LBRACK")
            a = self.take_sign() * int(self.take("INT").text)
            self.take("COMMA")
            b = self.take_sign() * int(self.take("INT").text)
            self.take("RBRACK")
            if not semigroup.contains(a) or not semigroup.contains(b):
                raise ExprError(f"matrix coefficient against non-members ({a},{b})")
            return fn.MatrixCoeff(a, b)
        if name not in ("pm", "conv", "lin"):
            raise ExprError("expected a functional", tok.offset)
        self.pos += 1
        self.take("LPAREN")
        if name == "pm":
            node = fn.point_mass(self.take_sign() * self.parse_rat())
        elif name == "conv":
            left = self.parse_functional(semigroup)
            self.take("COMMA")
            node = fn.convolve(left, self.parse_functional(semigroup))
        else:
            terms = []
            sign = 1
            while True:
                real_sign = self.take_sign()
                z = self.parse_rational_complex()
                self.take("STAR")
                coeff = GaussianRational(real_sign * z.re, z.im) * sign
                terms.append((coeff, self.parse_functional(semigroup)))
                if self.peek().kind not in ("PLUS", "MINUS"):
                    break
                sign = 1 if self.take(self.peek().kind).kind == "PLUS" else -1
            node = fn.lin_combo(terms)
        self.take("RPAREN")
        return node


def parse(text: str) -> Expression:
    p = _Parser(_tokenize(text))
    return p.finish(p.parse_expr())


# -- printer -----------------------------------------------------------------------


def print_expr(node: Expression) -> str:
    if isinstance(node, Scalar):
        v = node.value
        if v.re < 0:
            raise ValueError("negative real scalar literals are not printable; "
                             "wrap in a subtraction")
        if v.im == 0:
            return _rat_str(v.re)
        sign = "+" if v.im > 0 else "-"
        return f"{_rat_str(v.re)} {sign} {_rat_str(abs(v.im))}i"
    if isinstance(node, Ident):
        return "I"
    if isinstance(node, Gen):
        return f"T({node.a})"
    if isinstance(node, GenStar):
        return f"T*({node.a})"
    if isinstance(node, Add):
        return f"{print_expr(node.left)} + {print_expr(node.right)}"
    if isinstance(node, Sub):
        return f"{print_expr(node.left)} - {print_expr(node.right)}"
    if isinstance(node, Mul):
        return f"{print_expr(node.left)}*{print_expr(node.right)}"
    if isinstance(node, Star):
        return f"{print_expr(node.inner)}^*"
    if isinstance(node, Paren):
        return f"({print_expr(node.inner)})"
    raise TypeError(f"not an expression node: {node!r}")


def _rat_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- binding to a semigroup -----------------------------------------------------------


def to_free_element(node: Expression, semigroup: NumericalSemigroup) -> FreeElement:
    """Evaluate the AST in the free monomial algebra over the semigroup.

    Every multiplicative word collapses to a single canonical monomial key.
    Generators must be members of the active semigroup.
    """
    if isinstance(node, Scalar):
        return FreeElement.identity(semigroup).scale(node.value)
    if isinstance(node, Ident):
        return FreeElement.identity(semigroup)
    if isinstance(node, Gen):
        if not semigroup.contains(node.a):
            raise ExprError(f"generator {node.a} is not in the semigroup")
        return FreeElement.monomial(elementary(semigroup, node.a, False))
    if isinstance(node, GenStar):
        if not semigroup.contains(node.a):
            raise ExprError(f"generator {node.a} is not in the semigroup")
        return FreeElement.monomial(elementary(semigroup, node.a, True))
    if isinstance(node, Add):
        return (to_free_element(node.left, semigroup)
                + to_free_element(node.right, semigroup))
    if isinstance(node, Sub):
        return (to_free_element(node.left, semigroup)
                - to_free_element(node.right, semigroup))
    if isinstance(node, Mul):
        return (to_free_element(node.left, semigroup)
                * to_free_element(node.right, semigroup))
    if isinstance(node, Star):
        return to_free_element(node.inner, semigroup).star()
    if isinstance(node, Paren):
        return to_free_element(node.inner, semigroup)
    raise TypeError(f"not an expression node: {node!r}")


def parse_element(text: str, semigroup: NumericalSemigroup) -> FreeElement:
    return to_free_element(parse(text), semigroup)


# -- functional syntax -----------------------------------------------------------------


def parse_functional(text: str, semigroup: NumericalSemigroup) -> fn.Functional:
    p = _Parser(_tokenize(text))
    return p.finish(p.parse_functional(semigroup))
