"""Expression grammar for algebra elements and functionals.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^*']
    atom   := rationalComplex | 'I' | 'T(' int ')' | 'T*(' int ')' | '(' expr ')'
    rationalComplex := rat [('+'|'-') rat 'i']
    rat    := int ['/' int]

Products are in operator order: the left factor acts last.  ``T*(a)`` is the
same as ``T(a)^*``.  The scalar lookahead is greedy: ``1/2 + 3i`` is one
scalar atom.  Counterexamples rely on this grammar: ``checks._render`` spells
words that ``sg eval`` reads back and ``lin(re±im i*f)`` coefficients that
``sg convolve`` reads back.  Elements are built in the free algebra while
parsing.  A syntax error is reported before a generator that is not a
member, and the first such generator in the text is the one named.

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
from typing import Optional

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


# Deepest parenthesis nesting accepted, well inside Python's recursion limit.
MAX_NESTING = 200


class _Parser:
    """Recursive descent over one input, evaluated in the free algebra as it goes."""

    def __init__(self, text: str, semigroup: NumericalSemigroup):
        self.tokens = _tokenize(text)
        self.semigroup = semigroup
        self.pos = 0
        self.depth = 0
        # First generator outside the semigroup, reported once the input parsed.
        self.outsider: Optional[int] = None

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprError(f"expected {kind}, found {tok.text or 'end of input'}",
                            tok.offset)
        self.pos += 1
        return tok

    def open_paren(self) -> None:
        """Consume a '(' that nests what follows one level deeper."""
        tok = self.take("LPAREN")
        if self.depth == MAX_NESTING:
            raise ExprError(f"parentheses nest more than {MAX_NESTING} deep", tok.offset)
        self.depth += 1

    def close_paren(self) -> None:
        self.take("RPAREN")
        self.depth -= 1

    def finish(self, value):
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"trailing input {tok.text!r}", tok.offset)
        if self.outsider is not None:
            raise ExprError(f"generator {self.outsider} is not in the semigroup")
        return value

    def parse_expr(self) -> FreeElement:
        value = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            if self.take(self.peek().kind).kind == "PLUS":
                value = value + self.parse_term()
            else:
                value = value - self.parse_term()
        return value

    def parse_term(self) -> FreeElement:
        value = self.parse_factor()
        while self.peek().kind == "STAR":
            self.take("STAR")
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> FreeElement:
        value = self.parse_atom()
        if self.peek().kind == "STARSUF":
            self.take("STARSUF")
            value = value.star()
        return value

    def parse_atom(self) -> FreeElement:
        tok = self.peek()
        s = self.semigroup
        if tok.kind == "INT":
            return FreeElement.identity(s).scale(self.parse_rational_complex())
        if tok.kind == "IDENT" and tok.text == "I":
            self.take("IDENT")
            return FreeElement.identity(s)
        if tok.kind == "IDENT" and tok.text == "T":
            self.take("IDENT")
            starred = False
            if self.peek().kind == "STAR" and self.peek(1).kind == "LPAREN":
                self.take("STAR")
                starred = True
            self.take("LPAREN")
            a = int(self.take("INT").text)
            self.take("RPAREN")
            if s.contains(a):
                return FreeElement.monomial(elementary(s, a, starred))
            if self.outsider is None:
                self.outsider = a
            return FreeElement.zero(s)  # a stand-in: finish raises
        if tok.kind == "LPAREN":
            self.open_paren()
            value = self.parse_expr()
            self.close_paren()
            return value
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

    def parse_functional(self) -> fn.Functional:
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
            if not self.semigroup.contains(a) or not self.semigroup.contains(b):
                raise ExprError(f"matrix coefficient against non-members ({a},{b})")
            return fn.MatrixCoeff(a, b)
        if name not in ("pm", "conv", "lin"):
            raise ExprError("expected a functional", tok.offset)
        self.pos += 1
        self.open_paren()
        if name == "pm":
            node = fn.point_mass(self.take_sign() * self.parse_rat())
        elif name == "conv":
            left = self.parse_functional()
            self.take("COMMA")
            node = fn.convolve(left, self.parse_functional())
        else:
            terms = []
            sign = 1
            while True:
                real_sign = self.take_sign()
                z = self.parse_rational_complex()
                self.take("STAR")
                coeff = GaussianRational(real_sign * z.re, z.im) * sign
                terms.append((coeff, self.parse_functional()))
                if self.peek().kind not in ("PLUS", "MINUS"):
                    break
                sign = 1 if self.take(self.peek().kind).kind == "PLUS" else -1
            node = fn.lin_combo(terms)
        self.close_paren()
        return node


def parse_element(text: str, semigroup: NumericalSemigroup) -> FreeElement:
    p = _Parser(text, semigroup)
    return p.finish(p.parse_expr())


def parse_functional(text: str, semigroup: NumericalSemigroup) -> fn.Functional:
    p = _Parser(text, semigroup)
    return p.finish(p.parse_functional())
