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
parsing.  A syntax error is reported before a binding error, and the first
binding error in the text is the one named: a generator that is not a
member, or the letter that takes the letters' sum past ``MAX_LETTERS``.

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


# Token kinds of the one-character marks; the others are INT, IDENT, STARSUF and END.
_PUNCT = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "(": "LPAREN",
          ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", ",": "COMMA"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, ending with one END token at the text's length."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit takes "²", which int() refuses
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            out.append(("IDENT", text[i:j], i))
            i = j
            continue
        kind = _PUNCT.get(ch)
        if kind is not None:
            out.append((kind, ch, i))
            i += 1
            continue
        if ch == "^":
            if i + 1 < n and text[i + 1] == "*":
                out.append(("STARSUF", "^*", i))
                i += 2
                continue
            raise ExprError("expected '*' after '^'", i)
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(("END", "", n))
    return out


# -- parser ----------------------------------------------------------------------


# Deepest parenthesis nesting accepted, well inside Python's recursion limit.
MAX_NESTING = 200
# Largest sum of the letters a in T(a) and T*(a) that one input reads: a
# letter's domain is a bitmask about a bits long.  The --gens sieve, a bitmask
# of min*max bits, has the same budget (cli).
MAX_LETTERS = 1_000_000


class _Parser:
    """Recursive descent over one input, evaluated in the free algebra as it goes."""

    def __init__(self, text: str, semigroup: NumericalSemigroup):
        self.tokens = _tokenize(text)
        self.semigroup = semigroup
        self.pos = 0
        self.depth = 0
        self.letters = 0  # sum of the letters a read so far
        # First binding error in the text, reported once the input parsed.
        self.unbound: Optional[str] = None

    def peek(self) -> tuple[str, str, int]:
        # pos never passes the END token: it moves only past a token of a matched kind.
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ExprError(f"expected {kind}, found {tok[1] or 'end of input'}", tok[2])
        self.pos += 1
        return tok

    def open_paren(self) -> None:
        """Consume a '(' that nests what follows one level deeper."""
        tok = self.take("LPAREN")
        if self.depth == MAX_NESTING:
            raise ExprError(f"parentheses nest more than {MAX_NESTING} deep", tok[2])
        self.depth += 1

    def close_paren(self) -> None:
        self.take("RPAREN")
        self.depth -= 1

    def finish(self, value):
        kind, text, offset = self.peek()
        if kind != "END":
            raise ExprError(f"trailing input {text!r}", offset)
        if self.unbound is not None:
            raise ExprError(self.unbound)
        return value

    def parse_expr(self) -> FreeElement:
        value = self.parse_term()
        while (kind := self.peek()[0]) in ("PLUS", "MINUS"):
            self.pos += 1
            if kind == "PLUS":
                value = value + self.parse_term()
            else:
                value = value - self.parse_term()
        return value

    def parse_term(self) -> FreeElement:
        value = self.parse_factor()
        while self.peek()[0] == "STAR":
            self.pos += 1
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> FreeElement:
        value = self.parse_atom()
        if self.peek()[0] == "STARSUF":
            self.pos += 1
            value = value.star()
        return value

    def parse_atom(self) -> FreeElement:
        kind, text, offset = self.peek()
        s = self.semigroup
        if kind == "INT":
            return FreeElement.identity(s).scale(self.parse_rational_complex())
        if kind == "IDENT" and text == "I":
            self.pos += 1
            return FreeElement.identity(s)
        if kind == "IDENT" and text == "T":
            self.pos += 1
            starred = False
            if self.peek()[0] == "STAR" and self.tokens[self.pos + 1][0] == "LPAREN":
                self.pos += 1
                starred = True
            self.take("LPAREN")
            a = int(self.take("INT")[1])
            self.take("RPAREN")
            self.letters += a
            if self.letters <= MAX_LETTERS and s.contains(a):
                return FreeElement.monomial(elementary(s, a, starred))
            if self.unbound is None:
                self.unbound = (f"generator {a} is not in the semigroup"
                                if self.letters <= MAX_LETTERS else
                                f"the letters sum to more than {MAX_LETTERS}")
            return FreeElement.zero(s)  # a stand-in: finish raises
        if kind == "LPAREN":
            self.open_paren()
            value = self.parse_expr()
            self.close_paren()
            return value
        raise ExprError(f"expected an atom, found {text or 'end of input'}", offset)

    def parse_rat(self) -> Fraction:
        num = int(self.take("INT")[1])
        if self.peek()[0] == "SLASH":
            slash = self.take("SLASH")
            den = int(self.take("INT")[1])
            if den == 0:
                raise ExprError("division by zero in scalar", slash[2])
            return Fraction(num, den)
        return Fraction(num)

    def parse_rational_complex(self) -> GaussianRational:
        real = self.parse_rat()
        # Greedy lookahead: consume '± rat i' only when the 'i' is present.
        save = self.pos
        kind = self.peek()[0]
        if kind in ("PLUS", "MINUS"):
            sign = 1 if kind == "PLUS" else -1
            self.pos += 1
            if self.peek()[0] == "INT":
                try:
                    imag = self.parse_rat()
                except ExprError:
                    self.pos = save
                    return GaussianRational(real)
                if self.peek()[:2] == ("IDENT", "i"):
                    self.pos += 1
                    return GaussianRational(real, sign * imag)
            self.pos = save
        return GaussianRational(real)

    def take_sign(self) -> int:
        """Consume an optional leading '-': -1 when present, else 1."""
        if self.peek()[0] == "MINUS":
            self.pos += 1
            return -1
        return 1

    def parse_functional(self) -> fn.Functional:
        kind, text, offset = self.peek()
        name = text if kind == "IDENT" else None
        if name == "haar":
            self.pos += 1
            return fn.haar()
        if name == "w":
            self.pos += 1
            self.take("LBRACK")
            a = self.take_sign() * int(self.take("INT")[1])
            self.take("COMMA")
            b = self.take_sign() * int(self.take("INT")[1])
            self.take("RBRACK")
            if not self.semigroup.contains(a) or not self.semigroup.contains(b):
                raise ExprError(f"matrix coefficient against non-members ({a},{b})")
            return fn.MatrixCoeff(a, b)
        if name not in ("pm", "conv", "lin"):
            raise ExprError("expected a functional", offset)
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
                kind = self.peek()[0]
                if kind not in ("PLUS", "MINUS"):
                    break
                self.pos += 1
                sign = 1 if kind == "PLUS" else -1
            node = fn.lin_combo(terms)
        self.close_paren()
        return node


def parse_element(text: str, semigroup: NumericalSemigroup) -> FreeElement:
    p = _Parser(text, semigroup)
    return p.finish(p.parse_expr())


def parse_functional(text: str, semigroup: NumericalSemigroup) -> fn.Functional:
    p = _Parser(text, semigroup)
    return p.finish(p.parse_functional())
