"""Checks shared by several test modules."""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from sgalg.exprparse import ExprError
from sgalg import quantum
from sgalg.scalars import Combination, ONE, ZERO
from sgalg.operators import OperatorElement, from_monomial
from sgalg.semigroup import bit_positions, morphism_multipliers
from sgalg.translations import compose, elementary
from sgalg.quantum import (FreeElement, MorphismWitness, coproduct, distinct_monomials,
                           group_like_detect, letters_of, monomial_kernel, rep, tensor_of)


def word_offsets(semigroup, word) -> list[int]:
    """Offsets t such that the word's domain is {d : d + t is a member, all t}.

    Each starred letter contributes suffix-index-minus-letter; derived purely
    from word arithmetic (second independent route to domains).
    """
    offsets = []
    suffix = 0
    for a, starred in reversed(list(word)):
        if starred:
            offsets.append(suffix - a)
            suffix -= a
        else:
            suffix += a
    return offsets


def group_like_survey(semigroup, max_word_len, coefficients) -> set[int]:
    """Indices detected as group-like among the short-word monomials.

    The detector runs on every distinct monomial up to max_word_len words
    long, times every pool coefficient.  A combination of several monomials
    is never group-like: its tensor square has an off-diagonal entry that the
    diagonal coproduct lacks.
    """
    monos = sorted(distinct_monomials(semigroup, max_word_len), key=lambda v: v.sort_key)
    detected = (group_like_detect(FreeElement(semigroup, {v: lam}))
                for v in monos for lam in coefficients)
    return {c for c in detected if c is not None}


def group_like_reference(x):
    """quantum.group_like_detect's reference, by the definition: x is group-like
    (its coproduct is x (x) x) and rep(x) is an isometry; then x is a single
    monomial, whose index is returned."""
    if x.is_zero or coproduct(x) != tensor_of(x, x):
        return None
    a = rep(x)
    if a.adjoint() * a != OperatorElement.identity(x.semigroup):
        return None
    (v,) = x.terms
    return v.index


def group_like_invariants_hold(semigroup, max_word_len, coefficients, max_terms,
                               detect_stride=37) -> bool:
    """Whether the group-like survey's detector answers as the definition does.

    The two routes are compared on every short-word monomial times every pool
    coefficient, on every support of two monomials and on every
    detect_stride-th larger support, each monomial with coefficient one.
    """
    monos = sorted(distinct_monomials(semigroup, max_word_len), key=lambda v: v.sort_key)
    singles = (FreeElement(semigroup, {v: lam}) for v in monos for lam in coefficients)
    supports = (FreeElement(semigroup, dict.fromkeys(vs, ONE))
                for k in range(2, max_terms + 1)
                for i, vs in enumerate(itertools.combinations(monos, k))
                if k == 2 or i % detect_stride == 0)
    return all(group_like_detect(x) == group_like_reference(x)
               for x in itertools.chain(singles, supports))


@pytest.fixture
def group_like_invariants():
    return group_like_invariants_hold


def dense_nullspace(columns):
    """Kernel basis of (l1..ln) -> sum li * column_i by a dense reduced row
    echelon over every coordinate key: the sparse elimination's reference."""
    keys = sorted(set().union(*columns)) if columns else []
    n = len(columns)
    rows = [[columns[j].get(k, ZERO) for j in range(n)] for k in keys]
    pivots = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero:
                f = rows[i][col]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break

    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [ZERO] * n
        vec[fc] = ONE
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        basis.append(vec)
    return basis


def reference_weights(a):
    """OperatorElement.weights's reference: each index's (tail, exceptions) in
    increasing index order, with the tail m the widest translation's coefficient,
    zero at the members d that M_c sends out of the semigroup (found member by
    member) and m + u at each unit."""
    s = a.semigroup
    tails, units = {}, {}
    for (c, d), v in a.terms.items():
        if d is None:
            tails[c] = v
        else:
            units.setdefault(c, {})[d] = v
    weights = {}
    for c in sorted(tails.keys() | units.keys()):
        m = tails.get(c, ZERO)
        # every d + c at or past F + 1 is a member
        values = {d: ZERO for d in s.members_upto(s.frobenius - c)
                  if not s.contains(d + c)} if m else {}
        values.update((d, m + u) for d, u in units.get(c, {}).items())
        weights[c] = (m, values)
    return weights


def operator_coordinates(elements):
    """Faithful finite coordinates shared by a family of elements, sampled from
    the weights: each index's tail, and its value at every member below the
    largest threshold the family has at that index."""
    weights = [reference_weights(el) for el in elements]
    window = {}
    for w in weights:
        for c, (_tail, exceptions) in w.items():
            window[c] = max(window.get(c, 0), max(exceptions, default=-1) + 1)
    coords = []
    for el, w in zip(elements, weights):
        vec = {}
        for c, hi in window.items():
            tail, exceptions = w.get(c, (ZERO, {}))
            if not tail.is_zero:
                vec[("tail", c)] = tail
            for d in el.semigroup.members_upto(hi - 1):
                v = exceptions.get(d, tail)
                if not v.is_zero:
                    vec[("at", c, d)] = v
        coords.append(vec)
    return coords


def dense_monomial_kernel(pts):
    """monomial_kernel's basis with one coordinate per entry of pts, by index
    class in increasing index order, each class through dense_nullspace on
    the weight-sampled coordinates."""
    by_index = {}
    for i, v in enumerate(pts):
        by_index.setdefault(v.index, []).append(i)
    kernel = []
    for c in sorted(by_index):
        positions = by_index[c]
        cols = operator_coordinates([from_monomial(pts[i]) for i in positions])
        for vec in dense_nullspace(cols):
            full = [ZERO] * len(pts)
            for coeff, pos in zip(vec, positions):
                full[pos] = coeff
            kernel.append(full)
    return kernel


@pytest.fixture
def dense_kernel():
    return dense_nullspace, dense_monomial_kernel


def pairwise_descent_witness(x, window):
    """quantum.descent_witness's reference: the whole coproduct applied at
    every member pair up to window, rows first."""
    if not rep(x).is_zero:
        raise ValueError("descent probe requires a rep-zero element")
    t = coproduct(x)
    members = x.semigroup.members_upto(window)
    for c in members:
        for d in members:
            vals = t.apply((c, d))
            if vals:
                return (c, d), vals
    return None


def pointwise_descent_witness(x, window):
    """quantum.descent_witness's reference: every point some domain of x leaves
    out, up to window, tried as c and as d, rows first."""
    if not rep(x).is_zero:
        raise ValueError("descent probe requires a rep-zero element")
    left_out = 0
    for v in x.terms:
        left_out |= v.mask
    points = bit_positions(left_out & ((2 << window) - 1))
    for c in points:
        row = [(v.index, v.mask, a) for v, a in x.terms.items() if not v.mask >> c & 1]
        for d in points:
            vals = Combination.collect(None, (((c + i, d + i), a) for i, mask, a in row
                                              if not mask >> d & 1)).terms
            if vals:
                return (c, d), vals
    return None


def pointwise_diagonal(t, op, window):
    """suite_descent's diagonal claims by their definition: the whole tensor
    and the whole operator applied at every member up to window."""
    return all(t.apply((a, a)) == {(m, m): c for m, c in op.apply(a).items()}
               for a in op.semigroup.members_upto(window))


def pointwise_corner(x, a, window):
    """quantum.corner_diagram_check's reference: the whole coproduct and the
    whole rep(x) applied at every member c up to window with c + a a member,
    negative classes through the mirror image."""
    if a < 0:
        witness = pointwise_corner(x, -a, window)
        return None if witness is None else witness[::-1]
    s = x.semigroup
    t = coproduct(x)
    op = quantum.rep(x)
    for c in s.members_upto(window):
        if not s.contains(c + a):
            continue
        lhs = Combination.collect(None, ((l, coeff) for (l, _k), coeff
                                         in t.apply((c, c + a)).items())).terms
        rhs = {m: coeff for m, coeff in op.apply(c).items() if s.contains(m + a)}
        if lhs != rhs:
            return c, c + a
    return None


def dense_truncate(a, n):
    """numeric.truncate's reference: the complex128 compression built entry by
    entry over the reference weights and the legend, each entry the complex()
    of the weight's value at s_j."""
    s = a.semigroup
    legend = tuple(s.element_at(i) for i in range(n))
    position = {m: i for i, m in enumerate(legend)}
    mat = np.zeros((n, n), dtype=np.complex128)
    for c, (tail, exceptions) in reference_weights(a).items():
        for j, sj in enumerate(legend):
            i = position.get(sj + c)
            if i is not None:
                mat[i, j] = complex(exceptions.get(sj, tail))
    return mat


def first_words(start, steps, max_len) -> dict:
    """Each value that non-empty words of at most max_len letters reach from start,
    mapped to its first word: shortest first, then in letter order.

    steps pairs each letter with the map that puts it in front of a value.  A
    word's value depends only on its first letter and the value of the rest,
    so the search is breadth-first, one node per value; start is a key only
    when a non-empty word reaches it.
    """
    out: dict = {}
    frontier = [(start, ())]
    for _ in range(max_len):
        fresh = []
        for letter, step in steps:
            for rest, rest_word in frontier:
                value = step(rest)
                if value not in out:
                    out[value] = word = (letter,) + rest_word
                    fresh.append((value, word))
        frontier = fresh
    return out


def pairwise_morphism_falsify(s1, s2, m, max_word_len):
    """quantum.quantum_morphism_falsify's reference for one multiplier: the
    first-word searches run on the partial translations themselves, the word
    phase over (source, image) pairs to the end, and the whole kernel is built
    first."""
    if m < 0 or m not in morphism_multipliers(s1, s2, m):
        raise ValueError(f"{m} is not a morphism multiplier here")
    steps = [(l, functools.partial(compose, elementary(s1, *l))) for l in letters_of(s1)]
    words = first_words(elementary(s1, 0, False), steps, max_word_len)
    pts = sorted(words, key=lambda v: v.sort_key)

    def step(v, w):
        return lambda pair: (compose(v, pair[0]), compose(w, pair[1]))

    steps = [((a, st), step(elementary(s1, a, st), elementary(s2, m * a, st)))
             for a, st in letters_of(s1)]
    start = (elementary(s1, 0, False), elementary(s2, 0, False))
    image_for = {}
    for (v, img), word in first_words(start, steps, max_word_len).items():
        if image_for.setdefault(v, img) != img:
            return MorphismWitness("word", [(ONE, words[v])], [(ONE, word)], m)
    if m == 0:
        return None
    for kappa in list(monomial_kernel(pts)):
        image = FreeElement.collect(s2, ((image_for[pts[p]], c) for p, c in kappa))
        if not rep(image).is_zero:
            left = [(c, words[pts[p]]) for p, c in kappa if c.im != 0 or c.re > 0]
            right = [(-c, words[pts[p]]) for p, c in kappa if c.im == 0 and c.re < 0]
            return MorphismWitness("combination", left, right, m)
    return None


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """exprparse._tokenize's reference: the lexer that built one frozen _Token per
    token and looked punctuation up in a dict made for each character.  A
    number is ASCII digits only."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
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
    return [(t.kind, t.text, t.offset) for t in out]
