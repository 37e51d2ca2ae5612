"""Coalgebra layer on the free monomial basis.

The comultiplication x -> x (x) x is defined monomial-wise and lives on
formal combinations keyed by canonical partial translations.  It does not
factor through operator equality for semigroups with gaps (descent_witness
exhibits this), so everything here stays at the free level; rep() is the
forgetful map down to operators.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .scalars import Combination, GaussianRational, ONE, ZERO
from .semigroup import NumericalSemigroup, bit_positions
from .operators import OperatorElement, from_monomial, monomial_terms
from .translations import (PartialTranslation, Word, _leaving, _translation, cell_points,
                           compose, compose_state, elementary, evaluate_word)


_pt_sort_key = operator.attrgetter("sort_key")


class FreeElement(Combination):
    """Formal combination of monomials; the monomials are a free basis."""

    __slots__ = ()

    @classmethod
    def zero(cls, semigroup: NumericalSemigroup) -> "FreeElement":
        return cls(semigroup, {})

    @classmethod
    def monomial(cls, v: PartialTranslation) -> "FreeElement":
        return cls._new(v.semigroup, {v: ONE})

    @classmethod
    def identity(cls, semigroup: NumericalSemigroup) -> "FreeElement":
        return cls.monomial(elementary(semigroup, 0, False))

    def support(self) -> list[PartialTranslation]:
        return sorted(self.terms, key=_pt_sort_key)

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return self._product(other, compose)
        return super().__mul__(other)

    def star(self) -> "FreeElement":
        """Conjugate-linear involution: adjoint monomials, conjugated coefficients."""
        return FreeElement(self.semigroup,
                           {v.adjoint(): c.conjugate() for v, c in self.terms.items()})

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"({self.terms[v]})*{v}" for v in self.support())

    def __repr__(self):
        return f"FreeElement({self.semigroup!r}, {self.terms!r})"

    def to_json_list(self) -> list:
        return [[str(self.terms[v]), v.to_json_dict()] for v in self.support()]


class FreeTensor(Combination):
    """Formal combination of ordered monomial pairs over one semigroup."""

    __slots__ = ()

    def apply(self, pair: tuple[int, int]) -> dict[tuple[int, int], GaussianRational]:
        """Basis action at a member pair; either dead leg kills the term."""
        c, d = pair
        s = self.semigroup
        if not s.contains(c) or not s.contains(d):
            raise ValueError(f"pair {pair} is not a member pair")
        images = (((v.apply(c), w.apply(d)), coeff)
                  for (v, w), coeff in self.terms.items())
        return Combination.collect(None, (p for p in images if None not in p[0])).terms

    def __repr__(self):
        return f"FreeTensor({self.semigroup!r}, {len(self.terms)} terms)"

    def to_json_list(self) -> list:
        items = sorted(self.terms.items(),
                       key=lambda kv: (_pt_sort_key(kv[0][0]), _pt_sort_key(kv[0][1])))
        return [[v.to_json_dict(), w.to_json_dict(), str(c)] for (v, w), c in items]


# -- comultiplication ---------------------------------------------------------


def rep(x: FreeElement) -> OperatorElement:
    """Forgetful map to the operator algebra; not injective when gaps exist."""
    return OperatorElement.collect(x.semigroup, (p for v, c in x.terms.items()
                                                 for p in monomial_terms(v, c)))


def coproduct(x: FreeElement) -> FreeTensor:
    """Diagonal lift of the basis expansion.

    Coassociative by construction: both ways of applying it twice send each
    basis monomial V to V (x) V (x) V.
    """
    return FreeTensor(x.semigroup, {(v, v): c for v, c in x.terms.items()})


def tensor_of(x: FreeElement, y: FreeElement) -> FreeTensor:
    """Plain tensor x (x) y, expanded bilinearly over both bases."""
    return x._product(y, lambda v, w: (v, w), FreeTensor)


def tensor_multiply(s: FreeTensor, t: FreeTensor) -> FreeTensor:
    def pair_product(p, q):
        u = compose(p[0], q[0])  # once for two diagonal pairs, as coproduct builds them
        return (u, u) if p[1] is p[0] and q[1] is q[0] else (u, compose(p[1], q[1]))

    return s._product(t, pair_product)


# -- weak Hopf structure -------------------------------------------------------


def weak_antipode(x: FreeElement) -> FreeElement:
    """Linear extension of monomial adjoint; coefficients are untouched."""
    return FreeElement.collect(x.semigroup,
                               ((v.adjoint(), c) for v, c in x.terms.items()))


def weak_hopf_check(x: FreeElement) -> bool:
    """Both antipode axioms, folded over the triple coproduct V (x) V (x) V."""
    s = x.semigroup
    triples = [(v, v.adjoint(), c) for v, c in x.terms.items()]
    lhs_id = FreeElement.collect(s, ((compose(compose(v, vs), v), c)
                                     for v, vs, c in triples))
    lhs_t = FreeElement.collect(s, ((compose(compose(vs, v), vs), c)
                                    for v, vs, c in triples))
    return lhs_id == x and lhs_t == weak_antipode(x)


def group_like_detect(x: FreeElement) -> Optional[int]:
    """Index of the canonical isometric generator equal to x, if there is one.

    x is group-like (coproduct x (x) x) with an isometric image exactly when
    it is one full-domain monomial with the exact coefficient 1.
    """
    if len(x.terms) == 1:
        ((v, coeff),) = x.terms.items()
        if coeff == ONE and not v.mask:
            return v.index
    return None


def coideal_decomposition(v: PartialTranslation, w: PartialTranslation
                          ) -> tuple[FreeElement, FreeTensor, FreeTensor]:
    """The commutator vw - wv and the two summands of its coproduct's expansion
    D(vw - wv) = (vw - wv) (x) vw + wv (x) (vw - wv), as (commutator, first, second).
    """
    vw = FreeElement.monomial(compose(v, w))
    wv = FreeElement.monomial(compose(w, v))
    comm = vw - wv
    return comm, tensor_of(comm, vw), tensor_of(wv, comm)


# -- descent and corner probes ----------------------------------------------------


def descent_witness(x: FreeElement, window: int
                    ) -> Optional[tuple[tuple[int, int], dict]]:
    """First member pair where the coproduct of a rep-zero element acts nonzero.

    Returns ((c, d), values) for the lexicographically first witness up to
    window, or None.  Only points some domain of x leaves out are tried: if
    every domain holds c, row c acts at (c, d) as rep(x) = 0 acts on e_d,
    index class by index class; by symmetry the same holds for d.  And only
    the lowest point of each domain cell is tried: the terms acting at (c, d)
    are those whose domains hold c and d, so the points of one cell witness
    alike, and the lowest comes first.
    """
    if not rep(x).is_zero:
        raise ValueError("descent probe requires a rep-zero element")
    left_out = 0
    for v in x.terms:
        left_out |= v.mask
    points = cell_points(left_out & ((2 << window) - 1), [v.mask for v in x.terms])
    for c in points:
        row = [(v.index, v.mask, a) for v, a in x.terms.items() if not v.mask >> c & 1]
        for d in points:
            vals = Combination.collect(None, (((c + i, d + i), a) for i, mask, a in row
                                              if not mask >> d & 1)).terms
            if vals:
                return (c, d), vals
    return None


def corner_diagram_check(x: FreeElement, a: int, window: int
                         ) -> Optional[tuple[int, int]]:
    """First pair where the coproduct fails to compress consistently on one
    difference class, or None.

    For class a >= 0 and pairs (c, c+a): the first-leg collapse of the
    coproduct action must match the basis action of rep(x) at c, projected
    onto points that stay members after shifting by a.  Decided one index
    class i at a time: a term keeps c when its mask leaves out neither c nor
    c+a, and rep(x) is zero where c+i+a leaves the semigroup.  At the points
    no term of the class leaves out and where rep(x)'s weight takes its tail,
    the class gives its coefficient sum and rep(x) its tail, so the lowest one
    decides all; the other points are compared one by one.  The failing pair
    reported has the lowest c across all classes.  The coproduct is
    flip-symmetric, so negative classes are checked through the mirror image
    (witnesses are reported in the original orientation).
    """
    if a < 0:
        witness = corner_diagram_check(x, -a, window)
        return None if witness is None else witness[::-1]
    s = x.semigroup
    weights = rep(x).weights()
    classes: dict[int, list] = {i: [] for i in weights}
    for v, coeff in x.terms.items():
        classes.setdefault(v.index, []).append((v.mask | v.mask >> a, coeff))
    points = ((2 << window) - 1) & ~(s.gapmask | _leaving(s, a))
    first = None
    for i, terms in classes.items():
        tail, exceptions = weights.get(i, (ZERO, {}))
        cut = _leaving(s, i + a)
        varying = cut | sum(1 << d for d in exceptions)
        for mask, _coeff in terms:
            varying |= mask
        steady = points & ~varying  # the lowest one stands for all of them
        for c in bit_positions(points & varying | steady & -steady):
            if first is not None and c >= first:
                break
            value = sum((coeff for mask, coeff in terms if not mask >> c & 1), ZERO)
            target = ZERO if cut >> c & 1 else exceptions.get(c, tail)
            if value != target and (value or target):  # a zero is an absent key
                first = c
                break
    return None if first is None else (first, first + a)


# -- short-word search and the morphism falsifier ---------------------------------


def letters_of(semigroup: NumericalSemigroup) -> list[tuple[int, bool]]:
    out = [(g, False) for g in semigroup.generators]
    out.extend((g, True) for g in semigroup.generators)
    return out


def enumerate_words(semigroup: NumericalSemigroup, max_len: int
                    ) -> Iterator[tuple[Word, PartialTranslation]]:
    """All non-empty words up to max_len, one by one: distinct_monomials' brute-force reference."""
    letters = letters_of(semigroup)
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield combo, evaluate_word(semigroup, combo)


def _source_automaton(semigroup: NumericalSemigroup, max_len: int) -> tuple:
    """The monomials short words reach, numbered (the identity 0, the rest in
    first-word order: shortest first, then in letter order); the first word of
    each number a non-empty word reaches; per letter, its moves i -> j from every
    monomial reached by fewer than max_len letters; and those numbers by level.
    The walk is breadth-first over (index, mask) states: a word's value depends
    only on its first letter and the value of the rest."""
    letters = letters_of(semigroup)
    number, words = {(0, 0): 0}, {}
    moves: list[dict] = [{} for _ in letters]
    frontier, levels = [(0, (0, 0), ())], []
    for _ in range(max_len):
        levels.append([k for k, _, _ in frontier])
        fresh = []
        for letter, move in zip(letters, moves):
            v = elementary(semigroup, *letter)
            for k, state, rest in frontier:
                reached = compose_state(v, state)
                j = move[k] = number.setdefault(reached, len(number))
                if j not in words:
                    words[j] = word = (letter,) + rest
                    fresh.append((j, reached, word))
        frontier = fresh
    return [_translation(semigroup, *state) for state in number], words, moves, levels


def distinct_monomials(semigroup: NumericalSemigroup, max_len: int
                       ) -> dict[PartialTranslation, Word]:
    """Canonical monomials reachable by short words, with their first words."""
    pts, words, _, _ = _source_automaton(semigroup, max_len)
    return {pts[i]: word for i, word in words.items()}


def monomial_kernel(pts: Sequence[PartialTranslation]
                    ) -> Iterator[list[tuple[int, GaussianRational]]]:
    """Kernel basis of the operator span of distinct monomials, exact.

    The span decomposes by index, so the kernel is assembled per index class
    in increasing index order, a class eliminated when the vectors before it
    are used up; the columns are the monomials' operator terms, and each
    vector is its nonzero (position in pts, coefficient) pairs, in position order.
    """
    by_index: dict[int, list[int]] = {}
    for i, v in enumerate(pts):
        by_index.setdefault(v.index, []).append(i)
    for _, positions in sorted(by_index.items()):
        cols = [from_monomial(pts[i]).terms for i in positions]
        for vec in exact_nullspace(cols):
            yield [(p, x) for p, x in zip(positions, vec) if x]


def exact_nullspace(columns: Sequence[dict]) -> list[list[GaussianRational]]:
    """Kernel basis of the linear map (l1..ln) -> sum li * column_i, exact.

    Reduced row echelon on sparse rows {column: value}, each pivot row the
    shortest holding its column: the reduced form is unique whatever the choice.
    """
    by_key: dict = {}
    for j, col in enumerate(columns):
        for k, v in col.items():
            by_key.setdefault(k, {})[j] = v
    rest = list(by_key.values())
    pivots: dict[int, dict[int, GaussianRational]] = {}
    for col in range(len(columns)):
        holding = [i for i, row in enumerate(rest) if col in row]
        if not holding:
            continue
        row = rest.pop(min(holding, key=lambda i: len(rest[i])))
        inv = ONE / row[col]
        row = {j: v * inv for j, v in row.items()}
        for other in itertools.chain(rest, pivots.values()):
            f = other.get(col)
            if f is not None:
                for j, v in row.items():
                    x = other[j] - f * v if j in other else -f * v
                    if x:
                        other[j] = x
                    else:
                        del other[j]
        pivots[col] = row

    basis = []
    for fc in (j for j in range(len(columns)) if j not in pivots):
        vec = [ZERO] * len(columns)
        vec[fc] = ONE
        for pc, row in pivots.items():
            vec[pc] = -row.get(fc, ZERO)
        basis.append(vec)
    return basis


@dataclass
class MorphismWitness:
    """Two expressions equal over the source semigroup with unequal images."""
    kind: str                     # "word" or "combination"
    left: list[tuple[GaussianRational, Word]]
    right: list[tuple[GaussianRational, Word]]
    multiplier: int

    def to_json_dict(self) -> dict:
        def side(terms):
            return [[str(c), [[a, st] for a, st in w]] for c, w in terms]
        return {"kind": self.kind, "multiplier": self.multiplier,
                "left": side(self.left), "right": side(self.right)}


def _image_states(s1: NumericalSemigroup, s2: NumericalSemigroup, m: int, words: dict,
                  moves: list, levels: list):
    """Semigroup level: label each source number, in first-word order, with the (index,
    mask) state of its word's image.  Until a number gets a second label, words reach one
    (source, image) pair per number, so the first with two gives the word witness instead."""
    steps = [(elementary(s2, m * a, st), {}) for a, st in letters_of(s1)]
    image_for: list = [None] * (len(words) + 1)  # one per number, the identity's included
    for depth, level in enumerate(levels):
        frontier = [(k, image_for[k]) for k in level] if depth else [(0, (0, 0))]
        for letter, move, (v, to) in zip(letters_of(s1), moves, steps):
            for k, image in frontier:
                j = to.get(image) or to.setdefault(image, compose_state(v, image))
                i = move[k]
                first = image_for[i]
                if first is None:
                    image_for[i] = j
                elif first != j:
                    word = (letter,) + (words[k] if depth else ())
                    return MorphismWitness("word", [(ONE, words[i])], [(ONE, word)], m)
    return image_for


def quantum_morphism_falsify(s1: NumericalSemigroup, s2: NumericalSemigroup,
                             multipliers: Sequence[int], max_word_len: int
                             ) -> list[Optional[MorphismWitness]]:
    """Search for an obstruction to each letter map T_a -> T_{m*a}, m in multipliers.

    Two phases, both exhaustive up to the word length: words equal as source
    operators must have equal images (semigroup level), and every rational
    dependence among source monomials must map to a dependence among the
    images (linear level).  Absence of a witness means "consistent up to this
    length", not that a morphism exists.  Witnesses are spelled with first
    words (see _source_automaton).  All multipliers share one source automaton
    and one pass over its kernel, eliminated only until each has its witness.
    """
    for m in multipliers:
        if m < 0 or not all(s2.contains(m * g) for g in s1.generators):
            raise ValueError(f"{m} is not a morphism multiplier here")
    found: list[Optional[MorphismWitness]] = [None] * len(multipliers)
    if not any(multipliers):  # every image is the identity, and the widest-translation key
        return found  # makes each dependence's coefficients sum to 0: no m = 0 has a witness
    pts, words, moves, levels = _source_automaton(s1, max_word_len)
    # position in multipliers -> the image state of each source number, or a word witness
    open_scans = {n: _image_states(s1, s2, m, words, moves, levels)
                  for n, m in enumerate(multipliers) if m}
    for n, images in list(open_scans.items()):
        if isinstance(images, MorphismWitness):
            found[n] = open_scans.pop(n)

    # Linear level: dependences among the source monomials must stay
    # dependences among the images, each built from its state.
    order = sorted(words, key=lambda i: pts[i].sort_key)
    kernel = monomial_kernel([pts[i] for i in order])
    while open_scans and (kappa := next(kernel, None)) is not None:
        for n, image_for in list(open_scans.items()):
            image = FreeElement.collect(s2, ((_translation(s2, *image_for[order[p]]), c)
                                             for p, c in kappa))
            if not rep(image).is_zero:
                left = [(c, words[order[p]]) for p, c in kappa if c.im != 0 or c.re > 0]
                right = [(-c, words[order[p]]) for p, c in kappa if c.im == 0 and c.re < 0]
                found[n] = MorphismWitness("combination", left, right, multipliers[n])
                del open_scans[n]
    return found
