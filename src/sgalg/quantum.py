"""Coalgebra layer on the free monomial basis.

The comultiplication x -> x (x) x is defined monomial-wise and lives on
formal combinations keyed by canonical partial translations.  It does not
factor through operator equality for semigroups with gaps (descent_witness
exhibits this), so everything here stays at the free level; rep() is the
forgetful map down to operators.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Optional, Sequence

from .scalars import Combination, GaussianRational, ONE, ZERO
from .semigroup import NumericalSemigroup, bit_positions, morphism_multipliers
from .operators import LaurentPolynomial, OperatorElement, from_monomial
from .translations import (Letter, PartialTranslation, Word, compose, elementary,
                           evaluate_word)


def _pt_sort_key(v: PartialTranslation):
    return v.sort_key


class FreeElement(Combination):
    """Formal combination of monomials; the monomials are a free basis."""

    __slots__ = ()

    @classmethod
    def zero(cls, semigroup: NumericalSemigroup) -> "FreeElement":
        return cls(semigroup, {})

    @classmethod
    def monomial(cls, v: PartialTranslation, coeff=1) -> "FreeElement":
        return cls(v.semigroup, {v: coeff})

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

    def conjugate_by_shift(self, e: int) -> "FreeElement":
        """Basis-wise shift conjugation V -> T_e* V T_e inside the free algebra."""
        s = self.semigroup
        if not s.contains(e):
            raise ValueError(f"{e} is not a member")
        te = elementary(s, e, False)
        te_star = elementary(s, e, True)
        return FreeElement.collect(s, ((compose(te_star, compose(v, te)), c)
                                       for v, c in self.terms.items()))

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
    return OperatorElement.collect(x.semigroup, ((k, c * u) for v, c in x.terms.items()
                                                 for k, u in from_monomial(v).terms.items()))


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
    return s._product(t, lambda p, q: (compose(p[0], q[0]), compose(p[1], q[1])))


def tensor_adjoint(s: FreeTensor) -> FreeTensor:
    return FreeTensor.collect(s.semigroup,
                              (((v.adjoint(), w.adjoint()), c.conjugate())
                               for (v, w), c in s.terms.items()))


# -- weak Hopf structure -------------------------------------------------------


def weak_antipode(x: FreeElement) -> FreeElement:
    """Linear extension of monomial adjoint; coefficients are untouched."""
    return FreeElement.collect(x.semigroup,
                               ((v.adjoint(), c) for v, c in x.terms.items()))


@dataclass
class WeakHopfResult:
    passed: bool
    identity_side: FreeElement
    antipode_side: FreeElement
    witness: Optional[PartialTranslation]


def weak_hopf_check(x: FreeElement) -> WeakHopfResult:
    """Both antipode axioms, folded over the triple coproduct V (x) V (x) V."""
    s = x.semigroup
    triples = [(v, v.adjoint(), c) for v, c in x.terms.items()]
    lhs_id = FreeElement.collect(s, ((compose(compose(v, vs), v), c)
                                     for v, vs, c in triples))
    lhs_t = FreeElement.collect(s, ((compose(compose(vs, v), vs), c)
                                    for v, vs, c in triples))

    expect_t = weak_antipode(x)
    ok = (lhs_id == x) and (lhs_t == expect_t)
    witness = None
    if not ok:
        bad = (lhs_id - x) + (lhs_t - expect_t)
        if bad.terms:
            witness = bad.support()[0]
    return WeakHopfResult(ok, lhs_id, lhs_t, witness)


def group_like_detect(x: FreeElement) -> Optional[int]:
    """Index of the canonical isometric generator equal to x, if there is one.

    Requires the coproduct of x to be exactly x (x) x and rep(x) to be an
    isometry; those two force a single full-domain monomial with unit
    coefficient, whose index is returned.
    """
    if x.is_zero or coproduct(x) != tensor_of(x, x):
        return None
    if not rep(x).is_isometry():
        return None
    (v,) = x.terms
    return v.index


def coideal_decomposition(v: PartialTranslation, w: PartialTranslation
                          ) -> tuple[FreeTensor, FreeTensor, bool]:
    """The two-summand expansion of the coproduct of a commutator.

    Returns (first summand, second summand, identity-verified flag) for
    D(vw - wv) = (vw - wv) (x) vw + wv (x) (vw - wv).
    """
    s = v.semigroup
    vw = FreeElement.monomial(compose(v, w))
    wv = FreeElement.monomial(compose(w, v))
    comm = vw - wv
    s1 = tensor_of(comm, vw)
    s2 = tensor_of(wv, comm)
    ok = (s1 + s2) == coproduct(comm)
    return s1, s2, ok


# -- coaction -------------------------------------------------------------------


def delta_coaction(x: FreeElement) -> dict[PartialTranslation,
                                           tuple[GaussianRational, LaurentPolynomial]]:
    """Coaction values V -> (coefficient, character at the monomial's index)."""
    return {v: (c, LaurentPolynomial.character(v.index))
            for v, c in x.terms.items()}


def coaction_fixed(x: FreeElement) -> bool:
    """Whether the coaction fixes x, i.e. every basis monomial has index zero."""
    return all(v.index == 0 for v in x.terms)


# -- descent and corner probes ----------------------------------------------------


def descent_witness(x: FreeElement, window: int
                    ) -> Optional[tuple[tuple[int, int], dict]]:
    """First member pair where the coproduct of a rep-zero element acts nonzero.

    Returns ((c, d), values) for the lexicographically first witness up to
    window, or None.  Only points some domain of x leaves out are tried: if
    every domain holds c, row c acts at (c, d) as rep(x) = 0 acts on e_d,
    index class by index class; by symmetry the same holds for d.
    """
    if not rep(x).is_zero:
        raise ValueError("descent probe requires a rep-zero element")
    left_out = 0
    for v in x.terms:
        left_out |= v.domain.mask
    points = bit_positions(left_out & ((2 << window) - 1))
    for c in points:
        row = [(v.index, v.domain.mask, a) for v, a in x.terms.items()
               if not v.domain.mask >> c & 1]
        for d in points:
            vals = Combination.collect(None, (((c + i, d + i), a) for i, mask, a in row
                                              if not mask >> d & 1)).terms
            if vals:
                return (c, d), vals
    return None


@dataclass
class CornerResult:
    passed: bool
    witness: Optional[tuple[int, int]]


def corner_diagram_check(x: FreeElement, a: int, window: int) -> CornerResult:
    """Compression consistency of the coproduct on one difference class.

    For class a >= 0 and pairs (c, c+a): the first-leg collapse of the
    coproduct action must match the basis action of rep(x) at c, projected
    onto points that stay members after shifting by a.  The coproduct is
    flip-symmetric, so negative classes are checked through the mirror image
    (witnesses are reported in the original orientation).
    """
    if a < 0:
        res = corner_diagram_check(x, -a, window)
        if res.witness is not None:
            c, d = res.witness
            return CornerResult(res.passed, (d, c))
        return res
    s = x.semigroup
    t = coproduct(x)
    op = rep(x)
    for c in s.members_upto(window):
        if not s.contains(c + a):
            continue
        lhs = Combination.collect(None, ((l, coeff) for (l, _k), coeff
                                         in t.apply((c, c + a)).items())).terms
        rhs = {m: coeff for m, coeff in op.apply(c).items()
               if s.contains(m + a)}
        if lhs != rhs:
            return CornerResult(False, (c, c + a))
    return CornerResult(True, None)


# -- short-word search and the morphism falsifier ---------------------------------


def letters_of(semigroup: NumericalSemigroup) -> list[tuple[int, bool]]:
    out = [(g, False) for g in semigroup.generators]
    out.extend((g, True) for g in semigroup.generators)
    return out


def enumerate_words(semigroup: NumericalSemigroup, max_len: int
                    ) -> Iterator[tuple[Word, PartialTranslation]]:
    """All non-empty words up to max_len, one by one: first_words' brute-force reference."""
    letters = letters_of(semigroup)
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield combo, evaluate_word(semigroup, combo)


def first_words(start: Hashable, steps: Sequence[tuple[Letter, Callable]],
                max_len: int) -> dict:
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


def _numbering_step(v: PartialTranslation, pts: list, number: dict, move: dict):
    """v put in front of numbered monomials: one compose per number, new products numbered."""
    def step(i: int) -> int:
        j = move.get(i)
        if j is None:
            u = compose(v, pts[i])
            j = move[i] = number.setdefault(u, len(pts))
            if j == len(pts):
                pts.append(u)
        return j
    return step


def _source_automaton(semigroup: NumericalSemigroup, max_len: int) -> tuple:
    """The monomials short words reach, numbered (the identity 0, the rest in
    first-word order); each reached number's first word; per letter, its moves
    i -> j from every monomial reached by fewer than max_len letters."""
    pts = [elementary(semigroup, 0, False)]
    number, letters = {pts[0]: 0}, letters_of(semigroup)
    moves: list[dict] = [{} for _ in letters]
    steps = [(l, _numbering_step(elementary(semigroup, *l), pts, number, move))
             for l, move in zip(letters, moves)]
    return pts, first_words(0, steps, max_len), moves


def distinct_monomials(semigroup: NumericalSemigroup, max_len: int
                       ) -> dict[PartialTranslation, Word]:
    """Canonical monomials reachable by short words, with their first words."""
    pts, words, _ = _source_automaton(semigroup, max_len)
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


@functools.lru_cache(maxsize=1)
def _falsifier_context(s1: NumericalSemigroup, max_word_len: int):
    """The source automaton, its reached numbers in monomial sort order, and a tee of
    their kernel: each copy replays the classes eliminated so far, then eliminates on."""
    pts, words, moves = _source_automaton(s1, max_word_len)
    order = sorted(words, key=lambda i: pts[i].sort_key)
    return words, moves, order, itertools.tee(monomial_kernel([pts[i] for i in order]), 1)[0]


def quantum_morphism_falsify(s1: NumericalSemigroup, s2: NumericalSemigroup,
                             m: int, max_word_len: int) -> Optional[MorphismWitness]:
    """Search for an obstruction to the letter map T_a -> T_{m*a}.

    Two phases, both exhaustive up to the word length: words equal as source
    operators must have equal images (semigroup level), and every rational
    dependence among source monomials must map to a dependence among the
    images (linear level).  Absence of a witness means "consistent up to this
    length", not that a morphism exists.  Witnesses are spelled with first
    words (see first_words).
    """
    if m < 0 or m not in morphism_multipliers(s1, s2, m):
        raise ValueError(f"{m} is not a morphism multiplier here")
    words, moves, order, kernel = _falsifier_context(s1, max_word_len)

    # Semigroup level: search the (source, image) number pairs that words reach,
    # images numbered as they appear; a source monomial with two images is a witness.
    images = [elementary(s2, 0, False)]
    image_number, steps = {images[0]: 0}, []
    for (a, st), move in zip(letters_of(s1), moves):
        to = _numbering_step(elementary(s2, m * a, st), images, image_number, {})
        steps.append(((a, st), lambda pair, move=move, to=to: (move[pair[0]], to(pair[1]))))
    image_for: dict[int, int] = {}
    for (i, j), word in first_words((0, 0), steps, max_word_len).items():
        if image_for.setdefault(i, j) != j:
            return MorphismWitness("word", [(ONE, words[i])], [(ONE, word)], m)

    # Linear level: dependences among the source monomials must stay
    # dependences among the images.  With m = 0 every image is the identity,
    # and the widest-translation key makes each dependence's coefficients sum to 0.
    if m == 0:
        return None
    try:
        for kappa in copy.copy(kernel):
            image = FreeElement.collect(s2, ((images[image_for[order[p]]], c) for p, c in kappa))
            if not rep(image).is_zero:
                left = [(c, words[order[p]]) for p, c in kappa if c.im != 0 or c.re > 0]
                right = [(-c, words[order[p]]) for p, c in kappa if c.im == 0 and c.re < 0]
                return MorphismWitness("combination", left, right, m)
    except BaseException:  # an elimination cut short would end every later copy early
        _falsifier_context.cache_clear()
        raise
    return None


# -- exhaustive group-like survey -----------------------------------------------


def group_like_survey(semigroup: NumericalSemigroup, max_word_len: int,
                      coefficients: Sequence[GaussianRational]) -> set[int]:
    """Indices detected as group-like among the short-word monomials.

    The detector runs on every distinct monomial up to max_word_len words
    long, times every pool coefficient.  A combination of several monomials
    is never group-like: its tensor square has an off-diagonal entry that the
    diagonal coproduct lacks.
    """
    monos = sorted(distinct_monomials(semigroup, max_word_len), key=_pt_sort_key)
    detected = (group_like_detect(FreeElement(semigroup, {v: lam}))
                for v in monos for lam in coefficients)
    return {c for c in detected if c is not None}
