"""Coalgebra layer on the free monomial basis.

The comultiplication x -> x (x) x is defined monomial-wise and lives on
formal combinations keyed by canonical partial translations.  It does not
factor through operator equality for semigroups with gaps (descent_witness
exhibits this), so everything here stays at the free level; rep() is the
forgetful map down to operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .scalars import Combination, GaussianRational, ONE, ZERO
from .semigroup import NumericalSemigroup, morphism_multipliers
from .operators import LaurentPolynomial, OperatorElement, from_monomial
from .translations import (PartialTranslation, Word, compose, elementary,
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
    acc = OperatorElement.zero(x.semigroup)
    for v, c in x.terms.items():
        acc = acc + from_monomial(v).scale(c)
    return acc


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

    Returns ((c, d), values) for the lexicographically first witness, or None.
    """
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


# -- word enumeration and the morphism falsifier ------------------------------------


def letters_of(semigroup: NumericalSemigroup) -> list[tuple[int, bool]]:
    out = [(g, False) for g in semigroup.generators]
    out.extend((g, True) for g in semigroup.generators)
    return out


def enumerate_words(semigroup: NumericalSemigroup, max_len: int
                    ) -> Iterator[tuple[Word, PartialTranslation]]:
    """All non-empty words up to max_len, in deterministic order."""
    letters = letters_of(semigroup)
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield combo, evaluate_word(semigroup, combo)


def distinct_monomials(semigroup: NumericalSemigroup, max_len: int
                       ) -> dict[PartialTranslation, Word]:
    """Canonical monomials reachable by short words, with first-found words."""
    out: dict[PartialTranslation, Word] = {}
    for word, pt in enumerate_words(semigroup, max_len):
        out.setdefault(pt, word)
    return out


def _operator_coordinates(elements: Sequence[OperatorElement]) -> list[dict]:
    """Faithful finite coordinates shared by a family of elements."""
    window: dict[int, int] = {}
    for el in elements:
        for c, w in el.components.items():
            window[c] = max(window.get(c, 0), w.threshold)
    coords = []
    for el in elements:
        vec: dict[tuple, GaussianRational] = {}
        for c, hi in window.items():
            w = el.weight_at(c)
            if not w.tail.is_zero:
                vec[("tail", c)] = w.tail
            for d in el.semigroup.members_upto(hi - 1):
                v = w.value(d)
                if not v.is_zero:
                    vec[("at", c, d)] = v
        coords.append(vec)
    return coords


def monomial_kernel(pts: Sequence[PartialTranslation]) -> list[list[GaussianRational]]:
    """Kernel basis of the operator span of distinct monomials, exact.

    The span decomposes by index, so the kernel is assembled per index class
    in increasing index order; each vector has one coordinate per entry of pts.
    """
    by_index: dict[int, list[int]] = {}
    for i, v in enumerate(pts):
        by_index.setdefault(v.index, []).append(i)
    kernel: list[list[GaussianRational]] = []
    for c in sorted(by_index):
        positions = by_index[c]
        cols = _operator_coordinates([from_monomial(pts[i]) for i in positions])
        for vec in exact_nullspace(cols):
            full = [ZERO] * len(pts)
            for coeff, pos in zip(vec, positions):
                full[pos] = coeff
            kernel.append(full)
    return kernel


def exact_nullspace(columns: Sequence[dict]) -> list[list[GaussianRational]]:
    """Kernel basis of the linear map (l1..ln) -> sum li * column_i, exact."""
    keys = sorted(set().union(*columns)) if columns else []
    n = len(columns)
    rows = [[columns[j].get(k, ZERO) for j in range(n)] for k in keys]

    # Reduced row echelon over the exact scalar field.
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
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break

    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n
        vec[fc] = ONE
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
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


@dataclass
class _FalsifierContext:
    """Word enumeration data reused across multipliers for one source."""
    # per source monomial: list of (offset frozenset, representative word)
    classes: dict[PartialTranslation, list[tuple[frozenset, Word]]]
    pts: list[PartialTranslation]
    kernel: list[list[GaussianRational]]


# Only the most recent context is kept: a multiplier scan reuses one key, and
# a context for a long word length is large.
_falsifier_cache: dict[tuple, _FalsifierContext] = {}


def _falsifier_context(s1: NumericalSemigroup, max_word_len: int) -> _FalsifierContext:
    key = (s1, max_word_len)
    ctx = _falsifier_cache.get(key)
    if ctx is not None:
        return ctx
    _falsifier_cache.clear()
    from .translations import word_offsets

    classes: dict[PartialTranslation, dict[frozenset, Word]] = {}
    for word, pt in enumerate_words(s1, max_word_len):
        offs = frozenset(word_offsets(s1, word))
        classes.setdefault(pt, {}).setdefault(offs, word)

    pts = sorted(classes, key=_pt_sort_key)
    ctx = _FalsifierContext({v: sorted(d.items()) for v, d in classes.items()},
                            pts, monomial_kernel(pts))
    _falsifier_cache[key] = ctx
    return ctx


def quantum_morphism_falsify(s1: NumericalSemigroup, s2: NumericalSemigroup,
                             m: int, max_word_len: int) -> Optional[MorphismWitness]:
    """Search for an obstruction to the letter map T_a -> T_{m*a}.

    Two phases, both exhaustive up to the word length: words equal as source
    operators must have equal images (semigroup level), and every rational
    dependence among source monomials must map to a dependence among the
    images (linear level).  Absence of a witness means "consistent up to this
    length", not that a morphism exists.
    """
    if m < 0 or m not in morphism_multipliers(s1, s2, m):
        raise ValueError(f"{m} is not a morphism multiplier here")
    from .translations import pt_from_offsets

    ctx = _falsifier_context(s1, max_word_len)

    def image_by_offsets(pt: PartialTranslation, offs: frozenset) -> PartialTranslation:
        return pt_from_offsets(s2, m * pt.index, (m * t for t in offs))

    # Semigroup level: every word route to the same source monomial must give
    # the same image.  Images depend on the word only through its offset set,
    # so the distinct offset classes per monomial are compared.
    image_for: dict[PartialTranslation, PartialTranslation] = {}
    for v in ctx.pts:
        entries = ctx.classes[v]
        img0 = image_by_offsets(v, entries[0][0])
        image_for[v] = img0
        for offs, word in entries[1:]:
            img = image_by_offsets(v, offs)
            if img != img0:
                return MorphismWitness("word", [(ONE, entries[0][1])],
                                       [(ONE, word)], m)

    # Linear level: dependences among the source monomials must stay
    # dependences among the images.
    for kappa in ctx.kernel:
        image = OperatorElement.zero(s2)
        for coeff, v in zip(kappa, ctx.pts):
            if not coeff.is_zero:
                image = image + from_monomial(image_for[v]).scale(coeff)
        if not image.is_zero:
            left = [(c, ctx.classes[v][0][1]) for c, v in zip(kappa, ctx.pts)
                    if not c.is_zero and (c.im != 0 or c.re > 0)]
            right = [(-c, ctx.classes[v][0][1]) for c, v in zip(kappa, ctx.pts)
                     if not c.is_zero and c.im == 0 and c.re < 0]
            return MorphismWitness("combination", left, right, m)
    return None


# -- exhaustive group-like survey -----------------------------------------------


def group_like_survey(semigroup: NumericalSemigroup, max_word_len: int,
                      coefficients: Sequence[GaussianRational],
                      max_terms: int, detect_stride: int = 37) -> set[int]:
    """Indices detected as group-like isometries among small free combinations.

    Every combination of up to max_terms distinct short-word monomials with
    nonzero pool coefficients is decided.  Single terms run the full
    detector per coefficient.  For a multi-term support the refusal is
    coefficient-independent: the tensor square carries the cross entry
    (V1, V2) with coefficient l1*l2, nonzero because the scalars form an
    integral domain and the pool is zero-free, while the diagonal coproduct
    has no off-diagonal key.  That cross entry is verified per support set;
    the full detector additionally runs on all pairs and on every
    detect_stride-th larger support.  Returns the set of detected indices.
    """
    if any(lam.is_zero for lam in coefficients):
        raise ValueError("coefficient pool must be zero-free")
    monos = sorted(distinct_monomials(semigroup, max_word_len), key=_pt_sort_key)
    found: set[int] = set()
    for v in monos:
        for lam in coefficients:
            c = group_like_detect(FreeElement(semigroup, {v: lam}))
            if c is not None:
                if lam != ONE or not v.domain.is_full:
                    raise AssertionError("group-like detection off a canonical generator")
                found.add(c)
    for k in range(2, max_terms + 1):
        for i, vs in enumerate(itertools.combinations(monos, k)):
            x1 = FreeElement(semigroup, {v: ONE for v in vs})
            if coproduct(x1).terms.get((vs[0], vs[1])) is not None:
                raise AssertionError("diagonal coproduct grew an off-diagonal key")
            if (k == 2 or i % detect_stride == 0) and group_like_detect(x1) is not None:
                raise AssertionError("multi-term element detected as group-like")
    return found
