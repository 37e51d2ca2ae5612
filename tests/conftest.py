"""Checks shared by several test modules."""

import functools
import itertools

import numpy as np
import pytest

from sgalg.scalars import ONE, ZERO
from sgalg.operators import from_monomial
from sgalg.semigroup import morphism_multipliers
from sgalg.translations import compose, elementary
from sgalg.quantum import (FreeElement, MorphismWitness, coproduct, distinct_monomials,
                           first_words, group_like_detect, letters_of, monomial_kernel, rep)


def group_like_invariants_hold(semigroup, max_word_len, coefficients, max_terms,
                               detect_stride=37) -> bool:
    """What the group-like survey's answer rests on, over its short-word monomials.

    Only a unit-coefficient full-domain monomial is detected.  For a support
    of several monomials the diagonal coproduct has no off-diagonal key while
    the tensor square has one (its coefficient is a product of nonzero
    scalars), so no such support is group-like; the detector itself runs on
    every pair and on every detect_stride-th larger support.
    """
    monos = sorted(distinct_monomials(semigroup, max_word_len), key=lambda v: v.sort_key)
    for v in monos:
        for lam in coefficients:
            if group_like_detect(FreeElement(semigroup, {v: lam})) is not None:
                if lam != ONE or not v.domain.is_full:
                    return False
    for k in range(2, max_terms + 1):
        for i, vs in enumerate(itertools.combinations(monos, k)):
            x = FreeElement(semigroup, {v: ONE for v in vs})
            if (vs[0], vs[1]) in coproduct(x).terms:
                return False
            if (k == 2 or i % detect_stride == 0) and group_like_detect(x) is not None:
                return False
    return True


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


def operator_coordinates(elements):
    """Faithful finite coordinates shared by a family of elements, sampled from
    the weights: each index's tail, and its value at every member below the
    largest threshold the family has at that index."""
    window = {}
    for el in elements:
        for c, w in el.components.items():
            window[c] = max(window.get(c, 0), w.threshold)
    coords = []
    for el in elements:
        vec = {}
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


def dense_truncate(a, n):
    """numeric.truncate's reference: the complex128 compression built entry by
    entry over the components and the legend, each entry complex(w.value(s_j))."""
    s = a.semigroup
    legend = tuple(s.element_at(i) for i in range(n))
    position = {m: i for i, m in enumerate(legend)}
    mat = np.zeros((n, n), dtype=np.complex128)
    for c, w in a.components.items():
        for j, sj in enumerate(legend):
            i = position.get(sj + c)
            if i is not None:
                mat[i, j] = complex(w.value(sj))
    return mat


def pairwise_morphism_falsify(s1, s2, m, max_word_len):
    """quantum.quantum_morphism_falsify's reference: the first-word searches run
    on the partial translations themselves, and the whole kernel is built first."""
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
