"""Checks shared by several test modules."""

import itertools

import pytest

from sgalg.scalars import ONE
from sgalg.quantum import (FreeElement, coproduct, distinct_monomials,
                           group_like_detect)


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
