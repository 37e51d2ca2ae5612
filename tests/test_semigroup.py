import itertools
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from sgalg.semigroup import (NumericalSemigroup, automorphism_multipliers,
                             bit_positions, morphism_multipliers)


def sieve_members(gens, bound):
    """Independent brute-force membership oracle."""
    reachable = {0}
    for n in range(1, bound + 1):
        if any(n - g in reachable for g in gens):
            reachable.add(n)
    return reachable


def test_build_examples():
    z = NumericalSemigroup([1])
    assert z.gaps == () and z.frobenius == -1

    s = NumericalSemigroup([2, 3])
    assert s.gaps == (1,) and s.frobenius == 1

    s35 = NumericalSemigroup([3, 5])
    assert s35.gaps == (1, 2, 4, 7) and s35.frobenius == 7
    oracle = sieve_members([3, 5], 15)
    assert set(s35.gaps) == {n for n in range(1, 16) if n not in oracle}


@pytest.mark.parametrize("gens", [(11, 13), (31, 37), (3, 5, 7), (6, 10, 15)])
def test_shift_sieve_matches_oracle(gens):
    s = NumericalSemigroup(gens)
    bound = max(gens) * min(gens)
    oracle = sieve_members(gens, bound)
    assert s.gaps == tuple(n for n in range(bound + 1) if n not in oracle)
    assert s.gapmask == sum(1 << n for n in s.gaps)
    assert s.members_upto(s.frobenius) == sorted(n for n in oracle if n <= s.frobenius)


def test_shift_sieve_at_the_generator_limit():
    # Sylvester: S(a, b) has (a-1)(b-1)/2 gaps, the largest ab - a - b
    a, b = 999, 1001
    s = NumericalSemigroup([a, b])
    assert s.frobenius == a * b - a - b
    assert len(s.gaps) == (a - 1) * (b - 1) // 2
    assert s.gapmask.bit_length() == s.frobenius + 1
    assert not s.contains(s.frobenius) and s.contains(s.frobenius + 1)
    assert s.contains(a * b) and not s.contains(a * b - a - 2 * b)


@given(st.integers(0, 2 ** 300))
@example(0)
@example(1 << 64)
@example(1 << 40_000)
@example((1 << 40_000) - 1)
@example((1 << 40_000) | (1 << 17) | 1)
@example(sum(1 << n for n in range(0, 40_000, 15)))
@example(sum(1 << n for n in range(0, 40_000, 17)))
def test_bit_positions(mask):
    assert bit_positions(mask) == [n for n in range(mask.bit_length()) if (mask >> n) & 1]


@given(st.sampled_from([None, 1, 3, 15, 16, 17, 40]), st.lists(st.integers(0, 40_000), max_size=700))
def test_bit_positions_of_sparse_and_dense_masks(step, bits):
    # Up to 700 scattered bits of 40,001 over one set bit per `step`: masks on
    # both sides of one set bit per 16.
    bits = set(bits) | (set(range(0, 40_001, step)) if step else set())
    mask = sum(1 << b for b in bits)
    assert bit_positions(mask) == sorted(bits)


def test_build_rejections():
    with pytest.raises(ValueError):
        NumericalSemigroup([])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 2])
    with pytest.raises(ValueError):
        NumericalSemigroup([2, 4])       # gcd 2


def test_minimal_generators():
    assert NumericalSemigroup([2, 3, 4]).generators == (2, 3)
    assert NumericalSemigroup([3, 5, 8]).generators == (3, 5)
    assert NumericalSemigroup([1, 7]).generators == (1,)


def test_contains_examples():
    s = NumericalSemigroup([2, 3])
    assert s.contains(0)
    assert not s.contains(1)
    assert not s.contains(-4)
    assert not NumericalSemigroup([3, 5]).contains(7)
    oracle = sieve_members([3, 5], 40)
    s35 = NumericalSemigroup([3, 5])
    assert all(s35.contains(n) == (n in oracle) for n in range(41))


def test_element_at_examples():
    s = NumericalSemigroup([2, 3])
    assert s.element_at(0) == 0
    assert s.element_at(1) == 2
    # oracle: sorted members of <3,5> are 0,3,5,6,8,...; the 4th (0-indexed) is 8
    s35 = NumericalSemigroup([3, 5])
    oracle = sorted(sieve_members([3, 5], 40))
    assert [s35.element_at(i) for i in range(len(oracle))] == oracle
    assert s35.element_at(4) == oracle[4] == 8


def test_members_upto():
    s35 = NumericalSemigroup([3, 5])
    assert s35.members_upto(9) == [0, 3, 5, 6, 8, 9]
    assert s35.members_upto(-1) == []
    assert NumericalSemigroup([1]).members_upto(3) == [0, 1, 2, 3]


def test_natural_below_examples():
    s = NumericalSemigroup([2, 3])
    assert s.natural_below(0, 5)
    assert not s.natural_below(2, 3)
    assert s.natural_below(2, 7)
    with pytest.raises(ValueError):
        s.natural_below(1, 4)


def test_totally_ordered_examples():
    assert NumericalSemigroup([1]).is_totally_ordered()
    assert not NumericalSemigroup([2, 3]).is_totally_ordered()
    assert not NumericalSemigroup([2, 5]).is_totally_ordered()


def pairwise_comparable(s, bound):
    """Oracle: every two members up to bound differ by a member, one way round."""
    members = [n for n in range(bound + 1) if s.contains(n)]
    return all(s.contains(b - a) for i, a in enumerate(members) for b in members[i + 1:])


def test_totality_equivalence_on_generated_family():
    # every gcd-1 generator set from a small pool; totality must equal
    # pairwise comparability of the members
    pool = range(1, 11)
    seen = set()
    for k in (1, 2, 3):
        for gens in itertools.combinations(pool, k):
            g = 0
            for a in gens:
                g = gcd(g, a)
            if g != 1:
                continue
            s = NumericalSemigroup(gens)
            if s.generators in seen or s.frobenius > 30:
                continue
            seen.add(s.generators)
            bound = s.frobenius + 2 * max(s.generators)
            assert s.is_totally_ordered() == pairwise_comparable(s, bound)
    assert len(seen) > 25


def test_morphism_multipliers_examples():
    z = NumericalSemigroup([1])
    s = NumericalSemigroup([2, 3])
    assert morphism_multipliers(z, z, 5) == [0, 1, 2, 3, 4, 5]
    assert morphism_multipliers(s, z, 4) == [0, 1, 2, 3, 4]
    assert morphism_multipliers(z, s, 4) == [0, 2, 3, 4]


def test_automorphism_multipliers():
    assert automorphism_multipliers(NumericalSemigroup([1])) == {1}
    assert automorphism_multipliers(NumericalSemigroup([2, 3])) == {1}
    assert automorphism_multipliers(NumericalSemigroup([3, 5])) == {1}


@given(st.sampled_from([(1,), (2, 3), (3, 5), (4, 5, 6), (3, 7)]),
       st.integers(0, 30), st.integers(0, 30))
def test_membership_closed_under_addition(gens, i, j):
    s = NumericalSemigroup(gens)
    assert s.contains(s.element_at(i) + s.element_at(j))


@given(st.sampled_from([(2, 3), (3, 5), (2, 7)]), st.integers(0, 40))
def test_enumeration_matches_membership(gens, i):
    s = NumericalSemigroup(gens)
    m = s.element_at(i)
    assert s.contains(m)
    assert s.element_at(i + 1) > m
