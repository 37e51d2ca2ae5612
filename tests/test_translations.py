import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import word_offsets
from sgalg.semigroup import NumericalSemigroup, bit_positions, morphism_multipliers
from sgalg.translations import (PartialTranslation, compose, elementary,
                                evaluate_word, max_translation, pt_from_offsets,
                                word_action, word_action_mask)

S23 = NumericalSemigroup([2, 3])
S35 = NumericalSemigroup([3, 5])
Z = NumericalSemigroup([1])
SEMIGROUPS = (Z, S23, S35)
# The Frobenius-number ladder above F = 7: F = 11, 119 and 1079.
LADDER = (NumericalSemigroup([3, 7]), NumericalSemigroup([11, 13]),
          NumericalSemigroup([31, 37]))


def word_strategy(s, max_len=8):
    letter = st.tuples(st.sampled_from(s.generators), st.booleans())
    return st.lists(letter, min_size=1, max_size=max_len).map(tuple)


def action_window(s, word):
    return 2 * (s.frobenius + len(word) * max(s.generators)) + 2


def excluded(v):
    """The members the domain of v leaves out."""
    return tuple(bit_positions(v.mask))


def kept(v, upto):
    """The members up to upto that v does not kill."""
    return [m for m in v.semigroup.members_upto(upto) if v.apply(m) is not None]


# -- eventual sets: the domains of index-0 translations ----------------------------


def test_eventual_set_canonical_threshold():
    d = PartialTranslation(S23, 0, [0])
    assert d.mask.bit_length() == 1 and d.members_below == ()
    full = PartialTranslation(S23, 0, [])
    assert full.mask == 0 and full.members_below == ()
    shifted = PartialTranslation(S23, 0, [0, 3])
    assert shifted.mask.bit_length() == 4 and shifted.members_below == (2,)
    assert excluded(shifted) == (0, 3)


def test_eventual_set_rejects_non_members():
    with pytest.raises(ValueError):
        PartialTranslation(S23, 0, [1])
    s = LADDER[-1]
    for bad in (-1, 1, s.frobenius, s.gaps[len(s.gaps) // 2]):
        with pytest.raises(ValueError, match=f"excluded value {bad} is not a member"):
            PartialTranslation(s, 0, [0, 31, bad, s.frobenius + 1])


@given(st.sets(st.integers(0, 12)))
def test_eventual_set_roundtrip(raw):
    members = {x for x in raw if S23.contains(x)}
    d = PartialTranslation(S23, 0, members)
    assert set(excluded(d)) == members
    for m in S23.members_upto(20):
        assert (d.apply(m) is not None) == (m not in members)


def test_eventual_set_contains_matches_excluded():
    rng = random.Random(71)
    for s in (S23, NumericalSemigroup([3, 7]), NumericalSemigroup([11, 13]),
              NumericalSemigroup([31, 37])):
        members = s.members_upto(s.frobenius + 40)
        sets = [PartialTranslation(s, 0, []), PartialTranslation(s, 0, members)]
        for _ in range(20):
            sets.append(PartialTranslation(s, 0, rng.sample(members, rng.randint(1, len(members)))))
        for e in sets:
            left_out = set(excluded(e))
            for d in range(-3, e.mask.bit_length() + 6):
                if s.contains(d):
                    assert (e.apply(d) is not None) == (d not in left_out)
                else:
                    with pytest.raises(ValueError, match=f"{d} is not a member"):
                        e.apply(d)


def test_domain_mapped_onto_a_gap_is_rejected():
    with pytest.raises(ValueError, match="image of 0 under shift 1"):
        PartialTranslation(S23, 1, [])
    for s in LADDER:
        for c in (1, -1, -max(s.generators), s.frobenius):
            leaving = excluded(max_translation(s, c))
            for d in (leaving[0], leaving[len(leaving) // 2], leaving[-1]):
                # put one member back whose image is a gap or negative
                with pytest.raises(ValueError, match=f"image of {d} under shift {c} "):
                    PartialTranslation(s, c, set(leaving) - {d})


# -- elementary translations ---------------------------------------------------


def test_elementary_examples():
    t2 = elementary(S23, 2, False)
    assert t2.index == 2 and t2.mask == 0

    t3s = elementary(S23, 3, True)
    assert t3s.index == -3
    assert kept(t3s, 8) == [3, 5, 6, 7, 8]

    t1s = elementary(Z, 1, True)
    assert t1s.index == -1
    assert t1s.apply(0) is None and t1s.apply(1) is not None

    with pytest.raises(ValueError):
        elementary(S23, 1, False)


def test_compose_examples():
    v = compose(elementary(S23, 3, True), elementary(S23, 2, False))
    assert v.index == -1
    assert kept(v, 6) == [3, 4, 5, 6]

    w = compose(elementary(S23, 2, False), elementary(S23, 3, False))
    assert w.index == 5 and w.mask == 0

    p = evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False)))
    assert p.index == 0
    assert p.apply(0) is None and p.apply(2) is not None

    with pytest.raises(ValueError):
        compose(elementary(S23, 2, False), elementary(Z, 1, False))


@pytest.mark.parametrize("s", LADDER, ids=str)
def test_compose_results_pass_the_public_check(s):
    # compose builds its result without the constructor's checks; rebuilt
    # through the public constructor, every result must come back equal.
    letters = [elementary(s, a, st_) for a in s.generators for st_ in (False, True)]
    values = set(letters)
    for _ in range(2):
        values |= {compose(v, w) for v in values for w in letters}
    for v in values:
        for w in values:
            x = compose(v, w)
            assert PartialTranslation(s, x.index, excluded(x)) == x


def test_adjoint_examples():
    t2s = elementary(S23, 2, False).adjoint()
    assert t2s == elementary(S23, 2, True)

    v = PartialTranslation(S23, -1, [0, 2])
    va = v.adjoint()
    assert va.index == 1
    assert kept(va, 5) == [2, 3, 4, 5]

    p = evaluate_word(S23, ((2, False), (2, True)))
    assert p.adjoint() == p


def test_apply_examples():
    assert max_translation(S23, 1).apply(0) is None
    assert elementary(S23, 2, False).apply(5) == 7
    p = evaluate_word(S23, ((3, True), (2, False), (2, True), (3, False)))
    assert p.apply(0) is None and p.apply(2) == 2
    with pytest.raises(ValueError):
        p.apply(1)


def test_max_translation_examples():
    m1 = max_translation(S23, 1)
    assert m1.index == 1
    assert m1.apply(0) is None and m1.apply(2) is not None
    for c in (2, 3, 5):
        assert max_translation(S23, c) == elementary(S23, c, False)
    assert max_translation(S23, -2) == elementary(S23, 2, True)


def factorisation_members(s, c, count=3):
    """The first count members a with a + c also a member."""
    out = []
    a = 0
    while len(out) < count:
        if s.contains(a) and s.contains(a + c):
            out.append(a)
        a += 1
    return out


@pytest.mark.parametrize("gens, indices", [
    ((2, 3), None), ((3, 7), None), ((11, 13), None),
    ((31, 37), (-74, -6, 1, 37, 68)),      # F = 1079: a few indices only
])
def test_max_translation_factorisations(gens, indices):
    # T_a* T_{a+c} is the widest translation of index c for every admissible a
    s = NumericalSemigroup(gens)
    if indices is None:
        span = 2 * max(s.generators)
        indices = range(-span, span + 1)
    for c in indices:
        target = max_translation(s, c)
        for a in factorisation_members(s, c):
            assert compose(elementary(s, a, True), elementary(s, a + c, False)) == target


def test_evaluate_word_examples():
    w = evaluate_word(S23, ((2, False), (2, True), (3, False), (3, True)))
    assert w.index == 0
    assert kept(w, 7) == [5, 6, 7]
    assert evaluate_word(S23, ((3, True),)) == elementary(S23, 3, True)
    with pytest.raises(ValueError):
        evaluate_word(S23, ())


# -- oracle-backed properties ---------------------------------------------------


@settings(max_examples=150)
@given(st.sampled_from(SEMIGROUPS + LADDER), st.data())
def test_word_action_oracle(s, data):
    word = data.draw(word_strategy(s))
    v = evaluate_word(s, word)
    for d in s.members_upto(action_window(s, word)):
        assert v.apply(d) == word_action(s, word, d)


def window_mask(s, window):
    return sum(1 << d for d in s.members_upto(window))


@settings(max_examples=200)
@given(st.sampled_from((Z, S23) + LADDER), st.data())
def test_word_action_mask_matches_the_pointwise_oracle(s, data):
    word = data.draw(word_strategy(s))
    window = data.draw(st.integers(0, action_window(s, word)))
    survivors, index = word_action_mask(s, word, window_mask(s, window))
    assert index == sum(-a if starred else a for a, starred in word)
    for d in s.members_upto(window):
        image = word_action(s, word, d)
        assert (survivors >> d & 1) == (image is not None)
        assert image is None or image == d + index
    assert survivors < 2 << window


@pytest.mark.parametrize("s", (Z, S23) + LADDER, ids=str)
def test_word_action_mask_can_kill_the_window(s):
    # k starred letters a send every point below k*a under zero.
    for a in s.generators:
        for k in range(1, 9):
            word = ((a, True),) * k
            window = k * a - 1
            assert word_action_mask(s, word, window_mask(s, window)) == (0, -k * a)
            assert all(word_action(s, word, d) is None for d in s.members_upto(window))


@settings(max_examples=150)
@given(st.sampled_from(SEMIGROUPS + LADDER), st.data())
def test_inverse_semigroup_axioms(s, data):
    v = evaluate_word(s, data.draw(word_strategy(s)))
    vs = v.adjoint()
    assert compose(compose(v, vs), v) == v
    assert compose(compose(vs, v), vs) == vs
    assert vs.adjoint() == v


@settings(max_examples=100)
@given(st.sampled_from(SEMIGROUPS), st.data())
def test_index_additivity_and_coherence(s, data):
    v = evaluate_word(s, data.draw(word_strategy(s, 5)))
    w = evaluate_word(s, data.draw(word_strategy(s, 5)))
    vw = compose(v, w)
    assert vw.index == v.index + w.index
    for d in s.members_upto(12):
        inner = w.apply(d)
        assert vw.apply(d) == (v.apply(inner) if inner is not None else None)


def test_zero_index_idempotents_commute():
    rng = random.Random(7)
    projections = []
    for _ in range(40):
        word = tuple((rng.choice(S23.generators), rng.random() < 0.5) for _ in range(4))
        v = evaluate_word(S23, word)
        projections.append(compose(v.adjoint(), v))
    for p in projections:
        assert p.index == 0 and compose(p, p) == p
    for p in projections[:15]:
        for q in projections[:15]:
            assert compose(p, q) == compose(q, p)
            assert compose(p, q).mask == p.mask | q.mask


def test_conjugation_stabilization():
    rng = random.Random(11)
    for s in SEMIGROUPS:
        for _ in range(25):
            word = tuple((rng.choice(s.generators), rng.random() < 0.5)
                         for _ in range(rng.randint(1, 6)))
            v = evaluate_word(s, word)
            target = max_translation(s, v.index)
            e = s.first_member_at_least(v.mask.bit_length())
            for _ in range(5):
                conj = compose(elementary(s, e, True),
                               compose(v, elementary(s, e, False)))
                assert conj == target
                e = s.first_member_at_least(e + 1)


def test_canonical_form_uniqueness():
    # words with equal windowed basis action evaluate to identical values
    rng = random.Random(3)
    by_profile = {}
    for _ in range(400):
        word = tuple((rng.choice(S23.generators), rng.random() < 0.5)
                     for _ in range(rng.randint(1, 6)))
        v = evaluate_word(S23, word)
        window = action_window(S23, word)
        profile = tuple(word_action(S23, word, d) for d in S23.members_upto(window))
        if profile in by_profile:
            assert by_profile[profile] == v
        else:
            by_profile[profile] = v


def test_offsets_route_matches_composition():
    # (source, target, multiplier): each source word w is scaled letter-wise by
    # the multiplier and evaluated over the target, which must agree with the
    # target translation cut out by the scaled offsets of w (the falsifier's
    # image route).  Multiplier 1 onto the source itself is the plain route.
    routes = [(s, s, 1) for s in SEMIGROUPS + LADDER]
    for s1, s2 in ((S23, Z), (S35, Z), (Z, S23)):
        routes.extend((s1, s2, m) for m in morphism_multipliers(s1, s2, 6))
    rng = random.Random(5)
    for s1, s2, m in routes:
        for _ in range(120):
            word = tuple((rng.choice(s1.generators), rng.random() < 0.5)
                         for _ in range(rng.randint(1, 6)))
            scaled = tuple((m * a, st_) for a, st_ in word)
            index = sum(-a if st_ else a for a, st_ in scaled)
            offsets = [m * t for t in word_offsets(s1, word)]
            assert pt_from_offsets(s2, index, offsets) == evaluate_word(s2, scaled)


def test_textual_form():
    assert str(elementary(S23, 3, True)) == "PT(-3; {3}; 5)"
    assert str(elementary(S23, 2, False)) == "PT(2; {}; 0)"


# -- the (index, mask) form at large F --------------------------------------------

# F = 1079 and F = 9799.
LARGE_F = (NumericalSemigroup([31, 37]), NumericalSemigroup([99, 101]))


def random_words(s, count, seed):
    rng = random.Random(seed)
    return [tuple((rng.choice(s.generators), rng.random() < 0.5)
                  for _ in range(rng.randint(1, 8))) for _ in range(count)]


@pytest.mark.parametrize("s", (S23, NumericalSemigroup([31, 37])), ids=str)
def test_repr_evaluates_to_an_equal_translation(s):
    # The printed form names the checked constructor and the excluded members.
    for word in random_words(s, 40, 24):
        v = evaluate_word(s, word)
        assert eval(repr(v)) == v, word


@pytest.mark.parametrize("s", LARGE_F, ids=str)
def test_evaluate_word_matches_the_letter_by_letter_oracle_at_large_f(s):
    members = s.members_upto(s.frobenius + 8 * max(s.generators))
    for word in random_words(s, 40, 21):
        v = evaluate_word(s, word)
        assert all(v.apply(d) == word_action(s, word, d) for d in members), word


@pytest.mark.parametrize("s", LARGE_F, ids=str)
def test_equal_translations_are_equal_and_hash_equal_by_every_route(s):
    for word in random_words(s, 40, 22):
        v = evaluate_word(s, word)
        folded = elementary(s, *word[0])
        for a, starred in word[1:]:
            folded = compose(folded, elementary(s, a, starred))
        rebuilt = PartialTranslation(s, v.index, excluded(v))
        routes = (folded, rebuilt, v.adjoint().adjoint(),
                  compose(v, elementary(s, 0, False)), compose(elementary(s, 0, False), v))
        for w in routes:
            assert w == v and hash(w) == hash(v), word
        # The widest translation of the index, by its own constructor and as T_a* T_b.
        widest = max_translation(s, v.index)
        a = s.frobenius + 1 + abs(v.index)  # a and a + index are members
        for w in (compose(elementary(s, a, True), elementary(s, a + v.index, False)),
                  PartialTranslation(s, v.index, excluded(widest))):
            assert w == widest and hash(w) == hash(widest), word


@pytest.mark.parametrize("s", LARGE_F, ids=str)
def test_domain_view_lists_what_the_oracle_kills_and_keeps(s):
    for word in random_words(s, 40, 23):
        v = evaluate_word(s, word)
        below = s.members_upto(v.mask.bit_length() - 1)
        assert excluded(v) == tuple(d for d in below if word_action(s, word, d) is None)
        assert v.members_below == tuple(
            d for d in below if word_action(s, word, d) is not None)
        assert v.mask == 0 or word_action(s, word, below[-1]) is None
