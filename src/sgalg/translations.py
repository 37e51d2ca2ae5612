"""Partial translations of a numerical semigroup with eventually-full domains.

Every finite product of the generating shifts and their adjoints acts on the
standard basis as ``e_d -> e_{d+c}`` on a domain that misses only finitely
many members, or kills the vector.  The pair (index, domain) is a faithful
normal form: two words are the same operator exactly when these agree.

A domain is stored as the bitmask of the members it leaves out, so every
domain operation here is a few shifts, ORs and ANDs of integers against the
semigroup's gap mask.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .semigroup import NumericalSemigroup, bit_positions

# A word letter is (generator, starred); a word is a sequence of letters in
# operator order: the rightmost letter acts first.
Letter = tuple[int, bool]
Word = tuple[Letter, ...]


def _pullback(mask: int, t: int) -> int:
    """Mask of the d >= 0 with bit d + t of mask set."""
    return mask >> t if t >= 0 else mask << -t


def _leaving(s: NumericalSemigroup, t: int) -> int:
    """Mask of the members d with d + t outside the semigroup."""
    out = _pullback(s.gapmask, t)
    if t < 0:
        out |= (1 << -t) - 1
    return out & ~s.gapmask


class PartialTranslation:
    """The map ``d -> d + index`` on a domain leaving out finitely many members.

    Invariant: the domain and its translate both lie in the semigroup, so the
    basis action e_d -> e_{d+index} (d in domain) lands on basis vectors.

    The translation is the pair (index, mask): ``mask`` has bit m set exactly
    for the members m the domain leaves out, so the threshold, the least value
    from which every member is kept, is its bit length.  Because the
    semigroup is infinite, the domain is never empty.
    """

    __slots__ = ("semigroup", "index", "mask", "_hash")

    def __init__(self, semigroup: NumericalSemigroup, index: int, excluded: Iterable[int]):
        mask = 0
        for m in sorted(set(excluded)):
            if not semigroup.contains(m):
                raise ValueError(f"excluded value {m} is not a member")
            mask |= 1 << m
        leaving = _leaving(semigroup, index) & ~mask
        if leaving:
            d = (leaving & -leaving).bit_length() - 1
            raise ValueError(f"image of {d} under shift {index} leaves the semigroup")
        self.semigroup, self.index, self.mask, self._hash = semigroup, index, mask, None

    @property
    def members_below(self) -> tuple[int, ...]:
        """The members the domain keeps below its threshold."""
        mask = self.mask
        return tuple(bit_positions(((1 << mask.bit_length()) - 1)
                                   & ~(self.semigroup.gapmask | mask)))

    @property
    def sort_key(self):
        return (self.index, self.mask.bit_length(), self.members_below)

    def apply(self, d: int) -> Optional[int]:
        """Image of the basis point d, or None when the translation kills it."""
        if not self.semigroup.contains(d):
            raise ValueError(f"{d} is not a member")
        return None if (self.mask >> d) & 1 else d + self.index

    def adjoint(self) -> "PartialTranslation":
        s = self.semigroup
        c = self.index
        # The image of the domain: e is left out when e - c is not a member
        # of the domain.
        return _translation(s, -c, (_leaving(s, -c) | _pullback(self.mask, -c)) & ~s.gapmask)

    def __eq__(self, other):
        if not isinstance(other, PartialTranslation):
            return NotImplemented
        return (self.index == other.index and self.mask == other.mask
                and (self.semigroup is other.semigroup or self.semigroup == other.semigroup))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.index, self.mask))
        return h

    def __str__(self):
        members = ",".join(str(m) for m in self.members_below)
        return f"PT({self.index}; {{{members}}}; {self.mask.bit_length()})"

    def __repr__(self):
        return (f"PartialTranslation({self.semigroup!r}, {self.index}, "
                f"excluded={list(bit_positions(self.mask))!r})")

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "members_below": list(self.members_below),
            "threshold": self.mask.bit_length(),
        }


_new = object.__new__


def _translation(s: NumericalSemigroup, index: int, mask: int) -> PartialTranslation:
    """The translation (index, mask), whose invariant the caller guarantees."""
    out = _new(PartialTranslation)
    out.semigroup, out.index, out.mask, out._hash = s, index, mask, None
    return out


def elementary(semigroup: NumericalSemigroup, a: int, starred: bool) -> PartialTranslation:
    """The generating shift by a member a, or its adjoint when starred.

    Built once per semigroup object and letter, then kept on the semigroup.
    """
    v = semigroup._letters.get((a, starred))
    if v is None:
        if not semigroup.contains(a):
            raise ValueError(f"{a} is not a member of {semigroup}")
        v = max_translation(semigroup, -a if starred else a)
        semigroup._letters[(a, starred)] = v
    return v


def compose(v: PartialTranslation, w: PartialTranslation) -> PartialTranslation:
    """Operator product v∘w: w acts first.  Indices add.

    w sends the result's domain into v's, so the invariant holds unchecked
    and the result is built in place.
    """
    s = v.semigroup
    if w.semigroup is not s and w.semigroup != s:
        raise ValueError("cannot compose translations over different semigroups")
    t = w.index
    out = _new(PartialTranslation)
    # d is left out when w leaves it out or v leaves out d + t.
    out.semigroup, out.index, out.mask, out._hash = (
        s, v.index + t, (w.mask | (v.mask >> t if t >= 0 else v.mask << -t)) & ~s.gapmask, None)
    return out


def compose_state(v: PartialTranslation, w: tuple[int, int]) -> tuple[int, int]:
    """compose(v, w) for w an (index, mask) state, as a state: no translation is built."""
    t, mask = w
    return v.index + t, (mask | (v.mask >> t if t >= 0 else v.mask << -t)) & ~v.semigroup.gapmask


def max_translation(semigroup: NumericalSemigroup, c: int) -> PartialTranslation:
    """The widest translation of index c: domain {d : d + c stays inside}.

    Equals T_a* T_b for any members with b - a = c.
    """
    return _translation(semigroup, c, _leaving(semigroup, c))


def evaluate_word(semigroup: NumericalSemigroup, word: Sequence[Letter]) -> PartialTranslation:
    """Normal form of a word of elementary letters, in operator order.

    The word is folded from its right end, the letter that acts first: d is
    left out when some letter leaves out d + t, t the index of the letters
    that act before it.  The fold only ORs shifted letter masks together, so
    the gaps it sets are cleared once, at the end.
    """
    if not word:
        raise ValueError("empty word")
    letters = semigroup._letters
    index = mask = 0
    for a, starred in reversed(word):
        v = letters.get((a, starred)) or elementary(semigroup, a, starred)
        mask |= v.mask >> index if index >= 0 else v.mask << -index
        index += v.index
    return _translation(semigroup, index, mask & ~semigroup.gapmask)


def cell_points(mask: int, masks: Iterable[int]) -> list[int]:
    """The lowest point of each cell of mask, in increasing order: mask split
    by every mask of masks, so that two points of one cell lie in the same ones."""
    cells = [mask] if mask else []
    for m in masks:
        cells = [part for cell in cells for part in (cell & m, cell & ~m) if part]
    return sorted((cell & -cell).bit_length() - 1 for cell in cells)


def word_action(semigroup: NumericalSemigroup, word: Sequence[Letter],
                d: int) -> Optional[int]:
    """Direct basis-action simulation of a word, independent of normal forms.

    Used as an oracle: tracks the basis point through each letter using only
    semigroup membership.
    """
    x = d
    for a, starred in reversed(list(word)):
        if starred:
            if not semigroup.contains(x - a):
                return None
            x -= a
        else:
            x += a
    return x


def word_action_mask(semigroup: NumericalSemigroup, word: Sequence[Letter],
                     mask: int) -> tuple[int, int]:
    """``word_action`` on every point of mask at once: the points kept, and the index."""
    x, index = mask, 0
    for a, starred in reversed(list(word)):
        if starred:
            x, index = (x >> a) & ~semigroup.gapmask, index - a
        else:
            x, index = x << a, index + a
    return _pullback(x, index), index


def pt_from_offsets(semigroup: NumericalSemigroup, index: int,
                    offsets: Iterable[int]) -> PartialTranslation:
    """Translation with domain cut out by membership constraints d + t."""
    mask = 0
    for t in set(offsets):
        mask |= _leaving(semigroup, t)
    return PartialTranslation(semigroup, index, bit_positions(mask))
