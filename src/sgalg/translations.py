"""Partial translations of a numerical semigroup with eventually-full domains.

Every finite product of the generating shifts and their adjoints acts on the
standard basis as ``e_d -> e_{d+c}`` on a domain that misses only finitely
many members, or kills the vector.  The pair (index, canonical domain) is a
faithful normal form: two words are the same operator exactly when these
agree.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from .semigroup import NumericalSemigroup

# A word letter is (generator, starred); a word is a sequence of letters in
# operator order: the rightmost letter acts first.
Letter = tuple[int, bool]
Word = tuple[Letter, ...]


class EventualSet:
    """Subset of a numerical semigroup containing every member above a threshold.

    Canonical form: the threshold is the least value that works, and
    ``members_below`` lists exactly the members kept below it.  Because the
    ambient semigroup is infinite, an eventual set is never empty.
    """

    __slots__ = ("semigroup", "threshold", "members_below", "_key", "_hash")

    def __init__(self, semigroup: NumericalSemigroup, excluded: Iterable[int]):
        excl = sorted(set(excluded))
        for m in excl:
            if not semigroup.contains(m):
                raise ValueError(f"excluded value {m} is not a member")
        self.semigroup = semigroup
        self.threshold = excl[-1] + 1 if excl else 0
        exclset = set(excl)
        self.members_below = tuple(m for m in semigroup.members_upto(self.threshold - 1)
                                   if m not in exclset)
        self._key = (semigroup, self.threshold, self.members_below)
        self._hash = hash(self._key)

    @classmethod
    def full(cls, semigroup: NumericalSemigroup) -> "EventualSet":
        return cls(semigroup, ())

    def contains(self, d: int) -> bool:
        if not self.semigroup.contains(d):
            return False
        if d >= self.threshold:
            return True
        i = bisect_left(self.members_below, d)
        return i < len(self.members_below) and self.members_below[i] == d

    def __contains__(self, d: int) -> bool:
        return self.contains(d)

    def excluded(self) -> tuple[int, ...]:
        """Members of the semigroup missing from this set (always finite)."""
        below = set(self.members_below)
        return tuple(m for m in self.semigroup.members_upto(self.threshold - 1)
                     if m not in below)

    @property
    def is_full(self) -> bool:
        return self.threshold == 0

    def intersect(self, other: "EventualSet") -> "EventualSet":
        if self.semigroup != other.semigroup:
            raise ValueError("eventual sets over different semigroups")
        return EventualSet(self.semigroup, set(self.excluded()) | set(other.excluded()))

    def __eq__(self, other):
        if not isinstance(other, EventualSet):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        inner = ",".join(str(m) for m in self.members_below)
        return f"{{{inner}}}+[{self.threshold}..)"

    def __repr__(self):
        return f"EventualSet({self.semigroup!r}, excluded={list(self.excluded())!r})"


class PartialTranslation:
    """The map ``d -> d + index`` on an eventual domain inside the semigroup.

    Invariant: the domain and its translate both lie in the semigroup, so the
    basis action e_d -> e_{d+index} (d in domain) lands on basis vectors.
    """

    __slots__ = ("semigroup", "index", "domain", "_key", "_hash", "sort_key")

    def __init__(self, semigroup: NumericalSemigroup, index: int, domain: EventualSet):
        if domain.semigroup != semigroup:
            raise ValueError("domain built over a different semigroup")
        bound = max(domain.threshold, semigroup.frobenius - index + 1, 0)
        for d in semigroup.members_upto(bound):
            if domain.contains(d) and not semigroup.contains(d + index):
                raise ValueError(f"image of {d} under shift {index} leaves the semigroup")
        self.semigroup = semigroup
        self.index = index
        self.domain = domain
        self._key = (semigroup, index, domain)
        self._hash = hash(self._key)
        self.sort_key = (index, domain.threshold, domain.members_below)

    def apply(self, d: int) -> Optional[int]:
        """Image of the basis point d, or None when the translation kills it."""
        if not self.semigroup.contains(d):
            raise ValueError(f"{d} is not a member")
        return d + self.index if self.domain.contains(d) else None

    def adjoint(self) -> "PartialTranslation":
        s = self.semigroup
        c = self.index
        bound = max(self.domain.threshold + c, s.frobenius + c + 1, c, 0)
        excluded = [d for d in s.members_upto(bound) if not self.domain.contains(d - c)]
        return PartialTranslation(s, -c, EventualSet(s, excluded))

    def __eq__(self, other):
        if not isinstance(other, PartialTranslation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        members = ",".join(str(m) for m in self.domain.members_below)
        return f"PT({self.index}; {{{members}}}; {self.domain.threshold})"

    def __repr__(self):
        return (f"PartialTranslation({self.semigroup!r}, {self.index}, "
                f"excluded={list(self.domain.excluded())!r})")

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "members_below": list(self.domain.members_below),
            "threshold": self.domain.threshold,
        }


def elementary(semigroup: NumericalSemigroup, a: int, starred: bool) -> PartialTranslation:
    """The generating shift by a member a, or its adjoint when starred."""
    if not semigroup.contains(a):
        raise ValueError(f"{a} is not a member of {semigroup}")
    if not starred:
        return PartialTranslation(semigroup, a, EventualSet.full(semigroup))
    bound = max(semigroup.frobenius + a + 1, a, 0)
    excluded = [d for d in semigroup.members_upto(bound)
                if not semigroup.contains(d - a)]
    return PartialTranslation(semigroup, -a, EventualSet(semigroup, excluded))


def compose(v: PartialTranslation, w: PartialTranslation) -> PartialTranslation:
    """Operator product v∘w: w acts first.  Indices add."""
    if v.semigroup != w.semigroup:
        raise ValueError("cannot compose translations over different semigroups")
    s = v.semigroup
    cv, cw = v.index, w.index
    bound = max(w.domain.threshold, v.domain.threshold - cw,
                s.frobenius + 1 - cw, 0)
    excluded = [d for d in s.members_upto(bound)
                if not (w.domain.contains(d) and v.domain.contains(d + cw))]
    return PartialTranslation(s, cv + cw, EventualSet(s, excluded))


def max_translation(semigroup: NumericalSemigroup, c: int) -> PartialTranslation:
    """The widest translation of index c: domain {d : d + c stays inside}.

    Equals T_a* T_b for any members with b - a = c.
    """
    s = semigroup
    bound = max(s.frobenius + abs(c) + 1, 0)
    excluded = [d for d in s.members_upto(bound) if not s.contains(d + c)]
    return PartialTranslation(s, c, EventualSet(s, excluded))


def evaluate_word(semigroup: NumericalSemigroup, word: Sequence[Letter]) -> PartialTranslation:
    """Normal form of a word of elementary letters, in operator order."""
    if not word:
        raise ValueError("empty word")
    a, starred = word[0]
    acc = elementary(semigroup, a, starred)
    for a, starred in word[1:]:
        acc = compose(acc, elementary(semigroup, a, starred))
    return acc


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


def word_offsets(semigroup: NumericalSemigroup, word: Sequence[Letter]) -> list[int]:
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


def pt_from_offsets(semigroup: NumericalSemigroup, index: int,
                    offsets: Iterable[int]) -> PartialTranslation:
    """Translation with domain cut out by membership constraints d + t."""
    s = semigroup
    offs = sorted(set(offsets))
    bound = max((s.frobenius + abs(t) + 1 for t in offs), default=0)
    excluded = [d for d in s.members_upto(bound)
                if any(not s.contains(d + t) for t in offs)]
    return PartialTranslation(s, index, EventualSet(s, excluded))
