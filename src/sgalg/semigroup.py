"""Numerical semigroups: exact membership, gaps, order and morphism data.

A numerical semigroup here is a subsemigroup of the non-negative integers
containing 0 whose generators have gcd 1, so its difference group is the
integers and its complement in them is finite.
"""

from __future__ import annotations

import re
from itertools import compress, count
from math import gcd

_BIT_FLAGS = str.maketrans("01", "\0\1")
_NONZERO_BYTE = re.compile(rb"[^\0]")
# The set bits of each byte value, increasing.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _flags(mask: int) -> bytes:
    """Byte n is 1 when bit n of a non-negative integer is set, else 0, up to its top bit."""
    return bin(mask)[:1:-1].translate(_BIT_FLAGS).encode()


def bit_positions(mask: int) -> list[int]:
    """Set bits of a non-negative integer, increasing.

    A dense mask is spelled out in one linear pass.  A sparse one, with fewer
    than one set bit per 16, is scanned for its nonzero bytes in C, so Python
    steps once per nonzero byte and set bit; peeling off the lowest set bit
    instead would copy the whole integer per bit.  On random masks the scan
    is the faster from about one set bit per 10 at 1,024 bits and more, and
    per 20 to 24 at 64 to 256 bits.
    """
    if mask.bit_count() * 16 >= mask.bit_length():
        return list(compress(count(), _flags(mask)))
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * at + i for at in map(re.Match.start, _NONZERO_BYTE.finditer(data))
            for i in _BYTE_BITS[data[at]]]


class NumericalSemigroup:
    """Finitely generated, gcd-1 subsemigroup of the non-negative integers.

    Bit n of ``gapmask`` is set exactly for the gaps n, and byte n of
    ``_gapflags`` is 1 exactly for them, for O(1) membership; ``gaps`` and
    the members below the Frobenius number are listed when asked for.
    ``_letters`` keeps the translations ``translations.elementary`` built
    over this semigroup.
    """

    __slots__ = ("generators", "gapmask", "frobenius", "_gapflags", "_small", "_letters")

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise ValueError("generator set must be non-empty")
        if any(g < 1 for g in gens):
            raise ValueError("generators must be positive integers")
        g = gcd(*gens)
        if g != 1:
            raise ValueError(f"gcd of generators is {g}, not 1; "
                             "the difference group would be a proper subgroup")

        # Sieve bound max*min dominates the Frobenius number of any gcd-1 set.
        # Bit n of reach is set when n is a sum of generators: adding a, 2a,
        # 4a, ... in turn adds every multiple of a up to the bound.  Only the
        # minimal generating system is kept: in increasing order, a generator
        # is redundant exactly when the smaller ones already reach it.
        bound = gens[-1] * gens[0]
        window = (1 << (bound + 1)) - 1
        reach = 1
        minimal = []
        for a in gens:
            if (reach >> a) & 1:
                continue
            minimal.append(a)
            step = a
            while step <= bound:
                reach |= (reach << step) & window
                step <<= 1
        self.generators = tuple(minimal)
        self.gapmask = window & ~reach
        self.frobenius = self.gapmask.bit_length() - 1
        self._gapflags = _flags(self.gapmask)
        self._small = None
        self._letters = {}

    # -- membership and enumeration ---------------------------------------

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(bit_positions(self.gapmask))

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return not self._gapflags[n]

    __contains__ = contains

    def element_at(self, i: int) -> int:
        """The i-th smallest member, 0-indexed."""
        if i < 0:
            raise ValueError("index must be non-negative")
        if self._small is None:  # the members below the Frobenius number, kept on first use
            self._small = tuple(self.members_upto(self.frobenius))
        n = len(self._small)
        return self._small[i] if i < n else self.frobenius + 1 + (i - n)

    def members_upto(self, bound: int) -> list[int]:
        """All members m with m <= bound, increasing."""
        return bit_positions(((1 << (bound + 1)) - 1) & ~self.gapmask) if bound >= 0 else []

    def first_member_at_least(self, n: int) -> int:
        m = max(n, 0)
        while not self.contains(m):
            m += 1
        return m

    # -- order structure ---------------------------------------------------

    def natural_below(self, a: int, b: int) -> bool:
        """True when b - a is a member, i.e. a precedes b in the natural order."""
        if not self.contains(a):
            raise ValueError(f"{a} is not a member")
        if not self.contains(b):
            raise ValueError(f"{b} is not a member")
        return self.contains(b - a)

    def is_totally_ordered(self) -> bool:
        """Whether every pair of members is comparable, i.e. there are no gaps."""
        return not self.gapmask

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __str__(self):
        return "S(" + ",".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)!r})"


def morphism_multipliers(s1: NumericalSemigroup, s2: NumericalSemigroup,
                         bound: int) -> list[int]:
    """Multipliers m in [0, bound] with m*g in s2 for every generator g of s1.

    Additive maps between these semigroups extend to the integers, hence are
    multiplications; m = 0 is the trivial morphism and is included.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return [m for m in range(0, bound + 1)
            if all(s2.contains(m * g) for g in s1.generators)]


def automorphism_multipliers(s: NumericalSemigroup) -> set[int]:
    """All m with m*S = S.  For a numerical semigroup this is always {1}:
    frobenius+1 and frobenius+2 are consecutive members, and no m >= 2 divides
    both, so m*S is never all of S for m >= 2.
    """
    # Surjectivity on the decisive window: frobenius+2 covers the
    # consecutive-members argument above.
    window = s.members_upto(s.frobenius + 2)
    return {m for m in range(1, max(3, max(s.generators) + 1))
            if all(s.contains(m * g) for g in s.generators)
            and all(w % m == 0 and s.contains(w // m) for w in window)}
