"""Compositions, seaweed descriptors, and exact integer multisets.

Everything in this module is immutable and purely combinatorial: a
composition is an ordered tuple of positive parts, a seaweed is a pair of
compositions with equal sum, and an IntegerMultiset counts integers with
exact (arbitrary-precision) multiplicities.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class ParseError(ValueError):
    """Raised when a composition, seaweed, or multiset string is malformed."""


@dataclass(frozen=True)
class Composition:
    """An ordered sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a composition needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"composition parts must be positive integers, got {p!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def reversed(self) -> "Composition":
        return Composition(self.parts[::-1])

    def __str__(self) -> str:
        return "|".join(str(p) for p in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


@dataclass(frozen=True)
class SeaweedSpec:
    """A pair of compositions of the same n: top parts and bottom parts."""

    top: Composition
    bottom: Composition

    def __post_init__(self) -> None:
        if self.top.n != self.bottom.n:
            raise ValueError(
                f"compositions must have equal sums: top sums to {self.top.n}, "
                f"bottom sums to {self.bottom.n}"
            )

    @property
    def n(self) -> int:
        return self.top.n

    def swapped(self) -> "SeaweedSpec":
        """Exchange the two compositions."""
        return SeaweedSpec(self.bottom, self.top)

    def reversed(self) -> "SeaweedSpec":
        """Reverse both compositions."""
        return SeaweedSpec(self.top.reversed(), self.bottom.reversed())

    def __str__(self) -> str:
        return f"{self.top} / {self.bottom}"


def parse_composition(text: str) -> Composition:
    """Parse "3|1|2" into a Composition.

    Whitespace around parts is tolerated; every token must be a positive
    integer in ASCII decimal digits.
    """
    tokens = [t.strip() for t in text.strip().split("|")]
    parts = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"bad composition part {tok!r}: expected a positive integer")
        value = int(tok)
        if value < 1:
            raise ParseError(f"bad composition part {tok!r}: parts must be at least 1")
        parts.append(value)
    return Composition(tuple(parts))


def parse_seaweed(text: str) -> SeaweedSpec:
    """Parse "2|4 / 1|2|3" into a SeaweedSpec.

    The slash separates the top composition from the bottom one; both must
    sum to the same n.
    """
    pieces = text.split("/")
    if len(pieces) != 2:
        raise ParseError(f"expected exactly one '/' in {text!r}")
    top = parse_composition(pieces[0])
    bottom = parse_composition(pieces[1])
    if top.n != bottom.n:
        raise ParseError(
            f"compositions must have equal sums: top sums to {top.n}, "
            f"bottom sums to {bottom.n}"
        )
    return SeaweedSpec(top, bottom)


#: The most vertices a kernel can index: the pure kernel's partner arrays
#: hold n + 1 slots and no list holds more than sys.maxsize, so n + 1 must
#: fit; the bound keeps one slot more in hand, and refusals print it.
_MAX_INDEXABLE = sys.maxsize - 2


def _check_indexable(n: int, what: str) -> None:
    """Refuse more than _MAX_INDEXABLE vertices, which no kernel array can
    index: for a command that holds one item per vertex, before any kernel
    call."""
    if n > _MAX_INDEXABLE:
        raise ParseError(
            f"{what} too large: n = {n} exceeds the most a kernel can index, {_MAX_INDEXABLE}"
        )


def compositions_of(n: int) -> Iterator[Composition]:
    """Yield all 2**(n-1) compositions of n.

    Order is by cut mask: bit i of the mask set means "cut after position
    i+1", and masks run from 0 upward. For n=3 that gives (3), (1,2),
    (2,1), (1,1,1).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for mask in range(1 << (n - 1)):
        parts = []
        last = 0
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(i + 1 - last)
                last = i + 1
        parts.append(n - last)
        yield Composition(tuple(parts))


# The entries that to_text writes: ASCII digits only.
_TEXT_ENTRY = re.compile(r"(-?[0-9]+)(?:\^([0-9]+))?")


def _summed(items: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The value -> count dict of (value, count) items, ascending, with equal
    values summed and zero counts dropped; every value and count is checked
    before it is summed."""
    acc: dict[int, int] = {}
    for value, count in items:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"multiset values must be integers, got {value!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"multiplicity of {value} must be a nonnegative integer, got {count!r}")
        if count:
            acc[value] = acc.get(value, 0) + count
    return dict(sorted(acc.items()))


class IntegerMultiset:
    """An immutable multiset of integers.

    Internally a value -> count mapping with ascending keys and no zero
    counts, so equality and hashing are canonical.
    """

    __slots__ = ("_counts",)

    def __init__(self, source: Mapping[int, int] | Iterable[int] = ()):
        items: Iterable[tuple[int, int]]
        if isinstance(source, (IntegerMultiset, Mapping)):
            items = source.items()
        else:
            items = ((v, 1) for v in source)
        self._counts = _summed(items)

    @classmethod
    def _from_histogram(cls, counts: dict[int, int]) -> "IntegerMultiset":
        """A kernel histogram with one zero removed, trusted as it is.

        counts is a value -> count dict from the kernel: int keys ascending,
        positive int counts, at least one zero. It is taken over, not copied
        or checked; one zero comes off in place, which keeps the key order.
        The public constructor re-validates and re-sorts instead.
        """
        if counts[0] == 1:
            del counts[0]
        else:
            counts[0] -= 1
        multiset = cls.__new__(cls)
        multiset._counts = counts
        return multiset

    @property
    def size(self) -> int:
        """Total number of elements, multiplicities included."""
        return sum(self._counts.values())

    def support(self) -> tuple[int, ...]:
        """Distinct values, ascending."""
        return tuple(self._counts)

    def multiplicity(self, value: int) -> int:
        return self._counts.get(value, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        """(value, count) pairs in ascending value order."""
        return tuple(self._counts.items())

    def counts(self) -> dict[int, int]:
        """A fresh plain dict copy, ascending keys."""
        return dict(self._counts)

    def multiplicities(self) -> tuple[int, ...]:
        """Counts in ascending value order (the profile the shape tests use)."""
        return tuple(self._counts.values())

    def contains(self, other: "IntegerMultiset") -> bool:
        """True when every element of other occurs here at least as often."""
        return all(self._counts.get(v, 0) >= c for v, c in other.items())

    def __add__(self, other: "IntegerMultiset") -> "IntegerMultiset":
        if not isinstance(other, IntegerMultiset):
            return NotImplemented
        counts = dict(self._counts)
        for v, c in other.items():
            counts[v] = counts.get(v, 0) + c
        return IntegerMultiset(counts)

    def __sub__(self, other: "IntegerMultiset") -> "IntegerMultiset":
        if not isinstance(other, IntegerMultiset):
            return NotImplemented
        counts = dict(self._counts)
        for v, c in other.items():
            have = counts.get(v, 0)
            if have < c:
                raise ValueError(f"cannot subtract: {v} occurs {have} times here but {c} times in the subtrahend")
            counts[v] = have - c
        return IntegerMultiset(counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntegerMultiset):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __contains__(self, value: int) -> bool:
        return value in self._counts

    def __repr__(self) -> str:
        return f"IntegerMultiset({self._counts!r})"

    def to_text(self) -> str:
        """Render as "{-2, -1^2, 0^5, 1^5, 2^2, 3}".

        Values ascend; a bare value means multiplicity one, a caret appends
        larger multiplicities.
        """
        entries = []
        for value, count in self._counts.items():
            entries.append(str(value) if count == 1 else f"{value}^{count}")
        return "{" + ", ".join(entries) + "}"

    @classmethod
    def from_text(cls, text: str) -> "IntegerMultiset":
        """Parse the to_text format back into a multiset."""
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ParseError(f"multiset text must be brace-delimited, got {text!r}")
        body = body[1:-1].strip()
        if not body:
            return cls()
        counts: dict[int, int] = {}
        for token in body.split(","):
            token = token.strip()
            m = _TEXT_ENTRY.fullmatch(token)
            if not m:
                raise ParseError(f"bad multiset entry {token!r}")
            value = int(m.group(1))
            count = int(m.group(2)) if m.group(2) else 1
            if count < 1:
                raise ParseError(f"bad multiset entry {token!r}: multiplicity must be positive")
            counts[value] = counts.get(value, 0) + count
        return cls(counts)

    def to_json_obj(self) -> dict[str, int]:
        """Decimal string keys in ascending value order, e.g. {"-1": 2, "0": 5}."""
        return {str(v): c for v, c in self._counts.items()}
