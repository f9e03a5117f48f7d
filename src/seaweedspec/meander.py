"""The meander census and the index formulas that read off it.

The meander of a seaweed puts its n vertices on a line and nests arcs inside
every top block above the line and every bottom block below it. Each vertex
meets at most one top arc and at most one bottom arc, so every connected
component is a simple path or an even cycle; an isolated vertex is a path.
With C cycles and P paths the gl index is 2C + P, the sl index is one less,
and the seaweed is Frobenius when the meander is one path.

This module counts C and P without walking the meander, by the
winding-down moves of Coll, Hyatt, Magnant and Wang (Meander graphs and
Frobenius seaweed Lie algebras II, 2015). For a top a and a bottom b with
first parts a1 >= b1 they are
  component elimination, a1 == b1:        a2.. | b2..
  block elimination,     a1 == 2 b1:      b1, a2.. | b2..
  pure contraction,      a1 > 2 b1:       a1 - 2 b1, b1, a2.. | b2..
  rotation contraction,  b1 < a1 < 2 b1:  b1, a2.. | 2 b1 - a1, b2..
and a1 < b1 flips to b | a. Component elimination cuts off two blocks of
a1 vertices joined arc for arc: a1 // 2 two-cycles and, for odd a1, the
middle vertex alone, a path. Every other move keeps both counts. The moves
are read two ways: component_counts runs them on one pair, and _census
copies the table of every pair of n out of the tables of smaller n along
them. The kernels walk the meander only for the potentials of a single
path; in Python the arcs are built once, by `spectrum.orient`.
"""

from __future__ import annotations

import sys
from math import gcd

from .core import SeaweedSpec


def component_counts(top, bottom) -> tuple[int, int]:
    """(cycles, paths) of the meander on two part sequences of equal sum.

    A run of rotation contractions keeps d = a1 - b1 and lowers both first
    parts by d a move until b1 <= d, so it ends at b1 = (b1 - 1) % d + 1 in
    one step. The steps then go with the number of parts and the digits of
    n, not with n: no run of 20,000 random 4-part seaweeds at n = 10^18
    took more than 247. Trusts its input, as the kernels do.
    """
    a, b = list(reversed(top)), list(reversed(bottom))  # first parts last
    cycles = paths = 0
    while a:
        x, y = a[-1], b[-1]
        if x < y:
            a, b = b, a
        elif x == y:
            a.pop()
            b.pop()
            cycles += x // 2
            paths += x % 2
        elif x >= 2 * y:
            b.pop()
            a[-1] = y
            if x > 2 * y:
                a.append(x - 2 * y)
        else:
            d = x - y
            y = (y - 1) % d + 1
            a[-1], b[-1] = y + d, y
    return cycles, paths


def index_gl(g: SeaweedSpec) -> int:
    """Index of the gl-seaweed: twice the cycles plus the paths."""
    cycles, paths = component_counts(g.top.parts, g.bottom.parts)
    return 2 * cycles + paths


def index_sl(g: SeaweedSpec) -> int:
    """Index of the sl-seaweed: one less than the gl index."""
    return index_gl(g) - 1


def is_frobenius(g: SeaweedSpec) -> bool:
    """True when the sl index vanishes: one path, no cycles."""
    return component_counts(g.top.parts, g.bottom.parts) == (0, 1)


def index_gcd_maximal_parabolic(a: int, b: int) -> int:
    """Closed form for the index of a|b / a+b."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be positive")
    return gcd(a, b) - 1


def index_gcd_three_part(a: int, b: int, c: int) -> int:
    """Closed form for the index of a|b|c / a+b+c.

    The same value is the index of a|b / c|d with d = a+b-c, whenever that
    d is positive.
    """
    if a < 1 or b < 1 or c < 1:
        raise ValueError("all parts must be positive")
    return gcd(a + b, b + c) - 1


def _check_census(n_max: int) -> None:
    """Refuse an n_max whose census table, 4^(n_max - 1) bytes, is past
    what a bytearray can index (sys.maxsize): n_max >= 33 on a 64-bit
    build. The power itself is never formed, so any n_max is refused at
    once."""
    if 2 * (n_max - 1) >= sys.maxsize.bit_length():
        raise ValueError(
            f"n = {n_max} has 4^{n_max - 1} composition pairs, more than a census can index"
        )


def _census(n_max: int) -> list[bytearray]:
    """The gl index 2C + P (index + 1) of every composition pair of each
    n <= n_max, with no meander walked.

    census[n] holds one byte per pair of n, the pair of the i-th top and
    j-th bottom of the m compositions of n in the order of compositions_of
    at i * m + j; census[0] is the empty pair. A seaweed on n vertices has
    index at most n - 1, so index + 1 fits a byte for every n < 256; no
    sweep reaches n = 256 (4^255 pairs).

    Each table is copied out of smaller ones by the moves, each of which
    keeps 2C + P save that component elimination drops a1. A composition's
    rank is its cut mask, so a move is a right shift of the masks, and the
    bottoms of first part b1 are every 2^b1-th column from 2^(b1-1) (column
    0 for b1 = n). So each such column group of a row is one slice of a
    row of a smaller table, or, when a1 < b1, of a column of this one.

    Every table is needed to the end, so all are allocated, largest first,
    before any is filled: a census too large for memory raises MemoryError
    at once, at no cost in peak memory, and one too large to index is
    refused before that.
    """
    _check_census(n_max)
    width = [1] + [1 << (n - 1) for n in range(1, n_max + 1)]  # m of each n
    census = [bytearray(m * m) for m in reversed(width)][::-1]
    adds = [bytes(range(a, 256)) + bytes(range(a)) for a in range(n_max + 1)]
    for n in range(1, n_max + 1):
        m = width[n]
        table = census[n]
        for A in range(m):
            a = (A & -A).bit_length() or n  # the top's first part
            row = A * m
            for b in range(1, a + 1):
                group = slice(row + (1 << (b - 1)) % m, row + m, 1 << b)
                if a == b:
                    r, w = A >> a, width[n - a]
                    table[group] = census[n - a][r * w:(r + 1) * w].translate(adds[a])
                elif a >= 2 * b:
                    r, w = A >> b, width[n - b]
                    if a > 2 * b:
                        r |= 1 << (a - 2 * b - 1)
                    table[group] = census[n - b][r * w:(r + 1) * w]
                else:
                    s = a - b
                    r, w = A >> s, width[n - s]
                    start = r * w + (1 << (b - s - 1))
                    table[group] = census[n - s][start:(r + 1) * w:1 << (b - s)]
        for A in range(m):
            a = (A & -A).bit_length() or n
            for b in range(a + 1, n + 1):
                start = (1 << (b - 1)) % m
                table[A * m + start:(A + 1) * m:1 << b] = table[start * m + A::m << b]
    return census
