"""The meander census and the index formulas that read off it.

The meander of a seaweed puts its n vertices on a line and nests arcs inside
every top block above the line and every bottom block below it. Each vertex
meets at most one top arc and at most one bottom arc, so every connected
component is a simple path or an even cycle, and the index of the seaweed
reads off the census of cycles and paths that the kernel's walk returns.
The kernels keep their own partner arrays for that walk; in Python the arcs
are built once, by `spectrum.orient`. This module holds only the
census-based index functions and the gcd closed forms.
"""

from __future__ import annotations

from math import gcd

from ._engine import kernel
from .core import SeaweedSpec


def index_gl(g: SeaweedSpec) -> int:
    """Index of the gl-seaweed: twice the cycles plus the paths."""
    cycles, paths = kernel.component_counts(g.top.parts, g.bottom.parts)
    return 2 * cycles + paths


def index_sl(g: SeaweedSpec) -> int:
    """Index of the sl-seaweed: one less than the gl index."""
    return index_gl(g) - 1


def is_frobenius(g: SeaweedSpec) -> bool:
    """True when the sl index vanishes: one path, no cycles."""
    cycles, paths = kernel.component_counts(g.top.parts, g.bottom.parts)
    return cycles == 0 and paths == 1


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
