"""Shared test inputs: hypothesis strategies for compositions and seaweeds,
and fixed large family points."""

from hypothesis import strategies as st

from seaweedspec import Composition, FamilyId, SeaweedSpec


def _parts_from_mask(n: int, mask: int) -> tuple[int, ...]:
    parts = []
    last = 0
    for i in range(n - 1):
        if mask >> i & 1:
            parts.append(i + 1 - last)
            last = i + 1
    parts.append(n - last)
    return tuple(parts)


@st.composite
def compositions(draw, n: int | None = None, max_n: int = 10) -> Composition:
    if n is None:
        n = draw(st.integers(min_value=1, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
    return Composition(_parts_from_mask(n, mask))


@st.composite
def seaweeds(draw, max_n: int = 10) -> SeaweedSpec:
    n = draw(st.integers(min_value=1, max_value=max_n))
    return SeaweedSpec(draw(compositions(n=n)), draw(compositions(n=n)))


@st.composite
def integer_multiset_counts(draw, max_size: int = 8) -> dict[int, int]:
    return draw(
        st.dictionaries(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=1, max_value=200),
            max_size=max_size,
        )
    )


def inverse_moves(x, y):
    """Every part pair one inverse winding-down move from the pair (x, y):
    flip, block elimination, rotation contraction and pure contraction,
    each undone. The moves keep the index, so from 1 | 1 (a single path)
    each result is a single path too."""
    grown = [((2 * x[0],) + x[1:], (x[0],) + y)]
    if y[0] < x[0]:
        grown.append((y, x))
        grown.append(((2 * x[0] - y[0],) + x[1:], (x[0],) + y[1:]))
    if len(x) > 1:
        grown.append(((x[0] + 2 * x[1],) + x[2:], (x[1],) + y))
    return grown


@st.composite
def frobenius_seaweeds(draw, max_n: int) -> SeaweedSpec:
    """A Frobenius seaweed of at most max_n vertices, grown from 1 | 1 by
    inverse moves until it reaches a drawn size: a single path by
    construction, so no draw is filtered out."""
    target = draw(st.integers(min_value=1, max_value=max_n))
    x, y = (1,), (1,)
    while sum(x) < target:
        grown = [pair for pair in inverse_moves(x, y) if sum(pair[0]) <= max_n]
        if not grown:
            break
        x, y = draw(st.sampled_from(grown))
    return SeaweedSpec(Composition(x), Composition(y))


def orientations(g):
    return g, g.swapped(), g.reversed(), g.swapped().reversed()


# One point of every family, n from 60 to 249, so some block's half is
# longer than the pure kernel's short-half loop and its product path runs.
LARGE_POINTS = [
    (FamilyId.K1, 59, None),
    (FamilyId.K2, 121, None),
    (FamilyId.K1K, 124, None),
    (FamilyId.K2K, 45, None),
    (FamilyId.TWOK1_12K, 75, None),
    (FamilyId.TWOK11, 99, None),
    (FamilyId.K_2R, 51, 5),
    (FamilyId.K_2R_PLUS1, 100, 60),
    (FamilyId.TWOS_R1, None, 40),
    (FamilyId.K4R, 101, 25),
    (FamilyId.K4R_PLUS2, 81, 8),
]
