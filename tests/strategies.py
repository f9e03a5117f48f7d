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
