"""Kernel selection.

The compiled kernel ``_walk``, built from ``_walk.c`` by ``setup.py``, is
the kernel when importable, and the pure-Python ``_kernel`` otherwise.
Both expose potentials and spectrum_counts with identical results;
``spectrum._spectrum_of`` sends the seaweeds with long blocks to the pure
kernel's histogram, which is the faster there. The index needs no
kernel: ``meander`` counts cycles and paths by the winding-down moves.
"""

from __future__ import annotations

try:
    from . import _walk as kernel

    IMPLEMENTATION = "compiled"
except ImportError:
    from . import _kernel as kernel  # type: ignore[no-redef]

    IMPLEMENTATION = "pure"


def kernel_implementation() -> str:
    """Which kernel is active: "compiled" or "pure". "compiled" means the
    compiled kernel takes the seaweeds whose squared parts sum to at most
    spectrum.PAIR_WORK_PER_VERTEX * n; the pure kernel counts the rest."""
    return IMPLEMENTATION
