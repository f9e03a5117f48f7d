"""Kernel selection.

The compiled kernel ``_walk``, built from ``_walk.c`` by ``setup.py``, is
the kernel when importable, and the pure-Python ``_kernel`` otherwise.
Both expose potentials and spectrum_counts with identical results, and the
compiled spectrum_counts hands a seaweed's long blocks to the pure kernel's
``_add_triangles`` in one call. The index needs no kernel: ``meander`` counts cycles and
paths by the winding-down moves.
"""

from __future__ import annotations

try:
    from . import _walk as kernel

    IMPLEMENTATION = "compiled"
except ImportError:
    from . import _kernel as kernel  # type: ignore[no-redef]

    IMPLEMENTATION = "pure"


def kernel_implementation() -> str:
    """Which kernel is active: "compiled" or "pure"."""
    return IMPLEMENTATION
