"""Kernel selection.

The compiled kernel ``_walk``, built from ``_walk.c`` by ``setup.py``, is
preferred when importable; set SEAWEEDSPEC_PURE=1 to force the pure-Python
``_kernel``. Both expose potentials and spectrum_counts with identical
results. The index needs no kernel: ``meander`` counts cycles and paths
by the winding-down moves.
"""

from __future__ import annotations

import os

if os.environ.get("SEAWEEDSPEC_PURE"):
    from . import _kernel as kernel

    IMPLEMENTATION = "pure"
else:
    try:
        from . import _walk as kernel  # type: ignore[no-redef]

        IMPLEMENTATION = "compiled"
    except ImportError:
        from . import _kernel as kernel  # type: ignore[no-redef]

        IMPLEMENTATION = "pure"


def kernel_implementation() -> str:
    """Which kernel is active: "compiled" or "pure"."""
    return IMPLEMENTATION
