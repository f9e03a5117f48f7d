"""Host speed probe: a fixed pure-Python loop that never touches the package.

The benchmark was built on a shared 2-vCPU virtual machine whose CPU speed
switches between a fast and a slow state as other tenants load the host; in
the slow state this probe and the package's operations take 1.5-1.8x as
long. Those states last from under a second to minutes, so a run, or a
whole set of runs, can fall into either. The benchmark therefore times this
probe right before and right after each stretch of operations, and every
``worker.INTERVAL_S`` during a long operation, and rescales their times by
``REFERENCE_S`` over the probe's mean time: timings are in *reference
seconds*, the time the operation would take with the host at the speed at
which the probe takes ``REFERENCE_S``. On that machine this cut the
run-to-run spread of the same workload from 0.2-0.4 to under 0.07.

The loop mixes interpreter work the package also does: integer
arithmetic, dict and list updates, string building and a small JSON encode.
"""

from __future__ import annotations

import json
from time import perf_counter

#: Duration of one `probe()` on this benchmark's reference host, a 2-vCPU
#: virtual machine running Python 3.11.7, in its fast state.
REFERENCE_S = 0.021


def probe() -> float:
    """Seconds one pass of the fixed loop takes now."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    parts: list[str] = []
    acc = 0
    for i in range(130_000):
        acc = (acc * 31 + i) % 1_000_003
        key = acc & 255
        counts[key] = counts.get(key, 0) + 1
        if i & 63 == 0:
            parts.append(f"{key}|{acc}")
    json.dumps({"parts": parts, "counts": counts})
    return perf_counter() - t0


def warm_up() -> None:
    """Run the probe a few times; the first passes in a process run slow."""
    for _ in range(3):
        probe()


def scale(probes: list[float]) -> float:
    """Factor that turns seconds measured among these probes into reference seconds."""
    return REFERENCE_S / (sum(probes) / len(probes))
