"""Time the compiled kernel (``_walk``) against the pure-Python ``_kernel``.

Two input sets, each timed under every kernel that imports:

* every Frobenius pair up to --n-max (from ``enumerate_frobenius``, which
  reads the index off the census and walks no meander): first the
  potentials, then the spectrum histogram;
* the seeded family points of perfbench's ``query_large`` workload at
  n ~ 10^2, 10^3 and 4*10^3, drawn as ``perfbench/run.py --seed 7`` draws
  them: ``potentials``, ``spectrum_counts`` and, in the pure kernel only,
  ``difference_counts`` of the potentials (the extended spectrum), summed
  over the points of each size and reported as the best of REPEAT passes.
  These are the kernel layers under that workload's end-to-end ``wall_s``;
* the crossover points: family seaweeds either side of
  ``spectrum.PAIR_WORK_PER_VERTEX`` squared parts per vertex, where the
  kernels' histograms trade places. Each row gives the largest part, the
  squared parts per vertex, ``spectrum_counts`` under every kernel and
  ``spectrum._spectrum_of``, which picks the kernel from the parts, best
  of REPEAT calls each. Re-measure here before moving the constant.

Run from the repository root; build the extension in place first to time
the compiled kernel too:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernel.py --n-max 10
"""

import argparse
import os
import random
import sys
import time

from seaweedspec import FamilyId, _kernel, enumerate_frobenius, family_spec
from seaweedspec.spectrum import PAIR_WORK_PER_VERTEX, _spectrum_of

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from workloads import QueryLarge  # noqa: E402

#: perfbench's seed for query_large's points, and passes per timing.
SEED = 7
REPEAT = 5

#: Family points either side of the crossover: k2 at n = 1,025 to 4,097,
#: k1k at n = 1,603 and 3,203, and three r-block points.
CROSSOVER = [
    (FamilyId.K2, 1023, None),
    (FamilyId.K2, 1279, None),
    (FamilyId.K2, 1535, None),
    (FamilyId.K2, 4095, None),
    (FamilyId.K1K, 801, None),
    (FamilyId.K1K, 1601, None),
    (FamilyId.K_2R, 3001, 3000),
    (FamilyId.K4R, 999, 2000),
    (FamilyId.K_2R, 2, 8000),
]


def frobenius_pairs(n_max):
    return [
        (g.top.parts, g.bottom.parts)
        for n in range(1, n_max + 1)
        for g in enumerate_frobenius(n)
    ]


def run(fn, calls):
    """Seconds to call fn on each argument tuple of calls."""
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    return time.perf_counter() - t0


def best(fn, calls):
    return min(run(fn, calls) for _ in range(REPEAT))


def query_points():
    """query_large's seaweeds as part pairs, grouped by target size."""
    groups = {}
    for point in QueryLarge(random.Random(SEED), None, False).points:
        size = min((100, 1000, 4000), key=lambda target: abs(point.spec.n - target))
        groups.setdefault(size, []).append((point.spec.top.parts, point.spec.bottom.parts))
    return sorted(groups.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()

    kernels = [("pure", _kernel)]
    try:
        from seaweedspec import _walk
        kernels.append(("compiled", _walk))
    except ImportError:
        print("compiled kernel not built; timing the pure kernel only")

    pairs = frobenius_pairs(args.n_max)
    print(f"{len(pairs)} Frobenius pairs through n={args.n_max}")
    times = {}
    for name, kernel in kernels:
        phi = run(kernel.potentials, pairs)
        hist = run(kernel.spectrum_counts, pairs)
        times[name] = phi + hist
        print(f"{name:>8}: potentials {phi * 1e3:8.1f} ms, spectrum_counts {hist * 1e3:8.1f} ms")
    if "compiled" in times:
        print(f"speedup: {times['pure'] / times['compiled']:.1f}x")

    print(f"query_large points (seed {SEED}), best of {REPEAT}, ms per size group:")
    for size, group in query_points():
        print(f"  n ~ {size}: {len(group)} points, n = "
              f"{min(sum(t) for t, _ in group)}..{max(sum(t) for t, _ in group)}")
        for name, kernel in kernels:
            phi = best(kernel.potentials, group)
            hist = best(kernel.spectrum_counts, group)
            line = f"{name:>10}: potentials {phi * 1e3:8.2f}, spectrum_counts {hist * 1e3:8.2f}"
            if hasattr(kernel, "difference_counts"):
                phis = [kernel.potentials(t, b) for t, b in group]
                diff = best(kernel.difference_counts, [(phi,) for phi in phis])
                line += f", difference_counts {diff * 1e3:8.2f}"
            print(line)

    print(f"crossover points, best of {REPEAT}, ms; pure above "
          f"{PAIR_WORK_PER_VERTEX} squared parts per vertex:")
    print(f"  {'seaweed':>22} {'n':>6} {'max part':>8} {'sq/n':>6} "
          + " ".join(f"{name:>8}" for name, _ in kernels) + f" {'_spectrum_of':>12}")
    for f, k, r in CROSSOVER:
        g = family_spec(f, k, r)
        parts = g.top.parts + g.bottom.parts
        pair = [(g.top.parts, g.bottom.parts)]
        times = [best(kernel.spectrum_counts, pair) for _, kernel in kernels]
        times.append(best(_spectrum_of, pair))
        point = f"{f.value} k={k}" + ("" if r is None else f" r={r}")
        print(f"  {point:>22} {g.n:6} {max(parts):8} {sum(p * p for p in parts) / g.n:6.0f} "
              + " ".join(f"{t * 1e3:8.2f}" for t in times[:-1]) + f" {times[-1] * 1e3:12.2f}")


if __name__ == "__main__":
    main()
