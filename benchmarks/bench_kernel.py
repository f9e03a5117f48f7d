"""Time the compiled kernel (``_walk``) against the pure-Python ``_kernel``,
and optionally against a baseline: a second built ``_walk`` or a second
pure ``_kernel.py``.

Three input sets, each timed under every kernel. Each timing is the best of
REPEAT passes, and within a pass the kernels take turns, so that a change
in the host's speed reaches all of them alike. Every ``spectrum_counts``
row times the histogram alone: its potentials are taken once, before any
timing, and each kernel is handed the same ones. The kernels keep no state
between calls, so a pass that repeats a seaweed times what the first did.
Before any timing, every kernel's potentials and histogram are checked
against the pure kernel's on every row, and a difference exits 1:

* every Frobenius pair up to --n-max (from ``enumerate_frobenius``, which
  reads the index off the census and walks no meander): the potentials,
  then the spectrum histogram;
* the seeded family points of perfbench's ``query_large`` workload at
  n ~ 10^2, 10^3 and 4*10^3, drawn as ``perfbench/run.py --seed 7`` draws
  them: ``potentials``, ``spectrum_counts`` and, in each pure kernel,
  ``difference_counts`` of the potentials (the extended spectrum), summed
  over the points of each size. These are the kernel layers under that
  workload's end-to-end ``wall_s``;
* the crossover points: family seaweeds with blocks of about a thousand
  vertices and more, around where the pure kernel's products overtake a
  pair loop, and one r-block point of short blocks only. Each row gives the
  largest part and ``spectrum_counts`` under every kernel.

--baseline PATH loads the kernel at PATH, the ``_walk`` extension file built
from an earlier commit or that commit's pure ``_kernel.py`` (a path ending
in ``.py``), without registering it in ``sys.modules``, so the package
keeps the kernel it picked at import; it is timed as "baseline" next to the
others, ``difference_counts`` too when it is pure. Only a kernel whose
``spectrum_counts`` takes the potentials as a third argument can be a
baseline: one from the commit that made both kernels stateless or later.
An earlier kernel walks inside ``spectrum_counts``, on two arguments. A
pure-kernel change is
timed against its parent in one process with

    git show HEAD~1:src/seaweedspec/_kernel.py > ../parent_kernel.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --baseline ../parent_kernel.py

Run from the repository root; build the extension in place first to time
the compiled kernel too:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernel.py --n-max 10
"""

import argparse
import importlib.util
import os
import random
import sys
import time

from seaweedspec import FamilyId, _kernel, enumerate_frobenius, family_spec

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from workloads import QueryLarge  # noqa: E402

#: perfbench's seed for query_large's points, and passes per timing.
SEED = 7
REPEAT = 5

#: k2 at n = 1,025 to 4,097, k1k at n = 1,603, 3,203 and 40,003, and three
#: r-block points: two blocks of about 3,000 among 6,000 blocks of 2, two of
#: about 1,000 among 4,000 blocks of 4, and 16,002 vertices in blocks of at
#: most 3. At n = 40,003 the summed digit bounds of k1k's three long blocks
#: pass two bytes, so either kernel's packed sum, built by one
#: _kernel._add_triangles call, unpacks mid-seaweed.
CROSSOVER = [
    (FamilyId.K2, 1023, None),
    (FamilyId.K2, 1279, None),
    (FamilyId.K2, 1535, None),
    (FamilyId.K2, 4095, None),
    (FamilyId.K1K, 801, None),
    (FamilyId.K1K, 1601, None),
    (FamilyId.K1K, 20001, None),
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


def run(kernel, name, calls):
    """Seconds to call kernel's function name on each argument tuple of
    calls."""
    fn = getattr(kernel, name)
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    return time.perf_counter() - t0


def best(kernels, name, calls):
    """Best of REPEAT passes of each kernel's function name over calls, in
    ms by kernel, the kernels taking turns within each pass."""
    passes = [[run(kernel, name, calls) for _, kernel in kernels] for _ in range(REPEAT)]
    return [min(times) * 1e3 for times in zip(*passes)]


def with_potentials(pairs):
    """(top, bottom, phi) for each Frobenius part pair: spectrum_counts's
    arguments, taken outside any timing."""
    return [(top, bottom, _kernel.potentials(top, bottom)) for top, bottom in pairs]


def query_points():
    """query_large's seaweeds as part pairs, grouped by target size."""
    groups = {}
    for point in QueryLarge(random.Random(SEED), None, False).points:
        size = min((100, 1000, 4000), key=lambda target: abs(point.spec.n - target))
        groups.setdefault(size, []).append((point.spec.top.parts, point.spec.bottom.parts))
    return sorted(groups.items())


def check(kernels, pairs):
    """Exit 1 unless every kernel's potentials and spectrum_counts, key
    order included, equal the pure kernel's on every part pair."""
    for top, bottom in pairs:
        phi = _kernel.potentials(top, bottom)
        want = (phi, list(_kernel.spectrum_counts(top, bottom, phi).items()))
        for name, kernel in kernels:
            counts = kernel.spectrum_counts(top, bottom, phi)
            if (kernel.potentials(top, bottom), list(counts.items())) != want:
                sys.exit(f"{name} kernel differs from the pure kernel on {top} / {bottom}")


def load_kernel(path):
    """The kernel at path, a _walk extension or a pure _kernel.py, loaded
    but not registered."""
    name = "baseline_kernel" if path.endswith(".py") else "seaweedspec._walk"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument(
        "--baseline", metavar="PATH", help="a built _walk or a pure _kernel.py to time as well"
    )
    args = parser.parse_args()

    kernels = [("pure", _kernel)]
    try:
        from seaweedspec import _walk
        kernels.append(("compiled", _walk))
    except ImportError:
        print("compiled kernel not built; timing the pure kernel only")
    if args.baseline:
        kernels.append(("baseline", load_kernel(args.baseline)))
    names = [name for name, _ in kernels]

    pairs = frobenius_pairs(args.n_max)
    groups = query_points()
    crossover = [(f, k, r, family_spec(f, k, r)) for f, k, r in CROSSOVER]
    check(kernels, pairs + [pair for _, group in groups for pair in group]
          + [(g.top.parts, g.bottom.parts) for *_, g in crossover])
    print("every kernel gives the pure kernel's answers on every row")
    print(f"{len(pairs)} Frobenius pairs through n={args.n_max}")
    print(f"best of {REPEAT}, ms:")
    phi = best(kernels, "potentials", pairs)
    hist = best(kernels, "spectrum_counts", with_potentials(pairs))
    for name, p, h in zip(names, phi, hist):
        print(f"  {name:>10}: potentials {p:8.2f}, spectrum_counts {h:8.2f}")

    print(f"query_large points (seed {SEED}), best of {REPEAT}, ms per size group:")
    for size, group in groups:
        print(f"  n ~ {size}: {len(group)} points, n = "
              f"{min(sum(t) for t, _ in group)}..{max(sum(t) for t, _ in group)}")
        phi = best(kernels, "potentials", group)
        calls = with_potentials(group)
        hist = best(kernels, "spectrum_counts", calls)
        for name, p, h in zip(names, phi, hist):
            print(f"  {name:>10}: potentials {p:8.2f}, spectrum_counts {h:8.2f}")
        phis = [(phi,) for _, _, phi in calls]
        pure = [(name, k) for name, k in kernels if hasattr(k, "difference_counts")]
        for (name, _), diff in zip(pure, best(pure, "difference_counts", phis)):
            print(f"  {name:>10}: difference_counts {diff:8.2f}")

    print(f"crossover points, spectrum_counts, best of {REPEAT}, ms:")
    print(f"  {'seaweed':>22} {'n':>6} {'max part':>8} " + " ".join(f"{n:>8}" for n in names))
    for f, k, r, g in crossover:
        times = best(kernels, "spectrum_counts", with_potentials([(g.top.parts, g.bottom.parts)]))
        point = f"{f.value} k={k}" + ("" if r is None else f" r={r}")
        print(f"  {point:>22} {g.n:6} {max(g.top.parts + g.bottom.parts):8} "
              + " ".join(f"{t:8.2f}" for t in times))


if __name__ == "__main__":
    main()
