"""Time the compiled kernel (``_walk``) against the pure-Python ``_kernel``.

Both kernels take every Frobenius pair up to --n-max (from
``enumerate_frobenius``, which reads the index off the census and walks no
meander), first computing the potentials, then the spectrum histogram.
Run from the repository root, after building the extension in place:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernel.py --n-max 10
"""

import argparse
import time

from seaweedspec import enumerate_frobenius
from seaweedspec import _kernel


def frobenius_pairs(n_max):
    return [
        (g.top.parts, g.bottom.parts)
        for n in range(1, n_max + 1)
        for g in enumerate_frobenius(n)
    ]


def run(fn, pairs):
    t0 = time.perf_counter()
    for top, bottom in pairs:
        fn(top, bottom)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()

    pairs = frobenius_pairs(args.n_max)
    print(f"{len(pairs)} Frobenius pairs through n={args.n_max}")

    kernels = [("pure", _kernel)]
    try:
        from seaweedspec import _walk
        kernels.append(("compiled", _walk))
    except ImportError:
        print("compiled kernel not built; timing the pure kernel only")

    times = {}
    for name, kernel in kernels:
        phi = run(kernel.potentials, pairs)
        hist = run(kernel.spectrum_counts, pairs)
        times[name] = phi + hist
        print(f"{name:>8}: potentials {phi * 1e3:8.1f} ms, spectrum_counts {hist * 1e3:8.1f} ms")

    if "compiled" in times:
        print(f"speedup: {times['pure'] / times['compiled']:.1f}x")


if __name__ == "__main__":
    main()
