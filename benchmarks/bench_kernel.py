"""Time the compiled kernel (``_walk``) against the pure-Python ``_kernel``.

Both kernels walk every composition pair up to --n-max, first counting
components, then building the spectrum histogram for the Frobenius pairs.
Run from the repository root, after building the extension in place:

    python setup.py build_ext --inplace
    PYTHONPATH=src python benchmarks/bench_kernel.py --n-max 10
"""

import argparse
import time

from seaweedspec import compositions_of
from seaweedspec import _kernel


def enumerate_pairs(n_max):
    pairs = []
    for n in range(1, n_max + 1):
        tops = [c.parts for c in compositions_of(n)]
        pairs.extend((t, b) for t in tops for b in tops)
    return pairs


def run(kernel, pairs):
    t0 = time.perf_counter()
    frobenius = 0
    for top, bottom in pairs:
        cycles, paths = kernel.component_counts(top, bottom)
        if cycles == 0 and paths == 1:
            frobenius += 1
            kernel.spectrum_counts(top, bottom)
    return time.perf_counter() - t0, frobenius


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()

    pairs = enumerate_pairs(args.n_max)
    print(f"{len(pairs)} composition pairs through n={args.n_max}")

    kernels = [("pure", _kernel)]
    try:
        from seaweedspec import _walk
        kernels.append(("compiled", _walk))
    except ImportError:
        print("compiled kernel not built; timing the pure kernel only")

    times = {}
    for name, kernel in kernels:
        elapsed, frobenius = run(kernel, pairs)
        times[name] = elapsed
        print(f"{name:>8}: {elapsed:8.3f}s ({frobenius} Frobenius pairs)")

    if "compiled" in times:
        print(f"speedup: {times['pure'] / times['compiled']:.1f}x")


if __name__ == "__main__":
    main()
