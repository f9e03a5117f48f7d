"""Per-layer tracing for the traced run, installed from outside the package.

Each layer is a function (or method) of the package found by module and
attribute path. ``install`` replaces it, in every ``seaweedspec`` module that
binds it, with a wrapper that records a span around the call: the span's
duration minus the time its child spans cover is the layer's self time.
Spans are aggregated in memory (self seconds, calls, counts) rather than
kept one by one, because a sweep makes ~10^5 kernel calls per job.

A name that no longer resolves is reported as an absent layer, so a refactor
that renames a helper shrinks the trace instead of breaking the benchmark;
a count whose call or result changed shape is skipped and counted under
``<layer>.unobserved``. The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _observe_census(counts, args, result) -> None:
    counts["kernel.component_counts.vertices"] += sum(args[0])
    if tuple(result) == (0, 1):
        counts["kernel.frobenius"] += 1


def _observe_histogram(counts, args, result) -> None:
    n = sum(args[0])
    counts["kernel.spectrum_counts.positions"] += n * n


def _observe_records(counts, args, result) -> None:
    counts["sweep.records_read"] += len(result)


#: (layer, module, attribute path, observer of arguments and result).
#: Several entries may share a layer; their self times and calls add up.
LAYERS = (
    ("kernel.component_counts", "seaweedspec._engine", "kernel.component_counts", _observe_census),
    ("kernel.spectrum_counts", "seaweedspec._engine", "kernel.spectrum_counts", _observe_histogram),
    ("core.compositions_of", "seaweedspec.core", "compositions_of", None),
    ("core.IntegerMultiset", "seaweedspec.core", "IntegerMultiset.__init__", None),
    ("meander.components", "seaweedspec.meander", "components", None),
    ("spectrum.vertex_potentials", "seaweedspec.spectrum", "vertex_potentials", None),
    ("spectrum.extended_spectrum", "seaweedspec.spectrum", "extended_spectrum", None),
    ("spectrum.principal_element", "seaweedspec.spectrum", "principal_element", None),
    ("spectrum.shape_mask", "seaweedspec.spectrum", "shape_mask", None),
    ("spectrum.spectrum_matrix", "seaweedspec.spectrum", "spectrum_matrix", None),
    ("spectrum.extended_spectrum_matrix", "seaweedspec.spectrum", "extended_spectrum_matrix", None),
    ("analysis.predicates", "seaweedspec.analysis", "is_unbroken_centered_half", None),
    ("analysis.predicates", "seaweedspec.analysis", "is_unimodal", None),
    ("analysis.predicates", "seaweedspec.analysis", "is_log_concave", None),
    ("analysis.predicates", "seaweedspec.analysis", "is_symmetric_about_half", None),
    ("analysis.verify", "seaweedspec.analysis", "verify_swap_lemma", None),
    ("analysis.verify", "seaweedspec.analysis", "verify_reverse_lemma", None),
    ("analysis.verify", "seaweedspec.analysis", "verify_skew_symmetry", None),
    ("analysis.verify", "seaweedspec.analysis", "verify_block_lemmas", None),
    ("families.family_spectrum", "seaweedspec.families", "family_spectrum", None),
    ("sweep.read_records", "seaweedspec.sweep", "read_records", _observe_records),
    ("sweep", "seaweedspec.sweep", "run_sweep", None),
    ("cli", "seaweedspec.cli", "main", None),
)


class Tracer:
    """Aggregated spans of the wrapped layers; records only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []

    # -- spans

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list[float], duration: float) -> None:
        self._stack.pop()
        self.self_s[layer] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def _wrap_call(self, layer: str, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, perf_counter() - t0)
            tracer.calls[layer] += 1
            if observe is not None:
                try:
                    observe(tracer.counts, args, result)
                except (TypeError, ValueError, IndexError):
                    tracer.counts[f"{layer}.unobserved"] += 1  # signature changed
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, layer: str, fn):
        """Time every step of the generator's iteration, not just the call."""
        tracer = self

        def steps(it):
            while True:
                frame = tracer._enter()
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(layer, frame, perf_counter() - t0)
                yield item

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            return steps(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self) -> None:
        for layer, module, path, observer in LAYERS:
            where = f"{module}.{path}"
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(where)
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(layer, original)
            else:
                wrapper = self._wrap_call(layer, original, observer)
            setattr(owner, attr, wrapper)
            _rebind(original, wrapper)


def _rebind(original, wrapper) -> None:
    """Point every package-level name bound to `original` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "seaweedspec" or name.startswith("seaweedspec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


#: Distinct layer names, in metric order.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))
