"""Per-layer spans and counts, recorded by wrapping the package's functions.

Each layer is a set of names, wrapped where the package looks them up at call
time (`demuon.optimizers.msgn_exact`, not `demuon.linalg.msgn_exact`, because
`optimizers` imports the function into its own namespace). A span layer
records calls and self time: its span minus the spans of the layers it calls.
A counted layer records calls only. `numpy.linalg.svd` is counted with the
number of matrices each call decomposes, whether the package or a numpy helper
calls it.

A layer whose name no longer exists, or that is never called on a workload
not predicted to leave it idle, is reported as None ("unobserved"), never 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

_NORMS = ("frobenius_norm", "nuclear_norm", "spectral_norm")

SPAN_LAYERS = {
    "config.build_mixing": ("demuon.config:build_mixing",),
    "config.build_problem": ("demuon.config:build_problem",),
    "problems.exact_gradient": ("demuon.problems:exact_gradient",),
    "problems.objective_at": ("demuon.problems:objective_at",),
    "noise.sample_noise": ("demuon.optimizers:sample_noise", "demuon.noise:sample_noise"),
    "topology.mix_blocks": ("demuon.optimizers:mix_blocks",),
    "linalg.msgn": ("demuon.optimizers:msgn_exact", "demuon.optimizers:msgn_newton_schulz"),
    "linalg.norms": (
        *(f"demuon.optimizers:{f}" for f in _NORMS),
        *(f"demuon.diagnostics:{f}" for f in _NORMS),
        "demuon.problems:nuclear_norm",
        "demuon.problems:spectral_norm",
        "demuon.topology:spectral_norm",
    ),
    "diagnostics.consensus": (
        "demuon.diagnostics:consensus_error",
        "demuon.diagnostics:consensus_error_nuclear",
    ),
    "diagnostics.potential": ("demuon.diagnostics:potential",),
    "optimizers.step": ("demuon.optimizers:step",),
    "optimizers.run": ("demuon.optimizers:run",),
    "runner.io": ("demuon.runner:execute", "demuon.runner:sweep", "demuon.runner:compare"),
}
COUNTED_LAYERS = {
    "linalg.as_matrix": ("demuon.linalg:as_matrix", "demuon.problems:as_matrix", "demuon.topology:as_matrix"),
    # numpy's own helpers (norm, pinv, ...) look `svd` up in its implementation module.
    "linalg.svd": ("numpy.linalg:svd", "numpy.linalg._linalg:svd"),
}

# The per-layer metrics the benchmark reports, as (metric, unit, better).
METRICS = (
    ("config.build_problem.self_ms", "ms", "lower"),
    ("config.build_mixing.self_ms", "ms", "lower"),
    *(
        (f"{layer}.{kind}", unit, "lower")
        for layer in (
            "problems.exact_gradient",
            "problems.objective_at",
            "noise.sample_noise",
            "topology.mix_blocks",
            "linalg.msgn",
            "linalg.norms",
        )
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("linalg.as_matrix.calls", "count", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.matrices", "count", "lower"),
    *(
        (f"{layer}.{kind}", unit, "lower")
        for layer in ("diagnostics.consensus", "diagnostics.potential")
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("optimizers.step.self_ms", "ms", "lower"),
    ("optimizers.run.self_ms", "ms", "lower"),
    ("runner.io.self_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _resolve(name: str):
    """(module, attribute) for 'module:attribute', or None when either is gone."""
    module_name, attr = name.split(":")
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    return (module, attr) if hasattr(module, attr) else None


def _stack_size(args, kwargs) -> int:
    """Number of matrices in the first argument of a `numpy.linalg.svd` call."""
    a = args[0] if args else kwargs.get("a")
    size = 1
    for dim in getattr(a, "shape", ())[:-2]:
        size *= dim
    return size


class Tracer:
    """Wraps every layer's names while installed and accumulates calls and self time."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.svd_matrices = 0
        self.missing = defaultdict(list)
        self._open = [0.0]  # child time of each open span; [0] collects top-level spans

    def _span(self, layer, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self_s[layer] += elapsed - open_spans.pop()
                open_spans[-1] += elapsed

        return wrapper

    def _count(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if layer == "linalg.svd":
                self.svd_matrices += _stack_size(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's names for the duration of the block, then restore them."""
        saved = []
        try:
            for layers, make in ((SPAN_LAYERS, self._span), (COUNTED_LAYERS, self._count)):
                for layer, names in layers.items():
                    for name in names:
                        found = _resolve(name)
                        if found is None:
                            self.missing[layer].append(name)
                            continue
                        module, attr = found
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        setattr(module, attr, make(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @property
    def covered_s(self) -> float:
        """Sum of all self times, which equals the time inside top-level spans."""
        return sum(self.self_s.values())

    def observed(self, layer: str, idle_layers) -> bool:
        """False when a wrapped name is gone, or when the layer never ran where it should."""
        if self.missing.get(layer):
            return False
        return self.calls[layer] > 0 or layer in idle_layers

    def values(self, idle_layers) -> dict:
        """Per-layer metric values of this traced iteration (trace.* excluded)."""
        out = {}
        for metric, _, _ in METRICS:
            layer, _, kind = metric.rpartition(".")
            if layer == "trace":
                continue
            if not self.observed(layer, idle_layers):
                out[metric] = None
            elif kind == "calls":
                out[metric] = self.calls[layer]
            elif kind == "matrices":
                out[metric] = self.svd_matrices
            else:
                out[metric] = self.self_s[layer] * 1e3
        return out

    def guard(self, idle_layers) -> tuple[list, list]:
        """(unobserved layers with the reason, idle layers that were called)."""
        unobserved = []
        for layer in (*SPAN_LAYERS, *COUNTED_LAYERS):
            if self.missing.get(layer):
                unobserved.append(f"{layer}: missing {', '.join(self.missing[layer])}")
            elif not self.observed(layer, idle_layers):
                unobserved.append(f"{layer}: never called")
        broken = [f"{layer}: {self.calls[layer]} calls, predicted 0" for layer in sorted(idle_layers) if self.calls[layer]]
        return unobserved, broken
