"""Span tracing of focklab's layers from outside the package.

``Tracer.install`` replaces each traced function, wherever a focklab module
holds a reference to it, with a wrapper that records one span per call:
name, parent span, start and end.  Spans stay in memory; ``Tracer.metrics``
reduces them to per-layer self time and call counts when the pass ends.
``Tracer.uninstall`` puts the original functions back.  Nothing under
``src/`` is changed.

A layer's self time is its span's duration minus the time its child spans
cover; a child span is any traced call made while the layer's span is the
innermost open one.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else (args[pos] if len(args) > pos else None)


def _mesh_nodes(args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid2n")
    if grid is not None:
        return grid.weights.size
    from focklab.operators import default_mesh_order

    return default_mesh_order(_arg(args, kwargs, 1, "N")) ** 2


def _result_size(args, kwargs, result):
    return result.size


def _file_bytes(args, kwargs, result):
    return Path(_arg(args, kwargs, 0, "path")).stat().st_size


# (layer name, module, attribute path, extra counter name, counter function)
LAYERS = [
    ("operators.integral_operator_matrix", "operators", "integral_operator_matrix",
     "mesh_nodes", _mesh_nodes),
    ("operators.operator_norm", "operators", "operator_norm", None, None),
    ("operators.classical_sobolev_probe", "operators", "classical_sobolev_probe", None, None),
    ("operators.multiplier_matrix", "operators", "multiplier_matrix", None, None),
    ("operators.boundedness_probe", "operators", "boundedness_probe", None, None),
    ("operators.apply_integral_operator", "operators", "apply_integral_operator", None, None),
    ("operators.symbol_from_multiplier", "operators", "symbol_from_multiplier", None, None),
    ("operators.multiplier_from_symbol", "operators", "multiplier_from_symbol", None, None),
    ("transforms.weyl_matrix", "transforms", "weyl_matrix", None, None),
    ("transforms.translation_matrix", "transforms", "translation_matrix", None, None),
    ("transforms.conjugation_check", "transforms", "conjugation_check", None, None),
    ("transforms.fourier_quadrature", "transforms", "fourier_quadrature", None, None),
    ("transforms.bargmann_quadrature", "transforms", "bargmann_quadrature", None, None),
    ("spaces.square_function_norm_direct", "spaces", "square_function_norm_direct", None, None),
    ("spaces.localization_norm", "spaces", "localization_norm", None, None),
    ("spaces.PartitionBump.squared_sum_range", "spaces", "PartitionBump.squared_sum_range",
     None, None),
    ("spaces.smoothing_constant", "spaces", "smoothing_constant", None, None),
    ("spaces.kappa_constant", "spaces", "kappa_constant", None, None),
    ("hermite.basis_table", "hermite", "basis_table", "evals", _result_size),
    ("hermite.gauss_hermite", "hermite", "gauss_hermite", None, None),
    ("multipliers.eval", "multipliers", "MultiplierSpec.__call__", "points", _result_size),
    ("matio.write_matrix", "matio", "write_matrix", "bytes", _file_bytes),
    ("matio.read_matrix", "matio", "read_matrix", "bytes", _file_bytes),
    ("calibration.load_calibration", "calibration", "load_calibration", None, None),
    ("reporting.emit_json", "reporting", "emit_json", None, None),
    ("cli.main", "cli", "main", None, None),
]

WARNING_CATEGORIES = ("ConvergenceWarning", "AccuracyWarning")


def metric_names() -> list[str]:
    """The per-layer metrics a traced pass reports, in a fixed order (run.py
    adds the verify check timings and the tracing overhead)."""
    names = []
    for layer, _, _, counter, _ in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.warnings"]
        if counter:
            names.append(f"{layer}.{counter}")
    names += [f"warnings.{c}" for c in WARNING_CATEGORIES]
    return names


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per-name (self seconds, calls) from spans ``(name, parent, start, end)``,
    ``parent`` being the index of the enclosing span or -1."""
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, parent, start, end) in enumerate(spans):
        acc = out[name]
        acc[0] += (end - start) - covered[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []   # open spans: (index, layer)
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    def _wrap(self, layer, fn, counter, count):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        key = f"{layer}.{counter}"

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, parent, start, end)
            if count is not None:
                counts[key] += count(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, layers=LAYERS) -> None:
        for layer, module, path, counter, count in layers:
            owner = importlib.import_module(f"focklab.{module}")
            *cls, attr = path.split(".")
            for c in cls:
                owner = getattr(owner, c)
            fn = owner.__dict__[attr]
            wrapper = self._wrap(layer, fn, counter, count)
            if cls:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "focklab" and not name.startswith("focklab."):
                    continue
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        self._patches.append((mod, k, fn))
                        setattr(mod, k, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def note_warning(self, category: str) -> None:
        """Attribute a focklab warning to the innermost open span."""
        if self.stack:
            self.counts[f"{self.stack[-1][1]}.warnings"] += 1
        self.counts[f"warnings.{category}"] += 1

    def metrics(self) -> dict[str, float]:
        st = self_times(self.spans)
        out = {name: 0.0 for name in metric_names()}
        for layer, (self_s, calls) in st.items():
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
        for k, v in self.counts.items():
            out[k] = v
        return out
