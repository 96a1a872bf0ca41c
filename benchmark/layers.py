"""Which sketchlab functions the traced pass wraps, and what each counts.

Span names are `<module>.<function>`. A per-layer metric is
`<span>.<what>`, where `what` is `self_s`, `calls` (`builds` for the
`SparseMeasure` constructor) or one of the counts below.
"""

from __future__ import annotations

import importlib
import math

from tracer import Tracer


def _cells(mu) -> int:
    return math.prod(hi - lo + 1 for lo, hi in mu.bounding_box())


def _atoms(args: dict, result: object) -> dict:
    return {"atoms": len(args["self"].atoms)}


def _convolve(args: dict, result: object) -> dict:
    # direct summation does one multiply-add per pair of box cells
    return {"ops": _cells(args["mu1"]) * _cells(args["mu2"])}


def _fft_grid(args: dict, result: object) -> dict:
    # the padded power-of-two grid convolve_many_fft allocates, by its own rule
    mus = args["mus"]
    lo = sum(m.points.min(axis=0) for m in mus)
    hi = sum(m.points.max(axis=0) for m in mus)
    span = int((hi - lo).max()) + 1
    side = 1
    while side < span + 1:
        side *= 2
    return {"grid_cells": side ** mus[0].dimension, "deficit": result.deficit}


def _lines(args: dict, result: object) -> dict:
    return {"lines": len(result.representatives), "nodes": sum(result.line_nodes)}


def _table_bytes(args: dict, result: object) -> dict:
    return {"bytes": result.stat().st_size + result.with_suffix(".json").stat().st_size}


# (module, function, counter); the SparseMeasure entry wraps the constructor
LAYERS = (
    ("cli", "main", None),
    ("cli", "write_table", _table_bytes),
    ("streaming", "select_state_sequence", None),
    ("streaming", "exact_stream_sample", None),
    ("streaming", "posterior_laws", None),
    ("measure", "SparseMeasure", _atoms),
    ("measure", "symmetrize", None),
    ("measure", "convolve", _convolve),
    ("measure", "convolve_many_fft", _fft_grid),
    ("measure", "large_spectrum_scan", None),
    ("measure", "density_certificate", None),
    ("spectrum", "convolution_structure", None),
    ("spectrum", "extract_exact_structure", None),
    ("spectrum", "extract_near_origin_structure", None),
    ("translation", "translation_invariance_certify", None),
    ("translation", "line_decomposition", _lines),
    ("translation", "tv_distance", None),
    ("translation", "ball_reduction_tv_bound", None),
    ("dgauss", "sample_truncated", None),
    ("transfer", "extract_sketch", None),
    ("transfer", "verify_smoothness", None),
    ("transfer", "evaluate_sketch", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry of LAYERS; sketchlab must already be importable."""
    for module_name, attr, count in LAYERS:
        module = importlib.import_module(f"sketchlab.{module_name}")
        name = f"{module_name}.{attr}"
        target = getattr(module, attr)
        if isinstance(target, type):
            tracer.patch_method(target, "__init__", name, count)
        else:
            tracer.patch_function(module, attr, name, count)


def layer_value(summary: dict[str, dict[str, float]], metric: str) -> float:
    """Value of one `<span>.<what>` metric; a span never entered reads 0."""
    span, _, what = metric.rpartition(".")
    if span not in {f"{m}.{a}" for m, a, _ in LAYERS}:
        raise KeyError(f"no traced layer for metric {metric!r}")
    key = "calls" if what == "builds" else what
    return summary.get(span, {}).get(key, 0)
