"""The per-point loops that the array paths of the structure code
replaced: torus distance to a point set one frequency at a time, the
greedy pick that stops at the first far frequency, the per-vector lstsq
residual to a span, and the heavy product frequencies reduced one grid
index at a time."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from sketchlab.measure import SparseMeasure, _grid_embed


def torus_distance_to_set(zeta: np.ndarray, combos: np.ndarray) -> float:
    d = np.asarray(zeta, dtype=float) - combos
    d = d - np.floor(d + 0.5)
    return float(np.sqrt(np.einsum("ij,ij->i", d, d).min()))


def first_far(heavy: np.ndarray, combos: np.ndarray, kappa: float) -> int | None:
    """Index of the first row of heavy farther than kappa from combos."""
    for i, z in enumerate(heavy):
        if torus_distance_to_set(z, combos) > kappa:
            return i
    return None


def span_residual(span_rows: np.ndarray, a: np.ndarray) -> float:
    """Distance from the reduced row a to the real span of span_rows."""
    span = span_rows.T
    if span.size:
        coef, *_ = np.linalg.lstsq(span, a, rcond=None)
        return float(np.linalg.norm(a - span @ coef))
    return float(np.linalg.norm(a))


def heavy_frequencies(
    mus: Sequence[SparseMeasure], threshold: float, grid_exponent: int
) -> list[tuple[float, ...]]:
    """Grid frequencies where prod_i |mu_i_hat| >= threshold, each reduced
    coordinate by coordinate with c - floor(c + 1/2)."""
    side = 2**grid_exponent
    prod = np.ones((side,) * mus[0].dimension)
    for m in mus:
        prod = prod * np.abs(np.fft.fftn(_grid_embed(m, prod.shape)))
    out = []
    for raw in np.argwhere(prod >= threshold):
        coords = [int(c) / side for c in raw]
        out.append(tuple(c - math.floor(c + 0.5) for c in coords))
    return out
