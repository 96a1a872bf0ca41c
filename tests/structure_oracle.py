"""The per-point loops that the array paths of the structure code
replaced: torus distance to a point set one frequency at a time, the
greedy pick that stops at the first far frequency, the per-vector lstsq
residual to a span, the heavy product frequencies reduced one grid
index at a time, and the chain growth whose Case 1 witness was searched
one sign pattern at a time; and the group law on sketch values that the
homomorphism checks add with."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from sketchlab.measure import SparseMeasure, _grid_embed, _reduce_torus
from sketchlab.spectrum import is_kappa_dissociated
from sketchlab.transfer import ExtractedSketch


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


def heavy_product(mus: Sequence[SparseMeasure], grid_exponent: int) -> np.ndarray:
    """prod_i |mu_i_hat| on the 2^grid_exponent grid, every piece
    transformed on its own, in the order of mus."""
    side = 2**grid_exponent
    prod = np.ones((side,) * mus[0].dimension)
    for m in mus:
        prod = prod * np.abs(np.fft.fftn(_grid_embed(m, prod.shape)))
    return prod


def heavy_frequencies(
    mus: Sequence[SparseMeasure], threshold: float, grid_exponent: int
) -> list[tuple[float, ...]]:
    """Grid frequencies where prod_i |mu_i_hat| >= threshold, each reduced
    coordinate by coordinate with c - floor(c + 1/2)."""
    side = 2**grid_exponent
    out = []
    for raw in np.argwhere(heavy_product(mus, grid_exponent) >= threshold):
        coords = [int(c) / side for c in raw]
        out.append(tuple(c - math.floor(c + 0.5) for c in coords))
    return out


def chain_witness(
    a: np.ndarray, r: int, q: int, others: np.ndarray, kappa: float
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First (eps, delta) in base-3 order (digits 0, 1, -1) with
    ||q^r a - sum_l eps_l q^l a - sum_w delta_w xi_w|| < kappa over the
    rows xi_w of others, one pattern at a time; None when none is."""
    target = _reduce_torus(q**r * a)
    chain = np.array([_reduce_torus(q**l * a) for l in range(r)]).reshape(r, a.size)
    w = others.shape[0]
    for assign in itertools.product((0, 1, -1), repeat=r + w):
        eps = np.asarray(assign[:r], dtype=float)
        delta = np.asarray(assign[r:], dtype=float)
        vec = target - eps @ chain
        if w:
            vec = vec - delta @ others
        if float(np.linalg.norm(_reduce_torus(vec))) < kappa:
            return tuple(assign[:r]), tuple(assign[r:])
    return None


def chain_length_and_witness(
    pick: np.ndarray, base: np.ndarray, q: int, r_star: int, kappa: float
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """The chain growth of the exact extractor with the base rows first:
    r grows while base plus pick, ..., q^{r-1} pick stays dissociated,
    then chain_witness searches the failed extension (None at r_star)."""
    r = 0
    for r_try in range(1, r_star + 1):
        trial = list(base) + [_reduce_torus(q**l * pick) for l in range(r_try)]
        if not is_kappa_dissociated(np.stack(trial), kappa).dissociated:
            break
        r = r_try
    if r == r_star:
        return r, None
    return r, chain_witness(pick, r, q, base, kappa)


def sketch_value_add(sketch: ExtractedSketch, a: tuple, b: tuple) -> tuple:
    """Group law on sketch values: residues add mod 1, matrix values add."""
    if sketch.structure.route == "exact":
        return tuple((x + z) % 1 for x, z in zip(a, b))
    return tuple(x + z for x, z in zip(a, b))
