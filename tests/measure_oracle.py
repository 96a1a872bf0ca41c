"""Test measures from point -> mass tables and by translation, and two
oracles: the dict constructor that SparseMeasure had before sorted
arrays became its only store, which the array constructor must match bit
for bit, and the per-hit scalar scan polish, one scipy Brent search per
coordinate pass, that the array polish replaced."""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize

from sketchlab.measure import SparseMeasure, fourier_at

Atoms = Mapping[tuple[int, ...], float] | Iterable[tuple[Sequence[int], float]]


def from_atoms(dimension: int, atoms: Atoms, deficit: float = 0.0) -> SparseMeasure:
    """SparseMeasure built from a point -> mass table or (point, mass)
    pairs, through the array constructor."""
    pairs = list(atoms.items() if isinstance(atoms, Mapping) else atoms)
    points = np.array([p for p, _ in pairs], dtype=np.int64)
    masses = np.array([m for _, m in pairs], dtype=float)
    return SparseMeasure(dimension, points, masses, deficit=deficit)


def translate(mu: SparseMeasure, v: Sequence[int]) -> SparseMeasure:
    """tau_v mu with (tau_v mu)(x) = mu(x - v)."""
    shifted = mu.points + np.asarray(v, dtype=np.int64)
    return SparseMeasure(mu.dimension, shifted, mu.masses, deficit=mu.deficit)


def dict_canonical(
    dimension: int, atoms: Atoms, deficit: float = 0.0
) -> tuple[np.ndarray, np.ndarray, float]:
    """(points, masses, deficit) as the dict constructor stored them:
    atoms canonicalized one by one, repeats summed in input order."""
    items = atoms.items() if isinstance(atoms, Mapping) else atoms
    clean: dict[tuple[int, ...], float] = {}
    for point, mass in items:
        key = tuple(int(c) for c in point)
        if len(key) != dimension:
            raise ValueError("atom dimension mismatch")
        m = float(mass)
        if m < -1e-12:
            raise ValueError("negative mass")
        if m <= 0.0:
            continue
        clean[key] = clean.get(key, 0.0) + m
    total = math.fsum(clean.values())
    if abs(total + deficit - 1.0) > 1e-8:
        raise ValueError("mass + deficit must equal 1")
    order = sorted(clean)
    points = np.asarray(order, dtype=np.int64).reshape(len(order), dimension)
    masses = np.asarray([clean[p] for p in order], dtype=float)
    return points, masses, float(deficit)


def scalar_pass(
    mu: SparseMeasure, z: np.ndarray, i: int, step: float
) -> tuple[float, float]:
    """One coordinate pass of the scalar polish: scipy's bounded Brent
    search for the maximum of |mu_hat| over z_i in [z_i - step, z_i + step],
    each step a full fourier_at.  Returns the maximizer and |mu_hat| there."""

    def neg(c: float) -> float:
        trial = z.copy()
        trial[i] = c
        return -abs(fourier_at(mu, trial))

    res = optimize.minimize_scalar(
        neg,
        bounds=(z[i] - step, z[i] + step),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), -float(res.fun)


def scalar_polish(mu: SparseMeasure, start: np.ndarray, step: float) -> np.ndarray:
    """Coordinate ascent on |mu_hat| within +-step of the seed: three
    sweeps of scalar_pass, a coordinate moving only if |mu_hat| does not
    drop."""
    z = start.copy()
    for _ in range(3):
        for i in range(z.size):
            c, height = scalar_pass(mu, z, i, step)
            if height >= abs(fourier_at(mu, z)):
                z[i] = c
    return z
