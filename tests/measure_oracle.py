"""Test measures from point -> mass tables, by translation and by
restriction to a predicate, and three oracles: the dict constructor that
SparseMeasure had before sorted arrays became its only store, which the
array constructor must match bit for bit, the np.lexsort row grouping
that the packed-key sort in measure._lex_groups replaced, the
per-hit scalar scan polish, one scipy Brent search per coordinate pass,
that the array polish replaced, and the full-grid fftn magnitudes that
the half-spectrum scans replaced."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize

from sketchlab.measure import SparseMeasure, _grid_embed, fourier_at

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


def restrict(
    mu: SparseMeasure,
    keep: Callable[[tuple[int, ...]], bool],
    renormalize: bool = False,
) -> SparseMeasure:
    """mu on the points that `keep` accepts; the removed mass becomes
    deficit, or with `renormalize` the kept masses are scaled to sum to 1."""
    mask = np.array([keep(p) for p in map(tuple, mu.points.tolist())], dtype=bool)
    if not mask.any():
        raise ValueError("restriction removed all mass")
    masses = mu.masses[mask]
    total = math.fsum(masses)
    if renormalize:
        return SparseMeasure(mu.dimension, mu.points[mask], masses / total)
    return SparseMeasure(mu.dimension, mu.points[mask], masses, deficit=1.0 - total)


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


def lexsort_groups(
    rows: np.ndarray, minor: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """measure._lex_groups by np.lexsort over one key per column (ties
    broken by the minor key if one is given, else kept in input order),
    and the flags marking where each distinct row starts in that order."""
    keys = tuple(rows[:, j] for j in range(rows.shape[1] - 1, -1, -1))
    order = np.lexsort(keys if minor is None else (minor,) + keys)
    s = rows[order]
    starts = np.ones(s.shape[0], dtype=bool)
    starts[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, starts


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


def full_spectrum(mu: SparseMeasure, side: int) -> np.ndarray:
    """|F| of mu's grid embedding on the whole side^n grid by fftn, as
    the scans read it before they took the rfftn half."""
    return np.abs(np.fft.fftn(_grid_embed(mu, (side,) * mu.dimension)))
