"""Finitely supported probability measures on Z^n and their Fourier
analysis: exact transforms, convolutions, dense-piece certificates,
large-spectrum scans with a non-omission margin.

Exact convolution is a shift-and-add whose per-cell summation order is
that of scipy's direct path, so it returns the same bits and clips
nothing; only the FFT convolutions clip dust into the deficit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize

from .dgauss import TruncationPolicy, auto_box, gamma_normalizer

__all__ = [
    "TorusPoint",
    "SparseMeasure",
    "DensePieceCertificate",
    "ScanHit",
    "ScanReport",
    "gamma_truncated",
    "reflect",
    "translate",
    "restrict",
    "fourier_at",
    "fourier_many",
    "expected_norm",
    "convolve",
    "convolve_many_fft",
    "density_certificate",
    "large_spectrum_scan",
    "symmetrize",
]

# Numerical dust threshold for FFT convolutions; clipped mass goes to deficit.
FFT_DUST = 1e-12


def _reduce_torus(arr: np.ndarray) -> np.ndarray:
    """Representatives in [-1/2, 1/2) of real coordinates mod 1."""
    return arr - np.floor(arr + 0.5)


@dataclass(frozen=True)
class TorusPoint:
    """Frequency on T^n = [-1/2, 1/2)^n with wrap-around arithmetic."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.coords, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("torus coordinates must be finite")
        object.__setattr__(self, "coords", tuple(float(c) for c in _reduce_torus(arr)))

    @classmethod
    def of(cls, coords: Sequence[float]) -> "TorusPoint":
        return cls(tuple(float(c) for c in np.asarray(coords, dtype=float).reshape(-1)))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    @property
    def norm(self) -> float:
        """Euclidean distance to the nearest integer vector."""
        return float(np.linalg.norm(self.array))

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint.of(self.array + other.array)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint.of(self.array - other.array)


class SparseMeasure:
    """Sub-probability measure with finite support on Z^n.

    Mass removed by truncation is tracked in `deficit` instead of being
    renormalized away; total mass + deficit must be 1 up to slack.
    """

    __slots__ = ("dimension", "atoms", "deficit", "points", "masses")

    def __init__(
        self,
        dimension: int,
        atoms: Mapping[tuple[int, ...], float] | Iterable[tuple[Sequence[int], float]],
        deficit: float = 0.0,
    ) -> None:
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
        self.dimension = dimension
        self.atoms = clean
        self.deficit = float(deficit)
        order = sorted(clean)
        self.points = np.asarray(order, dtype=np.int64).reshape(len(order), dimension)
        self.masses = np.asarray([clean[p] for p in order], dtype=float)

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.atoms.values())

    @classmethod
    def point_mass(cls, point: Sequence[int]) -> "SparseMeasure":
        key = tuple(int(c) for c in point)
        return cls(len(key), {key: 1.0})

    @classmethod
    def uniform(cls, points: Sequence[Sequence[int]]) -> "SparseMeasure":
        pts = [tuple(int(c) for c in p) for p in points]
        if not pts:
            raise ValueError("empty support")
        mass = 1.0 / len(pts)
        out: dict[tuple[int, ...], float] = {}
        for p in pts:
            out[p] = out.get(p, 0.0) + mass
        return cls(len(pts[0]), out)

    def mass_at(self, point: Sequence[int]) -> float:
        return self.atoms.get(tuple(int(c) for c in point), 0.0)

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return tuple((int(a), int(b)) for a, b in zip(lo, hi))


def gamma_truncated(
    dimension: int,
    radius: float,
    policy: TruncationPolicy | None = None,
    renormalize: bool = False,
) -> SparseMeasure:
    """gamma_R zeroed outside the policy ball; the removed tail is the
    deficit (or folded back in when renormalize is set)."""
    pol = policy or TruncationPolicy.for_gaussian(dimension, radius)
    if pol.dimension != dimension:
        raise ValueError("policy dimension mismatch")
    box = auto_box(dimension, pol.radius)
    axes = [np.arange(lo, hi + 1) for lo, hi in box]
    pts = np.stack(
        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1
    )
    norms2 = np.einsum("ij,ij->i", pts, pts).astype(float)
    keep = norms2 <= pol.radius * pol.radius
    pts, norms2 = pts[keep], norms2[keep]
    z = gamma_normalizer(dimension, radius)
    masses = np.exp(-math.pi * norms2 / (radius * radius)) / z
    total = math.fsum(masses)
    if renormalize:
        masses = masses / total
        total = 1.0
    return SparseMeasure(
        dimension,
        zip(pts.tolist(), masses.tolist()),
        deficit=max(0.0, 1.0 - total),
    )


def reflect(mu: SparseMeasure) -> SparseMeasure:
    return SparseMeasure(
        mu.dimension,
        {tuple(-c for c in p): m for p, m in mu.atoms.items()},
        deficit=mu.deficit,
    )


def translate(mu: SparseMeasure, v: Sequence[int]) -> SparseMeasure:
    """tau_v mu with (tau_v mu)(x) = mu(x - v)."""
    vv = tuple(int(c) for c in v)
    return SparseMeasure(
        mu.dimension,
        {tuple(c + d for c, d in zip(p, vv)): m for p, m in mu.atoms.items()},
        deficit=mu.deficit,
    )


def restrict(
    mu: SparseMeasure,
    keep: Callable[[tuple[int, ...]], bool],
    renormalize: bool = False,
) -> SparseMeasure:
    kept = {p: m for p, m in mu.atoms.items() if keep(p)}
    if not kept:
        raise ValueError("restriction removed all mass")
    total = math.fsum(kept.values())
    if renormalize:
        return SparseMeasure(
            mu.dimension, {p: m / total for p, m in kept.items()}
        )
    return SparseMeasure(mu.dimension, kept, deficit=1.0 - total)


def _zeta_array(zeta: TorusPoint | Sequence[float]) -> np.ndarray:
    if isinstance(zeta, TorusPoint):
        return zeta.array
    return np.asarray(zeta, dtype=float).reshape(-1)


def fourier_at(mu: SparseMeasure, zeta: TorusPoint | Sequence[float]) -> complex:
    """mu_hat(zeta) = sum_x mu(x) exp(-2 pi i <zeta, x>)."""
    z = _zeta_array(zeta)
    phase = mu.points @ z
    return complex(np.exp(-2j * math.pi * phase) @ mu.masses)


def fourier_many(mu: SparseMeasure, zetas: np.ndarray) -> np.ndarray:
    """mu_hat evaluated at each row of zetas, chunked to bound memory."""
    zs = np.asarray(zetas, dtype=float)
    out = np.empty(zs.shape[0], dtype=complex)
    step = max(1, 8_000_000 // max(1, mu.support_size))
    for i in range(0, zs.shape[0], step):
        phase = zs[i : i + step] @ mu.points.T
        out[i : i + step] = np.exp(-2j * math.pi * phase) @ mu.masses
    return out


def expected_norm(mu: SparseMeasure) -> float:
    """E_mu ||x||_2; 2 pi times this is a Lipschitz constant for mu_hat."""
    return float(np.sqrt(np.einsum("ij,ij->i", mu.points, mu.points)) @ mu.masses)


def _grid_embed(mus: Sequence[SparseMeasure], side: int) -> list[np.ndarray]:
    """Embed measures in one common side^n grid (shared corner); errors if
    the joint bounding box does not fit."""
    n = mus[0].dimension
    lo = np.min([m.points.min(axis=0) for m in mus], axis=0)
    hi = np.max([m.points.max(axis=0) for m in mus], axis=0)
    if int((hi - lo).max()) + 1 > side:
        raise ValueError("grid smaller than support")
    grids = []
    for m in mus:
        arr = np.zeros((side,) * n)
        np.add.at(arr, tuple(((m.points - lo) % side).T), m.masses)
        grids.append(arr)
    return grids


def _dense_box(mu: SparseMeasure) -> tuple[np.ndarray, np.ndarray]:
    """mu embedded in its bounding box, and the box's lower corner."""
    lo = mu.points.min(axis=0)
    box = np.zeros(mu.points.max(axis=0) - lo + 1)
    box[tuple((mu.points - lo).T)] = mu.masses
    return box, lo


def convolve(
    mu1: SparseMeasure,
    mu2: SparseMeasure,
    truncation: Sequence[Sequence[int]] | None = None,
) -> SparseMeasure:
    """Exact convolution by shift-and-add; atoms outside `truncation`
    are dropped into the deficit.

    Each atom of mu1, in stored (C) order, adds a scaled copy of mu2's
    dense box into the output, so every output cell sums its products
    in ascending order of the mu1 index.  That is the order of scipy's
    direct N-d correlation, and in 1-D np.convolve is scipy's direct
    path itself, so the result is bit-for-bit
    scipy.signal.convolve(method="direct").  Nothing is clipped: every
    positive cell becomes an atom.
    """
    if mu1.dimension != mu2.dimension:
        raise ValueError("dimension mismatch")
    n = mu1.dimension
    a1, lo1 = _dense_box(mu1)
    a2, lo2 = _dense_box(mu2)
    if n == 1:
        conv = np.convolve(a1, a2)
    else:
        conv = np.zeros(np.add(a1.shape, a2.shape) - 1)
        scaled = np.empty_like(a2)
        for off, w in zip((mu1.points - lo1).tolist(), mu1.masses.tolist()):
            np.multiply(a2, w, out=scaled)
            conv[tuple(slice(o, o + s) for o, s in zip(off, a2.shape))] += scaled
    lo = lo1 + lo2
    idx = np.argwhere(conv > 0.0)
    pts = idx + lo
    masses = conv[tuple(idx.T)]
    if truncation is not None:
        tb = tuple((int(a), int(b)) for a, b in truncation)
        inside = np.all(
            [(pts[:, i] >= tb[i][0]) & (pts[:, i] <= tb[i][1]) for i in range(n)],
            axis=0,
        )
        pts, masses = pts[inside], masses[inside]
    total = math.fsum(masses)
    return SparseMeasure(
        n, zip(pts.tolist(), masses.tolist()), deficit=max(0.0, 1.0 - total)
    )


def convolve_many_fft(
    mus: Sequence[SparseMeasure],
    box: Sequence[Sequence[int]] | None = None,
    deficit_budget: float | None = None,
) -> SparseMeasure:
    """Product-of-transforms convolution on a padded power-of-two grid.

    Negative and sub-FFT_DUST values are clipped to zero; the clipped and
    out-of-box mass is recorded as deficit. Exceeding deficit_budget is a
    box-too-small error.
    """
    if not mus:
        raise ValueError("empty measure list")
    n = mus[0].dimension
    lo = np.sum([m.points.min(axis=0) for m in mus], axis=0)
    hi = np.sum([m.points.max(axis=0) for m in mus], axis=0)
    span = int((hi - lo).max()) + 1
    side = 1
    while side < span + 1:
        side *= 2
    spectra: dict[int, np.ndarray] = {}
    prod: np.ndarray | None = None
    for m in mus:
        key = id(m)
        if key not in spectra:
            arr = np.zeros((side,) * n)
            corner = m.points.min(axis=0)
            np.add.at(arr, tuple((m.points - corner).T), m.masses)
            spectra[key] = np.fft.rfftn(arr)
        prod = spectra[key] if prod is None else prod * spectra[key]
    conv = np.fft.irfftn(prod, s=(side,) * n, axes=tuple(range(n)))
    conv[conv < FFT_DUST] = 0.0
    idx = np.argwhere(conv > 0.0)
    pts = idx + lo  # corners add up across the factors
    masses = conv[tuple(idx.T)]
    if box is not None:
        tb = tuple((int(a), int(b)) for a, b in box)
        inside = np.all(
            [(pts[:, i] >= tb[i][0]) & (pts[:, i] <= tb[i][1]) for i in range(n)],
            axis=0,
        )
        pts, masses = pts[inside], masses[inside]
    total = math.fsum(masses)
    deficit = max(0.0, 1.0 - total)
    if deficit_budget is not None and deficit > deficit_budget:
        raise ValueError("box too small: deficit exceeds the budget")
    return SparseMeasure(n, zip(pts.tolist(), masses.tolist()), deficit=deficit)


@dataclass(frozen=True)
class DensePieceCertificate:
    """mu <= alpha^{-1} gamma_R pointwise; S = log2(2/alpha)."""

    alpha: float
    S: float
    reference_radius: float


def density_certificate(mu: SparseMeasure, radius: float) -> DensePieceCertificate:
    """alpha = (max_x mu(x)/gamma_R(x))^{-1}, evaluated in log space."""
    z = math.log(gamma_normalizer(mu.dimension, radius))
    norms2 = np.einsum("ij,ij->i", mu.points, mu.points).astype(float)
    log_gamma = -math.pi * norms2 / (radius * radius) - z
    worst = float(np.max(np.log(mu.masses) - log_gamma))
    alpha = math.exp(-worst)
    return DensePieceCertificate(alpha, math.log2(2.0 / alpha), radius)


@dataclass(frozen=True)
class ScanHit:
    grid_index: tuple[int, ...]
    zeta: TorusPoint
    magnitude: float
    grid_magnitude: float


@dataclass(frozen=True)
class ScanReport:
    hits: tuple[ScanHit, ...]
    threshold: float
    grid_exponent: int
    lipschitz: float
    non_omission_margin: float
    margin_vacuous: bool

    def frequencies(self) -> list[TorusPoint]:
        return [h.zeta for h in self.hits]


def _polish(mu: SparseMeasure, start: np.ndarray, step: float) -> np.ndarray:
    """Coordinate ascent on |mu_hat| within +-step of the seed."""
    z = start.copy()
    for _ in range(3):
        for i in range(z.size):
            def neg(c: float, i=i) -> float:
                trial = z.copy()
                trial[i] = c
                return -abs(fourier_at(mu, trial))
            res = optimize.minimize_scalar(
                neg,
                bounds=(z[i] - step, z[i] + step),
                method="bounded",
                options={"xatol": 1e-12},
            )
            if -res.fun >= abs(fourier_at(mu, z)):
                z[i] = float(res.x)
    return z


def large_spectrum_scan(
    mu: SparseMeasure,
    K: float,
    grid_exponent: int,
    refine: bool = False,
) -> ScanReport:
    """All grid frequencies with |mu_hat| >= 1 - 1/K, optionally polished
    by local coordinate ascent.

    The report carries the Lipschitz constant 2 pi E||x||_2 and the
    non-omission margin: any frequency with magnitude above threshold +
    margin has a grid neighbor above threshold, so it cannot be missed.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    side = 2**grid_exponent
    n = mu.dimension
    grid = _grid_embed([mu], side)[0]
    # fftn phase matches the transform convention, so F[k] = mu_hat(k/side)
    mag = np.abs(np.fft.fftn(grid))
    threshold = 1.0 - 1.0 / K
    hits: list[ScanHit] = []
    for raw in np.argwhere(mag >= threshold):
        k = tuple(int(c) for c in raw)
        grid_zeta = TorusPoint.of(np.asarray(k, dtype=float) / side)
        gm = float(mag[k])
        if refine:
            z = _polish(mu, grid_zeta.array, 0.5 / side)
            hits.append(ScanHit(k, TorusPoint.of(z), abs(fourier_at(mu, z)), gm))
        else:
            hits.append(ScanHit(k, grid_zeta, gm, gm))
    hits.sort(key=lambda h: (-h.magnitude, h.grid_index))
    lip = 2.0 * math.pi * expected_norm(mu)
    margin = lip * math.sqrt(n) / (2.0 * side)
    return ScanReport(
        tuple(hits), threshold, grid_exponent, lip, margin, margin >= 1.0 / K
    )


def symmetrize(mus: Sequence[SparseMeasure]) -> SparseMeasure:
    """(1/M) sum_i mu_i * mu_i-reflected; the transform becomes the mean of
    |mu_hat_i|^2, hence real and nonnegative."""
    if not mus:
        raise ValueError("empty measure list")
    M = len(mus)
    out: dict[tuple[int, ...], float] = {}
    # equal laws (same points, masses and deficit) are convolved once
    convs: dict[tuple, SparseMeasure] = {}
    for m in mus:
        key = (m.points.shape, m.points.tobytes(), m.masses.tobytes(), m.deficit)
        conv = convs.get(key)
        if conv is None:
            big = m.support_size**2 > 4_000_000
            conv = (
                convolve_many_fft([m, reflect(m)])
                if big
                else convolve(m, reflect(m))
            )
            convs[key] = conv
        for p, w in conv.atoms.items():
            out[p] = out.get(p, 0.0) + w / M
    total = math.fsum(out.values())
    return SparseMeasure(mus[0].dimension, out, deficit=max(0.0, 1.0 - total))
