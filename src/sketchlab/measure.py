"""Finitely supported probability measures on Z^n and their Fourier
analysis: exact transforms, convolutions, dense-piece certificates,
large-spectrum scans with a non-omission margin.

A measure is stored as two arrays only: distinct int64 points sorted as
Python tuples sort, and their masses.  Every producer hands its arrays
straight to the constructor, which sums repeated points in input order.

Exact convolution is a shift-and-add whose per-cell summation order is
that of scipy's direct path, so it returns the same bits and clips
nothing; only the FFT convolutions clip dust into the deficit.  The scan
polish is coordinate ascent on arrays: each pass contracts the box of mu
with per-axis exponentials down to a 1-d trigonometric sum per hit, and
maximizes it by sampling plus safeguarded Newton steps, so the module
needs numpy alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .dgauss import TruncationPolicy, auto_box, gamma_normalizer

__all__ = [
    "SparseMeasure",
    "DensePieceCertificate",
    "ScanReport",
    "gamma_truncated",
    "reflect",
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

# Cells per block of a (frequencies x support) product; bounds the memory
# of fourier_many, of the polish's box contractions and of the torus
# distances from frequency rows to a structure.
_BLOCK_CELLS = 8_000_000


def _reduce_torus(arr: np.ndarray) -> np.ndarray:
    """Representatives in [-1/2, 1/2) of real coordinates mod 1."""
    return arr - np.floor(arr + 0.5)


def _lex_groups(
    rows: np.ndarray, minor: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Order that sorts integer rows as Python tuples sort (ties broken by
    the minor key, else kept in input order), and flags marking where each
    distinct row starts in that order."""
    keys = tuple(rows[:, j] for j in range(rows.shape[1] - 1, -1, -1))
    order = np.lexsort(keys if minor is None else (minor,) + keys)
    s = rows[order]
    starts = np.ones(s.shape[0], dtype=bool)
    starts[1:] = (s[1:] != s[:-1]).any(axis=1)
    return order, starts


def _sum_repeats(points: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in sorted order, each with its masses summed one by
    one in input order.  np.add.at keeps that sequential order, which
    np.add.reduceat's pairwise inner loop does not."""
    order, starts = _lex_groups(points)
    sums = np.zeros(int(starts.sum()))
    np.add.at(sums, np.cumsum(starts) - 1, masses[order])
    return points[order][starts], sums


class SparseMeasure:
    """Sub-probability measure with finite support on Z^n.

    The atoms are `points`, distinct int64 rows sorted as Python tuples
    sort, and their positive `masses`.  Mass removed by truncation is
    tracked in `deficit` instead of being renormalized away; total mass +
    deficit must be 1 up to slack.
    """

    __slots__ = ("dimension", "points", "masses", "deficit")

    def __init__(
        self,
        dimension: int,
        points: np.ndarray,
        masses: np.ndarray,
        deficit: float = 0.0,
    ) -> None:
        pts = np.asarray(points, dtype=np.int64)
        ms = np.asarray(masses, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != dimension:
            raise ValueError("atom dimension mismatch")
        if (ms < -1e-12).any():
            raise ValueError("negative mass")
        keep = ms > 0.0
        self.points, self.masses = _sum_repeats(pts[keep], ms[keep])
        if abs(self.total_mass + deficit - 1.0) > 1e-8:
            raise ValueError("mass + deficit must equal 1")
        self.dimension = dimension
        self.deficit = float(deficit)

    @property
    def atoms(self) -> MappingProxyType:
        """Read-only point -> mass view, for single-point lookups."""
        return MappingProxyType(
            dict(zip(map(tuple, self.points.tolist()), self.masses.tolist()))
        )

    @property
    def support_size(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses)

    @classmethod
    def uniform(cls, points: Sequence[Sequence[int]]) -> "SparseMeasure":
        if len(points) == 0:
            raise ValueError("empty support")
        pts = np.asarray(points, dtype=np.int64)
        return cls(pts.shape[-1], pts, np.full(len(pts), 1.0 / len(pts)))

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return tuple((int(a), int(b)) for a, b in zip(lo, hi))


def gamma_truncated(
    dimension: int, radius: float, policy: TruncationPolicy | None = None
) -> SparseMeasure:
    """gamma_R zeroed outside the policy ball; the removed tail is the
    deficit."""
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
    return SparseMeasure(dimension, pts, masses, deficit=max(0.0, 1.0 - total))


def reflect(mu: SparseMeasure) -> SparseMeasure:
    return SparseMeasure(mu.dimension, -mu.points, mu.masses, deficit=mu.deficit)


def restrict(
    mu: SparseMeasure,
    keep: Callable[[tuple[int, ...]], bool],
    renormalize: bool = False,
) -> SparseMeasure:
    mask = np.array([keep(p) for p in map(tuple, mu.points.tolist())], dtype=bool)
    if not mask.any():
        raise ValueError("restriction removed all mass")
    masses = mu.masses[mask]
    total = math.fsum(masses)
    if renormalize:
        return SparseMeasure(mu.dimension, mu.points[mask], masses / total)
    return SparseMeasure(mu.dimension, mu.points[mask], masses, deficit=1.0 - total)


def fourier_at(mu: SparseMeasure, zeta: np.ndarray) -> complex:
    """mu_hat(zeta) = sum_x mu(x) exp(-2 pi i <zeta, x>) at one row zeta."""
    return complex(fourier_many(mu, np.asarray(zeta, dtype=float)[None, :])[0])


def fourier_many(mu: SparseMeasure, zetas: np.ndarray) -> np.ndarray:
    """mu_hat evaluated at each row of zetas, chunked to bound memory.

    Phases and sums are einsum sums on the calling thread, as in
    _collapse: a BLAS product of this size wakes OpenBLAS's second
    thread, which then spins through the rest of the run."""
    zs = np.asarray(zetas, dtype=float)
    out = np.empty(zs.shape[0], dtype=complex)
    step = max(1, _BLOCK_CELLS // max(1, mu.support_size))
    for i in range(0, zs.shape[0], step):
        phase = np.einsum("rj,kj->rk", zs[i : i + step], mu.points)
        out[i : i + step] = np.einsum(
            "rk,k->r", np.exp(-2j * math.pi * phase), mu.masses
        )
    return out


def expected_norm(mu: SparseMeasure) -> float:
    """E_mu ||x||_2; 2 pi times this is a Lipschitz constant for mu_hat."""
    norms = np.sqrt(np.einsum("ij,ij->i", mu.points, mu.points))
    return float(np.einsum("i,i->", norms, mu.masses))


def _law_key(mu: SparseMeasure) -> tuple:
    """Equal for two measures with the same points, masses and deficit,
    so a product transforms or convolves each distinct law once."""
    return (mu.points.shape, mu.points.tobytes(), mu.masses.tobytes(), mu.deficit)


def _grid_embed(mu: SparseMeasure, shape: Sequence[int]) -> np.ndarray:
    """mu's masses on a zero array of `shape`, its bounding box's lower
    corner at the origin; errors if the box does not fit."""
    offsets = mu.points - mu.points.min(axis=0)
    if (offsets.max(axis=0) >= np.asarray(shape)).any():
        raise ValueError("grid smaller than support")
    arr = np.zeros(tuple(shape))
    arr[tuple(offsets.T)] = mu.masses
    return arr


def _covering_exponent(mus: Sequence[SparseMeasure], exponent: int) -> int:
    """The least grid exponent at or above `exponent` whose 2^e side covers
    the widest support among mus, so each embeds in its own grid."""
    widest = max(
        int((m.points.max(axis=0) - m.points.min(axis=0)).max()) + 1 for m in mus
    )
    while 2**exponent < widest:
        exponent += 1
    return exponent


def convolve(mu1: SparseMeasure, mu2: SparseMeasure) -> SparseMeasure:
    """Exact convolution by shift-and-add.

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
    lo1, lo2 = mu1.points.min(axis=0), mu2.points.min(axis=0)
    a1 = _grid_embed(mu1, mu1.points.max(axis=0) - lo1 + 1)
    a2 = _grid_embed(mu2, mu2.points.max(axis=0) - lo2 + 1)
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
    total = math.fsum(masses)
    return SparseMeasure(n, pts, masses, deficit=max(0.0, 1.0 - total))


def _fft_side(mus: Sequence[SparseMeasure]) -> int:
    """Side of the power-of-two grid that holds the convolution of mus
    without wrap-around: above the widest summed support span."""
    lo = np.sum([m.points.min(axis=0) for m in mus], axis=0)
    hi = np.sum([m.points.max(axis=0) for m in mus], axis=0)
    span = int((hi - lo).max()) + 1
    side = 1
    while side < span + 1:
        side *= 2
    return side


def convolve_many_fft(mus: Sequence[SparseMeasure]) -> SparseMeasure:
    """Product-of-transforms convolution on a padded power-of-two grid;
    equal laws are transformed once.

    Negative and sub-FFT_DUST values are clipped to zero; the clipped mass
    is recorded as deficit.
    """
    if not mus:
        raise ValueError("empty measure list")
    n = mus[0].dimension
    lo = np.sum([m.points.min(axis=0) for m in mus], axis=0)
    side = _fft_side(mus)
    spectra: dict[tuple, np.ndarray] = {}
    prod: np.ndarray | None = None
    for m in mus:
        key = _law_key(m)
        if key not in spectra:
            spectra[key] = np.fft.rfftn(_grid_embed(m, (side,) * n))
        prod = spectra[key] if prod is None else prod * spectra[key]
    conv = np.fft.irfftn(prod, s=(side,) * n, axes=tuple(range(n)))
    conv[conv < FFT_DUST] = 0.0
    idx = np.argwhere(conv > 0.0)
    pts = idx + lo  # corners add up across the factors
    masses = conv[tuple(idx.T)]
    total = math.fsum(masses)
    return SparseMeasure(n, pts, masses, deficit=max(0.0, 1.0 - total))


@dataclass(frozen=True)
class DensePieceCertificate:
    """mu <= alpha^{-1} gamma_R pointwise; S = log2(2/alpha)."""

    alpha: float
    S: float


def density_certificate(mu: SparseMeasure, radius: float) -> DensePieceCertificate:
    """alpha = (max_x mu(x)/gamma_R(x))^{-1}, evaluated in log space."""
    z = math.log(gamma_normalizer(mu.dimension, radius))
    norms2 = np.einsum("ij,ij->i", mu.points, mu.points).astype(float)
    log_gamma = -math.pi * norms2 / (radius * radius) - z
    worst = float(np.max(np.log(mu.masses) - log_gamma))
    alpha = math.exp(-worst)
    return DensePieceCertificate(alpha, math.log2(2.0 / alpha))


@dataclass(frozen=True)
class ScanReport:
    """The hits of a scan as rows sorted by (-magnitude, grid index): the
    grid cells, the (polished) frequencies reduced to the torus, their
    magnitudes and the magnitudes at the grid cells."""

    grid_index: np.ndarray
    zetas: np.ndarray
    magnitudes: np.ndarray
    grid_magnitudes: np.ndarray
    threshold: float
    grid_exponent: int
    margin_vacuous: bool


def _collapse(
    box: np.ndarray, centred: Sequence[np.ndarray], z: np.ndarray, i: int
) -> np.ndarray:
    """w[r, a] = sum of the box cells at index a of axis i, each times
    e(-sum_{j != i} v_j z_rj), where v_j is the centred coordinate of the
    cell on axis j and e(t) = exp(2 pi i t).

    The axes j != i are contracted one at a time with their per-axis
    exponentials, so a row costs sum_j W_j exponentials rather than one
    per atom.  The products are einsum sums on the calling thread, and a
    row's bits do not depend on which rows share the call.  A BLAS matrix
    product gives neither: its bits change with its shape, and on a busy
    2-CPU host a product large enough for two threads waited about 8 ms
    per call for the second one.
    """
    rows = z.shape[0]
    acc = np.moveaxis(box, i, 0)  # axis i slowest
    for depth, j in enumerate(reversed([j for j in range(box.ndim) if j != i])):
        wave = np.exp(-2j * math.pi * np.multiply.outer(z[:, j], centred[j]))
        if depth == 0:
            acc = np.einsum("pk,rk->rp", acc.reshape(-1, box.shape[j]), wave)
        else:
            acc = np.einsum("rpk,rk->rp", acc.reshape(rows, -1, box.shape[j]), wave)
    return np.broadcast_to(acc, (rows, box.shape[i]))


def _ascend(
    w: np.ndarray, values: np.ndarray, start: np.ndarray, step: float
) -> np.ndarray:
    """Per row, a maximizer of |S(c)|, S(c) = sum_a w_a e(-a c), on
    [start - step, start + step], or the start where |S| would drop.

    |S| is sampled at m = 3 + 2 ceil(8 B step) evenly spaced points, B
    the span of the values, so neighbouring samples are at most 1/(8 B)
    apart and the start is the middle one.  Every sample at least as high
    as its neighbours starts a search, so each sampled bump of |S| gets
    its own: safeguarded Newton on the slope of |S|^2 inside the bracket
    of the sample's two neighbours, where a step that leaves the bracket,
    or one where the curvature is not negative, bisects instead, and a
    search stops once its step is at most 1e-15.  The highest end point
    wins, the start on ties.  S, S' and S'' come from one product with
    the columns [1, a, a^2]; products are einsum sums, as in _collapse.
    """
    powers = np.stack([np.ones_like(values), values, values * values], axis=1)

    def moments(rows: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
        terms = w[rows] * np.exp(-2j * math.pi * np.multiply.outer(c, values))
        p = np.einsum("ra,ak->rk", terms, powers)
        return p[:, 0], -2j * math.pi * p[:, 1], -4.0 * math.pi**2 * p[:, 2]

    m = 3 + 2 * math.ceil(8.0 * float(np.ptp(values)) * step)
    mid = (m - 1) // 2
    offsets = (np.arange(m) - mid) * (2.0 * step / (m - 1))
    base = w * np.exp(-2j * math.pi * np.multiply.outer(start, values))
    waves = np.exp(-2j * math.pi * np.multiply.outer(values, offsets))
    samples = np.abs(np.einsum("ra,ak->rk", base, waves))
    peak = np.ones(samples.shape, dtype=bool)
    peak[:, 1:] &= samples[:, 1:] >= samples[:, :-1]
    peak[:, :-1] &= samples[:, :-1] >= samples[:, 1:]
    row, k = np.nonzero(peak)
    x = start[row] + offsets[k]
    lo = start[row] + offsets[np.maximum(k - 1, 0)]
    hi = start[row] + offsets[np.minimum(k + 1, m - 1)]
    live = np.arange(x.size)
    # bisection alone shrinks a bracket of width <= 1 below 1e-15 in 50 steps
    for _ in range(64):
        s, s1, s2 = moments(row[live], x[live])
        slope = (s.conj() * s1).real
        curve = (s1.conj() * s1).real + (s.conj() * s2).real
        xl, a, b = x[live], lo[live], hi[live]
        a = np.where(slope > 0.0, xl, a)
        b = np.where(slope < 0.0, xl, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xl - slope / curve
        inside = (curve < 0.0) & (newton > a) & (newton < b)
        nxt = np.where(slope == 0.0, xl, np.where(inside, newton, 0.5 * (a + b)))
        lo[live], hi[live], x[live] = a, b, nxt
        live = live[np.abs(nxt - xl) > 1e-15]
        if live.size == 0:
            break
    ends = np.full(samples.shape, np.nan)
    heights = np.full(samples.shape, -np.inf)
    ends[row, k] = x
    heights[row, k] = np.abs(moments(row, x)[0])
    # the middle sample first, so the start wins ties
    order = np.r_[mid, :mid, mid + 1 : m]
    pick = order[np.argmax(heights[:, order], axis=1)]
    rows = np.arange(start.size)
    return np.where(heights[rows, pick] >= samples[:, mid], ends[rows, pick], start)


def _polish(mu: SparseMeasure, starts: np.ndarray, step: float) -> np.ndarray:
    """Coordinate ascent on |mu_hat| within +-step of each start row.

    Three sweeps over the coordinates.  mu is embedded in its bounding
    box once; a coordinate pass collapses the other coordinates of every
    row with _collapse,
    w_a = sum_{x: x_i = a} mu(x) e(-sum_{j != i} x_j z_j),
    so mu_hat with z_i = c is the 1-d sum sum_a w_a e(-a c), up to a
    phase that |mu_hat| does not see.  _ascend then maximizes its modulus
    on every row at once, within +-step of the current coordinate, and a
    coordinate moves only if |mu_hat| does not drop.  Rows go in blocks
    of about _BLOCK_CELLS box cells.
    """
    zs = np.array(starts, dtype=float)
    box = _grid_embed(mu, mu.points.max(axis=0) - mu.points.min(axis=0) + 1)
    # coordinates centred on the box, so phases and derivatives stay small
    centred = [np.arange(size) - 0.5 * (size - 1) for size in box.shape]
    block = max(1, _BLOCK_CELLS // box.size)
    for lo in range(0, zs.shape[0], block):
        z = zs[lo : lo + block]  # a view: moves land in zs
        for _ in range(3):
            for i in range(mu.dimension):
                w = _collapse(box, centred, z, i)
                z[:, i] = _ascend(w, centred[i], z[:, i], step)
    return zs


def large_spectrum_scan(
    mu: SparseMeasure,
    K: float,
    grid_exponent: int,
    refine: bool = False,
) -> ScanReport:
    """All grid frequencies with |mu_hat| >= 1 - 1/K, optionally polished
    by local coordinate ascent.

    With refine, every hit is polished at once by _polish (coordinate
    ascent within half a grid cell per pass, each pass a sampled
    safeguarded Newton search on the 1-d sum the other coordinates
    collapse to), and the polished magnitudes are read in one
    fourier_many call.

    The report flags a vacuous non-omission margin: with the Lipschitz
    constant 2 pi E||x||_2 of |mu_hat|, any frequency with magnitude above
    threshold + margin, margin = 2 pi E||x||_2 sqrt(n) / (2 side), has a
    grid neighbor above threshold, so it cannot be missed; the margin is
    vacuous once it reaches 1/K.
    """
    if K < 2:
        raise ValueError("K must be at least 2")
    side = 2**grid_exponent
    n = mu.dimension
    grid = _grid_embed(mu, (side,) * n)
    # fftn phase matches the transform convention, so F[k] = mu_hat(k/side)
    mag = np.abs(np.fft.fftn(grid))
    threshold = 1.0 - 1.0 / K
    index = np.argwhere(mag >= threshold)
    grid_mag = mag[tuple(index.T)]
    zetas = _reduce_torus(index / side)
    mags = grid_mag
    if refine:
        zetas = _polish(mu, zetas, 0.5 / side)
        mags = np.abs(fourier_many(mu, zetas))
    order = np.lexsort(tuple(index[:, j] for j in range(n - 1, -1, -1)) + (-mags,))
    margin = 2.0 * math.pi * expected_norm(mu) * math.sqrt(n) / (2.0 * side)
    return ScanReport(
        index[order],
        _reduce_torus(zetas[order]),
        mags[order],
        grid_mag[order],
        threshold,
        grid_exponent,
        margin >= 1.0 / K,
    )


def symmetrize(mus: Sequence[SparseMeasure]) -> SparseMeasure:
    """(1/M) sum_i mu_i * mu_i-reflected; the transform becomes the mean of
    |mu_hat_i|^2, hence real and nonnegative.  Equal laws are convolved
    once."""
    if not mus:
        raise ValueError("empty measure list")
    M = len(mus)
    convs: dict[tuple, SparseMeasure] = {}
    terms = []
    for m in mus:
        key = _law_key(m)
        conv = convs.get(key)
        if conv is None:
            big = m.support_size**2 > 4_000_000
            conv = (
                convolve_many_fft([m, reflect(m)])
                if big
                else convolve(m, reflect(m))
            )
            convs[key] = conv
        terms.append(conv)
    # each point's terms are summed in the order of mus
    pts, masses = _sum_repeats(
        np.concatenate([c.points for c in terms]),
        np.concatenate([c.masses / M for c in terms]),
    )
    total = math.fsum(masses)
    return SparseMeasure(mus[0].dimension, pts, masses, deficit=max(0.0, 1.0 - total))
