"""Finitely supported probability measures on Z^n and their Fourier
analysis: exact transforms, convolutions, dense-piece certificates,
large-spectrum scans with a non-omission margin.

A measure is stored as two arrays only: distinct int64 points sorted as
Python tuples sort, and their masses.  Every producer hands its arrays
straight to the constructor, which sums repeated points in input order.

Exact convolution is a shift-and-add whose per-cell summation order is
that of scipy's direct path, so it returns the same bits and clips
nothing; only the FFT convolutions clip dust into the deficit.  The scan
polish carries its own array port of scipy's bounded Brent search, so
the module needs numpy alone."""

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

# Cells per block of a (frequencies x support) product; bounds the memory
# of fourier_many, of the polish's collapsed objectives and of the torus
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


def translate(mu: SparseMeasure, v: Sequence[int]) -> SparseMeasure:
    """tau_v mu with (tau_v mu)(x) = mu(x - v)."""
    shifted = mu.points + np.asarray(v, dtype=np.int64)
    return SparseMeasure(mu.dimension, shifted, mu.masses, deficit=mu.deficit)


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
    phase = mu.points @ np.asarray(zeta, dtype=float)
    return complex(np.exp(-2j * math.pi * phase) @ mu.masses)


def fourier_many(mu: SparseMeasure, zetas: np.ndarray) -> np.ndarray:
    """mu_hat evaluated at each row of zetas, chunked to bound memory."""
    zs = np.asarray(zetas, dtype=float)
    out = np.empty(zs.shape[0], dtype=complex)
    step = max(1, _BLOCK_CELLS // max(1, mu.support_size))
    for i in range(0, zs.shape[0], step):
        phase = zs[i : i + step] @ mu.points.T
        out[i : i + step] = np.exp(-2j * math.pi * phase) @ mu.masses
    return out


def expected_norm(mu: SparseMeasure) -> float:
    """E_mu ||x||_2; 2 pi times this is a Lipschitz constant for mu_hat."""
    return float(np.sqrt(np.einsum("ij,ij->i", mu.points, mu.points)) @ mu.masses)


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


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_brent(
    fun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer and minimum of each row's objective on [lo, hi].

    This is scipy's bounded Brent search (minimize_scalar with
    method="bounded", xatol=1e-12 and the default maxiter=500) run on
    all rows at once.  Each row takes the same golden-section and
    parabolic steps with the same arithmetic, the same bracket and point
    updates and the same stopping rule, so it returns the bits scipy
    returns for that interval alone.  fun(rows, x) is the objective of
    the listed rows at x; converged rows drop out, so fun sees only live
    rows.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    xf = a + _GOLDEN * (b - a)
    rows = np.arange(xf.size)
    fx = fun(rows, xf)
    x_out, f_out = np.empty_like(xf), np.empty_like(fx)
    nfc, fnfc, fulc, ffulc = xf, fx, xf, fx
    e = rat = np.zeros_like(xf)
    xatol, maxiter = 1e-12, 500
    # the first evaluation counts against maxiter
    for step in range(maxiter):
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        xm = 0.5 * (a + b)
        live = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
        if not live.all():
            done = rows[~live]
            x_out[done], f_out[done] = xf[~live], fx[~live]
            state = (rows, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, tol1, tol2, xm)
            rows, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, tol1, tol2, xm = (
                v[live] for v in state
            )
        if rows.size == 0 or step == maxiter - 1:
            break
        # the parabola through the three best points, where the step
        # before last was long enough and the vertex is inside the bracket
        parab = np.abs(e) > tol1
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        ok = (
            parab
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        e = np.where(parab, rat, e)
        rat[ok] = (p[ok] + 0.0) / q[ok]
        near = ok & ((xf + rat - a < tol2) | (b - (xf + rat) < tol2))
        d = xm[near] - xf[near]
        rat[near] = tol1[near] * (np.sign(d) + (d == 0))
        # a golden-section step everywhere else
        gold = ~ok
        e[gold] = np.where(xf >= xm, a - xf, b - xf)[gold]
        rat[gold] = _GOLDEN * e[gold]
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = fun(rows, x)
        better = fu <= fx
        right = x >= xf
        a = np.where(better, np.where(right, xf, a), np.where(right, a, x))
        b = np.where(better, np.where(right, b, xf), np.where(right, x, b))
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | second
        fulc = np.where(shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)
    x_out[rows] = xf
    f_out[rows] = fx
    return x_out, f_out


def _polish(mu: SparseMeasure, starts: np.ndarray, step: float) -> np.ndarray:
    """Coordinate ascent on |mu_hat| within +-step of each start row.

    Three sweeps over the coordinates.  A coordinate pass collapses the
    fixed coordinates once per row,
    w_a = sum_{x: x_i = a} mu(x) exp(-2 pi i sum_{j != i} x_j z_j),
    so mu_hat with z_i = c is the 1-d sum sum_a w_a exp(-2 pi i a c) over
    the distinct values a of x_i.  _bounded_brent then maximizes it on
    every row at once, and a coordinate moves only if the new |mu_hat| is
    at least the current one.  Rows go in blocks of about _BLOCK_CELLS
    collapsed support cells.
    """
    zs = np.array(starts, dtype=float)
    # per coordinate: the support ordered by x_i, where each value of x_i
    # starts in that order, and the values
    passes = []
    for i in range(mu.dimension):
        order = np.argsort(mu.points[:, i], kind="stable")
        col = mu.points[order, i]
        first = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
        rest = np.delete(mu.points[order], i, axis=1)
        passes.append((rest, mu.masses[order], first, col[first]))
    block = max(1, _BLOCK_CELLS // max(1, mu.support_size))
    for lo in range(0, zs.shape[0], block):
        z = zs[lo : lo + block]  # a view: moves land in zs
        for _ in range(3):
            for i, (rest, masses, first, values) in enumerate(passes):
                phase = np.delete(z, i, axis=1) @ rest.T
                w = np.add.reduceat(
                    np.exp(-2j * math.pi * phase) * masses, first, axis=1
                )

                def neg(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
                    wave = np.exp(-2j * math.pi * np.multiply.outer(c, values))
                    return -np.abs(np.einsum("ra,ra->r", w[rows], wave))

                now = -neg(np.arange(z.shape[0]), z[:, i])
                x, fx = _bounded_brent(neg, z[:, i] - step, z[:, i] + step)
                move = -fx >= now
                z[move, i] = x[move]
    return zs


def large_spectrum_scan(
    mu: SparseMeasure,
    K: float,
    grid_exponent: int,
    refine: bool = False,
) -> ScanReport:
    """All grid frequencies with |mu_hat| >= 1 - 1/K, optionally polished
    by local coordinate ascent.

    With refine, every hit is polished at once by _polish (a bounded
    Brent search on arrays over hits, on the collapsed 1-d objective),
    and the polished magnitudes are read in one fourier_many call.

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
