"""Finitely supported probability measures on Z^n and their Fourier
analysis: exact transforms, convolutions, dense-piece certificates,
large-spectrum scans with a non-omission margin.

A measure is stored as two arrays only: distinct int64 points sorted as
Python tuples sort, and their masses.  Every producer hands its arrays
straight to the constructor, which sums repeated points in input order,
and stores copies of input that is already distinct, sorted and
positive as it is.  Mass totals are dgauss.exact_sum, math.fsum's
correctly rounded sum taken on the array.

Every pipeline convolution is an FFT product on a grid sized by a
certified tail window, which clips dust into the deficit and charges its
wrap-around and roundoff there too.  convolve, the exact shift-and-add
that no pipeline code calls, sums each cell in scipy's direct order; it
is the reference.  Every read of heavy grid frequencies goes through
heavy_cells, which transforms real grids by rfftn and reads the other
half of the spectrum as its mirror image.  The scan polish is
coordinate ascent on arrays: each pass contracts the box of mu with
per-axis exponentials down to a 1-d trigonometric sum per hit, and
maximizes it by sampling plus safeguarded Newton steps, so the module
needs numpy alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .dgauss import TruncationPolicy, auto_box, box_points, exact_sum, gamma_normalizer

__all__ = [
    "SparseMeasure",
    "DensePieceCertificate",
    "ScanReport",
    "gamma_truncated",
    "reflect",
    "fourier_at",
    "fourier_many",
    "expected_norm",
    "convolve",
    "convolve_many_fft",
    "density_certificate",
    "heavy_cells",
    "large_spectrum_scan",
    "symmetrize",
]

# Numerical dust threshold for FFT convolutions; clipped mass goes to deficit.
FFT_DUST = 1e-12

# Mass a convolution may keep outside its tail window, all 2n one-sided
# tails together.  A grid narrower than the support wraps at most this
# much into the window, which costs twice it in L1 (lost outside, added
# inside); convolve_many_fft charges that to the deficit.
WRAP_MASS = 1e-16

# The Chernoff exponents at which every tail window is read.
_LAMBDAS = 2.0 ** (np.arange(-48, 21) / 4.0)

# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53

# Cells per block of a (frequencies x support) product; bounds the memory
# of fourier_many, of the polish's box contractions and of the torus
# distances from frequency rows to a structure.
_BLOCK_CELLS = 8_000_000


def _reduce_torus(arr: np.ndarray) -> np.ndarray:
    """Representatives in [-1/2, 1/2) of real coordinates mod 1."""
    return arr - np.floor(arr + 0.5)


def _corners(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis minimum and maximum of integer rows, a column at a time:
    an axis-0 reduction over a narrow 2-d array takes many times as long
    as the 1-d reductions of its columns."""
    cols = points.T
    return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])


def _packed_key(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """One int64 mixed-radix key per row of integer columns (`rows.T` of a
    2-d array), whose digit j runs over column j's span max - min + 1, so
    keys order the rows as Python tuples sort; and the spans.

    The product of the spans is checked in Python integers first; if it
    exceeds the int64 range a ValueError names the spans.  Any support
    that _grid_embed can hold is far inside that range.  Columns are
    reduced one at a time: a 1-d min or max is far cheaper than an axis
    reduction over a narrow 2-d array.
    """
    lows = [int(c.min()) for c in columns]
    spans = [int(c.max()) - lo + 1 for c, lo in zip(columns, lows)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        raise ValueError(f"packed sort key overflows int64: column spans {spans}")
    key = np.zeros(columns[0].size, dtype=np.int64)
    for c, lo, span in zip(columns, lows, spans):
        key *= span
        key += c - lo
    return key, spans


def _lex_groups(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Order that sorts integer rows, given as their int64 columns (`rows.T`
    of a 2-d array), as Python tuples sort (ties kept in input order), and
    flags marking where each distinct row starts in that order.

    Each row is packed into one _packed_key, and the keys are sorted
    stably, so equal keys keep their input order.
    """
    if columns[0].size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool)
    key, _ = _packed_key(columns)
    order = np.argsort(key, kind="stable")
    s = key[order]
    starts = np.ones(s.size, dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    return order, starts


def _sum_repeats(points: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in sorted order, each with its masses summed one by
    one in input order.  np.add.at keeps that sequential order, which
    np.add.reduceat's pairwise inner loop does not."""
    order, starts = _lex_groups(points.T)
    sums = np.zeros(int(starts.sum()))
    np.add.at(sums, np.cumsum(starts) - 1, masses[order])
    return points[order][starts], sums


def _strictly_sorted(points: np.ndarray) -> bool:
    """Whether the rows are distinct and in the order _sum_repeats sorts
    them to."""
    if points.shape[0] < 2:
        return True
    key, _ = _packed_key(points.T)
    return bool((key[1:] > key[:-1]).all())


class SparseMeasure:
    """Sub-probability measure with finite support on Z^n.

    The atoms are `points`, distinct int64 rows sorted as Python tuples
    sort, and their positive `masses`, both copies of the input: input in
    that form already is stored as it is, any other has its repeated rows
    summed and its zero masses dropped (_sum_repeats).  Mass removed by
    truncation is tracked in `deficit` instead of being renormalized
    away; total mass + deficit must be 1 up to slack.  `roundoff` bounds
    how far each stored mass may lie from the exact value of the
    operation that built it (0 for masses taken as given; an FFT
    product's a-priori bound).
    """

    __slots__ = ("dimension", "points", "masses", "deficit", "roundoff")

    def __init__(
        self,
        dimension: int,
        points: np.ndarray,
        masses: np.ndarray,
        deficit: float = 0.0,
        roundoff: float = 0.0,
    ) -> None:
        pts = np.asarray(points, dtype=np.int64)
        ms = np.asarray(masses, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != dimension:
            raise ValueError("atom dimension mismatch")
        if (ms < -1e-12).any():
            raise ValueError("negative mass")
        keep = ms > 0.0
        if ms.shape == pts.shape[:1] and keep.all() and _strictly_sorted(pts):
            # already distinct and sorted, as an unwrapped FFT product's
            # argwhere cells are: _sum_repeats would copy them unchanged
            self.points, self.masses = pts.copy(), ms.copy()
        else:
            self.points, self.masses = _sum_repeats(pts[keep], ms[keep])
        if abs(self.total_mass + deficit - 1.0) > 1e-8:
            raise ValueError("mass + deficit must equal 1")
        self.dimension = dimension
        self.deficit = float(deficit)
        self.roundoff = float(roundoff)

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
        return exact_sum(self.masses)

    @classmethod
    def uniform(cls, points: Sequence[Sequence[int]]) -> "SparseMeasure":
        if len(points) == 0:
            raise ValueError("empty support")
        pts = np.asarray(points, dtype=np.int64)
        return cls(pts.shape[-1], pts, np.full(len(pts), 1.0 / len(pts)))

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        lo, hi = _corners(self.points)
        return tuple((int(a), int(b)) for a, b in zip(lo, hi))


def gamma_truncated(
    dimension: int, radius: float, policy: TruncationPolicy | None = None
) -> SparseMeasure:
    """gamma_R zeroed outside the policy ball; the removed tail is the
    deficit."""
    pol = policy or TruncationPolicy.for_gaussian(dimension, radius)
    if pol.dimension != dimension:
        raise ValueError("policy dimension mismatch")
    pts = box_points(auto_box(dimension, pol.radius))
    norms2 = np.einsum("ij,ij->i", pts, pts).astype(float)
    keep = norms2 <= pol.radius * pol.radius
    pts, norms2 = pts[keep], norms2[keep]
    z = gamma_normalizer(dimension, radius)
    masses = np.exp(-math.pi * norms2 / (radius * radius)) / z
    total = exact_sum(masses)
    return SparseMeasure(dimension, pts, masses, deficit=max(0.0, 1.0 - total))


def reflect(mu: SparseMeasure) -> SparseMeasure:
    return SparseMeasure(
        mu.dimension, -mu.points, mu.masses, deficit=mu.deficit, roundoff=mu.roundoff
    )


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
    lo, hi = _corners(mu.points)
    if (hi - lo >= np.asarray(shape)).any():
        raise ValueError("grid smaller than support")
    arr = np.zeros(tuple(shape))
    arr[tuple(c - c0 for c, c0 in zip(mu.points.T, lo))] = mu.masses
    return arr


def _grid_spectrum(mu: SparseMeasure, shape: Sequence[int]) -> np.ndarray:
    """rfftn of mu's grid (_grid_embed) into one preallocated half, so the
    complex passes run in place, with the real grid freed on return: one
    grid and one half are alive at once, not a grid and two halves.  The
    result is bit for bit rfftn's."""
    grid = _grid_embed(mu, shape)
    half = np.empty(grid.shape[:-1] + (grid.shape[-1] // 2 + 1,), dtype=complex)
    return np.fft.rfftn(grid, out=half)


def _covering_exponent(mus: Sequence[SparseMeasure], exponent: int) -> int:
    """The least grid exponent at or above `exponent` whose 2^e side covers
    the widest support among mus, so each embeds in its own grid."""
    widest = 0
    for m in mus:
        lo, hi = _corners(m.points)
        widest = max(widest, int((hi - lo).max()) + 1)
    while 2**exponent < widest:
        exponent += 1
    return exponent


def convolve(mu1: SparseMeasure, mu2: SparseMeasure) -> SparseMeasure:
    """Exact convolution by shift-and-add: the bit-exact reference for
    convolve_many_fft and symmetrize, which no pipeline code calls.

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
    (lo1, hi1), (lo2, hi2) = _corners(mu1.points), _corners(mu2.points)
    a1 = _grid_embed(mu1, hi1 - lo1 + 1)
    a2 = _grid_embed(mu2, hi2 - lo2 + 1)
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
    total = exact_sum(masses)
    return SparseMeasure(n, pts, masses, deficit=max(0.0, 1.0 - total))


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), for a count or an array of them."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _log_mgf(mu: SparseMeasure, axis: int) -> np.ndarray:
    """log sum_x mu(x) e^{l x_axis} at l = lambda, then at l = -lambda, for
    every lambda of _LAMBDAS: the exact transform of mu's marginal on the
    axis over its atoms, the largest exponent factored out."""
    x = mu.points[:, axis]
    lo = int(x.min())
    marginal = np.bincount(x - lo, weights=mu.masses)
    at = np.flatnonzero(marginal > 0.0)
    lam = np.concatenate([_LAMBDAS, -_LAMBDAS])
    e = np.log(marginal[at]) + np.multiply.outer(lam, (at + lo).astype(float))
    top = e.max(axis=1)
    return top + np.log(np.exp(e - top[:, None]).sum(axis=1))


def _tail_window(
    laws: Sequence[tuple[SparseMeasure, int]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per axis, integers a <= b such that the convolution of the laws
    (each (law, count)) has at most WRAP_MASS / (2n) mass below a and as
    much above b.

    Chernoff: the mass at or above t is at most e^{-l t} prod mgf^count
    for every l > 0 (mgf the law's marginal transform, not renormalized,
    so a deficit only helps), so t(l) = (log prod mgf^count - log tail)/l
    works at each l of _LAMBDAS and b is the ceiling of the least; the
    lower end mirrors it with -l.
    """
    log_tail = math.log(WRAP_MASS / (2 * n))
    g = _LAMBDAS.size
    lo, hi = [], []
    for axis in range(n):
        total = sum(count * _log_mgf(m, axis) for m, count in laws)
        hi.append(math.ceil(float(np.min((total[:g] - log_tail) / _LAMBDAS))))
        lo.append(math.floor(float(np.max((log_tail - total[g:]) / _LAMBDAS))))
    return np.array(lo), np.array(hi)


def _product_error(cells: int, laws: Sequence[tuple[SparseMeasure, int]]) -> float:
    """A-priori bound on every cell's error in irfftn(prod rfftn(x)^count)
    on a grid of `cells` cells, over the laws (x, count).

    Higham (Accuracy and Stability of Numerical Algorithms, ch. 24,
    Theorem 24.2): a transform of t = log2(cells) radix-2 stages, twiddle
    factors accurate to u, errs by at most eps = t eta / (1 - t eta)
    relative in the 2-norm, eta = u + gamma_4 (sqrt 2 + u).  By Parseval
    a law's spectrum then errs by at most eps sqrt(cells) s (s its 2-norm)
    and each |x_hat| <= 1, so the exact product of the computed spectra
    errs by at most g eps sqrt(cells) sum count s, g = (1 + max cell
    error)^(F - 1) over the F factors; the F - 1 complex products add
    relative error rho = (1 + sqrt 2 gamma_2)^(F - 1) - 1.  These are errors on the rfftn half; the inverse
    reads the half as its Hermitian extension, which at most multiplies
    an error's 2-norm by sqrt 2, then divides the 2-norm by sqrt(cells)
    and adds eps relative, and the exact product has 2-norm at most
    sqrt(cells) min s.  A 2-norm bound bounds every cell.
    """
    t = math.log2(cells)
    eta = UNIT_ROUNDOFF + _gamma(4) * (math.sqrt(2.0) + UNIT_ROUNDOFF)
    eps = t * eta / (1.0 - t * eta)
    norms = [math.sqrt(float(np.einsum("i,i->", m.masses, m.masses))) for m, _ in laws]
    factors = sum(c for _, c in laws)
    worst_cell = eps * math.sqrt(cells) * max(norms)
    grow = math.exp((factors - 1) * math.log1p(worst_cell))
    rho = math.expm1((factors - 1) * math.log1p(math.sqrt(2.0) * _gamma(2)))
    spread = eps * math.fsum(c * s for s, (_, c) in zip(norms, laws))
    half = (1.0 + rho) * grow * spread + rho * min(norms)
    return math.sqrt(2.0) * (1.0 + eps) * half + eps * min(norms)


def convolve_many_fft(mus: Sequence[SparseMeasure]) -> SparseMeasure:
    """Convolution of mus as a product of transforms on a power-of-two
    grid only as large as the answer needs.

    The grid side is the least power of two that covers every piece and,
    per axis, the convolution's tail window (_tail_window, at most
    WRAP_MASS outside it in all).  Where the side falls short of the
    summed support span, the product wraps: each cell's value is read at
    its point inside the window, a power-of-two side keeps every
    coordinate's parity, and twice WRAP_MASS goes to the deficit.  Each
    distinct law is transformed once and multiplied into one running
    product, in place, as many times as it occurs, the laws in first-seen
    order, so at most one law's spectrum is alive beside the product.

    Negative and sub-FFT_DUST values are clipped to zero.  The deficit is
    1 minus the kept mass, plus the wrap charge, plus 2 sqrt(k) times the
    a-priori per-cell roundoff bound (_product_error) over the k kept
    atoms, so it bounds the L1 distance to the exact convolution of the
    stored pieces.  The per-cell bound, with WRAP_MASS when the grid
    wraps, is the output's `roundoff`.
    """
    if not mus:
        raise ValueError("empty measure list")
    n = mus[0].dimension
    counts: dict[tuple, list] = {}
    for m in mus:
        counts.setdefault(_law_key(m), [m, 0])[1] += 1
    laws = [(m, c) for m, c in counts.values()]  # first-seen order
    corners = [_corners(m.points) for m in mus]
    lo = np.sum([c[0] for c in corners], axis=0)
    hi = np.sum([c[1] for c in corners], axis=0)
    a, b = _tail_window(laws, n)
    a, b = np.maximum(a, lo), np.minimum(b, hi)
    # the least power of two that covers every piece and the window
    pieces = 2 ** _covering_exponent([m for m, _ in laws], 0)
    side = max(pieces, 1 << int((b - a).max()).bit_length())
    wrapped = hi - lo + 1 > side
    a = np.where(wrapped, a, lo)  # an axis that fits reads from its low corner
    shape = (side,) * n
    prod = None
    for m, count in laws:
        spec = _grid_spectrum(m, shape)
        if prod is None:
            prod, count = spec.copy(), count - 1
        for _ in range(count):
            prod *= spec
        del spec  # only the product stays alive into the next transform
    conv = np.fft.irfftn(prod, s=shape, axes=tuple(range(n)))
    conv[conv < FFT_DUST] = 0.0
    idx = np.argwhere(conv > 0.0)
    # cell i holds the points lo + i (mod side); read each inside [a, a + side)
    pts = a + (idx + (lo - a)) % side
    masses = conv[tuple(idx.T)]
    total = exact_sum(masses)
    err = _product_error(side**n, laws)
    wrap = WRAP_MASS if wrapped.any() else 0.0
    charge = 2.0 * math.sqrt(idx.shape[0]) * err + 2.0 * wrap
    return SparseMeasure(
        n, pts, masses, deficit=max(0.0, 1.0 - total) + charge, roundoff=err + wrap
    )


@dataclass(frozen=True)
class DensePieceCertificate:
    """mu <= alpha^{-1} gamma_R pointwise; S = log2(2/alpha)."""

    alpha: float
    S: float


def density_certificate(mu: SparseMeasure, radius: float) -> DensePieceCertificate:
    """alpha = (max_x (mu(x) + r)/gamma_R(x))^{-1}, evaluated in log space,
    r = mu.roundoff: each stored mass is raised by its error bound, so a
    mass that roundoff lowered cannot make S too small."""
    z = math.log(gamma_normalizer(mu.dimension, radius))
    norms2 = np.einsum("ij,ij->i", mu.points, mu.points).astype(float)
    log_gamma = -math.pi * norms2 / (radius * radius) - z
    worst = float(np.max(np.log(mu.masses + mu.roundoff) - log_gamma))
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
    low, high = _corners(mu.points)
    box = _grid_embed(mu, high - low + 1)
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


def _half_spectrum_cells(
    mask: np.ndarray, side: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid cells, in C order, where a condition on |F| holds, from
    the condition marked on an rfftn half (last axis 0 .. side/2) of a
    real grid, and for each cell the half cell that holds its value.

    A marked cell whose last index lies strictly between 0 and side/2
    brings its mirror -k (mod side) with it: |F(-k)| = |F(k)| for real
    input, and the mirror lies outside the half.  A cell whose last index
    is 0 or side/2 has its mirror inside the half, where the mask reads
    it directly.
    """
    half = np.argwhere(mask)
    last = half[:, -1]
    paired = half[(last > 0) & (2 * last < side)]
    cells = np.concatenate([half, (-paired) % side])
    source = np.concatenate([half, paired])
    order = np.lexsort(cells.T[::-1])
    return cells[order], source[order]


def heavy_cells(
    mus: Sequence[SparseMeasure], level: float, grid_exponent: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the 2^grid_exponent grid where prod_i |mu_i_hat| >= level,
    in the C order of the full grid, with the product at each; cell k is
    the frequency k / side, as the forward transform's phase matches mu_hat.
    The product is formed on rfftn halves in the order of mus, each distinct
    law (_law_key) transformed once, and the other half of the grid is read
    as its mirror image (_half_spectrum_cells)."""
    side = 2**grid_exponent
    shape = (side,) * mus[0].dimension
    first: dict[tuple, int] = {}
    law = [first.setdefault(_law_key(m), i) for i, m in enumerate(mus)]
    del first  # the keys copy every law's arrays: drop them before transforming
    mags = {i: np.abs(_grid_spectrum(mus[i], shape)) for i in dict.fromkeys(law)}
    prod = mags[law[0]]
    for i in law[1:]:
        prod = prod * mags[i]
    cells, source = _half_spectrum_cells(prod >= level, side)
    return cells, prod[tuple(source.T)]


def large_spectrum_scan(
    mu: SparseMeasure,
    K: float,
    grid_exponent: int,
    refine: bool = False,
) -> ScanReport:
    """All grid frequencies with |mu_hat| >= 1 - 1/K, optionally polished
    by local coordinate ascent.

    The hits are heavy_cells of mu alone, in the C order of the full grid.

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
    threshold = 1.0 - 1.0 / K
    index, grid_mag = heavy_cells([mu], threshold, grid_exponent)
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
    |mu_hat_i|^2, hence real and nonnegative.  Each distinct law meets its
    reflection once, in convolve_many_fft at every size, never convolve.

    The sum's own rounding errs by at most gamma_{M+1} relative per atom.
    The deficit is the mean of the products' deficits plus gamma_{M+1}
    times the kept mass, so it bounds the L1 distance to the exact mean;
    the roundoff is the mean of theirs, widened by gamma_{M+1}, plus
    gamma_{M+1} times the largest mass."""
    if not mus:
        raise ValueError("empty measure list")
    M = len(mus)
    convs: dict[tuple, SparseMeasure] = {}
    terms = []
    for m in mus:
        key = _law_key(m)
        if key not in convs:
            convs[key] = convolve_many_fft([m, reflect(m)])
        terms.append(convs[key])
    # each point's terms are summed in the order of mus
    pts, masses = _sum_repeats(
        np.concatenate([c.points for c in terms]),
        np.concatenate([c.masses / M for c in terms]),
    )
    gamma = _gamma(M + 1)
    roundoff = (1.0 + gamma) * math.fsum(c.roundoff for c in terms) / M
    deficit = math.fsum(c.deficit for c in terms) / M
    return SparseMeasure(
        mus[0].dimension,
        pts,
        masses,
        deficit=deficit + gamma * exact_sum(masses),
        roundoff=roundoff + gamma * float(masses.max()),
    )
