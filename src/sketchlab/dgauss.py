"""Discrete Gaussian primitives on Z^n.

The normalizer of gamma_R on tail-certified boxes, an exact truncated
sampler with a batched form that draws every seed's numpy PCG64 stream
with one array kernel, and the two lattice-Gaussian checks (Poisson
summation, convolution domination) that `verify-lemmas` runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TruncationPolicy",
    "auto_box",
    "box_points",
    "gamma_normalizer",
    "pcg64_raw",
    "sample_truncated",
    "sample_truncated_many",
    "PoissonCheck",
    "poisson_identity_check",
    "DominationCheck",
    "gamma_conv_domination_check",
]

DEFAULT_TAIL_MASS = 1e-12

# numpy's SeedSequence hash constants (32-bit words) and PCG64's 128-bit
# LCG multiplier as (high, low) 64-bit words
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924, 4865540595714422341)
_LOW32 = 0xFFFFFFFF


@dataclass(frozen=True)
class TruncationPolicy:
    """Euclidean cutoff for gamma_R with tail mass certified below target.

    The radius is derived from the tail certificate
    (sqrt 2)^n exp(-pi u^2 / (2 R^2)) <= tail_mass_target.
    """

    dimension: int
    tail_mass_target: float
    radius: float

    @classmethod
    def for_gaussian(
        cls, dimension: int, radius: float, tail_mass_target: float = DEFAULT_TAIL_MASS
    ) -> "TruncationPolicy":
        if not 0.0 < tail_mass_target < 1.0:
            raise ValueError("tail mass target must lie in (0, 1)")
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        u = radius * math.sqrt(
            (2.0 / math.pi)
            * math.log(math.sqrt(2.0) ** dimension / tail_mass_target)
        )
        return cls(dimension, tail_mass_target, u)


def auto_box(dimension: int, radius: float) -> tuple[tuple[int, int], ...]:
    """Smallest axis box about the origin containing the Euclidean ball of
    the given radius: one inclusive (lo, hi) pair per coordinate."""
    return ((math.floor(-radius), math.ceil(radius)),) * dimension


def box_points(box: Sequence[tuple[int, int]]) -> np.ndarray:
    """All integer points of the box, shape (count, n), row-major order."""
    axes = [np.arange(lo, hi + 1) for lo, hi in box]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=-1)


@lru_cache(maxsize=None)
def _normalizer_1d(radius: float, lo: int, hi: int) -> float:
    xs = np.arange(lo, hi + 1, dtype=float)
    return math.fsum(np.exp(-math.pi * xs * xs / (radius * radius)))


def gamma_normalizer(dimension: int, radius: float) -> float:
    """rho_R(Z^n) over the box of tail certificate 1e-15; product form per
    axis."""
    box = auto_box(
        dimension, TruncationPolicy.for_gaussian(dimension, radius, 1e-15).radius
    )
    value = 1.0
    for lo, hi in box:
        value *= _normalizer_1d(float(radius), int(lo), int(hi))
    return value


def _inverse_cdf(
    radius: float, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D support of the truncated sampler and its normalized CDF."""
    if policy.radius < radius:
        raise ValueError("truncation radius below R: ball too small")
    w = math.ceil(policy.radius)
    support = np.arange(-w, w + 1)
    weights = np.exp(-math.pi * support.astype(float) ** 2 / (radius * radius))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return support, cdf


def _candidates(
    support: np.ndarray, cdf: np.ndarray, uniforms: np.ndarray, r2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF rows for uniforms of shape (..., n), and which of them
    fall inside the ball of squared radius r2."""
    cand = support[np.searchsorted(cdf, uniforms, side="right")]
    return cand, np.einsum("...j,...j->...", cand, cand) <= r2


def sample_truncated(
    radius: float,
    policy: TruncationPolicy,
    seed: int,
    count: int,
) -> np.ndarray:
    """`count` exact samples from gamma_R conditioned on
    ||x||_2 <= policy.radius, shape (count, n).

    Coordinate-wise inverse CDF over the enumerated 1-D support, then
    rejection on the Euclidean ball. The accepted sequence is a pure
    function of the seed, so prefixes agree across different counts.
    """
    support, cdf = _inverse_cdf(radius, policy)
    n = policy.dimension
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    have = 0
    drawn = 0
    r2 = policy.radius * policy.radius
    while have < count:
        batch = 1024
        cand, inside = _candidates(support, cdf, rng.random((batch, n)), r2)
        keep = cand[inside]
        drawn += batch
        if keep.size:
            rows.append(keep)
            have += keep.shape[0]
        if drawn >= 1_000_000 and have < max(1, drawn * 1e-6):
            raise ValueError("acceptance probability below 1e-6: ball too small")
    return np.concatenate(rows, axis=0)[:count]


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix on uint32 arrays: each call xors the current
    constant in, steps it by `mult` and multiplies by the new one."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _LOW32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ (out >> np.uint32(16))


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a * b, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> 32
    b0, b1 = b & _LOW32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(
    hi: np.ndarray, lo: np.ndarray, add_hi: np.ndarray, add_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    low = lo + add_lo
    return hi + add_hi + (low < lo).astype(np.uint64), low


def _lcg_step(
    state: tuple[np.ndarray, np.ndarray], inc: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """state * _PCG_MULT + inc mod 2^128, on (high, low) word pairs."""
    hi, lo = state
    m_hi, m_lo = _PCG_MULT
    return _add128(_mul_high(lo, m_lo) + hi * m_lo + lo * m_hi, lo * m_lo, *inc)


def pcg64_raw(seeds: Sequence[int], count: int) -> np.ndarray:
    """`np.random.PCG64(s).random_raw(count)` for every seed s in
    [0, 2^64), shape (len(seeds), count), uint64.

    One array pass per step for all seeds: SeedSequence(s) mixes the
    seed's two 32-bit words into a pool of four and hashes the pool into
    the 128-bit initial state and increment, PCG64 seeds its LCG from
    them, and each draw is one LCG step followed by the XSL-RR output.
    The hash runs on uint32 arrays, the 128-bit LCG on pairs of uint64
    arrays, and both wrap as numpy's C code does.
    """
    # OverflowError for a seed outside [0, 2^64), TypeError for a non-integer
    s = np.array([operator.index(x) for x in seeds], dtype=np.uint64)
    hashmix = _hasher(_HASH_INIT_A, _HASH_MULT_A)
    zero = np.zeros(s.size, dtype=np.uint32)
    words = [(s & _LOW32).astype(np.uint32), (s >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _hasher(_HASH_INIT_B, _HASH_MULT_B)
    half = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    v0, v1, v2, v3 = (half[2 * k] | (half[2 * k + 1] << 32) for k in range(4))
    inc = ((v2 << 1) | (v3 >> 63), (v3 << 1) | 1)
    state = _lcg_step(_add128(*inc, v0, v1), inc)
    out = np.empty((s.size, count), dtype=np.uint64)
    for k in range(count):
        state = _lcg_step(state, inc)
        hi, lo = state
        x, rot = hi ^ lo, hi >> 58
        out[:, k] = (x >> rot) | (x << ((64 - rot) & 63))
    return out


def sample_truncated_many(
    radius: float,
    policy: TruncationPolicy,
    seeds: Sequence[int],
    count: int,
) -> np.ndarray:
    """`sample_truncated(radius, policy, s, count=count)` for every seed s
    in [0, 2^64), stacked into shape (len(seeds), count, n).

    pcg64_raw draws each seed's first `count` rows at once, read as
    default_rng(s).random does (the top 53 bits times 2^-53), and all of
    them go through one inverse-CDF lookup and one ball test.  A seed
    with a rejected row is redrawn by `sample_truncated`, which continues
    that seed's stream past the rejection, so every slice equals the
    single-seed draw bit for bit.
    """
    support, cdf = _inverse_cdf(radius, policy)
    n = policy.dimension
    raw = pcg64_raw(seeds, count * n)
    uniforms = ((raw >> 11) * 2.0**-53).reshape(raw.shape[0], count, n)
    out, inside = _candidates(support, cdf, uniforms, policy.radius * policy.radius)
    for k in np.flatnonzero(~inside.all(axis=1)).tolist():
        out[k] = sample_truncated(radius, policy, int(seeds[k]), count=count)
    return out


def _rho_sum(sigma: np.ndarray, box: Sequence[tuple[int, int]]) -> float:
    """sum_x exp(-pi x^T Sigma^{-1} x) over the integer points of the box.

    Sigma is inverted here even when the caller holds its inverse, so the
    Poisson lhs sums over inv(inv(M)) and its n = 2 rows keep their bits."""
    x = box_points(box).astype(float)
    q = np.einsum("ij,jk,ik->i", x, np.linalg.inv(sigma), x)
    return math.fsum(np.exp(-math.pi * q))


@dataclass(frozen=True)
class PoissonCheck:
    lhs: float
    rhs: float
    relative_error: float


def poisson_identity_check(M: np.ndarray) -> PoissonCheck:
    """Poisson summation for Gaussians on Z^n:

    sum_x exp(-pi x^T M x) = det(M)^{-1/2} (1 + sum_{y != 0} exp(-pi y^T M^{-1} y)).

    Both sides are truncated sums over tail-certified boxes; the report
    carries |lhs - rhs| / rhs.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0.0:
        raise ValueError("M must be positive definite")
    Minv = np.linalg.inv(M)
    r_primal = math.sqrt(float(np.linalg.eigvalsh(Minv)[-1]))
    r_dual = math.sqrt(float(eigs[-1]))
    box = auto_box(
        n, TruncationPolicy.for_gaussian(n, max(r_primal, 1.0), 1e-14).radius
    )
    dual_box = auto_box(
        n, TruncationPolicy.for_gaussian(n, max(r_dual, 1.0), 1e-14).radius
    )
    lhs = _rho_sum(Minv, box)
    dual_total = _rho_sum(M, dual_box)
    rhs = dual_total / math.sqrt(float(np.linalg.det(M)))
    return PoissonCheck(lhs, rhs, abs(lhs - rhs) / rhs)


@dataclass(frozen=True)
class DominationCheck:
    worst_ratio: float
    passed: bool


def gamma_conv_domination_check(radius: float, dimension: int) -> DominationCheck:
    """Gamma_R = gamma_R * gamma_R satisfies Gamma_R(x) <= 4 gamma_{sqrt2 R}(x).

    Needs R >= sqrt((2/pi) ln(8n)). The convolution is exact per axis
    (spherical Gaussians factorize), so the n-dim worst ratio is the
    product of the per-axis maxima over the whole convolution support.
    """
    if radius < math.sqrt((2.0 / math.pi) * math.log(8.0 * dimension)):
        raise ValueError("R below the domination threshold sqrt((2/pi) ln 8n)")
    w = math.ceil(TruncationPolicy.for_gaussian(1, radius, 1e-15).radius)
    support = np.arange(-w, w + 1, dtype=float)
    pmf1 = np.exp(-math.pi * support * support / (radius * radius))
    pmf1 /= _normalizer_1d(float(radius), -w, w)
    conv1 = np.convolve(pmf1, pmf1)  # support -2w .. 2w
    xs2 = np.arange(-2 * w, 2 * w + 1, dtype=float)
    r2 = math.sqrt(2.0) * radius
    g2 = np.exp(-math.pi * xs2 * xs2 / (r2 * r2)) / gamma_normalizer(1, r2)
    # every axis attains the same maximum ratio
    worst = math.prod([float(np.max(conv1 / g2))] * dimension)
    return DominationCheck(worst, worst <= 4.0)
