"""Discrete Gaussian primitives on Z^n.

The normalizer of gamma_R on tail-certified boxes, the seeded random
stream, an exact truncated sampler with a batched form, and the two
lattice-Gaussian checks (Poisson summation, convolution domination) that
`verify-lemmas` runs, and `exact_sum`, the exactly rounded array sum
that every mass total, normalizer and TV in the package goes through.

The stream is numpy's default_rng(entropy), the SeedSequence-seeded
PCG64, reproduced bit for bit by one array kernel (`pcg64_raw`) that
jumps to any window of draws for many entropies at once, so the pipeline
never imports numpy.random.  `pcg64_uniforms` reads a window as
Generator.random does, and `choice_indices` as Generator.choice(p=...)
does; Generator.integers(2**63) is a raw draw's top 63 bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "exact_sum",
    "TruncationPolicy",
    "auto_box",
    "box_points",
    "gamma_normalizer",
    "pcg64_raw",
    "pcg64_uniforms",
    "choice_indices",
    "sample_truncated",
    "sample_truncated_many",
    "PoissonCheck",
    "poisson_identity_check",
    "DominationCheck",
    "gamma_conv_domination_check",
]

DEFAULT_TAIL_MASS = 1e-12

# numpy's SeedSequence hash constants (32-bit words) and PCG64's 128-bit
# LCG multiplier
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _LOW64, _LOW128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# the 128-bit products' operands as 0-d arrays, which numpy applies
# faster than Python ints
_MASK32, _SHIFT32 = (np.array(c, dtype=np.uint64) for c in (_LOW32, 32))
# a 32-bit word of SeedSequence's hash: a Python int or a uint64 array
_Word = int | np.ndarray
# rows per acceptance check of sample_truncated, and batches per stream
# window, which keeps a window's 128-bit temporaries near 1 MB per axis
_BATCH, _WINDOW_BATCHES = 1024, 16
# exact_sum reads its values in chunks of _SUM_CHUNK, whose temporaries
# (64 KB at most) stay below glibc's mmap threshold, so they reuse heap
# memory instead of faulting in fresh pages on every call; and so few
# that every limb sum of a chunk is exact (below 2^47 units).
_SUM_CHUNK = 1 << 13


def exact_sum(values) -> float:
    """The sum of the values rounded once, to nearest with ties to even:
    bit for bit math.fsum of them, without a list or a per-value loop.

    Each value is m 2^e (frexp, |m| in [1/2, 1), 2^53 m an integer), and
    e + 1073 >= 0 splits into 8 q + r with r in [0, 8): the value is
    m 2^r 2^(8 q - 1073).  m 2^(r + 27) splits into an integer high limb,
    below 2^34 in magnitude, and a low limb in [0, 1), a multiple of
    2^-26.  bincount sums each limb per q, exactly, and the sums are
    shifted together into one Python int in units of 2^-1126, which one
    int division rounds correctly (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4: the exactly rounded sum has one value,
    whatever the order).

    Values that are not finite, or of magnitude 2^(1023 - b) or more, b
    the bit length of their count (so that their magnitudes could sum to
    2^1023, where fsum's own partials may overflow), raise a ValueError.
    """
    x = np.asarray(values, dtype=float).ravel()
    # max and min propagate NaN, and NaN fails the comparison
    if x.size and not max(x.max(), -x.min()) < 2.0 ** (1023 - x.size.bit_length()):
        raise ValueError(
            "exact_sum needs finite values below 2**(1023 - bit length "
            "of their count) in magnitude"
        )
    total = 0
    for start in range(0, x.size, _SUM_CHUNK):
        m, e = np.frexp(x[start : start + _SUM_CHUNK])
        e += 1073
        m = np.ldexp(m, e & 7)
        e >>= 3
        low = int(e.min())
        e -= low
        m *= 2.0**27
        high = np.floor(m)
        m -= high
        highs = np.bincount(e, weights=high)[::-1].tolist()
        lows = (np.bincount(e, weights=m)[::-1] * 2.0**26).tolist()
        # Horner's rule from the top q down, 2^8 per step
        acc = 0
        for h, lo in zip(highs, lows):
            acc = (acc << 8) + (int(h) << 26) + int(lo)
        total += acc << (8 * low)
    return total / (1 << 1126)


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
    return exact_sum(np.exp(-math.pi * xs * xs / (radius * radius)))


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
    seed: int | tuple[int, ...],
    count: int,
) -> np.ndarray:
    """`count` exact samples from gamma_R conditioned on
    ||x||_2 <= policy.radius, shape (count, n).

    Coordinate-wise inverse CDF over the enumerated 1-D support, then
    rejection on the Euclidean ball.  The rows are read off the seed's
    stream (any entropy pcg64_raw takes) in batches of _BATCH rows, as
    default_rng(seed).random((_BATCH, n)) draws them, and after each
    batch the acceptance guard raises once a million rows or more have
    been drawn with fewer than one in a million accepted.  The batches
    come in pcg64_uniforms windows of up to _WINDOW_BATCHES, each
    continuing the stream where the last stopped; a window holds no more
    batches than the missing rows need, so it ends where a
    batch-by-batch loop would stop or earlier.  The accepted sequence is
    a pure function of the seed, so prefixes agree across different
    counts.
    """
    support, cdf = _inverse_cdf(radius, policy)
    n = policy.dimension
    r2 = policy.radius * policy.radius
    rows: list[np.ndarray] = []
    have = drawn = 0
    while have < count:
        batches = min(-(-(count - have) // _BATCH), _WINDOW_BATCHES)
        size = batches * _BATCH
        uniforms = pcg64_uniforms([seed], size * n, drawn * n).reshape(size, n)
        cand, inside = _candidates(support, cdf, uniforms, r2)
        totals = have + np.cumsum(inside.reshape(batches, _BATCH).sum(axis=1))
        ends = drawn + _BATCH * np.arange(1, batches + 1)
        if ((ends >= 1_000_000) & (totals < np.maximum(1, ends * 1e-6))).any():
            raise ValueError("acceptance probability below 1e-6: ball too small")
        rows.append(cand[inside])
        have, drawn = int(totals[-1]), int(ends[-1])
    return np.concatenate(rows, axis=0)[:count]


def _entropy_words(entropy: int | tuple[int, ...]) -> list[int]:
    """SeedSequence's 32-bit words of an entropy: each nonnegative int
    least significant word first (0 is the one word 0), a tuple's ints
    one after another."""
    words = []
    for x in entropy if isinstance(entropy, tuple) else (entropy,):
        x = operator.index(x)  # TypeError for a non-integer
        if x < 0:
            raise ValueError(f"seed entropy must be nonnegative, got {x}")
        while True:
            words.append(x & _LOW32)
            x >>= 32
            if not x:
                break
    return words


def _entropy_table(
    entropies: Sequence[int | tuple[int, ...]],
) -> tuple[np.ndarray, list[int]]:
    """Every entropy's 32-bit words, zero padded to one uint64 table of at
    least four columns, and each row's word count.

    Zero padding up to four words leaves SeedSequence's hash as it is, so
    an integer array, whose entries lie below 2^64, is split into two
    words per row at once."""
    if isinstance(entropies, np.ndarray):
        if entropies.dtype.kind not in "iu":
            raise TypeError(f"seed entropies must be integers, not {entropies.dtype}")
        if (entropies < 0).any():
            raise ValueError("seed entropy must be nonnegative")
        seeds = entropies.astype(np.uint64)
        table = np.zeros((seeds.size, 4), dtype=np.uint64)
        table[:, 0], table[:, 1] = seeds & _MASK32, seeds >> _SHIFT32
        return table, [4] * seeds.size
    words = [_entropy_words(e) for e in entropies]
    lengths = [len(w) for w in words]
    width = max([4, *lengths])
    table = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint64)
    return table.reshape(len(words), width), lengths


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> tuple[int, ...]:
    """The first `count` constants of a SeedSequence hash: `init`, then
    each the last one times `mult`, mod 2^32.  Hashmix call k xors
    constant k in and multiplies by constant k + 1."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _LOW32)
    return tuple(out)


def _hashmix(value: _Word, xor: int, mul: int) -> _Word:
    """SeedSequence's hashmix on a 32-bit word: xor one hash constant in,
    multiply by the next, fold the high half down."""
    value = (value ^ xor) * mul & _LOW32
    return value ^ (value >> 16)


def _mix(x: _Word, y: _Word) -> _Word:
    out = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _LOW32
    return out ^ (out >> 16)


def _seed_words(
    entropies: Sequence[int | tuple[int, ...]],
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """PCG64's initial state and increment as SeedSequence(e) makes them
    for every entropy e, as (high, low) pairs of uint64 columns.

    SeedSequence hashes the first four words into a pool of four, mixes
    every pool word into every other, mixes each further word into every
    pool word (here only in the rows that have it), and hashes the pool
    into four 64-bit words.  A word is a Python int for one entropy,
    which costs less than a one-element array, and a uint64 column for a
    batch; both are masked to 32 bits after every product, as numpy's
    uint32 arithmetic wraps.
    """
    table, lengths = _entropy_table(entropies)
    width = table.shape[1]
    cols = table[0].tolist() if len(table) == 1 else list(table.T)
    shortest = min(lengths, default=width)
    c = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, 4 * width + 1)
    pool = [_hashmix(cols[i], c[i], c[i + 1]) for i in range(4)]
    call = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = _hashmix(pool[src], c[call], c[call + 1])
                pool[dst] = _mix(pool[dst], mixed)
                call += 1
    for src in range(4, width):
        for dst in range(4):
            mixed = _mix(pool[dst], _hashmix(cols[src], c[call], c[call + 1]))
            call += 1
            if src >= shortest:  # rows without this word keep their pool
                mixed = np.where(np.array(lengths) > src, mixed, pool[dst])
            pool[dst] = mixed
    c = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 9)
    h = [_hashmix(pool[k % 4], c[k], c[k + 1]) for k in range(8)]
    v0, v1, v2, v3 = (h[k] | h[k + 1] << 32 for k in (0, 2, 4, 6))
    inc = ((v2 << 1 | v3 >> 63) & _LOW64, (v3 << 1 | 1) & _LOW64)
    init_hi, init_lo, inc_hi, inc_lo = (
        np.asarray(w, dtype=np.uint64).reshape(-1, 1) for w in (v0, v1, *inc)
    )
    return (init_hi, init_lo), (inc_hi, inc_lo)


def _mul_high(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """The high 64 bits of each a * b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _SHIFT32
    b0, b1 = b & _MASK32, b >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _SHIFT32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _mul128(
    x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray | int, np.ndarray | int]
) -> tuple[np.ndarray, np.ndarray]:
    """x * y mod 2^128 on (high, low) uint64 word pairs, broadcast."""
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    return _mul_high(x_lo, y_lo) + x_hi * y_lo + x_lo * y_hi, x_lo * y_lo


def _add128(
    x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray | int, np.ndarray | int]
) -> tuple[np.ndarray, np.ndarray]:
    """x + y mod 2^128 on (high, low) uint64 word pairs, broadcast."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]).astype(np.uint64), low


def _words(c: int) -> tuple[int, int]:
    """A 128-bit int as its (high, low) 64-bit words."""
    return c >> 64, c & _LOW64


def _jump(steps: int) -> tuple[int, int]:
    """(a^t, (a^t - 1)/(a - 1)) mod 2^128 for t = steps and a = _PCG_MULT:
    t LCG steps take a state s to a^t s + (a^t - 1)/(a - 1) inc.

    Brown's jump-ahead: square the one-step map (a, 1) once per bit of t
    and compose it in where the bit is set."""
    mult, plus = 1, 0
    a, g = _PCG_MULT, 1
    while steps:
        if steps & 1:
            mult, plus = mult * a & _LOW128, (plus * a + g) & _LOW128
        a, g = a * a & _LOW128, g * (a + 1) & _LOW128
        steps >>= 1
    return mult, plus


@lru_cache(maxsize=None)
def _step_table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^t, (a^t - 1)/(a - 1)) mod 2^128 for t = 0 .. 2^bits - 1, as
    (high, low) uint64 word pairs of shape (2, 2^bits), built by doubling:
    the first m entries jumped by m give the next m."""
    size = 1 << bits
    mult = np.zeros((2, size), dtype=np.uint64)
    plus = np.zeros((2, size), dtype=np.uint64)
    mult[1, 0] = 1
    filled = 1
    while filled < size:
        m, g = _jump(filled)
        ahead = slice(filled, 2 * filled)
        mult[:, ahead] = _mul128(mult[:, :filled], _words(m))
        plus[:, ahead] = _add128(_mul128(plus[:, :filled], _words(m)), _words(g))
        filled *= 2
    mult.flags.writeable = plus.flags.writeable = False
    return mult, plus


def pcg64_raw(
    entropies: Sequence[int | tuple[int, ...]], count: int, start: int = 0
) -> np.ndarray:
    """Draws start .. start + count - 1 of
    `np.random.default_rng(e).bit_generator.random_raw` for every entropy
    e, shape (len(entropies), count), uint64.

    An entropy is what numpy's SeedSequence takes: a nonnegative int of
    any size, or a tuple of them.  PCG64 seeds its LCG by stepping from
    state 0, adding the hashed initial state s and stepping again, and
    steps once before each draw, so draw k is the XSL-RR output of
    a^(k+2) s + G_(k+3) inc, where a is the multiplier and
    G_t = (a^t - 1)/(a - 1) mod 2^128 (_jump).  The window's (a^t, G_t)
    are read off one table built by doubling (_step_table: O(log count)
    array passes, once per size) and jumped ahead by `start`, so any
    window takes a fixed number of array passes for all entropies
    together.  The 128-bit arithmetic runs on pairs of uint64 arrays and
    wraps as numpy's C code does.
    """
    init, inc = _seed_words(entropies)
    mult, plus = _step_table((count + 2).bit_length())
    mult, plus = mult[:, 2 : count + 2], plus[:, 3 : count + 3]
    if start:
        m, g = _jump(start)
        mult = _mul128(mult, _words(m))
        plus = _add128(_mul128(plus, _words(m)), _words(g))
    hi, lo = _add128(_mul128(init, mult), _mul128(inc, plus))
    lo ^= hi
    hi >>= 58  # the rotation
    return (lo >> hi) | (lo << ((64 - hi) & 63))


def pcg64_uniforms(
    entropies: Sequence[int | tuple[int, ...]], count: int, start: int = 0
) -> np.ndarray:
    """`default_rng(e).random(count)` after `start` draws, for every
    entropy e, shape (len(entropies), count): the top 53 bits of each raw
    draw times 2^-53."""
    return (pcg64_raw(entropies, count, start) >> 11) * 2.0**-53


def choice_indices(p: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """`Generator.choice(p.size, p=p)` read off the given uniforms: each
    one's index in the CDF of p, built as choice builds it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def sample_truncated_many(
    radius: float,
    policy: TruncationPolicy,
    seeds: Sequence[int],
    count: int,
) -> np.ndarray:
    """`sample_truncated(radius, policy, s, count=count)` for every seed
    s, stacked into shape (len(seeds), count, n).

    pcg64_uniforms draws each seed's first `count` rows at once, and all
    of them go through one inverse-CDF lookup and one ball test.  A seed
    with a rejected row is redrawn by `sample_truncated`, which continues
    that seed's stream past the rejection, so every slice equals the
    single-seed draw bit for bit.
    """
    support, cdf = _inverse_cdf(radius, policy)
    n = policy.dimension
    uniforms = pcg64_uniforms(seeds, count * n).reshape(len(seeds), count, n)
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
    return exact_sum(np.exp(-math.pi * q))


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
