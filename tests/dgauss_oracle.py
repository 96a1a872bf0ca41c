"""Closed forms of gamma_R that the sampler, the truncation policy and
the convolution-domination check are tested against: the probability
mass function and the tail bound the truncation radius is solved from;
and the truncated sampler as it was on numpy's own Generator, which the
array stream must reproduce."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from sketchlab import dgauss
from sketchlab.dgauss import TruncationPolicy, gamma_normalizer


def gamma_tail_bound(dimension: int, radius: float, cutoff: float) -> float:
    """(sqrt 2)^n exp(-pi u^2 / (2 R^2)), the gamma_R mass above ||x|| = u."""
    return math.sqrt(2.0) ** dimension * math.exp(
        -math.pi * cutoff * cutoff / (2.0 * radius * radius)
    )


def gamma_pmf(radius: float, x: Sequence[int]) -> float:
    """gamma_R(x) = exp(-pi ||x||^2 / R^2) / rho_R(Z^n).

    The normalizer is summed over the box of tail certificate 1e-15, well
    under the 1e-12 requirement.
    """
    if radius < 1.0:
        raise ValueError("R must be at least 1")
    xv = np.asarray(x, dtype=float).reshape(-1)
    return math.exp(-math.pi * float(xv @ xv) / (radius * radius)) / gamma_normalizer(
        xv.size, radius
    )


def batch_sample_truncated(
    radius: float, policy: TruncationPolicy, seed: int, count: int
) -> np.ndarray:
    """`dgauss.sample_truncated` as it was on numpy's Generator: one
    default_rng(seed).random((1024, n)) batch per acceptance check.  It
    reads the inverse CDF and the ball test from the module at call time,
    so a test that patches them patches both samplers."""
    support, cdf = dgauss._inverse_cdf(radius, policy)
    n = policy.dimension
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    have = 0
    drawn = 0
    r2 = policy.radius * policy.radius
    while have < count:
        batch = 1024
        cand, inside = dgauss._candidates(support, cdf, rng.random((batch, n)), r2)
        keep = cand[inside]
        drawn += batch
        if keep.size:
            rows.append(keep)
            have += keep.shape[0]
        if drawn >= 1_000_000 and have < max(1, drawn * 1e-6):
            raise ValueError("acceptance probability below 1e-6: ball too small")
    return np.concatenate(rows, axis=0)[:count]
