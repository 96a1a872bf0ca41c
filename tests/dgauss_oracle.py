"""Closed forms of gamma_R that the sampler, the truncation policy and
the convolution-domination check are tested against: the probability
mass function and the tail bound the truncation radius is solved from."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from sketchlab.dgauss import gamma_normalizer


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
