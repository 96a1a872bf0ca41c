"""Per-update references for the array fold: the canonical unit-update
block of a delta, folded update by update, which `fold_deltas` must match
row for row, and a reference algorithm with one state per point of a
box, so that every distinct frequency vector in the box ends in its own
state.  `choice_resample_convolution` is the closing-block draw as
numpy's Generator made it, and `same_laws` compares conditioned block
laws bit for bit."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sketchlab.measure import SparseMeasure
from sketchlab.streaming import TurnstileAlgorithm, Update


def canonical_realization(v: Sequence[int]) -> tuple[Update, ...]:
    """The fixed unit-update block realizing net delta v.

    Coordinates are visited in ascending order; coordinate i contributes
    |v_i| updates of sign sgn(v_i).  The block length is ||v||_1.
    """
    out: list[Update] = []
    for i, c in enumerate(int(x) for x in v):
        s = 1 if c > 0 else -1
        out.extend(Update(i, s) for _ in range(abs(c)))
    return tuple(out)


def fold_block(
    alg: TurnstileAlgorithm,
    block_index: int,
    state: int,
    delta: Sequence[int],
) -> int:
    """State after processing the canonical block of `delta`."""
    s = int(state)
    for u in canonical_realization(delta):
        s = alg.step(block_index, s, u)
    return s


def identity_box_algorithm(dimension: int, box_radius: int) -> TurnstileAlgorithm:
    """Records the frequency vector exactly while it stays inside a box.

    States enumerate the box plus one absorbing overflow state with id 0;
    the output is the recorded vector, or None after overflow.
    """
    if box_radius < 1:
        raise ValueError("box radius must be positive")
    side = 2 * box_radius + 1
    count = side**dimension + 1

    def encode(x: Sequence[int]) -> int:
        code = 0
        for c in x:
            code = code * side + (c + box_radius)
        return code + 1

    def decode(state: int) -> list[int]:
        code = state - 1
        out = []
        for _ in range(dimension):
            out.append(code % side - box_radius)
            code //= side
        out.reverse()
        return out

    def transition(j: int, s: int, u: Update) -> int:
        if s == 0:
            return 0
        x = decode(s)
        x[u.coordinate] += u.sign
        if abs(x[u.coordinate]) > box_radius:
            return 0
        return encode(x)

    return TurnstileAlgorithm(
        name="identity-box",
        dimension=dimension,
        state_bits=(count - 1).bit_length(),
        initial_state=encode((0,) * dimension),
        transition=transition,
        output=lambda s: None if s == 0 else tuple(decode(s)),
    )


def same_laws(got: Sequence[SparseMeasure], want: Sequence[SparseMeasure]) -> bool:
    """Equal law for law in points, masses, deficit and roundoff, bit for bit."""
    return len(got) == len(want) and all(
        np.array_equal(a.points, b.points)
        and np.array_equal(a.masses, b.masses)
        and a.deficit == b.deficit
        and a.roundoff == b.roundoff
        for a, b in zip(got, want)
    )


def choice_resample_convolution(
    dimension: int, laws: Sequence[SparseMeasure], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Rows of X_1 + ... + X_k as they were drawn before the shared
    uniform draw: one `rng.choice(p=...)` per law, each rebuilding that
    law's CDF."""
    out = np.zeros((count, dimension), dtype=np.int64)
    for law in laws:
        p = law.masses / law.masses.sum()
        idx = rng.choice(law.masses.size, size=count, p=p)
        out += law.points[idx]
    return out
