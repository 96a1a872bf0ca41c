"""Per-update references for the array fold: the canonical unit-update
block of a delta, folded update by update, which `fold_deltas` must match
row for row, and a reference algorithm with one state per point of a
box, so that every distinct frequency vector in the box ends in its own
state."""

from __future__ import annotations

from typing import Sequence

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
