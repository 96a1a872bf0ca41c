"""Turnstile algorithms conditioned on their boundary states.

Canonical unit-update realizations of integer block deltas,
deterministic algorithms with optional per-block rule changes and the
array fold that runs them over many deltas at once, sampled stream
models around a target distribution, posterior block laws after
conditioning on a boundary-state sequence, and the empirical selection
of a high-success sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dgauss import (
    TruncationPolicy,
    pcg64_raw,
    sample_truncated,
    sample_truncated_many,
)
from .measure import SparseMeasure, density_certificate, gamma_truncated

__all__ = [
    "Update",
    "StreamSample",
    "TurnstileAlgorithm",
    "StateSequence",
    "ProblemSpec",
    "ImpossibleSequence",
    "SelectionFailed",
    "canonical_realization",
    "fold_block",
    "fold_deltas",
    "exact_stream_sample",
    "posterior_laws",
    "select_state_sequence",
    "resample_convolution",
    "constant_algorithm",
    "parity_algorithm",
    "mod_counter_algorithm",
    "identity_box_algorithm",
    "alternating_algorithm",
]

# simulated closing blocks per target point in a candidate's success
# estimate
SELECTION_LANDINGS = 64


@dataclass(frozen=True)
class Update:
    """One signed unit update: 0-based coordinate index and sign."""

    coordinate: int
    sign: int

    def __post_init__(self) -> None:
        if self.coordinate < 0:
            raise ValueError("coordinate must be nonnegative")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")


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


# -- algorithms ----------------------------------------------------------------


@dataclass(frozen=True)
class TurnstileAlgorithm:
    """Deterministic unit-update algorithm on at most 2^state_bits states.

    The transition receives the block index first; uniform algorithms
    ignore it.  Non-uniform rule tables cover block indices below
    `horizon`, and running past that is an error.  Transitions must be
    pure functions of (block index, state, update): `fold_deltas` calls
    each distinct pair once and reuses the answer.
    """

    name: str
    dimension: int
    state_bits: int
    initial_state: int
    transition: Callable[[int, int, Update], int]
    output: Callable[[int], object]
    uniform: bool = True
    horizon: int | None = None

    def __post_init__(self) -> None:
        if self.state_bits < 0:
            raise ValueError("state bits must be nonnegative")
        if not 0 <= self.initial_state < self.state_count:
            raise ValueError("initial state outside the declared state space")
        if not self.uniform and self.horizon is None:
            raise ValueError("non-uniform algorithms must declare a block horizon")

    @property
    def state_count(self) -> int:
        return 1 << self.state_bits

    def step(self, block_index: int, state: int, update: Update) -> int:
        nxt = int(self.transition(block_index, state, update))
        if not 0 <= nxt < self.state_count:
            raise RuntimeError(
                f"transition left the declared {self.state_bits}-bit state "
                f"space: {nxt}"
            )
        return nxt


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


def fold_deltas(
    alg: TurnstileAlgorithm,
    deltas: np.ndarray,
    block_index: int,
    state: int | np.ndarray,
    memo: dict,
) -> np.ndarray:
    """End states of the canonical blocks of every row of `deltas`.

    Row k ends where `fold_block(alg, block_index, state, deltas[k])`
    does; `state` is one start state or one per row.  Coordinates are
    folded in ascending order.  For each (coordinate, sign) the distinct
    start states are walked once along their orbit under that unit
    update, up to the longest run any row needs or the first repeated
    state, and every row reads its end state off its start's orbit or
    cycle.  Each distinct (state, update) reached is sent through
    `alg.step` once and kept in `memo`, keyed
    `(None if alg.uniform else block_index, state, coordinate, sign)`,
    so the caller decides how long the transition table lives.
    """
    d = np.asarray(deltas, dtype=np.int64)
    states = np.array(np.broadcast_to(state, d.shape[:1]), dtype=np.int64)
    j = None if alg.uniform else block_index

    def step(s: int, coordinate: int, sign: int) -> int:
        key = (j, s, coordinate, sign)
        nxt = memo.get(key)
        if nxt is None:
            nxt = memo[key] = alg.step(block_index, s, Update(coordinate, sign))
        return nxt

    for i in range(d.shape[1]):
        for sign in (1, -1):
            rows = np.flatnonzero(d[:, i] * sign > 0)
            if not rows.size:
                continue
            runs = np.abs(d[rows, i])
            starts, where = np.unique(states[rows], return_inverse=True)
            longest = np.zeros(starts.size, dtype=np.int64)
            np.maximum.at(longest, where, runs)
            # orbits laid end to end; a walk that closes a cycle records
            # the orbit index the cycle re-enters at
            flat: list[int] = []
            offset, length, entry = [], [], []
            for s, t in zip(starts.tolist(), longest.tolist()):
                orbit, index, cycle = [s], {s: 0}, 0
                for _ in range(t):
                    nxt = step(orbit[-1], i, sign)
                    if nxt in index:
                        cycle = index[nxt]
                        break
                    index[nxt] = len(orbit)
                    orbit.append(nxt)
                offset.append(len(flat))
                length.append(len(orbit))
                entry.append(cycle)
                flat.extend(orbit)
            size = np.asarray(length, dtype=np.int64)[where]
            enter = np.asarray(entry, dtype=np.int64)[where]
            # a walk that stopped without a repeat covers every run of its rows
            pos = np.where(
                runs < size, runs, enter + (runs - enter) % (size - enter)
            )
            base = np.asarray(offset, dtype=np.int64)[where]
            states[rows] = np.asarray(flat, dtype=np.int64)[base + pos]
    return states


# -- problems ------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """What the final answer must satisfy, in one of two shapes.

    metric-approximation: metric(output, target(y)) <= epsilon;
    promise: output equals target(y) unless the label is "*".
    """

    kind: str
    target: Callable[[tuple[int, ...]], object] | None = None
    metric: Callable[[object, object], float] | None = None
    outputs: tuple = ()
    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("metric-approximation", "promise"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "metric-approximation" and (
            self.target is None or self.metric is None
        ):
            raise ValueError("metric problems need a target map and a metric")
        if self.kind == "promise" and self.target is None:
            raise ValueError("promise problems need a label map")

    @classmethod
    def promise(
        cls, target: Callable[[tuple[int, ...]], object], delta: float = 0.0
    ) -> "ProblemSpec":
        return cls(kind="promise", target=target, outputs=(0, 1), delta=delta)

    @classmethod
    def metric_approximation(
        cls,
        target: Callable[[tuple[int, ...]], object],
        metric: Callable[[object, object], float],
        outputs: tuple,
        epsilon: float,
        delta: float = 0.0,
    ) -> "ProblemSpec":
        return cls(
            kind="metric-approximation",
            target=target,
            metric=metric,
            outputs=outputs,
            epsilon=epsilon,
            delta=delta,
        )

    def label(self, y: tuple[int, ...]) -> object:
        lab = self.target(y)
        if lab not in (0, 1, "*"):
            raise ValueError("promise labels must be 0, 1, or *")
        return lab

    def valid(self, y: tuple[int, ...], output: object) -> bool:
        if self.kind == "metric-approximation":
            return self.metric(output, self.target(y)) <= self.epsilon
        lab = self.label(y)
        return lab == "*" or output == lab


# -- sampled stream models -------------------------------------------------------


@dataclass(frozen=True)
class StreamSample:
    """One draw from a stream model: the target it lands on and its block
    deltas.  Folding `canonical_realization` of each delta in order
    replays it update by update."""

    target: tuple[int, ...]
    deltas: tuple[tuple[int, ...], ...]


def _subseeds(seeds: Sequence[int], count: int) -> np.ndarray:
    """`default_rng(s).integers(0, 2**63, size=count)` for every seed s,
    shape (len(seeds), count).  On the range 2^63 Lemire's bounded draw
    never rejects and keeps the top 63 bits of each raw draw."""
    return (pcg64_raw(seeds, count) >> 1).astype(np.int64)


def _check_target(mu: SparseMeasure) -> None:
    if mu.deficit > 1e-9:
        raise ValueError("target distribution must carry no deficit")


def _draw_target(mu: SparseMeasure, seed: int) -> tuple[int, ...]:
    _check_target(mu)
    rng = np.random.default_rng(seed)
    idx = rng.choice(mu.masses.size, p=mu.masses / mu.total_mass)
    return tuple(int(c) for c in mu.points[idx])


def exact_stream_sample(
    target: SparseMeasure,
    radius: float,
    blocks: int,
    seed: int = 0,
) -> StreamSample:
    """Truncated-Gaussian prefix blocks closed by a block hitting the target.

    The last block realizes Y minus the prefix sum, so the replayed
    frequency vector equals Y exactly, for every seed.
    """
    n = target.dimension
    sx, sy, _ = _subseeds([seed], 3)[0].tolist()
    if blocks:
        pol = TruncationPolicy.for_gaussian(n, radius)
        xs = sample_truncated(radius, pol, sx, count=blocks)
    else:
        xs = np.zeros((0, n), dtype=np.int64)
    y = _draw_target(target, sy)
    closing = np.asarray(y, dtype=np.int64) - xs.sum(axis=0)
    deltas = [tuple(int(c) for c in row) for row in xs]
    deltas.append(tuple(int(c) for c in closing))
    return StreamSample(y, tuple(deltas))


def _prefix_blocks(
    radius: float, blocks: int, policy: TruncationPolicy, seeds: Sequence[int]
) -> np.ndarray:
    """The prefix blocks every seed s draws under `policy`, shape
    (len(seeds), blocks, n), in one batched draw and without the closing
    targets.  Under the default policy of the radius they are
    `exact_stream_sample(target, radius, blocks, s).deltas[:blocks]`."""
    return sample_truncated_many(radius, policy, _subseeds(seeds, 1)[:, 0], blocks)


# -- conditioning on boundary states ---------------------------------------------


class ImpossibleSequence(ValueError):
    """A conditioning state pair admits no block delta at all."""


class SelectionFailed(RuntimeError):
    """No observed state sequence clears the probability threshold.

    Carries the observed census so the caller can lower the threshold
    and retry.
    """

    def __init__(
        self,
        threshold: float,
        samples: int,
        census: tuple[tuple[tuple[int, ...], int], ...],
    ) -> None:
        self.threshold = threshold
        self.samples = samples
        self.census = census
        best = max((c for _, c in census), default=0)
        super().__init__(
            f"no state sequence reaches probability {threshold:.6g}: best "
            f"empirical share {best}/{samples} over {len(census)} sequences"
        )


@dataclass(frozen=True)
class StateSequence:
    """States at block boundaries, with the law that produced them.

    `probability` is the chance of traversing exactly these states and
    must factor into the per-block conditional masses.
    """

    states: tuple[int, ...]
    probability: float
    per_block_densities: tuple[float, ...]
    success_estimate: float

    def __post_init__(self) -> None:
        if len(self.states) != len(self.per_block_densities) + 1:
            raise ValueError("need exactly one state per block boundary")
        prod = math.prod(self.per_block_densities)
        if abs(self.probability - prod) > 1e-10:
            raise ValueError("probability must factor into the block densities")

    @property
    def block_count(self) -> int:
        return len(self.per_block_densities)


class _FoldTable:
    """Memoized partition of the block-delta support by next state, and
    the posterior law of each transition.

    The support points are folded through `fold_deltas` with the table's
    own transition memo; uniform algorithms share partitions and laws
    across block indices.  A table certifies its laws at one radius.
    """

    def __init__(self, alg: TurnstileAlgorithm, support: SparseMeasure) -> None:
        self.alg = alg
        self.support = support
        self.memo: dict = {}
        self.cache: dict[tuple[int | None, int], np.ndarray] = {}
        self.laws: dict[tuple[int | None, int, int], tuple[SparseMeasure, float]] = {}

    def next_states(self, block_index: int, state: int) -> np.ndarray:
        key = (None if self.alg.uniform else block_index, state)
        hit = self.cache.get(key)
        if hit is None:
            hit = fold_deltas(
                self.alg, self.support.points, block_index, state, self.memo
            )
            self.cache[key] = hit
        return hit

    def law(
        self, block_index: int, state: int, nxt: int, radius: float
    ) -> tuple[SparseMeasure, float]:
        """The renormalized restriction of the support to the deltas moving
        `state` to `nxt` in this block, and the mass it kept; built and
        certified once per distinct transition."""
        key = (None if self.alg.uniform else block_index, state, nxt)
        hit = self.laws.get(key)
        if hit is not None:
            return hit
        support = self.support
        mask = self.next_states(block_index, state) == nxt
        if not mask.any():
            raise ImpossibleSequence(
                f"no block delta moves state {state} to {nxt} in block "
                f"{block_index}"
            )
        beta = math.fsum(support.masses[mask])
        law = SparseMeasure(
            support.dimension, support.points[mask], support.masses[mask] / beta
        )
        cert = density_certificate(law, radius)
        if cert.alpha < beta * (1.0 - 1e-6):
            raise RuntimeError(
                "posterior density certificate fell below its block mass in "
                f"block {block_index} (state {state} -> {nxt}): alpha "
                f"{cert.alpha!r} < block mass {beta!r} times (1 - 1e-6)"
            )
        hit = self.laws[key] = (law, beta)
        return hit


def _conditional_blocks(
    table: _FoldTable, states: Sequence[int], radius: float
) -> tuple[list[SparseMeasure], list[float]]:
    """Per-block restricted laws and their masses along a state path."""
    blocks = [
        table.law(i - 1, states[i - 1], states[i], radius)
        for i in range(1, len(states))
    ]
    return [law for law, _ in blocks], [beta for _, beta in blocks]


def _check_horizon(alg: TurnstileAlgorithm, blocks: int) -> None:
    if not alg.uniform and alg.horizon < blocks + 1:
        raise ValueError(
            f"non-uniform rule horizon {alg.horizon} cannot cover "
            f"{blocks + 1} blocks"
        )


def _check_states(
    alg: TurnstileAlgorithm,
    sigma: StateSequence | Sequence[int],
    blocks: int,
) -> tuple[int, ...]:
    raw = sigma.states if isinstance(sigma, StateSequence) else sigma
    states = tuple(int(s) for s in raw)
    if len(states) != blocks + 1:
        raise ValueError(f"need {blocks + 1} boundary states, got {len(states)}")
    if states[0] != alg.initial_state:
        raise ValueError("sequence must start at the initial state")
    _check_horizon(alg, blocks)
    return states


def posterior_laws(
    alg: TurnstileAlgorithm,
    sigma: StateSequence | Sequence[int],
    radius: float,
    blocks: int,
) -> list[SparseMeasure]:
    """Conditional prefix-block laws given the boundary states.

    Block i is the truncated Gaussian restricted to the deltas whose
    canonical block moves state i to state i+1, renormalized.  The
    removed masses multiply to the probability of the sequence; a pair
    of states joined by no delta at all is an impossible sequence.
    """
    states = _check_states(alg, sigma, blocks)
    table = _FoldTable(alg, gamma_truncated(alg.dimension, radius))
    laws, _ = _conditional_blocks(table, states, radius)
    return laws


def _convolution_rows(
    dimension: int, laws: Sequence[SparseMeasure], uniforms: np.ndarray
) -> np.ndarray:
    """Rows of X_1 + ... + X_k from uniforms of shape (..., k, count):
    X_i's index is the searchsorted(side="right") of row i of the
    uniforms in law i's CDF, built as Generator.choice(p=...) builds it,
    once per distinct law."""
    shape = uniforms.shape[:-2] + (uniforms.shape[-1], dimension)
    out = np.zeros(shape, dtype=np.int64)
    rows_of: dict[int, list[int]] = {}
    for i, law in enumerate(laws):
        rows_of.setdefault(id(law), []).append(i)
    for rows in rows_of.values():
        law = laws[rows[0]]
        cdf = (law.masses / law.masses.sum()).cumsum()
        cdf /= cdf[-1]
        idx = cdf.searchsorted(uniforms[..., rows, :], side="right")
        out += law.points[idx].sum(axis=-3)
    return out


def resample_convolution(
    dimension: int,
    laws: Sequence[SparseMeasure],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows of X_1 + ... + X_k with independent X_i from the given laws.

    One rng.random((k, count)) draw feeds _convolution_rows, so the rows
    are index for index those of one rng.choice(count, p=...) per law in
    order."""
    return _convolution_rows(dimension, laws, rng.random((len(laws), count)))


def _success_estimate(
    alg: TurnstileAlgorithm,
    problem: ProblemSpec,
    target: SparseMeasure,
    laws: Sequence[SparseMeasure],
    states: tuple[int, ...],
    landings: int,
    rng: np.random.Generator,
    memo: dict,
) -> float:
    """Mass-weighted validity of the closing answer over resampled landings.

    Every target point's landings come from one uniform draw, in the
    order of one resample_convolution call per point, and are folded in
    one fold_deltas call; each point checks each distinct end state once.
    """
    closing_index = len(states) - 1
    weight = target.total_mass
    ys = target.points
    uniforms = rng.random((ys.shape[0], len(laws), landings))
    deltas = ys[:, None, :] - _convolution_rows(alg.dimension, laws, uniforms)
    ends = fold_deltas(
        alg, deltas.reshape(-1, alg.dimension), closing_index, states[-1], memo
    ).reshape(ys.shape[0], landings)
    total = 0.0
    for y, m, row in zip(map(tuple, ys.tolist()), target.masses.tolist(), ends):
        seen, counts = np.unique(row, return_counts=True)
        ok = sum(
            c
            for s, c in zip(seen.tolist(), counts.tolist())
            if problem.valid(y, alg.output(s))
        )
        total += (m / weight) * (ok / landings)
    return total


def select_state_sequence(
    alg: TurnstileAlgorithm,
    target: SparseMeasure,
    problem: ProblemSpec,
    radius: float,
    blocks: int,
    samples: int,
    seed: int,
    threshold: float | None = None,
) -> StateSequence:
    """Pick the observed boundary-state sequence with the best success.

    The census draws the prefix blocks of `samples` exact streams in one
    batched draw from the truncated Gaussian of the radius (each stream
    keeps its own seed, so the draws equal `exact_stream_sample`'s),
    folds them block by block, and groups them by their states at block
    boundaries.
    Sequences whose empirical share falls below `threshold` are dropped;
    the default is half of 2^-blocks, the share each sequence would keep
    if every block branched two ways, so algorithms that branch more
    densely need a lower threshold.  Survivors get their success
    estimated from SELECTION_LANDINGS resampled closing blocks per target
    point, reseeded per candidate from its own states so the aggregation
    is order independent.  The best estimate wins; exact ties go to the
    lexicographically smallest states.  Survivors share one fold table,
    so each distinct transition's posterior law is built and certified
    once, however many survivors pass through it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_horizon(alg, blocks)
    pol = TruncationPolicy.for_gaussian(alg.dimension, radius)
    _check_target(target)
    seed_rng = np.random.default_rng(seed)
    prefixes = _prefix_blocks(
        radius, blocks, pol, seed_rng.integers(0, 2**63, size=samples)
    )
    paths = np.empty((samples, blocks + 1), dtype=np.int64)
    paths[:, 0] = alg.initial_state
    memo: dict = {}
    for j in range(blocks):
        paths[:, j + 1] = fold_deltas(alg, prefixes[:, j], j, paths[:, j], memo)
    census = Counter(map(tuple, paths.tolist()))
    cut = 0.5 * 0.5**blocks if threshold is None else threshold
    survivors = sorted(
        st for st, c in census.items() if c / samples >= cut
    )
    if not survivors:
        ranked = sorted(census.items(), key=lambda kv: (-kv[1], kv[0]))
        raise SelectionFailed(cut, samples, tuple(ranked))
    table = _FoldTable(alg, gamma_truncated(alg.dimension, radius))
    best: StateSequence | None = None
    for states in survivors:
        laws, densities = _conditional_blocks(table, states, radius)
        q = _success_estimate(
            alg,
            problem,
            target,
            laws,
            states,
            SELECTION_LANDINGS,
            np.random.default_rng((seed, *states)),
            table.memo,
        )
        candidate = StateSequence(
            states=states,
            probability=math.prod(densities),
            per_block_densities=tuple(densities),
            success_estimate=q,
        )
        if best is None or q > best.success_estimate:
            best = candidate
    return best


# -- algorithm zoo -----------------------------------------------------------------


def constant_algorithm(dimension: int, value: object = 0) -> TurnstileAlgorithm:
    """Single-state algorithm answering `value` regardless of the stream."""
    return TurnstileAlgorithm(
        name="constant",
        dimension=dimension,
        state_bits=0,
        initial_state=0,
        transition=lambda j, s, u: 0,
        output=lambda s: value,
    )


def parity_algorithm(dimension: int) -> TurnstileAlgorithm:
    """Tracks the coordinate-sum parity of the frequency vector."""
    return TurnstileAlgorithm(
        name="parity",
        dimension=dimension,
        state_bits=1,
        initial_state=0,
        transition=lambda j, s, u: s ^ 1,
        output=lambda s: s,
    )


def mod_counter_algorithm(dimension: int, modulus: int = 3) -> TurnstileAlgorithm:
    """Tracks the first coordinate modulo `modulus`."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    return TurnstileAlgorithm(
        name=f"mod-{modulus}",
        dimension=dimension,
        state_bits=(modulus - 1).bit_length(),
        initial_state=0,
        transition=lambda j, s, u: (
            (s + u.sign) % modulus if u.coordinate == 0 else s
        ),
        output=lambda s: s,
    )


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


def alternating_algorithm(dimension: int, horizon: int) -> TurnstileAlgorithm:
    """Rule switch per block: even blocks flip the coordinate-sum parity,
    odd blocks advance the first coordinate's mod-3 counter.

    State id is parity * 3 + counter, so the per-block posteriors differ
    between neighboring blocks.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")

    def transition(j: int, s: int, u: Update) -> int:
        parity, counter = divmod(s, 3)
        if j % 2 == 0:
            parity ^= 1
        elif u.coordinate == 0:
            counter = (counter + u.sign) % 3
        return parity * 3 + counter

    return TurnstileAlgorithm(
        name="alternating",
        dimension=dimension,
        state_bits=3,
        initial_state=0,
        transition=transition,
        output=lambda s: s,
        uniform=False,
        horizon=horizon,
    )
