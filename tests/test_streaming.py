"""Turnstile stream model tests.

Oracles: frequency accumulators for canonical blocks and replay,
per-row `fold_block` and the per-update loops it replaced for the array
fold, restriction masses summed directly from the truncated Gaussian
for the posterior laws, and a brute-force joint enumeration for the
factorization identity.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dgauss_oracle import batch_sample_truncated
from streaming_oracle import (
    canonical_realization,
    choice_resample_convolution,
    fold_block,
    identity_box_algorithm,
    same_laws,
)
from sketchlab.dgauss import TruncationPolicy
from sketchlab.measure import SparseMeasure, density_certificate, gamma_truncated
from sketchlab.streaming import (
    SELECTION_LANDINGS,
    ImpossibleSequence,
    ProblemSpec,
    SelectionFailed,
    StateSequence,
    TurnstileAlgorithm,
    Update,
    alternating_algorithm,
    constant_algorithm,
    exact_stream_sample,
    fold_deltas,
    mod_counter_algorithm,
    parity_algorithm,
    posterior_laws,
    select_state_sequence,
)
from sketchlab import dgauss, streaming
from sketchlab.streaming import (
    _conditional_blocks,
    _convolution_rows,
    _FoldTable,
    _prefix_blocks,
    _subseeds,
    _success_estimate,
)

TARGET4 = SparseMeasure.uniform([(0, 0), (1, 0), (1, 1), (2, 1)])

PARITY_PROBLEM = ProblemSpec.promise(lambda y: sum(y) % 2)


def vectors(n: int, bound: int = 5):
    return st.lists(
        st.integers(-bound, bound), min_size=n, max_size=n
    ).map(tuple)


def replay(alg: TurnstileAlgorithm, deltas) -> tuple[int, object]:
    """Fold block j's canonical block at block index j, then answer."""
    state = alg.initial_state
    for j, d in enumerate(deltas):
        state = fold_block(alg, j, state, d)
    return state, alg.output(state)


def block_masses(alg: TurnstileAlgorithm, states, radius: float) -> list[float]:
    """Per-block conditional masses along `states`, as selection computes them."""
    table = _FoldTable(alg, gamma_truncated(alg.dimension, radius))
    return _conditional_blocks(table, states, radius)[1]


# -- canonical blocks ---------------------------------------------------------


def test_update_validation():
    with pytest.raises(ValueError):
        Update(0, 2)
    with pytest.raises(ValueError):
        Update(-1, 1)


def test_canonical_zero_is_empty():
    assert canonical_realization((0, 0, 0)) == ()


def test_canonical_unfolds_definition():
    block = canonical_realization((2, -1))
    assert [(u.coordinate, u.sign) for u in block] == [(0, 1), (0, 1), (1, -1)]


@given(vectors(3))
def test_canonical_net_delta_and_length(v):
    block = canonical_realization(v)
    acc = [0, 0, 0]
    for u in block:
        acc[u.coordinate] += u.sign
    assert tuple(acc) == v
    assert len(block) == sum(abs(c) for c in v)
    # ascending coordinate order is part of the contract
    coords = [u.coordinate for u in block]
    assert coords == sorted(coords)


# -- folding blocks -----------------------------------------------------------


def test_run_empty_stream_answers_at_initial_state():
    assert replay(parity_algorithm(2), []) == (0, 0)
    assert replay(parity_algorithm(2), [(0, 0)]) == (0, 0)


def test_run_parity_even():
    state, out = replay(parity_algorithm(2), [(1, 1)])
    assert out == 0


def test_run_mod3_counter():
    state, out = replay(mod_counter_algorithm(2, 3), [(4, 0)])
    assert state == 1


def test_run_is_deterministic():
    alg = mod_counter_algorithm(2, 5)
    deltas = [(3, -1), (-2, 4)]
    assert replay(alg, deltas) == replay(alg, deltas) == (1, 1)


def test_run_flat_updates_count_as_one_block():
    alt = alternating_algorithm(1, horizon=1)
    # block 0 uses the parity rule, so three updates land on parity 1
    assert fold_block(alt, 0, 0, (3,)) == 3
    # block 1 advances the mod-3 counter instead
    assert fold_block(alt, 1, 0, (4,)) == 1


def test_run_horizon_error():
    alt = alternating_algorithm(1, horizon=2)
    with pytest.raises(ValueError, match="horizon 2"):
        posterior_laws(alt, (0, 3, 3), 8.0, 2)


def test_step_rejects_state_space_escape():
    bad = TurnstileAlgorithm(
        name="bad",
        dimension=1,
        state_bits=1,
        initial_state=0,
        transition=lambda j, s, u: 2,
        output=lambda s: s,
    )
    with pytest.raises(RuntimeError, match="state"):
        fold_block(bad, 0, 0, (1,))


# -- reference algorithms -----------------------------------------------------


def test_constant_algorithm_single_state():
    assert replay(constant_algorithm(2), [(5, -3)]) == (0, 0)
    alg = replace(constant_algorithm(2), output=lambda s: "ok")
    assert alg.state_count == 1
    assert replay(alg, [(5, -3)]) == (0, "ok")


def test_mod_counter_validates_modulus():
    with pytest.raises(ValueError):
        mod_counter_algorithm(1, 1)


def test_identity_box_records_and_overflows():
    alg = identity_box_algorithm(2, 3)
    state, out = replay(alg, [(3, -2)])
    assert out == (3, -2)
    # one more step over the edge absorbs permanently
    state = alg.step(0, state, Update(0, 1))
    assert state == 0
    state = alg.step(0, state, Update(0, -1))
    assert state == 0
    assert alg.output(0) is None


# -- sampled stream models ----------------------------------------------------


def test_exact_sample_replays_to_target():
    for seed in range(50):
        smp = exact_stream_sample(TARGET4, 8.0, 3, seed=seed)
        assert len(smp.deltas) == 4
        acc = [0, 0]
        for d in smp.deltas:
            for u in canonical_realization(d):
                acc[u.coordinate] += u.sign
        assert tuple(acc) == smp.target


def test_exact_sample_reports_additive_length():
    smp = exact_stream_sample(TARGET4, 8.0, 5, seed=21)
    lengths = [sum(abs(c) for c in d) for d in smp.deltas]
    updates = sum(len(canonical_realization(d)) for d in smp.deltas)
    assert updates == sum(lengths)
    assert updates <= 5 * max(lengths[:-1]) + lengths[-1]


def test_exact_sample_m0_is_single_target_block():
    smp = exact_stream_sample(TARGET4, 8.0, 0, seed=9)
    assert smp.deltas == (smp.target,)


def test_target_deficit_rejected():
    lossy = gamma_truncated(2, 8.0, TruncationPolicy.for_gaussian(2, 8.0, 1e-3))
    with pytest.raises(ValueError, match="deficit"):
        exact_stream_sample(lossy, 8.0, 1, seed=0)


# -- posterior laws -----------------------------------------------------------


def test_constant_posteriors_are_unrestricted():
    laws = posterior_laws(constant_algorithm(2), (0, 0, 0), 8.0, 2)
    support = gamma_truncated(2, 8.0)
    assert len(laws) == 2
    for law in laws:
        assert law.support_size == support.support_size
        assert abs(law.total_mass - 1.0) < 1e-12


def test_parity_posteriors_match_restriction_masses():
    # oracle: class masses summed straight off the truncated Gaussian
    support = gamma_truncated(2, 8.0)
    p_odd = math.fsum(m for p, m in support.atoms.items() if sum(p) % 2 == 1)
    alg = parity_algorithm(2)
    masses = block_masses(alg, (0, 1, 0), 8.0)
    assert abs(masses[0] - p_odd) < 1e-15
    assert abs(masses[1] - p_odd) < 1e-15
    assert abs(p_odd - 0.5) < 1e-9
    laws = posterior_laws(alg, (0, 1, 0), 8.0, 2)
    for law in laws:
        assert all(sum(p) % 2 == 1 for p in law.atoms)
    mixed = block_masses(alg, (0, 0, 1), 8.0)
    assert abs(mixed[0] - (1.0 - p_odd)) < 1e-12
    assert abs(mixed[1] - p_odd) < 1e-15


def test_identity_posteriors_are_point_masses():
    alg = identity_box_algorithm(2, 40)
    support = gamma_truncated(2, 8.0)
    s0 = alg.initial_state
    s1 = fold_block(alg, 0, s0, (1, 0))
    s2 = fold_block(alg, 1, s1, (2, -1))
    laws = posterior_laws(alg, (s0, s1, s2), 8.0, 2)
    assert dict(laws[0].atoms) == {(1, 0): 1.0}
    assert dict(laws[1].atoms) == {(2, -1): 1.0}
    masses = block_masses(alg, (s0, s1, s2), 8.0)
    assert masses[0] == support.atoms[(1, 0)]
    assert masses[1] == support.atoms[(2, -1)]


def test_posterior_certificates_cover_block_masses():
    alg = parity_algorithm(2)
    states = (0, 1, 1)
    masses = block_masses(alg, states, 8.0)
    for law, beta in zip(posterior_laws(alg, states, 8.0, 2), masses):
        cert = density_certificate(law, 8.0)
        assert cert.alpha >= beta * (1.0 - 1e-6)


def test_density_certificate_failure_names_its_numbers():
    # the laws are cut from gamma_8, so a gamma_4 certificate falls short
    alg = parity_algorithm(2)
    table = _FoldTable(alg, gamma_truncated(2, 8.0))
    with pytest.raises(RuntimeError) as err:
        _conditional_blocks(table, (0, 1, 0), 4.0)
    law = posterior_laws(alg, (0, 1, 0), 8.0, 2)[0]
    alpha = density_certificate(law, 4.0).alpha
    beta = block_masses(alg, (0, 1, 0), 8.0)[0]
    msg = str(err.value)
    assert "block 0 (state 0 -> 1)" in msg
    assert f"alpha {alpha!r} < block mass {beta!r} times (1 - 1e-6)" in msg


def test_impossible_sequence_error():
    # the overflow state needs a coordinate beyond the truncation ball
    alg = identity_box_algorithm(2, 40)
    with pytest.raises(ImpossibleSequence, match="block 0"):
        posterior_laws(alg, (alg.initial_state, 0, 0), 8.0, 2)


def test_posterior_state_validation():
    alg = parity_algorithm(2)
    with pytest.raises(ValueError, match="boundary states"):
        posterior_laws(alg, (0, 1), 8.0, 2)
    with pytest.raises(ValueError, match="initial state"):
        posterior_laws(alg, (1, 0, 1), 8.0, 2)


def test_factorization_against_joint_enumeration():
    # oracle: brute-force joint mass over all block-delta pairs
    alg = parity_algorithm(1)
    support = gamma_truncated(1, 4.0)
    states = (0, 1, 0)
    joint = 0.0
    for (x1,), m1 in support.atoms.items():
        if fold_block(alg, 0, 0, (x1,)) != states[1]:
            continue
        for (x2,), m2 in support.atoms.items():
            if fold_block(alg, 1, states[1], (x2,)) == states[2]:
                joint += m1 * m2
    assert abs(math.prod(block_masses(alg, states, 4.0)) - joint) < 1e-14


def test_factorization_against_monte_carlo():
    alg = parity_algorithm(1)
    states = (0, 1, 0)
    prob = math.prod(block_masses(alg, states, 4.0))
    target = SparseMeasure.uniform([(0,)])
    trials = 4096
    rng = np.random.default_rng(77)
    hits = 0
    for s in rng.integers(0, 2**63, size=trials):
        smp = exact_stream_sample(target, 4.0, 2, seed=int(s))
        state = 0
        path = [0]
        for j, d in enumerate(smp.deltas[:2]):
            for u in canonical_realization(d):
                state = alg.step(j, state, u)
            path.append(state)
        hits += tuple(path) == states
    stderr = math.sqrt(prob * (1.0 - prob) / trials)
    assert abs(hits / trials - prob) <= 3.0 * stderr


def test_nonuniform_posteriors_differ_across_blocks():
    # regression: the rule switch must show up in the conditioned laws
    alg = alternating_algorithm(1, horizon=4)
    support = gamma_truncated(1, 8.0)
    q_odd = math.fsum(m for p, m in support.atoms.items() if p[0] % 2 == 1)
    q_mod1 = math.fsum(m for p, m in support.atoms.items() if p[0] % 3 == 1)
    masses = block_masses(alg, (0, 3, 4), 8.0)
    assert abs(masses[0] - q_odd) < 1e-15
    assert abs(masses[1] - q_mod1) < 1e-15
    assert abs(masses[0] - 0.5) < 1e-9
    assert abs(masses[1] - 1.0 / 3.0) < 1e-9
    laws = posterior_laws(alg, (0, 3, 4), 8.0, 2)
    assert all(p[0] % 2 == 1 for p in laws[0].atoms)
    assert all(p[0] % 3 == 1 for p in laws[1].atoms)
    assert set(laws[0].atoms) != set(laws[1].atoms)


@st.composite
def law_lists(draw):
    # a few distinct laws, repeated as the posterior laws of a path repeat
    n = draw(st.integers(1, 3))
    point = st.tuples(*(st.integers(-4, 4) for _ in range(n)))
    tables = st.dictionaries(point, st.floats(1e-3, 1.0), min_size=1, max_size=9)
    pool = []
    for atoms in draw(st.lists(tables, min_size=1, max_size=3)):
        weights = np.array(list(atoms.values()))
        pool.append(SparseMeasure(n, list(atoms), weights / math.fsum(weights)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    return n, [pool[i] for i in picks]


@given(law_lists(), st.integers(0, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_convolution_rows_match_choice_draws(case, count, seed):
    # one batched window over two entropies, each row its own stream
    n, laws = case
    entropies = [seed, (seed, 1)]
    uniforms = dgauss.pcg64_uniforms(entropies, len(laws) * count)
    got = _convolution_rows(n, laws, uniforms.reshape(2, len(laws), count))
    assert got.shape == (2, count, n)
    for rows, entropy in zip(got, entropies):
        old = np.random.default_rng(entropy)
        assert np.array_equal(rows, choice_resample_convolution(n, laws, count, old))
        # the stream continues where the choice draws left the generator
        assert dgauss.pcg64_uniforms([entropy], 1, len(laws) * count)[0, 0] == old.random()


def test_convolution_rows_match_laws():
    laws = posterior_laws(parity_algorithm(2), (0, 1, 0), 8.0, 2)
    uniforms = dgauss.pcg64_uniforms([3], 2 * 256).reshape(2, 256)
    rows = _convolution_rows(2, laws, uniforms)
    assert rows.shape == (256, 2)
    # both blocks have odd coordinate sums, so every row sums even
    assert all(int(r.sum()) % 2 == 0 for r in rows)


# -- array fold ---------------------------------------------------------------

def rolling_hash_algorithm(dimension: int) -> TurnstileAlgorithm:
    """Mixes every (coordinate, sign) into the state in arrival order, so
    any change to the visiting order moves the end state."""
    return TurnstileAlgorithm(
        name="rolling-hash",
        dimension=dimension,
        state_bits=5,
        initial_state=1,
        transition=lambda j, s, u: (5 * s + 2 * u.coordinate + (u.sign > 0)) % 31,
        output=lambda s: s,
    )


def counting(alg: TurnstileAlgorithm) -> tuple[TurnstileAlgorithm, Counter]:
    calls: Counter = Counter()

    def transition(j, s, u):
        calls[(j, s, u.coordinate, u.sign)] += 1
        return alg.transition(j, s, u)

    return replace(alg, transition=transition), calls


def visited_pairs(alg, block_index, state, rows) -> set:
    """(state, coordinate, sign) of every unit step of the canonical blocks."""
    out = set()
    for row in rows:
        s = state
        for u in canonical_realization(row):
            out.add((s, u.coordinate, u.sign))
            s = alg.step(block_index, s, u)
    return out


FOLD_CASES = [
    constant_algorithm,
    parity_algorithm,
    lambda n: mod_counter_algorithm(n, 3),
    lambda n: identity_box_algorithm(n, 3),
    lambda n: alternating_algorithm(n, horizon=4),
    rolling_hash_algorithm,
]


@settings(max_examples=80, deadline=None)
@given(build=st.sampled_from(FOLD_CASES), n=st.integers(1, 3), data=st.data())
def test_fold_deltas_matches_fold_block(build, n, data):
    alg = build(n)
    rows = data.draw(
        st.lists(st.one_of(st.just((0,) * n), vectors(n, 6)), max_size=12)
    )
    deltas = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    memo: dict = {}
    # a non-uniform table is folded at every block index below its horizon,
    # through one shared memo, so a rule leaking across blocks shows
    for j in range(2 if alg.uniform else alg.horizon):
        start = fold_block(alg, j, alg.initial_state, data.draw(vectors(n, 3)))
        got = fold_deltas(alg, deltas, j, start, memo)
        want = np.array([fold_block(alg, j, start, r) for r in rows], dtype=np.int64)
        assert np.array_equal(got, want)
        starts = [fold_block(alg, j, alg.initial_state, r[::-1]) for r in rows]
        got = fold_deltas(alg, deltas, j, np.array(starts, dtype=np.int64), memo)
        want = [fold_block(alg, j, s, r) for s, r in zip(starts, rows)]
        assert np.array_equal(got, np.array(want, dtype=np.int64))


@pytest.mark.parametrize(
    "alg, blocks",
    [(mod_counter_algorithm(2, 3), 3), (alternating_algorithm(2, horizon=4), 4)],
)
def test_fold_calls_each_distinct_transition_once(alg, blocks):
    spy, calls = counting(alg)
    support = gamma_truncated(2, 4.0)
    table = _FoldTable(spy, support)
    expected = set()
    for j in range(blocks):
        for start in range(3):
            table.next_states(j, start)
            pairs = visited_pairs(alg, j, start, support.points.tolist())
            expected |= {(j, *p) for p in pairs}
    if alg.uniform:
        # one call per (state, update), whichever block reached it first
        per_pair = Counter((s, c, g) for j, s, c, g in calls.elements())
        assert set(per_pair) == {p[1:] for p in expected}
    else:
        per_pair = calls
        assert set(per_pair) == expected
    assert set(per_pair.values()) == {1}


def test_transition_leaving_the_state_space_raises_from_posterior_laws():
    leaky = TurnstileAlgorithm(
        name="leaky",
        dimension=2,
        state_bits=1,
        initial_state=0,
        transition=lambda j, s, u: s + 1,
        output=lambda s: s,
    )
    with pytest.raises(RuntimeError, match="left the declared 1-bit state space: 2"):
        posterior_laws(leaky, (0, 1, 0), 4.0, 2)


def loop_success_estimate(alg, problem, target, laws, states, landings, rng):
    """`_success_estimate` as it was before the array fold: one
    `fold_block` and one `valid` call per resampled landing, and one
    `rng.choice` per law and target point."""
    closing_index = len(states) - 1
    weight = target.total_mass
    total = 0.0
    for y, m in sorted(target.atoms.items()):
        draws = choice_resample_convolution(alg.dimension, laws, landings, rng)
        deltas = np.asarray(y, dtype=np.int64) - draws
        ok = 0
        for row in deltas:
            state = fold_block(alg, closing_index, states[-1], row)
            ok += problem.valid(y, alg.output(state))
        total += (m / weight) * (ok / landings)
    return total


IDENTITY = identity_box_algorithm(2, 40)
_S1 = fold_block(IDENTITY, 0, IDENTITY.initial_state, (1, 0))
IDENTITY_STATES = (IDENTITY.initial_state, _S1, fold_block(IDENTITY, 1, _S1, (2, -1)))


@pytest.mark.parametrize(
    "alg, states, problem",
    [
        (parity_algorithm(2), (0, 1, 0), PARITY_PROBLEM),
        # the closing block of the alternating table flips parity per
        # update, so about half of the landings are valid: outputs within
        # 2 of the constant target 0 are those below 3
        (
            alternating_algorithm(2, horizon=3),
            (0, 3, 4),
            ProblemSpec.metric_approximation(
                target=lambda y: 0,
                metric=lambda a, b: abs(a - b),
                outputs=tuple(range(6)),
                epsilon=2.0,
            ),
        ),
        (
            IDENTITY,
            IDENTITY_STATES,
            ProblemSpec.metric_approximation(
                target=lambda y: y,
                metric=lambda a, b: 0.0 if a == b else 1.0,
                outputs=(),
                epsilon=0.0,
            ),
        ),
    ],
)
def test_success_estimate_matches_per_row_loop(alg, states, problem):
    laws = posterior_laws(alg, states, 8.0, 2)
    q = _success_estimate(alg, problem, TARGET4, laws, states, 64, (9, *states), {})
    want = loop_success_estimate(
        alg, problem, TARGET4, laws, states, 64, np.random.default_rng((9, *states))
    )
    assert q == want
    assert 0.0 < q <= 1.0


def test_success_estimate_checks_each_end_state_once(monkeypatch):
    alg = alternating_algorithm(2, horizon=3)
    states = (0, 3, 4)
    problem = ProblemSpec.metric_approximation(
        target=lambda y: 0,
        metric=lambda a, b: abs(a - b),
        outputs=tuple(range(6)),
        epsilon=2.0,
    )
    laws = posterior_laws(alg, states, 8.0, 2)
    checked: list[tuple] = []
    valid = ProblemSpec.valid

    def spy(self, y, output):
        checked.append((y, output))
        return valid(self, y, output)

    monkeypatch.setattr(ProblemSpec, "valid", spy)
    q = _success_estimate(alg, problem, TARGET4, laws, states, 64, (9, *states), {})
    # the output is the state: one check per target point and distinct
    # end state, at most 2^state_bits per point, not one per landing
    assert len(checked) == len(set(checked))
    assert len(checked) <= 4 * 2**alg.state_bits < 4 * 64
    monkeypatch.setattr(ProblemSpec, "valid", valid)
    want = loop_success_estimate(
        alg, problem, TARGET4, laws, states, 64, np.random.default_rng((9, *states))
    )
    assert q == want


@pytest.mark.parametrize(
    "alg", [identity_box_algorithm(2, 3), alternating_algorithm(2, horizon=3)]
)
def test_selection_census_matches_per_update_loop(alg):
    # threshold 1 keeps no survivor, so the census comes back whole
    with pytest.raises(SelectionFailed) as err:
        select_state_sequence(
            alg, TARGET4, ProblemSpec.promise(lambda y: "*"),
            8.0, 2, samples=96, seed=4, threshold=1.0,
        )
    census: Counter = Counter()
    seeds = np.random.default_rng(4).integers(0, 2**63, size=96)
    for s in seeds:
        smp = exact_stream_sample(TARGET4, 8.0, 2, seed=int(s))
        state = alg.initial_state
        path = [state]
        for j, d in enumerate(smp.deltas[:2]):
            for u in canonical_realization(d):
                state = alg.step(j, state, u)
            path.append(state)
        census[tuple(path)] += 1
    assert len(census) > 1
    ranked = sorted(census.items(), key=lambda kv: (-kv[1], kv[0]))
    assert err.value.census == tuple(ranked)


def numpy_seeded_selection(alg, problem, radius, blocks, samples, seed):
    """`select_state_sequence` over TARGET4 at the default threshold as it
    was with numpy's Generator drawing every stream: the census streams'
    seeds, each stream's prefix blocks (`batch_sample_truncated` on the
    first of its three subseeds), and each survivor's landings
    (`loop_success_estimate` on default_rng((seed, *states))).  Returns
    the winning states and their success estimate."""
    pol = TruncationPolicy.for_gaussian(alg.dimension, radius)
    census: Counter = Counter()
    for s in np.random.default_rng(seed).integers(0, 2**63, size=samples).tolist():
        sx = int(np.random.default_rng(s).integers(0, 2**63, size=3)[0])
        path = [alg.initial_state]
        for j, d in enumerate(batch_sample_truncated(radius, pol, sx, blocks)):
            path.append(fold_block(alg, j, path[-1], d))
        census[tuple(path)] += 1
    cut = 0.5 * 0.5**blocks
    best = None
    for states in sorted(st for st, c in census.items() if c / samples >= cut):
        laws = posterior_laws(alg, states, radius, blocks)
        rng = np.random.default_rng((seed, *states))
        q = loop_success_estimate(
            alg, problem, TARGET4, laws, states, SELECTION_LANDINGS, rng
        )
        if best is None or q > best[1]:
            best = (states, q)
    return best


@pytest.mark.parametrize("seed", [4, 2**64])
@pytest.mark.parametrize(
    "alg, problem",
    [
        (parity_algorithm(2), PARITY_PROBLEM),
        (
            alternating_algorithm(2, horizon=3),
            ProblemSpec.metric_approximation(
                target=lambda y: 0,
                metric=lambda a, b: abs(a - b),
                outputs=tuple(range(6)),
                epsilon=2.0,
            ),
        ),
    ],
    ids=["parity", "alternating"],
)
def test_selection_matches_numpy_seeded_oracle(alg, problem, seed):
    # 2^64 is past the old kernel's 64-bit seeds, but numpy seeded it
    got = select_state_sequence(alg, TARGET4, problem, 8.0, 2, samples=64, seed=seed)
    states, q = numpy_seeded_selection(alg, problem, 8.0, 2, 64, seed)
    assert got.states == states
    assert got.success_estimate == q


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=16))
@settings(deadline=None, max_examples=100)
def test_subseeds_match_default_rng_integers(seeds):
    want = [np.random.default_rng(s).integers(0, 2**63, size=3) for s in seeds]
    assert np.array_equal(_subseeds(seeds, 3), want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("blocks", [0, 1, 2, 3])
@pytest.mark.parametrize("tight", [False, True])
def test_batched_census_matches_exact_stream_sample(monkeypatch, n, blocks, tight):
    # a ball of radius R = 2.9 rejects every row with a coordinate of 3,
    # so some seeds fall back to the single-seed sampler
    radius = 2.9
    pol = (
        TruncationPolicy(n, 1e-3, radius)
        if tight
        else TruncationPolicy.for_gaussian(n, radius)
    )
    fallbacks = []
    single = dgauss.sample_truncated

    def counted(*args, **kwargs):
        fallbacks.append(args[2])
        return single(*args, **kwargs)

    monkeypatch.setattr(dgauss, "sample_truncated", counted)
    # exact_stream_sample draws under the radius's default policy; make
    # that pol
    monkeypatch.setattr(TruncationPolicy, "for_gaussian", lambda dim, R: pol)
    target = SparseMeasure.uniform([(0,) * n, (1,) + (0,) * (n - 1)])
    seeds = np.random.default_rng(n * 10 + blocks).integers(0, 2**63, size=256)
    got = _prefix_blocks(radius, blocks, pol, seeds)
    assert got.shape == (256, blocks, n)
    for s, rows in zip(seeds.tolist(), got):
        want = exact_stream_sample(target, radius, blocks, s).deltas[:blocks]
        assert rows.tolist() == [list(d) for d in want]
    if tight and blocks:
        assert fallbacks
    if not tight:
        assert not fallbacks


@pytest.mark.parametrize(
    "alg, blocks",
    [(parity_algorithm(2), 3), (alternating_algorithm(2, horizon=4), 3)],
)
def test_selection_certifies_each_distinct_transition_once(monkeypatch, alg, blocks):
    certified = []
    real_certificate = streaming.density_certificate

    def spy_certificate(law, radius):
        certified.append(law)
        return real_certificate(law, radius)

    tables, paths = [], []
    real_blocks = streaming._conditional_blocks

    def spy_blocks(table, states, radius):
        tables.append(table)
        paths.append(tuple(states))
        return real_blocks(table, states, radius)

    monkeypatch.setattr(streaming, "density_certificate", spy_certificate)
    monkeypatch.setattr(streaming, "_conditional_blocks", spy_blocks)
    select_state_sequence(
        alg, TARGET4, ProblemSpec.promise(lambda y: "*"),
        4.0, blocks, samples=256, seed=7, threshold=1.0 / 256,
    )
    assert len(set(map(id, tables))) == 1 and len(paths) > 1
    keys = {
        (None if alg.uniform else i - 1, st[i - 1], st[i])
        for st in paths
        for i in range(1, len(st))
    }
    assert set(tables[0].laws) == keys
    assert len(certified) == len(keys)
    if alg.uniform:
        # survivors outnumber the distinct transitions they share
        assert sum(len(st) - 1 for st in paths) > len(keys)
    else:
        assert {k[0] for k in keys} == set(range(blocks))


@pytest.mark.parametrize(
    "alg, blocks",
    [(parity_algorithm(2), 3), (alternating_algorithm(2, horizon=4), 3)],
)
def test_selection_steps_each_distinct_transition_once(alg, blocks):
    # census, fold table and success estimates share one transition memo
    spy, calls = counting(alg)
    select_state_sequence(
        spy, TARGET4, ProblemSpec.promise(lambda y: "*"),
        8.0, blocks, samples=64, seed=3,
    )
    if alg.uniform:
        per_key = Counter((s, c, g) for j, s, c, g in calls.elements())
    else:
        per_key = calls
    assert per_key and set(per_key.values()) == {1}


# -- state sequences ----------------------------------------------------------


def test_state_sequence_validation():
    with pytest.raises(ValueError, match="boundary"):
        StateSequence((0, 1), (0.5, 0.5), 1.0, (), 0.1)
    seq = StateSequence((0, 1, 0), (0.5, 0.3), 1.0, (), 0.1)
    assert seq.block_count == 2
    # the probability is the product of the block densities, bit for bit
    assert seq.probability == 0.5 * 0.3


def test_state_sequence_needs_one_law_per_block():
    law = gamma_truncated(2, 4.0)
    with pytest.raises(ValueError, match="one law per block, got 1"):
        StateSequence((0, 1, 0), (0.5, 0.5), 1.0, (law,), 0.1)
    with pytest.raises(ValueError, match="one law per block, got 3"):
        StateSequence((0, 1, 0), (0.5, 0.5), 1.0, (law,) * 3, 0.1)
    seq = StateSequence((0, 1, 0), (0.5, 0.5), 1.0, (law, law), 0.1)
    # the laws and the threshold take no part in equality; the laws not
    # in the repr either
    assert seq == StateSequence((0, 1, 0), (0.5, 0.5), 1.0, (), 0.2)
    assert "laws" not in repr(seq)


@given(
    st.sampled_from(
        [
            (parity_algorithm(2), 3),
            (mod_counter_algorithm(2, 3), 2),
            (alternating_algorithm(2, horizon=3), 2),
        ]
    ),
    st.integers(0, 2**64),
)
@settings(max_examples=30, deadline=None)
def test_selected_sequence_carries_its_posterior_laws(case, seed):
    # oracle: posterior_laws rebuilds the laws from a table of its own
    alg, blocks = case
    sigma = select_state_sequence(
        alg, TARGET4, ProblemSpec.promise(lambda y: "*"),
        4.0, blocks, samples=64, seed=seed, threshold=1.0 / 64,
    )
    assert len(sigma.laws) == blocks
    assert same_laws(sigma.laws, posterior_laws(alg, sigma, 4.0, blocks))


def test_select_constant_unique_sequence():
    seq = select_state_sequence(
        constant_algorithm(2), TARGET4, ProblemSpec.promise(lambda y: 0),
        8.0, 2, samples=64, seed=3,
    )
    assert seq.states == (0, 0, 0)
    assert abs(seq.probability - 1.0) < 1e-9
    assert seq.success_estimate == 1.0


def test_select_parity_breaks_ties_lexicographically():
    # all four sequences answer perfectly, so the tie-break decides
    seq = select_state_sequence(
        parity_algorithm(2), TARGET4, PARITY_PROBLEM, 8.0, 2,
        samples=512, seed=11,
    )
    assert seq.states == (0, 0, 0)
    assert abs(seq.probability - 0.25) < 1e-9
    assert seq.success_estimate == 1.0
    assert all(abs(b - 0.5) < 1e-9 for b in seq.per_block_densities)


def test_select_identity_fails_at_small_budget():
    alg = identity_box_algorithm(2, 40)
    with pytest.raises(SelectionFailed) as err:
        select_state_sequence(
            alg, TARGET4, PARITY_PROBLEM, 8.0, 2, samples=128, seed=5, threshold=0.125
        )
    assert err.value.threshold == 0.125
    assert err.value.samples == 128
    assert max(c for _, c in err.value.census) * 8 < 128


def test_default_cut_counts_the_states_the_census_visits():
    # oracle: the distinct states of the census a failed selection reports
    alg = identity_box_algorithm(2, 40)
    with pytest.raises(SelectionFailed) as err:
        select_state_sequence(
            alg, TARGET4, PARITY_PROBLEM, 8.0, 2, samples=16, seed=5, threshold=1.0
        )
    b = len({s for states, _ in err.value.census for s in states})
    assert b > 10
    seq = select_state_sequence(alg, TARGET4, PARITY_PROBLEM, 8.0, 2, samples=16, seed=5)
    assert seq.threshold == 0.5 * float(b) ** -2


def test_select_lowered_threshold_recovers():
    alg = identity_box_algorithm(2, 40)
    seq = select_state_sequence(
        alg, TARGET4, PARITY_PROBLEM, 8.0, 2,
        samples=16, seed=5, threshold=1.0 / 32.0,
    )
    assert len(seq.states) == 3
    assert 0.0 <= seq.success_estimate <= 1.0


def test_select_validates_inputs():
    with pytest.raises(ValueError, match="sample"):
        select_state_sequence(
            parity_algorithm(2), TARGET4, PARITY_PROBLEM, 8.0, 2,
            samples=0, seed=1,
        )
    alt = alternating_algorithm(2, horizon=2)
    with pytest.raises(ValueError, match="horizon"):
        select_state_sequence(
            alt, TARGET4, PARITY_PROBLEM, 8.0, 2, samples=8, seed=1
        )


def test_select_reruns_identically():
    args = (parity_algorithm(2), TARGET4, PARITY_PROBLEM, 8.0, 2)
    a = select_state_sequence(*args, samples=128, seed=42)
    b = select_state_sequence(*args, samples=128, seed=42)
    assert a == b


# -- problems -----------------------------------------------------------------


def test_problem_kind_validation():
    for kind in ("other", "relation"):
        with pytest.raises(ValueError, match="unknown problem kind"):
            ProblemSpec(kind=kind)
    with pytest.raises(ValueError, match="metric"):
        ProblemSpec(kind="metric-approximation", target=lambda y: 0)
    with pytest.raises(ValueError, match="label map"):
        ProblemSpec(kind="promise")


def test_promise_labels_validated():
    prob = ProblemSpec.promise(lambda y: 2)
    with pytest.raises(ValueError, match="labels"):
        prob.valid((0,), 0)
    star = ProblemSpec.promise(lambda y: "*")
    assert star.valid((0,), 0) and star.valid((0,), 1)


def test_metric_problem_validity():
    prob = ProblemSpec.metric_approximation(
        target=lambda y: float(sum(y)),
        metric=lambda a, b: abs(a - b),
        outputs=(0.0, 1.0, 2.0),
        epsilon=0.5,
    )
    assert prob.valid((1, 0), 1.0)
    assert not prob.valid((2, 1), 1.0)

