"""Sketch extraction pipeline tests.

Oracles: brute-force stream simulation for the decoder labels, the
per-fiber numpy Generator draws and the per-row `fold_block` loop for
the decoder's landings, direct landing-law recomputation for the kernel
TV coupling, exhaustive fiber analysis for the adversarial information
ceiling, and direct residue arithmetic for the homomorphism checks.
"""

import functools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measure_oracle import from_atoms
from streaming_oracle import (
    choice_resample_convolution,
    fold_block,
    identity_box_algorithm,
)
from structure_oracle import sketch_value_add
from sketchlab import streaming, transfer
from sketchlab.dgauss import TruncationPolicy, sample_truncated
from sketchlab.measure import SparseMeasure, convolve_many_fft
from sketchlab.spectrum import NearOriginBasis, SketchLattice, StructureConfig
from sketchlab.streaming import (
    ProblemSpec,
    SelectionFailed,
    StateSequence,
    constant_algorithm,
    exact_stream_sample,
    mod_counter_algorithm,
    parity_algorithm,
)
from sketchlab.transfer import (
    DecoderConflict,
    ExtractedSketch,
    FiberDecoder,
    SmoothnessError,
    TransferConfig,
    UncoveredFiber,
    _build_decoder,
    evaluate_sketch,
    extract_sketch,
    extraction_from_text,
    extraction_to_text,
    fiber_census,
    sketch_apply,
    verify_smoothness,
)
from sketchlab.translation import translation_invariance_certify, tv_distance

TARGET4 = SparseMeasure.uniform([(0, 0), (1, 0), (1, 1), (2, 1)])
MOD3_TARGET = SparseMeasure.uniform([(0, 0), (1, 0), (2, 0), (3, 0)])

PARITY_PROBLEM = ProblemSpec.promise(lambda y: sum(y) % 2)
MOD3_PROBLEM = ProblemSpec.promise(lambda y: 1 if y[0] % 3 == 0 else 0)
CAPPED_NORM = ProblemSpec.metric_approximation(
    target=lambda y: min(math.hypot(*y), 16.0),
    metric=lambda a, b: abs(a - b),
    outputs=(0, 1),
    epsilon=16.0,
    delta=0.05,
)


def mod3_algorithm():
    base = mod_counter_algorithm(2, 3)
    return replace(base, output=lambda s: 1 if s == 0 else 0)


@functools.cache
def parity_extraction():
    cfg = TransferConfig(radius=8.0, blocks=2, label="parity-unit")
    return extract_sketch(parity_algorithm(2), TARGET4, PARITY_PROBLEM, "exact", cfg, seed=11)


@functools.cache
def mod3_extraction():
    cfg = TransferConfig(radius=8.0, blocks=2, selection_threshold=0.05, label="mod3-unit")
    return extract_sketch(mod3_algorithm(), MOD3_TARGET, MOD3_PROBLEM, "exact", cfg, seed=7)


@functools.cache
def constant_extraction():
    target = SparseMeasure.uniform([(0, 0), (1, 1)])
    cfg = TransferConfig(radius=8.0, blocks=2, label="constant-unit")
    problem = ProblemSpec.promise(lambda y: 0)
    sketch, decoder, report = extract_sketch(
        constant_algorithm(2), target, problem, "exact", cfg, seed=3
    )
    return sketch, decoder, report, target, problem


@functools.cache
def adversarial_extraction():
    cfg = TransferConfig(radius=8.0, blocks=2, label="adversarial-unit")
    return extract_sketch(parity_algorithm(2), MOD3_TARGET, MOD3_PROBLEM, "exact", cfg, seed=5)


@functools.cache
def mollified_extraction():
    cfg = TransferConfig(radius=8.0, blocks=2, Q=8, label="mollified-unit")
    return extract_sketch(parity_algorithm(2), TARGET4, CAPPED_NORM, "mollified", cfg, seed=11)


# -- sketch values ------------------------------------------------------------


def test_sketch_of_zero_is_zero():
    sketch, _, _ = parity_extraction()
    assert sketch_apply(sketch, (0, 0)) == (Fraction(0),)
    msketch, _, _ = mollified_extraction()
    assert sketch_apply(msketch, (0, 0)) == ()


def test_parity_odd_sum_hits_half_residue():
    sketch, _, _ = parity_extraction()
    assert sketch_apply(sketch, (1, 0)) == (Fraction(1, 2),)
    assert sketch_apply(sketch, (2, 1)) == (Fraction(1, 2),)
    assert sketch_apply(sketch, (1, 1)) == (Fraction(0),)


def test_additivity_over_random_pairs():
    # oracle: direct recomputation of the residue group law
    sketch, _, _ = parity_extraction()
    rng = np.random.default_rng(2024)
    pairs = rng.integers(-50, 51, size=(1000, 2, 2))
    for y1, y2 in pairs:
        total = sketch_apply(sketch, tuple(int(c) for c in y1 + y2))
        parts = sketch_value_add(
            sketch,
            sketch_apply(sketch, tuple(int(c) for c in y1)),
            sketch_apply(sketch, tuple(int(c) for c in y2)),
        )
        assert total == parts


def test_additivity_mollified_matrix():
    basis = NearOriginBasis(
        dimension=2, numerators=((3, -1), (0, 2)), denominator=8, radius_bound=0.0
    )
    sigma = StateSequence((0, 0, 0), (1.0, 1.0), 1.0, (), 0.125)
    sketch = ExtractedSketch(basis, sigma, TransferConfig(Q=8))
    rng = np.random.default_rng(7)
    pairs = rng.integers(-40, 41, size=(1000, 2, 2))
    for y1, y2 in pairs:
        total = sketch_apply(sketch, tuple(int(c) for c in y1 + y2))
        parts = sketch_value_add(
            sketch,
            sketch_apply(sketch, tuple(int(c) for c in y1)),
            sketch_apply(sketch, tuple(int(c) for c in y2)),
        )
        assert total == parts
    assert sketch_apply(sketch, (1, 1)) == (2, 2)


def test_sketch_validation():
    # the structure checks its own rows; the sketch checks the input length
    with pytest.raises(ValueError, match="bounded by Q/2"):
        NearOriginBasis(dimension=1, numerators=((5,),), denominator=8, radius_bound=0.0)
    with pytest.raises(ValueError, match="dimension"):
        NearOriginBasis(dimension=1, numerators=((1, 1),), denominator=8, radius_bound=0.0)
    sketch, _, _ = parity_extraction()
    with pytest.raises(ValueError, match="dimension mismatch"):
        sketch_apply(sketch, (1, 0, 0))


# -- parity scenario ----------------------------------------------------------


def test_parity_generator_and_relations():
    sketch, _, report = parity_extraction()
    lat = sketch.structure
    assert lat.denominators == (2,)
    assert lat.fiber_bound == 2
    # torus representative of (1/2, 1/2)
    for c in lat.generators[0]:
        assert min(abs(c - Fraction(1, 2)), abs(c + Fraction(1, 2))) <= Fraction(1, 2048)
    # the single relation 2 t = 0 closes exactly over the integers
    assert all((2 * c).denominator == 1 for c in lat.generators[0])


def test_parity_sigma_and_success():
    sketch, _, _ = parity_extraction()
    assert sketch.sigma.states == (0, 0, 0)
    assert abs(sketch.sigma.probability - 0.25) < 1e-9
    assert sketch.sigma.success_estimate == 1.0


def test_parity_decoder_matches_simulation():
    # oracle: majority output over replayed streams, independent of the
    # posterior pipeline
    sketch, decoder, _ = parity_extraction()
    alg = parity_algorithm(2)
    for y in sorted(TARGET4.atoms):
        outs = Counter()
        point = SparseMeasure.uniform([y])
        for s in range(50):
            smp = exact_stream_sample(point, 8.0, 2, seed=s)
            state = alg.initial_state
            for j, d in enumerate(smp.deltas):
                state = fold_block(alg, j, state, d)
            outs[alg.output(state)] += 1
        majority = outs.most_common(1)[0][0]
        assert decoder.decode(sketch_apply(sketch, y)) == majority
        assert majority == PARITY_PROBLEM.label(y)


def test_parity_evaluation_exact():
    sketch, decoder, _ = parity_extraction()
    res = evaluate_sketch(sketch, decoder, TARGET4, PARITY_PROBLEM)
    assert res.success == 1.0


def test_parity_controls_are_rigid():
    _, _, report = parity_extraction()
    controls = [r for kind, r in report.translation.records if kind == "control"]
    assert controls
    assert all(abs(r.actual_tv - 1.0) < 1e-6 for r in controls)


# -- mod-3 scenario -----------------------------------------------------------


def test_mod3_generator_and_fibers():
    sketch, decoder, _ = mod3_extraction()
    lat = sketch.structure
    assert lat.generators == ((Fraction(1, 3), Fraction(0)),)
    assert lat.denominators == (3,)
    assert lat.fiber_bound == 3
    assert sketch.sigma.states == (0, 0, 0)
    for y in sorted(MOD3_TARGET.atoms):
        assert decoder.decode(sketch_apply(sketch, y)) == MOD3_PROBLEM.label(y)


def test_evaluation_reads_the_total_mass_once(monkeypatch):
    # the total is an fsum over the whole target; read per point, the
    # evaluation grew with the square of the support
    sketch, decoder, _ = parity_extraction()
    target = SparseMeasure.uniform([(a, b) for a in range(6) for b in range(5)])
    reads = []
    total_mass = SparseMeasure.total_mass.fget

    def counted(mu):
        reads.append(mu)
        return total_mass(mu)

    monkeypatch.setattr(SparseMeasure, "total_mass", property(counted))
    res = evaluate_sketch(sketch, decoder, target, PARITY_PROBLEM)
    assert reads == [target]
    assert res.success == 1.0


def test_mod3_evaluation_exact():
    sketch, decoder, _ = mod3_extraction()
    res = evaluate_sketch(sketch, decoder, MOD3_TARGET, MOD3_PROBLEM)
    assert res.success == 1.0


# -- constant scenario --------------------------------------------------------


def test_constant_scenario_empty_sketch():
    sketch, decoder, _, target, problem = constant_extraction()
    assert sketch.structure.rank == 0
    assert sketch_apply(sketch, (5, -3)) == ()
    assert len(decoder.table) == 1
    res = evaluate_sketch(sketch, decoder, target, problem)
    assert res.success == 1.0


# -- adversarial scenario -----------------------------------------------------


def test_adversarial_base_rate_and_ceiling():
    # oracle: exhaustive fiber analysis gives the information ceiling
    sketch, decoder, _ = adversarial_extraction()
    assert sketch.sigma.success_estimate <= 0.75
    census = fiber_census(sketch, sorted(MOD3_TARGET.atoms))
    ceiling = 0.0
    for members in census.members.values():
        best = Counter(MOD3_PROBLEM.label(y) for y in members).most_common(1)[0][1]
        ceiling += best / len(MOD3_TARGET.atoms)
    assert ceiling == 0.5
    res = evaluate_sketch(sketch, decoder, MOD3_TARGET, MOD3_PROBLEM)
    assert res.success == 0.5
    assert res.success <= ceiling + 1e-9


def test_adversarial_conflicts_recorded_not_raised():
    _, decoder, _ = adversarial_extraction()
    assert len(decoder.conflicts) == 2
    for c in decoder.conflicts:
        assert set(c.labels) == {0, 1}
        assert c.tv < 0.45


# -- mollified route ----------------------------------------------------------


def test_mollified_smoothness_gate():
    parity_promise = ProblemSpec(
        kind="promise", target=lambda y: sum(y) % 2, outputs=(0, 1), delta=0.05
    )
    chk = verify_smoothness(parity_promise, TARGET4, 8.0, seed=1)
    assert not chk.passed
    assert chk.failure_rate > 0.3
    chk2 = verify_smoothness(CAPPED_NORM, TARGET4, 8.0, seed=1)
    assert chk2.passed
    assert chk2.failures == 0
    cfg = TransferConfig(radius=8.0, blocks=2, Q=8, label="reject-unit")
    with pytest.raises(SmoothnessError, match="not"):
        extract_sketch(parity_algorithm(2), TARGET4, parity_promise, "mollified", cfg, seed=11)


def test_mollified_dimension_and_entries():
    sketch, decoder, report = mollified_extraction()
    assert report.smoothness is not None and report.smoothness.passed
    assert sketch.structure.entry_bound <= sketch.structure.denominator == 8
    exact_sketch, _, _ = parity_extraction()
    # the smoothed route never needs more generators than the exact one
    assert sketch.structure.rank <= exact_sketch.structure.rank
    res = evaluate_sketch(sketch, decoder, TARGET4, CAPPED_NORM)
    assert res.success == 1.0
    # metric tolerance degrades 6x on the mollified route
    assert res.tolerance == 6.0 * CAPPED_NORM.epsilon


def test_exact_metric_tolerance_is_3x():
    sketch, decoder, report, target, _ = constant_extraction()
    metric_problem = ProblemSpec.metric_approximation(
        target=lambda y: 0.0,
        metric=lambda a, b: abs(a - b),
        outputs=(0,),
        epsilon=0.5,
    )
    res = evaluate_sketch(sketch, decoder, target, metric_problem)
    assert res.tolerance == 1.5


# -- decoder conflicts --------------------------------------------------------


def test_in_theorem_conflict_raises():
    target = from_atoms(2, {(1, 0): 0.9, (2, 1): 0.1})
    problem = ProblemSpec.promise(lambda y: 1 if y[0] == 1 else 0)
    cfg = TransferConfig(radius=8.0, blocks=2, label="conflict-unit")
    with pytest.raises(DecoderConflict) as err:
        extract_sketch(
            replace(constant_algorithm(2), output=lambda s: 1),
            target,
            problem,
            "exact",
            cfg,
            seed=2,
        )
    (conflict,) = err.value.conflicts
    assert conflict.members == ((1, 0), (2, 1))
    assert conflict.tv < 0.45


def test_selection_failure_propagates():
    # the identity box visits hundreds of states, so the cut derived from
    # the census keeps its sequences; a pinned cut rejects them all
    cfg = TransferConfig(radius=8.0, blocks=2, selection_threshold=0.125, label="identity-unit")
    with pytest.raises(SelectionFailed):
        extract_sketch(
            identity_box_algorithm(2, 40), TARGET4, PARITY_PROBLEM, "exact", cfg, seed=5
        )


def test_support_diameter_precondition():
    wide = SparseMeasure.uniform([(0, 0), (40, 0)])
    cfg = TransferConfig(radius=8.0, blocks=2, diameter=4, label="wide-unit")
    with pytest.raises(ValueError, match="diameter"):
        extract_sketch(parity_algorithm(2), wide, PARITY_PROBLEM, "exact", cfg, seed=0)


@pytest.mark.parametrize("route", ["exact", "mollified"])
def test_small_scan_grid_is_raised_to_cover_the_pieces(route, monkeypatch):
    # the sketch is the structure the certification built, exactly once;
    # on the same pieces a 2^6 grid is raised to 7, which finds that structure
    import sketchlab.translation as translation

    calls = Counter()

    def spy(name):
        inner = getattr(translation, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(translation, name, wrapped)

    spy("convolution_structure")
    spy("convolve_many_fft")
    if route == "exact":
        cfg = TransferConfig(radius=8.0, blocks=2, label="parity-unit")
        problem = PARITY_PROBLEM
    else:
        cfg = TransferConfig(radius=8.0, blocks=2, Q=8, label="mollified-unit")
        problem = CAPPED_NORM
    sketch, _, report = extract_sketch(
        parity_algorithm(2), TARGET4, problem, route, cfg, seed=11
    )
    assert calls == {"convolution_structure": 1, "convolve_many_fft": 1}
    assert sketch.structure is report.translation.structure
    small = StructureConfig(
        K=cfg.K, Q=cfg.Q, R=cfg.radius, q=cfg.q, B=cfg.B, kappa=cfg.kappa, grid_exponent=6
    )
    raised = translation_invariance_certify(
        sketch.sigma.laws, route, small, 3, max_kernel=64
    )
    assert "scan grid exponent raised to 7 to cover the pieces" in raised.warnings
    if route == "exact":
        assert raised.structure.generators == sketch.structure.generators
        assert sketch.structure.generators == ((Fraction(-1, 2), Fraction(-1, 2)),)
    else:
        assert raised.structure.numerators == sketch.structure.numerators
        assert sketch.structure.denominator == 8


def test_landing_law_is_the_certified_convolution():
    # oracle: the pieces convolved again, apart from the certification
    sketch, _, report = parity_extraction()
    nu = convolve_many_fft(list(sketch.sigma.laws))
    assert np.array_equal(report.translation.convolution.points, nu.points)
    assert np.array_equal(report.translation.convolution.masses, nu.masses)


# -- kernel-TV coupling -------------------------------------------------------


def per_fiber_decoder(alg, sketch, target, problem, seed, landing_law):
    """The decoder as it was built one fiber at a time with numpy's
    Generator: default_rng((seed, i)).choice(p=...) once per law for
    fiber i's landings, then integers(2**63) to seed its noise sampler on
    the mollified route, and one fold_block per landing."""
    fibers: dict = {}
    for y in map(tuple, target.points.tolist()):
        fibers.setdefault(sketch_apply(sketch, y), []).append(y)
    sigma, radius = sketch.sigma, sketch.provenance.radius
    policy = TruncationPolicy.for_gaussian(alg.dimension, radius)
    table, representative, conflicts = {}, {}, []
    for i, (value, members) in enumerate(fibers.items()):
        rng = np.random.default_rng((seed, i))
        rows = choice_resample_convolution(
            alg.dimension, sigma.laws, transfer.DECODER_LANDINGS, rng
        )
        deltas = np.asarray(members[0]) - rows
        if sketch.structure.route == "mollified":
            noise_seed = int(rng.integers(2**63))
            deltas = deltas + sample_truncated(
                radius, policy, noise_seed, count=transfer.DECODER_LANDINGS
            )
        outputs = [
            alg.output(fold_block(alg, sigma.block_count, sigma.states[-1], d))
            for d in deltas.tolist()
        ]
        table[value] = transfer._modal_output(outputs, problem, members[0])
        representative[value] = members[0]
        labels = [problem.label(y) for y in members] if problem.kind == "promise" else []
        if len({lab for lab in labels if lab != "*"}) > 1:
            tv = min(
                tv_distance(landing_law, tuple(a - b for a, b in zip(y1, y2)))
                for j, (y1, l1) in enumerate(zip(members, labels))
                for y2, l2 in zip(members[j + 1 :], labels[j + 1 :])
                if "*" not in (l1, l2) and l1 != l2
            )
            conflicts.append(
                transfer.FiberConflict(value, tuple(members), tuple(labels), tv)
            )
    default = problem.outputs[0] if problem.outputs else None
    return table, representative, default, tuple(conflicts)


def per_row_fold(alg, deltas, block_index, state, memo):
    """The decoder's landing folds as they were before the array fold."""
    return np.array(
        [fold_block(alg, block_index, state, tuple(int(c) for c in d)) for d in deltas],
        dtype=np.int64,
    )


@pytest.mark.parametrize(
    "extraction, alg, target, problem, seed",
    [
        (parity_extraction, parity_algorithm(2), TARGET4, PARITY_PROBLEM, 11),
        (mod3_extraction, mod3_algorithm(), MOD3_TARGET, MOD3_PROBLEM, 7),
        (adversarial_extraction, parity_algorithm(2), MOD3_TARGET, MOD3_PROBLEM, 5),
        (mollified_extraction, parity_algorithm(2), TARGET4, CAPPED_NORM, 11),
    ],
)
def test_decoder_table_matches_per_row_loop(
    extraction, alg, target, problem, seed, monkeypatch
):
    sketch, decoder, report = extraction()
    landing_law = report.translation.convolution

    def build():
        return _build_decoder(alg, sketch, target, problem, seed, landing_law)

    # the modal vote hides most fold errors, so the landing outputs it is
    # handed are compared too
    seen: list = []
    modal = transfer._modal_output

    def recording_modal(outputs, problem, y):
        seen.append(list(outputs))
        return modal(outputs, problem, y)

    def fields(d: FiberDecoder) -> tuple:
        return d.table, d.representative, d.default, d.conflicts

    monkeypatch.setattr(transfer, "_modal_output", recording_modal)
    # oracle: the per-fiber numpy draws, fibers in first-met order
    want = per_fiber_decoder(alg, sketch, target, problem, seed, landing_law)
    oracle_outputs, seen[:] = seen[:], []
    assert fields(decoder) == want and list(decoder.table) == list(want[0])
    if alg.name == "parity" and problem is MOD3_PROBLEM:
        assert decoder.conflicts  # the adversarial case exercises conflicts
    assert fields(build()) == fields(decoder)
    array_outputs, seen[:] = seen[:], []
    assert array_outputs == oracle_outputs
    monkeypatch.setattr(transfer, "fold_deltas", per_row_fold)
    assert fields(build()) == fields(decoder)
    assert seen == array_outputs


def test_extract_reads_the_laws_selection_certified(monkeypatch):
    # the laws are built once, in selection, and handed on with the sequence
    def rebuilt(*args, **kwargs):
        raise AssertionError("posterior_laws called during extraction")

    for module in (streaming, transfer):
        monkeypatch.setattr(module, "posterior_laws", rebuilt, raising=False)
    cfg = TransferConfig(radius=8.0, blocks=2, label="parity-unit")
    sketch, _, report = extract_sketch(
        parity_algorithm(2), TARGET4, PARITY_PROBLEM, "exact", cfg, seed=11
    )
    assert len(sketch.sigma.laws) == cfg.blocks
    assert all(a is b for a, b in zip(report.translation.pieces, sketch.sigma.laws))


def test_same_fiber_tv_matches_certificates():
    # oracle: landing-law TV recomputed from the posterior convolution
    sketch, _, report = parity_extraction()
    nu = convolve_many_fft(list(sketch.sigma.laws))
    record_tv = {r.direction: r.actual_tv for _, r in report.translation.records}
    supp = sorted(TARGET4.atoms)
    pairs_checked = 0
    for i, y1 in enumerate(supp):
        for y2 in supp[i + 1 :]:
            if sketch_apply(sketch, y1) != sketch_apply(sketch, y2):
                continue
            v = tuple(a - b for a, b in zip(y1, y2))
            rec = record_tv.get(v, record_tv.get(tuple(-c for c in v)))
            assert rec is not None
            assert abs(tv_distance(nu, v) - rec) <= 1e-9
            pairs_checked += 1
    assert pairs_checked == 2


def test_promise_labels_agree_on_overlapping_fibers():
    # wherever the landing laws overlap, the promised bits must align
    for extraction in (parity_extraction(), mod3_extraction()):
        _, decoder, _ = extraction
        assert decoder.conflicts == ()


# -- census -------------------------------------------------------------------


def test_census_singleton_domain():
    sketch, _, _ = parity_extraction()
    census = fiber_census(sketch, [(0, 0)])
    assert census.count == 1
    assert census.count <= census.bound


def test_census_grid_splits_by_parity():
    sketch, _, _ = parity_extraction()
    grid = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    census = fiber_census(sketch, grid)
    assert census.count == 2
    assert census.bound == 2
    for value, members in census.members.items():
        assert len({sum(y) % 2 for y in members}) == 1


def test_census_respects_bound_on_scenarios():
    for extraction in (parity_extraction(), mod3_extraction()):
        sketch, _, _ = extraction
        grid = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        census = fiber_census(sketch, grid)
        assert census.count <= census.bound


# -- evaluation edge cases ----------------------------------------------------


def test_uncovered_fiber_errors():
    even = SparseMeasure.uniform([(0, 0), (1, 1)])
    cfg = TransferConfig(radius=8.0, blocks=2, label="even-unit")
    problem = ProblemSpec.promise(lambda y: 0)
    sketch, decoder, _ = extract_sketch(parity_algorithm(2), even, problem, "exact", cfg, seed=11)
    with pytest.raises(UncoveredFiber, match="no decoder entry"):
        evaluate_sketch(sketch, decoder, SparseMeasure.uniform([(1, 0)]), problem)


# -- serialization ------------------------------------------------------------


def test_report_roundtrip_exact():
    sketch, decoder, report = parity_extraction()
    text = extraction_to_text(sketch, decoder, report)
    assert text.startswith("sketch-report v3\n")
    parsed, dec2 = extraction_from_text(text)
    assert parsed.sigma == sketch.sigma
    # a parsed sequence carries no laws, as a parsed lattice no certificate
    assert parsed.sigma.laws == () and len(sketch.sigma.laws) == 2
    assert parsed.provenance == sketch.provenance
    # the provenance records the cut selection derived, and a parsed
    # sequence reads it back
    assert sketch.provenance.selection_threshold == sketch.sigma.threshold == 0.5 * 2.0**-2
    assert parsed.sigma.threshold == parsed.provenance.selection_threshold
    assert parsed.sigma.probability == sketch.sigma.probability
    lat, lat2 = sketch.structure, parsed.structure
    assert lat2.route == "exact"
    assert lat2.generators == lat.generators
    assert lat2.denominators == lat.denominators
    assert lat2.relations == lat.relations
    assert lat2.s_certified == lat.s_certified
    assert dec2.table == decoder.table
    assert dec2.representative == decoder.representative
    assert dec2.default == decoder.default
    for y in sorted(TARGET4.atoms):
        assert sketch_apply(parsed, y) == sketch_apply(sketch, y)


def test_report_roundtrip_lattice_block():
    # lattices of rank 0, rank 2 with a relation, and the parity and mod-3
    # extractions' own, written into the parity report in place of its own
    sketch, decoder, report = parity_extraction()
    chained = SketchLattice(
        dimension=2,
        generators=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 4))),
        denominators=(2, 2),
        relations=((), (1,)),
        span_error=1.0 / 3.0,
        s_certified=2.0,
    )
    empty = SketchLattice(
        dimension=2,
        generators=(),
        denominators=(),
        relations=(),
        span_error=0.0,
        s_certified=0.5,
    )
    for lat in (chained, empty, sketch.structure, mod3_extraction()[0].structure):
        text = extraction_to_text(replace(sketch, structure=lat), decoder, report)
        back = extraction_from_text(text)[0].structure
        assert back.generators == lat.generators
        assert back.denominators == lat.denominators
        assert back.relations == lat.relations
        assert back.fiber_bound == lat.fiber_bound
        assert back.span_error == lat.span_error
        assert back.s_certified == lat.s_certified
        assert back.kappa == 0.0


def test_report_roundtrip_mollified():
    sketch, decoder, report = mollified_extraction()
    text = extraction_to_text(sketch, decoder, report)
    parsed, dec2 = extraction_from_text(text)
    assert parsed.structure.route == "mollified"
    assert parsed.structure.numerators == sketch.structure.numerators
    assert parsed.structure.denominator == sketch.structure.denominator
    assert parsed.structure.radius_bound == 0.0
    assert parsed.sigma == sketch.sigma
    assert parsed.provenance == sketch.provenance
    assert parsed.sigma.threshold == parsed.provenance.selection_threshold
    assert dec2.table == decoder.table


def test_report_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        extraction_from_text("not a report\n")
    with pytest.raises(ValueError, match="version"):
        extraction_from_text("sketch-report v99\n")
    # v1 reports carry `cfg refine`, and v2 reports `cfg samples`, which
    # TransferConfig no longer has
    with pytest.raises(ValueError, match="unsupported report version"):
        extraction_from_text("sketch-report v1\nlabel parity\ncfg refine True\n")
    with pytest.raises(ValueError, match="unsupported report version"):
        extraction_from_text("sketch-report v2\nlabel parity\ncfg samples 512\n")
