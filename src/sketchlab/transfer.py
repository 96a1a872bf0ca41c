"""End-to-end reduction from a turnstile algorithm to a linear sketch.

Pipeline: pick a boundary-state sequence, condition the block laws on
it, extract the frequency structure of their convolution (exact chains
or the near-origin basis), read the sketch off the structure, and build
a fiberwise decoder from simulated landing blocks.  Every extraction
carries the translation-invariance certificates for the shifts that the
sketch cannot see.
"""

import ast
import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dgauss import (
    TruncationPolicy,
    choice_indices,
    pcg64_raw,
    pcg64_uniforms,
    sample_truncated,
    sample_truncated_many,
)
# convolve_many_fft is unused here, but benchmark/test_benchmark.py checks
# that its tracer patches the transfer.convolve_many_fft alias
from .measure import SparseMeasure, convolve_many_fft, gamma_truncated  # noqa: F401
from .spectrum import NearOriginBasis, SketchLattice, StructureConfig
from .streaming import (
    ProblemSpec,
    StateSequence,
    TurnstileAlgorithm,
    _convolution_rows,
    fold_deltas,
    select_state_sequence,
)
from .translation import (
    TranslationReport,
    translation_invariance_certify,
    tv_distance,
)

__all__ = [
    "DecoderConflict",
    "EvaluationResult",
    "ExtractedSketch",
    "ExtractionReport",
    "FiberCensus",
    "FiberConflict",
    "FiberDecoder",
    "SketchExtractionError",
    "SmoothnessCheck",
    "SmoothnessError",
    "TransferConfig",
    "UncoveredFiber",
    "evaluate_sketch",
    "extract_sketch",
    "extraction_from_text",
    "extraction_to_text",
    "fiber_census",
    "sketch_apply",
    "verify_smoothness",
]

REPORT_VERSION = 3

# census size of the state-sequence selection, simulated landings per
# decoder fiber, and trials of the smoothness check
SAMPLES = 512
DECODER_LANDINGS = 256
SMOOTHNESS_TRIALS = 2048

# the proof only forces same-fiber labels to agree when the algorithm
# actually succeeds on the fiber; this is the success level it uses
AGREEMENT_SUCCESS_FLOOR = 0.75


class SketchExtractionError(RuntimeError):
    pass


class SmoothnessError(SketchExtractionError):
    pass


class UncoveredFiber(SketchExtractionError):
    pass


@dataclass(frozen=True)
class TransferConfig:
    """Knobs for one extraction run.

    radius/blocks parameterize the stream model, diameter caps the
    support spread of the target distribution (and the shift-kernel
    enumeration), and K/Q/q/kappa/B with the radius make the
    StructureConfig of the certification.  Q doubles as the near-origin
    denominator on the mollified route.
    """

    radius: float = 8.0
    blocks: int = 8
    diameter: int = 4
    K: float = 512.0
    Q: int = 2048
    q: int = 3
    kappa: float | None = 0.25
    B: float = 2.0
    selection_threshold: float | None = None
    tv_margin: float = 0.05
    label: str = "scenario"

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.blocks < 1:
            raise ValueError("need at least one conditioning block")
        if self.diameter < 1:
            raise ValueError("diameter must be positive")


@dataclass(frozen=True)
class ExtractedSketch:
    """Linear sketch read off the conditioned block structure: the
    structure the translation certification certified, the state
    sequence it was conditioned on, and the config of the run with the
    selection cut the sequence cleared.

    Exact route: a SketchLattice; the sketch value of y is the tuple of
    residues <t_j, y> mod 1, and the image has at most prod k_j fibers.
    Mollified route: a NearOriginBasis; the sketch value is the exact
    integer product with its numerator rows.
    """

    structure: SketchLattice | NearOriginBasis
    sigma: StateSequence
    provenance: TransferConfig

    # The benchmark gates read these three off a parsed sketch file; the
    # exact route has no matrix, so its denominator and entry bound are 0.
    @property
    def exact_lattice(self) -> SketchLattice | None:
        return self.structure if self.structure.route == "exact" else None

    @property
    def denominator(self) -> int:
        return getattr(self.structure, "denominator", 0)

    @property
    def entry_bound(self) -> int:
        return getattr(self.structure, "entry_bound", 0)


def sketch_apply(
    sketch: ExtractedSketch, y: Sequence[int]
) -> tuple[Fraction, ...] | tuple[int, ...]:
    """Exact sketch value of an integer vector."""
    if len(y) != sketch.structure.dimension:
        raise ValueError("vector dimension mismatch")
    return sketch.structure.value([int(c) for c in y])


# -- smoothness ---------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCheck:
    """Empirical test that noise barely moves the problem's answers.

    failure_rate carries the truncation deficit of the noise sampler on
    the failure side, so passing is conservative.
    """

    epsilon: float
    delta: float
    trials: int
    failures: int
    deficit: float
    failure_rate: float
    stderr: float
    passed: bool


def _answers_compatible(problem: ProblemSpec, y: tuple, shifted: tuple) -> bool:
    if problem.kind == "metric-approximation":
        return problem.metric(problem.target(shifted), problem.target(y)) <= problem.epsilon
    a, b = problem.label(y), problem.label(shifted)
    return a == "*" or b == "*" or a == b


def verify_smoothness(
    problem: ProblemSpec,
    target: SparseMeasure,
    radius: float,
    seed: int,
) -> SmoothnessCheck:
    """Estimate Pr[answers of Y and Y+Z are compatible] for Z ~ gamma noise,
    over SMOOTHNESS_TRIALS draws.

    The seed's stream is read as default_rng(seed) would be by
    choice(size=SMOOTHNESS_TRIALS, p=...) for the Y draws, then
    integers(2**63) for the seed of the noise sampler: the first trials
    uniforms, and the next raw draw's top 63 bits."""
    trials = SMOOTHNESS_TRIALS
    n = target.dimension
    pol = TruncationPolicy.for_gaussian(n, radius)
    deficit = gamma_truncated(n, radius).deficit
    uniforms = pcg64_uniforms([seed], trials)[0]
    idx = choice_indices(target.masses / target.total_mass, uniforms)
    noise_seed = int(pcg64_raw([seed], 1, trials)[0, 0] >> 1)
    noise = sample_truncated(radius, pol, noise_seed, count=trials)
    failures = 0
    for i in range(trials):
        y = tuple(int(c) for c in target.points[idx[i]])
        shifted = tuple(a + int(b) for a, b in zip(y, noise[i]))
        failures += not _answers_compatible(problem, y, shifted)
    rate = failures / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)
    failure_rate = rate + deficit
    return SmoothnessCheck(
        epsilon=problem.epsilon,
        delta=problem.delta,
        trials=trials,
        failures=failures,
        deficit=deficit,
        failure_rate=failure_rate,
        stderr=stderr,
        passed=failure_rate <= problem.delta + 2.0 * stderr,
    )


# -- decoding -----------------------------------------------------------------


@dataclass(frozen=True)
class FiberConflict:
    """Same fiber, different promised bits; tv is the smallest landing-law
    distance among the disagreeing pairs."""

    value: tuple
    members: tuple[tuple[int, ...], ...]
    labels: tuple
    tv: float


@dataclass(frozen=True, eq=False)
class FiberDecoder:
    """Output table keyed by sketch value.

    Fibers never met during the build decode to `default`; `covers`
    distinguishes the two cases so evaluation can refuse to guess.
    """

    table: dict
    representative: dict
    default: object
    conflicts: tuple[FiberConflict, ...] = ()

    def covers(self, value: tuple) -> bool:
        return value in self.table

    def decode(self, value: tuple) -> object:
        return self.table.get(value, self.default)


class DecoderConflict(SketchExtractionError):
    def __init__(self, conflicts: Sequence[FiberConflict], success: float) -> None:
        worst = min(c.tv for c in conflicts)
        super().__init__(
            f"{len(conflicts)} fiber(s) carry conflicting promised bits at "
            f"landing tv {worst:.4f} despite success {success:.3f}"
        )
        self.conflicts = tuple(conflicts)


def _modal_output(outputs: list, problem: ProblemSpec, y: tuple) -> object:
    valid = [o for o in outputs if problem.valid(y, o)]
    pool = valid if valid else outputs
    counts = Counter(pool)
    return min(counts, key=lambda o: (-counts[o], repr(o)))


def _build_decoder(
    alg: TurnstileAlgorithm,
    sketch: ExtractedSketch,
    target: SparseMeasure,
    problem: ProblemSpec,
    seed: int,
    landing_law: SparseMeasure,
) -> FiberDecoder:
    """Fiber i lands its first member minus draws of the conditioned laws'
    convolution from the entropy (seed, i), plus, on the mollified route,
    noise seeded by that stream's next draw; all fibers draw in one window
    and fold in one call."""
    fibers: dict[tuple, list[tuple[int, ...]]] = {}
    for y in map(tuple, target.points.tolist()):
        fibers.setdefault(sketch_apply(sketch, y), []).append(y)
    n, sigma = sketch.structure.dimension, sketch.sigma
    entropies = [(seed, i) for i in range(len(fibers))]
    draws = len(sigma.laws) * DECODER_LANDINGS
    uniforms = pcg64_uniforms(entropies, draws)
    uniforms = uniforms.reshape(len(fibers), len(sigma.laws), DECODER_LANDINGS)
    reps = np.array([members[0] for members in fibers.values()], dtype=np.int64)
    deltas = reps[:, None, :] - _convolution_rows(n, sigma.laws, uniforms)
    if sketch.structure.route == "mollified":
        radius = sketch.provenance.radius
        policy = TruncationPolicy.for_gaussian(n, radius)
        noise_seeds = (pcg64_raw(entropies, 1, draws)[:, 0] >> 1).astype(np.int64)
        deltas += sample_truncated_many(radius, policy, noise_seeds, DECODER_LANDINGS)
    ends = fold_deltas(alg, deltas.reshape(-1, n), sigma.block_count, sigma.states[-1], {})
    ends = ends.reshape(len(fibers), DECODER_LANDINGS)
    table: dict = {}
    representative: dict = {}
    conflicts: list[FiberConflict] = []
    for (value, members), row in zip(fibers.items(), ends.tolist()):
        y_rep = members[0]
        table[value] = _modal_output([alg.output(s) for s in row], problem, y_rep)
        representative[value] = y_rep
        if problem.kind == "promise":
            labeled = [(y, problem.label(y)) for y in members]
            bits = {lab for _, lab in labeled if lab != "*"}
            if len(bits) > 1:
                worst = min(
                    tv_distance(landing_law, tuple(a - b for a, b in zip(y1, y2)))
                    for i, (y1, l1) in enumerate(labeled)
                    for y2, l2 in labeled[i + 1 :]
                    if "*" not in (l1, l2) and l1 != l2
                )
                conflicts.append(
                    FiberConflict(
                        value=value,
                        members=tuple(members),
                        labels=tuple(lab for _, lab in labeled),
                        tv=worst,
                    )
                )
    default = problem.outputs[0] if problem.outputs else None
    return FiberDecoder(
        table=table,
        representative=representative,
        default=default,
        conflicts=tuple(conflicts),
    )


# -- extraction ---------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionReport:
    """What a run measured beyond the sketch and its decoder: the
    smoothness check (mollified route only) and the translation
    certificates."""

    smoothness: SmoothnessCheck | None
    translation: TranslationReport

    @property
    def warnings(self) -> tuple[str, ...]:
        """The distinct warnings of the certification, in first-seen order."""
        return tuple(dict.fromkeys(self.translation.warnings))


def _support_diameter(target: SparseMeasure) -> float:
    pts = target.points
    if len(pts) < 2:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=2)).max())


def extract_sketch(
    alg: TurnstileAlgorithm,
    target: SparseMeasure,
    problem: ProblemSpec,
    route: str,
    cfg: TransferConfig,
    seed: int,
) -> tuple[ExtractedSketch, FiberDecoder, ExtractionReport]:
    """Run the full reduction for one algorithm on one input distribution.

    The laws are the ones selection certified, the sketch is the frequency
    structure that the translation certification extracts and certifies,
    and the decoder's landing law is the convolution it measured, so
    each is built once per run.
    Selection failures, certified-bound violations, failed smoothness
    checks, and in-theorem decoder conflicts all raise; the conflict
    gate only fires when the landing laws overlap (tv below 1/2 minus
    the margin) and the selected sequence actually succeeds, which is
    the regime where the reduction forces the labels to agree.
    """
    if route not in ("exact", "mollified"):
        raise ValueError(f"unknown route {route!r}")
    if target.dimension != alg.dimension:
        raise ValueError("target dimension mismatch")
    diameter = _support_diameter(target)
    if diameter > cfg.diameter:
        raise ValueError(
            f"target support diameter {diameter:.3f} exceeds the declared {cfg.diameter}"
        )
    smoothness = None
    if route == "mollified":
        smoothness = verify_smoothness(problem, target, cfg.radius, seed)
        if not smoothness.passed:
            raise SmoothnessError(
                f"problem is not ({smoothness.epsilon}, {smoothness.delta})-smooth: "
                f"failure rate {smoothness.failure_rate:.4f} over "
                f"{smoothness.trials} trials"
            )
    sigma = select_state_sequence(
        alg,
        target,
        problem,
        cfg.radius,
        cfg.blocks,
        SAMPLES,
        seed,
        threshold=cfg.selection_threshold,
    )
    structure_cfg = StructureConfig(
        K=cfg.K, Q=cfg.Q, R=cfg.radius, q=cfg.q, B=cfg.B, kappa=cfg.kappa
    )
    translation = translation_invariance_certify(
        sigma.laws,
        route,
        structure_cfg,
        max(1, math.ceil(diameter)),
        max_kernel=64,
    )
    provenance = replace(cfg, selection_threshold=sigma.threshold)
    sketch = ExtractedSketch(translation.structure, sigma, provenance)
    decoder = _build_decoder(alg, sketch, target, problem, seed, translation.convolution)
    hard = [
        c
        for c in decoder.conflicts
        if c.tv < 0.5 - cfg.tv_margin
        and sigma.success_estimate >= AGREEMENT_SUCCESS_FLOOR
    ]
    if hard:
        raise DecoderConflict(hard, sigma.success_estimate)
    return sketch, decoder, ExtractionReport(smoothness, translation)


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationResult:
    success: float
    tolerance: float | None


def _make_checker(sketch: ExtractedSketch, problem: ProblemSpec):
    if problem.kind == "metric-approximation":
        # the reduction degrades the tolerance: 3x exact, 6x mollified
        factor = 3.0 if sketch.structure.route == "exact" else 6.0
        tol = factor * problem.epsilon
        return tol, lambda y, o: problem.metric(o, problem.target(y)) <= tol
    return None, problem.valid


def _decode_point(
    sketch: ExtractedSketch, decoder: FiberDecoder, y: tuple[int, ...]
) -> object:
    value = sketch_apply(sketch, y)
    if not decoder.covers(value):
        raise UncoveredFiber(f"input {y} lands in fiber {value} with no decoder entry")
    return decoder.decode(value)


def evaluate_sketch(
    sketch: ExtractedSketch,
    decoder: FiberDecoder,
    target: SparseMeasure,
    problem: ProblemSpec,
) -> EvaluationResult:
    """Success probability of decode(sketch(Y)) against the problem.

    The exact expectation over the support of the target; metric
    problems are scored at the degraded tolerance of the route.
    """
    tol, check = _make_checker(sketch, problem)
    total = target.total_mass
    good = math.fsum(
        mass / total
        for y, mass in zip(map(tuple, target.points.tolist()), target.masses.tolist())
        if check(y, _decode_point(sketch, decoder, y))
    )
    return EvaluationResult(success=good, tolerance=tol)


@dataclass(frozen=True, eq=False)
class FiberCensus:
    members: dict
    count: int
    bound: int | None


def fiber_census(sketch: ExtractedSketch, domain: Sequence[Sequence[int]]) -> FiberCensus:
    """Group a finite domain by sketch value."""
    members: dict = {}
    for y in domain:
        yy = tuple(int(c) for c in y)
        members.setdefault(sketch_apply(sketch, yy), []).append(yy)
    members = {v: tuple(ys) for v, ys in members.items()}
    return FiberCensus(
        members=members, count=len(members), bound=sketch.structure.fiber_bound
    )


# -- serialization ------------------------------------------------------------


def _value_str(value: tuple) -> str:
    if not value:
        return "-"
    return ",".join(str(c) for c in value)


def _value_parse(text: str, route: str) -> tuple:
    if text == "-":
        return ()
    parts = text.split(",")
    if route == "exact":
        return tuple(Fraction(p) for p in parts)
    return tuple(int(p) for p in parts)


def extraction_to_text(
    sketch: ExtractedSketch, decoder: FiberDecoder, report: ExtractionReport
) -> str:
    """One-file report: sketch, decoder, and certificates, versioned."""
    structure, cfg, sig = sketch.structure, sketch.provenance, sketch.sigma
    lines = [f"sketch-report v{REPORT_VERSION}"]
    lines.append(f"label {cfg.label}")
    lines.append(f"route {structure.route}")
    lines.append(f"n {structure.dimension}")
    for f in fields(TransferConfig):
        lines.append(f"cfg {f.name} {getattr(cfg, f.name)!r}")
    lines.append("sigma " + " ".join(str(s) for s in sig.states))
    lines.append(f"sigma_probability {sig.probability:.17g}")
    lines.append(
        "sigma_densities " + " ".join(f"{b:.17g}" for b in sig.per_block_densities)
    )
    lines.append(f"sigma_success {sig.success_estimate:.17g}")
    if structure.route == "exact":
        entry_bound = None
        lines.append("begin lattice")
        lines.append(
            f"m={structure.rank} n={structure.dimension} "
            f"span_error={structure.span_error:.17g}"
        )
        for t in structure.generators:
            lines.append(" ".join(str(c) for c in t))
        lines.append("k " + " ".join(str(k) for k in structure.denominators))
        for rel in structure.relations:
            lines.append("rel" + ("" if not rel else " " + " ".join(map(str, rel))))
        lines.append("end lattice")
        lines.append(f"lattice_s_certified {structure.s_certified:.17g}")
    else:
        entry_bound = structure.entry_bound
        lines.append(f"matrix_denominator {structure.denominator}")
        for row in structure.numerators:
            lines.append("matrix_row " + " ".join(str(c) for c in row))
    lines.append(f"default {decoder.default!r}")
    for value in decoder.table:
        rep = decoder.representative[value]
        lines.append(
            f"fiber {_value_str(value)} rep "
            + " ".join(str(c) for c in rep)
            + f" out {decoder.table[value]!r}"
        )
    lines.append(f"# rank {structure.rank}")
    lines.append(f"# fiber_bound {structure.fiber_bound}")
    lines.append(f"# entry_bound {entry_bound}")
    lines.append(f"# fibers_met {len(decoder.table)}")
    if report.smoothness is not None:
        sm = report.smoothness
        lines.append(
            f"# smoothness eps={sm.epsilon:.6g} delta={sm.delta:.6g} "
            f"failure_rate={sm.failure_rate:.6g} passed={sm.passed}"
        )
    for kind, rec in report.translation.records:
        lines.append(
            f"# shift {kind} v={','.join(str(c) for c in rec.direction)} "
            f"tv={rec.actual_tv:.9g} bound={rec.bound:.9g} passed={rec.passed}"
        )
    for c in decoder.conflicts:
        lines.append(
            f"# conflict fiber={_value_str(c.value)} labels={c.labels!r} tv={c.tv:.6g}"
        )
    for w in report.warnings:
        lines.append(f"# warning {w}")
    return "\n".join(lines) + "\n"


def extraction_from_text(text: str) -> tuple[ExtractedSketch, FiberDecoder]:
    """Rebuild the functional core (sketch and decoder) from a report.

    The parsed structure carries no certificate: the basis gets radius
    bound 0 and the lattice kappa 0, and the sequence carries no laws.
    The sequence's threshold is the recorded `selection_threshold`; its
    probability is the product of the densities, so the
    `sigma_probability` line is not read.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("sketch-report v"):
        raise ValueError("missing report header")
    if int(lines[0].split("v")[-1]) != REPORT_VERSION:
        raise ValueError("unsupported report version")
    head: dict[str, str] = {}
    cfg_kwargs: dict = {}
    lattice_rows: list[str] = []
    matrix: list[tuple[int, ...]] = []
    fibers: list[str] = []
    it = iter(lines[1:])
    for line in it:
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "cfg":
            name, _, value = rest.partition(" ")
            cfg_kwargs[name] = ast.literal_eval(value)
        elif key == "begin":
            lattice_rows = list(itertools.takewhile(lambda r: r != "end lattice", it))
        elif key == "matrix_row":
            matrix.append(tuple(int(c) for c in rest.split()))
        elif key == "fiber":
            fibers.append(rest)
        else:
            head[key] = rest
    route, n = head["route"], int(head["n"])
    if route == "exact":
        if not lattice_rows:
            raise ValueError("exact report carries no lattice block")
        block = dict(kv.split("=", 1) for kv in lattice_rows[0].split())
        m = int(block["m"])
        ks = tuple(int(c) for c in lattice_rows[1 + m].split()[1:])
        structure = SketchLattice(
            dimension=n,
            generators=tuple(
                tuple(Fraction(c) for c in row.split()) for row in lattice_rows[1 : 1 + m]
            ),
            denominators=ks,
            relations=tuple(
                tuple(int(c) for c in row.split()[1:]) for row in lattice_rows[2 + m :]
            ),
            span_error=float(block["span_error"]),
            s_certified=float(head["lattice_s_certified"]),
        )
    else:
        structure = NearOriginBasis(
            dimension=n,
            numerators=tuple(matrix),
            denominator=int(head["matrix_denominator"]),
            radius_bound=0.0,
        )
    sigma = StateSequence(
        tuple(int(s) for s in head["sigma"].split()),
        tuple(float(b) for b in head["sigma_densities"].split()),
        float(head["sigma_success"]),
        laws=(),
        threshold=cfg_kwargs["selection_threshold"],
    )
    table: dict = {}
    representative: dict = {}
    for rest in fibers:
        head_text, _, out_repr = rest.partition(" out ")
        value_text, _, rep_text = head_text.partition(" rep ")
        value = _value_parse(value_text, route)
        representative[value] = tuple(int(c) for c in rep_text.split())
        table[value] = ast.literal_eval(out_repr)
    sketch = ExtractedSketch(structure, sigma, TransferConfig(**cfg_kwargs))
    return sketch, FiberDecoder(
        table=table, representative=representative, default=ast.literal_eval(head["default"])
    )
