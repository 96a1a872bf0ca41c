"""Config-driven experiment runner.

Five verbs.  `verify-lemmas` replays the inequality suite and writes one
row per check; `extract` runs the full reduction on a named scenario and
writes the sketch report next to a one-row summary; `tv-sweep` certifies
shift invariance across a radius sweep with a per-shift trend column;
`smallball` estimates lattice small-ball probabilities against the
certified bound; `report` documents the table schemas.  Every table is
written as canonical CSV (the timestamp stays in the leading comment
line) plus a JSON mirror with no timestamp at all, and rows are sorted
before writing, so rerunning a verb with the same config and seed
reproduces the files byte for byte below the header.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dgauss import (
    exact_sum,
    gamma_conv_domination_check,
    poisson_identity_check,
)
from .measure import (
    SparseMeasure,
    _covering_exponent,
    density_certificate,
    fourier_many,
    gamma_truncated,
    large_spectrum_scan,
)
from .spectrum import (
    GRID_EXPONENT,
    SmallBallCheck,
    StructureConfig,
    chain_length_cap,
    coarse_rudin_check,
    greedy_dissociated_subset,
    small_ball_check,
    small_ball_exact_1d,
)
from .streaming import (
    ProblemSpec,
    SelectionFailed,
    TurnstileAlgorithm,
    constant_algorithm,
    mod_counter_algorithm,
    parity_algorithm,
    select_state_sequence,
)
from .transfer import (
    SAMPLES,
    SketchExtractionError,
    TransferConfig,
    _support_diameter,
    evaluate_sketch,
    extract_sketch,
    extraction_to_text,
)
from .translation import (
    MAX_KERNEL_RADIUS,
    TranslationReport,
    convolution_tail_center,
    line_decomposition,
    translation_invariance_certify,
)

# the heavy-frequency scan cannot resolve dissociation below two grid cells
KAPPA_FLOOR = 2.0 ** (1 - GRID_EXPONENT)
DECAY_GRID = 4096
DECAY_SLACK = 1e-9
POISSON_TOLERANCE = 1e-8
SMALLBALL_TRIALS = 1_000_000
PARSEVAL_TOLERANCE = 1e-6


class ConfigError(ValueError):
    """Consolidated report of every configuration window violation."""


class UsageError(ValueError):
    """Bad invocation: unknown scenario, missing input, malformed flag."""


# -- experiment configuration ----------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative description of a run; no interactive state.

    `sweep` is the optional radius list for sweep-shaped verbs; commands
    that want a single radius fall back to R when it is empty.
    """

    n: int = 2
    R: float = 8.0
    sweep: tuple[float, ...] = ()
    M: int = 8
    K: float = 512.0
    Q: int = 2048
    q: int = 3
    kappa: float | None = 0.25
    B: float = 2.0
    D: int = 4
    epsilon: float = 0.0
    delta: float = 0.05
    tail_mass_target: float = 1e-3
    selection_threshold: float | None = None
    tv_margin: float = 0.05
    seed: int = 0
    scenario: str = "parity"
    route: str = "exact"

    def __post_init__(self) -> None:
        problems = self._window_violations()
        if problems:
            lines = "\n".join(f"  - {p}" for p in problems)
            raise ConfigError(
                f"{len(problems)} configuration window violation(s):\n{lines}"
            )

    def _window_violations(self) -> list[str]:
        out: list[str] = []
        # NaN fails every comparison below, so finiteness is checked first
        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                out.append(f"{key} must be finite, got {value}")
        for r in self.sweep:
            if not math.isfinite(r):
                out.append(f"sweep radii must be finite, got {r}")
        if self.n < 1:
            out.append("n must be at least 1")
        if self.R <= 0:
            out.append("R must be positive")
        if any(r <= 0 for r in self.sweep):
            out.append("sweep radii must be positive")
        for r in sorted({r for r in self.sweep if self.sweep.count(r) > 1}):
            out.append(f"sweep radius {r:g} is listed more than once")
        if self.M < 1:
            out.append("M must be at least 1")
        if self.K < 8:
            out.append(
                f"K = {self.K:g} must be at least 8: the product structure "
                f"is scanned at K/4 = {self.K / 4:g}, below the scan floor 2"
            )
        if self.Q < 1:
            out.append("Q must be at least 1")
        if self.q < 1:
            out.append("q must be at least 1")
        elif self.route == "exact" and not 3 <= self.q <= self.K / 4:
            # the product structure is extracted at threshold K/4, and a
            # chain step needs 3 <= q <= K there
            out.append(
                f"q = {self.q} must lie in [3, K/4 = {self.K / 4:g}] on the exact route"
            )
        elif self.route == "exact" and math.isfinite(self.K):
            # Case 2 rounds generators to the 1/Q grid; below q^r* that grid
            # is coarser than a Case 1 denominator
            r_star = chain_length_cap(self.K / 4, self.q)
            if self.Q < self.q**r_star:
                out.append(
                    f"Q = {self.Q} must be at least q^r* = {self.q}^{r_star} = "
                    f"{self.q**r_star} on the exact route (q = {self.q}, "
                    f"r* = {r_star} at K/4 = {self.K / 4:g})"
                )
        if self.B < 1:
            out.append("B must be at least 1")
        if self.D < 1:
            out.append("D must be at least 1")
        if self.kappa is not None:
            if self.kappa <= 0:
                out.append("kappa must be positive when set")
            elif self.kappa < KAPPA_FLOOR:
                out.append(
                    f"kappa {self.kappa:g} is below the scan resolution floor "
                    f"{KAPPA_FLOOR:g} (two cells of the 2^{GRID_EXPONENT} grid)"
                )
            elif self.kappa > 0.5:
                out.append("kappa cannot exceed 1/2, the torus distance ceiling")
        if self.epsilon < 0:
            out.append("epsilon must be nonnegative")
        if not 0 <= self.delta < 1:
            out.append("delta must lie in [0, 1)")
        if not 0 < self.tail_mass_target < 0.5:
            out.append("tail_mass_target must lie in (0, 1/2)")
        if self.selection_threshold is not None and not (
            0 < self.selection_threshold <= 1
        ):
            out.append("selection_threshold must lie in (0, 1]")
        if not 0 <= self.tv_margin < 0.5:
            out.append("tv_margin must lie in [0, 1/2)")
        if self.seed < 0:
            out.append("seed must be nonnegative")
        if self.route not in ("exact", "mollified"):
            out.append(f"unknown route {self.route!r}")
        return out


def _parse_optional(raw: str) -> float | None:
    if raw.lower() in ("none", ""):
        return None
    return float(raw)


def _parse_sweep(raw: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("sweep list is empty; give at least one radius")
    return tuple(float(p) for p in parts)


# each config key is parsed by its ExperimentConfig annotation
_TYPE_PARSERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "float | None": _parse_optional,
    "tuple[float, ...]": _parse_sweep,
    "str": str,
}
_FIELD_PARSERS = {
    f.name: _TYPE_PARSERS[f.type] for f in dataclasses.fields(ExperimentConfig)
}
_FLOAT_KEYS = tuple(
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.type in ("float", "float | None")
)


def parse_config_text(text: str) -> dict[str, object]:
    """key = value lines; [section] headers and #/; comments are cosmetic."""
    values: dict[str, object] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            values[key] = parser(val.strip())
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
    if errors:
        lines = "\n".join(f"  - {e}" for e in errors)
        raise ConfigError(f"{len(errors)} config file problem(s):\n{lines}")
    return values


def load_config(
    path: str | Path | None,
    seed: int | None = None,
    scenario: str | None = None,
    route: str | None = None,
) -> ExperimentConfig:
    """Defaults, then the file, then the command-line overrides."""
    values: dict[str, object] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise UsageError(f"config file not found: {p}")
        values = parse_config_text(p.read_text())
    if seed is not None:
        values["seed"] = seed
    if scenario is not None:
        values["scenario"] = scenario
    if route is not None:
        values["route"] = route
    return ExperimentConfig(**values)


# -- scenario registry -----------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Named algorithm/input/problem triple the extract verbs accept.

    The algorithm and the target distribution are fixed values; the
    problem is built from the run's config, because capped-norm reads
    epsilon, R and delta.  The scenario's dimension is its algorithm's.
    """

    name: str
    algorithm: TurnstileAlgorithm
    target: SparseMeasure
    problem: Callable[[ExperimentConfig], ProblemSpec]


def _capped_norm_problem(cfg: ExperimentConfig) -> ProblemSpec:
    cap = cfg.epsilon if cfg.epsilon > 0 else 2.0 * cfg.R
    return ProblemSpec.metric_approximation(
        target=lambda y: min(math.hypot(*y), cap),
        metric=lambda a, b: abs(a - b),
        outputs=(0, 1),
        epsilon=cap,
        delta=cfg.delta if cfg.delta > 0 else 0.05,
    )


SCENARIOS: dict[str, Scenario] = {
    # coordinate-sum parity promise on a four-point staircase
    "parity": Scenario(
        name="parity",
        algorithm=parity_algorithm(2),
        target=SparseMeasure.uniform([(0, 0), (1, 0), (1, 1), (2, 1)]),
        problem=lambda cfg: ProblemSpec.promise(lambda y: (y[0] + y[1]) % 2),
    ),
    # first-coordinate mod-3 indicator on an axis segment
    "mod-3": Scenario(
        name="mod-3",
        algorithm=dataclasses.replace(
            mod_counter_algorithm(2, 3), output=lambda s: 1 if s == 0 else 0
        ),
        target=SparseMeasure.uniform([(0, 0), (1, 0), (2, 0), (3, 0)]),
        problem=lambda cfg: ProblemSpec.promise(
            lambda y: 1 if y[0] % 3 == 0 else 0
        ),
    ),
    # state-free algorithm answering 0 everywhere
    "constant": Scenario(
        name="constant",
        algorithm=constant_algorithm(2),
        target=SparseMeasure.uniform([(0, 0), (1, 1)]),
        problem=lambda cfg: ProblemSpec.promise(lambda y: 0),
    ),
    # parity algorithm scored against a mod-3 promise it cannot see
    "adversarial": Scenario(
        name="adversarial",
        algorithm=parity_algorithm(2),
        target=SparseMeasure.uniform([(0, 0), (1, 0), (2, 0), (3, 0)]),
        problem=lambda cfg: ProblemSpec.promise(
            lambda y: 1 if y[0] % 3 == 0 else 0
        ),
    ),
    # norm capped at epsilon, smooth enough for the mollified route
    "capped-norm": Scenario(
        name="capped-norm",
        algorithm=parity_algorithm(2),
        target=SparseMeasure.uniform([(0, 0), (1, 0), (1, 1), (2, 1)]),
        problem=_capped_norm_problem,
    ),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise UsageError(f"unknown scenario {name!r}; known scenarios: {known}")


def transfer_config(cfg: ExperimentConfig, scenario: Scenario) -> TransferConfig:
    dimension = scenario.algorithm.dimension
    if cfg.n != dimension:
        raise UsageError(
            f"scenario {scenario.name!r} is {dimension}-dimensional, "
            f"config has n={cfg.n}"
        )
    return TransferConfig(
        radius=cfg.R,
        blocks=cfg.M,
        diameter=cfg.D,
        K=cfg.K,
        Q=cfg.Q,
        q=cfg.q,
        kappa=cfg.kappa,
        B=cfg.B,
        selection_threshold=cfg.selection_threshold,
        tv_margin=cfg.tv_margin,
        label=scenario.name,
    )


def _structure_config(cfg: ExperimentConfig, R: float) -> StructureConfig:
    """The structure parameters of `cfg` for pieces of noise radius R."""
    return StructureConfig(K=cfg.K, Q=cfg.Q, R=R, q=cfg.q, B=cfg.B, kappa=cfg.kappa)


# -- canonical tables ------------------------------------------------------------


def _cell(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return format(v, ".17g")
    if isinstance(v, tuple):
        return "(" + ",".join(str(c) for c in v) + ")"
    if v is None:
        return ""
    return str(v)


def _json_cell(v: object) -> object:
    if isinstance(v, float) and math.isnan(v):
        return None
    if isinstance(v, tuple):
        return _cell(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def write_table(
    out_dir: Path,
    name: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    """CSV with the timestamp confined to the leading comment, JSON mirror
    with none, so the bodies of two same-seed runs compare byte-equal."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    csv_path = out_dir / f"{name}.csv"
    with csv_path.open("w", newline="") as fh:
        fh.write(f"# {name} written {stamp}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    payload = {
        "table": name,
        "columns": list(columns),
        "rows": [
            {c: _json_cell(v) for c, v in zip(columns, row)} for row in rows
        ],
    }
    json_path = out_dir / f"{name}.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path


TABLE_SCHEMAS: dict[str, tuple[tuple[str, str], ...]] = {
    "lemmas": (
        ("check", "inequality family the row verifies"),
        ("instance", "parameters of the concrete instance"),
        ("lhs", "measured left-hand side"),
        ("rhs", "certified right-hand side"),
        ("margin", "rhs - lhs"),
        ("passed", "true when lhs stayed within the bound"),
    ),
    "extract": (
        ("scenario", "registry name of the algorithm/input/problem triple"),
        ("route", "exact or mollified"),
        ("R", "stream noise radius"),
        ("M", "number of conditioning blocks"),
        ("dimension", "extracted sketch dimension"),
        ("fibers", "distinct sketch values met by the input support"),
        ("success", "decode success probability on the input distribution"),
        ("worst_kernel_tv", "largest shift TV among certified kernel vectors"),
    ),
    "tv_sweep": (
        ("scenario", "registry name"),
        ("route", "exact or mollified"),
        ("R", "stream noise radius for the row"),
        ("v", "integer shift vector"),
        ("kind", "kernel (structure-aligned) or control (off-structure)"),
        ("tv", "total variation between the conditioned law and its shift"),
        ("passed", "certified bound held for the row"),
        ("trend", "tv behavior of this shift across the sweep radii"),
    ),
    "smallball": (
        ("instance", "exact for the 1-d closed form, mc-i for sampled rows"),
        ("ell", "number of lattice rows"),
        ("R", "gaussian radius"),
        ("u", "window half-width"),
        ("probability", "measured small-ball probability"),
        ("bound", "certified bound"),
        ("stderr", "binomial standard error (zero for the exact row)"),
        ("trials", "Monte Carlo trials (zero for the exact row)"),
        ("passed", "probability within bound plus sampling allowance"),
    ),
}


# -- verify-lemmas ---------------------------------------------------------------


def _radii(cfg: ExperimentConfig) -> tuple[float, ...]:
    return cfg.sweep if cfg.sweep else (cfg.R,)


def _lemma_row(
    check: str, instance: str, lhs: float, rhs: float, passed: bool
) -> tuple:
    """One `lemmas` row; the margin is rhs - lhs."""
    return (check, instance, lhs, rhs, rhs - lhs, passed)


def _decay_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    ts = np.arange(DECAY_GRID) / DECAY_GRID
    dist = np.minimum(ts, 1.0 - ts)
    for R in _radii(cfg):
        mu = gamma_truncated(1, R)
        mags = np.abs(fourier_many(mu, ts.reshape(-1, 1)))
        bound = np.exp(-R * R * dist * dist / 5.0)
        lhs = float(np.max(mags - bound))
        rows.append(
            _lemma_row(
                "fourier-decay",
                f"n=1 R={R:g} grid={DECAY_GRID}",
                lhs,
                DECAY_SLACK,
                lhs <= DECAY_SLACK,
            )
        )
    return rows


def _poisson_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    n = min(cfg.n, 2)
    rng = np.random.default_rng(cfg.seed)
    for i in range(5):
        A = rng.normal(size=(n, n))
        M = A @ A.T / n + 0.25 * np.eye(n)
        chk = poisson_identity_check(M)
        rows.append(
            _lemma_row(
                "poisson-summation",
                f"n={n} i={i}",
                chk.relative_error,
                POISSON_TOLERANCE,
                chk.relative_error <= POISSON_TOLERANCE,
            )
        )
    return rows


def _domination_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    floor = math.sqrt((2.0 / math.pi) * math.log(8.0 * cfg.n))
    for R in _radii(cfg):
        if R < floor:
            continue
        chk = gamma_conv_domination_check(R, cfg.n)
        rows.append(
            _lemma_row(
                "gamma-domination",
                f"n={cfg.n} R={R:g}",
                chk.worst_ratio,
                4.0,
                chk.passed,
            )
        )
    return rows


def _rudin_rows(cfg: ExperimentConfig) -> list[tuple]:
    # two fixed frequencies at coordinate distance 0.3 stay dissociated for
    # every kappa at or below 0.3
    kappa = min(cfg.kappa if cfg.kappa is not None else 0.25, 0.3)
    T = np.array([[0.3, 0.0], [0.0, 0.3]] if cfg.n >= 2 else [[0.3]])
    nu = gamma_truncated(min(cfg.n, 2), cfg.R)
    eta = math.exp(-cfg.R * cfg.R * kappa * kappa / 5.0) + DECAY_SLACK
    rng = np.random.default_rng(cfg.seed + 1)
    rows = []
    for i, sigma in enumerate((0.25, 0.5, 1.0)):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=len(T))
        radii = rng.uniform(0.2, 1.0, size=len(T))
        c = radii * np.exp(1j * phases)
        chk = coarse_rudin_check(nu, T, c, sigma, kappa, eta)
        rows.append(
            _lemma_row(
                "coarse-rudin",
                f"i={i} sigma={sigma:g} kappa={kappa:g}",
                chk.lhs,
                chk.rhs,
                chk.passed,
            )
        )
    return rows


def _dissociated_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    n = min(cfg.n, 2)
    base = gamma_truncated(n, cfg.R)
    rng = np.random.default_rng(cfg.seed + 2)
    for i, keep in enumerate((0.5, 0.25, 0.125)):
        mask = rng.random(base.support_size) < keep
        if not mask.any():
            mask[0] = True
        total = float(base.masses[mask].sum())
        mu = SparseMeasure(n, base.points[mask], base.masses[mask] / total)
        cert = density_certificate(mu, cfg.R)
        kappa = 5.0 * math.sqrt(cert.S) / cfg.R
        scan = large_spectrum_scan(mu, cfg.K, _covering_exponent([mu], GRID_EXPONENT))
        cap = int(14.0 * cert.S) + 8
        kept = greedy_dissociated_subset(scan.zetas, kappa, cap=cap)
        lhs = float(len(kept))
        rhs = 14.0 * cert.S
        rows.append(
            _lemma_row(
                "dissociated-bound",
                f"i={i} keep={keep:g} S={cert.S:.3g}",
                lhs,
                rhs,
                lhs <= rhs,
            )
        )
    return rows


def _smallball_instances(
    cfg: ExperimentConfig,
) -> list[tuple[str, np.ndarray, float, np.ndarray]]:
    """Five deterministic MC instances inside the parameter window."""
    rng = np.random.default_rng(cfg.seed + 3)
    out = []
    for i in range(5):
        ell = 1 + (i % 2)
        # row norms in [0.02, 0.05] keep the window satisfiable down to the
        # tightest width while leaving the single-row instances informative
        dirs = rng.normal(size=(ell, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        A = dirs * rng.uniform(0.02, 0.05, size=(ell, 1))
        u = (0.02, 0.4, 0.05, 0.3, 0.1)[i]
        b = rng.uniform(-0.2, 0.2, size=ell) if ell > 1 else np.zeros(1)
        out.append((f"mc-{i}", A, u, b))
    return out


def _exact_small_ball(cfg: ExperimentConfig) -> SmallBallCheck:
    """The exact 1-d small-ball row (a = 0.05, u = 0.02, b = 0).  Verbs
    compute it before any other stage, so an R outside its parameter
    window ends the run as a usage error."""
    try:
        return small_ball_exact_1d(0.05, cfg.R, 0.02, 0.0)
    except ValueError as exc:
        raise UsageError(
            f"the exact small-ball row a=0.05 u=0.02 is rejected at R={cfg.R:g}: {exc}"
        )


def _smallball_rows(
    cfg: ExperimentConfig, exact: SmallBallCheck, trials: int
) -> list[tuple]:
    rows = [
        _lemma_row(
            "small-ball",
            f"exact a=0.05 u=0.02 R={cfg.R:g}",
            exact.probability,
            exact.bound,
            exact.passed,
        )
    ]
    for name, A, u, b in _smallball_instances(cfg)[:2]:
        chk = small_ball_check(A, cfg.R, u, b, trials, seed=cfg.seed + 4)
        rows.append(
            _lemma_row(
                "small-ball",
                f"{name} ell={A.shape[0]} u={u:g} R={cfg.R:g}",
                chk.probability,
                chk.bound,
                chk.passed,
            )
        )
    return rows


def _parseval_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    n = min(cfg.n, 2)
    nu = gamma_truncated(n, cfg.R)
    for v in ((1, 0), (1, 1), (1, -1)) if n == 2 else ((1,), (2,)):
        dec = line_decomposition(nu, v)
        direct = dec.total_energy
        quad = exact_sum(dec.quadrature_energies)
        rel = abs(direct - quad) / max(direct, 1e-300)
        rows.append(
            _lemma_row(
                "line-parseval",
                f"v={_cell(v)}",
                rel,
                PARSEVAL_TOLERANCE,
                rel <= PARSEVAL_TOLERANCE,
            )
        )
    return rows


def _invariance_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Spectral-energy and ball-reduction rows from an unrestricted product."""
    n = min(cfg.n, 2)
    mus = [gamma_truncated(n, cfg.R)] * max(2, cfg.M)
    report = translation_invariance_certify(
        mus,
        cfg.route,
        _structure_config(cfg, cfg.R),
        cfg.D,
        max_kernel=6,
        controls=0,
    )
    rows = []
    for kind, rec in report.records:
        if kind != "kernel":
            continue
        violations = len(rec.spectral.violations)
        rows.append(
            _lemma_row(
                "spectral-energy",
                f"v={_cell(rec.direction)}",
                float(violations),
                0.0,
                violations == 0,
            )
        )
        rows.append(
            _lemma_row(
                "ball-reduction",
                f"v={_cell(rec.direction)}",
                rec.actual_tv,
                rec.bound,
                rec.passed,
            )
        )
    # the certified factors; on the mollified route they carry the
    # reference factor, so the row's level, center and radius take it in too
    level = max(
        1.0, math.sqrt(2.0 * math.log(2.0 * len(report.pieces) / cfg.tail_mass_target))
    )
    tail = convolution_tail_center(report.pieces, cfg.R, level, report.convolution)
    rows.append(
        _lemma_row(
            "convolution-tail",
            f"M={len(mus)} L={level:.3g}",
            tail.outside_mass,
            tail.mass_bound,
            tail.outside_mass <= tail.mass_bound,
        )
    )
    return rows


def _check_kernel_radius(cfg: ExperimentConfig, verb: str) -> None:
    """Reject a D the kernel enumeration cannot walk before any stage runs.

    tv-sweep and verify-lemmas enumerate every shift with |v|_2 <= D;
    extract enumerates shifts only up to the measured diameter of its
    target, which D must cover (`_check_target_diameter`), so a D above
    the cap leaves extract unchanged.
    """
    if cfg.D > MAX_KERNEL_RADIUS:
        raise UsageError(
            f"{verb} enumerates every integer shift with |v|_2 <= D; "
            f"D = {cfg.D} exceeds the cap {MAX_KERNEL_RADIUS}"
        )


def _check_target_diameter(cfg: ExperimentConfig, target: SparseMeasure) -> None:
    """Reject a D below the target's support diameter before any stage runs."""
    diameter = _support_diameter(target)
    if diameter > cfg.D:
        raise UsageError(
            f"extract needs D to cover the target's support diameter "
            f"{diameter:.3f}; D = {cfg.D} is below it"
        )


def cmd_verify_lemmas(cfg: ExperimentConfig, out_dir: Path) -> int:
    _check_kernel_radius(cfg, "verify-lemmas")
    exact = _exact_small_ball(cfg)
    rows: list[tuple] = []
    rows.extend(_decay_rows(cfg))
    rows.extend(_poisson_rows(cfg))
    rows.extend(_domination_rows(cfg))
    rows.extend(_rudin_rows(cfg))
    rows.extend(_dissociated_rows(cfg))
    rows.extend(_smallball_rows(cfg, exact, trials=50_000))
    rows.extend(_parseval_rows(cfg))
    try:
        rows.extend(_invariance_rows(cfg))
    except (ValueError, RuntimeError) as exc:
        print(
            f"verify-lemmas failed for scenario 'lemmas' at R={cfg.R:g}: {exc}",
            file=sys.stderr,
        )
        return 1
    rows.sort(key=lambda r: (r[0], r[1]))
    path = write_table(out_dir, "lemmas", [c for c, _ in TABLE_SCHEMAS["lemmas"]], rows)
    passed = sum(1 for r in rows if r[5])
    print(f"{passed}/{len(rows)} checks passed; table at {path}")
    for r in rows:
        if not r[5]:
            print(f"FAILED {r[0]} [{r[1]}]: lhs {_cell(r[2])} rhs {_cell(r[3])}")
    return 0 if passed == len(rows) else 1


# -- extract ---------------------------------------------------------------------


def _report_kernel_failures(report: TranslationReport, where: str) -> int:
    """Print one `FAILED kernel shift` line to stderr for each failed
    kernel record, its cause ending in `where`; returns their count."""
    failed = [
        rec for kind, rec in report.records if kind == "kernel" and not rec.passed
    ]
    for rec in failed:
        cause = (
            f"spectral precondition failed with {len(rec.spectral.violations)} "
            f"violation(s); tv {rec.actual_tv:.6g}, bound {rec.bound:.6g}"
            if rec.spectral.violations
            else f"tv {rec.actual_tv:.6g} above bound {rec.bound:.6g}"
        )
        print(
            f"FAILED kernel shift {_cell(rec.direction)}: {cause}{where}",
            file=sys.stderr,
        )
    return len(failed)


def cmd_extract(cfg: ExperimentConfig, out_dir: Path) -> int:
    scenario = get_scenario(cfg.scenario)
    tcfg = transfer_config(cfg, scenario)
    target = scenario.target
    _check_target_diameter(cfg, target)
    problem = scenario.problem(cfg)
    try:
        sketch, decoder, report = extract_sketch(
            scenario.algorithm, target, problem, cfg.route, tcfg, cfg.seed
        )
    except (SketchExtractionError, SelectionFailed, ValueError, RuntimeError) as exc:
        print(f"extract failed for scenario {scenario.name!r}: {exc}", file=sys.stderr)
        return 1
    result = evaluate_sketch(sketch, decoder, target, problem)
    worst = report.translation.max_kernel_tv
    row = (
        scenario.name,
        cfg.route,
        cfg.R,
        cfg.M,
        sketch.structure.rank,
        len(decoder.table),
        result.success,
        worst,
    )
    path = write_table(
        out_dir, "extract", [c for c, _ in TABLE_SCHEMAS["extract"]], [row]
    )
    sketch_path = out_dir / f"sketch_{scenario.name}_{cfg.route}.txt"
    sketch_path.write_text(extraction_to_text(sketch, decoder, report))
    print(
        f"{scenario.name} [{cfg.route}]: dimension {sketch.structure.rank}, "
        f"{len(decoder.table)} fibers, success {result.success:.4f}; "
        f"table at {path}, sketch at {sketch_path}"
    )
    if decoder.conflicts:
        print(
            f"note: {len(decoder.conflicts)} fiber(s) carry conflicting promised "
            f"bits; decoding is majority-vote there"
        )
    return 1 if _report_kernel_failures(report.translation, "") else 0


# -- tv-sweep --------------------------------------------------------------------


def _trend(values: Sequence[float]) -> str:
    if len(values) < 2:
        return ""
    diffs = [b - a for a, b in zip(values, values[1:])]
    if all(d < -1e-12 for d in diffs):
        return "decreasing"
    if all(d > 1e-12 for d in diffs):
        return "increasing"
    if all(abs(d) <= 1e-12 for d in diffs):
        return "flat"
    return "mixed"


def cmd_tv_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    _check_kernel_radius(cfg, "tv-sweep")
    scenario = get_scenario(cfg.scenario)
    tcfg = transfer_config(cfg, scenario)
    alg, target = scenario.algorithm, scenario.target
    problem = scenario.problem(cfg)
    raw: list[tuple[float, tuple[int, ...], str, float, bool]] = []
    failed = 0
    # largest radius first, each radius's laws and report dropped before
    # the next: the sweep peaks at its largest radius on a fresh heap, and
    # the smaller radii reuse the space it freed
    for R in sorted(_radii(cfg), reverse=True):
        try:
            sigma = select_state_sequence(
                alg, target, problem, R, cfg.M, SAMPLES, cfg.seed,
                threshold=tcfg.selection_threshold,
            )
            structure = _structure_config(cfg, R)
            report = translation_invariance_certify(sigma.laws, cfg.route, structure, cfg.D)
        except (ValueError, RuntimeError) as exc:
            print(
                f"tv-sweep failed for scenario {scenario.name!r} at R={R:g}: {exc}",
                file=sys.stderr,
            )
            return 1
        for kind, rec in report.records:
            raw.append((R, rec.direction, kind, rec.actual_tv, rec.passed))
        failed += _report_kernel_failures(report, f" at R={R:g}")
        del sigma, report
    trends: dict[tuple[str, tuple[int, ...]], str] = {}
    for kind, vector in {(r[2], r[1]) for r in raw}:
        series = sorted(
            (r[0], r[3]) for r in raw if r[2] == kind and r[1] == vector
        )
        trends[(kind, vector)] = _trend([tv for _, tv in series])
    rows = [
        (
            scenario.name,
            cfg.route,
            R,
            vector,
            kind,
            tv,
            passed,
            trends[(kind, vector)],
        )
        for R, vector, kind, tv, passed in raw
    ]
    rows.sort(key=lambda r: (r[4], r[3], r[2]))
    path = write_table(
        out_dir, "tv_sweep", [c for c, _ in TABLE_SCHEMAS["tv_sweep"]], rows
    )
    print(
        f"{len(rows)} rows over {len(_radii(cfg))} radii; "
        f"{failed} kernel failure(s); table at {path}"
    )
    return 1 if failed else 0


# -- smallball -------------------------------------------------------------------


def cmd_smallball(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows: list[tuple] = []
    exact = _exact_small_ball(cfg)
    rows.append(
        ("exact", 1, cfg.R, 0.02, exact.probability, exact.bound, 0.0, 0, exact.passed)
    )
    seeds = np.random.default_rng(cfg.seed).integers(0, 2**31, size=5)
    for (name, A, u, b), s in zip(_smallball_instances(cfg), seeds):
        try:
            chk = small_ball_check(A, cfg.R, u, b, SMALLBALL_TRIALS, seed=int(s))
        except ValueError as exc:
            raise UsageError(
                f"small-ball instance {name} rejected at R={cfg.R:g}: {exc}"
            )
        rows.append(
            (
                name,
                A.shape[0],
                cfg.R,
                u,
                chk.probability,
                chk.bound,
                chk.stderr,
                chk.trials,
                chk.passed,
            )
        )
    rows.sort(key=lambda r: r[0])
    path = write_table(
        out_dir, "smallball", [c for c, _ in TABLE_SCHEMAS["smallball"]], rows
    )
    passed = sum(1 for r in rows if r[8])
    print(f"{passed}/{len(rows)} small-ball instances within bound; table at {path}")
    return 0 if passed == len(rows) else 1


# -- report ----------------------------------------------------------------------


def cmd_report(out_dir: Path, schema: bool) -> int:
    if schema:
        for name, cols in TABLE_SCHEMAS.items():
            print(f"{name}.csv (JSON mirror {name}.json)")
            for col, doc in cols:
                print(f"  {col}: {doc}")
        return 0
    found = sorted(out_dir.glob("*.csv")) if out_dir.is_dir() else []
    if not found:
        print(f"no tables under {out_dir}; run a verb first or pass --schema")
        return 0
    for p in found:
        body = p.read_text().splitlines()
        # first line is the timestamp comment, second the column header
        n_rows = max(0, len(body) - 2)
        print(f"{p}: {n_rows} row(s)")
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchlab",
        description="turnstile-to-linear-sketch laboratory",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, scenario_flags: bool) -> None:
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "--out", default="out", help="directory for tables and reports"
        )
        if scenario_flags:
            p.add_argument(
                "--scenario", default=None, help="registry scenario name"
            )
            p.add_argument(
                "--route", default=None, choices=("exact", "mollified")
            )

    common(sub.add_parser("verify-lemmas", help="replay the inequality suite"), False)
    common(sub.add_parser("extract", help="run the reduction on a scenario"), True)
    common(sub.add_parser("tv-sweep", help="certify shifts across radii"), True)
    common(sub.add_parser("smallball", help="small-ball probabilities"), False)
    rep = sub.add_parser("report", help="describe or list the tables")
    rep.add_argument("--out", default="out")
    rep.add_argument("--schema", action="store_true", help="print column docs")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    if args.verb == "report":
        return cmd_report(out_dir, args.schema)
    try:
        cfg = load_config(
            args.config,
            seed=args.seed,
            scenario=getattr(args, "scenario", None),
            route=getattr(args, "route", None),
        )
        if args.verb == "verify-lemmas":
            return cmd_verify_lemmas(cfg, out_dir)
        if args.verb == "extract":
            return cmd_extract(cfg, out_dir)
        if args.verb == "tv-sweep":
            return cmd_tv_sweep(cfg, out_dir)
        if args.verb == "smallball":
            return cmd_smallball(cfg, out_dir)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
