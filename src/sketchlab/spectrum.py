"""Additive-combinatorial structure of large spectra.

Dissociated sets and the coarse Rudin inequality, the exact-route chain
extractor producing a sketch lattice with exact rational generators and
congruence relations, the near-origin extractor producing a rational
span basis, small-ball probability checks, and the convolution route
that funnels products of dense pieces through symmetrization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dgauss import TruncationPolicy, sample_truncated
from .measure import (
    _BLOCK_CELLS,
    ScanReport,
    SparseMeasure,
    _reduce_torus,
    density_certificate,
    fourier_at,
    heavy_cells,
    large_spectrum_scan,
    symmetrize,
)

__all__ = [
    "CertifiedBoundError",
    "DissociationCapError",
    "DissociationResult",
    "SketchLattice",
    "NearOriginBasis",
    "StructureConfig",
    "GRID_EXPONENT",
    "is_kappa_dissociated",
    "signed_combinations",
    "coarse_rudin_check",
    "RudinCheck",
    "greedy_dissociated_subset",
    "chain_length_cap",
    "extract_exact_structure",
    "extract_near_origin_structure",
    "small_ball_check",
    "small_ball_exact_1d",
    "SmallBallCheck",
    "convolution_structure",
]

DISSOCIATION_CAP = 20
FIBER_BUDGET = 10**6
# default heavy-frequency scan grid: 2^7 cells per axis
GRID_EXPONENT = 7


class CertifiedBoundError(RuntimeError):
    """A certified theorem bound failed; a test must see this, not a clamp."""


class DissociationCapError(ValueError):
    def __init__(self, message: str, partial: np.ndarray | None = None) -> None:
        super().__init__(message)
        self.partial = partial


def _reduce_fraction(f: Fraction) -> Fraction:
    # representative of f mod 1 in [-1/2, 1/2)
    shift = (f + Fraction(1, 2)).numerator // (f + Fraction(1, 2)).denominator
    return f - shift


def _round_ties_to_zero(x: float) -> int:
    return math.ceil(x - 0.5) if x >= 0.0 else math.floor(x + 0.5)


@dataclass(frozen=True)
class DissociationResult:
    dissociated: bool
    witness: tuple[int, ...] | None


def is_kappa_dissociated(
    points: np.ndarray,
    kappa: float,
    cap: int = DISSOCIATION_CAP,
) -> DissociationResult:
    """True iff every nonzero sign pattern eps in {-1,0,1}^m keeps
    ||sum eps_i xi_i||_{T^n} >= kappa over the m rows xi_i; the first
    violating pattern (in base-3 order, digits 0,+1,-1, leftmost most
    significant) is the witness.

    The order is what the chain extractor relies on: patterns whose
    leading digit is 0 all come first, so when the rows after the first
    are already dissociated, the witness has leading digit +1."""
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 0:
        return DissociationResult(True, None)
    if m > cap:
        raise DissociationCapError(f"dissociation enumeration capped at {cap}")
    total = 3**m
    powers = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    chunk = 1 << 16
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // powers) % 3
        eps = np.where(digits == 2, -1, digits)
        sums = _reduce_torus(eps @ pts)
        norms2 = np.einsum("ij,ij->i", sums, sums)
        bad = np.nonzero(norms2 < kappa * kappa)[0]
        if bad.size:
            return DissociationResult(
                False, tuple(int(e) for e in eps[int(bad[0])])
            )
    return DissociationResult(True, None)


def signed_combinations(points: np.ndarray) -> np.ndarray:
    """All sums sum_i eps_i xi_i over the (m, n) rows xi_i for eps in
    {-1,0,1}^m, reduced; m = 0 gives the origin alone."""
    m = points.shape[0]
    if m > 12:
        raise DissociationCapError("signed-combination enumeration too large")
    eps = np.array(list(itertools.product((-1, 0, 1), repeat=m))).reshape(3**m, m)
    return _reduce_torus(eps @ points)


def _torus_distance(zetas: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Torus distance from each row of zetas to the nearest row of points,
    in blocks of about _BLOCK_CELLS (row, point, coordinate) cells."""
    out = np.empty(zetas.shape[0])
    step = max(1, _BLOCK_CELLS // max(1, points.size))
    for i in range(0, zetas.shape[0], step):
        d = _reduce_torus(zetas[i : i + step, None, :] - points[None, :, :])
        out[i : i + step] = np.sqrt(np.einsum("ijk,ijk->ij", d, d).min(axis=1))
    return out


@dataclass(frozen=True)
class RudinCheck:
    lhs: float
    rhs: float
    passed: bool


def coarse_rudin_check(
    nu: SparseMeasure,
    T: np.ndarray,
    c: Sequence[complex],
    sigma: float,
    kappa: float,
    eta: float,
) -> RudinCheck:
    """E_nu exp(sigma F) <= exp(sigma^2 sum|c|^2 / 2) + eta exp(sigma sum|c|)
    for F(x) = Re sum_xi c(xi) e(<xi, x>) over the rows xi of T, T
    kappa-dissociated and eta a bound on |nu_hat| at torus distance >= kappa
    from 0."""
    if not is_kappa_dissociated(T, kappa).dissociated:
        raise ValueError("frequency set is not kappa-dissociated")
    cs = np.asarray(c, dtype=complex)
    if len(T) != cs.size:
        raise ValueError("coefficient count must match frequency count")
    # einsum sums on the calling thread, as in measure.fourier_many
    phase = np.einsum("kj,rj->kr", nu.points, T)
    F = np.einsum("kr,r->k", np.exp(2j * math.pi * phase), cs).real
    lhs = float(np.einsum("k,k->", np.exp(sigma * F), nu.masses))
    sum_sq = float(np.sum(np.abs(cs) ** 2))
    sum_abs = float(np.sum(np.abs(cs)))
    rhs = math.exp(sigma * sigma * sum_sq / 2.0) + eta * math.exp(sigma * sum_abs)
    return RudinCheck(lhs, rhs, lhs <= rhs + 1e-9)


def greedy_dissociated_subset(
    freqs: np.ndarray,
    kappa: float,
    cap: int = DISSOCIATION_CAP,
) -> np.ndarray:
    """Scan the rows of freqs in order, keeping each row whose addition
    preserves kappa-dissociation of the kept rows."""
    kept: list[int] = []
    for i in range(freqs.shape[0]):
        if len(kept) >= cap:
            raise DissociationCapError(
                f"dissociated subset exceeded the cap {cap}", partial=freqs[kept]
            )
        if is_kappa_dissociated(freqs[kept + [i]], kappa, cap=cap).dissociated:
            kept.append(i)
    return freqs[kept]


@dataclass(frozen=True)
class SketchLattice:
    """Exact-route output: generators t_j with denominators k_j and exact
    congruences k_j t_j = sum_{i<j} c_i t_i (mod Z^n).

    Generators are exact rationals; every relation is verified to hold
    with an integer residue at construction.
    """

    route = "exact"

    dimension: int
    generators: tuple[tuple[Fraction, ...], ...]
    denominators: tuple[int, ...]
    relations: tuple[tuple[int, ...], ...]
    span_error: float
    s_certified: float
    kappa: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        m = len(self.generators)
        if not (len(self.denominators) == len(self.relations) == m):
            raise ValueError("generator, denominator, relation counts differ")
        for j, (t, k, rel) in enumerate(
            zip(self.generators, self.denominators, self.relations)
        ):
            if k < 1:
                raise ValueError("denominators must be >= 1")
            if len(rel) != j:
                raise ValueError("relation j must have j coefficients")
            if any(not 0 <= c < self.denominators[i] for i, c in enumerate(rel)):
                raise ValueError("relation coefficients must satisfy 0 <= c_i < k_i")
            residue = [
                k * t[d] - sum(c * self.generators[i][d] for i, c in enumerate(rel))
                for d in range(self.dimension)
            ]
            if any(r.denominator != 1 for r in residue):
                raise ValueError("congruence relation fails to close exactly")
        if self.s_certified > 0 and m > 14.0 * self.s_certified * (1.0 + 1e-9):
            raise CertifiedBoundError(
                f"lattice rank {m} exceeds 14 S = {14.0 * self.s_certified:.3f}"
            )

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def fiber_bound(self) -> int:
        """prod k_j, the size of the subgroup the generators span."""
        return math.prod(self.denominators)

    def value(self, y: Sequence[int]) -> tuple[Fraction, ...]:
        """The sketch value of integer y: residues <t_j, y> mod 1."""
        return tuple(
            sum((c * v for c, v in zip(t, y)), Fraction(0)) % 1 for t in self.generators
        )

    def combination_points(self) -> np.ndarray:
        """All admissible combinations sum c_i t_i, 0 <= c_i < k_i, as
        reduced float rows (the full subgroup generated by the lattice);
        more than FIBER_BUDGET of them is an error."""
        if self.fiber_bound > FIBER_BUDGET:
            raise ValueError("fiber enumeration exceeds the budget")
        if not self.generators:
            return np.zeros((1, self.dimension))
        gens = np.array(
            [[float(c) for c in t] for t in self.generators], dtype=float
        )
        coeffs = np.array(
            list(itertools.product(*(range(k) for k in self.denominators))),
            dtype=float,
        )
        return _reduce_torus(coeffs @ gens)

    def distance(self, zetas: np.ndarray) -> np.ndarray:
        """Torus distance from each row of zetas to the subgroup."""
        return _torus_distance(zetas, self.combination_points())

    def pairing_violations(self, v: Sequence[int]) -> list[str]:
        """A shift must pair integrally with every generator, checked
        exactly through its rationals (all generators, which can only
        shrink the kernel)."""
        out = []
        for t in self.generators:
            s = sum(Fraction(c) * f for c, f in zip(v, t))
            if s.denominator != 1:
                out.append(f"pairing <v, {tuple(map(str, t))}> = {s} is not an integer")
        return out


@dataclass(frozen=True)
class NearOriginBasis:
    """Mollified-route output: ℓ rational frequencies eta_j = w_j / Q
    with integer numerators w_j, |entries| <= Q/2; heavy near-origin
    frequencies lie within radius_bound of their real span."""

    route = "mollified"
    # the span sheet is continuous, so no finite fiber count bounds the image
    fiber_bound = None

    dimension: int
    numerators: tuple[tuple[int, ...], ...]
    denominator: int
    radius_bound: float
    s_certified: float = 0.0
    B: float = 2.0
    kappa: float = 0.0
    rho: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for w in self.numerators:
            if len(w) != self.dimension:
                raise ValueError("numerator dimension mismatch")
            if any(abs(c) > self.denominator / 2 for c in w):
                raise ValueError("numerator entries must be bounded by Q/2")
        if self.s_certified > 0:
            cap = 2.0 * self.s_certified / math.log2(2.0 * self.B)
            if self.rank > cap * (1.0 + 1e-9):
                raise CertifiedBoundError(
                    f"basis size {self.rank} exceeds 2S/log2(2B) = {cap:.3f}"
                )

    @property
    def rank(self) -> int:
        """ℓ, the number of basis rows."""
        return len(self.numerators)

    @property
    def entry_bound(self) -> int:
        return max((abs(c) for w in self.numerators for c in w), default=0)

    def value(self, y: Sequence[int]) -> tuple[int, ...]:
        """The sketch value of integer y: the products <w_j, y>."""
        return tuple(sum(c * v for c, v in zip(w, y)) for w in self.numerators)

    def span_matrix(self) -> np.ndarray:
        """Real span directions, one row per basis frequency."""
        return np.array(self.numerators, dtype=float) / self.denominator

    def distance(self, zetas: np.ndarray) -> np.ndarray:
        """Distance from each reduced row of zetas to the real span sheet
        through the origin (the lstsq residual).  It upper-bounds the
        distance to the wrapped subtorus, which only makes certification
        stricter."""
        r = _reduce_torus(zetas)
        B = self.span_matrix()
        if B.shape[0]:
            sol, *_ = np.linalg.lstsq(B.T, r.T, rcond=None)
            r = r - (B.T @ sol).T
        return np.sqrt(np.einsum("ij,ij->i", r, r))

    def pairing_violations(self, v: Sequence[int]) -> list[str]:
        """A shift must be exactly orthogonal to every basis row over the
        reals: the span sheet is continuous, so invariance must hold along
        all of it."""
        out = []
        for w in self.numerators:
            d = sum(c * wi for c, wi in zip(v, w))
            if d != 0:
                out.append(f"direction pairs with basis row {w} (dot {d})")
        return out


@dataclass(frozen=True)
class StructureConfig:
    """Parameters of both structure extractors.

    The exact route reads q and takes kappa = 5 sqrt(S)/R when kappa is
    None; the near-origin route reads B and needs kappa set, which
    convolution_structure derives when it is None.
    """

    K: float
    Q: int
    R: float
    q: int = 3
    B: float = 2.0
    kappa: float | None = None
    grid_exponent: int = GRID_EXPONENT


def _scan_heavy(
    mu: SparseMeasure, K: float, grid_exponent: int
) -> tuple[ScanReport, list[str]]:
    scan = large_spectrum_scan(mu, K, grid_exponent, refine=True)
    warnings = []
    if scan.margin_vacuous:
        warnings.append(
            "scan non-omission margin is vacuous at this grid resolution"
        )
    return scan, warnings


def _grow_chain(
    pick: np.ndarray,
    base: np.ndarray,
    q: int,
    r_star: int,
    kappa: float,
) -> tuple[int, tuple[int, ...] | None]:
    """The longest r <= r_star whose chain a, qa, ..., q^{r-1}a (a = pick)
    keeps the rows xi_w of base kappa-dissociated, and the witness of the
    failed extension to r + 1 (None when r = r_star).

    Trial r_try orders its rows as [-q^{r_try-1} a, a, ..., q^{r_try-2} a,
    base]; negating and reordering rows keeps dissociation.  The rows
    after the first are trial r_try - 1, already dissociated, so the
    witness is (1, eps, delta): the first (eps, delta) in base-3 order
    with ||q^r a - sum_l eps_l q^l a - sum_w delta_w xi_w|| < kappa.
    """
    for r_try in range(1, r_star + 1):
        trial = np.vstack(
            [-_reduce_torus(q ** (r_try - 1) * pick)]
            + [_reduce_torus(q**l * pick) for l in range(r_try - 1)]
            + [base]
        )
        result = is_kappa_dissociated(trial, kappa)
        if not result.dissociated:
            return r_try - 1, result.witness
    return r_star, None


def _admissible_target(
    deltas: Sequence[int],
    flat_tags: Sequence[tuple[int, int]],
    q: int,
    denominators: list[int],
    relations: list[tuple[int, ...]],
    generators: list[tuple[Fraction, ...]],
    dimension: int,
) -> tuple[list[int], tuple[Fraction, ...]]:
    """Reduce a signed witness combination over chain elements to
    admissible coefficients 0 <= c_i < k_i via the exact relations,
    top index first."""
    rank = len(generators)
    d = [0] * rank
    for (i, l), delta in zip(flat_tags, deltas):
        d[i] += int(delta) * q**l
    for i in range(rank - 1, -1, -1):
        f, c = divmod(d[i], denominators[i])
        d[i] = c
        if f:
            for i2, coef in enumerate(relations[i]):
                d[i2] += f * coef
    target = tuple(
        sum((d[i] * generators[i][dim] for i in range(rank)), Fraction(0))
        for dim in range(dimension)
    )
    return d, target


def chain_length_cap(K: float, q: int) -> int:
    """r* = max(1, floor(log K / (2 log q))), the longest chain that
    extract_exact_structure grows at threshold K.  Every Case 1
    denominator q^r - sum_l eps_l q^l (r < r*) is below q^{r*}, so a Case
    2 grid Q >= q^{r*} is never coarser than one."""
    return max(1, int(math.floor(0.5 * math.log(K) / math.log(q))))


def extract_exact_structure(mu: SparseMeasure, cfg: StructureConfig) -> SketchLattice:
    """Greedy chain construction over the scanned large spectrum.

    Repeatedly pick the strongest heavy frequency farther than kappa from
    every signed combination of the current chain set and grow its chain
    a, qa, ..., q^{r-1}a maximally under kappa-dissociation (r <= r*).
    Case 1 (r < r*): the dissociation test of the failed extension by
    q^r a returns the witness (1, eps, delta) (see _grow_chain), and the
    denominator is k_j = q^r - sum_l eps_l q^l.  Case 2 (r = r*): k_j = Q.
    Exact generators follow by per-coordinate nearest-branch rounding of
    the witness congruence.
    """
    if not 3 <= cfg.q <= cfg.K:
        raise ValueError("need 3 <= q <= K")
    n = mu.dimension
    cert = density_certificate(mu, cfg.R)
    S = cert.S
    warnings: list[str] = []
    if cfg.Q < cfg.R * cfg.K * math.sqrt(n) - 1e-6:
        warnings.append(
            f"Q={cfg.Q} below the recommended R K sqrt(n) = "
            f"{cfg.R * cfg.K * math.sqrt(n):.1f}"
        )
    kappa_paper = 5.0 * math.sqrt(S) / cfg.R
    kappa = cfg.kappa if cfg.kappa is not None else kappa_paper
    if kappa < kappa_paper:
        warnings.append(
            f"kappa={kappa:.4g} overrides the default 5 sqrt(S)/R = "
            f"{kappa_paper:.4g}"
        )
    scan, scan_warnings = _scan_heavy(mu, cfg.K, cfg.grid_exponent)
    warnings.extend(scan_warnings)
    heavy = scan.zetas
    r_star = chain_length_cap(cfg.K, cfg.q)

    flat: list[tuple[int, int, np.ndarray]] = []  # (chain index, power, point)
    generators: list[tuple[Fraction, ...]] = []
    denominators: list[int] = []
    relations: list[tuple[int, ...]] = []
    chain_budget = 14.0 * S * (1.0 + 1e-9)

    while True:
        base = np.stack([xi for _, _, xi in flat]) if flat else np.zeros((0, n))
        far = np.flatnonzero(_torus_distance(heavy, signed_combinations(base)) > kappa)
        if far.size == 0:
            break
        pick = heavy[far[0]]
        j = len(generators)
        r, witness = _grow_chain(pick, base, cfg.q, r_star, kappa)
        if r == 0:
            raise RuntimeError("uncovered frequency failed first-step dissociation")
        if len(flat) + r > chain_budget:
            raise CertifiedBoundError(
                "total chain length exceeds the 14 S dissociated-size bound"
            )
        if r == r_star:
            # Case 2: denominator Q, generator = nearest Q-grid point
            k_j = cfg.Q
            t_j = tuple(
                _reduce_fraction(Fraction(_round_ties_to_zero(cfg.Q * c), cfg.Q))
                for c in pick
            )
            c_list = [0] * j
        else:
            # Case 1: the failed extension by q^r a yields the witness
            eps, deltas = witness[1 : r + 1], witness[r + 1 :]
            k_j = cfg.q**r - sum(e * cfg.q**l for l, e in enumerate(eps))
            if not 1 <= k_j <= cfg.Q:
                raise RuntimeError(f"witness produced invalid denominator {k_j}")
            c_list, target = _admissible_target(
                deltas,
                [(i, l) for i, l, _ in flat],
                cfg.q,
                denominators,
                relations,
                generators,
                n,
            )
            t_j = tuple(
                _reduce_fraction(
                    (target[d] + _round_ties_to_zero(k_j * pick[d] - float(target[d])))
                    / k_j
                )
                for d in range(n)
            )
        for l in range(r):
            mag = abs(fourier_at(mu, _reduce_torus(cfg.q**l * pick)))
            floor_bound = 1.0 - cfg.q ** (2 * l) / cfg.K
            if mag < floor_bound - 1e-6:
                warnings.append(
                    f"chain element q^{l} a_{j} magnitude {mag:.6f} below "
                    f"{floor_bound:.6f}"
                )
            flat.append((j, l, _reduce_torus(cfg.q**l * pick)))
        generators.append(t_j)
        denominators.append(k_j)
        relations.append(tuple(c_list))

    lattice = SketchLattice(
        dimension=n,
        generators=tuple(generators),
        denominators=tuple(denominators),
        relations=tuple(relations),
        span_error=0.0,
        s_certified=S,
        kappa=kappa,
        warnings=tuple(warnings),
    )
    worst = float(np.max(lattice.distance(heavy), initial=0.0))
    return replace(lattice, span_error=worst)


def extract_near_origin_structure(
    mu: SparseMeasure, cfg: StructureConfig
) -> NearOriginBasis:
    """Greedy rho-separated selection of near-origin heavy frequencies,
    orthonormalized and rounded to the Q-grid.

    When 2 rho >= kappa nothing is selected: every near-origin frequency
    has norm at most kappa, so it already lies within the radius bound
    2 rho of the trivial span and the basis has rank 0.  Every heavy
    near-origin frequency is checked against the radius bound before the
    basis is returned.
    """
    if cfg.kappa is None:
        raise ValueError("the near-origin route needs kappa set")
    n = mu.dimension
    cert = density_certificate(mu, cfg.R)
    S = cert.S
    warnings: list[str] = []
    lo = 3.0 * math.sqrt(S) / cfg.R
    hi = math.sqrt(2.0 * math.pi / (cfg.K * math.log(8.0 * n)))
    if not lo <= cfg.kappa <= hi:
        warnings.append(
            f"kappa={cfg.kappa:.4g} outside the window [{lo:.4g}, {hi:.4g}]"
        )
    rho = 100.0 * cfg.B * S**1.5 * cfg.kappa / math.sqrt(cfg.K)
    if rho > 0 and cfg.Q < 2.0 * math.sqrt(2.0 * n * S) * cfg.kappa / rho:
        warnings.append(
            f"Q={cfg.Q} below the recommended 2 sqrt(2nS) kappa / rho = "
            f"{2.0 * math.sqrt(2.0 * n * S) * cfg.kappa / rho:.1f}"
        )
    scan, scan_warnings = _scan_heavy(mu, cfg.K, cfg.grid_exponent)
    warnings.extend(scan_warnings)
    near = scan.zetas[np.linalg.norm(scan.zetas, axis=1) <= cfg.kappa + 1e-12]
    selected: list[np.ndarray] = []
    # at 2 rho >= kappa the trivial span already holds every near frequency
    for a in near if 2.0 * rho < cfg.kappa else ():
        if not selected:
            dist = float(np.linalg.norm(a))
        else:
            Q_span = np.stack(selected).T
            coef, *_ = np.linalg.lstsq(Q_span, a, rcond=None)
            dist = float(np.linalg.norm(a - Q_span @ coef))
        if dist >= rho:
            selected.append(a)
    if selected:
        ortho, _ = np.linalg.qr(np.stack(selected).T)
        cols = []
        for i in range(ortho.shape[1]):
            u = ortho[:, i]
            lead = u[np.argmax(np.abs(u) > 1e-12)]
            cols.append(u if lead >= 0 else -u)
        numerators = tuple(
            tuple(
                _round_ties_to_zero(cfg.Q * c)
                - cfg.Q * math.floor((_round_ties_to_zero(cfg.Q * c)) / cfg.Q + 0.5)
                for c in u
            )
            for u in cols
        )
    else:
        numerators = ()
    basis = NearOriginBasis(
        dimension=n,
        numerators=numerators,
        denominator=cfg.Q,
        radius_bound=2.0 * rho,
        s_certified=S,
        B=cfg.B,
        kappa=cfg.kappa,
        rho=rho,
        warnings=tuple(warnings),
    )
    if (basis.distance(near) > 2.0 * rho + 1e-12).any():
        raise RuntimeError(
            "near-origin heavy frequency escapes the certified span radius"
        )
    return basis


def _gram_schmidt_increments(A: np.ndarray) -> list[float]:
    out = []
    basis: list[np.ndarray] = []
    for row in A:
        v = row.astype(float)
        for b in basis:
            v = v - (v @ b) * b
        norm = float(np.linalg.norm(v))
        out.append(norm)
        if norm > 1e-15:
            basis.append(v / norm)
    return out


@dataclass(frozen=True)
class SmallBallCheck:
    probability: float
    bound: float
    passed: bool
    trials: int
    hits: int
    stderr: float


def _small_ball_bound(A: np.ndarray, R: float, u: float, b: np.ndarray) -> float:
    ell = A.shape[0]
    rho = min(_gram_schmidt_increments(A))
    s_fac = ell * R * R / (2.0 * math.pi * u * u)
    M = np.eye(ell) + s_fac * (A @ A.T)
    quad = float(b @ np.linalg.solve(M, b))
    return (
        2.0
        * (5.0 * u / (rho * R)) ** ell
        * math.exp(-(ell / (2.0 * u * u)) * quad)
    )


def _small_ball_window_check(A: np.ndarray, R: float, u: float) -> None:
    ell, n = A.shape
    kappa0 = float(np.max(np.linalg.norm(A, axis=1)))
    window = 1.0 / (R * R) + ell * ell * kappa0 * kappa0 / (
        2.0 * math.pi * u * u
    )
    if window > math.pi / math.log(8.0 * n):
        raise ValueError(
            f"parameter window violated: {window:.4g} > "
            f"{math.pi / math.log(8.0 * n):.4g}"
        )
    if min(_gram_schmidt_increments(A)) <= 0.0:
        raise ValueError("rows must have positive Gram-Schmidt increments")


def small_ball_check(
    A: np.ndarray,
    R: float,
    u: float,
    b: Sequence[float],
    trials: int,
    seed: int,
) -> SmallBallCheck:
    """Monte-Carlo P(||A Y - b|| <= u) under Y ~ gamma_R (truncated; the
    truncation deficit is folded into the pass allowance) against the
    closed-form small-ball bound."""
    A = np.asarray(A, dtype=float)
    bv = np.asarray(b, dtype=float).reshape(-1)
    _small_ball_window_check(A, R, u)
    bound = _small_ball_bound(A, R, u, bv)
    policy = TruncationPolicy.for_gaussian(A.shape[1], R)
    samples = sample_truncated(R, policy, seed, count=trials)
    # an einsum, not BLAS: a product this size wakes OpenBLAS's second thread
    resid = np.einsum("ij,kj->ik", samples, A) - bv
    hits = int(np.count_nonzero(np.einsum("ij,ij->i", resid, resid) <= u * u))
    p_hat = hits / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
    allowance = 3.0 * stderr + policy.tail_mass_target
    return SmallBallCheck(
        p_hat, bound, p_hat <= bound + allowance, trials, hits, stderr
    )


def small_ball_exact_1d(
    a: float, R: float, u: float, b: float
) -> SmallBallCheck:
    """Exact summation of P(|a y - b| <= u) for y ~ gamma_R on Z."""
    A = np.array([[a]])
    _small_ball_window_check(A, R, u)
    bound = _small_ball_bound(A, R, u, np.array([b]))
    width = int(math.ceil(TruncationPolicy.for_gaussian(1, R, 1e-16).radius))
    ys = np.arange(-width, width + 1, dtype=float)
    weights = np.exp(-math.pi * ys * ys / (R * R))
    weights /= math.fsum(weights)
    mask = np.abs(a * ys - b) <= u
    prob = float(math.fsum(weights[mask]))
    return SmallBallCheck(prob, bound, prob <= bound + 1e-12, 0, -1, 0.0)


def convolution_structure(
    mus: Sequence[SparseMeasure], route: str, cfg: StructureConfig
) -> SketchLattice | NearOriginBasis:
    """Structure of a product of dense pieces via symmetrization.

    Builds mu_sym = (1/M) sum mu_i * mu_i-reflected, delegates to the
    single-measure extractor with threshold K/4, ambient radius sqrt(2) R
    and a scan grid one exponent finer (the support spread of mu_sym
    doubles), then certifies the result against the product-heavy set
    {zeta : prod |mu_i_hat(zeta)| >= e^{-M/K}}.  An unset kappa on the
    mollified route is 3 sqrt(S)/R, S the largest density certificate of
    the pieces; the basis carries the kappa it used.
    """
    if not mus:
        raise ValueError("empty measure list")
    M = len(mus)
    sym = symmetrize(mus)
    sub = replace(
        cfg,
        K=cfg.K / 4.0,
        R=math.sqrt(2.0) * cfg.R,
        grid_exponent=cfg.grid_exponent + 1,
    )
    cells, _ = heavy_cells(mus, math.exp(-M / cfg.K), cfg.grid_exponent)
    heavy_prod = _reduce_torus(cells / 2**cfg.grid_exponent)
    if route == "exact":
        lattice = extract_exact_structure(sym, sub)
        worst = float(np.max(lattice.distance(heavy_prod), initial=0.0))
        return replace(lattice, span_error=max(lattice.span_error, worst))
    if route == "mollified":
        kappa = cfg.kappa
        if kappa is None:
            S = max(density_certificate(m, cfg.R).S for m in mus)
            kappa = 3.0 * math.sqrt(S) / cfg.R
        basis = extract_near_origin_structure(sym, replace(sub, kappa=kappa))
        near = heavy_prod[np.linalg.norm(heavy_prod, axis=1) <= kappa]
        if (basis.distance(near) > basis.radius_bound + 1e-12).any():
            raise RuntimeError(
                "product-heavy near-origin frequency escapes the span radius"
            )
        return basis
    raise ValueError(f"unknown route {route!r}")
