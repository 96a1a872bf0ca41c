"""Translation distance of convolved dense pieces.

How far a convolution moves in total variation under an integer shift:
the line decomposition along the shift direction, the spectral bound on
per-line energies, the reduction of the TV distance to a centered ball,
tail centers for convolutions, and the end-to-end invariance check that
ties a certified frequency structure to the shifts it leaves invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dgauss import exact_sum
from .measure import (
    UNIT_ROUNDOFF,
    SparseMeasure,
    _covering_exponent,
    _gamma,
    _packed_key,
    _reduce_torus,
    convolve_many_fft,
    density_certificate,
    gamma_truncated,
    heavy_cells,
)
from .spectrum import (
    GRID_EXPONENT,
    NearOriginBasis,
    SketchLattice,
    StructureConfig,
    convolution_structure,
)

__all__ = [
    "MAX_KERNEL_RADIUS",
    "tv_distance",
    "LineDecomposition",
    "line_decomposition",
    "HeavySpread",
    "measured_structure_spread",
    "SpectralEnergyReport",
    "spectral_energy_bound_check",
    "BallReductionReport",
    "ball_reduction_tv_bound",
    "TailCenter",
    "convolution_tail_center",
    "TranslationReport",
    "translation_invariance_certify",
]

# Exhaustive kernel enumeration walks the full integer ball; beyond this
# radius the candidate count is no longer a desk-scale object.
MAX_KERNEL_RADIUS = 12


def _direction(v: Sequence[int]) -> tuple[int, ...]:
    vv = tuple(int(c) for c in v)
    if all(c == 0 for c in vv):
        raise ValueError("direction must be nonzero")
    return vv


def _line_layout(
    nu: SparseMeasure, v: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The atoms of nu on the lines {x + l v}, p = rep + ell v: one
    representative per line, in line order, then the atoms' positions ell
    and masses, sorted by line and then by ell, and flags marking where
    each line starts.

    The representative of {x + l v} is the point whose projection onto v
    lands in (-|v|^2/2, |v|^2/2], found in exact integer arithmetic.
    Each (representative, ell) holds one atom, so their packed keys are
    distinct.  Within a line the key steps by exactly the ell step; a new
    line adds a positive multiple of the ell span to it, so key and ell
    steps differ exactly where a line starts.
    """
    vv = sum(c * c for c in v)
    cols = [nu.points[:, j] for j in range(len(v))]
    # ell = ceil((<p, v> - vv/2) / vv), which leaves the projection of
    # rep = p - ell v in (-vv/2, vv/2]
    proj = sum(c * w for c, w in zip(cols, v) if w)
    ell = -((vv - 2 * proj) // (2 * vv))
    reps_cols = [c - w * ell if w else c for c, w in zip(cols, v)]
    key, _ = _packed_key(reps_cols + [ell])
    # stable: as fast as the unstable sort on these nearly sorted keys or
    # faster, and the keys are distinct, so the order is the same
    order = np.argsort(key, kind="stable")
    key, ell = key[order], ell[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = key[1:] - key[:-1] != ell[1:] - ell[:-1]
    reps = nu.points[order[starts]] - ell[starts, None] * np.asarray(v, dtype=np.int64)
    return reps, ell, nu.masses[order], starts


def _layout_tv(ell: np.ndarray, mass: np.ndarray, starts: np.ndarray) -> float:
    """Half the L1 norm of nu(x) - nu(x - v) over the union support, read
    off a line layout.

    An atom whose line predecessor sits one step back gives the single
    subtraction of the two masses, any other atom its bare mass, and an
    atom whose next position is empty gives minus its mass: the nonzero
    steps of each line's zero-bordered row.  exact_sum rounds their sum
    once, so their order does not matter.
    """
    follows = ~starts[1:] & (ell[1:] - ell[:-1] == 1)
    rises = mass[1:] - np.where(follows, mass[:-1], 0.0)
    steps = np.concatenate((mass[:1], np.abs(rises), mass[:-1][~follows], mass[-1:]))
    return 0.5 * exact_sum(steps)


def tv_distance(nu: SparseMeasure, v: Sequence[int]) -> float:
    """Total variation distance between nu and its translate by v."""
    vv = tuple(int(c) for c in v)
    if all(c == 0 for c in vv) or nu.support_size == 0:
        return 0.0
    _, ell, mass, starts = _line_layout(nu, vv)
    return _layout_tv(ell, mass, starts)


# -- line decomposition ------------------------------------------------------


def _autocorrelations(steps: np.ndarray, N: int) -> np.ndarray:
    """r_k = sum_j d_j d_{j+k} of every row d, from one rfft/irfft pair of
    length N; lag k sits in column k."""
    f = np.fft.rfft(steps, n=N, axis=1)
    power = f.real * f.real
    power += f.imag * f.imag
    return np.fft.irfft(power, n=N, axis=1)


def _tail_roundoff(energy: np.ndarray, N: np.ndarray, u: float) -> np.ndarray:
    """A-priori bound on the rounding error of each closed-form tail, line
    by line (scalars work alike).

    The tail is r_0 (1 - 2u) minus twice the recursive sum of the L terms
    r_k w_k, w_k = sin(2 pi k u) / (pi k), with L <= N/2 - 1.  Each weight
    and product carries a few roundings whose absolute error is at most a
    few units of |w_k| + 2u, and recursive summation adds gamma_{L-1}
    times the sum of the magnitudes (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3-4).  With |r_k| <= r_0 and |w_k| <= 2u the
    error is at most gamma_{N/2+8} r_0 (1 + 4 u N).  The bound takes the
    FFT's r_k as given; their own error is what the np.correlate check in
    line_decomposition measures, and the 1e-12 floor of the line check
    absorbs it.
    """
    return _gamma(N // 2 + 8) * energy * (1.0 + 4.0 * u * N)


def _mass_roundoff(main: np.ndarray, N: np.ndarray) -> np.ndarray:
    """A-priori bound on how far each computed main term (8 pi^2 / 3) u^3 p^2
    falls below the one of the exact line mass p, line by line.

    A line mass is the sequential sum of at most L <= N/2 - 1 nonnegative
    terms, so the computed mass is at least p (1 - gamma_{L-1}) (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3-4), and the
    constant and the products of the main term add at most eight
    roundings.  The exact main term is then at most main / (1 - gamma_k)
    with k = 2 (L - 1) + 8 <= N + 4, which exceeds main by
    main gamma_k / (1 - gamma_k) = main k u / (1 - 2 k u).
    """
    ku = (N + 4) * UNIT_ROUNDOFF
    return main * ku / (1.0 - 2.0 * ku)


@dataclass(frozen=True)
class LineDecomposition:
    """nu split along lines {x + l v}, one array entry per occupied line,
    lines in representative order.

    Each line is carried by its difference sequence d (L + 1 entries for
    a line spanning L positions) and the autocorrelation r_k of d, taken
    with one FFT of length line_nodes (the smallest power of two >=
    2(L + 1), so the correlation does not wrap).  line_masses and
    line_energies are the sequential left-to-right sums of the line's
    masses and of the d_j^2, the sums a per-line Python loop gives;
    spectral_energy_bound_check charges the mass rounding in its slack
    (_mass_roundoff).  quadrature_energies is the spectral r_0, the
    integral of |1 - e(-t)|^2 |nu_hat_{x,v}(t)|^2 over the circle; the
    build fails unless it agrees with the direct energy to 1e-10 per
    line.  tail_terms holds each line's share of that integral over
    split < |t| <= 1/2, in closed form:
    beta = r_0 (1 - 2u) - 2 sum_{k=1}^{L} r_k sin(2 pi k u) / (pi k) with
    u = split (all zero when no split is supplied or u >= 1/2).  tv is
    half the summed |d| over every line, the TV distance between nu and
    its translate by v.  line_nodes is a tuple of Python ints; the other
    per-line values are arrays, representatives with one row per line.
    """

    direction: tuple[int, ...]
    representatives: np.ndarray
    line_masses: np.ndarray
    line_energies: np.ndarray
    quadrature_energies: np.ndarray
    tail_terms: np.ndarray
    line_nodes: tuple[int, ...]
    split: float
    tv: float

    @property
    def total_energy(self) -> float:
        return exact_sum(self.line_energies)


def line_decomposition(
    nu: SparseMeasure, v: Sequence[int], split: float | None = None
) -> LineDecomposition:
    """Split nu into lines along v and compute both energy forms.

    Lines are laid out as dense zero-padded rows and grouped by FFT
    length N; the lines are ordered by N, and by representative within
    one N, so each group's rows are one slice of a single buffer,
    filled by one scatter.  Each group takes one batched rfft/irfft for
    the autocorrelations of its difference sequences, and its line masses
    and direct energies d . d are sequential row sums (np.cumsum), which
    the padding zeros leave at each line's own sum.  Every line energy is
    evaluated twice, directly and spectrally as r_0, and the two must
    agree to 1e-10.  For the longest line of each group the FFT
    autocorrelation is checked lag by lag against np.correlate to 1e-10.
    A split u in [0, 1/2] gives each line the closed-form tail beyond
    |t| > u, summed over k in increasing order (the order _tail_roundoff
    bounds).
    """
    vv = _direction(v)
    u = 0.0 if split is None else float(split)
    with_tail = split is not None and u < 0.5
    reps, ell, mass, starts = _line_layout(nu, vv)
    bounds = np.flatnonzero(np.append(starts, True))
    first, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    lo = ell[first]
    lengths = ell[bounds[1:] - 1] - lo + 1
    # N = 1 << bit_length(2 L + 1), the smallest power of two holding the
    # linear autocorrelation of L + 1 differences without wrap-around;
    # frexp's exponent of an integer below 2^53 is its bit length
    exponent = np.frexp(2 * lengths + 1)[1]
    fft_len = np.left_shift(1, exponent.astype(np.int64))
    count = first.size
    # the lines by N, in representative order within one N; a group's
    # rows are K + 2 wide, K its longest line, with a zero on each side
    by_len = np.argsort(exponent, kind="stable")
    span = lengths[by_len]
    # bincount, not np.unique, which imports numpy.ma
    per_exponent = np.bincount(exponent)
    members = per_exponent[per_exponent > 0]
    heads = np.cumsum(members) - members
    longest = np.maximum.reduceat(span, heads)
    width = np.repeat(longest + 2, members)
    row_at = np.cumsum(width) - width
    origin = np.empty(count, dtype=np.int64)
    origin[by_len] = row_at - lo[by_len] + 1
    cells = np.zeros(int(row_at[-1] + width[-1]))
    # Each (representative, ell) holds exactly one atom, so this is a
    # scatter, never a sum.
    cells[np.repeat(origin, sizes) + ell] = mass
    r0 = np.empty(count)
    tails = np.zeros(count)
    energies = np.empty(count)
    masses = np.empty(count)
    k = np.arange(1, int(longest[-1]) + 1, dtype=float)
    weights = np.sin(2.0 * math.pi * u * k) / (math.pi * k)
    checks = []

    for a, m, K in zip(heads.tolist(), members.tolist(), longest.tolist()):
        b = a + m
        N = int(fft_len[by_len[a]])
        at = int(row_at[a])
        rows = cells[at : at + m * (K + 2)].reshape(m, K + 2)
        steps = rows[:, 1:] - rows[:, :-1]
        # Sequential left-to-right row sums: the zeros that pad a short
        # line's row add exactly, so each line gets its own loop's sum.
        energies[a:b] = np.cumsum(steps * steps, axis=1)[:, -1]
        masses[a:b] = np.cumsum(rows, axis=1)[:, -1]
        r = _autocorrelations(steps, N)
        r0[a:b] = r[:, 0]
        if with_tail:
            # a running sum, so the trailing zeros of a short line's row
            # leave its partial sum at column L - 1 untouched
            run = np.cumsum(r[:, 1 : K + 1] * weights[:K], axis=1)
            part = run[np.arange(m), span[a:b] - 1]
            tails[a:b] = r[:, 0] * (1.0 - 2.0 * u) - 2.0 * part
        j = int(np.argmax(span[a:b]))
        checks.append((int(by_len[a + j]), N, r[j, : K + 1], steps[j, : K + 1]))
    # back to representative order
    rank = np.empty(count, dtype=np.intp)
    rank[by_len] = np.arange(count)
    energies, masses, r0, tails = energies[rank], masses[rank], r0[rank], tails[rank]

    gap = np.abs(energies - r0)
    bad = np.flatnonzero(gap > 1e-10)
    if bad.size:
        i = int(bad[0])
        raise RuntimeError(
            "line energy mismatch between direct and spectral forms on the line "
            f"through {tuple(reps[i].tolist())} along {vv}: "
            f"direct {float(energies[i])!r}, "
            f"spectral r_0 {float(r0[i])!r} ({int(fft_len[i])}-point FFT), "
            f"|difference| {float(gap[i]):.3e} exceeds the tolerance 1e-10"
        )
    for i, N, r, d in checks:
        L = d.size - 1
        direct = np.correlate(d, d, "full")[L:]
        lag = int(np.argmax(np.abs(r - direct)))
        if abs(r[lag] - direct[lag]) > 1e-10:
            raise RuntimeError(
                "line autocorrelation mismatch between the FFT and np.correlate "
                f"on the line through {tuple(reps[i].tolist())} along {vv} "
                f"({N}-point FFT): lag "
                f"{lag}, FFT {float(r[lag])!r}, correlate {float(direct[lag])!r}, "
                f"|difference| {abs(r[lag] - direct[lag]):.3e} exceeds the "
                "tolerance 1e-10"
            )
    return LineDecomposition(
        direction=vv,
        representatives=reps,
        line_masses=masses,
        line_energies=energies,
        quadrature_energies=r0,
        tail_terms=tails,
        line_nodes=tuple(fft_len.tolist()),
        split=u,
        tv=_layout_tv(ell, mass, starts),
    )


# -- measured structure spread -----------------------------------------------


@dataclass(frozen=True)
class HeavySpread:
    """Worst grid distance of the above-threshold transform to a structure."""

    threshold: float
    count: int
    worst_distance: float


def measured_structure_spread(
    nu: SparseMeasure, W: SketchLattice | NearOriginBasis, eta: float
) -> HeavySpread:
    """Scan the transform of nu on a power-of-two grid of side at least
    128 that covers its support, and report how far the frequencies above
    eta stray from the structure (heavy_cells).

    Grid points only; the spread is a measured proxy for the theoretical
    neighborhood radius, not a certificate between grid points.
    """
    exponent = _covering_exponent([nu], GRID_EXPONENT)
    # no float lies between eta + 1e-12 and the next one up, so >= that
    # is the strict > eta + 1e-12
    level = np.nextafter(eta + 1e-12, np.inf)
    heavy, _ = heavy_cells([nu], level, exponent)
    if heavy.shape[0] == 0:
        return HeavySpread(eta, 0, 0.0)
    zetas = _reduce_torus(heavy / 2**exponent)
    return HeavySpread(eta, int(heavy.shape[0]), float(W.distance(zetas).max()))


# -- spectral energy bound ----------------------------------------------------


@dataclass(frozen=True)
class SpectralEnergyReport:
    """Per-line energy bounds for a shift direction against a structure,
    with the line decomposition they were checked on.

    Precondition failures are collected in `violations` rather than
    raised, so a rejected direction still produces a readable report.
    """

    direction: tuple[int, ...]
    delta: float
    eta: float
    u: float
    violations: tuple[str, ...]
    decomposition: LineDecomposition
    total_energy: float
    total_beta: float
    beta_budget: float
    passed: bool


def spectral_energy_bound_check(
    nu: SparseMeasure,
    W: SketchLattice | NearOriginBasis,
    delta: float,
    eta: float,
    v: Sequence[int],
    spread: HeavySpread,
) -> SpectralEnergyReport:
    """Check the per-line energy bound for the shift v against (W, delta, eta),
    with `spread` the measured spread of nu's above-eta frequencies from W.

    Each line must satisfy E <= (8 pi^2 / 3) u^3 p^2 + beta + slack with
    u = |v| delta, where E is the spectral line energy r_0, beta the
    closed-form integral of the line's weighted power over |t| > u, and
    the slack the a-priori roundoff allowance of that closed form
    (_tail_roundoff), the allowance for the rounded line mass in the main
    term (_mass_roundoff) and a 1e-12 floor; the betas must aggregate to
    at most 4 eta^2.  Violated preconditions (non-integral pairing, shift
    outside the 1/(2 delta) window, above-eta frequencies far from W) are
    reported individually instead of raised, as are the first line over
    its bound and an aggregate over budget.
    """
    vv = _direction(v)
    norm_v = math.sqrt(sum(c * c for c in vv))
    u = norm_v * delta
    violations = W.pairing_violations(vv)
    if norm_v > 1.0 / (2.0 * delta) + 1e-12:
        violations.append(
            f"|v| = {norm_v:.6g} exceeds the window 1/(2 delta) = {1.0 / (2.0 * delta):.6g}"
        )
    if spread.worst_distance > delta + 1e-12:
        violations.append(
            f"{spread.count} grid frequencies above eta stray to distance"
            f" {spread.worst_distance:.6g} > delta from the structure"
        )

    dec = line_decomposition(nu, vv, split=u)
    p, energy, beta = dec.line_masses, dec.quadrature_energies, dec.tail_terms
    main_bound = (8.0 * math.pi**2 / 3.0) * u**3 * p * p
    nodes = np.array(dec.line_nodes)
    roundoff = _tail_roundoff(energy, nodes, u)
    mass_roundoff = _mass_roundoff(main_bound, nodes)
    slack = roundoff + mass_roundoff + 1e-12
    over = np.flatnonzero(~(energy <= main_bound + beta + slack))
    if over.size:
        i = int(over[0])
        violations.append(
            f"line through {tuple(dec.representatives[i].tolist())}: energy"
            f" {energy[i]:.6g} exceeds main {main_bound[i]:.6g} + beta"
            f" {beta[i]:.6g} + slack {slack[i]:.6g}"
            f" (roundoff allowance {roundoff[i]:.3g} + mass rounding"
            f" {mass_roundoff[i]:.3g} + floor 1e-12)"
        )
    # running sums, left to right as a loop adds
    total_beta = float(np.cumsum(beta)[-1])
    total_energy = float(np.cumsum(energy)[-1])
    beta_budget = 4.0 * eta * eta + 1e-9
    aggregate_ok = total_beta <= beta_budget
    passed = not violations and aggregate_ok
    if not aggregate_ok:
        violations = tuple(violations) + (
            f"aggregate beta {total_beta:.6g} exceeds 4 eta^2 = {4.0 * eta * eta:.6g}",
        )
    return SpectralEnergyReport(
        direction=vv,
        delta=float(delta),
        eta=float(eta),
        u=u,
        violations=tuple(violations),
        decomposition=dec,
        total_energy=total_energy,
        total_beta=total_beta,
        beta_budget=beta_budget,
        passed=passed,
    )


# -- ball reduction ------------------------------------------------------------


@dataclass(frozen=True)
class BallReductionReport:
    direction: tuple[int, ...]
    center: tuple[float, ...]
    H: float
    main_term: float
    spectral_term: float
    mass_term: float
    bound: float
    actual_tv: float
    vacuous: bool
    spectral: SpectralEnergyReport
    passed: bool


def _center_distances(nu: SparseMeasure, center: np.ndarray) -> np.ndarray:
    """Euclidean distance of each atom of nu to the center."""
    d = nu.points - center
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def ball_reduction_tv_bound(
    nu: SparseMeasure,
    v: Sequence[int],
    W: SketchLattice | NearOriginBasis,
    delta: float,
    eta: float,
    center: Sequence[float],
    H: float,
    spread: HeavySpread,
    *,
    distances: np.ndarray | None = None,
) -> BallReductionReport:
    """Bound the translation TV by concentrating the comparison on a ball.

    bound = pi sqrt(2 H) |v| delta^{3/2}
          + (4 H)^{(n+1)/2} eta
          + mass outside the ball of radius H - |v| around the center
    (the truncation deficit of nu counts as outside mass).  The bound is
    meaningful only when nu is a genuine convolution whose transform is
    small off the structure; for degenerate inputs such as a bare point
    mass the off-structure level eta is 1 and the bound exceeds any TV,
    which the `vacuous` flag records.  When every precondition holds the
    inequality is asserted; precondition failures downgrade to a report
    with passed=False.  The actual TV is read off the line decomposition
    the spectral check builds, so the support is sorted along v once.
    `distances` are the atoms' distances to the center (_center_distances),
    for a caller that bounds many shifts around one center; they are
    computed here when absent.
    """
    vv = _direction(v)
    n = nu.dimension
    norm_v = math.sqrt(sum(c * c for c in vv))
    if H < norm_v:
        raise ValueError("ball radius H must be at least |v|")
    carr = np.asarray(center, dtype=float)
    spectral = spectral_energy_bound_check(nu, W, delta, eta, vv, spread=spread)
    main = math.pi * math.sqrt(2.0 * H) * norm_v * delta**1.5
    spectral_term = (4.0 * H) ** ((n + 1) / 2.0) * eta
    if distances is None:
        distances = _center_distances(nu, carr)
    far = distances > H - norm_v
    mass_term = float(nu.masses[far].sum()) + nu.deficit
    bound = main + spectral_term + mass_term
    actual = spectral.decomposition.tv
    ok = actual <= bound + 1e-9
    if spectral.passed and not ok:
        raise RuntimeError("translation TV exceeds the certified ball-reduction bound")
    return BallReductionReport(
        direction=vv,
        center=tuple(float(c) for c in carr),
        H=float(H),
        main_term=main,
        spectral_term=spectral_term,
        mass_term=mass_term,
        bound=bound,
        actual_tv=actual,
        vacuous=bound >= 1.0,
        spectral=spectral,
        passed=spectral.passed and ok,
    )


# -- convolution tail center ----------------------------------------------------


@dataclass(frozen=True)
class TailCenter:
    """Center and certified radius for the mass of a convolution.

    The center sums the means of the pieces truncated at their own radii
    (truncated mass is zeroed, not renormalized); outside_mass is the mass
    of the exact convolution beyond the radius, its deficit included.
    """

    center: tuple[float, ...]
    radius: float
    mass_bound: float
    truncation_radii: tuple[float, ...]
    outside_mass: float


def convolution_tail_center(
    mus: Sequence[SparseMeasure],
    R: float,
    L: float,
    conv: SparseMeasure,
) -> TailCenter:
    """Tail center of the convolution of dense pieces at level L >= 1.

    Piece i is truncated at R T_i with
    T_i = sqrt(L^2 + (2/pi) log(sqrt(2)^n / alpha_i)); the mass of the
    convolution outside radius 2 R sqrt(M) L sqrt(n + L^2 + S) around the
    summed truncated means is at most 2 M exp(-L^2/2).  `conv` is the
    convolution of mus; its mass outside the radius, deficit included, is
    checked against that bound before returning.
    """
    if not mus:
        raise ValueError("empty measure list")
    if L < 1.0:
        raise ValueError("level L must be at least 1")
    n = mus[0].dimension
    M = len(mus)
    radii = []
    S = 0.0
    center = np.zeros(n)
    for m in mus:
        cert = density_certificate(m, R)
        S = max(S, cert.S)
        T = math.sqrt(L * L + (2.0 / math.pi) * (0.5 * n * math.log(2.0) - math.log(cert.alpha)))
        radii.append(R * T)
        norms = np.sqrt(np.einsum("ij,ij->i", m.points.astype(float), m.points.astype(float)))
        keep = norms <= R * T
        center += m.points[keep].astype(float).T @ m.masses[keep]
    radius = 2.0 * R * math.sqrt(M) * L * math.sqrt(n + L * L + S)
    mass_bound = 2.0 * M * math.exp(-L * L / 2.0)

    d = conv.points - center
    far = np.sqrt(np.einsum("ij,ij->i", d, d)) > radius
    outside = float(conv.masses[far].sum()) + conv.deficit
    if outside > mass_bound + 1e-12:
        raise RuntimeError("mass outside the certified radius exceeds the bound")
    return TailCenter(
        center=tuple(float(c) for c in center),
        radius=radius,
        mass_bound=mass_bound,
        truncation_radii=tuple(radii),
        outside_mass=outside,
    )


# -- end-to-end invariance certification ----------------------------------------


@dataclass(frozen=True)
class TranslationReport:
    """Certificates for one product of pieces, together with the frequency
    structure they were certified against, the factors they were measured
    on (`pieces`: the pieces, plus the reference factor on the mollified
    route) and their convolution.  records pairs each shift's kind,
    "kernel" or "control", with its ball-reduction report, kernel shifts
    first; an empty kernel leaves
    no kernel record.  Summaries such as max_kernel_tv are read off the
    records, not stored beside them."""

    R: float
    eta: float
    delta: float
    H: float
    center: tuple[float, ...]
    records: tuple[tuple[str, BallReductionReport], ...]
    warnings: tuple[str, ...]
    structure: SketchLattice | NearOriginBasis
    pieces: tuple[SparseMeasure, ...]
    convolution: SparseMeasure

    @property
    def max_kernel_tv(self) -> float:
        """The largest measured TV among the kernel records; NaN for an
        empty kernel."""
        return max(
            (rep.actual_tv for kind, rep in self.records if kind == "kernel"),
            default=math.nan,
        )


def _integer_ball(n: int, D: int) -> list[tuple[int, ...]]:
    """Nonzero integer vectors with |v|_2 <= D, one per sign pair, sorted
    by norm then lexicographically."""
    if D > MAX_KERNEL_RADIUS:
        raise ValueError(
            f"kernel enumeration is exhaustive; D is capped at {MAX_KERNEL_RADIUS}"
        )
    out = []
    for v in itertools.product(range(-D, D + 1), repeat=n):
        if not any(v) or sum(c * c for c in v) > D * D:
            continue
        lead = next(c for c in v if c)
        if lead > 0:
            out.append(v)
    out.sort(key=lambda w: (sum(c * c for c in w), w))
    return out


def translation_invariance_certify(
    mus: Sequence[SparseMeasure],
    route: str,
    structure: StructureConfig,
    D: int,
    max_kernel: int = 24,
    controls: int = 2,
) -> TranslationReport:
    """Certify which integer shifts leave the convolution nearly invariant.

    Extracts the frequency structure of the product under `structure`
    (exact chains or the near-origin basis for the mollified route, which
    appends one truncated reference factor of radius `structure.R` to the
    convolution), enumerates the shift kernel exhaustively over
    |v|_2 <= D, and runs the ball-reduction bound for the first
    `max_kernel` kernel shifts plus `controls` non-kernel shifts.  Each
    record pairs the shift's kind with its BallReductionReport, which
    carries the three terms, the bound, its `vacuous` flag and the
    spectral check with its (delta, eta); the report keeps the shared
    eta, delta, tail center and radius H.  An empty kernel is a valid
    outcome.  The scan grid exponent is raised until it covers the widest
    piece, with a warning.  The report returns the structure and the
    convolution it certified, so a caller reads them off instead of
    building them again.
    """
    if not mus:
        raise ValueError("empty measure list")
    n = mus[0].dimension
    M = len(mus)
    warnings: list[str] = []

    R, K = structure.R, structure.K
    grid_exponent = _covering_exponent(mus, structure.grid_exponent)
    if grid_exponent != structure.grid_exponent:
        warnings.append(f"scan grid exponent raised to {grid_exponent} to cover the pieces")
    if route not in ("exact", "mollified"):
        raise ValueError("unknown route")
    exact = route == "exact"
    scan_cfg = replace(structure, grid_exponent=grid_exponent)
    extracted = convolution_structure(mus, route, scan_cfg)
    warnings.extend(extracted.warnings)
    if exact:
        pieces = tuple(mus)
        eta = math.exp(-M / K)
    else:
        pieces = (*mus, gamma_truncated(n, R))
        # Off the kappa ball the reference transform decays below
        # exp(-R^2 kappa^2 / 5), so the mollified heavy set is confined
        # to the certified near-origin span.
        eta = max(math.exp(-M / K), math.exp(-(R**2) * extracted.kappa**2 / 5.0))

    nu = convolve_many_fft(pieces)
    spread = measured_structure_spread(nu, extracted, eta)
    if spread.count == 0:
        warnings.append("no grid frequency exceeds eta; delta falls back to 1e-12")
    delta = max(spread.worst_distance, 1e-12)

    level = max(1.0, math.log(2.0 * n * len(pieces)))
    tail = convolution_tail_center(pieces, R, level, nu)

    kernels = []
    off_kernel = []
    for v in _integer_ball(n, D):
        if not extracted.pairing_violations(v):
            kernels.append(v)
        elif len(off_kernel) < controls:
            off_kernel.append(v)
    if len(kernels) > max_kernel:
        warnings.append(
            f"kernel truncated to the first {max_kernel} of {len(kernels)} shifts"
        )
        kernels = kernels[:max_kernel]

    distances = _center_distances(nu, np.asarray(tail.center))
    records = tuple(
        (
            kind,
            ball_reduction_tv_bound(
                nu,
                v,
                extracted,
                delta,
                eta,
                tail.center,
                tail.radius,
                spread=spread,
                distances=distances,
            ),
        )
        for kind, vs in (("kernel", kernels), ("control", off_kernel))
        for v in vs
    )
    return TranslationReport(
        R=R,
        eta=eta,
        delta=delta,
        H=tail.radius,
        center=tail.center,
        records=records,
        warnings=tuple(warnings),
        structure=extracted,
        pieces=pieces,
        convolution=nu,
    )
