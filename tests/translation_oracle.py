"""The line layout and line decomposition that the sorted-group paths in
translation replaced: one stable sort of the atoms by representative,
then ell, per layout (np.lexsort here, which orders them as the packed
key with ell as its minor digit did), line starts where the
representative changes, the TV as math.fsum over a list, and FFT groups
picked out by full-length masks (`in_group[line]`, `flatnonzero`,
`cumsum(in_group)`) once per FFT length.  `line_decomposition` must
match every field of it byte for byte and raise the same messages."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from measure_oracle import lexsort_groups
from sketchlab.measure import SparseMeasure
from sketchlab.translation import LineDecomposition, _autocorrelations, _direction


def _line_layout(
    nu: SparseMeasure, v: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The atoms of nu on the lines {x + l v}, p = rep + ell v: one
    representative per line, in line order, then the atoms' positions ell
    and masses, sorted by line and then by ell, and flags marking where
    each line starts.

    The representative of {x + l v} is the point whose projection onto v
    lands in (-|v|^2/2, |v|^2/2], found in exact integer arithmetic.
    """
    vv = sum(c * c for c in v)
    varr = np.asarray(v, dtype=np.int64)
    q, r0 = np.divmod(nu.points @ varr, vv)
    # the remainder r0 - vv when r0 > vv/2, so one step further along v
    ell = q + (2 * r0 > vv)
    order, starts = lexsort_groups(nu.points - ell[:, None] * varr, minor=ell)
    firsts = order[starts]
    reps = nu.points[firsts] - ell[firsts, None] * varr
    return reps, ell[order], nu.masses[order], starts


def _layout_tv(ell: np.ndarray, mass: np.ndarray, starts: np.ndarray) -> float:
    """Half the L1 norm of nu(x) - nu(x - v) over the union support, read
    off a line layout.

    An atom whose line predecessor sits one step back gives the single
    subtraction of the two masses, any other atom its bare mass, and an
    atom whose next position is empty gives minus its mass: the nonzero
    steps of each line's zero-bordered row.  math.fsum is exactly
    rounded, so their order does not matter.
    """
    follows = ~starts[1:] & (np.diff(ell) == 1)
    rises = mass[1:] - np.where(follows, mass[:-1], 0.0)
    steps = np.concatenate((mass[:1], np.abs(rises), mass[:-1][~follows], mass[-1:]))
    # a list, which math.fsum walks faster than an ndarray
    return 0.5 * math.fsum(steps.tolist())


def line_decomposition(
    nu: SparseMeasure, v: Sequence[int], split: float | None = None
) -> LineDecomposition:
    """Split nu into lines along v and compute both energy forms.

    Lines are laid out as dense zero-padded rows and grouped by FFT
    length N; each group takes one batched rfft/irfft for the
    autocorrelations of its difference sequences, and its line masses and
    direct energies d . d are sequential row sums (np.cumsum), which the
    padding zeros leave at each line's own sum.  Every line energy is
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
    line = np.cumsum(starts) - 1
    bounds = np.flatnonzero(np.append(starts, True))
    first, end = bounds[:-1], bounds[1:]
    lo = ell[first]
    lengths = ell[end - 1] - lo + 1
    # column of each atom in its line's row, which has a zero on each side
    col = ell - lo[line] + 1
    # N = 1 << bit_length(2 L + 1), the smallest power of two holding the
    # linear autocorrelation of L + 1 differences without wrap-around;
    # frexp's exponent of an integer below 2^53 is its bit length
    exponent = np.frexp(2 * lengths + 1)[1]
    fft_len = np.left_shift(1, exponent.astype(np.int64))
    count = first.size
    r0 = np.empty(count)
    tails = np.zeros(count)
    energies = np.empty(count)
    masses = np.empty(count)
    k = np.arange(1, int(lengths.max()) + 1, dtype=float)
    weights = np.sin(2.0 * math.pi * u * k) / (math.pi * k)
    checks = []

    # the distinct exponents in increasing order; bincount, not np.unique,
    # which imports numpy.ma
    for e in np.flatnonzero(np.bincount(exponent)).tolist():
        N = 1 << e
        in_group = exponent == e
        members = np.flatnonzero(in_group)
        atoms = np.flatnonzero(in_group[line])
        span = lengths[members]
        K = int(span.max())
        rows = np.zeros((members.size, K + 2))
        # Each (representative, ell) holds exactly one atom, so this is a
        # scatter, never a sum.
        rows[(np.cumsum(in_group) - 1)[line[atoms]], col[atoms]] = mass[atoms]
        steps = np.diff(rows, axis=1)
        # Sequential left-to-right row sums: the zeros that pad a short
        # line's row add exactly, so each line gets its own loop's sum.
        energies[members] = np.cumsum(steps * steps, axis=1)[:, -1]
        masses[members] = np.cumsum(rows, axis=1)[:, -1]
        r = _autocorrelations(steps, N)
        r0[members] = r[:, 0]
        if with_tail:
            # a running sum, so the trailing zeros of a short line's row
            # leave its partial sum at column L - 1 untouched
            run = np.cumsum(r[:, 1 : K + 1] * weights[:K], axis=1)
            part = run[np.arange(members.size), span - 1]
            tails[members] = r[:, 0] * (1.0 - 2.0 * u) - 2.0 * part
        j = int(np.argmax(span))
        checks.append((members[j], N, r[j, : span[j] + 1], steps[j, : span[j] + 1]))

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
